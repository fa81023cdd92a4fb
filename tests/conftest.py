import pytest

from grforge import fixtures, graded, modules, radicals


@pytest.fixture(scope="session")
def z5():
    return fixtures.build_z5(3)


@pytest.fixture(scope="session")
def z5s():
    return fixtures.build_z5s(3)


@pytest.fixture(scope="session")
def z5_k(z5):
    return z5.base_change("k")


@pytest.fixture(scope="session")
def z5_K(z5):
    return z5.base_change("K")


@pytest.fixture(scope="session")
def gr_z5(z5):
    return graded.gr_algebra(z5)


@pytest.fixture(scope="session")
def sp_z5(z5):
    return modules.standard_and_projectives(z5)


@pytest.fixture(scope="session")
def z5_simples_k(z5_k):
    rad = radicals.radical_field(z5_k)
    return rad, modules.weight_simples(z5_k)


@pytest.fixture(scope="session")
def qschur33():
    return fixtures.build_qschur(3, 3)


@pytest.fixture(scope="session")
def qschur23():
    return fixtures.build_qschur(2, 3)


@pytest.fixture(scope="session")
def qschur25():
    return fixtures.build_qschur(2, 5)


@pytest.fixture(scope="session")
def usl2_p3():
    return fixtures.build_usl2(3)
