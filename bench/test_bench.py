"""Self-tests of the benchmark: the seed transforms keep verdicts, set-up is
a function of the seed, and BENCHMARK.json names exactly the metrics that
run.py reports.

    python3 -m pytest bench/test_bench.py
"""

import json
import random

import run
import transforms
import workloads

run.import_grforge()

from grforge import cyclo, files, fixtures, suites  # noqa: E402


def _verdicts(res):
    return res.hypotheses, res.conclusions, res.falsification


def test_basis_permutation_keeps_thm417_verdicts():
    doc = files.algebra_to_doc(fixtures.build_qschur(2, 3))
    perm = transforms.random_permutation(random.Random(7), doc["rank"])
    assert perm != sorted(perm)
    permuted = transforms.permute_algebra_doc(doc, perm)
    inverse = [perm.index(i) for i in range(len(perm))]
    assert transforms.permute_algebra_doc(permuted, inverse) == doc
    before = suites.thm_417_suite(files.doc_to_algebra(doc))
    after = suites.thm_417_suite(files.doc_to_algebra(permuted))
    assert _verdicts(after) == _verdicts(before)
    assert workloads._suite_passed(after)


def test_root_permutation_keeps_appendix_verdicts():
    datum = cyclo.RootDatum.of_type("B2")
    doc = transforms.root_datum_doc(datum, 5, 4)
    swapped = transforms.doc_to_root_datum(
        transforms.permute_root_datum_doc(doc, [1, 0]))
    assert swapped.cartan != datum.cartan
    before = cyclo.appendix_identity_suite(datum, 5, 4)
    after = cyclo.appendix_identity_suite(swapped, 5, 4)
    # tags name roots by simple-root coefficients, which the swap reverses
    assert sorted(after.values()) == sorted(before.values())
    assert all(after.values())
    assert [cyclo.comult_check(swapped, i, 5, 4) for i in range(2)] == \
        [cyclo.comult_check(datum, i, 5, 4) for i in (1, 0)]


def test_campaign_and_mutant_seeds_keep_expected_verdicts():
    for seed in (1, 2):
        inputs = workloads.setup_z5(seed)
        assert inputs == workloads.setup_z5(seed)
        picked = [job for job in workloads.jobs_z5(inputs)
                  if job.name.startswith(("certify/", "prop52/z5@3"))]
        for job in picked:
            ok, report = job.run()
            assert ok, (seed, job.name, report["verdicts"])
    assert workloads.setup_z5(1)["mutants"] != workloads.setup_z5(2)["mutants"]


def test_setup_is_a_function_of_the_seed():
    assert workloads.setup_appendix(3) == workloads.setup_appendix(3)
    docs = [workloads.setup_appendix(s) for s in range(4)]
    assert any(d != docs[0] for d in docs[1:])


def test_benchmark_json_matches_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
