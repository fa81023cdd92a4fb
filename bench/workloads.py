"""The three workloads: set-up from a seed, the job list, and each job's
expected verdict.

A job is what one CLI command does: parse a serialized document, load it
with ``files.doc_to_algebra`` (or build the root datum), run the suite, and
build the suite report.  A job passes only if its verdict is the expected
one.  Set-up builds the fixtures with ``fixtures.build_*``, applies the seed
transforms and serializes the documents; jobs receive only those documents.
"""

from __future__ import annotations

import json

from transforms import (
    doc_to_root_datum,
    permute_algebra_doc,
    permute_root_datum_doc,
    random_permutation,
    rng_for,
    root_datum_doc,
)


class Job:
    """A named unit of work; ``run`` returns (verdict_ok, report_doc)."""

    def __init__(self, name, run):
        self.name = name
        self.run = run


def _load(text):
    from grforge import files

    return files.doc_to_algebra(json.loads(text))


def _suite_report(suite, fixture_id, res, alg):
    from grforge import files

    return files.suite_report(
        suite, fixture_id,
        {"hypotheses": res.hypotheses, "conclusions": res.conclusions,
         "falsification": not res.falsification},
        res.notes, input_hash=alg.source_hash)


def _suite_passed(res):
    return (res.hypotheses_ok and all(bool(v) for v in res.conclusions.values())
            and not res.falsification)


# ---------------------------------------------------------------------------
# thm417_qschur
# ---------------------------------------------------------------------------

QSCHUR_GRID = ((2, 5), (3, 3))


def setup_thm417(seed):
    """q-Schur documents S(2,d) over Z_(p)[zeta], each with a seeded random
    basis permutation."""
    from grforge import files, fixtures

    docs = {}
    for d, p in QSCHUR_GRID:
        alg = fixtures.build_qschur(d, p)
        doc = files.algebra_to_doc(alg, metadata={"fixture": f"qschur-n2-d{d}@{p}"})
        perm = random_permutation(rng_for(seed, "qschur", d, p), alg.rank)
        docs[(d, p)] = json.dumps(permute_algebra_doc(doc, perm), sort_keys=True)
    return docs


def jobs_thm417(docs):
    from grforge import suites

    def job(key):
        def run():
            alg = _load(docs[key])
            res = suites.thm_417_suite(alg)
            return _suite_passed(res), _suite_report(
                "thm417", f"qschur-n2-d{key[0]}@{key[1]}", res, alg)
        return Job(f"thm417/qschur-d{key[0]}@{key[1]}", run)

    return [job(key) for key in QSCHUR_GRID]


def samples_thm417(docs):
    from probe import operands_from_algebra_doc

    return [operands_from_algebra_doc(json.loads(t)) for t in docs.values()]


# ---------------------------------------------------------------------------
# z5_campaigns
# ---------------------------------------------------------------------------

Z5_PRIMES = (3, 5)
Z5_GRADES = [0, 0, 1, 1, 2]
Z5_DELTA_GRADINGS = {"1": [0], "2": [0, 1]}
Z5_GAMMAS = (("1",), ("1", "2"))
# criterion 6's module grid; "Delta(2)^2" is the direct sum of two copies
Z5_MODULES = ("P(1)", "P(2)", "Delta(2)", "regular", "Delta(2)^2")
PROP52_TRIALS = 50
PRIMITIVITY_TRIALS = 400
MUTANTS_PER_PRIME = 6


def setup_z5(seed):
    """z5 and z5s documents at p in {3, 5}, seeded perturb mutants of z5,
    and the seeds of the two randomized campaigns."""
    from grforge import files, fixtures

    out = {"z5": {}, "z5s": {}, "mutants": {}, "seeds": {}}
    for p in Z5_PRIMES:
        meta = {"fixture": f"z5@{p}",
                "graded_subalgebra": {"basis": list(range(5)),
                                      "grades": Z5_GRADES},
                "delta_gradings": Z5_DELTA_GRADINGS}
        z5 = fixtures.build_z5(p)
        out["z5"][p] = json.dumps(files.algebra_to_doc(z5, metadata=meta),
                                  sort_keys=True)
        out["z5s"][p] = json.dumps(
            files.algebra_to_doc(fixtures.build_z5s(p),
                                 metadata={"fixture": f"z5s@{p}"}),
            sort_keys=True)
        rng = rng_for(seed, "z5", p)
        out["seeds"][p] = {"prop52": rng.randrange(2 ** 31),
                           "primitivity": rng.randrange(2 ** 31)}
        mutants = []
        while len(mutants) < MUTANTS_PER_PRIME:
            got = fixtures.perturb(z5, seed=rng.randrange(2 ** 31),
                                   count=rng.randint(1, 2))
            if got is None:
                continue
            mutant, scaling = got
            meta_m = {"fixture": f"perturb(z5@{p})",
                      "scaling": {str(k): v for k, v in scaling.items() if v}}
            mutants.append(json.dumps(
                files.algebra_to_doc(mutant, metadata=meta_m), sort_keys=True))
        out["mutants"][p] = mutants
    return out


def _z5_datum(alg):
    from grforge import tightness

    dd = alg.metadata["graded_subalgebra"]
    rows = [alg.basis_vec(i) for i in dd["basis"]]
    return tightness.GradedSubalgebraDatum(rows, tuple(dd["grades"]))


def _z5_module(alg, spec):
    from grforge import modules

    if spec == "regular":
        return modules.regular_module(alg)
    sp = modules.standard_and_projectives(alg)
    if spec == "Delta(2)^2":
        return modules.direct_sum_module(sp["2"]["Delta"], 2)
    kind, _, lam = spec.partition("(")
    return sp[lam.rstrip(")")]["P" if kind == "P" else "Delta"]


def jobs_z5(inp):
    from grforge import certify, files, modules, randomized, suites, tightness

    jobs = []
    for p in Z5_PRIMES:
        text = inp["z5"][p]
        fid = f"z5@{p}"
        seeds = inp["seeds"][p]

        def prop52(text=text, fid=fid, seed=seeds["prop52"]):
            alg = _load(text)
            stats = randomized.prop52_campaign(alg, _z5_datum(alg),
                                               PROP52_TRIALS, seed)
            ok = stats["disagreements"] == 0
            return ok, files.suite_report(
                "prop52", fid, {"agreements": stats["agreements"],
                                "no_disagreements": ok},
                stats, input_hash=alg.source_hash)

        def primitivity(text=text, fid=fid, seed=seeds["primitivity"]):
            alg = _load(text)
            sp = modules.standard_and_projectives(alg)
            mods = []
            for lam in alg.weights.Lambda:
                mods.extend([sp[lam]["P"], sp[lam]["Delta"]])
            stats = randomized.primitivity_campaign(alg, mods,
                                                    PRIMITIVITY_TRIALS, seed)
            verdicts = {
                "implication_holds": stats["implication_violations"] == 0,
                "maximality_holds": stats["maximality_violations"] == 0}
            return all(verdicts.values()), files.suite_report(
                "primitivity", fid, verdicts, stats,
                input_hash=alg.source_hash)

        def thm53(text=text, fid=fid):
            alg = _load(text)
            datum = _z5_datum(alg)
            ok = True
            verdicts = {}
            for lam in alg.weights.Lambda:
                res = tightness.thm_53_pipeline(
                    alg, datum, lam,
                    delta_gradings=alg.metadata["delta_gradings"])
                ok = ok and _suite_passed(res)
                verdicts[lam] = {"hypotheses": res.hypotheses,
                                 "conclusions": res.conclusions}
            return ok, files.suite_report("thm53", fid, verdicts, None,
                                          input_hash=alg.source_hash)

        jobs += [Job(f"prop52/{fid}", prop52),
                 Job(f"primitivity/{fid}", primitivity),
                 Job(f"thm53/{fid}", thm53)]

        for spec in Z5_MODULES:
            for gamma in Z5_GAMMAS:
                def cor416(text=text, fid=fid, spec=spec, gamma=gamma):
                    alg = _load(text)
                    res = suites.cor_416_check(alg, _z5_module(alg, spec), gamma)
                    return _suite_passed(res), _suite_report(
                        "cor416", f"{fid}/{spec}/{','.join(gamma)}", res, alg)
                jobs.append(Job(f"cor416/{fid}/{spec}/{','.join(gamma)}", cor416))

        for level in ("k", "K"):
            for gamma in Z5_GAMMAS:
                def appendix1(text=text, fid=fid, level=level, gamma=gamma):
                    alg = _load(text)
                    af = alg.base_change(level)
                    sp = modules.standard_and_projectives(af)
                    extra = [(f"Delta({lam})", sp[lam]["Delta"])
                             for lam in af.weights.Lambda]
                    res = suites.field_case_suite(af, gamma, extra_modules=extra)
                    return _suite_passed(res), _suite_report(
                        "appendix1", f"{fid}@{level}/{','.join(gamma)}", res, alg)
                jobs.append(Job(f"appendix1/{fid}@{level}/{','.join(gamma)}",
                                appendix1))

        def negative(text=inp["z5s"][p], fid=f"z5s@{p}"):
            # expected: the chain fails at the first strip ("2",) because the
            # quotient has pi-torsion, and the checker agrees with that
            alg = _load(text)
            cert = certify.certify_qha(alg)
            checker = certify.verify_chain(alg, cert)
            step = cert.steps[0] if cert.steps else None
            ok = (not cert.ok and checker and step is not None
                  and tuple(step.labels) == ("2",)
                  and step.verdicts.get("free_quotient") is False)
            return ok, files.suite_report(
                "certify", fid, {"certified": cert.ok, "checker_agrees": checker},
                {"failure": cert.failure}, input_hash=alg.source_hash)

        jobs.append(Job(f"certify/z5s@{p}", negative))

        for k, mtext in enumerate(inp["mutants"][p]):
            def mutant(text=mtext, fid=f"perturb(z5@{p})#{k}"):
                alg = _load(text)
                cert = certify.certify_qha(alg)
                checker = certify.verify_chain(alg, cert)
                return checker, files.suite_report(
                    "certify", fid,
                    {"certified": cert.ok, "checker_agrees": checker},
                    {"failure": cert.failure}, input_hash=alg.source_hash)
            jobs.append(Job(f"certify/perturb(z5@{p})#{k}", mutant))
    return jobs


def samples_z5(inp):
    from probe import operands_from_algebra_doc

    texts = list(inp["z5"].values()) + list(inp["z5s"].values())
    for ms in inp["mutants"].values():
        texts.extend(ms)
    return [operands_from_algebra_doc(json.loads(t)) for t in texts]


# ---------------------------------------------------------------------------
# appendix_cyclo
# ---------------------------------------------------------------------------

APPENDIX_GRID = ((5, "A2"), (5, "B2"), (5, "G2"), (7, "A2"), (7, "B2"))
APPENDIX_ORDER = 8


def setup_appendix(seed):
    """Root-datum documents with the simple roots in a seeded order."""
    from grforge import cyclo

    docs = {}
    for p, label in APPENDIX_GRID:
        datum = cyclo.RootDatum.of_type(label)
        perm = random_permutation(rng_for(seed, "roots", p, label), datum.rank)
        doc = permute_root_datum_doc(root_datum_doc(datum, p, APPENDIX_ORDER),
                                     perm)
        docs[(p, label)] = json.dumps(doc, sort_keys=True)
    return docs


def jobs_appendix(docs):
    from grforge import cyclo, files

    def job(key):
        def run():
            doc = json.loads(docs[key])
            datum = doc_to_root_datum(doc)
            p, order = doc["p"], doc["order"]
            verdicts = {f"{tag}/{item}": v for (tag, item), v in
                        cyclo.appendix_identity_suite(datum, p, order).items()}
            for i in range(datum.rank):
                verdicts[f"comult_a{i + 1}"] = cyclo.comult_check(datum, i, p,
                                                                   order)
            report = files.suite_report("appendix2", f"{key[1]}@p{key[0]}",
                                        verdicts, None)
            return files.report_passed(report), report
        return Job(f"appendix2/{key[1]}@p{key[0]}", run)

    return [job(key) for key in APPENDIX_GRID]


def samples_appendix(docs):
    from probe import operands_from_root_datum_doc

    return [operands_from_root_datum_doc(json.loads(t)) for t in docs.values()]


# ---------------------------------------------------------------------------

WORKLOADS = {
    "thm417_qschur": (setup_thm417, jobs_thm417, samples_thm417),
    "z5_campaigns": (setup_z5, jobs_z5, samples_z5),
    "appendix_cyclo": (setup_appendix, jobs_appendix, samples_appendix),
}
