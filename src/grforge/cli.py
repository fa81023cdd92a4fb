"""Command-line workbench.

Subcommands: gen, certify, gr, verify, filtration.  Exit codes: 0 all checks
pass, 1 a verified hypothesis or conclusion check failed, 2 malformed input
or internal error.  certify, every verify suite and filtration take their
code from the report they emit, by one rule: 0 iff files.report_passed.
Seeds of randomized suites: --seed, else GRFORGE_SEED, else 20240810.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

from . import __version__, certify, cyclo, files, fixtures, forced, modules
from . import randomized, suites, tightness
from .algebra import AlgebraError
from .graded import gr_algebra, gr_module
from .lattices import LatticeError
from .scalars import InternalCheckError, ScalarError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MALFORMED = 2


class UsageError(Exception):
    """A malformed command-line argument."""


def _seed(flag):
    env = os.environ.get("GRFORGE_SEED")
    try:
        return flag if flag is not None else int(env) if env else 20240810
    except ValueError:
        raise UsageError(f"GRFORGE_SEED is not an integer: {env!r}") from None


def _stem(path):
    name = Path(path).name
    for suffix in (".alg.json", ".json"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _labels(flag, arg, alg):
    """The labels in the algebra's Lambda that an option names, all of them
    when it is not given: the argument itself when it is a label (q-Schur
    labels such as `2,1` contain the comma), else its comma-separated
    parts, each named once."""
    if alg.weights is None:
        raise AlgebraError("algebra has no weight datum")
    known = list(alg.weights.Lambda)
    if arg is None:
        return known
    labels = [arg] if arg in known else arg.split(",")
    unknown = [x for x in labels if x not in known]
    if unknown:
        raise UsageError(f"{flag} names unknown labels {unknown}; "
                         f"the labels are {known}")
    repeated = sorted({x for x in labels if labels.count(x) > 1})
    if repeated:
        raise UsageError(f"{flag} names labels {repeated} more than once")
    return labels


def _multiplicities(arg):
    """The {label: count} pairs of `--mult`, comma-separated, a count
    ending each pair, so a label may contain commas: `2,1:2,3,0:1` gives
    {"2,1": 2, "3,0": 1}."""
    if not arg:
        return {}
    if not re.fullmatch(r"[^:]+:\d+(,[^:]+:\d+)*", arg):
        raise UsageError(f"--mult takes label:count pairs, not {arg!r}")
    pairs = re.findall(r"([^:]+):(\d+)(?:,|$)", arg)
    mult = {label: int(count) for label, count in pairs}
    if len(mult) != len(pairs):
        raise UsageError(f"--mult names a label more than once in {arg!r}")
    return mult


def _load_algebra(path):
    if path is None:
        raise UsageError("no algebra document given")
    with open(path) as fh:
        doc = json.load(fh)
    return files.doc_to_algebra(doc)


def _emit_report(args, suite, fixture_id, verdicts, witnesses, t0, input_hash=""):
    """Build the report (written to --report if given) and return its exit
    code: EXIT_OK iff files.report_passed."""
    doc = files.suite_report(suite, fixture_id, verdicts, witnesses,
                             wall_clock=round(time.time() - t0, 3),
                             input_hash=input_hash)
    if getattr(args, "report", None):
        Path(args.report).write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"report written to {args.report}")
    return EXIT_OK if files.report_passed(doc) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args):
    name = args.fixture
    if name == "z5":
        alg = fixtures.build_z5(args.p)
        meta = {
            "fixture": f"z5@{args.p}",
            "graded_subalgebra": {
                "basis": list(range(5)),
                "grades": [0, 0, 1, 1, 2],
            },
            "delta_gradings": {"1": [0], "2": [0, 1]},
        }
    elif name == "z5s":
        alg = fixtures.build_z5s(args.p)
        meta = {"fixture": f"z5s@{args.p}"}
    elif name == "qschur":
        if args.p not in (3, 5):  # build_qschur checks the range of d
            raise UsageError("qschur supports p in {3,5}")
        alg = fixtures.build_qschur(args.d, args.p)
        meta = {"fixture": f"qschur-n2-d{args.d}@{args.p}",
                "p_regular": alg.p_regular}
    elif name == "usl2":
        if args.p not in (3, 5):
            raise UsageError("usl2 supports p in {3,5}")
        alg = fixtures.build_usl2(args.p)
        info = alg.blocks_info
        meta = {"fixture": f"usl2@{args.p}",
                "blocked": info.get("blocked", False),
                "blocks": [
                    {"weights": b["weights"], "regular": b["regular"],
                     "idempotent_integral": b["idempotent_integral"]}
                    for b in info.get("blocks", [])]}
        if not info.get("blocked", False):
            meta["block_flag"] = info.get("reason", "idempotents not integral")
    elif name == "inflate":
        base = _load_algebra(args.input)
        alg = fixtures.inflate(base, _multiplicities(args.mult))
        meta = {"fixture": f"inflate({_stem(args.input)})"}
    elif name == "perturb":
        if args.count < 1:
            # a count below 1 rescales no basis element
            raise UsageError(f"--count must be at least 1, not {args.count}")
        base = _load_algebra(args.input)
        got = fixtures.perturb(base, seed=_seed(args.seed), count=args.count)
        if got is None:
            print("no valid mutation found", file=sys.stderr)
            return EXIT_CHECK_FAILED
        alg, scaling = got
        meta = {"fixture": f"perturb({_stem(args.input)})",
                "scaling": {str(k): v for k, v in scaling.items() if v}}
    else:
        print(f"unknown fixture {name!r}", file=sys.stderr)
        return EXIT_MALFORMED
    doc = files.algebra_to_doc(alg, metadata=meta)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{meta['fixture'].replace('(', '_').replace(')', '')}.alg.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    print(f"wrote {path} (rank {alg.rank})")
    if args.with_modules and alg.weights is not None:
        sp = modules.standard_and_projectives(alg)
        for lam in alg.weights.Lambda:
            for kind in ("P", "Delta"):
                mdoc = files.module_to_doc(sp[lam][kind], doc,
                                           name=f"{kind}({lam})")
                mp = out / f"{meta['fixture']}__{kind}_{lam}.mod.json"
                mp.write_text(json.dumps(mdoc, indent=2, sort_keys=True))
                print(f"wrote {mp}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def cmd_certify(args):
    t0 = time.time()
    alg = _load_algebra(args.algebra)
    if alg.weights is None:
        print("algebra has no weight datum; cannot certify", file=sys.stderr)
        return EXIT_MALFORMED
    order = _labels("--order", args.order, alg) if args.order else None
    cert = certify.certify_qha(alg, order=order)
    checker = certify.verify_chain(alg, cert)
    print(cert.summary())
    print(f"chain {'CERTIFIED' if cert.ok else 'FAILED'}; "
          f"independent checker {'agrees' if checker else 'DISAGREES'}")
    witnesses = {
        "steps": [{
            "labels": [str(x) for x in s.labels],
            "ok": s.ok,
            "verdicts": files._plain(s.verdicts),
            "ideal_rank": s.ideal_rank,
            "corner_blocks": list(s.corner.block_sizes) if s.corner else None,
        } for s in cert.steps],
    }
    return _emit_report(args, "certify", Path(args.algebra).stem,
                        {"certified": cert.ok, "checker_agrees": checker},
                        witnesses, t0, alg.source_hash)


# ---------------------------------------------------------------------------
# gr
# ---------------------------------------------------------------------------

def cmd_gr(args):
    alg = _load_algebra(args.algebra)
    gr = gr_algebra(alg)
    meta = {"fixture": f"gr({Path(args.algebra).stem})",
            "grades": list(gr.grades),
            "grade_ranks": list(gr.grade_ranks())}
    doc = files.algebra_to_doc(gr.algebra, metadata=meta)
    Path(args.output).write_text(json.dumps(doc, indent=2, sort_keys=True))
    print(f"wrote {args.output}; grade ranks {gr.grade_ranks()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _datum_from(args, alg):
    meta = getattr(alg, "metadata", {}) or {}
    if args.datum:
        with open(args.datum) as fh:
            dd = json.load(fh)
    elif "graded_subalgebra" in meta:
        dd = meta["graded_subalgebra"]
    else:
        raise AlgebraError("no graded subalgebra datum (flag --datum or "
                           "metadata.graded_subalgebra)")
    if not (isinstance(dd, dict) and isinstance(dd.get("basis"), list)
            and isinstance(dd.get("grades"), list)):
        raise UsageError("a datum is an object with lists basis and grades")
    basis, grades = dd["basis"], dd["grades"]
    if len(grades) != len(basis) or any(type(g) is not int for g in grades):
        raise UsageError(f"the datum needs one int grade per basis element, "
                         f"not {grades}")
    if all(isinstance(b, int) for b in basis):
        if not all(0 <= i < alg.rank for i in basis):
            raise UsageError(f"datum basis {basis} leaves range({alg.rank})")
        rows = [alg.basis_vec(i) for i in basis]
    elif all(isinstance(b, list) for b in basis):
        if any(len(r) != alg.rank for r in basis):
            raise UsageError(f"datum basis {basis} is not a list of rows of "
                             f"length {alg.rank}")
        rows = [_parsed(alg, r) for r in basis]
    else:
        raise UsageError(f"datum basis {basis} mixes indices and rows")
    wedd = dd.get("wedderburn") or None
    if wedd is not None:
        if not (isinstance(wedd, list) and all(
                isinstance(r, list) and len(r) == alg.rank for r in wedd)):
            raise UsageError(f"datum wedderburn {wedd} is not a list of "
                             f"rows of length {alg.rank}")
        wedd = [_parsed(alg, r) for r in wedd]
    return tightness.GradedSubalgebraDatum(rows, tuple(grades), wedd)


def _parsed(alg, row):
    """The {index: entry} dict of a length-checked document row."""
    return {i: x for i, x in enumerate(map(alg.ring.parse_scalar, row)) if x}


def cmd_verify(args):
    t0 = time.time()
    suite = args.suite
    if suite in ("prop52", "primitivity") and args.trials < 1:
        # a campaign of no trials would verify nothing
        print(f"error: --trials must be at least 1, not {args.trials}",
              file=sys.stderr)
        return EXIT_MALFORMED
    if suite == "appendix2":
        datum = cyclo.RootDatum.of_type(args.type)
        verdicts = cyclo.appendix_identity_suite(datum, args.p, args.order)
        comult = {f"comult_a{i+1}": cyclo.comult_check(datum, i, args.p, args.order)
                  for i in range(datum.rank)}
        allv = {f"{tag}/{item}": v for (tag, item), v in verdicts.items()}
        allv.update(comult)
        for k in sorted(allv):
            print(f"  {k}: {'pass' if allv[k] else 'FAIL'}")
        return _emit_report(args, "appendix2", f"{args.type}@p{args.p}",
                            allv, None, t0)
    alg = _load_algebra(args.algebra)
    fixture_id = Path(args.algebra).stem
    delta_gradings = (getattr(alg, "metadata", {}) or {}).get("delta_gradings")
    if suite == "thm417":
        res = suites.thm_417_suite(alg)
        _print_suite(res)
        verdicts = {"hypotheses": res.hypotheses, "conclusions": res.conclusions,
                    "falsification": not res.falsification}
        witnesses = res.notes
    elif suite == "cor416":
        mod = _pick_module(args, alg)
        gamma = _labels("--gamma", args.gamma, alg)
        res = suites.cor_416_check(alg, mod, gamma)
        _print_suite(res)
        verdicts = {"hypotheses": res.hypotheses, "conclusions": res.conclusions}
        witnesses = res.notes
    elif suite == "conds51":
        datum = _datum_from(args, alg)
        verdicts, witnesses = tightness.conditions_51_check(alg, datum,
                                                            delta_gradings)
        for k in sorted(verdicts):
            print(f"  {k}: {verdicts[k]}")
    elif suite == "thm53":
        datum = _datum_from(args, alg)
        lams = _labels("--lam", args.lam, alg)
        verdicts, witnesses = {}, None
        for lam in lams:
            res = tightness.thm_53_pipeline(
                alg, datum, lam, delta_gradings=delta_gradings)
            print(f"weight {lam}:")
            _print_suite(res)
            verdicts[lam] = {"hypotheses": res.hypotheses,
                             "conclusions": res.conclusions}
    elif suite == "appendix1":
        level = args.level
        af = alg.base_change(level)
        gamma = _labels("--gamma", args.gamma, alg)
        sp = modules.standard_and_projectives(af)
        extra = [(f"Delta({l})", sp[l]["Delta"]) for l in af.weights.Lambda]
        res = suites.field_case_suite(af, gamma, extra_modules=extra)
        _print_suite(res)
        fixture_id = f"{fixture_id}@{level}"
        verdicts = {"hypotheses": res.hypotheses, "conclusions": res.conclusions}
        witnesses = res.notes
    elif suite == "prop52":
        datum = _datum_from(args, alg)
        witnesses = randomized.prop52_campaign(alg, datum, args.trials,
                                               _seed(args.seed))
        print(f"  {witnesses}")
        verdicts = {"agreements": witnesses["agreements"],
                    "no_disagreements": witnesses["disagreements"] == 0}
    elif suite == "primitivity":
        sp = modules.standard_and_projectives(alg)
        mods = []
        for lam in alg.weights.Lambda:
            mods.extend([sp[lam]["P"], sp[lam]["Delta"]])
        witnesses = randomized.primitivity_campaign(alg, mods, args.trials,
                                                    _seed(args.seed))
        print(f"  {witnesses}")
        verdicts = {
            "implication_holds": witnesses["implication_violations"] == 0,
            "maximality_holds": witnesses["maximality_violations"] == 0}
    else:
        print(f"unknown suite {suite!r}", file=sys.stderr)
        return EXIT_MALFORMED
    return _emit_report(args, suite, fixture_id, verdicts, witnesses, t0,
                        alg.source_hash)


def _pick_module(args, alg):
    if args.module:
        with open(args.module) as fh:
            mdoc = json.load(fh)
        return files.doc_to_module(mdoc, alg)
    spec = args.builtin or "regular"
    if spec == "regular":
        return modules.regular_module(alg)
    kind, _, lam = spec.partition("(")
    if kind not in ("P", "Delta") or not lam.endswith(")"):
        raise UsageError(
            f"--builtin takes regular, P(lam) or Delta(lam), not {spec!r}")
    lams = _labels("--builtin", lam[:-1], alg)
    if len(lams) != 1:
        raise UsageError(f"--builtin names one label, not {lams}")
    return modules.standard_and_projectives(alg)[lams[0]][kind]


def _print_suite(res):
    for k, v in res.hypotheses.items():
        print(f"  [hyp] {k}: {'pass' if v else 'FAIL'}")
    for k, v in res.conclusions.items():
        print(f"  [cncl] {k}: {'pass' if v else 'FAIL'}")
    if res.falsification:
        print("  ** FALSIFICATION EVENT: hypotheses hold, conclusion fails **")


# ---------------------------------------------------------------------------
# filtration
# ---------------------------------------------------------------------------

def cmd_filtration(args):
    t0 = time.time()
    alg = _load_algebra(args.algebra)
    fixture_id = Path(args.algebra).stem
    if args.module:
        with open(args.module) as fh:
            mod = files.doc_to_module(json.load(fh), alg)
    else:
        mod = modules.regular_module(alg)
    try:
        stages = modules.delta_filtration(mod)
    except modules.FiltrationFailure as exc:
        print(f"no Delta-filtration: {exc}")
        return _emit_report(args, "filtration", fixture_id, {"filtered": False},
                            {"reason": str(exc)}, t0, alg.source_hash)
    print("sections bottom-to-top:",
          [(str(s.label), s.copies) for s in stages])
    ring, zero = alg.ring, mod.fld.zero

    def written(rows, width):
        # a report writes each row dense
        return [[ring.format_scalar(row.get(j, zero)) for j in range(width)]
                for row in rows]

    verdicts = {"filtered": True}
    witnesses = {
        "sections": {str(k): v for k, v in
                     modules.section_multiset(stages).items()},
        "stages": [{
            "label": str(s.label),
            "copies": s.copies,
            # the witness maps Delta(label)^copies to the stage
            "witness_matrix": written(
                s.witness,
                s.copies * modules.standard_module(alg, s.label).rank),
            "chain_sublattice": written(s.sub_rows_original, mod.rank),
        } for s in stages],
    }
    if args.graded:
        try:
            gstages = forced.gr_delta_filtration(
                gr_module(gr_algebra(alg), mod))
        except modules.FiltrationFailure as exc:
            print(f"no graded Delta-filtration: {exc}")
            verdicts["graded_filtered"] = False
            witnesses["graded_reason"] = str(exc)
        else:
            gsections = [(str(s.label), s.copies, s.shift, s.kind)
                         for s in gstages]
            print("graded sections:", gsections)
            verdicts["graded_filtered"] = True
            witnesses["graded_sections"] = gsections
    return _emit_report(args, "filtration", fixture_id, verdicts, witnesses, t0,
                        alg.source_hash)


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="grforge",
        description="exact-arithmetic workbench for forced gradings of "
                    "integral quasi-hereditary algebras")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate fixture documents")
    g.add_argument("fixture",
                   choices=["z5", "z5s", "qschur", "usl2", "inflate", "perturb"])
    g.add_argument("--p", type=int, default=3)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--input", help="source algebra for inflate/perturb")
    g.add_argument("--mult", help="inflate multiplicities, label:count "
                   "pairs, e.g. '2:2' or '2,1:2,3,0:1'")
    g.add_argument("--with-modules", action="store_true")
    g.add_argument("-o", "--output", default=".")
    g.set_defaults(fn=cmd_gen)

    c = sub.add_parser("certify", help="heredity chain certification")
    c.add_argument("algebra")
    c.add_argument("--order", help="comma-separated strip order")
    c.add_argument("--report")
    c.set_defaults(fn=cmd_certify)

    r = sub.add_parser("gr", help="write the forced graded algebra")
    r.add_argument("algebra")
    r.add_argument("-o", "--output", required=True)
    r.set_defaults(fn=cmd_gr)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=["thm417", "cor416", "conds51", "thm53",
                                     "appendix1", "appendix2", "prop52",
                                     "primitivity"])
    v.add_argument("algebra", nargs="?")
    v.add_argument("--module")
    v.add_argument("--builtin", help="regular | P(lam) | Delta(lam)")
    v.add_argument("--gamma", help="comma-separated poset ideal")
    v.add_argument("--lam", help="comma-separated weights")
    v.add_argument("--datum", help="graded subalgebra datum JSON")
    v.add_argument("--level", choices=["K", "k"], default="k")
    v.add_argument("--p", type=int, default=5)
    v.add_argument("--type", default="A1")
    v.add_argument("--order", type=int, default=8)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--report")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("filtration", help="Delta-filtration of a module")
    f.add_argument("algebra")
    f.add_argument("module", nargs="?")
    f.add_argument("--graded", action="store_true")
    f.add_argument("--report")
    f.set_defaults(fn=cmd_filtration)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, files.DocumentError, AlgebraError, ScalarError,
            LatticeError, json.JSONDecodeError, FileNotFoundError,
            cyclo.CycloError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
