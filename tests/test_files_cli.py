import json
from importlib import resources

import jsonschema
import pytest

from grforge import cli, files, modules, suites
from grforge.algebra import AlgebraError
from grforge.scalars import InternalCheckError


@pytest.fixture(scope="module")
def z5_doc(z5):
    return files.algebra_to_doc(z5, metadata={"fixture": "z5@3"})


class TestDocuments:
    def test_roundtrip_byte_identical(self, z5, z5_doc):
        loaded = files.doc_to_algebra(z5_doc)
        again = files.algebra_to_doc(loaded, metadata={"fixture": "z5@3"})
        assert files.canonical_json(again) == files.canonical_json(z5_doc)

    def test_module_hash_guard(self, z5, z5s, z5_doc):
        sp = modules.standard_and_projectives(z5)
        mdoc = files.module_to_doc(sp["1"]["P"], z5_doc)
        loaded = files.doc_to_algebra(z5_doc)
        assert files.doc_to_module(mdoc, loaded).rank == 3
        other = files.doc_to_algebra(files.algebra_to_doc(z5s))
        with pytest.raises(files.DocumentError):
            files.doc_to_module(mdoc, other)

    def test_schema_violation_reported(self):
        with pytest.raises(files.DocumentError) as exc:
            files.doc_to_algebra({"schema": "grforge/v1/algebra", "rank": 1})
        assert "schema violation" in str(exc.value)

    def test_schema_read_and_checked_once(self, z5_doc, monkeypatch):
        """Three loads open algebra.json once, build its validator once and
        compile its accept check once."""
        files._validator.cache_clear()
        files._accepts.cache_clear()
        opened = []
        package_files = files.resources.files
        monkeypatch.setattr(files.resources, "files", lambda package: (
            opened.append(package) or package_files(package)))
        for _ in range(3):
            files.doc_to_algebra(z5_doc)
        assert opened == ["grforge.schemas"]
        assert files._validator.cache_info().misses == 1
        info = files._accepts.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("rank"),
        lambda d: d.update(rank="five"),
        # two violations each, and the first one found is not the best match
        lambda d: (d["ring"].update(p=2), d["structure_constants"][0].pop()),
        lambda d: d.update(unit=[None], basis_labels=[1]),
    ])
    def test_schema_error_is_the_one_jsonschema_reports(self, z5_doc, mutate):
        doc = json.loads(files.canonical_json(z5_doc))
        mutate(doc)
        schema = json.loads(resources.files("grforge.schemas")
                            .joinpath("algebra.json").read_text())
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(doc, schema)
        path = "/".join(str(p) for p in ref.value.absolute_path)
        with pytest.raises(files.DocumentError) as got:
            files.doc_to_algebra(doc)
        assert str(got.value) == \
            f"schema violation at /{path}: {ref.value.message}"

    @pytest.mark.parametrize("mutate", [
        lambda d: d["unit"].__setitem__(0, "1.5"),
        lambda d: d["unit"].__setitem__(1, None),
        lambda d: d["unit"].__setitem__(2, ["1", "x"]),
        lambda d: d["structure_constants"][0].__setitem__(3, "1/"),
        lambda d: d["structure_constants"][1].__setitem__(3, [[1]]),
        lambda d: d["structure_constants"][2].__setitem__(3, 1.5),
        lambda d: d["weights"]["idempotents"]["1"].__setitem__(0, " 3"),
        lambda d: d["weights"]["idempotents"]["2"].__setitem__(1, {}),
        lambda d: d["generators"]["alpha"].__setitem__(2, True),
        lambda d: d["generators"]["e1"].__setitem__(0, [1.5]),
        lambda d: d["structure_constants"][0].pop(),
        lambda d: d.update(ring={"flavor": "real", "p": 3}),
        lambda d: d.update(ring={"flavor": "rational_local", "p": 2}),
        lambda d: (d["unit"].__setitem__(0, "x"),
                   d["generators"]["beta"].__setitem__(3, "y")),
    ])
    def test_inlined_schema_reports_as_the_file_does(self, z5_doc, mutate):
        """The validator with its `$ref`s inlined gives the same DocumentError
        text as one built on algebra.json as written."""
        doc = json.loads(files.canonical_json(z5_doc))
        mutate(doc)
        schema = json.loads(resources.files("grforge.schemas")
                            .joinpath("algebra.json").read_text())
        as_written = jsonschema.validators.validator_for(schema)(schema)
        want = jsonschema.exceptions.best_match(as_written.iter_errors(doc))
        assert want is not None
        path = "/".join(str(p) for p in want.absolute_path)
        with pytest.raises(files.DocumentError) as got:
            files.validate_schema(doc, "algebra.json")
        assert str(got.value) == f"schema violation at /{path}: {want.message}"
        assert isinstance(got.value.__cause__, jsonschema.ValidationError)

    @pytest.mark.parametrize("name", ["algebra.json", "module.json",
                                      "report.json"])
    def test_validators_resolve_no_refs(self, name):
        assert "$ref" not in json.dumps(files._validator(name).schema)

    def test_bad_scalar_rejected(self, z5_doc):
        doc = json.loads(files.canonical_json(z5_doc))
        doc["structure_constants"][0][3] = "1.5"
        with pytest.raises(files.DocumentError):
            files.doc_to_algebra(doc)

    @pytest.mark.parametrize("value", [
        "3", "-3", "3/4", "-0/7", 0, -12, [], [1, "2/3"], ["-5", 0],
        "1.5", " 3", "3/", "/3", "3/-4", "", True, None, 1.0, 1.5, {},
        [True], [1.5], [[1]], [None], [1, "2/3 "],
    ])
    def test_scalar_schema_accepts_what_the_oneof_accepted(self, value):
        # the three branches are type-disjoint, so "exactly one" is "any"
        pattern = "^-?[0-9]+(/[0-9]+)?$"
        one_of = {"oneOf": [
            {"type": "string", "pattern": pattern},
            {"type": "integer"},
            {"type": "array", "items": {"oneOf": [
                {"type": "string", "pattern": pattern},
                {"type": "integer"}]}}]}
        schema = json.loads(resources.files("grforge.schemas")
                            .joinpath("algebra.json").read_text())
        typed = schema["definitions"]["scalar"]
        assert "oneOf" not in json.dumps(typed)
        valid = jsonschema.Draft7Validator(one_of).is_valid(value)
        assert jsonschema.Draft7Validator(typed).is_valid(value) == valid

    def test_cyclotomic_roundtrip(self, qschur23):
        doc = files.algebra_to_doc(qschur23)
        loaded = files.doc_to_algebra(doc)
        assert files.canonical_json(files.algebra_to_doc(loaded)) == \
            files.canonical_json(doc)

    def test_report_stability(self):
        r1 = files.suite_report("s", "f", {"a": True}, wall_clock=1.0)
        r2 = files.suite_report("s", "f", {"a": True}, wall_clock=9.9)
        assert files.stable_portion(r1) == files.stable_portion(r2)


class TestCLI:
    def test_gen_certify_roundtrip(self, tmp_path):
        assert cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)]) == 0
        alg = tmp_path / "z5@3.alg.json"
        assert alg.exists()
        rep = tmp_path / "cert.json"
        assert cli.main(["certify", str(alg), "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["verdicts"]["certified"] is True

    def test_gen_qschur_writes_the_document(self, tmp_path):
        assert cli.main(["gen", "qschur", "--d", "3", "--p", "3",
                         "-o", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "qschur-n2-d3@3.alg.json").read_text())
        assert doc["rank"] == 20

    def test_gen_qschur_out_of_range_exits_2(self, tmp_path, capsys):
        # the range of d is the builder's own check, reported as an error
        assert cli.main(["gen", "qschur", "--d", "7", "--p", "3",
                         "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_control_exit_code(self, tmp_path):
        cli.main(["gen", "z5s", "--p", "3", "-o", str(tmp_path)])
        assert cli.main(["certify", str(tmp_path / "z5s@3.alg.json")]) == 1

    def test_malformed_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["certify", str(bad)]) == 2
        missing = tmp_path / "missing.json"
        assert cli.main(["certify", str(missing)]) == 2

    @pytest.mark.parametrize("first, second, message", [
        # an entry outside O = Z_(3): the datum's rows span no sublattice
        (["1/3", "0"], ["0", "1"], "error: generator entry outside O"),
        # the second row is twice the first: no basis
        (["1", "0"], ["2", "0"], "error: subalgebra basis is not independent"),
    ])
    def test_malformed_datum_exits_2(self, tmp_path, capsys, first, second,
                                     message):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        rows = [first + ["0"] * 3, second + ["0"] * 3]
        rows += [["1" if t == i else "0" for t in range(5)] for i in (2, 3, 4)]
        datum = tmp_path / "d.json"
        datum.write_text(json.dumps({"basis": rows, "grades": [0, 0, 1, 1, 2]}))
        capsys.readouterr()
        code = cli.main(["verify", "thm53", str(tmp_path / "z5@3.alg.json"),
                         "--datum", str(datum), "--lam", "1"])
        assert code == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("datum, suite", [
        ({"basis": [0, 1, 2, 3, 4]}, "thm53"),
        ([[0, 1, 2, 3, 4], [0, 0, 1, 1, 2]], "conds51"),
        ({"basis": 5, "grades": [0]}, "conds51"),
        ({"basis": [0, 1, 2, 3, 9], "grades": [0, 0, 1, 1, 2]}, "thm53"),
        ({"basis": [0, 1, 2, 3, 4], "grades": [0, 0, 1]}, "conds51"),
        ({"basis": [0, 1, 2, 3, 4], "grades": [0, 0, 1]}, "thm53"),
        ({"basis": [0, 1, 2, 3, 4], "grades": [0, 0, 1]}, "prop52"),
        ({"basis": [0, 1, 2, 3, 4], "grades": [0, 0, 1, 1, 2, 2]}, "conds51"),
        ({"basis": [0, 1, 2, 3, 4], "grades": [0, 0, 1, 1, 2, 2]}, "thm53"),
        ({"basis": [0, 1, 2, 3, 4], "grades": ["0", "0", "1", "1", "2"]},
         "prop52"),
        ({"basis": [0, ["0", "1", "0", "0", "0"], 2, 3, 4],
          "grades": [0, 0, 1, 1, 2]}, "conds51"),
        ({"basis": [["1", "0", "0", "0", "0"], ["0", "1"],
                    ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"],
                    ["0", "0", "0", "0", "1"]],
          "grades": [0, 0, 1, 1, 2]}, "thm53"),
        ({"basis": [0, 1, 2, 3, 4], "grades": [0, 0, 1, 1, 2],
          "wedderburn": [1, 2]}, "conds51"),
        ({"basis": [0, 1, 2, 3, 4], "grades": [0, 0, 1, 1, 2],
          "wedderburn": [["1", "0"]]}, "conds51"),
    ], ids=["no-grades", "not-an-object", "basis-not-a-list", "index-9",
            "3-grades-conds51", "3-grades-thm53", "3-grades-prop52",
            "6-grades-conds51", "6-grades-thm53", "string-grades",
            "indices-and-rows", "short-basis-row", "wedderburn-not-rows",
            "short-wedderburn-row"])
    def test_malformed_datum_shape_exits_2(self, tmp_path, capsys, datum,
                                           suite):
        # a datum that is no object, lacks grades, names an index outside
        # the algebra, has one grade too few, one too many or a string,
        # mixes indices with rows, gives a basis row that is too short, or
        # gives wedderburn rows that are not lists or are too short
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        path = tmp_path / "d.json"
        path.write_text(json.dumps(datum))
        capsys.readouterr()
        assert cli.main(["verify", suite, str(tmp_path / "z5@3.alg.json"),
                         "--datum", str(path)]) == 2
        self._one_error_line(capsys)

    @pytest.mark.parametrize("suite", ["thm417", "appendix1"])
    def test_failed_report_exits_1(self, tmp_path, suite):
        # z5s@3 is not quasi-hereditary over O: the report does not pass
        cli.main(["gen", "z5s", "--p", "3", "-o", str(tmp_path)])
        rep = tmp_path / "report.json"
        code = cli.main(["verify", suite, str(tmp_path / "z5s@3.alg.json"),
                         "--report", str(rep)])
        assert not files.report_passed(json.loads(rep.read_text()))
        assert code == 1

    def test_internal_check_error_exits_2(self, tmp_path, monkeypatch):
        def broken(alg):
            raise InternalCheckError("lifted idempotents do not sum to 1")

        assert not issubclass(InternalCheckError, AlgebraError)
        monkeypatch.setattr(suites, "thm_417_suite", broken)
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        assert cli.main(["verify", "thm417",
                         str(tmp_path / "z5@3.alg.json")]) == 2

    def test_appendix2_cli(self):
        assert cli.main(["verify", "appendix2", "--p", "5", "--type", "A1",
                         "--order", "8"]) == 0

    def test_appendix2_g2_p3_malformed(self):
        assert cli.main(["verify", "appendix2", "--p", "3", "--type", "G2",
                         "--order", "8"]) == 2

    @staticmethod
    def _one_error_line(capsys):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return err[0]

    @pytest.mark.parametrize("mult", ["2", "2:x", "2:2,", "2:2,2:3"])
    def test_malformed_multiplicities_exit_2(self, tmp_path, capsys, mult):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        capsys.readouterr()
        assert cli.main(["gen", "inflate", "--input",
                         str(tmp_path / "z5@3.alg.json"), "--mult", mult,
                         "-o", str(tmp_path)]) == 2
        assert repr(mult) in self._one_error_line(capsys)

    @pytest.mark.parametrize("args", [
        ["certify", "--order", "9"],
        ["verify", "thm53", "--lam", "9"],
        ["verify", "cor416", "--gamma", "9"],
        ["verify", "appendix1", "--gamma", "9"],
        ["verify", "cor416", "--builtin", "P(9)"],
        ["verify", "cor416", "--builtin", "Delta(1,9)"],
    ])
    def test_unknown_label_exits_2_naming_the_labels(self, tmp_path, capsys,
                                                      args):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        capsys.readouterr()
        alg = str(tmp_path / "z5@3.alg.json")
        assert cli.main(args[:-2] + [alg] + args[-2:]) == 2
        line = self._one_error_line(capsys)
        assert args[-2] in line and "['9']" in line and "['1', '2']" in line

    @pytest.mark.parametrize("args", [
        ["certify", "--order", "2,2"],
        ["verify", "thm53", "--lam", "1,1"],
        ["verify", "cor416", "--gamma", "1,1"],
    ])
    def test_repeated_label_exits_2(self, tmp_path, capsys, args):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        capsys.readouterr()
        alg = str(tmp_path / "z5@3.alg.json")
        assert cli.main(args[:-2] + [alg] + args[-2:]) == 2
        line = self._one_error_line(capsys)
        assert args[-2] in line and "more than once" in line

    def test_inflate_label_outside_x_exits_2(self, tmp_path, capsys):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        capsys.readouterr()
        assert cli.main(["gen", "inflate", "--input",
                         str(tmp_path / "z5@3.alg.json"), "--mult", "9:2",
                         "-o", str(tmp_path)]) == 2
        line = self._one_error_line(capsys)
        assert "['9']" in line and "['1', '2']" in line
        assert not (tmp_path / "inflate_z5@3.alg.json").exists()

    def test_inflate_takes_labels_with_commas(self, tmp_path):
        assert cli.main(["gen", "qschur", "--d", "3", "--p", "3",
                         "-o", str(tmp_path)]) == 0
        assert cli.main(["gen", "inflate", "--input",
                         str(tmp_path / "qschur-n2-d3@3.alg.json"),
                         "--mult", "2,1:2,3,0:1", "-o", str(tmp_path)]) == 0
        infl = files.doc_to_algebra(json.loads(
            (tmp_path / "inflate_qschur-n2-d3@3.alg.json").read_text()))
        assert infl.weights.X == ("3,0#0", "2,1#0", "2,1#1", "1,2#0", "0,3#0")
        assert infl.rank == 34

    @pytest.mark.parametrize("builtin", ["foo", "P(1", "Q(1)", "P(1,2)"])
    def test_malformed_builtin_exits_2(self, tmp_path, capsys, builtin):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        capsys.readouterr()
        assert cli.main(["verify", "cor416", str(tmp_path / "z5@3.alg.json"),
                         "--builtin", builtin]) == 2
        assert "--builtin" in self._one_error_line(capsys)

    @pytest.mark.parametrize("args", [["verify", "thm417"],
                                      ["gen", "inflate", "--mult", "2:2"]])
    def test_missing_algebra_exits_2(self, capsys, args):
        assert cli.main(args) == 2
        assert self._one_error_line(capsys) == \
            "error: no algebra document given"

    @pytest.mark.parametrize("suite", ["cor416", "appendix1"])
    def test_labels_of_an_algebra_without_weights_exit_2(self, tmp_path,
                                                         capsys, z5_doc, suite):
        doc = json.loads(files.canonical_json(z5_doc))
        del doc["weights"]
        path = tmp_path / "bare.alg.json"
        path.write_text(files.canonical_json(doc))
        assert cli.main(["verify", suite, str(path)]) == 2
        assert self._one_error_line(capsys) == \
            "error: algebra has no weight datum"

    def test_a_label_with_a_comma_is_one_label(self, tmp_path, capsys,
                                               qschur23):
        # the q-Schur labels of S(2,2) are "2,0" and "1,1"
        path = tmp_path / "qschur.alg.json"
        path.write_text(files.canonical_json(files.algebra_to_doc(qschur23)))
        assert cli.main(["verify", "cor416", str(path), "--builtin", "P(1,1)",
                         "--gamma", "1,1"]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "cor416", str(path), "--gamma",
                         "2,0,1,1"]) == 2
        line = self._one_error_line(capsys)
        assert "['2', '0', '1', '1']" in line and "['2,0', '1,1']" in line

    def test_filtration_cli(self, tmp_path):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        assert cli.main(["filtration", alg, "--graded"]) == 0

    def test_verify_thm417_and_thm53(self, tmp_path):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        assert cli.main(["verify", "thm417", alg]) == 0
        assert cli.main(["verify", "thm53", alg]) == 0
        assert cli.main(["verify", "conds51", alg]) == 0

    def test_verify_randomized_suites(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRFORGE_SEED", "4242")
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        assert cli.main(["verify", "prop52", alg, "--trials", "15"]) == 0
        assert cli.main(["verify", "primitivity", alg, "--trials", "40"]) == 0

    def test_seedless_runs_repeat(self, tmp_path, monkeypatch):
        # without --seed and GRFORGE_SEED a campaign uses the fixed default
        monkeypatch.delenv("GRFORGE_SEED", raising=False)
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        reports = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.json"
            cli.main(["verify", "primitivity", alg, "--trials", "40",
                      "--report", str(out)])
            reports.append(files.stable_portion(json.loads(out.read_text())))
        assert reports[0] == reports[1]

    def test_seed_flag_beats_environment(self, tmp_path, monkeypatch):
        from grforge import randomized

        seeds = []

        def campaign(alg, mods, trials, seed):
            seeds.append(seed)
            return {"implication_violations": 0, "maximality_violations": 0}

        monkeypatch.setattr(randomized, "primitivity_campaign", campaign)
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        monkeypatch.setenv("GRFORGE_SEED", "7")
        for extra in (["--seed", "5"], []):
            cli.main(["verify", "primitivity", alg, "--trials", "1"] + extra)
        monkeypatch.delenv("GRFORGE_SEED")
        cli.main(["verify", "primitivity", alg, "--trials", "1"])
        assert seeds == [5, 7, 20240810]

    def test_non_integer_seed_is_malformed(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("GRFORGE_SEED", "abc")
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        capsys.readouterr()
        assert cli.main(["verify", "prop52", str(tmp_path / "z5@3.alg.json"),
                         "--trials", "1"]) == 2
        assert "GRFORGE_SEED" in self._one_error_line(capsys)

    @pytest.mark.parametrize("suite", ["prop52", "primitivity"])
    def test_campaign_without_trials_is_malformed(self, tmp_path, suite):
        # a campaign of no trials verifies nothing: a usage error, not a
        # failed check
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        for trials in ("0", "-1"):
            assert cli.main(["verify", suite, alg, "--trials", trials]) == 2

    @pytest.mark.parametrize("args, said", [
        (["qschur", "--p", "4"], "qschur supports p in {3,5}"),
        (["usl2", "--p", "7"], "usl2 supports p in {3,5}"),
        (["inflate", "--mult", "9:2"], "['9']"),
        (["perturb", "--count", "0"], "--count must be at least 1"),
        (["perturb", "--count", "-1"], "--count must be at least 1")])
    def test_rejected_gen_is_one_error_line_and_leaves_no_path(
            self, tmp_path, capsys, args, said):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        capsys.readouterr()
        out = tmp_path / "out"
        if args[0] in ("inflate", "perturb"):
            args = args + ["--input", str(tmp_path / "z5@3.alg.json")]
        assert cli.main(["gen"] + args + ["-o", str(out)]) == 2
        assert said in self._one_error_line(capsys)
        assert not out.exists()

    def test_gr_and_report_revalidates(self, tmp_path):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        out = str(tmp_path / "gr.alg.json")
        assert cli.main(["gr", alg, "-o", out]) == 0
        doc = json.loads(open(out).read())
        loaded = files.doc_to_algebra(doc)
        assert loaded.rank == 5
        assert doc["metadata"]["grade_ranks"] == [2, 2, 1]

    def test_perturb_chain(self, tmp_path):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        assert cli.main(["gen", "perturb", "--input", alg, "--seed", "5",
                         "-o", str(tmp_path)]) == 0
        mut = tmp_path / "perturb_z5@3.alg.json"
        assert mut.exists()
        code = cli.main(["certify", str(mut)])
        assert code in (0, 1)  # judged, either way, consistently

    def test_inflate_cli(self, tmp_path):
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg = str(tmp_path / "z5@3.alg.json")
        assert cli.main(["gen", "inflate", "--input", alg, "--mult", "2:2",
                         "-o", str(tmp_path)]) == 0
        infl = tmp_path / "inflate_z5@3.alg.json"
        loaded = files.doc_to_algebra(json.loads(infl.read_text()))
        assert loaded.rank == 10

    @staticmethod
    def _z5_module_file(tmp_path, mutate):
        """z5@3 and a module document over it (P(1), after `mutate`)."""
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg_path = tmp_path / "z5@3.alg.json"
        adoc = json.loads(alg_path.read_text())
        mod = modules.standard_and_projectives(files.doc_to_algebra(adoc))["1"]["P"]
        mdoc = files.module_to_doc(mod, adoc)
        mutate(mdoc)
        mod_path = tmp_path / "mod.json"
        mod_path.write_text(files.canonical_json(mdoc))
        return str(alg_path), str(mod_path)

    def test_unparsable_scalars_exit_2(self, tmp_path, capsys):
        # "1/0" passes algebra.json's scalar pattern; module.json has none
        cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
        alg_path = tmp_path / "z5@3.alg.json"
        doc = json.loads(alg_path.read_text())
        doc["unit"][1] = "1/0"
        bad = tmp_path / "bad.alg.json"
        bad.write_text(files.canonical_json(doc))
        assert cli.main(["certify", str(bad)]) == 2
        alg, mod = self._z5_module_file(
            tmp_path, lambda d: d["action"][0][0].__setitem__(0, "x"))
        assert cli.main(["filtration", alg, mod]) == 2
        assert "bad scalar" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["0", "1"])
    def test_action_row_of_the_wrong_length_exits_2(self, tmp_path, capsys,
                                                   entry):
        alg, mod = self._z5_module_file(
            tmp_path, lambda d: d["action"][1][0].append(entry))
        assert cli.main(["filtration", alg, mod]) == 2
        assert "3 x 3" in capsys.readouterr().err

    def test_zero_module_has_an_empty_filtration(self, tmp_path):
        def zero(doc):
            doc["rank"] = 0
            doc["action"] = [[] for _ in doc["action"]]

        alg, mod = self._z5_module_file(tmp_path, zero)
        loaded = files.doc_to_algebra(json.loads(open(alg).read()))
        assert files.doc_to_module(json.loads(open(mod).read()), loaded).rank == 0
        rep = tmp_path / "zero.json"
        assert cli.main(["filtration", alg, mod, "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["witnesses"]["sections"] == {}
