import ast
import dataclasses
import io
import json
import math
import os
import random
import re
import time
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from rigidity import selftest
from rigidity._util import MEMO_SIZE
from rigidity.classifier import GroupDescriptor, Outcome, classify, validate_descriptor
from rigidity.cli import D4_OUT_OF_SCOPE, VERDICT_SCHEMA, emit_descriptor, main, parse, parse_catalog, verdict_to_json
from rigidity.descriptor import _MEMO_TEXT, _TYPE_CODES, _format_form, _place_label, _read_place, _read_real
from rigidity.arith_equiv import PermGroup
from rigidity.brauer import RESIDUE_WORK_LIMIT, OmegaVector
from rigidity.catalog import wreath_pair
from rigidity.errors import ContractError, DescriptorParseError, ValidationError
from rigidity.field_model import FieldDescriptor, HbarFiber, PlaceLabel, PlacePerm, PlaceSymmetry
from rigidity.invariants import (
    TRIVIAL,
    Family,
    FormKind,
    GroupType,
    PlaceKind,
    h2_local,
    has_symmetry,
    shape_elements,
    zero,
)
from rigidity.real_forms import GENERIC, RealFormTag, form_for_class, real_class, trivial_image_forms
from rigidity.selftest import FIXTURES

import genfix
from oracles import reference_parse, run_python


class TestParse:
    def test_all_fixtures_parse(self):
        for name, text in FIXTURES.items():
            parse(text)

    def test_bundled_fixtures_are_the_repository_fixtures(self, fixtures_dir):
        assert os.path.samefile(str(files("rigidity") / "fixtures"), fixtures_dir)
        assert sorted(FIXTURES) == sorted(p.stem for p in fixtures_dir.glob("*.grp"))
        assert len(FIXTURES) == 14

    def test_empty_file(self):
        with pytest.raises(DescriptorParseError, match=r"missing \[group\]"):
            parse("")

    def test_unknown_key_rejected(self):
        bad = "[group]\ntype = 1A\nrank = 2\ncolour = blue\n[field]\ndegree = 1\n[real]\nw = form=SL_R(3)\n"
        with pytest.raises(DescriptorParseError, match="unknown key"):
            parse(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(DescriptorParseError, match="unknown section"):
            parse("[group]\ntype = 1A\nrank = 2\n[bogus]\n")

    def test_d4_rejected_at_parse_time(self):
        with pytest.raises(DescriptorParseError, match="out of scope"):
            parse("[group]\ntype = 1D\nrank = 4\n[field]\ndegree = 1\n")

    def test_error_positions_are_line_numbers(self):
        # a malformed degree is one error, not also a missing one
        bad = "[group]\ntype = 1A\nrank = 2\n[field]\ndegree = x\n"
        with pytest.raises(DescriptorParseError) as err:
            parse(bad)
        assert err.value.errors == [(5, 1, "degree must be an integer")]

    def test_missing_real_class_demanded(self):
        bad = ("[group]\ntype = 1D\nrank = 5\n[field]\ndegree = 1\n"
               "[places]\nv2 = omega=2/4\n[real]\nw = form=Spin(7,3)\n")
        with pytest.raises(DescriptorParseError, match="supply"):
            parse(bad)

    def test_fraction_scaling(self):
        text = ("[group]\ntype = 1D\nrank = 5\n[field]\ndegree = 1\n"
                "[places]\nv2 = omega=1/2\nv3 = omega=1/2\n[real]\nw = form=Spin(7,3) omega=0\n")
        g = parse(text)
        assert [cls.value for _, cls in g.omega.finite] == [2, 2]

    def test_a_fraction_that_is_whole_lies_in_the_trivial_group(self):
        g = parse(_E8_HEAD + "[places]\nv2 = omega=2/2\n")
        assert [cls for _, cls in g.omega.finite] == [zero(TRIVIAL)]

    def test_nonsplit_place_needs_outer_form(self):
        bad = ("[group]\ntype = 1A\nrank = 2\n[field]\ndegree = 1\n"
               "[places]\nv2 = kind=nonsplit omega=0\n[real]\nw = form=SL_R(3)\n")
        with pytest.raises(DescriptorParseError) as err:
            parse(bad)
        assert str(err.value) == "7:1: 1A2 is an inner form; it has no outer places"


_A2_GROUP = "[group]\ntype = 1A\nrank = 2\n[field]\n"
_A2_HEAD = _A2_GROUP + "degree = 2\n"
# the same head over D6, which has Klein local groups, and over G2, which
# has trivial ones (and no rank line)
_D6_HEAD = _A2_HEAD.replace("type = 1A\nrank = 2", "type = 1D\nrank = 6")
_G2_HEAD = _A2_HEAD.replace("type = 1A\nrank = 2", "type = G2")
_E8_HEAD = _A2_HEAD.replace("type = 1A\nrank = 2", "type = E8")


@pytest.mark.parametrize("body, message", [
    ("[aut]\ng = (v2 v3\n[places]\nv2 = omega=1\nv3 = omega=2\n[real]\nw = form=SL_R(3)\n",
     "7:1: generator g: bad cycle notation '(v2 v3'"),
    ("[aut]\ng = (v2 v3)(v5\n[places]\nv2 = omega=1\nv3 = omega=2\n[real]\nw = form=SL_R(3)\n",
     "7:1: generator g: bad cycle notation '(v2 v3)(v5'"),
    ("[aut]\ng = (v2)\n[places]\nv2 = omega=1\n[real]\nw = form=SL_R(3)\n",
     "7:1: generator g: cycles need at least two labels"),
    ("[aut]\ng = (v2 v9)\n[places]\nv2 = omega=1\n[real]\nw = form=SL_R(3)\n",
     "7:1: generator g: undeclared place v9"),
    ("[places]\nv2 = kind=banana\n[real]\nw = form=SL_R(3)\n",
     "7:1: kind must be split or nonsplit"),
    ("[places]\nv2 = omega=1\nv2 = omega=2\n[real]\nw = form=SL_R(3)\n",
     "8:1: key 'v2' given twice in [places]"),
    ("[real]\nw = form=SL_R(3) kind=banana\nw2 = form=SL_R(3)\n",
     "7:1: kind must be split or nonsplit"),
    ("[real]\nw = form=SL_R(3)\nw = form=SL_R(3)\n", "8:1: key 'w' given twice in [real]"),
    ("[real]\nw = omega=0\nw2 = form=SL_R(3)\n", "7:1: real place w needs a form"),
    ("[real]\nw = form=SL_R(3) kind=nonsplit\nw2 = form=SL_R(3)\n",
     "7:1: SL(3,R) is inner type over the reals but the place is declared real_outer"),
    ("[group]\ntype = 2A\nrank = 2\n[field]\ndegree = 1\n[real]\nw = form=SL_R(3) kind=nonsplit\n",
     "7:1: SL(3,R) is inner type over the reals but the place is declared real_outer"),
    ("[places]\n= omega=1\n", "7:1: empty key"),
    ("[aut]\ng =\n[places]\nv2 = omega=1\n", "7:1: generator g is empty"),
    (_D6_HEAD + "[places]\nv2 = omega=1\n", "7:1: expected a bit pair (b1,b2), got '1'"),
    (_D6_HEAD + "[places]\nv2 = omega=(1,0,1)\n", "7:1: expected two components in '(1,0,1)'"),
    (_D6_HEAD + "[places]\nv2 = omega=(1,x)\n", "7:1: bad bit pair '(1,x)'"),
    ("[places]\nv2 = omega=1/0\n", "7:1: bad fraction '1/0'"),
    ("[places]\nv2 = omega=x/3\n", "7:1: bad fraction 'x/3'"),
    ("[places]\nv2 = omega=1/2\n", "7:1: denominator 2 does not divide the local order 3"),
    ("[places]\nv2 = omega=x\n", "7:1: bad value 'x'"),
    (_G2_HEAD + "[places]\nv2 = omega=1\n", "6:1: only 0 lies in the trivial group"),
    (_G2_HEAD + "[places]\nv2 = omega=1/2\n", "6:1: value 1/2 does not lie in the trivial group"),
    (_E8_HEAD + "[places]\nv2 = omega=1/2\n", "6:1: value 1/2 does not lie in the trivial group"),
    ("[real]\nw = form=SL_R(3\n", "7:1: unbalanced parentheses in form 'SL_R(3'"),
    ("[real]\nw = form=SL_R(x)\n", "7:1: bad form parameters in 'SL_R(x)'"),
    ("[real]\nw = form=SL_Q(3)\n", "7:1: unknown real form tag 'SL_Q'"),
    ("[real]\nw = form=Spin(7)\n", "7:1: Spin takes 2 parameter(s)"),
    ("[real]\nw = form=Sp_R(3)\n", "7:1: Sp_R takes an even parameter"),
    ("[real]\nw = form=SpinStar(5)\n", "7:1: SpinStar takes an even parameter"),
    ("[group]\ntype = 2A\nrank = 2\n[field]\ndegree = 1\n[real]\nw = form=SU(4,-1)\n",
     "7:1: SU takes nonnegative parameters"),
    ("[group]\ntype = C\nrank = 3\n[field]\ndegree = 1\n[places]\nv2 = omega=1\n[real]\nw = form=Sp(4,-1)\n",
     "9:1: Sp takes nonnegative parameters"),
    ("[real]\nw = form=SL_R(0)\n", "7:1: SL_R takes a parameter of at least 1"),
    ("[real]\nw = form=SL_H(0)\n", "7:1: SL_H takes a parameter of at least 1"),
    ("[real]\nw = form=SU(0,0)\n", "7:1: SU takes parameters of positive total"),
    ("[real]\nw = form=Spin(0,0)\n", "7:1: Spin takes parameters of positive total"),
    ("[real]\nw = form=Sp(0,0)\n", "7:1: Sp takes parameters of positive total"),
    ("[real]\nw = form=SL_R(3) form=SL_R(3)\n", "7:1: option 'form' given twice"),
    ("[real]\nw = form=Spin(3,2)\n", "7:1: Spin(3,2) is not a form of family A"),
    ("[real]\nw = form=SL_R(4)\n", "7:1: SL(4,R) has type A3, group is 1A2"),
    ("[real]\nw = form=SL_R(3) omega=x\n", "7:1: bad value 'x'"),
], ids=["aut-unclosed", "aut-unclosed-second", "aut-one-label", "aut-undeclared",
        "places-kind", "places-twice", "real-kind", "real-twice", "real-no-form", "real-kind-contradicts",
        "real-kind-contradicts-outer-type",
        "empty-key", "aut-empty", "places-bit-pair", "places-bit-pair-length", "places-bit-pair-value",
        "places-fraction", "places-fraction-text", "places-denominator", "places-value",
        "places-trivial-group", "places-trivial-fraction",
        "places-trivial-fraction-E8",
        "real-form-parentheses", "real-form-parameters", "real-form-tag", "real-form-parameter-count",
        "real-form-odd-Sp_R", "real-form-odd-SpinStar", "real-form-negative-SU", "real-form-negative-Sp",
        "real-form-zero-SL_R", "real-form-zero-SL_H", "real-form-zero-SU", "real-form-zero-Spin",
        "real-form-zero-Sp", "real-option-twice",
        "real-form-family", "real-form-type", "real-omega-value"])
def test_aut_places_and_real_faults_are_positioned(body, message):
    # a body that starts with [group] brings its own head
    with pytest.raises(DescriptorParseError) as err:
        parse(body if body.startswith("[group]") else _A2_HEAD + body)
    assert str(err.value) == message


@pytest.mark.parametrize("lines, message", [
    ("degree = 2\ncomplex_places = 1.5", "6:1: complex_places must be an integer"),
    ("degree = 2\ngalois = yes", "6:1: galois must be true or false"),
    ("degree = 2\nlocally_determined = 1", "6:1: locally_determined must be true or false"),
    ("degree = 2\nhbar_fiber = maybe", "6:1: hbar_fiber must be trivial, nontrivial, or unknown"),
    ("degree = 2\ncolour = blue", "6:1: unknown key 'colour' in [field]"),
    ("degree = 7", "1:1: degree above 6: declare locally_determined explicitly"),
], ids=["complex_places", "galois", "locally_determined", "hbar_fiber", "unknown", "degree-above-six"])
def test_field_faults_are_positioned(lines, message):
    with pytest.raises(DescriptorParseError) as err:
        parse(_A2_GROUP + lines + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("text, error", [
    ("[group]\ntype = 1A\ntype = 2A\nrank = 2\n[field]\ndegree = 1\n",
     (3, 1, "key 'type' given twice in [group]")),
    ("[group]\ntype = 1A\nrank = 2\n[field]\ndegree = 1\n[group]\nrank = 3\n",
     (7, 1, "key 'rank' given twice in [group]")),
    (FIXTURES["split_C3_Q"].replace("degree = 1\n", "degree = 1\ndegree = 2\n"),
     (7, 1, "key 'degree' given twice in [field]")),
    (_A2_HEAD + "galois = true\ngalois = false\n", (7, 1, "key 'galois' given twice in [field]")),
    (_A2_HEAD + "complex_places = 1\n[aut]\ng = (v2 v3)\ng = (v2 v3)\n"
     "[places]\nv2 = omega=1/3\nv3 = omega=1/3\n", (9, 1, "key 'g' given twice in [aut]")),
    (_A2_HEAD + "[places]\nv2 = omega=1\n[real]\nw = form=SL_R(3)\n[places]\nv2 = omega=2\n",
     (11, 1, "key 'v2' given twice in [places]")),
    (_A2_HEAD + "[real]\nw = form=SL_R(3)\nw2 = form=SL_R(3)\nw = form=SL_R(3)\n",
     (9, 1, "key 'w' given twice in [real]")),
], ids=["type", "rank", "degree", "galois", "aut", "places", "real"])
def test_a_key_given_twice_in_a_section_is_refused_at_its_second_line(text, error):
    # before this was refused, a second type, rank, degree or galois line
    # replaced the first, and [aut] took a generator name twice
    with pytest.raises(DescriptorParseError) as err:
        parse(text)
    assert err.value.errors == [error]


class TestRoundTrip:
    def test_fixture_round_trips(self):
        for name, text in FIXTURES.items():
            g = parse(text)
            again = parse(emit_descriptor(g))
            assert again == g, name

    def test_witness_round_trips(self):
        for name in ("table1_D1", "quat_sqrt2", "split_G2_Q", "b3_split_Q"):
            v = classify(parse(FIXTURES[name]))
            assert v.outcome == Outcome.NOT_RIGID
            again = parse(emit_descriptor(v.witness))
            assert again == v.witness, name

    def test_an_identity_generator_round_trips(self):
        # a generator that moves no place leaves the group as it is, and was
        # once emitted as `g1 = ()`, which the parser refuses
        g = dataclasses.replace(parse(FIXTURES["split_C3_Q"]), symmetry=PlaceSymmetry((PlacePerm(),)))
        assert parse(emit_descriptor(g)) == g


class TestJson:
    def test_schema_validates_all_fixture_verdicts(self):
        for name, text in FIXTURES.items():
            verdict = classify(parse(text))
            payload = verdict_to_json(verdict)
            jsonschema.validate(payload, VERDICT_SCHEMA)

    def test_outcome_field_round_trip(self):
        verdict = classify(parse(FIXTURES["table1_D1"]))
        payload = verdict_to_json(verdict)
        assert payload["outcome"] == "NotRigid"
        assert payload["witness"] is not None
        reparsed = parse(payload["witness"])
        assert reparsed == verdict.witness


class TestCommands:
    def test_classify_exit_codes(self, fixtures_dir, capsys):
        assert main(["classify", str(fixtures_dir / "split_C3_Q.grp")]) == 0
        assert main(["classify", str(fixtures_dir / "table1_D1.grp")]) == 1
        capsys.readouterr()

    def test_classify_json_output(self, fixtures_dir, capsys):
        code = main(["classify", str(fixtures_dir / "table1_D1.grp"), "--json"])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, VERDICT_SCHEMA)

    def test_classify_witness_matches_partner_fixture(self, fixtures_dir, capsys):
        main(["classify", str(fixtures_dir / "table1_D1.grp"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        witness = parse(payload["witness"])
        partner = parse(FIXTURES["table1_D2"])
        assert [c for _, c in witness.omega.finite] == [c for _, c in partner.omega.finite]

    def test_classify_directory(self, fixtures_dir, capsys):
        code = main(["classify", str(fixtures_dir)])
        out = capsys.readouterr().out
        assert code == 1  # every bundled fixture is rigid or not rigid
        assert "== table1_D1.grp" in out

    def test_classify_undetermined_exit(self, tmp_path, capsys):
        text = ("[group]\ntype = 2A\nrank = 3\n[field]\ndegree = 5\ncomplex_places = 2\n"
                "hbar_fiber = unknown\n[places]\nv2 = kind=nonsplit omega=1/2\n"
                "[real]\nw = form=SU(3,1)\n")
        f = tmp_path / "u.grp"
        f.write_text(text)
        assert main(["classify", str(f)]) == 2
        capsys.readouterr()

    def test_classify_out_of_scope_exit(self, tmp_path, capsys):
        f = tmp_path / "d4.grp"
        f.write_text("[group]\ntype = 1D\nrank = 4\n[field]\ndegree = 1\n")
        assert main(["classify", str(f)]) == 4
        capsys.readouterr()

    def test_classify_exits_3_above_the_residue_work_limit(self, tmp_path, capsys):
        rank = 10**6
        rng = random.Random("residue-work")
        values = [rng.randrange(1, rank + 1) for _ in range(24)]
        values.append(-sum(values) % (rank + 1))
        places = "".join(f"v{i + 1} = omega={v}/{rank + 1}\n" for i, v in enumerate(values))
        f = tmp_path / "wide.grp"
        f.write_text(f"[group]\ntype = 1A\nrank = {rank}\n[field]\ndegree = 1\n"
                     f"[real]\nw = form=SL_R({rank + 1})\n[places]\n{places}")
        assert main(["classify", str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            rf"{re.escape(str(f))}: \d+ residue products exceed the work limit {RESIDUE_WORK_LIMIT}\n",
            captured.err,
        )

    def test_classify_rejects_an_unknown_real_place_kind(self, tmp_path, capsys):
        f = tmp_path / "banana.grp"
        f.write_text("[group]\ntype = 1A\nrank = 2\n[field]\ndegree = 1\n"
                     "[real]\nw = form=SL_R(3) kind=banana\n")
        assert main(["classify", str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{f}:7:1: kind must be split or nonsplit\n"

    def test_realforms_exit_codes(self, capsys):
        assert main(["realforms", "X", "3"]) == 3
        assert capsys.readouterr().err == "unknown type code 'X'\n"
        assert main(["realforms", "D", "4"]) == 4
        assert capsys.readouterr().err == D4_OUT_OF_SCOPE + "\n"

    def test_realforms_output(self, capsys):
        assert main(["realforms", "C", "3"]) == 0
        assert capsys.readouterr().out.strip() == "Sp(6,R)"
        assert main(["realforms", "1A", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["SL(4,R)", "SL(2,H)"]

    def test_realforms_above_the_parameter_limit_exits_3(self, capsys):
        assert main(["realforms", "C", "101"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parameter total 101 exceeds the limit 100\n"

    def test_orbit_output(self, fixtures_dir, capsys):
        assert main(["orbit", str(fixtures_dir / "table3_A4_Qi.grp")]) == 0
        out = capsys.readouterr().out
        assert "weak uniformity: holds" in out

    def test_orbit_on_even_orthogonal_with_real_place(self, fixtures_dir, capsys):
        # the two-sided sets diverge here by design; the command must still
        # print both sides and the one-sided orbits without failing
        assert main(["orbit", str(fixtures_dir / "spinstar_D6_Q.grp")]) == 0
        out = capsys.readouterr().out
        assert "automorphism orbit" in out and "adelic orbit" in out

    def test_equiv_command(self, fixtures_dir, capsys):
        assert main(["equiv", str(fixtures_dir / "groups.cat")]) == 0
        out = capsys.readouterr().out
        assert "PSL(3,2) (order 168): ok" in out

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_a_failing_check_is_counted_and_exits_3(self, monkeypatch):
        monkeypatch.setattr(selftest, "_checks", lambda: iter([("one", True), ("two", False)]))
        out = io.StringIO()
        assert selftest.run_selftest(out) == 3
        assert out.getvalue().splitlines() == ["PASS  one", "FAIL  two", "1 check(s) failed"]

    def test_a_conjugator_that_normalizes_is_found(self):
        G, U, V1, _ = wreath_pair()
        assert not selftest._no_normalizing_conjugator(G, U, V1, V1)

    def test_help_prints_the_descriptor_grammar(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert "\n    [places]\n" in out
        assert "v5a = class=c5 kind=split omega=2/5" in out

    def test_the_package_runs_as_a_module_without_warnings(self):
        done = run_python(["-m", "rigidity", "selftest"])
        assert done.returncode == 0, done.stderr.decode()
        assert b"all checks passed" in done.stdout
        assert b"RuntimeWarning" not in done.stderr


def test_no_library_module_imports_the_command_line():
    # the commands import the library, never the other way round
    offenders = []
    for path in sorted(Path(str(files("rigidity"))).glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
            else:
                continue
            if any(re.fullmatch(r"(rigidity\.)?cli(\..*)?", name) for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


class TestCatalogParse:
    def test_bad_line_positions(self):
        with pytest.raises(DescriptorParseError):
            parse_catalog("broken\n")

    def test_parses_named_groups(self, fixtures_dir):
        groups = parse_catalog((fixtures_dir / "groups.cat").read_text())
        orders = {g.name: g.order() for g in groups}
        assert orders["PSL(3,2)"] == 168
        assert orders["C2wrC3"] == 24

    @pytest.mark.parametrize("line, message", [
        ("X 3 (1 5)", "1:1: point 5 outside degree 3 in '(1 5)'"),
        ("X 3 (0 1)", "1:1: point 0 outside degree 3 in '(0 1)'"),
        ("X 3 (1 a)", "1:1: bad point 'a' in '(1 a)'"),
        ("X 3 (1 2)(2 3)", "1:1: cycles do not define a permutation in '(1 2)(2 3)'"),
        # a product of cycles that repeat a point may still be a permutation
        ("X 2 (1 2)(1 2)", "1:1: cycles do not define a permutation in '(1 2)(1 2)'"),
        ("X 3 (1 2 3)(2 3 1)", "1:1: cycles do not define a permutation in '(1 2 3)(2 3 1)'"),
        ("X 3 (1 2); ()", "1:1: empty cycle in '()'"),
        ("X 3 (1 2)(2 3", "1:1: bad cycle notation '(1 2)(2 3'"),
        ("X 0 (1 2)", "1:1: degree 0 outside 1..1000"),
        ("X -1 (1 2)", "1:1: degree -1 outside 1..1000"),
        ("X 1001 (1 2)", "1:1: degree 1001 outside 1..1000"),
    ])
    def test_equiv_reports_a_bad_catalog_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cat"
        path.write_text(f"{line}\nC2 2 (1 2)\n", encoding="utf-8")
        assert main(["equiv", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""


# near-valid catalog lines: names, small degrees and cycles of small points,
# with stray words, empty cycles and out-of-range points mixed in
_POINT = st.one_of(st.integers(-1, 9).map(str), st.sampled_from(["a", "", "1.5", "(", ")"]))
_CYCLE = st.lists(_POINT, max_size=4).map(lambda ps: "(" + " ".join(ps) + ")")
_GENERATOR = st.lists(_CYCLE, max_size=3).map("".join)
_LINE = st.tuples(
    st.sampled_from(["C2", "G", "#", ""]),
    st.one_of(st.integers(-2, 9).map(str), st.text(max_size=3)),
    st.lists(_GENERATOR, max_size=3).map("; ".join),
).map(" ".join)
CATALOG_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(_LINE, st.text(max_size=12)), max_size=4).map("\n".join),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(CATALOG_TEXT)
def test_parse_catalog_raises_only_parse_errors(text):
    try:
        groups = parse_catalog(text)
    except DescriptorParseError:
        return
    assert all(isinstance(g, PermGroup) for g in groups)


# descriptor fuzzing: bundled and generated descriptor text, mutated line by
# line with values and entries from every corner of the grammar, valid or
# not for the section and the type they land in
_FUZZ_VALUES = [
    "1A", "2A", "1D", "2D", "2E6", "B", "G2", "0", "1", "3", "4", "-1", "999", "x", "",
    "true", "false", "trivial", "nontrivial", "unknown",
    "omega=1/3", "omega=1/0", "omega=2/4", "omega=(1,0)", "omega=x",
    "kind=nonsplit", "kind=split omega=1/2", "class=c", "class=c kind=nonsplit", "kind=other",
    "form=SU(2,2)", "form=SU(2,2) omega=0", "form=SU(3,1)", "form=SU(2,1) kind=nonsplit",
    "form=SL_R(3)", "form=SL_R(4) kind=nonsplit", "form=SL_H(2)", "form=Spin(7,3)",
    "form=Spin(6,4)", "form=SpinStar(10)", "form=Sp(1,1)", "form=Sp_R(4)", "form=E7_compact",
    "form=AnisotropicOther kind=nonsplit", "form=AnisotropicOther", "form=CompactForm",
    "form=SplitForm kind=nonsplit", "form=SU(", "form=SU(a,b)", "form=Nope",
    "(v2 v3)", "(v2 w)", "(v1 v2)(v3 v4)", "(v2", "()",
]
_FUZZ_KEYS = ["type", "rank", "degree", "complex_places", "galois", "hbar_fiber",
              "locally_determined", "v2", "v3", "v13", "w", "w2", "g"]
_FUZZ_GENERATORS = [
    genfix.rand_q,
    genfix.rand_quasisplit_galois,
    genfix.rand_outer_two_twins,
    genfix.rand_two_real_quadratic,
    genfix.rand_three_reals,
    genfix.rand_classed,
    genfix.rand_interleaved,
]


@st.composite
def mutated_descriptors(draw):
    """A bundled or generated descriptor with one to three line mutations:
    a new value, a new entry, a deleted or repeated line, or a few stray
    characters.  One draw in four first gets a bad type code followed by a
    bad rank or an unknown [group] key, so the differential sees the order
    in which the [group] faults are reported."""
    if draw(st.booleans()):
        text = draw(st.sampled_from(sorted(FIXTURES.values())))
    else:
        make = draw(st.sampled_from(_FUZZ_GENERATORS))
        text = emit_descriptor(make(random.Random(draw(st.integers(0, 2 ** 32 - 1)))))
    lines = text.splitlines()
    if draw(st.integers(0, 3)) == 0:
        i = next(i for i, line in enumerate(lines) if line.startswith("type ="))
        lines[i] = "type = " + draw(st.sampled_from(["x", "", "3A", "D"]))
        lines.insert(i + 1, draw(st.sampled_from(["rank = x", "rank = ", "colour = blue", "g = 1"])))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        op = draw(st.sampled_from(["value", "entry", "delete", "repeat", "chars"]))
        if op == "value" and lines and "=" in lines[i]:
            lines[i] = lines[i].split("=", 1)[0] + "= " + draw(st.sampled_from(_FUZZ_VALUES))
        elif op == "entry":
            entry = f"{draw(st.sampled_from(_FUZZ_KEYS))} = {draw(st.sampled_from(_FUZZ_VALUES))}"
            lines.insert(i + 1, entry)
        elif op == "delete" and lines:
            del lines[i]
        elif op == "repeat" and lines:
            lines.insert(i, lines[i])
        elif op == "chars" and lines:
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.text(max_size=3)) + lines[i][at:]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(mutated_descriptors())
def test_parse_raises_only_parse_errors(text):
    try:
        g = parse(text)
    except DescriptorParseError:
        return
    assert parse(emit_descriptor(g)) == g


def _outcome(read, text):
    """The descriptor a parser reads from a text, or the (line, col, message)
    list it refuses the text with."""
    try:
        return read(text)
    except DescriptorParseError as e:
        return e.errors


class TestAgainstTheReferenceParser:
    """``parse`` reads each distinct entry text once per process, and
    ``oracles.reference_parse`` reads every entry afresh: both give the same
    descriptor, or the same errors at the same lines."""

    def test_fixtures(self):
        for name, text in FIXTURES.items():
            assert _outcome(parse, text) == _outcome(reference_parse, text), name

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(mutated_descriptors())
    def test_mutated_descriptors(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("make", _FUZZ_GENERATORS + [genfix.rand_bound_violator, genfix.rand_paired],
                             ids=lambda make: make.__name__)
    def test_generated_descriptors(self, make):
        for seed in range(30):
            text = emit_descriptor(make(random.Random(seed)))
            assert _outcome(parse, text) == _outcome(reference_parse, text), seed

    def test_a_bad_type_code_is_refused_after_the_other_group_faults(self):
        text = "[group]\ntype = X\nrank = y\ncolour = blue\n[field]\ndegree = x\n"
        with pytest.raises(DescriptorParseError) as err:
            parse(text)
        assert err.value.errors == [(3, 1, "rank must be an integer, got 'y'"),
                                    (4, 1, "unknown key 'colour' in [group]"),
                                    (2, 1, "unknown type code 'X'"),
                                    (6, 1, "degree must be an integer")]
        assert _outcome(reference_parse, text) == err.value.errors

    def test_the_same_bad_entry_is_refused_at_each_of_its_lines(self):
        # the memo keeps the message, not the position
        text = _A2_HEAD + "[places]\nv2 = omega=x\nv3 = omega=x\n[real]\nw = omega=0\nw2 = omega=0\n"
        for _ in range(2):
            with pytest.raises(DescriptorParseError) as err:
                parse(text)
            assert err.value.errors == [(7, 1, "bad value 'x'"), (8, 1, "bad value 'x'"),
                                        (10, 1, "real place w needs a form"),
                                        (11, 1, "real place w2 needs a form")]

    def test_the_memos_keep_memo_size_entries(self):
        for read in (_read_place, _read_real, _place_label):
            assert read.cache_info().maxsize == MEMO_SIZE

    def test_a_long_entry_is_read_afresh_and_not_kept(self):
        # the memos bound their texts' length too: an entry past _MEMO_TEXT
        # characters reads as the reference reads it, at each of its lines
        n = _MEMO_TEXT
        good = (_A2_HEAD + f"[places]\nv2 = class={'c' * n} omega=1/3\nv3 = omega={'1' * n}\n"
                f"v{'4' * n} = omega=2/3\n[real]\nw = form={'SL_R(3)':<{n}} omega=0\n")
        bad = _A2_HEAD + f"[places]\nv2 = omega={'x' * n}\nv3 = omega={'x' * n}\n"
        memos = (_read_place, _read_real, _place_label)
        before = [m.cache_info() for m in memos]
        for text in (good, bad, good):
            assert _outcome(parse, text) == _outcome(reference_parse, text)
        assert [m.cache_info() for m in memos] == before
        assert _outcome(parse, bad) == [(7, 1, f"bad value {'x' * n!r}"), (8, 1, f"bad value {'x' * n!r}")]

    def test_an_entry_read_from_the_memo_builds_what_a_fresh_read_builds(self):
        text = FIXTURES["komatsu_2A2"]
        _read_place.cache_clear()
        _read_real.cache_clear()
        fresh = parse(text)
        misses = _read_place.cache_info().misses + _read_real.cache_info().misses
        again = parse(text)
        assert _read_place.cache_info().misses + _read_real.cache_info().misses == misses
        assert _read_place.cache_info().hits + _read_real.cache_info().hits > 0
        assert fresh == again == reference_parse(text)


@pytest.mark.parametrize("group, form, message", [
    ("1A\nrank = 3", "form=SU(2,2) omega=0", "7:1: 1A3 is an inner form; it has no outer places"),
    ("1A\nrank = 3", "form=AnisotropicOther kind=nonsplit",
     "7:1: AnisotropicOther[A3] is not a form of family A"),
    ("1A\nrank = 2", "form=SU(2,1)", "7:1: 1A2 is an inner form; it has no outer places"),
    # the form's family is its first misfit, whether omega= is given or not
    ("B\nrank = 3", "form=SU(2,1)", "7:1: SU(2,1) is not a form of family B"),
    ("B\nrank = 3", "form=SU(2,1) omega=0", "7:1: SU(2,1) is not a form of family B"),
], ids=["1A3-SU", "1A3-AnisotropicOther", "1A2-SU", "B3-SU", "B3-SU-omega"])
def test_inner_type_with_an_outer_real_form_is_a_parse_error(group, form, message):
    text = f"[group]\ntype = {group}\n[field]\ndegree = 1\n[real]\nw = {form}\n"
    with pytest.raises(DescriptorParseError) as err:
        parse(text)
    assert str(err.value) == message


# one rank for each of the twelve type codes
_ONE_RANK = {"1A": 3, "2A": 3, "B": 3, "C": 3, "1D": 6, "2D": 6, "1E6": 6, "2E6": 6,
             "E7": 7, "E8": 8, "F4": 4, "G2": 2}


def _by_text(text):
    """The messages refusing a file, without their line:col: prefix, or the
    descriptor it parses to when it parses and validates."""
    try:
        g = parse(text)
        validate_descriptor(g)
    except DescriptorParseError as e:
        return [msg for _, _, msg in e.errors]
    except ValidationError as e:
        return e.issues
    return g


def _by_objects(t, finite=(), real=(), forms=()):
    """The same for a degree-1 descriptor built in code, without the
    ``real place w:`` prefix of validation."""
    try:
        fdesc = FieldDescriptor(degree=1, real_places=tuple(lab for lab, _ in real),
                                finite_places=tuple(lab for lab, _ in finite),
                                galois_over_q=True, hbar_fiber=HbarFiber.TRIVIAL)
        g = GroupDescriptor(t, fdesc, PlaceSymmetry(), OmegaVector(t, finite, real), forms)
        validate_descriptor(g)
    except ContractError as e:
        return [str(e)]
    except ValidationError as e:
        return [issue.removeprefix("real place w: ") for issue in e.issues]
    return g


def _forms_to_try(t):
    """Forms of the type and its twins, keyed by their text: those passing the
    trivial-image gate, those realizing each real class, and foreign ones."""
    twins = [t.inner_twin()]
    if has_symmetry(t):
        twins.append(GroupType(t.family, t.rank, FormKind.OUTER))
    forms = [tag for u in twins for tag in trivial_image_forms(u)]
    for u in twins:
        for kind in (PlaceKind.REAL_INNER, PlaceKind.REAL_OUTER) if u.is_outer else (PlaceKind.REAL_INNER,):
            forms += [form_for_class(u, kind, cls) for cls in shape_elements(h2_local(u, kind))]
    if t.family == Family.A:
        forms.append(RealFormTag("Spin", (5, 0)))
    else:
        forms += [RealFormTag("SL_R", (3,)), RealFormTag("SU", (2, 1))]
    return {_format_form(tag): tag for tag in forms}


def test_place_kind_faults_get_one_answer_from_a_file_and_from_objects():
    """A finite place split or nonsplit, and a real place carrying a form
    with or without kind=, give the same verdict through the parser as
    through objects built in code: both accept the same descriptor, or both
    refuse it with the same text.  Where the type lacks the real place's
    kind, no object can be built, and the file names real_class's first
    misfit."""
    accepted = refused = stopped = 0
    for code, rank in _ONE_RANK.items():
        family, form_kind = _TYPE_CODES[code]
        t = GroupType(family, rank, form_kind)
        head = f"[group]\ntype = {code}\nrank = {rank}\n[field]\ndegree = 1\n"
        for option in ("split", "nonsplit"):
            kind = PlaceKind.FINITE_OUTER if option == "nonsplit" else PlaceKind.FINITE_INNER
            try:
                cls = zero(h2_local(t, kind))
            except ContractError:
                cls = zero(TRIVIAL)  # OmegaVector refuses the place before it reads the class
            want = _by_objects(t, finite=((PlaceLabel("v2", kind), cls),))
            assert _by_text(head + f"[places]\nv2 = kind={option}\n") == want, (code, option)
            accepted += isinstance(want, GroupDescriptor)
            refused += isinstance(want, list)
        for text_form, tag in _forms_to_try(t).items():
            for option in (None, "split", "nonsplit"):
                if tag.name in GENERIC:  # the file's kind= sets the generic form's kind
                    tag = RealFormTag(tag.name, family=family, rank=rank,
                                      outer=tag.name == "AnisotropicOther" and option == "nonsplit")
                outer = tag.signature()[2] if option is None else option == "nonsplit"
                kind = PlaceKind.REAL_OUTER if outer else PlaceKind.REAL_INNER
                try:
                    cls = zero(h2_local(t, kind))
                except ContractError:
                    cls = None
                entry = f"w = form={text_form}" + (f" kind={option}" if option else "") + f" omega={0 if cls is None else cls}"
                got = _by_text(head + "[real]\n" + entry + "\n")
                if cls is None:
                    # no coordinate of this kind can be built, so objects stop
                    # at OmegaVector, as the finite places above show; the file
                    # names the form's first misfit in real_class's order
                    with pytest.raises(ContractError) as owner:
                        real_class(tag, t, kind)
                    assert got == [str(owner.value)], (code, entry)
                    stopped += 1
                    continue
                want = _by_objects(t, real=((PlaceLabel("w", kind), cls),), forms=(("w", tag),))
                assert got == want, (code, entry)
                accepted += isinstance(want, GroupDescriptor)
                refused += isinstance(want, list)
    print(f"{accepted + refused + stopped} place-kind cases: {accepted} accepted by both routes, "
          f"{refused} refused by both with one text, {stopped} at a real place kind the type lacks")
    assert (accepted, refused, stopped) == (40, 90, 47)


class TestOrbitListingLimit:
    def test_orbit_lists_a_class_of_ten_in_under_a_second(self, fixtures_dir, tmp_path, capsys):
        text = (fixtures_dir / "table3_A4_Qi.grp").read_text(encoding="utf-8").replace(
            "degree = 2\ncomplex_places = 1", "degree = 20\ncomplex_places = 10\nlocally_determined = true"
        ) + "".join(f"v11{chr(97 + i)} = class=c11\n" for i in range(10))
        path = tmp_path / "class_of_ten.grp"
        path.write_text(text)
        start = time.perf_counter()
        assert main(["orbit", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert "possible (flips x adelic) (4):" in out and "adelic orbit (2):" in out

    def test_orbit_rejects_an_invalid_descriptor_first(self, fixtures_dir, tmp_path, capsys):
        # eight places permuted by all of S8: far more automorphisms than degree 2 allows
        text = (fixtures_dir / "table3_A4_Qi.grp").read_text(encoding="utf-8").replace(
            "conj = (v5a v5b)", "conj = (v5a v5b)\nall = (u1 u2 u3 u4 u5 u6 u7 u8)\nswap = (u1 u2)"
        ) + "".join(f"u{i} = class=c11\n" for i in range(1, 9))
        path = tmp_path / "s8.grp"
        path.write_text(text)
        start = time.perf_counter()
        assert main(["orbit", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "symmetry group order exceeds the degree bound" in capsys.readouterr().err

    def test_orbit_fails_fast_above_the_listing_limit(self, tmp_path, capsys):
        from rigidity.cli import ORBIT_LISTING_LIMIT

        places = "\n".join(f"v{i + 1} = omega={1 + i % 2}/3" for i in range(20))
        path = tmp_path / "twenty_twins.grp"
        path.write_text("[group]\ntype = 1A\nrank = 2\n[field]\ndegree = 1\n"
                        f"[places]\n{places}\n[real]\nw = form=SL_R(3)\n")
        start = time.perf_counter()
        assert main(["orbit", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        # ten places of 1 and ten of 2: a flips of 1 and b of 2 cohere when a + 2b = 0 mod 3
        count = sum(math.comb(10, a) * math.comb(10, b)
                    for a in range(11) for b in range(11) if (a + 2 * b) % 3 == 0)
        assert count > ORBIT_LISTING_LIMIT
        err = capsys.readouterr().err
        assert f"{count} possible vectors exceed the listing limit {ORBIT_LISTING_LIMIT}" in err


class TestUnreadableInputs:
    """A file that is missing or not UTF-8 is an error (exit 3) reported as
    ``PATH: MESSAGE`` on stderr, never a traceback or a verdict's exit code."""

    @pytest.mark.parametrize("command", ["classify", "orbit"])
    def test_missing_descriptor(self, tmp_path, capsys, command):
        path = tmp_path / "absent.grp"
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: ") and "No such file" in captured.err

    @pytest.mark.parametrize("command", ["classify", "orbit"])
    def test_descriptor_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.grp"
        path.write_bytes("# caf\xe9\n".encode("latin-1") + FIXTURES["split_C3_Q"].encode())
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: 'utf-8' codec can't decode")

    def test_a_directory_run_goes_on_past_an_unreadable_file(self, tmp_path, capsys):
        (tmp_path / "a.grp").write_text(FIXTURES["split_C3_Q"], encoding="utf-8")
        (tmp_path / "b.grp").write_bytes(b"\xff\xfe[group]\n")
        (tmp_path / "c.grp").write_text(FIXTURES["table1_D1"], encoding="utf-8")
        assert main(["classify", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert [l for l in captured.out.splitlines() if l.startswith("==")] == [
            "== a.grp", "== b.grp", "== c.grp"]
        assert captured.out.count("verdict:") == 2
        assert captured.out.rstrip().endswith("w = form=SL_R(3) omega=0")
        assert captured.err.startswith(f"{tmp_path / 'b.grp'}: 'utf-8' codec can't decode")

    def test_a_directory_run_returns_the_highest_exit_code(self, tmp_path, capsys):
        (tmp_path / "a.grp").write_text(FIXTURES["table1_D1"], encoding="utf-8")
        (tmp_path / "b.grp").write_text("[group]\ntype = 1D\nrank = 4\n[field]\ndegree = 1\n")
        (tmp_path / "c.grp").write_text(FIXTURES["split_C3_Q"], encoding="utf-8")
        assert main(["classify", str(tmp_path)]) == 4
        assert capsys.readouterr().out.count("verdict:") == 3

    def test_a_directory_run_with_a_failed_file_exits_3(self, tmp_path, capsys):
        # an error (3) must not hide behind OutOfScope (4), the larger code
        (tmp_path / "a.grp").write_bytes(b"\xff\xfe[group]\n")
        (tmp_path / "b.grp").write_text("[group]\ntype = 1D\nrank = 4\n[field]\ndegree = 1\n")
        assert main(["classify", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out.count("verdict: OutOfScope") == 1
        assert captured.err.startswith(f"{tmp_path / 'a.grp'}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("name, data", [("absent.cat", None), ("latin1.cat", b"\xe9 2 (1 2)\n")])
    def test_equiv_on_an_unreadable_catalog(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        assert main(["equiv", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: ")

    def test_only_the_d4_parse_error_means_out_of_scope(self, tmp_path, capsys):
        path = tmp_path / "words.grp"
        path.write_text("[group]\ntype = out of scope\n[field]\ndegree = 1\n")
        assert main(["classify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:2:1: unknown type code 'out of scope'\n"
        path.write_text("[group]\ntype = 1D\nrank = 4\n[field]\ndegree = 1\n")
        assert main(["classify", str(path), "--json"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "OutOfScope"
        assert payload["reasons"] == [{"tag": "scope", "detail": f"2:1: {D4_OUT_OF_SCOPE}"}]
        # with another fault, OutOfScope (4) would hide it, so the file fails (3)
        path.write_text("[group]\ntype = 1D\nrank = 4\n[field]\ndegree = x\n")
        assert main(["classify", str(path), "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:2:1: {D4_OUT_OF_SCOPE}\n{path}:5:1: degree must be an integer\n"
