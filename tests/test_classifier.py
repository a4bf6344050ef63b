import itertools
import random
import re
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import genfix
from genfix import rand_q
from oracles import run_python
from rigidity import brauer, classifier, field_model
from rigidity.brauer import FLIP_WALK_TWIN_LIMIT, RESIDUE_WORK_LIMIT, OmegaVector
from rigidity.classifier import (
    CLASSIFICATION_TAGS,
    SUBSET_SUM_WORK_LIMIT,
    GroupDescriptor,
    Outcome,
    check_witness,
    classify,
    normalize,
    specialize_q,
    specialize_quasisplit,
    subset_sum_forbidden,
    validate_descriptor,
)
from rigidity.cli import emit_descriptor, main, parse
from rigidity.errors import CapacityError, ContractError, OutOfScopeError, ValidationError
from rigidity.field_model import FieldDescriptor, PlaceLabel, PlaceSymmetry
from rigidity.invariants import (
    D4_OUT_OF_SCOPE,
    Family,
    GroupType,
    LocalClass,
    PlaceKind,
    c_local,
    center_shape,
    cyclic,
    h2_local,
    sym_act,
)
from rigidity.real_forms import RealFormTag
from rigidity.selftest import FIXTURES


def classify_text(text):
    return classify(parse(text))


SL2_Q = """
[group]
type = 1A
rank = 1
[field]
degree = 1
[real]
w = form=SL_R(2)
"""

A1_REAL_QUADRATIC_SWAP = """
[group]
type = 1A
rank = 1
[field]
degree = 2
complex_places = 0
galois = true
[aut]
g = (w1 w2)
[places]
v2 = omega=1/2
[real]
w1 = form=SL_R(2)
w2 = form=SL_H(1)
"""

A1_REAL_QUADRATIC_NO_SWAP = """
[group]
type = 1A
rank = 1
[field]
degree = 2
complex_places = 0
galois = true
[places]
v2 = omega=1/2
[real]
w1 = form=SL_R(2)
w2 = form=SL_H(1)
"""

A2_OUTER_Q = """
[group]
type = 2A
rank = 2
[field]
degree = 1
[places]
v2 = kind=nonsplit omega=0
v3 = kind=split omega=1/3
[real]
w = form=SL_R(3)
"""

A3_SUBSET_HIT = """
[group]
type = 1A
rank = 3
[field]
degree = 1
[places]
v2 = omega=1/4
v3 = omega=1/4
v5 = omega=2/4
[real]
w = form=SL_R(4)
"""

A5_UNIFORM_Q = """
[group]
type = 1A
rank = 5
[field]
degree = 1
[places]
v2 = omega=1/6
v3 = omega=5/6
[real]
w = form=SL_R(6)
"""

A3_TWO_REALS_SWAP = """
[group]
type = 1A
rank = 3
[field]
degree = 2
complex_places = 0
galois = true
[aut]
g = (w1 w2)
[places]
v2 = omega=2/4
[real]
w1 = form=SL_R(4)
w2 = form=SL_H(2)
"""

D5_WITH_TWIN = """
[group]
type = 1D
rank = 5
[field]
degree = 1
[places]
v2 = omega=1/4
v3 = omega=1/4
v5 = omega=2/4
[real]
w = form=Spin(7,3) omega=0
"""

D6_THREE_TWINS = """
[group]
type = 1D
rank = 6
[field]
degree = 1
[places]
v2 = omega=(1,0)
v3 = omega=(1,0)
v5 = omega=(1,0)
[real]
w = form=SpinStar(12)
"""

D6_OUTER_TWO_REALS = """
[group]
type = 2D
rank = 6
[field]
degree = 2
complex_places = 0
galois = true
[places]
v2 = kind=nonsplit omega=0
[real]
w1 = form=SpinStar(12)
w2 = form=SpinStar(12)
"""

E6_Q = """
[group]
type = 1E6
[field]
degree = 1
[real]
w = form=SplitForm
"""

E6_OUTER_REAL_QUADRATIC = """
[group]
type = 2E6
[field]
degree = 2
complex_places = 0
galois = true
[real]
w1 = form=CompactForm
w2 = form=CompactForm
"""

E6_OUTER_ANISOTROPIC = """
[group]
type = 2E6
[field]
degree = 2
complex_places = 0
galois = true
[real]
w1 = form=AnisotropicOther kind=nonsplit
w2 = form=AnisotropicOther kind=nonsplit
"""

E6_GAUSSIAN = """
[group]
type = 1E6
[field]
degree = 2
complex_places = 1
galois = true
[places]
v2 = omega=0
"""

TABLE3_NO_GENERATOR = FIXTURES["table3_A4_Qi"].replace("[aut]\nconj = (v5a v5b)\n", "")

UNKNOWN_FIBER = """
[group]
type = 2A
rank = 3
[field]
degree = 5
complex_places = 2
galois = false
hbar_fiber = unknown
[places]
v2 = kind=nonsplit omega=1/2
[real]
w = form=SU(3,1)
"""

NOT_LOCALLY_DETERMINED = """
[group]
type = 1A
rank = 2
[field]
degree = 8
complex_places = 4
locally_determined = false
[places]
v2 = omega=0
"""


class TestDispatcher:
    def test_split_rank_one_rigid(self):
        assert classify_text(SL2_Q).outcome == Outcome.RIGID

    def test_quaternion_pair_flip(self):
        v = classify_text(FIXTURES["quat_sqrt2"])
        assert v.outcome == Outcome.NOT_RIGID
        assert all(tag == RealFormTag("SL_R", (2,)) for _, tag in v.witness.real_forms)

    def test_division_algebra_witness_is_partner_row(self):
        v = classify_text(FIXTURES["table1_D1"])
        assert v.outcome == Outcome.NOT_RIGID
        assert [c.value for _, c in v.witness.omega.finite] == [1, 2, 2, 1]

    def test_cubic_split_prime(self):
        v = classify_text(FIXTURES["cubic31"])
        assert v.outcome == Outcome.NOT_RIGID

    def test_out_of_scope(self):
        # no D4 descriptor can be built, so no entry point sees one
        with pytest.raises(OutOfScopeError, match=f"^{D4_OUT_OF_SCOPE}$"):
            GroupType(Family.D, 4)

    def test_undetermined_paths(self):
        v = classify_text(UNKNOWN_FIBER)
        assert v.outcome == Outcome.UNDETERMINED and "fiber" in v.missing
        v = classify_text(NOT_LOCALLY_DETERMINED)
        assert v.outcome == Outcome.UNDETERMINED and "determined" in v.missing

    def test_symbolic_witness_for_sibling_square_class(self):
        v = classify_text(FIXTURES["komatsu_2A2"])
        assert v.outcome == Outcome.NOT_RIGID
        assert v.witness is None and v.symbolic_witness


class TestNoSymmetry:
    def test_split_symplectic_rigid(self):
        assert classify_text(FIXTURES["split_C3_Q"]).outcome == Outcome.RIGID

    def test_split_g2_not_rigid(self):
        v = classify_text(FIXTURES["split_G2_Q"])
        assert v.outcome == Outcome.NOT_RIGID
        assert v.witness is not None

    def test_two_exchanged_real_places_rigid(self):
        assert classify_text(A1_REAL_QUADRATIC_SWAP).outcome == Outcome.RIGID

    def test_two_frozen_real_places_not_rigid(self):
        v = classify_text(A1_REAL_QUADRATIC_NO_SWAP)
        assert v.outcome == Outcome.NOT_RIGID
        classes = [c.value for _, c in v.witness.omega.real]
        assert classes == [1, 0]  # the two infinite completions traded forms


class TestSymmetricImaginary:
    def test_gaussian_rank4_rigid(self):
        assert classify_text(FIXTURES["table3_A4_Qi"]).outcome == Outcome.RIGID

    def test_generator_removed_not_rigid_with_pinned_witness(self):
        v = classify_text(TABLE3_NO_GENERATOR)
        assert v.outcome == Outcome.NOT_RIGID
        got = {lab.id: cls.value for lab, cls in v.witness.omega.finite}
        assert got == {"v3": 1, "v5a": 3, "v5b": 2, "v7": 4}

    def test_zero_vector_rigid(self):
        assert classify_text(E6_GAUSSIAN).outcome == Outcome.RIGID


class TestTypeA:
    def test_outer_even_rank_over_q(self):
        assert classify_text(A2_OUTER_Q).outcome == Outcome.RIGID

    def test_half_sum_subset_blocks_rigidity(self):
        v = classify_text(A3_SUBSET_HIT)
        assert v.outcome == Outcome.NOT_RIGID
        assert any(tag == "half-sum-subset" for tag, _ in v.reasons)

    def test_uniform_rank5_rigid(self):
        assert classify_text(A5_UNIFORM_Q).outcome == Outcome.RIGID

    def test_two_real_places_with_exchange(self):
        assert classify_text(A3_TWO_REALS_SWAP).outcome == Outcome.RIGID


class TestTypeD:
    def test_star_form_one_twin_rigid(self):
        assert classify_text(FIXTURES["spinstar_D6_Q"]).outcome == Outcome.RIGID

    def test_spin73_no_twins_rigid(self):
        assert classify_text(FIXTURES["spin73_D5_Q"]).outcome == Outcome.RIGID

    def test_rank5_twin_place_not_rigid(self):
        v = classify_text(D5_WITH_TWIN)
        assert v.outcome == Outcome.NOT_RIGID
        assert v.witness is not None

    def test_three_twins_not_rigid(self):
        v = classify_text(D6_THREE_TWINS)
        assert v.outcome == Outcome.NOT_RIGID

    def test_outer_two_inner_reals_not_rigid(self):
        v = classify_text(D6_OUTER_TWO_REALS)
        assert v.outcome == Outcome.NOT_RIGID


class TestTypeE6:
    def test_rationals_never_rigid(self):
        v = classify_text(E6_Q)
        assert v.outcome == Outcome.NOT_RIGID
        assert v.witness is not None

    def test_outer_real_quadratic_never_rigid(self):
        assert classify_text(E6_OUTER_REAL_QUADRATIC).outcome == Outcome.NOT_RIGID

    def test_an_outer_anisotropic_form_trades_for_the_compact_one(self):
        # the form at w1 is its own canonical form, so the witness takes its partner
        v = classify_text(E6_OUTER_ANISOTROPIC)
        assert v.outcome == Outcome.NOT_RIGID
        forms = dict(v.witness.real_forms)
        assert forms["w1"] == RealFormTag("CompactForm", family=Family.E6, rank=6)
        assert forms["w2"] == RealFormTag("AnisotropicOther", family=Family.E6, rank=6, outer=True)


# inputs of three branches that no fixture and no bench workload reaches
D6_STAR_ORBIT_MISMATCH = """
[group]
type = 1D
rank = 6
[field]
degree = 3
complex_places = 1
[places]
v1 = omega=(1,0)
v2 = class=c omega=(1,1)
v3 = class=c omega=(0,0)
v4 = omega=(1,1)
[real]
w = form=SpinStar(12)
"""

A3_OUTER_REALS_OF_BOTH_KINDS = """
[group]
type = 2A
rank = 3
[field]
degree = 2
hbar_fiber = trivial
[places]
v3 = kind=nonsplit omega=1
[real]
w1 = form=SL_R(4)
w2 = form=SU(3,1)
"""

D5_TWO_REALS = """
[group]
type = 1D
rank = 5
[field]
degree = 2
[real]
w1 = form=Spin(7,3) omega=1
w2 = form=Spin(7,3) omega=1
"""


class TestRareBranches:
    @pytest.mark.parametrize("text, reasons", [
        (D6_STAR_ORBIT_MISMATCH,
         [("type-D-classification", "(i) star form, one twin place"),
          ("orbit-match", "automorphism orbit has 1 vectors, adelic orbit 2")]),
        (A3_OUTER_REALS_OF_BOTH_KINDS,
         [("type-A-classification", "two real places of different split kind can never be exchanged")]),
        (D5_TWO_REALS,
         [("type-D-classification", "odd rank allows only one real place"),
          ("too-many-real-places", "2 real places")]),
    ], ids=["plain-orbit-fails", "a-real-kinds-differ", "d-odd-rank-two-reals"])
    def test_not_rigid_with_a_sound_witness(self, text, reasons):
        g = parse(text)
        v = classify(g)
        assert v.outcome == Outcome.NOT_RIGID
        assert v.reasons == reasons
        check_witness(g, v.witness)
        assert parse(emit_descriptor(v.witness)) == v.witness


class TestTwoRealPlaces:
    BASE = """
[group]
type = 1A
rank = 3
[field]
degree = 2
complex_places = 0
galois = true
[aut]
g = (w1 w2)
[places]
va = omega=2/4
[real]
w1 = form=SL_R(4)
w2 = form=SL_H(2)
"""

    def test_exchanged_pair_with_inert_coordinate_rigid(self):
        assert classify_text(self.BASE).outcome == Outcome.RIGID

    def test_no_exchange_not_rigid(self):
        frozen = self.BASE.replace("[aut]\ng = (w1 w2)\n", "")
        v = classify_text(frozen)
        assert v.outcome == Outcome.NOT_RIGID
        assert [c.value for _, c in v.witness.omega.real] == [1, 0]

    def test_singleton_half_sum_blocks_the_exchange_branch(self):
        hit = self.BASE.replace(
            "[places]\nva = omega=2/4",
            "[places]\nva = omega=1/4\nvb = omega=1/4",
        )
        v = classify_text(hit)
        assert v.outcome == Outcome.NOT_RIGID
        assert any(tag == "half-sum-subset" for tag, _ in v.reasons)

    def test_adelic_pair_outruns_the_stabilizer(self):
        paired = self.BASE.replace(
            "[places]\nva = omega=2/4",
            "[places]\nva = class=c omega=2/4\nvb = class=c omega=0/4",
        )
        v = classify_text(paired)
        assert v.outcome == Outcome.NOT_RIGID
        assert any(tag == "weak-uniformity" for tag, _ in v.reasons)

    def test_outer_exchange_with_one_twin_rigid(self):
        outer = """
[group]
type = 2A
rank = 3
[field]
degree = 2
complex_places = 0
galois = true
[aut]
g = (w1 w2)
[places]
v3 = kind=split omega=1/4
v5 = kind=nonsplit omega=0
[real]
w1 = form=SL_R(4)
w2 = form=SL_H(2)
"""
        assert classify_text(outer).outcome == Outcome.RIGID

    def test_outer_star_branches_rigid(self):
        d6 = """
[group]
type = 2D
rank = 6
[field]
degree = 1
[places]
v2 = kind=nonsplit omega=1/2
[real]
w = form=SpinStar(12)
"""
        assert classify_text(d6).outcome == Outcome.RIGID
        d5 = """
[group]
type = 2D
rank = 5
[field]
degree = 1
[places]
v2 = kind=split omega=1/4
[real]
w = form=SpinStar(10) omega=1
"""
        assert classify_text(d5).outcome == Outcome.RIGID


class TestSubsetSum:
    def test_single_value(self):
        assert subset_sum_forbidden([1], 4, {1, 3}) == [0]

    def test_even_values_miss_odd_targets(self):
        assert subset_sum_forbidden([2, 2], 4, {1, 3}) is None

    def test_pair_hit(self):
        assert subset_sum_forbidden([1, 2, 1, 2], 6, {3}) == [0, 1]

    def test_empty_subset_never_returned(self):
        assert subset_sum_forbidden([2, 4], 6, {0}) == [0, 1]

    def test_more_values_than_the_old_cap(self):
        values = [2] * 60
        assert subset_sum_forbidden(values, 8, {1, 7}) is None
        assert subset_sum_forbidden(values + [5], 8, {1, 7}) == [0, 60]

    def test_matches_the_listing_of_every_subset(self):
        rng = random.Random("subset-sum")
        for _ in range(300):
            m = rng.randrange(2, 13)
            values = [rng.randrange(1, 2 * m) for _ in range(rng.randrange(0, 9))]
            targets = set(rng.sample(range(m), rng.randrange(0, 3)))
            hits = [list(c) for k in range(1, len(values) + 1)
                    for c in itertools.combinations(range(len(values)), k)
                    if sum(values[i] for i in c) % m in targets]
            assert subset_sum_forbidden(values, m, targets) == (hits[0] if hits else None)

    def test_thirty_two_values_stay_within_the_work_limit(self):
        # with no two subsets of a half on one residue, each half of 16 values
        # visits 1 + 2 + ... + 2^15 = 2^16 - 1 entries
        rng = random.Random("subset-sum/32")
        values = [rng.randrange(1, 10**6) for _ in range(32)]
        assert 2 * (2**16 - 1) <= SUBSET_SUM_WORK_LIMIT
        subset_sum_forbidden(values, 10**6, {1})
        with pytest.raises(CapacityError, match=SUBSET_SUM_MESSAGE):
            subset_sum_forbidden(values + [1, 1], 10**6, {1})

    def test_a_large_input_fails_fast(self):
        g = parse(random_twins_over_q(10**6 - 1, 40))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=SUBSET_SUM_MESSAGE):
            classify(g)
        assert time.perf_counter() - start < 1.0


class TestSpecializations:
    def test_split_b3_not_rigid(self):
        assert specialize_q(parse(FIXTURES["b3_split_Q"])).outcome == Outcome.NOT_RIGID

    def test_quasisplit_outer_imaginary_quadratic(self):
        text = """
[group]
type = 2A
rank = 2
[field]
degree = 2
complex_places = 1
galois = true
[places]
v2 = kind=nonsplit omega=0
"""
        assert specialize_quasisplit(parse(text)).outcome == Outcome.RIGID

    def test_quasisplit_inner_rank2_over_q(self):
        text = """
[group]
type = 1A
rank = 2
[field]
degree = 1
[places]
v2 = omega=0
[real]
w = form=SL_R(3)
"""
        assert specialize_quasisplit(parse(text)).outcome == Outcome.RIGID

    NON_GALOIS_CUBIC = """
[group]
type = 1A
rank = 2
[field]
degree = 3
complex_places = 1
galois = false
[places]
v2 = omega=0
[real]
w = form=SL_R(3)
"""

    @pytest.mark.parametrize("check, text, message", [
        (specialize_quasisplit, NON_GALOIS_CUBIC, "^this checklist assumes a Galois base field$"),
        (specialize_quasisplit, FIXTURES["table3_A4_Qi"], "^this checklist assumes a quasi-split group$"),
        (specialize_q, FIXTURES["table3_A4_Qi"], "^this checklist only applies over the rationals$"),
    ], ids=["quasisplit-non-galois", "quasisplit-not-quasisplit", "q-degree-2"])
    def test_checklists_refuse_inputs_outside_their_scope(self, check, text, message):
        with pytest.raises(ContractError, match=message):
            check(parse(text))


class TestNormalization:
    @pytest.mark.parametrize("form, value, folded, outcome", [
        ("Spin(3,2)", 0, RealFormTag("Sp_R", (4,)), Outcome.RIGID),
        ("Spin(4,1)", 1, RealFormTag("Sp", (1, 1)), Outcome.NOT_RIGID),
        ("Spin(5,0)", 1, RealFormTag("Sp", (2, 0)), Outcome.NOT_RIGID),
        ("SplitForm", 0, RealFormTag("Sp_R", (4,)), Outcome.RIGID),
        ("CompactForm", 0, RealFormTag("Sp_R", (4,)), Outcome.RIGID),
        ("AnisotropicOther", 0, RealFormTag("Sp_R", (4,)), Outcome.RIGID),
        ("CompactForm", 1, RealFormTag("Sp", (2, 0)), Outcome.NOT_RIGID),
        ("AnisotropicOther", 1, RealFormTag("Sp", (2, 0)), Outcome.NOT_RIGID),
    ])
    def test_b2_folds_into_c2(self, form, value, folded, outcome):
        # one finite place of the real place's value keeps the input coherent
        text = (f"[group]\ntype = B\nrank = 2\n[field]\ndegree = 1\n[places]\nv2 = omega={value}\n"
                f"[real]\nw = form={form} omega={value}\n")
        g = normalize(parse(text))
        assert g.group_type == GroupType(Family.C, 2)
        assert g.real_forms == (("w", folded),)
        assert [cls.value for _, cls in g.omega.real] == [value]
        assert classify(parse(text)).outcome == outcome

    @pytest.mark.parametrize("check", [classify, specialize_q, specialize_quasisplit])
    def test_b2_real_form_without_a_coordinate_is_a_validation_error(self, check):
        b2 = GroupType(Family.B, 2)
        g = GroupDescriptor(
            b2,
            FieldDescriptor(degree=1, real_places=(PlaceLabel("w2", PlaceKind.REAL_INNER),)),
            PlaceSymmetry(),
            OmegaVector(b2),
            (("w2", RealFormTag("SplitForm", family=Family.B, rank=2)),),
        )
        with pytest.raises(ValidationError, match="real coordinates must cover"):
            check(g)


def _table3_with_v3_listed_thrice(values):
    """``table3_A4_Qi`` with two more coordinates at v3, valued 1 and 4 (so
    still coherent), and the finite values, in place order, replaced by
    ``values`` if given."""
    g = parse(FIXTURES["table3_A4_Qi"])
    (v3, cls), *_ = g.omega.finite
    fin = OmegaVector(g.group_type, g.omega.finite + ((v3, LocalClass(cls.shape, 1)),
                                                      (v3, LocalClass(cls.shape, 4)))).finite
    if values:
        fin = tuple((lab, LocalClass(c.shape, x)) for (lab, c), x in zip(fin, values))
    return replace(g, omega=OmegaVector(g.group_type, fin, g.omega.real))


class TestPlacesByPosition:
    """Coordinates and real forms must list each declared place once, in place order."""

    FINITE = "^finite coordinates must cover exactly the declared finite places$"

    @pytest.mark.parametrize("check", [classify, specialize_q, specialize_quasisplit])
    def test_b2_takes_only_family_b_forms(self, check):
        # built in code, past the parser: validation runs before the fold into
        # C2, which would make any form symplectic
        b2 = GroupType(Family.B, 2)
        w = PlaceLabel("w", PlaceKind.REAL_INNER)
        g = GroupDescriptor(
            b2,
            FieldDescriptor(degree=1, real_places=(w,)),
            PlaceSymmetry(),
            OmegaVector(b2, (), ((w, LocalClass(cyclic(2), 0)),)),
            (("w", RealFormTag("SL_R", (3,))),),
        )
        with pytest.raises(ValidationError, match=r"^real place w: SL\(3,R\) is not a form of family B$"):
            check(g)

    def test_b2_with_a_foreign_form_exits_3(self, tmp_path, capsys):
        # the parser reports the foreign form at its line, in B3 as in B2
        path = tmp_path / "b.grp"
        for rank in (2, 3):
            path.write_text(f"[group]\ntype = B\nrank = {rank}\n[field]\ndegree = 1\n"
                            "[real]\nw = form=SL_R(3)\n", encoding="utf-8")
            assert main(["classify", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"{path}:7:1: SL(3,R) is not a form of family B\n"

    def test_a_place_listed_thrice_is_refused(self):
        with pytest.raises(ValidationError, match=self.FINITE):
            classify(_table3_with_v3_listed_thrice(None))

    def test_coordinates_relabelled_into_one_class_are_refused(self):
        g = parse(FIXTURES["table3_A4_Qi"])
        fin = tuple((PlaceLabel(lab.id, lab.kind, "c"), cls) for lab, cls in g.omega.finite)
        with pytest.raises(ValidationError, match=self.FINITE):
            classify(replace(g, omega=OmegaVector(g.group_type, fin, g.omega.real)))

    def test_coordinates_built_for_another_type_are_refused(self):
        # B3 carries the same shapes as C3 at every place, so the vector builds
        g = parse(FIXTURES["split_C3_Q"])
        b3 = OmegaVector(GroupType(Family.B, 3), g.omega.finite, g.omega.real)
        with pytest.raises(ValidationError, match="^coordinate vector built for a different group type$"):
            validate_descriptor(replace(g, omega=b3))

    def test_a_second_form_at_one_place_is_refused(self):
        g = parse(FIXTURES["spin73_D5_Q"])
        g = replace(g, real_forms=g.real_forms + (("w", RealFormTag("Spin", (9, 1))),))
        with pytest.raises(ValidationError, match="^every declared real place needs exactly one real form$"):
            classify(g)

    def test_check_witness_refuses_a_twin_with_a_repeated_coordinate(self):
        # a twin that passes every other check: locally isomorphic to g, outside its orbit
        g = _table3_with_v3_listed_thrice(None)
        w = _table3_with_v3_listed_thrice([1, 1, 1, 3, 3, 1])
        with pytest.raises(ValidationError, match=self.FINITE):
            check_witness(g, w)


class TestTwoRealRandomized:
    def test_exchanged_branch_is_internally_consistent(self):
        import random as _random

        from genfix import rand_two_real_quadratic
        from rigidity.brauer import weak_uniformity

        rng = _random.Random(71)
        rigid = not_rigid = 0
        for _ in range(200):
            g = rand_two_real_quadratic(rng)
            v = classify(g)
            if v.outcome == Outcome.RIGID:
                rigid += 1
                # the stabilized comparison must indeed hold in that branch
                if any("stabilized" in d for _, d in v.reasons):
                    w1 = g.field.real_places[0].id
                    assert weak_uniformity(
                        g.omega, g.field, g.symmetry, stabilize_real=w1
                    ).holds
            else:
                assert v.outcome == Outcome.NOT_RIGID
                not_rigid += 1
                if v.witness is not None:
                    check_witness(g, v.witness)
                    assert classify(v.witness).outcome == Outcome.NOT_RIGID
        assert rigid and not_rigid  # both verdicts must actually occur


class TestVerdictInvariants:
    def test_rigid_cites_exactly_one_classification_branch(self):
        rng = random.Random(53)
        seen = 0
        while seen < 60:
            g = rand_q(rng)
            v = classify(g)
            if v.outcome != Outcome.RIGID:
                continue
            seen += 1
            hits = [tag for tag, _ in v.reasons if tag in CLASSIFICATION_TAGS]
            assert len(hits) == 1

    def test_the_readme_lists_every_reason_tag(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Verdict reason tags", 1)[1].split("\n## ", 1)[0]
        listed = {tag for line in table.splitlines() if line.startswith("| `")
                  for tag in re.findall(r"`([^`]+)`", line.split(" | ")[0])}
        assert listed == {v for k, v in vars(classifier).items() if k.startswith("TAG_")}

    def test_not_rigid_witnesses_pass_the_machine_check(self):
        rng = random.Random(59)
        seen = 0
        while seen < 60:
            g = rand_q(rng)
            v = classify(g)
            if v.outcome != Outcome.NOT_RIGID or v.witness is None:
                continue
            seen += 1
            check_witness(g, v.witness)
            assert classify(v.witness).outcome == Outcome.NOT_RIGID

    def test_witness_validation_rejects_orbit_members(self):
        g = parse(FIXTURES["table1_D1"])
        with pytest.raises(ContractError):
            check_witness(g, g)


class TestClassifyMeetsOnlyCoherentFullFlips:
    """Classify never reaches the branch of ``compare_possible`` where σ(O)
    lies outside the possible side.  Only twin places charge the full flip.
    For inner A and E6 a place σ fixes charges 0, so the twins carry the
    whole charge of omega, which is 0.  Outer types and types without
    symmetry charge nothing.  For inner odd D coherence forces an even
    number of twins; inner even D with a real place, the one case with an
    odd number, goes to the orbit match."""

    GENERATORS = [
        genfix.rand_q, genfix.rand_quasisplit_galois, genfix.rand_outer_two_twins,
        genfix.rand_bound_violator, genfix.rand_two_real_quadratic, genfix.rand_three_reals,
        genfix.rand_classed, genfix.rand_interleaved, genfix.rand_paired,
    ]

    def test_every_full_flip_classify_checks_is_coherent(self, monkeypatch):
        checks = []
        coherent = brauer._full_flip_coherent
        monkeypatch.setattr(brauer, "_full_flip_coherent",
                            lambda omega: checks.append(coherent(omega)) or checks[-1])
        for text in FIXTURES.values():
            classify(parse(text))
        for make in self.GENERATORS:
            for seed in range(400):
                classify(make(random.Random(seed)))
        assert len(checks) == 2005
        assert all(checks)


def twins_over_q(rank: int, values) -> str:
    """Inner type A of the given rank over Q with one twin place per value."""
    places = "\n".join(f"v{i + 1} = omega={v}/{rank + 1}" for i, v in enumerate(values))
    return (f"[group]\ntype = 1A\nrank = {rank}\n[field]\ndegree = 1\n"
            f"[places]\n{places}\n[real]\nw = form=SL_R({rank + 1})\n")


# Gaussian rank 4 (table 3) plus one adelic class of ten places of a value
# the symmetry fixes: the adelic side alone would list 10! arrangements.
GAUSSIAN_CLASS_OF_TEN = FIXTURES["table3_A4_Qi"].replace(
    "degree = 2\ncomplex_places = 1", "degree = 16\ncomplex_places = 8\nlocally_determined = true"
) + "".join(f"v13{chr(97 + i)} = class=c13 omega=0/5\n" for i in range(10))

TWIN_BOUND_TAGS = ["type-A-classification", "weak-uniformity", "twin-count-bound"]


class TestBeyondTheOldCap:
    """Inputs the twin-place cap of 24 used to divert to a capped path are
    now decided exactly, in polynomial time."""

    @pytest.mark.parametrize("text,outcome,tags", [
        (twins_over_q(2, [1, 2] * 12), Outcome.NOT_RIGID, TWIN_BOUND_TAGS),
        (twins_over_q(5, [1, 2, 4, 5] * 6), Outcome.NOT_RIGID, TWIN_BOUND_TAGS),
        (GAUSSIAN_CLASS_OF_TEN, Outcome.RIGID,
         ["symmetric-imaginary-classification", "weak-uniformity"]),
    ], ids=["1A2_24_twins", "1A5_24_twins", "gaussian_class_of_10"])
    def test_classifies_within_budget(self, text, outcome, tags):
        g = parse(text)
        start = time.perf_counter()
        v = classify(g)
        elapsed = time.perf_counter() - start
        assert v.outcome == outcome
        assert [tag for tag, _ in v.reasons] == tags
        if v.witness is not None:
            check_witness(g, v.witness)
        assert elapsed < 1.0

    def test_more_twins_than_the_old_cap_take_the_normal_path(self):
        small = classify_text(twins_over_q(2, [1, 2] * 3))
        large_g = parse(twins_over_q(2, [1, 2] * 15))
        large = classify(large_g)
        assert [tag for tag, _ in small.reasons] == TWIN_BOUND_TAGS
        assert [tag for tag, _ in large.reasons] == TWIN_BOUND_TAGS
        assert "30 twin places" in large.reasons[2][1]
        check_witness(large_g, large.witness)

    def test_silent_bound_is_decided_by_counting(self):
        from rigidity.brauer import inner_twin_bound, s_omega_orbit
        from rigidity.field_model import HbarFiber, PlaceLabel
        from rigidity.invariants import LocalClass, PlaceKind, cyclic

        t = GroupType(Family.A, 2)
        z3 = cyclic(3)
        vals = [1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 1]  # eleven twins, zero sum
        labs = [PlaceLabel(f"v{i+1}", PlaceKind.FINITE_INNER) for i in range(len(vals))]
        om = OmegaVector(t, tuple((l, LocalClass(z3, v)) for l, v in zip(labs, vals)))
        f = FieldDescriptor(degree=16, complex_place_count=8, finite_places=tuple(labs),
                            locally_determined=True, hbar_fiber=HbarFiber.TRIVIAL)
        g = GroupDescriptor(t, f, PlaceSymmetry(), om)
        assert not inner_twin_bound(om, f)
        v = classify(g)
        assert v.outcome == Outcome.NOT_RIGID
        listed = len(s_omega_orbit(om).elements)  # singleton classes: no arrangements
        assert v.reasons[1] == ("weak-uniformity", f"weak uniformity fails: 2 realized < {listed} possible")
        check_witness(g, v.witness)


class TestCountsPastTheDigitLimit:
    """A possible count of more than 4,300 digits, Python's default limit on
    turning an int into text, prints as its first six digits and its digit
    count; ``rigidity classify`` used to exit with a ValueError traceback.
    Each run, the interpreter's start included, ends within 10 s."""

    @pytest.mark.parametrize("twins,digits", [(14400, 4335), (16000, 4817)])
    def test_rigidity_classify(self, tmp_path, twins, digits):
        path = tmp_path / "twins.grp"
        path.write_text(twins_over_q(2, [1, 2] * (twins // 2)), encoding="utf-8")
        start = time.perf_counter()
        done = run_python(["-m", "rigidity", "classify", str(path)])
        assert time.perf_counter() - start < 10.0
        assert (done.returncode, done.stderr) == (1, b"")
        out = done.stdout.decode()
        assert out.startswith("verdict: NotRigid\n")
        assert re.search(rf"weak uniformity fails: 2 realized < \d{{6}}\.\.\. \({digits} digits\) possible", out)
        assert f"{twins} twin places force non-rigidity" in out

    def test_rigidity_orbit_names_the_count_it_refuses_to_list(self, tmp_path):
        path = tmp_path / "twins.grp"
        path.write_text(twins_over_q(2, [1, 2] * 7200), encoding="utf-8")
        done = run_python(["-m", "rigidity", "orbit", str(path)])
        assert (done.returncode, done.stdout) == (3, b"")
        assert re.fullmatch(rf"{re.escape(str(path))}: \d{{6}}\.\.\. \(4335 digits\) possible "
                            r"vectors exceed the listing limit 10000\n", done.stderr.decode())


def pairs_in_one_class(pairs: int) -> str:
    """Inner type A60 over an imaginary quadratic field with one adelic
    class of the given number of flip pairs, valued i/61 and -i/61."""
    places = "\n".join(f"v{i}{side} = class=c omega={v}/61" for i in range(1, pairs + 1)
                       for side, v in (("a", i), ("b", 61 - i)))
    return ("[group]\ntype = 1A\nrank = 60\n[field]\ndegree = 2\ncomplex_places = 1\n"
            f"galois = true\n[places]\n{places}\n")


def one_pair_in_one_class(places: int) -> str:
    """Inner type A2 over an imaginary quadratic field with one adelic class
    of the given even number of places, valued 1/3 and 2/3 alternately: one
    flip pair holding every place of the class.  The ids are not v-ids, so
    the ``natural_key`` cache holds none of those that other tests count."""
    values = "\n".join(f"u{i} = class=c omega={1 + i % 2}/3" for i in range(1, places + 1))
    return ("[group]\ntype = 1A\nrank = 2\n[field]\ndegree = 2\ncomplex_places = 1\n"
            f"galois = true\n[places]\n{values}\n")


def random_twins_over_q(rank: int, count: int) -> str:
    """Type A over Q with ``count`` twin places of random charge, balanced."""
    rng = random.Random(f"twins/{rank}/{count}")
    values = [rng.randrange(1, rank + 1) for _ in range(count)]
    return twins_over_q(rank, values + [-sum(values) % (rank + 1)])


RESIDUE_WORK_MESSAGE = rf"^\d+ residue products exceed the work limit {RESIDUE_WORK_LIMIT}$"
SUBSET_SUM_MESSAGE = rf"^\d+ subset sum table entries exceed the work limit {SUBSET_SUM_WORK_LIMIT}$"


class TestResidueWork:
    """Class residue vectors are products of per-pair factors stored by
    their support: their cost follows the pairs and the residues that
    occur, not the listing of options or the modulus."""

    def test_a_class_of_thirty_pairs_classifies_within_budget(self):
        small = classify_text(pairs_in_one_class(6))
        g = parse(pairs_in_one_class(30))
        start = time.perf_counter()
        v = classify(g)
        assert time.perf_counter() - start < 1.0
        assert v.outcome == small.outcome == Outcome.NOT_RIGID
        assert [tag for tag, _ in v.reasons] == [tag for tag, _ in small.reasons]
        check_witness(g, v.witness)

    def test_one_pair_of_722_places_classifies_within_budget(self):
        # the pair factors take each binomial from the one before; with a
        # binomial computed afresh for every term this input took 1.7 s, and
        # 2,000 places took 96 s (2-vCPU Xeon VM, Python 3.11)
        small = classify_text(one_pair_in_one_class(40))
        g = parse(one_pair_in_one_class(722))
        start = time.perf_counter()
        v = classify(g)
        assert time.perf_counter() - start < 1.0
        assert v.outcome == small.outcome == Outcome.NOT_RIGID
        assert [tag for tag, _ in v.reasons] == [tag for tag, _ in small.reasons]
        check_witness(g, v.witness)

    def test_the_pair_factors_count_towards_the_limit(self):
        # one factor of up to 725 terms for each value count the witness
        # rebuild fixes; past 722 places they take the count over the limit
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=RESIDUE_WORK_MESSAGE):
            classify_text(one_pair_in_one_class(724))
        assert time.perf_counter() - start < 1.0

    def test_twin_free_cost_does_not_follow_the_rank(self):
        def peak(rank):
            g = parse(twins_over_q(rank, [0, 0]))
            for table in (cyclic, center_shape, h2_local, c_local, sym_act):
                table.cache_clear()
            tracemalloc.start()
            assert classify(g).outcome == Outcome.RIGID
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak

        peak(10)  # first-call allocations
        small, large = peak(10**3), peak(10**8)
        # the rank's digits enter the reason texts; a table over the
        # residues would take hundreds of megabytes
        assert large <= small + 1024
        g = parse(twins_over_q(10**8, [0, 0]))
        start = time.perf_counter()
        classify(g)
        assert time.perf_counter() - start < 0.05

    def test_random_charges_at_a_large_rank_fail_fast(self):
        g = parse(random_twins_over_q(10**6, 24))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=RESIDUE_WORK_MESSAGE):
            classify(g)
        assert time.perf_counter() - start < 1.0

    def test_the_limit_bounds_the_products_of_one_comparison(self, monkeypatch):
        done = []  # products of each convolution that ran
        convolve = brauer._convolve

        def counted(a, b, m, work):
            out = convolve(a, b, m, work)
            done.append(len(a) * len(b))
            return out

        monkeypatch.setattr(brauer, "_convolve", counted)
        with pytest.raises(CapacityError, match=RESIDUE_WORK_MESSAGE):
            classify_text(random_twins_over_q(10**6, 24))
        # a check per convolution let this input do 502,414 products
        assert RESIDUE_WORK_LIMIT // 2 < sum(done) <= RESIDUE_WORK_LIMIT

    def test_one_convolution_per_class_over_q(self, monkeypatch):
        """Fourteen singleton twin classes: one convolution each for the
        suffix, and none in the rebuild, which carries finished classes as
        one residue; a running product of them took 42."""
        calls = []
        convolve = brauer._convolve

        def counted(a, b, m, work):
            calls.append(len(a) * len(b))
            return convolve(a, b, m, work)

        monkeypatch.setattr(brauer, "_convolve", counted)
        v = classify_text(twins_over_q(2, [1, 2] * 7))
        assert v.outcome == Outcome.NOT_RIGID and v.witness is not None
        assert len(calls) <= 14


class TestRationalChecklistLimit:
    def test_listing_above_the_limit_fails_fast(self):
        g = parse(twins_over_q(2, [1, 2] * 12))
        start = time.perf_counter()
        with pytest.raises(CapacityError) as err:
            specialize_q(g)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == (
            f"24 twin places exceed the flip walk's limit {FLIP_WALK_TWIN_LIMIT}"
        )


class TestGroupEnumeratedOnce:
    @pytest.mark.parametrize("text", [
        FIXTURES["quat_sqrt2"],
        FIXTURES["table3_A4_Qi"] + "v11a = class=c11 omega=1/5\nv11b = class=c11 omega=4/5\n",
    ], ids=["quat_sqrt2", "table3_plus_a_class"])
    def test_not_rigid_classify_enumerates_the_group_once(self, text, monkeypatch):
        g = parse(text)
        calls = []
        generate = field_model.generate
        monkeypatch.setattr(field_model, "generate", lambda *a: calls.append(1) or generate(*a))
        v = classify(g)
        assert v.outcome == Outcome.NOT_RIGID
        assert len(calls) == 1


class TestValidatedOnce:
    @pytest.mark.parametrize("name", ["quat_sqrt2", "table1_D1", "cubic31"])
    def test_not_rigid_classify_validates_the_field_once(self, name, monkeypatch):
        # the witness shares the input's field and automorphisms, which
        # classify has validated already
        g = parse(FIXTURES[name])
        calls = []
        validate = classifier.validate_field  # field_model.validate
        monkeypatch.setattr(classifier, "validate_field", lambda *a: calls.append(1) or validate(*a))
        v = classify(g)
        assert v.outcome == Outcome.NOT_RIGID
        assert len(calls) == 1


class TestBuildWitness:
    """The twin each kind of negative branch builds, as ``classify`` emits
    it, and the refusals of ``check_witness``."""

    def test_orbit_kind_reproduces_the_partner_row(self):
        g = parse(FIXTURES["table1_D1"])
        partner = parse(FIXTURES["table1_D2"])
        w = classify(g).witness
        assert w.omega.finite == partner.omega.finite
        assert w.omega.real == g.omega.real and w.real_forms == g.real_forms
        check_witness(g, w)

    def test_flip_reals_kind_splits_both_quaternionic_places(self):
        g = parse(FIXTURES["quat_sqrt2"])
        v = classify(g)
        assert [tag for tag, _ in v.reasons][-1] == "too-many-real-places"
        assert all(tag == RealFormTag("SL_R", (2,)) for _, tag in v.witness.real_forms)
        assert all(cls.value == 0 for _, cls in v.witness.omega.real)
        check_witness(g, v.witness)

    def test_subset_real_flip_kind(self):
        g = parse(A3_SUBSET_HIT)
        w = classify(g).witness
        assert [cls.value for _, cls in w.omega.finite] == [3, 1, 2]
        assert [(lab.id, cls.value) for lab, cls in w.omega.real] == [("w", 1)]
        assert w.real_forms == (("w", RealFormTag("SL_H", (2,))),)
        check_witness(g, w)

    def test_bad_certificates_rejected(self):
        g = parse(FIXTURES["table1_D1"])
        partner = parse(FIXTURES["table1_D2"])

        def with_finite(values):
            fin = tuple((lab, LocalClass(cls.shape, v))
                        for (lab, cls), v in zip(g.omega.finite, values))
            return replace(g, omega=OmegaVector(g.group_type, fin, g.omega.real))

        assert with_finite([1, 2, 2, 1]).omega.finite == partner.omega.finite
        check_witness(g, with_finite([1, 2, 2, 1]))
        with pytest.raises(ValidationError, match="incoherent"):
            # changing a single coordinate breaks coherence
            check_witness(g, with_finite([1, 2, 2, 2]))
        with pytest.raises(ContractError, match="not locally isomorphic"):
            check_witness(g, with_finite([0, 0, 1, 2]))
        with pytest.raises(ContractError, match="global orbit"):
            check_witness(g, with_finite([2, 1, 2, 1]))
        # the emitted witness over a field of degree 2 (not Galois, since a
        # Galois quadratic field with one real place fails validation)
        w = classify(g).witness
        other = replace(w.field, degree=2, galois_over_q=False)
        with pytest.raises(ContractError, match="not over the input's type, field and automorphisms"):
            check_witness(g, replace(w, field=other))
        # the emitted witness without the automorphism (w1 w2)
        quat = parse(FIXTURES["quat_sqrt2"])
        w = classify(quat).witness
        with pytest.raises(ContractError, match="not over the input's type, field and automorphisms"):
            check_witness(quat, replace(w, symmetry=PlaceSymmetry()))
