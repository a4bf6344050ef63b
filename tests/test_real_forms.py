import pytest

from rigidity.errors import CapacityError, ContractError, MissingRealClassError
from rigidity.invariants import (
    KLEIN,
    Family,
    FormKind,
    GroupType,
    LocalClass,
    PlaceKind,
    cyclic,
    zero,
)
from rigidity.real_forms import (
    ACCIDENTAL_ISOMORPHISMS,
    FORM_PARAMETER_LIMIT,
    RealFormTag,
    RealStats,
    delta,
    form_for_class,
    q_image_trivial,
    real_class,
    real_stats,
    trivial_image_forms,
)


class TestDelta:
    @pytest.mark.parametrize("r,s,expected", [
        (0, 0, 3), (7, 3, 0), (1, 2, 1), (3, 0, 2), (2, 1, 1), (1, 1, 1),
    ])
    def test_entries(self, r, s, expected):
        assert delta(r, s) == expected

    def test_a_negative_argument_is_refused(self):
        with pytest.raises(ContractError, match="^delta takes nonnegative arguments$"):
            delta(-1, 0)

    def test_symmetry(self):
        for r in range(8):
            for s in range(8):
                assert delta(r, s) == delta(s, r)


class TestRealFormTag:
    @pytest.mark.parametrize("name, params", [
        ("SL_R", (-3,)), ("SL_H", (-1,)), ("SU", (4, -1)), ("SU", (-1, 4)), ("Spin", (8, -1)),
        ("SpinStar", (-4,)), ("Sp_R", (-2,)), ("Sp", (4, -1)), ("Sp", (-1, 4)),
    ])
    def test_a_negative_parameter_is_refused(self, name, params):
        # before, SU(4,-1) and Sp(4,-1) passed as forms of type A2 and C3
        with pytest.raises(ValueError, match=f"^{name} takes nonnegative parameters$"):
            RealFormTag(name, params)

    @pytest.mark.parametrize("name, params, message", [
        ("SL_R", (0,), "a parameter of at least 1"), ("SL_H", (0,), "a parameter of at least 1"),
        ("SU", (0, 0), "parameters of positive total"), ("Spin", (0, 0), "parameters of positive total"),
        ("Sp", (0, 0), "parameters of positive total"),
    ])
    def test_a_form_with_no_group_is_refused(self, name, params, message):
        # before, SL_R(0) passed as a form of type A-1
        with pytest.raises(ValueError, match=f"^{name} takes {message}$"):
            RealFormTag(name, params)

    def test_a_generic_tag_needs_its_family(self):
        with pytest.raises(ValueError, match="^SplitForm needs the ambient family and rank$"):
            RealFormTag("SplitForm")

    def test_a_zero_parameter_is_kept(self):
        assert RealFormTag("SU", (0, 4)).params == (4, 0)
        assert RealFormTag("Spin", (5, 0)).signature() == (Family.B, 2, False)


class TestRealStats:
    def test_spin_7_3(self):
        st = real_stats(RealFormTag("Spin", (7, 3)))
        assert st == RealStats(2, 2, 1, 2)

    def test_compact_symplectic_family(self):
        st = real_stats(RealFormTag("Sp", (2, 1)))
        assert (st.z_h1_size, st.pi0_size, st.kernel_size, st.h1_size) == (2, 2, 1, 4)

    def test_odd_linear_group(self):
        st = real_stats(RealFormTag("SL_R", (5,)))
        assert st.h1_size == 1 and st.kernel_size == 1

    def test_even_linear_group(self):
        st = real_stats(RealFormTag("SL_R", (4,)))
        assert st.h1_size == 1 and st.kernel_size == 1

    def test_quaternionic_linear_group(self):
        st = real_stats(RealFormTag("SL_H", (3,)))
        assert st.h1_size == 2 and st.kernel_size == 2

    @pytest.mark.parametrize("sizes, message", [
        ((4, 3, 2, 1), "center cohomology size not divisible by component count"),
        ((2, 2, 1, 1), "kernel size inconsistent with the quotient formula"),
        ((1, 2, 1, 2), "kernel larger than the whole cohomology set"),
    ])
    def test_inconsistent_sizes_are_refused(self, sizes, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            RealStats(*sizes)

    def test_a_generic_tag_has_no_table(self):
        with pytest.raises(ContractError, match=r"^no tabulated cohomology data for SplitForm\[A2\]$"):
            real_stats(RealFormTag("SplitForm", family=Family.A, rank=2))

    def test_star_forms(self):
        even = real_stats(RealFormTag("SpinStar", (12,)))
        odd = real_stats(RealFormTag("SpinStar", (10,)))
        assert even == RealStats(2, 4, 2, 2)
        assert odd == RealStats(2, 2, 1, 2)


class TestQImageTrivial:
    def test_examples(self):
        assert q_image_trivial(RealFormTag("Sp_R", (8,)))
        assert not q_image_trivial(RealFormTag("SU", (2, 2)))
        assert q_image_trivial(RealFormTag("Spin", (7, 3)))
        assert q_image_trivial(RealFormTag("Spin", (3, 2)))
        assert q_image_trivial(RealFormTag("Spin", (6, 2)))
        assert q_image_trivial(RealFormTag("SU", (3, 1)))
        assert not q_image_trivial(RealFormTag("Sp", (3, 0)))

    def test_exceptional_families_never_pass(self):
        assert not q_image_trivial(RealFormTag("SplitForm", family=Family.E6, rank=6))
        assert not q_image_trivial(RealFormTag("SplitForm", family=Family.G2, rank=2))
        assert not q_image_trivial(RealFormTag("E7_split"))
        assert not q_image_trivial(RealFormTag("E7_compact"))

    def test_spin_lemma_segment(self):
        for total in range(12, 26):
            for s in range(total // 2 + 1):
                assert not q_image_trivial(RealFormTag("Spin", (total - s, s)))

    def test_accidental_isomorphism_consistency(self):
        for a, b in ACCIDENTAL_ISOMORPHISMS:
            assert q_image_trivial(a) == q_image_trivial(b)
            assert real_stats(a).kernel_size == real_stats(a).h1_size
        # the low-dimensional spin coincidences agree with their partners too
        for spin in ((3, 0), (2, 1), (5, 1), (3, 3)):
            assert q_image_trivial(RealFormTag("Spin", spin))


def closed_form(t: GroupType):
    """The stated list of trivial-image forms per type."""
    f, r, outer = t.family, t.rank, t.is_outer
    out = []
    if f == Family.A and not outer:
        out.append(RealFormTag("SL_R", (r + 1,)))
        if r % 2 == 1:
            out.append(RealFormTag("SL_H", ((r + 1) // 2,)))
    elif f == Family.A:
        if r == 1:
            out += [RealFormTag("SU", (2, 0)), RealFormTag("SU", (1, 1))]
        if r == 3:
            out.append(RealFormTag("SU", (3, 1)))
    elif f == Family.B:
        if r == 2:
            out.append(RealFormTag("Spin", (3, 2)))
    elif f == Family.C:
        out.append(RealFormTag("Sp_R", (2 * r,)))
    elif f == Family.D:
        if r == 4 and not outer:
            out.append(RealFormTag("Spin", (6, 2)))
        if r == 5 and not outer:
            out.append(RealFormTag("Spin", (7, 3)))
        star = RealFormTag("SpinStar", (2 * r,))
        if r >= 4 and star.signature()[2] == outer:
            out.append(star)
    return sorted(out, key=str)


class TestTrivialImageForms:
    @pytest.mark.parametrize("t,expected", [
        (GroupType(Family.A, 3), ["SL(4,R)", "SL(2,H)"]),
        (GroupType(Family.A, 5), ["SL(6,R)", "SL(3,H)"]),
        (GroupType(Family.E6, 6), []),
        (GroupType(Family.C, 3), ["Sp(6,R)"]),
        (GroupType(Family.A, 3, FormKind.OUTER), ["SU(3,1)"]),
        (GroupType(Family.D, 5), ["Spin(7,3)"]),
        (GroupType(Family.D, 5, FormKind.OUTER), ["Spin*(10)"]),
        (GroupType(Family.D, 6), ["Spin*(12)"]),
        (GroupType(Family.B, 3), []),
        (GroupType(Family.E7, 7), []),
    ])
    def test_examples(self, t, expected):
        assert [str(x) for x in trivial_image_forms(t)] == expected

    def test_matches_closed_form_on_moderate_ranks(self):
        types = []
        for r in range(1, 12):
            types.append(GroupType(Family.A, r))
            if r >= 2:
                types.append(GroupType(Family.A, r, FormKind.OUTER))
        types += [GroupType(Family.B, r) for r in range(2, 10)]
        types += [GroupType(Family.C, r) for r in range(2, 10)]
        for r in range(5, 11):
            types.append(GroupType(Family.D, r))
            types.append(GroupType(Family.D, r, FormKind.OUTER))
        for t in types:
            got = sorted(trivial_image_forms(t), key=str)
            assert got == closed_form(t), t.symbol()

    @pytest.mark.parametrize("family, fits, exceeds", [
        (Family.A, 99, 100), (Family.B, 49, 50), (Family.C, 100, 101), (Family.D, 50, 51),
    ])
    def test_parameter_totals_above_the_limit_fail_fast(self, family, fits, exceeds):
        trivial_image_forms(GroupType(family, fits))
        with pytest.raises(CapacityError, match=f"exceeds the limit {FORM_PARAMETER_LIMIT}$"):
            trivial_image_forms(GroupType(family, exceeds))


RI, RO = PlaceKind.REAL_INNER, PlaceKind.REAL_OUTER


class TestRealClass:
    def test_dictionary(self):
        a3 = GroupType(Family.A, 3)
        assert real_class(RealFormTag("SL_R", (4,)), a3, RI) == zero(cyclic(2))
        assert real_class(RealFormTag("SL_H", (2,)), a3, RI) == LocalClass(cyclic(2), 1)
        d6 = GroupType(Family.D, 6)
        assert real_class(RealFormTag("SpinStar", (12,)), d6, RI) == LocalClass(KLEIN, (1, 0))
        a3o = GroupType(Family.A, 3, FormKind.OUTER)
        assert real_class(RealFormTag("SU", (3, 1)), a3o, RO) == LocalClass(cyclic(2), 1)
        assert real_class(RealFormTag("SU", (2, 2)), a3o, RO) == zero(cyclic(2))
        c3 = GroupType(Family.C, 3)
        assert real_class(RealFormTag("Sp_R", (6,)), c3, RI) == zero(cyclic(2))
        assert real_class(RealFormTag("Sp", (2, 1)), c3, RI) == LocalClass(cyclic(2), 1)

    def test_split_spin_forms_pinned_to_base_point(self):
        b3 = GroupType(Family.B, 3)
        assert real_class(RealFormTag("Spin", (4, 3)), b3, RI).is_zero
        d6 = GroupType(Family.D, 6)
        assert real_class(RealFormTag("Spin", (6, 6)), d6, RI).is_zero

    def test_pass_through_demands_a_value(self):
        d5 = GroupType(Family.D, 5)
        with pytest.raises(MissingRealClassError):
            real_class(RealFormTag("Spin", (7, 3)), d5, RI)
        got = real_class(RealFormTag("Spin", (7, 3)), d5, RI, LocalClass(cyclic(2), 1))
        assert got == LocalClass(cyclic(2), 1)

    def test_a_supplied_class_of_another_shape_is_refused(self):
        with pytest.raises(ContractError, match=r"^real class for Spin\(6,3\) must have shape Z/2$"):
            real_class(RealFormTag("Spin", (6, 3)), GroupType(Family.B, 4), RI, LocalClass(cyclic(3), 1))

    def test_forced_value_conflicts_rejected(self):
        a3 = GroupType(Family.A, 3)
        with pytest.raises(ContractError, match=r"^SL\(2,H\) pins its real class to 1, got 0$"):
            real_class(RealFormTag("SL_H", (2,)), a3, RI, zero(cyclic(2)))

    def test_trivial_shapes_need_nothing(self):
        e6 = GroupType(Family.E6, 6)
        cls = real_class(RealFormTag("SplitForm", family=Family.E6, rank=6), e6, RI)
        assert cls.is_zero

    @pytest.mark.parametrize("form, t, kind, message", [
        # family before the place kind the type lacks
        (RealFormTag("SU", (2, 1)), GroupType(Family.B, 3), RO, "SU(2,1) is not a form of family B"),
        # type before the form's kind over the reals
        (RealFormTag("SL_R", (4,)), GroupType(Family.A, 2), RO, "SL(4,R) has type A3, group is 1A2"),
        # the form's kind over the reals before the place kind the type lacks
        (RealFormTag("SL_R", (3,)), GroupType(Family.A, 2), RO,
         "SL(3,R) is inner type over the reals but the place is declared real_outer"),
        (RealFormTag("SU", (2, 1)), GroupType(Family.A, 2, FormKind.OUTER), RI,
         "SU(2,1) is outer type over the reals but the place is declared real_inner"),
        (RealFormTag("SL_R", (4,)), GroupType(Family.A, 3), PlaceKind.FINITE_INNER,
         "SL(4,R) is inner type over the reals but the place is declared finite_inner"),
        # then the place kind the type lacks, which h2_local refuses
        (RealFormTag("SU", (2, 1)), GroupType(Family.A, 2), RO,
         "1A2 is an inner form; it has no outer places"),
    ])
    def test_first_misfit_is_reported(self, form, t, kind, message):
        with pytest.raises(ContractError) as err:
            real_class(form, t, kind)
        assert str(err.value) == message

    @pytest.mark.parametrize("form, t, message", [
        (RealFormTag("Spin", (3, 2)), GroupType(Family.A, 4), "Spin(3,2) is not a form of family A"),
        (RealFormTag("SpinStar", (8,)), GroupType(Family.B, 4), "Spin*(8) is not a form of family B"),
        (RealFormTag("SL_H", (2,)), GroupType(Family.C, 3), "SL(2,H) is not a form of family C"),
        (RealFormTag("SplitForm", family=Family.D, rank=6), GroupType(Family.D, 6),
         "SplitForm[D6] is not a form of family D"),
        (RealFormTag("E7_split"), GroupType(Family.E6, 6), "E7 split is not a form of family E6"),
        (RealFormTag("CompactForm", family=Family.E7, rank=7), GroupType(Family.E7, 7),
         "CompactForm[E7] is not a form of family E7"),
        (RealFormTag("Sp", (2, 1)), GroupType(Family.E8, 8), "Sp(2,1) is not a form of family E8"),
        (RealFormTag("SU", (2, 1)), GroupType(Family.F4, 4), "SU(2,1) is not a form of family F4"),
        (RealFormTag("Sp_R", (4,)), GroupType(Family.G2, 2), "Sp(4,R) is not a form of family G2"),
    ], ids=[f.value for f in Family])
    def test_one_foreign_tag_per_family(self, form, t, message):
        # the family check reads the tags each family's rows and generic tags allow
        with pytest.raises(ContractError) as err:
            real_class(form, t, RI)
        assert str(err.value) == message


class TestFormForClass:
    @pytest.mark.parametrize("rank", [2, 4])
    def test_inner_linear_groups_of_even_rank_are_split(self, rank):
        # an odd n has no SL(n/2,H), and the real class of SL(n,R) is the only one
        t = GroupType(Family.A, rank)
        split = RealFormTag("SL_R", (rank + 1,))
        assert form_for_class(t, RI, real_class(split, t, RI)) == split
