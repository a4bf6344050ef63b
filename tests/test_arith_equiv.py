import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    catalog_groups,
    generator_are_conjugate,
    hbar_certificate,
    mackey_decomposition_holds,
    reference_are_conjugate,
    reference_classes,
    reference_closure,
    reference_index_two_subgroups,
    reference_induced_character,
    reference_normal_subgroups,
    reference_profile,
    reference_subgroup_check,
    reference_verify,
    stabilizer_induced_character,
)
from rigidity import arith_equiv
from rigidity.arith_equiv import (
    NORMAL_SUBGROUP_LIMIT,
    PermGroup,
    Subgroup,
    _numbered,
    _signature,
    almost_conjugate,
    are_conjugate,
    common_normal_index2,
    verify_prop_almost_conjugate,
)
from rigidity.catalog import catalog_group, fano_point_line_stabilizers, wreath_pair
from rigidity.cli import main, parse_catalog
from rigidity.errors import CapacityError, ContractError
from rigidity.perm import DEFAULT_GROUP_CAP, generate, perm_from_cycles, perm_inv, perm_mul

# every bundled group whose subgroup lattice takes well under a second
SMALL_CATALOG = [G.name for G in catalog_groups() if G.order() <= 48]

# the groups drawn sets come from: none is the whole symmetric group on its
# points, so a drawn permutation may fall outside it
DRAWN_FROM = [G for G in catalog_groups() if G.name in ("C4", "V4", "D8", "A4", "C2wrC3", "S3xS3")]

# a group of degree 1 to 7 drawn by up to three generators
DRAWN_GROUPS = st.integers(1, 7).flatmap(
    lambda d: st.lists(st.permutations(range(d)).map(tuple), max_size=3).map(lambda gens: (d, gens)))


def lattice_normal_subgroups(G):
    """The normal subgroups filtered out of the reference lattice."""
    return [
        s for s in G.subgroups()
        if all(frozenset(perm_mul(perm_mul(g, x), perm_inv(g)) for x in s) == s
               for g in G.generators)
    ]


def induced_character(G, U):
    """The induced character as ``almost_conjugate`` computes it."""
    return _signature(G, _numbered(G, U)[0])[1]


class TestConjugacyClasses:
    def test_symmetric_three(self):
        assert len(catalog_group("S3").conjugacy_classes()) == 3

    def test_cyclic_four(self):
        assert len(catalog_group("C4").conjugacy_classes()) == 4

    def test_fano_group(self):
        G = catalog_group("PSL(3,2)")
        assert G.order() == 168
        assert len(G.conjugacy_classes()) == 6

    def test_catalog_groups_keep_the_generators_of_the_former_builders(self):
        # the matrix action of a shear and a coordinate cycle on the seven
        # nonzero vectors of a binary space, and three sign flips cycled by a 3-cycle
        assert catalog_group("PSL(3,2)").generators == [
            (2, 1, 0, 3, 6, 5, 4), (1, 3, 5, 0, 2, 4, 6)]
        assert catalog_group("C2wrC3").generators == [
            (1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4), (2, 3, 4, 5, 0, 1)]

    def test_classes_partition_the_group(self):
        for G in (catalog_group("S4"), catalog_group("D12")):
            classes = G.conjugacy_classes()
            flat = [x for c in classes for x in c]
            assert sorted(flat) == G.elements()


class TestAlmostConjugate:
    def test_fano_point_line_pair(self):
        G, P, L = fano_point_line_stabilizers()
        assert P.order() == L.order() == 24
        assert almost_conjugate(G, P, L)

    def test_reflexive(self):
        G, P, _ = fano_point_line_stabilizers()
        assert almost_conjugate(G, P, P)

    def test_different_orders_fail_fast(self):
        G = catalog_group("S3")
        e = G.identity
        u1 = Subgroup(G, frozenset([e]))
        u2 = Subgroup(G, frozenset(G.elements()))
        assert not almost_conjugate(G, u1, u2)

    def test_profiles_and_characters_that_disagree_are_refused(self, monkeypatch):
        # two subgroups of order two in an abelian group meet different
        # classes; an induced character that reads alike on both contradicts that
        G = catalog_group("V4")
        u1, u2 = (Subgroup(G, frozenset([G.identity, x])) for x in G.elements()[1:3])
        monkeypatch.setattr(PermGroup, "induced", lambda self, members: ())
        assert almost_conjugate(G, u1, u1)
        with pytest.raises(ContractError, match="^class profiles and induced characters disagree"):
            almost_conjugate(G, u1, u2)


def _trivial_and_a_transposition(G):
    """The trivial subgroup of ``G`` and the one generated by (1 2)."""
    swap = (1, 0) + tuple(range(2, G.degree))
    return Subgroup(G, frozenset([G.identity])), Subgroup(G, frozenset([G.identity, swap]))


class TestAreConjugate:
    def test_fano_pair_is_not(self):
        G, P, L = fano_point_line_stabilizers()
        assert not are_conjugate(G, P, L)

    def test_wreath_rank_one_parts_are(self):
        G, _, V1, V2 = wreath_pair()
        assert are_conjugate(G, V1, V2)

    def test_reflexive(self):
        G, _, V1, _ = wreath_pair()
        assert are_conjugate(G, V1, V1)

    def test_different_orders_fail_fast(self):
        G = catalog_group("S4")
        assert not are_conjugate(G, *_trivial_and_a_transposition(G))


class TestCommonNormalIndex2:
    def test_wreath_rank_one_parts_have_none(self):
        G, _, V1, V2 = wreath_pair()
        assert common_normal_index2(G, V1, V2) is None

    def test_wreath_middle_subgroup_sits_in_the_base(self):
        G, U, _, _ = wreath_pair()
        n = common_normal_index2(G, U, U)
        assert n is not None and n.order() == 8

    def test_fano_stabilizers_have_none(self):
        G, P, L = fano_point_line_stabilizers()
        assert common_normal_index2(G, P, L) is None

    def test_index_two_in_the_whole_group(self):
        G = catalog_group("C4")
        half = frozenset(p for p in G.elements() if p[0] in (0, 2))
        u = Subgroup(G, half)
        n = common_normal_index2(G, u, u)
        assert n is not None and n.order() == 4

    def test_different_orders_have_none(self):
        G = catalog_group("S4")
        assert common_normal_index2(G, *_trivial_and_a_transposition(G)) is None


class TestSubgroupsOfAnotherGroup:
    """The queries refuse a subgroup that does not lie in the group they are
    asked about, and accept one of another group object that does."""

    @pytest.mark.parametrize("query", [almost_conjugate, are_conjugate, common_normal_index2])
    def test_a_group_of_other_degree_is_refused(self, query):
        G, H = catalog_group("S4"), catalog_group("S3")
        whole = Subgroup(H, frozenset(H.elements()))
        trivial = Subgroup(H, frozenset([H.identity]))
        inside = Subgroup(G, frozenset([G.identity]))
        for U1, U2 in [(whole, whole), (trivial, trivial), (inside, whole), (whole, inside)]:
            with pytest.raises(ContractError, match="^subgroup element outside the ambient group$"):
                query(G, U1, U2)

    def test_a_subgroup_on_the_same_points_is_accepted(self):
        G, H = catalog_group("S4"), catalog_group("D8")
        U = Subgroup(H, frozenset(H.elements()))
        assert almost_conjugate(G, U, U)
        assert are_conjugate(G, U, U)
        assert common_normal_index2(G, U, U) is None  # S4 has no normal subgroup of order 16


class TestInducedCharacterAgainstTheReference:
    """``induced_character`` counts each coset once through its stabilizer;
    ``reference_induced_character`` tests every class representative against
    every coset.  They must agree everywhere."""

    @pytest.mark.parametrize("name", SMALL_CATALOG)
    def test_every_subgroup_of_the_lattice(self, name):
        G = catalog_group(name)
        for s in G.subgroups():
            U = Subgroup(G, s)
            assert induced_character(G, U) == reference_induced_character(G, U)

    def test_fano_group(self):
        # PSL(3,2) is simple, so its normal subgroups have no subgroup of index
        # two; the stabilizers have one each, A4, and the classes' cyclic
        # subgroups have the largest indices
        G, P, L = fano_point_line_stabilizers()
        halves = [Subgroup(G, s)
                  for n in G.normal_subgroups() + [P.members, L.members]
                  for s in G.index_two_subgroups(n)]
        assert len(halves) == 2
        cyclic = [Subgroup(G, generate([c[0]], G.identity)[1]) for c in G.conjugacy_classes()]
        for U in [P, L, *halves, *cyclic]:
            assert induced_character(G, U) == reference_induced_character(G, U)
        assert induced_character(G, P) == induced_character(G, L) == (7, 3, 0, 0, 1, 1)

    @pytest.mark.parametrize("name", [G.name for G in catalog_groups()])
    def test_trivial_subgroup_and_whole_group(self, name):
        # the regular character, and the trivial one
        G = catalog_group(name)
        k = len(G.conjugacy_classes())
        trivial = Subgroup(G, frozenset([G.identity]))
        assert induced_character(G, trivial) == (G.order(),) + (0,) * (k - 1)
        assert induced_character(G, Subgroup(G, frozenset(G.elements()))) == (1,) * k


class TestVerifyProp:
    @pytest.mark.parametrize("factory", [
        lambda: wreath_pair()[0],
        lambda: catalog_group("D8"),
        lambda: catalog_group("S4"),
    ])
    def test_small_groups(self, factory):
        ok, counterexample = verify_prop_almost_conjugate(factory())
        assert ok and counterexample is None

    def test_an_almost_conjugate_pair_that_is_not_conjugate_is_returned(self, monkeypatch):
        # in S4 the three subgroups of order two in the Klein four group are
        # conjugate, so they are almost conjugate
        monkeypatch.setattr(PermGroup, "conjugates_into", lambda G, xs, target: False)
        G = catalog_group("S4")
        ok, (u1, u2) = verify_prop_almost_conjugate(G)
        assert not ok and u1.order() == u2.order() == 2 and u1 != u2
        assert almost_conjugate(G, u1, u2)

    def test_equiv_prints_a_counterexample_and_exits_three(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(PermGroup, "conjugates_into", lambda G, xs, target: False)
        catalog = tmp_path / "groups.cat"
        catalog.write_text("S4 4 (1 2);(1 2 3 4)\nC3 3 (1 2 3)\n", encoding="utf-8")
        assert main(["equiv", str(catalog)]) == 3
        assert capsys.readouterr().out == "S4 (order 24): COUNTEREXAMPLE\nC3 (order 3): ok\n"


class TestHbarCertificate:
    def test_wreath_base_with_all_index_two_pairs(self):
        G, U, _, _ = wreath_pair()
        base = common_normal_index2(G, U, U)
        quarters = [Subgroup(G, s) for s in G.index_two_subgroups(base.members)]
        pairs = [(a, b) for i, a in enumerate(quarters) for b in quarters[i + 1:]]
        assert pairs
        assert hbar_certificate(G, base, pairs)

    def test_empty_pairs(self):
        G, U, _, _ = wreath_pair()
        base = common_normal_index2(G, U, U)
        assert hbar_certificate(G, base, [])

    def test_wrong_index_rejected(self):
        G, U, _, _ = wreath_pair()
        base = common_normal_index2(G, U, U)
        e = Subgroup(G, frozenset([G.identity]))
        with pytest.raises(ContractError):
            hbar_certificate(G, base, [(e, e)])

    def test_non_normal_rejected(self):
        G, U, V1, V2 = wreath_pair()
        with pytest.raises(ContractError):
            hbar_certificate(G, U, [(V1, V2)])


class TestMackey:
    def test_wreath_model(self):
        G, U, _, _ = wreath_pair()
        base = common_normal_index2(G, U, U)  # the elementary abelian base
        # U has index two in it; the rank-one parts have index four
        assert mackey_decomposition_holds(G, base, U)

    def test_catalog_samples(self):
        checked = 0
        for G in catalog_groups():
            if G.order() > 48:
                continue
            for n in G.normal_subgroups():
                for s in G.index_two_subgroups(n):
                    assert mackey_decomposition_holds(
                        G, Subgroup(G, n), Subgroup(G, s)
                    )
                    checked += 1
                    break  # one index-two pair per normal subgroup is plenty
                if checked >= 25:
                    break
            if checked >= 25:
                break
        assert checked >= 10


class TestCaps:
    def test_group_cap(self):
        # S11 has 11! elements; the enumeration stops at the cap's first excess
        big = PermGroup(11, [perm_from_cycles(11, [tuple(range(11))]),
                             perm_from_cycles(11, [(0, 1)])])
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"^group order exceeds the cap {DEFAULT_GROUP_CAP}$"):
            big.order()
        assert time.perf_counter() - start < 1.0

    def test_a_group_of_exactly_the_cap_lists_through_its_cosets(self):
        # S7 x C2 on 9 points: the last coset takes the union to the cap itself
        G = PermGroup(9, [perm_from_cycles(9, [tuple(range(7))]), perm_from_cycles(9, [(0, 1)]),
                          perm_from_cycles(9, [(7, 8)])])
        assert G.order() == DEFAULT_GROUP_CAP == 10080

    def test_a_coset_that_would_take_the_union_past_the_cap_is_refused(self):
        # S7 x C2 x C2 on 11 points: the last generator's one new coset would
        # take the union from the cap to twice the cap
        G = PermGroup(11, [perm_from_cycles(11, [tuple(range(7))]), perm_from_cycles(11, [(0, 1)]),
                           perm_from_cycles(11, [(7, 8)]), perm_from_cycles(11, [(9, 10)])])
        with pytest.raises(CapacityError, match=f"^group order exceeds the cap {DEFAULT_GROUP_CAP}$"):
            G.order()

    def test_one_element_of_order_exactly_the_cap_lists_its_powers(self):
        # cycles of lengths 32, 9, 5 and 7: order lcm = 10080, one generator
        bounds = [0, 32, 41, 46, 53]
        x = perm_from_cycles(53, [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])])
        (gens, members) = generate([x], tuple(range(53)))
        assert gens == (x,) and len(members) == DEFAULT_GROUP_CAP == 10080

    def test_one_element_of_order_past_the_cap_is_refused(self):
        # cycles of lengths 11, 13 and 71: order 10,153
        bounds = [0, 11, 24, 95]
        x = perm_from_cycles(95, [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])])
        with pytest.raises(CapacityError, match=f"^group order exceeds the cap {DEFAULT_GROUP_CAP}$"):
            generate([x], tuple(range(95)))

    @staticmethod
    def transpositions(n: int) -> str:
        """(Z/2)^n as a catalog line: n disjoint transpositions."""
        return f"Z2^{n} {2 * n} " + ";".join(f"({2 * i + 1} {2 * i + 2})" for i in range(n))

    def test_normal_subgroups_below_the_limit_are_listed(self):
        (G,) = parse_catalog(self.transpositions(5))
        assert len(G.normal_subgroups()) == 374 <= NORMAL_SUBGROUP_LIMIT

    def test_equiv_above_the_normal_subgroup_limit_fails_fast(self, tmp_path, capsys):
        f = tmp_path / "z2_6.cat"
        f.write_text(self.transpositions(6) + "\n")  # 2,825 subgroups, all normal
        start = time.perf_counter()
        assert main(["equiv", str(f)]) == 3
        assert time.perf_counter() - start < 1.0
        found = re.fullmatch(rf"Z2\^6: (\d+) normal subgroups exceed the limit "
                             rf"{NORMAL_SUBGROUP_LIMIT}\n", capsys.readouterr().out)
        # checked before each join pass, which adds at most one subgroup per
        # class subgroup: 63 here
        assert NORMAL_SUBGROUP_LIMIT < int(found[1]) <= NORMAL_SUBGROUP_LIMIT + 63


class TestEnumeratorsMatchTheLattice:
    @pytest.mark.parametrize("name", SMALL_CATALOG)
    def test_normal_subgroups(self, name):
        G = catalog_group(name)
        assert G.normal_subgroups() == lattice_normal_subgroups(G)

    @pytest.mark.parametrize("name", SMALL_CATALOG)
    def test_index_two_subgroups(self, name):
        G = catalog_group(name)
        lattice = G.subgroups()
        for n in G.normal_subgroups():
            if len(n) % 2 == 0:
                assert G.index_two_subgroups(n) == [
                    s for s in lattice if 2 * len(s) == len(n) and s <= n
                ]

    @pytest.mark.parametrize("name, size", [
        ("S3", 6), ("D8", 10), ("Q8", 6), ("A4", 10), ("C2^3", 16), ("D12", 16),
        ("SL(2,3)", 15), ("S4", 30), ("C2wrC3", 26), ("S3xS3", 60), ("S4xC2", 98),
    ])
    def test_lattice_sizes(self, name, size):
        assert len(catalog_group(name).subgroups()) == size

    def test_odd_order_has_no_index_two_subgroup(self):
        G = catalog_group("C3")
        assert G.index_two_subgroups(frozenset(G.elements())) == []

    def test_fano_group_without_its_lattice(self, monkeypatch):
        def no_lattice(self):
            raise AssertionError("the subgroup lattice was built")

        monkeypatch.setattr(PermGroup, "subgroups", no_lattice)
        G = catalog_group("PSL(3,2)")
        whole = frozenset(G.elements())
        assert G.normal_subgroups() == [frozenset([G.identity]), whole]
        # perfect: commutators already generate the whole group, so no
        # subgroup of index two exists
        commutators = {
            perm_mul(perm_mul(a, b), perm_inv(perm_mul(b, a)))
            for a in G.generators for b in G.elements()
        }
        assert PermGroup(G.degree, sorted(commutators)).order() == G.order()
        assert G.index_two_subgroups(whole) == []

    def test_production_paths_skip_the_lattice(self, monkeypatch):
        def no_lattice(self):
            raise AssertionError("the subgroup lattice was built")

        monkeypatch.setattr(PermGroup, "subgroups", no_lattice)
        for G in catalog_groups():
            ok, counterexample = verify_prop_almost_conjugate(G)
            assert ok and counterexample is None, G.name
        G, P, L = fano_point_line_stabilizers()
        assert common_normal_index2(G, P, L) is None
        G, U, V1, V2 = wreath_pair()
        assert common_normal_index2(G, V1, V2) is None
        assert common_normal_index2(G, U, U).order() == 8


class TestBudget:
    def test_equiv_over_the_catalog_with_the_fano_group(self, fixtures_dir, capsys):
        start = time.perf_counter()
        assert main(["equiv", str(fixtures_dir / "groups.cat")]) == 0
        assert time.perf_counter() - start < 2.0
        assert "PSL(3,2) (order 168): ok" in capsys.readouterr().out

    def test_fano_common_normal_index2(self):
        start = time.perf_counter()
        G, P, L = fano_point_line_stabilizers()
        assert common_normal_index2(G, P, L) is None
        assert time.perf_counter() - start < 2.0

    def test_verify_on_the_symmetric_group_of_degree_seven(self):
        # order 5,040, listed with its index layer and 57 kept columns: about
        # 0.03-0.06 s in-process and a tracemalloc peak of about 4.6 MiB
        # (0.13-0.23 s and 4.5 MiB on tuples; 2-vCPU Xeon VM, Python 3.11).
        # A product table of |G|^2 numbers alone takes about 200 MB
        line = "S7 7 (1 2);(1 2 3 4 5 6 7)"
        (G,) = parse_catalog(line)
        start = time.perf_counter()
        assert verify_prop_almost_conjugate(G) == (True, None)
        assert time.perf_counter() - start < 0.5
        (G,) = parse_catalog(line)
        tracemalloc.start()
        try:
            assert verify_prop_almost_conjugate(G) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_verify_on_a_cyclic_group_of_order_5040(self):
        # C16 x C9 x C5 x C7 on 37 points: every class is one element, and
        # columns kept for each would take about 200 MB; 86 are kept.  About
        # 0.29-0.51 s in-process and a tracemalloc peak of about 8.3 MiB
        # (2-vCPU Xeon VM, Python 3.11)
        line = "C5040 37 " + ";".join(
            "(" + " ".join(map(str, range(a, b + 1))) + ")"
            for a, b in [(1, 16), (17, 25), (26, 30), (31, 37)])
        (G,) = parse_catalog(line)
        start = time.perf_counter()
        assert verify_prop_almost_conjugate(G) == (True, None)
        assert time.perf_counter() - start < 3.0
        assert len(G.normal_subgroups()) == 60  # one for each divisor of 5,040
        (G,) = parse_catalog(line)
        tracemalloc.start()
        try:
            assert verify_prop_almost_conjugate(G) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


# the wreath product of S4 by C2 on 8 points, of order 1,152
S4_WR_C2 = "S4wrC2 8 (1 2);(1 2 3 4);(1 5)(2 6)(3 7)(4 8)"


def agrees_with_the_tuple_references(G):
    """Classes, normal subgroups, index-two subgroups, both signatures of
    each, conjugacy of every pair of them and the verification itself, on
    element numbers and by the same algorithms on tuples (``oracles``)."""
    classes = reference_classes(G)
    assert G.conjugacy_classes() == classes
    normal = reference_normal_subgroups(G)
    assert G.normal_subgroups() == normal
    for n in normal:
        halves = reference_index_two_subgroups(G, n)
        assert G.index_two_subgroups(n) == halves
        inside = [Subgroup(G, h) for h in halves]
        profiles = [reference_profile(classes, h) for h in halves]
        for U, profile in zip(inside, profiles):
            assert _signature(G, _numbered(G, U)[0]) == (
                profile, stabilizer_induced_character(G, classes, U.members))
        for i, U1 in enumerate(inside):
            for j in range(i + 1, len(inside)):
                # conjugate subgroups meet each class alike
                want = (profiles[i] == profiles[j]
                        and generator_are_conjugate(G, U1.members, halves[j]))
                assert are_conjugate(G, U1, inside[j]) == want
    ok, pair = verify_prop_almost_conjugate(G)
    assert (ok, pair and (pair[0].members, pair[1].members)) == reference_verify(G)
    assert ok


class TestIndexLayerAgainstTheTupleReferences:
    """The index layer must give what the same algorithms give on tuples."""

    @pytest.mark.parametrize("name", [G.name for G in catalog_groups()])
    def test_every_catalog_group(self, name):
        agrees_with_the_tuple_references(catalog_group(name))

    @pytest.mark.parametrize("line", [TestCaps.transpositions(5), S4_WR_C2])
    def test_groups_with_many_normal_or_index_two_subgroups(self, line):
        (G,) = parse_catalog(line)
        agrees_with_the_tuple_references(G)

    @pytest.mark.parametrize("room", [0, 2])
    @pytest.mark.parametrize("line", ["S4xC2", "S3xS3", "C2wrC3", S4_WR_C2])
    def test_with_room_for_few_kept_columns(self, line, room, monkeypatch):
        # past the room, right factors multiply by tuple products; with no
        # room, every right factor but the generators does
        def group():
            return parse_catalog(line)[0] if " " in line else catalog_group(line)
        monkeypatch.setattr(arith_equiv, "KEPT_COLUMN_ENTRIES", room * group().order())
        G = group()
        agrees_with_the_tuple_references(G)
        assert len(G.columns) <= len(set(G.generators)) + room

    def test_columns_kept_over_the_catalog(self):
        # one column for each right factor asked for while there is room:
        # every catalog group has room for its whole product table
        kept = {}
        for G in catalog_groups():
            verify_prop_almost_conjugate(G)
            kept[G.name] = len(G.columns)
        assert kept == {
            "C2": 1, "C3": 1, "C4": 2, "C6": 3, "C8": 3, "C12": 6, "V4": 3,
            "C2^3": 7, "S3": 3, "D8": 6, "Q8": 4, "A4": 6, "D12": 7, "C2wrC3": 11,
            "S4": 10, "SL(2,3)": 11, "S3xS3": 15, "S4xC2": 21, "PSL(3,2)": 15,
        }

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(DRAWN_GROUPS)
    def test_drawn_generators(self, drawn):
        degree, gens = drawn
        agrees_with_the_tuple_references(PermGroup(degree, gens))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(DRAWN_GROUPS)
    def test_products_on_drawn_generators(self, drawn):
        # with room for no column past the generators' and with room for
        # every column, verification multiplies by the same left factors x,
        # and each kept column and each tuple product past the room is y -> xy
        degree, gens = drawn
        runs = []
        left = PermGroup.left
        for room in (0, DEFAULT_GROUP_CAP ** 2):
            asked = set()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(arith_equiv, "KEPT_COLUMN_ENTRIES", room)
                mp.setattr(PermGroup, "left", lambda G, x, asked=asked: asked.add(x) or left(G, x))
                G = PermGroup(degree, gens)
                assert verify_prop_almost_conjugate(G) == (True, None)
            runs.append((G, asked))
        (none, asked), (full, asked_with_room) = runs
        assert asked == asked_with_room
        assert set(none.columns) == set(map(none.pos.__getitem__, gens))
        assert set(full.columns) == set(none.columns) | asked
        elements = full.elements()
        for x in full.columns:
            want = [full.pos[perm_mul(elements[x], y)] for y in elements]
            assert full.columns[x] == want
            assert list(map(none.left(x), range(len(elements)))) == want

    def test_one_spanning_tree_per_listed_group(self, monkeypatch):
        trees = []
        spanning_tree = arith_equiv._spanning_tree
        monkeypatch.setattr(arith_equiv, "_spanning_tree", lambda *a: trees.append(a) or spanning_tree(*a))
        groups = catalog_groups()
        for G in groups:
            verify_prop_almost_conjugate(G)
        G, P, L = fano_point_line_stabilizers()
        are_conjugate(G, P, L)
        G, U, V1, V2 = wreath_pair()
        are_conjugate(G, V1, V2)
        common_normal_index2(G, U, U)
        assert len(trees) == len(groups) + 2

    def test_verification_builds_no_subgroup(self, monkeypatch):
        built = []
        post_init = Subgroup.__post_init__
        monkeypatch.setattr(Subgroup, "__post_init__", lambda U: built.append(U) or post_init(U))
        for G in catalog_groups():
            assert verify_prop_almost_conjugate(G) == (True, None)
        assert built == []
        Subgroup(G, frozenset([G.identity]))
        assert len(built) == 1


def outcome(check, *args):
    """None when ``check(*args)`` returns, else its ContractError message."""
    try:
        check(*args)
    except ContractError as e:
        return str(e)
    return None


def faults(G, members):
    """Which of the three subgroup conditions ``members`` breaks."""
    return [name for name, broken in [
        ("identity", G.identity not in members),
        ("outside", any(x not in G for x in members)),
        ("closure", any(perm_mul(a, b) not in members for a in members for b in members)),
    ] if broken]


class TestSubgroupCheckAgainstTheReference:
    """``Subgroup`` checks a set through a generating tuple taken from it,
    and ``are_conjugate`` conjugates only that tuple; the all-pairs check
    and the all-members test of ``oracles`` must give the same answers."""

    @pytest.mark.parametrize("name", SMALL_CATALOG)
    def test_every_subgroup_of_the_lattice(self, name):
        G = catalog_group(name)
        for s in G.subgroups():
            reference_subgroup_check(G, s)
            U = Subgroup(G, s)
            assert all(x in s for x in U.generators)
            assert frozenset(reference_closure(U.generators, G.identity)) == s

    @pytest.mark.parametrize("name", ["S4", "C2wrC3"])
    def test_every_pair_of_equal_order(self, name):
        G = catalog_group(name)
        subs = [Subgroup(G, s) for s in G.subgroups()]
        pairs = [(a, b) for a in subs for b in subs if a.order() == b.order()]
        assert len(pairs) > len(subs)
        answers = [are_conjugate(G, a, b) for a, b in pairs]
        assert answers == [reference_are_conjugate(G, a, b) for a, b in pairs]
        assert len(subs) < sum(answers) < len(pairs)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_drawn_sets(self, data):
        G = data.draw(st.sampled_from(DRAWN_FROM))
        elems = G.elements()
        # a subgroup generated by up to two elements, then edited: members
        # dropped (the identity among them, perhaps), elements of G or of the
        # whole symmetric group added
        gens = data.draw(st.lists(st.sampled_from(elems), max_size=2))
        members = set(reference_closure(gens, G.identity))
        for x in data.draw(st.lists(st.sampled_from(sorted(members)), max_size=2)):
            members.discard(x)
        members |= set(data.draw(st.lists(st.sampled_from(elems), max_size=2)))
        members |= set(data.draw(st.lists(st.permutations(range(G.degree)).map(tuple), max_size=2)))
        members = frozenset(members)
        want = outcome(reference_subgroup_check, G, members)
        got = outcome(Subgroup, G, members)
        broken = faults(G, members)
        assert (got is None) == (want is None) == (not broken)
        if len(broken) == 1:
            assert got == want

    def test_a_tuple_that_is_no_permutation_is_outside_the_group(self):
        G = catalog_group("C2")
        for bad in [(0, 0), (0, 5), (0, 1, 2)]:
            with pytest.raises(ContractError, match="outside the ambient group"):
                Subgroup(G, frozenset([G.identity, bad]))


def listed(gens, e):
    """The group ``gens`` generate as ``generate`` lists it and as the
    breadth-first reference does, or the two CapacityError messages."""
    try:
        got = generate(gens, e)
    except CapacityError as err:
        got = str(err)
    try:
        want = frozenset(reference_closure(gens, e))
    except CapacityError as err:
        want = str(err)
    return got, want


class TestGenerateAgainstTheReference:
    """``generate`` walks cosets (Dimino's algorithm); the breadth-first
    ``reference_closure`` must list the same group and stop at the same cap."""

    @pytest.mark.parametrize("name", [G.name for G in catalog_groups()])
    def test_every_catalog_group(self, name):
        G = catalog_group(name)
        (gens, members), want = listed(G.generators, G.identity)
        assert members == want and G.elements() == sorted(want)
        assert set(gens) <= set(G.generators)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda d: st.lists(st.permutations(range(d)).map(tuple), max_size=3)
        .map(lambda gens: (d, gens))))
    def test_drawn_generators(self, drawn):
        degree, gens = drawn
        got, want = listed(gens, tuple(range(degree)))
        if isinstance(want, str):
            assert got == want
        else:
            chosen, members = got
            assert members == want
            assert set(chosen) <= set(gens)
            assert frozenset(reference_closure(chosen, tuple(range(degree)))) == want


class TestPermFromCycles:
    def test_cycles_that_define_no_permutation_are_refused(self):
        with pytest.raises(ContractError, match="^empty cycle$"):
            perm_from_cycles(3, [()])
        with pytest.raises(ContractError, match="^cycles do not define a permutation$"):
            perm_from_cycles(3, [(0, 1), (1, 2)])
        # the notation's cycles are disjoint, even where a product of the
        # cycles permutes: (0 1)(0 1) is the identity
        with pytest.raises(ContractError, match="^cycles do not define a permutation$"):
            perm_from_cycles(3, [(0, 1), (0, 1)])
        with pytest.raises(ContractError, match="^point 5 outside degree 3$"):
            perm_from_cycles(3, [(0, 5)])

    def test_a_group_refuses_a_generator_of_another_degree(self):
        with pytest.raises(ContractError, match=r"^not a permutation of degree 3: \(0, 1\)$"):
            PermGroup(3, [(0, 1)])
