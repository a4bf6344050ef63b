import copy
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import genfix
from genfix import rand_symmetric_omega, set_partitions
from oracles import (
    global_sym_act,
    outer_fast_path,
    per_vector_compare_possible,
    reference_class_test,
    reference_compare_possible,
    reference_flip_facts,
    reference_possible_vectors,
    run_python,
)
from recount import recount_compare_possible
from rigidity import brauer
from rigidity.brauer import (
    OmegaVector,
    _full_flip_coherent,
    compare_possible,
    inner_twin_bound,
    inner_twin_places,
    is_coherent,
    pick_witness,
    possible_vectors,
    s_omega_orbit,
    sigma_flip,
    tate_sum,
    weak_uniformity,
)
from rigidity.classifier import _classes_up_to_sigma, normalize
from rigidity.descriptor import parse
from rigidity.errors import ContractError
from rigidity.field_model import (
    FieldDescriptor,
    HbarFiber,
    PlaceLabel,
    PlacePerm,
    PlaceSymmetry,
    adelic_orbit,
    coords_key,
    global_orbit,
    sort_coords,
)
from rigidity.invariants import (
    KLEIN,
    Family,
    FormKind,
    GroupType,
    LocalClass,
    PlaceKind,
    c_local,
    center_shape,
    cyclic,
    h2_local,
    shape_elements,
    sym_act,
    zero,
)
from rigidity.selftest import FIXTURES

FI = PlaceKind.FINITE_INNER
FO = PlaceKind.FINITE_OUTER
RI = PlaceKind.REAL_INNER
RO = PlaceKind.REAL_OUTER

A2 = GroupType(Family.A, 2)
A3 = GroupType(Family.A, 3)
A4 = GroupType(Family.A, 4)


def omega_d1():
    z3 = cyclic(3)
    fin = [
        (PlaceLabel("v2", FI), LocalClass(z3, 1)),
        (PlaceLabel("v3", FI), LocalClass(z3, 2)),
        (PlaceLabel("v5", FI), LocalClass(z3, 1)),
        (PlaceLabel("v7", FI), LocalClass(z3, 2)),
    ]
    real = [(PlaceLabel("w", RI), zero(cyclic(1)))]
    return OmegaVector(A2, tuple(fin), tuple(real))


def omega_table3():
    z5 = cyclic(5)
    fin = [
        (PlaceLabel("v3", FI, "c3"), LocalClass(z5, 1)),
        (PlaceLabel("v5a", FI, "c5"), LocalClass(z5, 2)),
        (PlaceLabel("v5b", FI, "c5"), LocalClass(z5, 3)),
        (PlaceLabel("v7", FI, "c7"), LocalClass(z5, 4)),
    ]
    return OmegaVector(A4, tuple(fin))


def gaussian_field(omega):
    return FieldDescriptor(
        degree=2,
        complex_place_count=1,
        finite_places=tuple(lab for lab, _ in omega.finite),
        galois_over_q=True,
        hbar_fiber=HbarFiber.TRIVIAL,
    )


def values(coords):
    return tuple(cls.value for _, cls in coords)


class TestOmegaVector:
    @pytest.mark.parametrize("finite, real, message", [
        (((PlaceLabel("w", RI), zero(cyclic(1))),), (), "^place w is not finite$"),
        ((), ((PlaceLabel("v2", FI), zero(cyclic(3))),), "^place v2 is not real$"),
        (((PlaceLabel("v2", FI), zero(cyclic(4))),), (),
         "^place v2: class shape Z/4 but 1A2 carries Z/3 at a finite_inner place$"),
    ], ids=["real-label-among-finite", "finite-label-among-real", "wrong-shape"])
    def test_refuses_a_place_or_class_of_the_wrong_kind(self, finite, real, message):
        with pytest.raises(ContractError, match=message):
            OmegaVector(A2, finite, real)


class TestTateSum:
    def test_division_algebra_row_is_coherent(self):
        assert tate_sum(omega_d1()).is_zero

    def test_all_zero(self):
        om = OmegaVector(A2, (
            (PlaceLabel("v2", FI), zero(cyclic(3))),
        ))
        assert is_coherent(om)

    def test_single_quaternion_coordinate_with_real_twist_incoherent(self):
        om = OmegaVector(
            A3,
            ((PlaceLabel("v2", FI), LocalClass(cyclic(4), 1)),),
            ((PlaceLabel("w", RI), LocalClass(cyclic(2), 1)),),
        )
        assert tate_sum(om) == LocalClass(cyclic(4), 3)
        assert not is_coherent(om)


class TestInnerTwinPlaces:
    def test_division_algebra_all_four(self):
        assert [l.id for l in inner_twin_places(omega_d1())] == ["v2", "v3", "v5", "v7"]

    def test_half_value_excluded_for_odd_rank(self):
        om = OmegaVector(A3, (
            (PlaceLabel("v2", FI), LocalClass(cyclic(4), 2)),
            (PlaceLabel("v3", FI), LocalClass(cyclic(4), 2)),
        ))
        assert inner_twin_places(om) == ()

    def test_zero_vector(self):
        om = OmegaVector(A2, ((PlaceLabel("v2", FI), zero(cyclic(3))),))
        assert inner_twin_places(om) == ()

    def test_matches_membership_characterization(self):
        rng = random.Random(31)
        for _ in range(150):
            om = rand_symmetric_omega(rng)
            t = om.group_type
            twins = {l.id for l in inner_twin_places(om)}
            for lab, cls in om.finite:
                if lab.kind != FI:
                    assert lab.id not in twins
                    continue
                f, r = t.family, t.rank
                if f == Family.A and r % 2 == 0 or f == Family.E6:
                    expect = not cls.is_zero
                elif f == Family.A:
                    expect = cls.value not in (0, (r + 1) // 2)
                elif f == Family.D and r % 2 == 0:
                    expect = cls.value in ((1, 0), (0, 1))
                else:
                    expect = cls.value in (1, 3)
                assert (lab.id in twins) == expect


class TestSOmegaOrbit:
    def test_division_algebra_orbit(self):
        orb = s_omega_orbit(omega_d1())
        assert len(orb.elements) == 6
        assert (1, 2, 2, 1) in {values(e) for e in orb.elements}

    def test_gaussian_orbit_is_the_four_rows(self):
        orb = s_omega_orbit(omega_table3())
        assert {values(e) for e in orb.elements} == {
            (1, 2, 3, 4), (4, 2, 3, 1), (1, 3, 2, 4), (4, 3, 2, 1)
        }

    def test_zero_vector_orbit_is_singleton(self):
        om = OmegaVector(A2, ((PlaceLabel("v2", FI), zero(cyclic(3))),))
        orb = s_omega_orbit(om)
        assert orb.elements == (om.finite,)

    def test_counting_matches_the_listing_without_a_cap(self):
        z3 = cyclic(3)
        fin = [(PlaceLabel(f"v{i}", FI), LocalClass(z3, 1 + i % 2)) for i in range(9)]
        # rebalance the last coordinate to keep the vector coherent
        total = sum(cls.value for _, cls in fin[:-1]) % 3
        fin[-1] = (fin[-1][0], LocalClass(z3, -total))
        om = OmegaVector(A2, tuple(fin))
        assert is_coherent(om)
        listed = s_omega_orbit(om).elements
        assert len(listed) > 3
        assert compare_possible(om, as_values([om.finite]), as_values([sigma_flip(om)]))[0] == len(listed)

    def test_elements_keep_the_dual_sum(self):
        rng = random.Random(37)
        for _ in range(80):
            om = rand_symmetric_omega(rng)
            base = tate_sum(om)
            for e in s_omega_orbit(om).elements:
                flipped = OmegaVector(om.group_type, e, om.real)
                assert tate_sum(flipped) == base

    def test_brute_force_oracle_small(self):
        rng = random.Random(41)
        for _ in range(120):
            om = rand_symmetric_omega(rng)
            assert set(s_omega_orbit(om).elements) == brute_force_flips(om)

    def test_partial_sum_lower_bounds(self):
        # enough twin places always force a third orbit element
        rng = random.Random(47)
        thresholds = {
            (Family.A, 0): lambda r: r + 1,     # even rank
            (Family.A, 1): lambda r: (r + 1) // 2,
            (Family.D, 0): lambda r: 2,
            (Family.D, 1): lambda r: 2,
            (Family.E6, 0): lambda r: 3,
        }
        seen = 0
        while seen < 120:
            om = rand_symmetric_omega(rng)
            t = om.group_type
            if t.is_outer:
                continue
            key = (t.family, t.rank % 2 if t.family != Family.E6 else 0)
            r = len(inner_twin_places(om))
            if r <= thresholds[key](t.rank):
                continue
            seen += 1
            assert len(s_omega_orbit(om).elements) > 2, t.symbol()


def brute_force_flips(om):
    t = om.group_type
    twins = inner_twin_places(om)
    value = dict(om.finite)
    out = set()
    for r in range(len(twins) + 1):
        for combo in itertools.combinations(twins, r):
            total = zero(center_shape(t))
            for lab in combo:
                total = total + c_local(t, lab.kind, value[lab])
            if global_sym_act(t, total) != total:
                continue
            ids = {lab.id for lab in combo}
            out.add(sort_coords(
                (lab, sym_act(t, lab.kind, cls) if lab.id in ids else cls)
                for lab, cls in om.finite
            ))
    return out


class TestWeakUniformity:
    def test_gaussian_instance_holds(self):
        om = omega_table3()
        f = gaussian_field(om)
        s = PlaceSymmetry((PlacePerm.from_cycles([("v5a", "v5b")]),))
        report = weak_uniformity(om, f, s)
        assert report.holds and len(report.lhs) == 4

    def test_division_algebra_fails_with_partner_witness(self):
        om = omega_d1()
        f = FieldDescriptor(
            degree=1,
            real_places=tuple(lab for lab, _ in om.real),
            finite_places=tuple(lab for lab, _ in om.finite),
            galois_over_q=True,
        )
        report = weak_uniformity(om, f, PlaceSymmetry())
        assert not report.holds
        assert values(report.witness) == (1, 2, 2, 1)

    def test_split_group_holds(self):
        om = OmegaVector(A4, (
            (PlaceLabel("v2", FI), zero(cyclic(5))),
            (PlaceLabel("v3", FI), zero(cyclic(5))),
        ))
        f = gaussian_field(om)
        report = weak_uniformity(om, f, PlaceSymmetry())
        assert report.holds and report.possible == 1

    def test_invariant_under_relabeling(self):
        om = omega_table3()
        f = gaussian_field(om)
        s = PlaceSymmetry((PlacePerm.from_cycles([("v5a", "v5b")]),))
        renames = {"v3": "p1", "v5a": "p2", "v5b": "p3", "v7": "p4"}
        fin = tuple(
            (PlaceLabel(renames[lab.id], lab.kind, lab.adelic_class), cls)
            for lab, cls in om.finite
        )
        om2 = OmegaVector(A4, fin)
        f2 = FieldDescriptor(
            degree=2, complex_place_count=1,
            finite_places=tuple(lab for lab, _ in om2.finite),
            galois_over_q=True,
        )
        s2 = PlaceSymmetry((PlacePerm.from_cycles([("p2", "p3")]),))
        r1 = weak_uniformity(om, f, s)
        r2 = weak_uniformity(om2, f2, s2)
        assert r1.holds == r2.holds
        assert len(r1.lhs) == len(r2.lhs) and r1.possible == r2.possible


def as_values(vectors):
    """Coordinate vectors as the value tuples ``compare_possible`` reads."""
    return {tuple(cls for _, cls in v) for v in vectors}


def as_coords(omega, lhs):
    """``orbit_set`` value tuples as coordinate vectors at the finite places."""
    labels = [lab for lab, _ in omega.finite]
    return {tuple(zip(labels, v)) for v in lhs}


def enumerated_comparison(omega, realized, flips):
    """The possible count and witness from the reference listing."""
    if flips:
        possible = set(possible_vectors(omega))
    else:
        possible = set(adelic_orbit(omega.finite))
    realized = set(realized)
    if possible == realized:
        return len(possible), None
    extra = possible - realized
    return len(possible), pick_witness(extra or realized - possible, omega.finite)


class TestCountingMatchesEnumeration:
    """The counted comparison against the listed one: same verdict, same
    possible count, same witness, with flips (weak uniformity, plain and
    stabilized) and without (the orbit match)."""

    GENERATORS = [
        (genfix.rand_classed, 150),
        (genfix.rand_interleaved, 60),
        (genfix.rand_paired, 60),
        (genfix.rand_q, 60),
        (genfix.rand_quasisplit_galois, 30),
        (genfix.rand_outer_two_twins, 40),
        (genfix.rand_bound_violator, 40),
        (genfix.rand_two_real_quadratic, 60),
        (genfix.rand_three_reals, 30),
    ]

    @staticmethod
    def listing_cost(g):
        """Vectors the reference listing walks: 2^twins flips times k! per class."""
        sizes = {}
        for lab in g.field.finite_places:
            sizes[lab.class_key()] = sizes.get(lab.class_key(), 0) + 1
        return 2 ** len(inner_twin_places(g.omega)) * math.prod(map(math.factorial, sizes.values()))

    @pytest.mark.parametrize("make,count", GENERATORS, ids=[m.__name__ for m, _ in GENERATORS])
    def test_counted_equals_listed(self, make, count):
        rng = random.Random(make.__name__)
        seen = 0
        outcomes = set()
        while seen < count:
            g = make(rng)
            if self.listing_cost(g) > 20000:
                continue
            seen += 1
            om, f = g.omega, g.field
            for stab in [None] + [p.id for p in f.real_places[:1]]:
                one_sided = set(global_orbit(om.finite, g.symmetry, fixing=stab))
                report = weak_uniformity(om, f, g.symmetry, stabilize_real=stab)
                want = enumerated_comparison(om, as_coords(om, report.lhs), True)
                assert (report.possible, report.witness) == want
                assert report.holds == (want[1] is None)
                outcomes.add(report.holds)
                assert compare_possible(om, as_values(one_sided)) == \
                    enumerated_comparison(om, one_sided, False)
        if make in (genfix.rand_classed, genfix.rand_paired):
            assert outcomes == {True, False}

    def test_reaches_twelve_twins_and_a_class_of_seven(self):
        rng = random.Random("extremes")
        twelve = OmegaVector(A2, tuple(
            (PlaceLabel(f"v{i + 1}", FI), LocalClass(cyclic(3), v))
            for i, v in enumerate([1, 2] * 6)
        ))
        seven = genfix.rand_classed(rng, max_places=7, max_class=7)
        while len(seven.field.finite_places) < 7 or len({p.class_key() for p in seven.field.finite_places}) > 1:
            seven = genfix.rand_classed(rng, max_places=7, max_class=7)
        f12 = FieldDescriptor(degree=1, finite_places=tuple(lab for lab, _ in twelve.finite))
        assert len(inner_twin_places(twelve)) == 12
        for om, f, s in ((twelve, f12, PlaceSymmetry()),
                         (seven.omega, seven.field, seven.symmetry)):
            report = weak_uniformity(om, f, s)
            assert (report.possible, report.witness) == enumerated_comparison(om, as_coords(om, report.lhs), True)
            one_sided = set(global_orbit(om.finite, s))
            assert compare_possible(om, as_values(one_sided)) == \
                enumerated_comparison(om, one_sided, False)


class TestPossibleVectorsMatchThePermutationListing:
    """``possible_vectors``, one ``orbit_set`` walk from every coherent flip
    at once, against ``reference_possible_vectors``, which lists every
    permutation of each class of each flip and walks no orbit.  The inputs
    are every fixture and those of ``TestCountingMatchesEnumeration``: its
    draws whose reference listing walks at most 20,000 vectors, so whose
    possible side has at most that many."""

    def test_on_the_fixtures_and_the_counted_inputs(self):
        inputs = [parse(text).omega for text in FIXTURES.values()]
        for make, count in TestCountingMatchesEnumeration.GENERATORS:
            rng = random.Random(make.__name__)
            drawn = 0
            while drawn < count:
                g = make(rng)
                if TestCountingMatchesEnumeration.listing_cost(g) <= 20000:
                    inputs.append(g.omega)
                    drawn += 1
        assert len(inputs) == 14 + 530
        for omega in inputs:
            want = tuple(sorted(reference_possible_vectors(omega), key=coords_key))
            assert possible_vectors(omega) == want

    def test_sorts_once(self, monkeypatch):
        # 13 twin places of type 1D6 over Q: 4,096 coherent flips, each a
        # singleton adelic class, so the possible side is the flips, and
        # coords_key runs once for each as the listing is sorted
        text = ("[group]\ntype = 1D\nrank = 6\n[field]\ndegree = 1\n[places]\n"
                + "".join(f"v{i} = omega=(1,0)\n" for i in range(13))
                + "[real]\nw = form=SpinStar(12)\n")
        keyed = []
        monkeypatch.setattr(brauer, "coords_key", lambda c: keyed.append(c) or coords_key(c))
        assert len(possible_vectors(parse(text).omega)) == len(keyed) == 4096


def class_multisets(coords):
    """The sorted values of each adelic class."""
    out = {}
    for lab, cls in coords:
        out.setdefault(lab.class_key(), []).append(cls.sort_key())
    return {k: sorted(v) for k, v in out.items()}


def engine_sides(g, stab):
    """The realized sides the engine builds, as value tuples: O, the
    automorphism orbit of the finite values (fixing ``stab``), and σ(O),
    walked from σω as a second orbit."""
    one_sided = as_values(global_orbit(g.omega.finite, g.symmetry, fixing=stab))
    return one_sided, as_values(global_orbit(sigma_flip(g.omega), g.symmetry, fixing=stab))


class TestResidueVectorsMatchTheRecount:
    """The per-class residue vectors against the recount they replaced: the
    same possible count and the same witness, with flips on and off, on
    realized sides that match, fall short of or exceed the possible side.
    ``compare_possible`` takes the sides the engine builds (one-sided with
    flips off, two-sided with flips on); the other two go through the
    per-vector path."""

    GENERATORS = [
        (genfix.rand_classed, 150),
        (genfix.rand_interleaved, 250),
        (genfix.rand_paired, 150),
        (genfix.rand_q, 60),
        (genfix.rand_quasisplit_galois, 30),
        (genfix.rand_outer_two_twins, 40),
        (genfix.rand_bound_violator, 40),
        (genfix.rand_two_real_quadratic, 60),
        (genfix.rand_three_reals, 30),
    ]

    @pytest.mark.parametrize("make,count", GENERATORS, ids=[m.__name__ for m, _ in GENERATORS])
    def test_same_count_and_witness(self, make, count):
        rng = random.Random(f"recount/{make.__name__}")
        witnesses = 0
        for _ in range(count):
            g = make(rng)
            om = g.omega
            for stab in [None] + [p.id for p in g.field.real_places[:1]]:
                one_sided, flipped = engine_sides(g, stab)
                sides = {(False, False): compare_possible(om, one_sided),
                         (True, True): compare_possible(om, one_sided, flipped),
                         (False, True): per_vector_compare_possible(om, one_sided, True),
                         (True, False): per_vector_compare_possible(om, one_sided | flipped, False)}
                for (two, flips), got in sides.items():
                    realized = as_coords(om, one_sided | flipped if two else one_sided)
                    assert got == recount_compare_possible(om, realized, flips)
                    witnesses += got[1] is not None
        if make in (genfix.rand_classed, genfix.rand_interleaved, genfix.rand_paired):
            assert witnesses

    def test_interleaved_classes_are_revisited(self):
        """Every rand_interleaved input has a class that comes back after
        another class has started, and witnesses are rebuilt across them."""
        rng = random.Random("interleaved")
        rebuilt = 0
        for _ in range(100):
            g = genfix.rand_interleaved(rng)
            keys = [lab.class_key() for lab, _ in g.omega.finite]
            runs = [k for i, k in enumerate(keys) if i == 0 or keys[i - 1] != k]
            assert len(runs) > len(set(keys))
            realized = set(global_orbit(g.omega.finite, g.symmetry))
            possible, witness = compare_possible(g.omega, as_values(realized))
            if possible > len(realized):
                rebuilt += 1
                assert witness not in realized
                assert class_multisets(witness) == class_multisets(g.omega.finite)
        assert rebuilt >= 20

    def test_paired_classes_hold_many_pairs(self):
        """rand_paired classes reach five distinct flip pairs, and some hold
        a value next to its image."""
        rng = random.Random("paired")
        most = both = 0
        for _ in range(100):
            g = genfix.rand_paired(rng)
            t = g.group_type
            by_class = {}
            for lab, cls in g.omega.finite:
                by_class.setdefault(lab.class_key(), set()).add(cls)
            for vals in by_class.values():
                moved = {v for v in vals if sym_act(t, FI, v) != v}
                most = max(most, len({frozenset((v, sym_act(t, FI, v))) for v in moved}))
                both += any(sym_act(t, FI, v) in vals for v in moved)
        assert most == 5 and both


class TestOrbitDecisionMatchesThePerVectorPath:
    """Membership decided per orbit (by the coherence of the full flip)
    against the class test of every realized vector
    (``oracles.per_vector_compare_possible``): the same count and the same
    witness on the sides the engine builds, with flips on and off and with
    and without a stabilized real place, and ``weak_uniformity``'s pointwise
    σ(O) equal to the walked one.  On every input the full-flip rule agrees
    with ``oracles.reference_class_test`` of σω.  Some inputs of
    ``rand_bound_violator`` and ``rand_three_reals`` have a σω that fails
    it, and none of the other generators' do."""

    SIGMA_FAILS = (genfix.rand_bound_violator, genfix.rand_three_reals)

    @pytest.mark.parametrize("make,count", TestResidueVectorsMatchTheRecount.GENERATORS,
                             ids=[m.__name__ for m, _ in TestResidueVectorsMatchTheRecount.GENERATORS])
    def test_same_count_and_witness(self, make, count):
        rng = random.Random(f"orbit-decision/{make.__name__}")
        sigma_fails = 0
        for _ in range(count):
            g = make(rng)
            om = g.omega
            sigma_possible = _full_flip_coherent(om)
            assert sigma_possible == reference_class_test(om, tuple(cls for _, cls in sigma_flip(om)))
            sigma_fails += not sigma_possible
            for stab in [None] + [p.id for p in g.field.real_places[:1]]:
                one_sided, flipped = engine_sides(g, stab)
                assert compare_possible(om, one_sided) == per_vector_compare_possible(om, one_sided, False)
                want = per_vector_compare_possible(om, one_sided | flipped, True)
                assert compare_possible(om, one_sided, flipped) == want
                report = weak_uniformity(om, g.field, g.symmetry, stabilize_real=stab)
                assert report.lhs == one_sided | flipped
                assert (report.possible, report.witness) == want
        assert bool(sigma_fails) == (make in self.SIGMA_FAILS)

    def test_a_failing_sigma_omega_holds_the_witness(self):
        """Inner D6 with one twin place, a real class σ moves and classes of
        two places that the automorphisms swap: the only coherent flip is
        the empty one, the automorphisms realize every arrangement of ω,
        and the witness is the pick_witness choice among σ(O)."""
        rng = random.Random("orbit-decision/one-twin")
        d6 = GroupType(Family.D, 6)
        for _ in range(40):
            k = rng.randint(1, 4)
            values = [rng.choice([(0, 0), (1, 1)]) for _ in range(2 * k - 1)]
            twin = (1, 0) if values.count((1, 1)) % 2 == 0 else (0, 1)
            values.insert(rng.randrange(2 * k), twin)
            labels = [PlaceLabel(f"v{j}{side}", FI, f"c{j}") for j in range(1, k + 1) for side in "ab"]
            om = OmegaVector(d6, tuple(zip(labels, map(partial(LocalClass, KLEIN), values))),
                             ((PlaceLabel("w", RI), LocalClass(KLEIN, (1, 0))),))
            assert is_coherent(om)
            s = PlaceSymmetry(tuple(PlacePerm.from_cycles([(f"v{j}a", f"v{j}b")]) for j in range(1, k + 1)))
            f = FieldDescriptor(degree=2 ** k, real_places=(om.real[0][0],), finite_places=tuple(labels))
            report = weak_uniformity(om, f, s)
            flipped = as_values(global_orbit(sigma_flip(om), s))
            assert report.possible == len(report.lhs - flipped)
            assert report.witness == pick_witness(as_coords(om, flipped), om.finite)
            assert (report.possible, report.witness) == per_vector_compare_possible(om, report.lhs, True)


def every_omega(t, finite, real):
    """Every vector of type t with up to ``finite`` finite places, in every
    class partition and kind, and up to ``real`` real places of every kind,
    with every value."""
    finite_kinds, real_kinds = ([FI, FO], [RI, RO]) if t.is_outer else ([FI], [RI])

    def values(labels):
        return itertools.product(*(shape_elements(h2_local(t, lab.kind)) for lab in labels))
    reals = []
    for r in range(real + 1):
        for kinds in itertools.product(real_kinds, repeat=r):
            labels = [PlaceLabel(f"w{j}", kind) for j, kind in enumerate(kinds)]
            reals += [tuple(zip(labels, vals)) for vals in values(labels)]
    for n in range(finite + 1):
        for part in set_partitions(n):
            for kinds in itertools.product(finite_kinds, repeat=len(set(part))):
                labels = [PlaceLabel(f"v{i}", kinds[b], f"c{b}") for i, b in enumerate(part)]
                for vals in values(labels):
                    for rs in reals:
                        yield OmegaVector(t, tuple(zip(labels, vals)), rs)


class TestFullFlipRuleExhaustive:
    """The full-flip rule against the class test of σω on every coherent
    vector of a bounded scope: 1A2-1A5, 2A2-2A5, 1D5, 2D5, 1D6, 2D6, 1E6
    and 2E6, with 0-3 finite places in every class partition and kind and
    0-2 real places of every kind, every value.  σω fails on inner D6 alone
    here, where a real class can leave an odd number of twin places."""

    def test_every_coherent_vector(self):
        scope = [(Family.A, range(2, 6)), (Family.D, (5, 6)), (Family.E6, (6,))]
        types = [GroupType(fam, r, kind) for fam, ranks in scope for r in ranks for kind in FormKind]
        fails = Counter()
        inputs = 0
        for t in types:
            for om in filter(is_coherent, every_omega(t, 3, 2)):
                rule = _full_flip_coherent(om)
                assert rule == reference_class_test(om, tuple(cls for _, cls in sigma_flip(om))), om
                inputs += 1
                fails[t.symbol()] += not rule
        assert inputs == 59717
        assert +fails == {"1D6": 890}


def engine_flip_facts(omega):
    """The facts the engine reads of omega: σω and the twin places kept with
    it, the coherence of the full flip, and the values of each class up to
    σ as ``check_witness`` counts them."""
    sigma, twins = brauer._flip_facts(omega)
    assert inner_twin_places(omega) == twins
    return sigma, twins, _full_flip_coherent(omega), _classes_up_to_sigma(omega)


def fact_inputs(per_generator):
    """The fixtures, then ``per_generator`` seeded draws of each generator of
    ``TestCountingMatchesEnumeration``."""
    inputs = [parse(text) for text in FIXTURES.values()]
    for make, _ in TestCountingMatchesEnumeration.GENERATORS:
        rng = random.Random(f"facts/{make.__name__}")
        inputs += [make(rng) for _ in range(per_generator)]
    return inputs


class TestKeptFactsAreNeverStale:
    """σω and the twin places are made once and kept with the vector, and
    the values up to σ come from a memo table: however a vector is built
    (parsed, by ``replace``, copied, folded by ``normalize``, unpickled),
    the engine reads the facts of its own coordinates."""

    def test_kept_facts_equal_a_recomputation(self):
        folded = 0
        for g in fact_inputs(30):
            omega = g.omega
            want = reference_flip_facts(omega)
            assert engine_flip_facts(omega) == want
            assert engine_flip_facts(omega) == want  # now read back
            # omega keeps its facts before each vector is rebuilt from it
            flipped = replace(omega, finite=want[0])
            assert engine_flip_facts(flipped) == reference_flip_facts(flipped)
            assert engine_flip_facts(replace(omega)) == want
            assert engine_flip_facts(copy.copy(omega)) == want
            c2 = normalize(g).omega
            assert engine_flip_facts(c2) == reference_flip_facts(c2)
            folded += c2.group_type != omega.group_type
        assert folded > 0  # some inputs are of type B2

    def test_kept_facts_survive_a_pickle_under_another_hash_seed(self):
        prelude = ("import pickle, sys\n"
                   f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
                   "from test_brauer import engine_flip_facts, fact_inputs\n")
        dump = prelude + (
            "omegas = [g.omega for g in fact_inputs(10)]\n"
            "for omega in omegas:\n"
            "    engine_flip_facts(omega)\n"
            "sys.stdout.buffer.write(pickle.dumps(omegas))\n"
        )
        check = prelude + (
            "from oracles import reference_flip_facts\n"
            "omegas = pickle.loads(sys.stdin.buffer.read())\n"
            "print(all(omega._flips is not None for omega in omegas), len(omegas),\n"
            "      all(engine_flip_facts(omega) == reference_flip_facts(omega) for omega in omegas))\n"
        )
        blob = run_python(["-c", dump], "1")
        assert blob.returncode == 0, blob.stderr.decode()
        done = run_python(["-c", check], "2", blob.stdout)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.split() == [b"True", b"104", b"True"]


def outcome(compare, omega, realized, flips):
    """The count and witness, or the type of the exception raised."""
    try:
        return compare(omega, realized, flips)
    except Exception as e:
        return type(e)


def assert_same_as_reference(omega, realized, flips):
    got = outcome(per_vector_compare_possible, omega, as_values(realized), flips)
    assert got == outcome(reference_compare_possible, omega, as_values(realized), flips)
    return got


def interleaved_twins(rng):
    """Two classes holding one value multiset in different orders, their
    places alternating so both are open at once, and a singleton class."""
    t = rng.choice([A2, A3, A4])
    n = center_shape(t).modulus
    multiset = [LocalClass(cyclic(n), rng.randrange(n)) for _ in range(rng.randint(2, 4))]
    orders = [rng.sample(multiset, len(multiset)) for _ in "ab"]
    finite = [(PlaceLabel(f"v{2 * i + k + 1}", FI, c), order[i])
              for i in range(len(multiset)) for k, (c, order) in enumerate(zip("ab", orders))]
    finite.append((PlaceLabel(f"v{2 * len(multiset) + 1}", FI), LocalClass(cyclic(n), rng.randrange(1, n))))
    return OmegaVector(t, tuple(finite))


class TestShapeCountingMatchesTheReference:
    """The per-shape count against the per-class count it replaced
    (``oracles.reference_compare_possible``): the same possible count, the
    same witness and the same exception type, with flips on and off, on any
    realized side, through the per-vector path."""

    @pytest.mark.parametrize("make,count", TestResidueVectorsMatchTheRecount.GENERATORS,
                             ids=[m.__name__ for m, _ in TestResidueVectorsMatchTheRecount.GENERATORS])
    def test_generated_inputs(self, make, count):
        rng = random.Random(f"shapes/{make.__name__}")
        witnesses = 0
        for _ in range(count):
            g = make(rng)
            om = g.omega
            for stab in [None] + [p.id for p in g.field.real_places[:1]]:
                one_sided = set(global_orbit(om.finite, g.symmetry, fixing=stab))
                two_sided = one_sided | set(global_orbit(sigma_flip(om), g.symmetry, fixing=stab))
                for realized in (one_sided, two_sided):
                    for flips in (True, False):
                        got = assert_same_as_reference(om, realized, flips)
                        witnesses += got[1] is not None
        if make in (genfix.rand_classed, genfix.rand_interleaved, genfix.rand_paired):
            assert witnesses

    def test_singleton_twin_classes_over_q(self):
        """8 to 14 places over Q, each its own class, drawn from two values:
        two shapes at most, each shared by many classes."""
        rng = random.Random("shapes/singletons")
        witnesses = 0
        for _ in range(40):
            t = rng.choice([A2, A3, A4])
            n = center_shape(t).modulus
            two = rng.sample(range(1, n), 2)
            om = OmegaVector(t, tuple(
                (PlaceLabel(f"v{i + 1}", FI), LocalClass(cyclic(n), rng.choice(two)))
                for i in range(rng.randint(8, 14))
            ))
            for realized in ({om.finite}, {om.finite, sigma_flip(om)}):
                for flips in (True, False):
                    witnesses += assert_same_as_reference(om, realized, flips)[1] is not None
        assert witnesses >= 80

    def test_interleaved_classes_of_one_shape(self):
        """Two classes of one shape open at once, with different values
        fixed in each, on realized sides that miss arrangements."""
        rng = random.Random("shapes/interleaved")
        rebuilt = 0
        for _ in range(60):
            om = interleaved_twins(rng)
            arranged = adelic_orbit(om.finite)
            for realized in ({om.finite}, {om.finite, sigma_flip(om)},
                             set(rng.sample(arranged, (len(arranged) + 1) // 2))):
                for flips in (True, False):
                    got = assert_same_as_reference(om, realized, flips)
                    rebuilt += got[1] is not None and got[1] not in realized
        assert rebuilt >= 60


class TestOuterFastPath:
    def test_inner_type_opts_out(self):
        om = omega_table3()
        assert outer_fast_path(om, PlaceSymmetry()) is None

    def test_two_twins_force_failure(self):
        t = GroupType(Family.A, 5, FormKind.OUTER)
        z6 = cyclic(6)
        fin = (
            (PlaceLabel("v2", FI, "a"), LocalClass(z6, 1)),
            (PlaceLabel("v3", FI, "b"), LocalClass(z6, 5)),
        )
        om = OmegaVector(t, fin)
        assert outer_fast_path(om, PlaceSymmetry()) is False

    def test_no_twins_with_singleton_classes(self):
        t = GroupType(Family.E6, 6, FormKind.OUTER)
        fin = ((PlaceLabel("v2", PlaceKind.FINITE_OUTER), zero(cyclic(1))),)
        om = OmegaVector(t, fin)
        assert outer_fast_path(om, PlaceSymmetry()) is True

    def test_agrees_with_weak_uniformity(self):
        rng = random.Random(43)
        checked = 0
        while checked < 120:
            om = rand_symmetric_omega(rng)
            if not om.group_type.is_outer:
                continue
            if len(inner_twin_places(om)) > 6:
                continue
            checked += 1
            f = FieldDescriptor(
                degree=2, complex_place_count=1,
                finite_places=tuple(l for l, _ in om.finite),
                galois_over_q=True,
            )
            fast = outer_fast_path(om, PlaceSymmetry())
            slow = weak_uniformity(om, f, PlaceSymmetry()).holds
            assert fast == slow


class TestInnerTwinBound:
    def test_even_orthogonal_over_rationals(self):
        t = GroupType(Family.D, 6)
        fin = [(PlaceLabel(f"v{i}", FI), LocalClass(KLEIN, (1, 0))) for i in range(4)]
        real = ((PlaceLabel("w", RI), LocalClass(KLEIN, (0, 0))),)
        om = OmegaVector(t, tuple(fin), real)
        f = FieldDescriptor(degree=1, real_places=(real[0][0],),
                            finite_places=tuple(l for l, _ in fin))
        assert inner_twin_bound(om, f) is True

    def test_three_twins_rank_two(self):
        om = omega_d1()
        f = FieldDescriptor(
            degree=1,
            real_places=tuple(lab for lab, _ in om.real),
            finite_places=tuple(lab for lab, _ in om.finite),
        )
        three = OmegaVector(A2, om.finite[:3], om.real)
        f3 = FieldDescriptor(degree=1, real_places=f.real_places,
                             finite_places=tuple(l for l, _ in three.finite))
        assert inner_twin_bound(three, f3) is False

    def test_no_twins(self):
        om = OmegaVector(A2, ((PlaceLabel("v2", FI), zero(cyclic(3))),))
        f = FieldDescriptor(degree=2, complex_place_count=1,
                            finite_places=(om.finite[0][0],))
        assert inner_twin_bound(om, f) is False

    def test_sigma_flip_is_the_all_places_action(self):
        om = omega_d1()
        assert values(sigma_flip(om)) == (2, 1, 2, 1)
