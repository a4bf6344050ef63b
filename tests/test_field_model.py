import itertools
import random

import pytest

from genfix import set_partitions
from oracles import reference_arrangements
from rigidity import field_model
from rigidity._util import MEMO_SIZE, natural_key
from rigidity.arith_equiv import DEFAULT_GROUP_CAP
from rigidity.brauer import OmegaVector, weak_uniformity
from rigidity.errors import CapacityError, ValidationError
from rigidity.field_model import (
    FieldDescriptor,
    HbarFiber,
    PlaceLabel,
    PlacePerm,
    PlaceSymmetry,
    adelic_orbit,
    coords_key,
    global_orbit,
    orbit_set,
    sort_coords,
    validate,
)
from rigidity.invariants import Family, GroupType, LocalClass, PlaceKind, cyclic, h2_local, zero

FI = PlaceKind.FINITE_INNER
FO = PlaceKind.FINITE_OUTER
RI = PlaceKind.REAL_INNER

Z5 = cyclic(5)


def coords(*pairs):
    return sort_coords((lab, LocalClass(Z5, v)) for lab, v in pairs)


def gaussian_places():
    return (
        PlaceLabel("v3", FI, "c3"),
        PlaceLabel("v5a", FI, "c5"),
        PlaceLabel("v5b", FI, "c5"),
        PlaceLabel("v7", FI, "c7"),
    )


def gaussian_field():
    return FieldDescriptor(
        degree=2,
        complex_place_count=1,
        finite_places=gaussian_places(),
        galois_over_q=True,
        hbar_fiber=HbarFiber.TRIVIAL,
    )


def conj():
    return PlaceSymmetry((PlacePerm.from_cycles([("v5a", "v5b")]),))


class TestValidate:
    def test_rationals_ok(self):
        f = FieldDescriptor(degree=1, real_places=(PlaceLabel("w", RI),))
        validate(f, PlaceSymmetry())

    def test_generator_crossing_split_kinds_rejected(self):
        f = FieldDescriptor(
            degree=2,
            complex_place_count=1,
            finite_places=(PlaceLabel("a", FI, "c"), PlaceLabel("b", FO, "c2")),
        )
        s = PlaceSymmetry((PlacePerm.from_cycles([("a", "b")]),))
        with pytest.raises(ValidationError, match="maps a"):
            validate(f, s)

    def test_galois_forces_trivial_fiber(self):
        f = FieldDescriptor(
            degree=2, complex_place_count=1,
            galois_over_q=True, hbar_fiber=HbarFiber.NONTRIVIAL,
        )
        with pytest.raises(ValidationError, match="trivial"):
            validate(f, PlaceSymmetry())

    def test_class_mixing_kinds_rejected(self):
        f = FieldDescriptor(
            degree=2, complex_place_count=1,
            finite_places=(PlaceLabel("a", FI, "c"), PlaceLabel("b", FO, "c")),
        )
        with pytest.raises(ValidationError, match="mixes"):
            validate(f, PlaceSymmetry())

    def test_group_order_must_divide_degree(self):
        f = FieldDescriptor(
            degree=3,
            real_places=(PlaceLabel("w1", RI), PlaceLabel("w2", RI)),
            complex_place_count=0,
            locally_determined=True,
        )
        s = PlaceSymmetry((PlacePerm.from_cycles([("w1", "w2")]),))
        with pytest.raises(ValidationError, match="divide"):
            validate(f, s)

    def test_group_order_above_the_degree_exceeds_the_bound(self):
        f = FieldDescriptor(
            degree=2, complex_place_count=1,
            finite_places=tuple(PlaceLabel(p, FI, "c") for p in "abc"),
        )
        s = PlaceSymmetry((PlacePerm.from_cycles([("a", "b", "c")]),))
        with pytest.raises(ValidationError, match="^symmetry group order exceeds the degree bound$"):
            validate(f, s)

    def test_a_group_past_the_limit_is_a_capacity_error_only_where_the_degree_allows_it(self):
        places = tuple(PlaceLabel(p, FI, "c") for p in "abcdefgh")
        s8 = PlaceSymmetry((PlacePerm.from_cycles([tuple("abcdefgh")]),
                            PlacePerm.from_cycles([("a", "b")])))
        below = FieldDescriptor(degree=DEFAULT_GROUP_CAP - 1, finite_places=places)
        with pytest.raises(ValidationError, match="exceeds the degree bound"):
            validate(below, s8)
        at = FieldDescriptor(degree=DEFAULT_GROUP_CAP, finite_places=places)
        with pytest.raises(CapacityError, match=f"^group order exceeds the cap {DEFAULT_GROUP_CAP}$"):
            validate(at, s8)

    def test_degree_one_constraints(self):
        f = FieldDescriptor(degree=1, real_places=(), complex_place_count=0)
        with pytest.raises(ValidationError, match="exactly one real"):
            validate(f, PlaceSymmetry())
        shared = FieldDescriptor(
            degree=1,
            real_places=(PlaceLabel("w", RI),),
            finite_places=(PlaceLabel("a", FI, "c"), PlaceLabel("b", FI, "c")),
        )
        with pytest.raises(ValidationError, match="pairwise"):
            validate(shared, PlaceSymmetry())

    @pytest.mark.parametrize("field, cycles, issues", [
        (dict(degree=0), [], ["degree must be positive"]),
        (dict(degree=2, complex_place_count=-1), [], ["complex place count cannot be negative"]),
        (dict(degree=2, complex_place_count=1, finite_places=(PlaceLabel("a", FI), PlaceLabel("a", FI))),
         [], ["duplicate place ids"]),
        (dict(degree=2, complex_place_count=1, finite_places=(PlaceLabel("a", RI),)),
         [], ["place a: declared finite but kind is real_inner"]),
        (dict(degree=2, real_places=(PlaceLabel("w", FI),)),
         [], ["place w: declared real but kind is finite_inner"]),
        (dict(degree=2, real_places=(PlaceLabel("w", RI, "c"),)),
         [], ["place w: real places carry no adelic class"]),
        (dict(degree=2, complex_place_count=2),
         [], ["degree smaller than the declared infinite places allow"]),
        (dict(degree=2, complex_place_count=1, galois_over_q=True, hbar_fiber=HbarFiber.NONTRIVIAL),
         [], ["a Galois base field always has trivial square-class fibers"]),
        (dict(degree=2, complex_place_count=1, galois_over_q=True, locally_determined=False),
         [], ["a Galois base field is locally determined"]),
        (dict(degree=3, real_places=(PlaceLabel("w", RI),), complex_place_count=1, galois_over_q=True),
         [], ["a Galois field is totally real or totally imaginary"]),
        (dict(degree=1, real_places=(PlaceLabel("w", RI),), locally_determined=False),
         [], ["a degree 1 field is locally determined"]),
        (dict(degree=1, real_places=(PlaceLabel("w", RI),),
              finite_places=(PlaceLabel("a", FI, "c"), PlaceLabel("b", FI, "d"))),
         [("a", "b")],
         ["a degree 1 field has no nontrivial automorphisms", "generator 1: maps a outside its adelic class"]),
        (dict(degree=2, complex_place_count=1, finite_places=(PlaceLabel("a", FI),)),
         # each undeclared place is named once, and each cycle reports each fault once
         [("a", "z")], ["generator 1: moves undeclared place z"]),
        (dict(degree=2, complex_place_count=1,
              finite_places=(PlaceLabel("a", FI, "c"), PlaceLabel("b", FI, "d"))),
         [("a", "b")], ["generator 1: maps a outside its adelic class"]),
        (dict(degree=2, complex_place_count=1,
              finite_places=(PlaceLabel("a", FI, "c"), PlaceLabel("b", FI, "d"), PlaceLabel("e", FI, "d"))),
         [("a", "b", "e"), ("y", "z")], ["generator 1: maps a outside its adelic class",
                                         "generator 1: moves undeclared place y",
                                         "generator 1: moves undeclared place z"]),
        (dict(degree=2, finite_places=(PlaceLabel("a", FI),), real_places=(PlaceLabel("w", RI),)),
         [("a", "w")], ["generator 1: maps a (finite_inner) to w (real_inner)",
                        "generator 1: maps a outside its adelic class"]),
    ], ids=["degree", "complex-count", "duplicate-ids", "finite-kind", "real-kind", "real-class",
            "infinite-places", "galois-fiber", "galois-local", "galois-mixed", "degree-one-local",
            "degree-one-automorphism", "undeclared", "adelic-class", "one-fault-per-cycle", "kind"])
    def test_each_fault_has_its_message(self, field, cycles, issues):
        sym = PlaceSymmetry((PlacePerm.from_cycles(cycles),) if cycles else ())
        with pytest.raises(ValidationError) as err:
            validate(FieldDescriptor(**field), sym)
        assert err.value.issues == issues


class TestGlobalOrbit:
    def test_trivial_group_fixes_everything(self):
        labs = gaussian_places()
        x = coords((labs[0], 1), (labs[1], 2), (labs[2], 3), (labs[3], 4))
        assert global_orbit(x, PlaceSymmetry()) == (x,)

    def test_gaussian_swap(self):
        labs = gaussian_places()
        x = coords((labs[0], 1), (labs[1], 2), (labs[2], 3), (labs[3], 4))
        orbit = global_orbit(x, conj())
        assert len(orbit) == 2
        swapped = coords((labs[0], 1), (labs[1], 3), (labs[2], 2), (labs[3], 4))
        assert set(orbit) == {x, swapped}

    def test_zero_vector_is_fixed(self):
        labs = gaussian_places()
        x = coords((labs[0], 0), (labs[1], 0), (labs[2], 0), (labs[3], 0))
        assert global_orbit(x, conj()) == (x,)

    def test_orbit_size_divides_group_order(self):
        labs = gaussian_places()
        rng = random.Random(5)
        group = conj().group()
        for _ in range(25):
            x = coords(*[(lab, rng.randrange(5)) for lab in labs])
            orbit = global_orbit(x, conj())
            assert len(group) % len(orbit) == 0


class TestAdelicOrbit:
    def test_three_places_one_class(self):
        z2 = cyclic(2)
        labs = [PlaceLabel(f"v31{c}", FI, "c31") for c in "abc"]
        x = sort_coords([
            (labs[0], LocalClass(z2, 1)),
            (labs[1], LocalClass(z2, 1)),
            (labs[2], LocalClass(z2, 0)),
        ])
        orbit = adelic_orbit(x)
        assert len(orbit) == 3

    def test_singleton_classes_fix_vector(self):
        labs = gaussian_places()
        x = coords((labs[0], 1), (labs[1], 2), (labs[2], 2), (labs[3], 4))
        singles = sort_coords(
            (PlaceLabel(lab.id, lab.kind, None), cls) for lab, cls in x
        )
        assert adelic_orbit(singles) == (singles,)

    def test_gaussian_class_pair(self):
        labs = gaussian_places()
        x = coords((labs[0], 1), (labs[1], 2), (labs[2], 3), (labs[3], 4))
        orbit = adelic_orbit(x)
        swapped = coords((labs[0], 1), (labs[1], 3), (labs[2], 2), (labs[3], 4))
        assert set(orbit) == {x, swapped}

    def test_declaration_order_irrelevant(self):
        labs = gaussian_places()
        x = coords((labs[0], 1), (labs[1], 2), (labs[2], 3), (labs[3], 4))
        y = sort_coords(reversed(list(x)))
        assert adelic_orbit(x) == adelic_orbit(y)

    listed = staticmethod(reference_arrangements)  # the permutation listing

    def test_distinct_orderings_match_the_permutation_listing(self):
        rng = random.Random(13)
        for _ in range(40):
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 2))]
            pairs = [(PlaceLabel(f"v{k}{chr(97 + i)}", FI, f"c{k}"), LocalClass(Z5, rng.randrange(3)))
                     for k, size in enumerate(sizes) for i in range(size)]
            pairs += [(PlaceLabel("v9", FI), LocalClass(Z5, 4)), (PlaceLabel("w", RI), LocalClass(Z5, 1))]
            x = sort_coords(pairs)
            assert adelic_orbit(x) == tuple(sorted(self.listed(x), key=coords_key))

    def test_every_small_vector_matches_the_permutation_listing(self):
        """Bounded-exhaustive: 1-5 finite places in every partition into
        adelic classes, every value in Z/3 at each, and one real place."""
        z3 = cyclic(3)
        real = (PlaceLabel("w", RI), LocalClass(z3, 1))
        checked = 0
        for n in range(1, 6):
            for part in set_partitions(n):
                labels = [PlaceLabel(f"v{i}", FI, f"c{b}") for i, b in enumerate(part)]
                for values in itertools.product(range(3), repeat=n):
                    x = sort_coords([real] + [(lab, LocalClass(z3, v)) for lab, v in zip(labels, values)])
                    assert adelic_orbit(x) == tuple(sorted(self.listed(x), key=coords_key))
                    checked += 1
        assert checked == 14007  # the sum of Bell(n) * 3^n over n = 1..5

    def test_global_orbit_inside_adelic_orbit(self):
        labs = gaussian_places()
        rng = random.Random(9)
        for _ in range(30):
            x = coords(*[(lab, rng.randrange(5)) for lab in labs])
            assert set(global_orbit(x, conj())) <= set(adelic_orbit(x))


class TestStabilizer:
    """``global_orbit`` and ``orbit_set`` with ``fixing`` act by the
    elements that fix one place."""

    def test_trivial_group(self):
        w = PlaceLabel("w", RI)
        x = ((w, LocalClass(Z5, 1)),)
        assert global_orbit(x, PlaceSymmetry(), fixing="w") == (x,)
        assert orbit_set([x], PlaceSymmetry(), "w") == {(LocalClass(Z5, 1),)}

    def test_swap_has_trivial_stabilizer(self):
        w1, w2 = PlaceLabel("w1", RI), PlaceLabel("w2", RI)
        s = PlaceSymmetry((PlacePerm.from_cycles([("w1", "w2")]),))
        x = sort_coords([(w1, LocalClass(Z5, 1)), (w2, LocalClass(Z5, 2))])
        assert len(global_orbit(x, s)) == 2
        assert global_orbit(x, s, fixing="w1") == (x,)
        assert orbit_set([x], s, "w1") == {(LocalClass(Z5, 1), LocalClass(Z5, 2))}

    def test_group_fixing_reals_survives(self):
        a, b = PlaceLabel("a", FI, "c"), PlaceLabel("b", FI, "c")
        s = PlaceSymmetry((PlacePerm.from_cycles([("a", "b")]),))
        x = sort_coords([(a, LocalClass(Z5, 1)), (b, LocalClass(Z5, 2))])
        assert len(orbit_set([x], s, "w1")) == 2
        assert global_orbit(x, s, fixing="w1") == global_orbit(x, s)

    def test_undeclared_place_rejected(self):
        f = FieldDescriptor(degree=1, real_places=(PlaceLabel("w", RI),))
        t = GroupType(Family.A, 1)
        om = OmegaVector(t, (), ((PlaceLabel("w", RI), zero(h2_local(t, RI))),))
        with pytest.raises(ValidationError, match="nope is not a declared real place"):
            weak_uniformity(om, f, PlaceSymmetry(), stabilize_real="nope")


class TestGroupCache:
    @staticmethod
    def klein():
        return PlaceSymmetry((PlacePerm.from_cycles([("a", "b"), ("c", "d")]),
                              PlacePerm.from_cycles([("a", "c"), ("b", "d")])))

    def test_group_is_enumerated_once_and_is_not_part_of_the_value(self, monkeypatch):
        calls = []
        generate = field_model.generate
        monkeypatch.setattr(field_model, "generate", lambda *a: calls.append(1) or generate(*a))
        s = self.klein()
        first = s.group()
        assert len(first) == 4 and len(calls) == 1
        assert s.group() is first
        assert len(calls) == 1
        fresh = self.klein()
        assert fresh == s and hash(fresh) == hash(s) and repr(fresh) == repr(s)

    def test_generator_order_is_fixed_at_construction(self):
        a, b = self.klein().generators
        assert PlaceSymmetry((b, a)).generators == (a, b)

    def test_a_known_group_still_checks_the_degree_bound(self):
        # validate's degree bound holds against a group enumerated earlier
        f = FieldDescriptor(degree=4, complex_place_count=2,
                            finite_places=tuple(PlaceLabel(p, FI, "c") for p in "abcde"))
        big = PlaceSymmetry((PlacePerm.from_cycles([tuple("abcde")]),
                             PlacePerm.from_cycles([("a", "b")])))
        assert len(big.group()) == 120
        with pytest.raises(ValidationError, match="exceeds the degree bound"):
            validate(f, big)


class TestPlacePerm:
    def test_a_three_cycle_generates_a_group_of_order_three(self):
        p = PlacePerm.from_cycles([("a", "b", "c")])
        group = PlaceSymmetry((p,)).group()
        assert len(group) == 3 and group[0] == (0, 1, 2)
        assert str(p) == "(a b c)"

    @pytest.mark.parametrize("moved", [
        (("a", "b"), ("a", "c"), ("c", "a")),  # a point with two images
        (("a", "b"),),  # b has no image
        (("a", "b"), ("b", "b")),  # b is the image of two points
    ])
    def test_a_map_that_is_not_a_permutation_is_rejected(self, moved):
        with pytest.raises(ValidationError, match="^not a permutation"):
            PlacePerm(moved)

    def test_a_place_repeated_in_the_cycles_is_rejected(self):
        with pytest.raises(ValidationError, match="^place b occurs twice in cycle notation$"):
            PlacePerm.from_cycles([("a", "b"), ("b", "c")])

    def test_the_identity_prints_as_an_empty_cycle(self):
        assert str(PlacePerm()) == "()"
        assert str(PlacePerm.from_cycles([])) == "()"

    def test_fixed_points_are_dropped_from_the_moved_points(self):
        assert PlacePerm((("c", "c"), ("b", "a"), ("a", "b"))).moved == (("a", "b"), ("b", "a"))

    def test_apply_perm_moves_values(self):
        labs = gaussian_places()
        x = coords((labs[0], 1), (labs[1], 2), (labs[2], 3), (labs[3], 4))
        s = PlaceSymmetry((PlacePerm.from_cycles([("v5a", "v5b")]),))
        values = tuple(cls for _, cls in x)
        orbit = orbit_set([x], s)  # one apply_perm step per vector and generator
        assert values in orbit
        (moved,) = orbit - {values}
        lookup = {lab.id: cls.value for (lab, _), cls in zip(x, moved)}
        assert lookup["v5a"] == 3 and lookup["v5b"] == 2

    def test_apply_is_the_identity_off_the_moved_points(self):
        p = PlacePerm.from_cycles([("v5a", "v5b"), ("v7", "v3", "v11")])
        assert [p.apply(x) for x in ("v5a", "v5b", "v3", "v11", "v7", "v2")] == \
            ["v5b", "v5a", "v11", "v7", "v3", "v2"]
        assert p.moved == tuple(sorted((a, p.apply(a)) for a in ("v3", "v5a", "v5b", "v7", "v11")))

    def test_apply_perm_rejects_targets_outside_the_support(self):
        labs = gaussian_places()
        x = coords((labs[0], 1), (labs[1], 2))
        s = PlaceSymmetry((PlacePerm.from_cycles([("v5a", "v5b")]),))
        with pytest.raises(ValidationError, match="moves v5a outside the declared support"):
            orbit_set([x], s)
        with pytest.raises(ValidationError, match="moves v5a outside the declared support"):
            global_orbit(x, s)


class TestClassKey:
    def test_an_unlabelled_place_sits_in_its_own_class(self):
        assert PlaceLabel("v7", FI).class_key() == "#v7"
        assert PlaceLabel("v7", FI, "c").class_key() == "c"

    def test_the_key_is_formatted_once_per_pooled_label(self):
        lab = PlaceLabel("v7", FI)
        assert lab.class_key() is PlaceLabel("v7", FI).class_key()


class TestNaturalKeyCache:
    def test_cache_stays_bounded_over_many_place_ids(self):
        before = natural_key.cache_info().misses
        # ids no other test makes, so none is cached before this test runs
        ids = [f"keymemo{i}" for i in range(MEMO_SIZE + 200)]
        f = FieldDescriptor(
            degree=1, real_places=(PlaceLabel("w", RI),),
            finite_places=tuple(PlaceLabel(p, FI) for p in reversed(ids)),
        )
        assert [p.id for p in f.finite_places] == ids  # keymemo2 < keymemo11 still
        info = natural_key.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize <= MEMO_SIZE
        # the bound was reached and entries were evicted
        assert info.misses - before > MEMO_SIZE
