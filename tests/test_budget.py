"""Budget battery: adversarial inputs either finish within a stated budget
or raise a ``CapacityError`` that names the constant that stopped them.

The times are generous bounds for a shared 2-vCPU VM; each case measures
one call in-process.
"""

import random
import re
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import genfix
from oracles import (
    reference_global_orbit,
    reference_group,
    reference_two_sided_orbit,
)
from rigidity import brauer, field_model
from rigidity.arith_equiv import PermGroup, Subgroup
from rigidity.brauer import (
    FLIP_WALK_TWIN_LIMIT, OmegaVector, possible_vectors, sigma_flip, weak_uniformity,
)
from rigidity.classifier import GroupDescriptor, Outcome, _two_sided_orbit, check_witness, classify
from rigidity.cli import emit_descriptor, main, parse, parse_catalog
from rigidity.errors import CapacityError, ContractError, ValidationError
from rigidity.field_model import (
    FieldDescriptor, PlaceLabel, PlacePerm, PlaceSymmetry, global_orbit, orbit_set,
)
from rigidity.invariants import Family, GroupType, LocalClass, PlaceKind, cyclic
from rigidity.perm import DEFAULT_GROUP_CAP, perm_from_cycles

REPO = Path(__file__).resolve().parent.parent


def commuting_swaps(k: int) -> str:
    """Type 1A2 over a totally imaginary Galois field of degree 2^k: k adelic
    classes {a_i, b_i} valued 1/3 and 2/3, and the k generators (a_i b_i),
    which generate a group of order 2^k."""
    lines = ["[group]", "type = 1A", "rank = 2", "", "[field]", f"degree = {2 ** k}",
             f"complex_places = {2 ** (k - 1)}", "galois = true",
             "locally_determined = true", "", "[aut]"]
    lines += [f"g{i} = (a{i} b{i})" for i in range(k)]
    lines += ["", "[places]"]
    for i in range(k):
        lines += [f"a{i} = class=c{i} omega=1/3", f"b{i} = class=c{i} omega=2/3"]
    return "\n".join(lines) + "\n"


def real_swap_with_pairs(pairs: int, degree: int) -> str:
    """Type 1A1 with real places w1 (SL_R(2)) and w2 (SL_H(1)) swapped by
    one generator, and ``pairs`` more generators (a_i b_i) on classes
    valued 1/2 and 0: a group of order 2^(pairs + 1)."""
    lines = ["[group]", "type = 1A", "rank = 1", "", "[field]", f"degree = {degree}",
             f"complex_places = {(degree - 2) // 2}", "locally_determined = true", "",
             "[aut]", "g = (w1 w2)"]
    lines += [f"g{i} = (a{i} b{i})" for i in range(pairs)]
    lines += ["", "[places]"]
    for i in range(pairs):
        lines += [f"a{i} = class=c{i} omega=1/2", f"b{i} = class=c{i} omega=0"]
    lines += ["", "[real]", "w1 = form=SL_R(2)", "w2 = form=SL_H(1)"]
    return "\n".join(lines) + "\n"


def singletons_over_q(n: int) -> str:
    """Type 1A2 over the rationals with n places valued 0, each its own class."""
    places = "\n".join(f"v{i} = omega=0" for i in range(n))
    return (f"[group]\ntype = 1A\nrank = 2\n[field]\ndegree = 1\n[places]\n{places}\n"
            "[real]\nw = form=SL_R(3)\n")


def one_class_1a2(n: int) -> str:
    """Type 1A2 over an imaginary quadratic field with one adelic class of n
    places, all valued 0; it classifies Rigid."""
    places = "\n".join(f"v{i} = class=c omega=0" for i in range(n))
    return (f"[group]\ntype = 1A\nrank = 2\n[field]\ndegree = 2\ncomplex_places = 1\n"
            f"[places]\n{places}\n")


def twins_1a999999_over_q(n: int) -> str:
    """Type 1A999999 over the rationals with n twin places valued 1 and one
    balancing place: the flips of none or all of them cohere, so the possible
    side has two vectors."""
    values = [1] * n + [-n % 10**6]
    places = "\n".join(f"v{i + 1} = omega={v}/1000000" for i, v in enumerate(values))
    return ("[group]\ntype = 1A\nrank = 999999\n[field]\ndegree = 1\n"
            f"[places]\n{places}\n[real]\nw = form=SL_R(1000000)\n")


def real_places_1a2(n: int) -> str:
    """Type 1A2 over a totally real field of degree n, SL_R(3) at each of its n real places."""
    reals = "\n".join(f"w{i} = form=SL_R(3)" for i in range(n))
    return (f"[group]\ntype = 1A\nrank = 2\n[field]\ndegree = {n}\n"
            f"locally_determined = true\n[real]\n{reals}\n")


def twins_1d6_over_q(n: int) -> str:
    """Type 1D6 over the rationals with n places valued (1,0), each a twin
    place, and the star form at the real place; coherent for odd n."""
    places = "\n".join(f"v{i} = omega=(1,0)" for i in range(n))
    return ("[group]\ntype = 1D\nrank = 6\n[field]\ndegree = 1\n"
            f"[places]\n{places}\n[real]\nw = form=SpinStar(12)\n")


def two_classes_1a4() -> str:
    """Type 1A4 over an imaginary field of degree 16: class c0 of five places
    valued 1/5 and 2/5, class c1 of four, and v9 valued 2/5.  Every place
    is a twin, and the possible side has 12,240 vectors."""
    values = [("c0", v) for v in (1, 2, 1, 2, 1)] + [("c1", v) for v in (2, 1, 2, 1)]
    places = "\n".join(f"v{i} = class={c} omega={v}/5" for i, (c, v) in enumerate(values))
    return ("[group]\ntype = 1A\nrank = 4\n[field]\ndegree = 16\ncomplex_places = 8\n"
            f"locally_determined = true\n[places]\n{places}\nv9 = omega=2/5\n")


def copies_of_one_swap(k: int) -> str:
    """Type 1A2 over an imaginary quadratic field with one adelic class of k
    places valued 0, and k declared copies of the generator (v1 v2)."""
    gens = "\n".join(f"g{i} = (v1 v2)" for i in range(k))
    places = "\n".join(f"v{i} = class=c omega=0" for i in range(k))
    return (f"[group]\ntype = 1A\nrank = 2\n[field]\ndegree = 2\ncomplex_places = 1\n"
            f"[aut]\n{gens}\n[places]\n{places}\n")


def test_the_readme_lists_every_limit():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    # the list that follows "kinds of work are limited", up to its first blank line
    items = readme.split("kinds of work are limited", 1)[1].split("\n\n")[1]
    listed = set(re.findall(r"`(\w+\.[A-Z0-9_]+)`", items))
    constants = {
        f"{path.stem}.{name}"
        for path in (REPO / "src" / "rigidity").glob("*.py")
        for name in re.findall(r"^([A-Z0-9_]+_(?:LIMIT|CAP)) = ",
                               path.read_text(encoding="utf-8"), re.M)
    }
    assert len(constants) >= 8 and constants <= listed


class TestAutomorphismGroupLimit:
    @pytest.mark.parametrize("k", [14, 16, 20])
    def test_commuting_swaps_past_the_limit_fail_fast(self, k):
        g = parse(commuting_swaps(k))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"exceeds the cap {DEFAULT_GROUP_CAP}$"):
            classify(g)
        assert time.perf_counter() - start < 1.0

    def test_the_stabilizer_of_a_real_place_is_not_enumerated_again(self):
        g = parse(real_swap_with_pairs(9, 1024))
        assert len(g.symmetry.group()) == 1024
        start = time.perf_counter()
        assert classify(g).outcome == Outcome.RIGID
        assert time.perf_counter() - start < 1.0


class TestOrbitWalk:
    def test_the_walk_steps_once_per_orbit_vector_and_generator(self, monkeypatch):
        # with every place valued 0 the orbit is one vector, though the group
        # has 8,192 elements; one step per generator from that vector finds it
        g = parse(commuting_swaps(13).replace("=1/3", "=0").replace("=2/3", "=0"))
        steps = []
        step = field_model.apply_perm
        monkeypatch.setattr(field_model, "apply_perm", lambda *a: steps.append(1) or step(*a))
        assert classify(g).outcome == Outcome.RIGID
        assert 0 < len(steps) <= 2 * 13


def counted_flips(monkeypatch) -> list:
    """The vectors ``brauer`` builds σω of, as they come."""
    flips = []
    flip = brauer.sigma_flip
    monkeypatch.setattr(brauer, "sigma_flip", lambda omega: flips.append(omega) or flip(omega))
    return flips


class TestNoVectorTestedForMembership:
    """Weak uniformity decides which realized vectors are possible by the
    coherence of the full flip, however many vectors the automorphisms
    realize, and builds σω once."""

    def test_commuting_swaps_flip_once_for_8192_vectors(self, monkeypatch):
        g = parse(commuting_swaps(13))
        flips = counted_flips(monkeypatch)
        v = classify(g)
        assert v.outcome == Outcome.NOT_RIGID
        assert v.reasons[-1][1] == "weak uniformity fails: 8192 realized < 22369622 possible"
        assert flips == [g.omega]
        assert brauer._full_flip_coherent(g.omega)

    def test_a_sigma_omega_that_fails_decides_the_witness(self, monkeypatch):
        # one twin place over Q and a real class that σ moves: flipping the
        # twin alone is incoherent, so σω is realized but not possible
        g = parse("[group]\ntype = 1D\nrank = 6\n[field]\ndegree = 1\n"
                  "[places]\nv1 = omega=(1,0)\n[real]\nw = form=SpinStar(12)\n")
        flips = counted_flips(monkeypatch)
        report = weak_uniformity(g.omega, g.field, g.symmetry)
        assert flips == [g.omega]
        assert not brauer._full_flip_coherent(g.omega)
        sigma = sigma_flip(g.omega)
        assert report.lhs == {(g.omega.finite[0][1],), (sigma[0][1],)}
        assert (report.holds, report.possible, report.witness) == (False, 1, sigma)
        # classify never meets this branch: its witness fails the machine check
        with pytest.raises(ValidationError, match="incoherent"):
            check_witness(g, replace(g, omega=OmegaVector(g.group_type, sigma, g.omega.real)))


class TestDuplicateGenerators:
    def test_eight_thousand_copies_of_one_swap_are_kept_once(self):
        # a copy adds no element to the group, so it may add no work: each
        # copy kept would cost a position map over every place and a step of
        # every orbit walk, quadratic in the copies here
        g = parse(copies_of_one_swap(8000))
        start = time.perf_counter()
        assert classify(g).outcome == Outcome.RIGID
        assert time.perf_counter() - start < 1.0
        text = emit_descriptor(g)
        aut = text.split("[aut]\n", 1)[1].split("\n\n", 1)[0]
        assert aut.splitlines() == ["g1 = (v1 v2)"]
        assert parse(text) == g


class TestLinearInThePlaces:
    """Classify and emit walk the places in their one order: no place is
    looked up by id, which made both quadratic in the number of places."""

    def test_twenty_thousand_real_places(self):
        g = parse(real_places_1a2(20000))
        start = time.perf_counter()
        assert classify(g).outcome == Outcome.RIGID
        emit_descriptor(g)
        assert time.perf_counter() - start < 3.0

    def test_twenty_thousand_and_one_twin_places(self):
        g = parse(twins_1d6_over_q(20001))
        start = time.perf_counter()
        v = classify(g)
        assert v.outcome == Outcome.NOT_RIGID
        emit_descriptor(g)
        emit_descriptor(v.witness)
        assert time.perf_counter() - start < 3.0


class TestFactorialTable:
    @staticmethod
    def peak(text: str) -> int:
        g = parse(text)
        tracemalloc.start()
        try:
            assert classify(g).outcome == Outcome.RIGID
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_doubling_the_places_less_than_triples_the_peak(self):
        # a table of all n factorials grew the peak 3.3-fold from 2,500 to 5,000
        assert self.peak(singletons_over_q(5000)) < 3 * self.peak(singletons_over_q(2500))

    def test_doubling_one_class_less_than_triples_the_peak(self):
        # a table of the factorials up to the largest class grew the peak from
        # 11 MB to 48 MB when one class went from 4,000 to 8,000 places
        assert self.peak(one_class_1a2(8000)) < 3 * self.peak(one_class_1a2(4000))


class TestOrbitCommand:
    """``rigidity orbit`` lists what classify only counts, so its walks
    need budgets of their own."""

    def test_twins_above_the_flip_walk_limit_fail_fast(self, tmp_path, capsys):
        # the possible side has two vectors, far below the listing limit, but
        # the walk visits every subset of the 25 twin places
        path = tmp_path / "twins.grp"
        path.write_text(twins_1a999999_over_q(24))
        start = time.perf_counter()
        assert main(["orbit", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"{path}: 25 twin places exceed the flip walk's limit {FLIP_WALK_TWIN_LIMIT}\n"
        )

    def test_a_class_of_five_thousand_places_lists_without_recursion(self, tmp_path, capsys):
        # about 0.15 s in-process (2-vCPU Xeon VM, Python 3.11); listing the
        # orderings of a class recursively, one level per place, raised
        # RecursionError at 1,500 places
        path = tmp_path / "one_class.grp"
        path.write_text(one_class_1a2(5000))
        start = time.perf_counter()
        assert main(["orbit", str(path)]) == 0
        assert time.perf_counter() - start < 2.0
        assert "possible (flips x adelic) (1):" in capsys.readouterr().out

    def test_the_possible_side_of_two_classes_lists_in_one_walk(self):
        # 0.12-0.26 s in-process (2-vCPU Xeon VM, Python 3.11): one orbit_set
        # walk from the 204 coherent flips of the 10 twin places under the two
        # classes' permutations; listing each flip's arrangements on its own
        # and uniting them took 0.8-1.2 s
        omega = parse(two_classes_1a4()).omega
        start = time.perf_counter()
        assert len(possible_vectors(omega)) == 12240
        assert time.perf_counter() - start < 0.5


class TestCatalogGroups:
    def test_equiv_on_an_elementary_abelian_group_of_order_32(self, tmp_path, capsys):
        # every one of its 374 subgroups is normal, and each has 2^d - 1
        # index-two subgroups for a quotient by the squares of rank d; about
        # 0.16 s in-process on element numbers (0.4-0.46 s on tuples; 2-vCPU
        # Xeon VM, Python 3.11)
        f = tmp_path / "z2_5.cat"
        f.write_text("Z2^5 10 (1 2);(3 4);(5 6);(7 8);(9 10)\n")
        start = time.perf_counter()
        assert main(["equiv", str(f)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "Z2^5 (order 32): ok\n"

    def test_equiv_frees_each_group_once_its_line_is_out(self, tmp_path, capsys):
        # three copies of S6 peak as one does, at about 0.6-0.65 MiB under
        # tracemalloc; holding every group with its caches to the end took
        # 1.4 MiB for three.  The first run also allocates what the command's
        # first call keeps, so it is not compared
        def peak(copies: int) -> int:
            f = tmp_path / f"s6_{copies}.cat"
            f.write_text("".join(f"S6_{i} 6 (1 2);(1 2 3 4 5 6)\n" for i in range(copies)))
            tracemalloc.start()
            try:
                assert main(["equiv", str(f)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)
        assert peak(3) < 1.3 * peak(1)
        assert capsys.readouterr().out.count("(order 720): ok\n") == 5

    def test_equiv_on_wreath_products(self, tmp_path, capsys):
        # C2 wr S4, the hyperoctahedral group of order 384, and C2 wr C2 wr C2,
        # a Sylow 2-subgroup of S8 with 28 normal subgroups
        f = tmp_path / "wreath.cat"
        f.write_text("C2wrS4 8 (1 2);(1 3)(2 4);(1 3 5 7)(2 4 6 8)\n"
                     "C2wrC2wrC2 8 (1 2);(1 3)(2 4);(1 5)(2 6)(3 7)(4 8)\n")
        start = time.perf_counter()
        assert main(["equiv", str(f)]) == 0
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().out == "C2wrS4 (order 384): ok\nC2wrC2wrC2 (order 128): ok\n"

    def test_a_bad_set_in_a_big_group_stops_early(self):
        # a transposition and a 7-cycle generate all 5040 elements; the check
        # stops at the first product outside the set instead of listing them
        (G,) = parse_catalog("S7 7 (1 2);(1 2 3 4 5 6 7)")
        members = frozenset([G.identity, perm_from_cycles(7, [(0, 1)]),
                             perm_from_cycles(7, [tuple(range(7))])])
        start = time.perf_counter()
        with pytest.raises(ContractError, match="not closed"):
            Subgroup(G, members)
        assert time.perf_counter() - start < 0.1

    def test_one_generator_of_order_above_the_cap_stops_at_the_cap(self):
        # disjoint cycles of lengths 5, 8, 9, 11 and 13: order 51,480 at degree 46;
        # the powers of the one generator stop at the cap's first excess
        bounds = [0, 5, 13, 22, 33, 46]
        cycles = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        G = PermGroup(46, [perm_from_cycles(46, cycles)])
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"^group order exceeds the cap {DEFAULT_GROUP_CAP}$"):
            G.order()
        assert time.perf_counter() - start < 0.5


GENERATORS = [
    genfix.rand_q,
    genfix.rand_quasisplit_galois,
    genfix.rand_outer_two_twins,
    genfix.rand_bound_violator,
    genfix.rand_two_real_quadratic,
    genfix.rand_three_reals,
    genfix.rand_classed,
    genfix.rand_interleaved,
    genfix.rand_paired,
]


def numbered_moved(s: PlaceSymmetry):
    """``s.group()`` mapped back to moved pairs through the numbered places,
    in the order ``reference_group`` sorts its elements."""
    ids = list(s.number)
    return sorted(tuple(sorted((ids[i], ids[j]) for i, j in enumerate(e) if i != j))
                  for e in s.group())


def reference_moved(s: PlaceSymmetry):
    return [p.moved for p in reference_group(s)]


def random_generator_sets():
    """60 random sets of one to three generators over two to eight places,
    with ids whose place order differs from their string order."""
    rng = random.Random(72)
    for _ in range(60):
        ids = [f"v{n}" for n in rng.sample(range(1, 30), rng.randint(2, 8))]
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(ids, rng.randint(2, len(ids)))
            gens.append(PlacePerm.from_mapping(dict(zip(support, rng.sample(support, len(support))))))
        yield ids, PlaceSymmetry(tuple(gens))


def listable(ids, s: PlaceSymmetry) -> bool:
    """Whether ``s.group()`` lists; only a group on all eight places can
    pass 7! = 5040 < the limit."""
    try:
        s.group()
    except CapacityError:
        assert len(ids) == 8
        return False
    return True


class TestGroupAgainstTheReference:
    @pytest.mark.parametrize("make", GENERATORS, ids=lambda make: make.__name__)
    def test_generated_descriptors(self, make):
        rng = random.Random(71)
        for _ in range(40):
            s = make(rng).symmetry
            assert numbered_moved(PlaceSymmetry(s.generators)) == reference_moved(s)

    def test_random_generator_sets_over_up_to_eight_places(self):
        compared = 0
        for ids, s in random_generator_sets():
            if listable(ids, s):
                assert numbered_moved(s) == reference_moved(s)
                compared += 1
        assert compared >= 50


def value_tuple(coords):
    """A coordinate vector as the value tuple ``orbit_set`` returns."""
    return tuple(cls for _, cls in coords)


def joint_values(reference):
    """``reference_two_sided_orbit``'s (finite, real, forms) triples as the
    joint value tuples of ``_two_sided_orbit``."""
    return {value_tuple(fin) + tuple((cls, tag) for (_, cls), (_, tag) in zip(real, tags))
            for fin, real, tags in reference}


class TestOrbitsAgainstTheReference:
    """``global_orbit`` and ``orbit_set``, with and without ``fixing`` and
    from one or several starts, and the two-sided orbit of the witness check
    against the string-keyed push along every element of ``reference_group``."""

    @pytest.mark.parametrize("make", GENERATORS, ids=lambda make: make.__name__)
    def test_generated_descriptors(self, make):
        rng = random.Random(73)
        for _ in range(40):
            g = make(rng)
            for fixing in [None] + [p.id for p in g.field.real_places]:
                assert set(global_orbit(g.omega.finite, g.symmetry, fixing=fixing)) == \
                    reference_global_orbit(g.omega.finite, g.symmetry, fixing)
            assert _two_sided_orbit(g) == joint_values(reference_two_sided_orbit(g))

    def test_random_generator_sets_over_up_to_eight_places(self):
        values = random.Random(74)
        t = GroupType(Family.A, 2)
        compared = 0
        for ids, s in random_generator_sets():
            if not listable(ids, s):
                continue
            labels = [PlaceLabel(i, PlaceKind.FINITE_INNER) for i in ids]
            omega = OmegaVector(t, tuple((lab, LocalClass(cyclic(3), values.randrange(3)))
                                         for lab in labels))
            for fixing in [None] + ids:
                assert set(global_orbit(omega.finite, s, fixing=fixing)) == \
                    reference_global_orbit(omega.finite, s, fixing)
            g = GroupDescriptor(t, FieldDescriptor(degree=1, finite_places=tuple(labels)), s, omega)
            assert _two_sided_orbit(g) == joint_values(reference_two_sided_orbit(g))
            starts = [omega.finite, sigma_flip(omega)]
            for fixing in [None] + ids:
                assert orbit_set(starts, s, fixing) == \
                    {value_tuple(y) for x in starts for y in reference_global_orbit(x, s, fixing)}
            compared += 1
        assert compared >= 50

    def test_a_trivial_symmetry_keeps_each_start(self):
        # with no generators orbit_set sets nothing up and walks nothing:
        # each start is its own orbit, with or without a fixed place
        trivial = PlaceSymmetry(())
        rng = random.Random(75)
        drawn = 0
        for make in GENERATORS:
            for _ in range(20):
                g = make(rng)
                if g.symmetry.generators:  # an [aut] section
                    continue
                drawn += 1
                starts = [g.omega.finite, sigma_flip(g.omega)]
                ids = [p.id for p in g.field.real_places + g.field.finite_places[:1]]
                for fixing in [None] + ids:
                    for k in (1, 2):
                        assert orbit_set(starts[:k], trivial, fixing) == \
                            {value_tuple(y) for x in starts[:k] for y in reference_global_orbit(x, trivial, fixing)}
                assert _two_sided_orbit(g) == joint_values(reference_two_sided_orbit(g))
        assert drawn >= 60

    @pytest.mark.parametrize("k", range(5))
    def test_fixing_each_real_place_of_a_real_swap(self, k):
        g = parse(real_swap_with_pairs(k, 2 ** (k + 1)))
        om, s = g.omega, g.symmetry
        vectors = [om.finite, om.real, om.finite + om.real]
        for fixing in [None] + [p.id for p in g.field.real_places]:
            for x in vectors:
                assert orbit_set([x], s, fixing) == \
                    {value_tuple(y) for y in reference_global_orbit(x, s, fixing)}
