"""Acceptance battery: one test per criterion, one printed line each."""

import itertools
import random
import time
from contextlib import contextmanager

from genfix import (
    rand_bound_violator,
    rand_outer_two_twins,
    rand_q,
    rand_quasisplit_galois,
    rand_symmetric_omega,
    rand_three_reals,
)
from oracles import catalog_groups, global_sym_act
from rigidity.arith_equiv import (
    almost_conjugate,
    are_conjugate,
    common_normal_index2,
    verify_prop_almost_conjugate,
)
from rigidity.brauer import (
    inner_twin_bound,
    inner_twin_places,
    is_coherent,
    plain_orbits,
    possible_vectors,
    s_omega_orbit,
    weak_uniformity,
)
from rigidity.catalog import fano_point_line_stabilizers
from rigidity.classifier import (
    Outcome,
    check_witness,
    classify,
    specialize_q,
    specialize_quasisplit,
)
from rigidity.cli import emit_descriptor, parse
from rigidity.field_model import sort_coords
from rigidity.invariants import (
    Family,
    FormKind,
    GroupType,
    c_local,
    center_shape,
    sym_act,
    zero,
)
from rigidity.real_forms import RealFormTag, q_image_trivial, trivial_image_forms
from rigidity.selftest import FIXTURES


@contextmanager
def criterion(num: int, desc: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc} ({time.monotonic() - start:.2f}s)")


def test_criterion_1_division_algebra_pair():
    with criterion(1, "division algebra pair reproduced with the partner witness"):
        start = time.monotonic()
        verdict = classify(parse(FIXTURES["table1_D1"]))
        elapsed = time.monotonic() - start
        assert verdict.outcome == Outcome.NOT_RIGID
        witness_values = [(lab.id, cls.value) for lab, cls in verdict.witness.omega.finite]
        assert witness_values == [("v2", 1), ("v3", 2), ("v5", 2), ("v7", 1)]
        assert elapsed < 1.0


def test_criterion_2_gaussian_tables():
    with criterion(2, "gaussian rank 4 and rank 5 orbit tables reproduced"):
        start = time.monotonic()
        four = parse(FIXTURES["table3_A4_Qi"])
        report4 = weak_uniformity(four.omega, four.field, four.symmetry)
        rows4 = {
            (("v3", 1), ("v5a", 2), ("v5b", 3), ("v7", 4)),
            (("v3", 4), ("v5a", 3), ("v5b", 2), ("v7", 1)),
            (("v3", 1), ("v5a", 3), ("v5b", 2), ("v7", 4)),
            (("v3", 4), ("v5a", 2), ("v5b", 3), ("v7", 1)),
        }
        as_rows = lambda vecs: {tuple((lab.id, cls.value) for lab, cls in v) for v in vecs}
        # the realized side holds value tuples in the place order of the finite coordinates
        labelled = lambda g, lhs: [tuple(zip([lab for lab, _ in g.omega.finite], v)) for v in lhs]
        assert as_rows(labelled(four, report4.lhs)) == rows4 and report4.possible == len(rows4)
        assert as_rows(possible_vectors(four.omega)) == rows4
        assert report4.holds
        assert classify(four).outcome == Outcome.RIGID

        five = parse(FIXTURES["table4_A5_Qi"])
        rows5 = {
            (("v3", 3), ("v5a", 2), ("v5b", 4), ("v11a", 0), ("v11b", 3)),
            (("v3", 3), ("v5a", 4), ("v5b", 2), ("v11a", 0), ("v11b", 3)),
            (("v3", 3), ("v5a", 2), ("v5b", 4), ("v11a", 3), ("v11b", 0)),
            (("v3", 3), ("v5a", 4), ("v5b", 2), ("v11a", 3), ("v11b", 0)),
        }
        report5 = weak_uniformity(five.omega, five.field, five.symmetry)
        assert as_rows(labelled(five, report5.lhs)) == rows5 and report5.possible == len(rows5)
        assert as_rows(possible_vectors(five.omega)) == rows5
        glob, adel = plain_orbits(five.omega, five.symmetry)
        assert len(glob) == 2 and len(adel) == 4 and set(glob) < set(adel)
        # the two-sided sets coincide, so the instance is rigid even though
        # the one-sided orbit comparison is strict
        assert report5.holds
        assert classify(five).outcome == Outcome.RIGID
        assert time.monotonic() - start < 1.0


def _closed_form_list(t: GroupType):
    f, r, outer = t.family, t.rank, t.is_outer
    out = []
    if f == Family.A and not outer:
        out.append(RealFormTag("SL_R", (r + 1,)))
        if r % 2 == 1:
            out.append(RealFormTag("SL_H", ((r + 1) // 2,)))
    elif f == Family.A:
        if r == 3:
            out.append(RealFormTag("SU", (3, 1)))
    elif f == Family.B:
        if r == 2:
            out.append(RealFormTag("Spin", (3, 2)))
    elif f == Family.C:
        out.append(RealFormTag("Sp_R", (2 * r,)))
    elif f == Family.D:
        if r == 5 and not outer:
            out.append(RealFormTag("Spin", (7, 3)))
        star = RealFormTag("SpinStar", (2 * r,))
        if star.signature()[2] == outer:
            out.append(star)
    return sorted(out, key=str)


def test_criterion_3_real_form_gate():
    with criterion(3, "trivial-image gate matches the closed-form list"):
        start = time.monotonic()
        types = []
        for r in range(1, 40):
            types.append(GroupType(Family.A, r))
            if r >= 2:
                types.append(GroupType(Family.A, r, FormKind.OUTER))
        types += [GroupType(Family.B, r) for r in range(2, 20)]
        types += [GroupType(Family.C, r) for r in range(2, 21)]
        for r in range(5, 21):
            types.append(GroupType(Family.D, r))
            types.append(GroupType(Family.D, r, FormKind.OUTER))
        types += [
            GroupType(Family.E6, 6), GroupType(Family.E6, 6, FormKind.OUTER),
            GroupType(Family.E7, 7), GroupType(Family.E8, 8),
            GroupType(Family.F4, 4), GroupType(Family.G2, 2),
        ]
        for t in types:
            got = sorted(trivial_image_forms(t), key=str)
            assert got == _closed_form_list(t), t.symbol()
        for total in range(12, 41):
            for s in range(total // 2 + 1):
                assert not q_image_trivial(RealFormTag("Spin", (total - s, s)))
        assert time.monotonic() - start < 5.0


def _brute_force_orbit(om):
    t = om.group_type
    twins = inner_twin_places(om)
    value = dict(om.finite)
    out = set()
    for k in range(len(twins) + 1):
        for combo in itertools.combinations(twins, k):
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


def test_criterion_4_flip_orbit_oracle():
    with criterion(4, "flip orbit equals the brute-force enumeration on 500 instances"):
        start = time.monotonic()
        rng = random.Random(2024)
        for _ in range(500):
            om = rand_symmetric_omega(rng, max_places=12)
            assert is_coherent(om)
            assert len(inner_twin_places(om)) <= 12
            assert set(s_omega_orbit(om).elements) == _brute_force_orbit(om)
        assert time.monotonic() - start < 30.0


def test_criterion_5_checklist_agreement():
    with criterion(5, "classifier agrees with both special-case checklists"):
        rng = random.Random(4096)
        for _ in range(1000):
            g = rand_q(rng)
            assert classify(g).outcome == specialize_q(g).outcome
        rng = random.Random(8192)
        for _ in range(200):
            g = rand_quasisplit_galois(rng)
            assert classify(g).outcome == specialize_quasisplit(g).outcome


def test_criterion_6_negative_theorem_suites():
    with criterion(6, "the three non-rigidity theorems hold on random instances"):
        rng = random.Random(333)
        for _ in range(300):
            g = rand_outer_two_twins(rng)
            assert len(inner_twin_places(g.omega)) >= 2
            assert classify(g).outcome == Outcome.NOT_RIGID
        rng = random.Random(444)
        for _ in range(300):
            g = rand_bound_violator(rng)
            assert inner_twin_bound(g.omega, g.field)
            assert classify(g).outcome == Outcome.NOT_RIGID
        rng = random.Random(555)
        for _ in range(300):
            g = rand_three_reals(rng)
            assert len(g.field.real_places) >= 3
            assert classify(g).outcome == Outcome.NOT_RIGID


def test_criterion_7_witness_soundness():
    with criterion(7, "every emitted witness is sound"):
        sources = []
        for text in FIXTURES.values():
            sources.append(parse(text))
        rng = random.Random(777)
        generators = [rand_q, rand_three_reals, rand_outer_two_twins, rand_bound_violator]
        checked = 0
        idx = 0
        while checked < 500:
            sources.append(generators[idx % len(generators)](rng))
            idx += 1
            g = sources.pop()
            v = classify(g)
            if v.outcome != Outcome.NOT_RIGID or v.witness is None:
                continue
            checked += 1
            w = v.witness
            assert parse(emit_descriptor(w)) == w
            assert is_coherent(w.omega)
            check_witness(g, w)
            assert classify(w).outcome == Outcome.NOT_RIGID
        # the bundled fixtures themselves
        for text in FIXTURES.values():
            g = parse(text)
            v = classify(g)
            if v.outcome == Outcome.NOT_RIGID and v.witness is not None:
                assert parse(emit_descriptor(v.witness)) == v.witness
                check_witness(g, v.witness)
                assert classify(v.witness).outcome == Outcome.NOT_RIGID


def test_criterion_8_arithmetic_equivalence():
    with criterion(8, "almost-conjugacy suite over the bundled catalog"):
        start = time.monotonic()
        G, P, L = fano_point_line_stabilizers()
        assert almost_conjugate(G, P, L)
        assert not are_conjugate(G, P, L)
        assert common_normal_index2(G, P, L) is None
        for group in catalog_groups():
            ok, counterexample = verify_prop_almost_conjugate(group)
            assert ok, (group.name, counterexample)
        assert time.monotonic() - start < 60.0
