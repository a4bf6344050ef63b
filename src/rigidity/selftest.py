"""The bundled fixture battery behind ``rigidity selftest``.

One line per check; every expected value here is pinned to a bundled
fixture or to one of the closed-form lists, so a green run certifies the
installed tables end to end.
"""

from __future__ import annotations

import sys
from importlib.resources import files

from .arith_equiv import almost_conjugate, are_conjugate, common_normal_index2
from .brauer import plain_orbits, weak_uniformity
from .catalog import fano_point_line_stabilizers, wreath_pair
from .classifier import Outcome, classify
from .descriptor import parse
from .invariants import Family, GroupType
from .perm import perm_inv, perm_mul
from .real_forms import RealFormTag, trivial_image_forms

# The bundled descriptors by file stem.  The package's ``fixtures`` directory
# is the repository's ``fixtures/``: a symlink in a checkout, a copy when built.
FIXTURES = {
    p.name.removesuffix(".grp"): p.read_text(encoding="utf-8")
    for p in sorted((files(__package__) / "fixtures").iterdir(), key=lambda p: p.name)
    if p.name.endswith(".grp")
}

# the fixtures checked by their outcome alone: (check, fixture, outcome)
_OUTCOMES = (
    ("cubic split prime: not rigid", "cubic31", Outcome.NOT_RIGID),
    ("komatsu quartic: not rigid (sibling square class)", "komatsu_2A2", Outcome.NOT_RIGID),
    ("sextic wreath field: not rigid (sibling square class)", "lmfdb_sextic_2A2", Outcome.NOT_RIGID),
    ("split symplectic over Q: rigid", "split_C3_Q", Outcome.RIGID),
    ("split G2 over Q: not rigid", "split_G2_Q", Outcome.NOT_RIGID),
    ("split B3 over Q: not rigid", "b3_split_Q", Outcome.NOT_RIGID),
    ("star form rank 6 over Q: rigid", "spinstar_D6_Q", Outcome.RIGID),
    ("Spin(7,3) rank 5 over Q: rigid", "spin73_D5_Q", Outcome.RIGID),
    ("SU(3,1) rank 3 over Q: rigid", "su31_2A3_Q", Outcome.RIGID),
)


def _checks():
    d1 = parse(FIXTURES["table1_D1"])
    v1 = classify(d1)
    yield "division algebra pair: not rigid", v1.outcome == Outcome.NOT_RIGID
    d2 = parse(FIXTURES["table1_D2"])
    witness_vals = [str(c) for _, c in v1.witness.omega.finite]
    d2_vals = [str(c) for _, c in d2.omega.finite]
    yield "division algebra pair: witness equals the partner row", witness_vals == d2_vals

    t3 = parse(FIXTURES["table3_A4_Qi"])
    r3 = weak_uniformity(t3.omega, t3.field, t3.symmetry)
    yield "gaussian rank 4: four realized = four possible", (
        r3.holds and len(r3.lhs) == 4 and r3.possible == 4
    )
    yield "gaussian rank 4: rigid", classify(t3).outcome == Outcome.RIGID

    t4 = parse(FIXTURES["table4_A5_Qi"])
    r4 = weak_uniformity(t4.omega, t4.field, t4.symmetry)
    glob, adel = plain_orbits(t4.omega, t4.symmetry)
    yield "gaussian rank 5: automorphism orbit 2 inside adelic orbit 4", (
        len(glob) == 2 and len(adel) == 4 and set(glob) < set(adel)
    )
    yield "gaussian rank 5: two-sided sets agree (4 = 4)", (
        r4.holds and len(r4.lhs) == 4
    )

    quat = classify(parse(FIXTURES["quat_sqrt2"]))
    yield "real quadratic quaternions: not rigid", quat.outcome == Outcome.NOT_RIGID
    flipped = all(
        tag == RealFormTag("SL_R", (2,)) for _, tag in quat.witness.real_forms
    )
    yield "real quadratic quaternions: witness splits both infinite places", flipped

    for name, fixture, outcome in _OUTCOMES:
        yield name, classify(parse(FIXTURES[fixture])).outcome == outcome

    forms_c3 = trivial_image_forms(GroupType(Family.C, 3))
    yield "real form gate C3: split symplectic only", forms_c3 == [RealFormTag("Sp_R", (6,))]
    forms_d5 = trivial_image_forms(GroupType(Family.D, 5))
    yield "real form gate inner D5: Spin(7,3) only", forms_d5 == [RealFormTag("Spin", (7, 3))]
    forms_e6 = trivial_image_forms(GroupType(Family.E6, 6))
    yield "real form gate E6: empty", forms_e6 == []

    G, P, L = fano_point_line_stabilizers()
    yield "fano stabilizers: almost conjugate", almost_conjugate(G, P, L)
    yield "fano stabilizers: not conjugate", not are_conjugate(G, P, L)
    yield "fano stabilizers: no common index-two normal overgroup", (
        common_normal_index2(G, P, L) is None
    )
    Gw, U, V1, V2 = wreath_pair()
    yield "wreath model: rank one parts conjugate in the big group", are_conjugate(Gw, V1, V2)
    yield "wreath model: but by nothing normalizing the middle subgroup", (
        _no_normalizing_conjugator(Gw, U, V1, V2)
    )


def _no_normalizing_conjugator(G, U, V1, V2) -> bool:
    for g in G.elements():
        gi = perm_inv(g)
        if frozenset(perm_mul(perm_mul(g, v), gi) for v in V1.members) == V2.members:
            if frozenset(perm_mul(perm_mul(g, u), gi) for u in U.members) == U.members:
                return False
    return True


def run_selftest(out=None) -> int:
    out = out if out is not None else sys.stdout
    failures = 0
    for name, ok in _checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}", file=out)
        if not ok:
            failures += 1
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}",
          file=out)
    return 0 if failures == 0 else 3
