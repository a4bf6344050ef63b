"""The two subgroup pairs the arithmetic equivalence checks are pinned to.

The simple group of order 168 acting on the seven points of the Fano
plane, where the point and line stabilizers form the standard
almost-conjugate-but-not-conjugate pair, and the wreath model on six
points.  The groups the suite runs over are listed in ``fixtures/groups.cat``.
"""

from __future__ import annotations

from typing import Tuple

from .arith_equiv import PermGroup, Subgroup, perm_from_cycles


def wreath_c2_c3() -> PermGroup:
    """The transitive wreath model on six points: three sign flips cycled by a 3-cycle."""
    gens = [
        perm_from_cycles(6, [(0, 1)]),
        perm_from_cycles(6, [(2, 3)]),
        perm_from_cycles(6, [(4, 5)]),
        perm_from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
    ]
    return PermGroup(6, gens, name="C2wrC3")


def wreath_pair() -> Tuple[PermGroup, Subgroup, Subgroup, Subgroup]:
    """The wreath model with U = first two sign flips and its two rank-one subgroups.

    ``V1`` and ``V2`` are conjugate in the big group but by no element
    normalizing ``U``: the prototype of globally isomorphic quadratic
    extensions with no isomorphism fixing the middle field.
    """
    G = wreath_c2_c3()
    e = G.identity
    a = perm_from_cycles(6, [(0, 1)])
    b = perm_from_cycles(6, [(2, 3)])
    ab = perm_from_cycles(6, [(0, 1), (2, 3)])
    U = Subgroup(G, frozenset([e, a, b, ab]))
    V1 = Subgroup(G, frozenset([e, a]))
    V2 = Subgroup(G, frozenset([e, b]))
    return G, U, V1, V2


def fano_group() -> PermGroup:
    """The simple group of order 168 on the seven points of the Fano plane.

    Points are the nonzero vectors of a three dimensional binary space,
    encoded as the integers 1..7 minus one; generators are two invertible
    linear maps generating the full linear group.
    """
    def action(m):
        # m: 3x3 binary matrix, rows are images of basis vectors
        out = []
        for v in range(1, 8):
            bits = ((v >> 0) & 1, (v >> 1) & 1, (v >> 2) & 1)
            w = [0, 0, 0]
            for i in range(3):
                if bits[i]:
                    for j in range(3):
                        w[j] ^= m[i][j]
            out.append((w[0] | (w[1] << 1) | (w[2] << 2)) - 1)
        return tuple(out)

    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    return PermGroup(7, [action(shear), action(cycle)], name="PSL(3,2)")


def fano_point_line_stabilizers() -> Tuple[PermGroup, Subgroup, Subgroup]:
    """Stabilizer of a point and of a line of the Fano plane: the standard
    almost conjugate, non-conjugate pair."""
    G = fano_group()
    elems = G.elements()
    point = frozenset(g for g in elems if g[0] == 0)
    line = frozenset(g for g in elems if {g[0], g[1], g[2]} == {0, 1, 2})
    return G, Subgroup(G, point), Subgroup(G, line)
