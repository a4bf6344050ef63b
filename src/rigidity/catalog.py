"""The catalog grammar, the bundled permutation groups, read from
``fixtures/groups.cat`` as package data, and the subgroup pairs the
arithmetic equivalence checks are pinned to: the point and line stabilizers
of the simple group of order 168 on the Fano plane, the standard
almost-conjugate-but-not-conjugate pair, and subgroups of the wreath model
on six points.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files
from typing import Dict, List, Tuple

from .arith_equiv import PermGroup, Subgroup, perm_from_cycles
from .descriptor import read_cycles
from .errors import ContractError, DescriptorParseError

# Every element of a catalog group is a tuple of DEGREE points, so with the
# group order cap of 10080 a degree of 1000 already means 10^7 stored points.
CATALOG_DEGREE_LIMIT = 1000


def parse_catalog(text: str) -> List[PermGroup]:
    """Catalog grammar: one group per line, ``NAME DEGREE (cycles)(...)``, 1-based points.

    Generators are separated by ``;``.  Every fault is reported as a
    positioned ``DescriptorParseError`` entry.
    """
    groups = []
    errors = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            errors.append((no, 1, "expected NAME DEGREE CYCLES"))
            continue
        name, deg_txt, gen_txt = parts
        try:
            degree = int(deg_txt)
        except ValueError:
            errors.append((no, 1, f"bad degree {deg_txt!r}"))
            continue
        if not 1 <= degree <= CATALOG_DEGREE_LIMIT:
            errors.append((no, 1, f"degree {degree} outside 1..{CATALOG_DEGREE_LIMIT}"))
            continue
        gens = []
        for chunk in gen_txt.split(";"):
            try:
                gens.append(_catalog_generator(chunk.strip(), degree))
            except ValueError as e:
                errors.append((no, 1, str(e)))
        groups.append(PermGroup(degree, gens, name=name))
    if errors:
        raise DescriptorParseError(errors)
    return groups


def _catalog_generator(chunk: str, degree: int) -> Tuple[int, ...]:
    """One generator in 1-based cycle notation; ValueError says what is wrong."""
    cycles = []
    for words in read_cycles(chunk):
        cycle = []
        for word in words:
            try:
                point = int(word)
            except ValueError:
                raise ValueError(f"bad point {word!r} in {chunk!r}") from None
            if not 1 <= point <= degree:
                raise ValueError(f"point {point} outside degree {degree} in {chunk!r}")
            cycle.append(point - 1)
        cycles.append(cycle)
    try:
        return perm_from_cycles(degree, cycles)
    except ContractError as e:
        raise ValueError(f"{e} in {chunk!r}") from None


@lru_cache(maxsize=1)
def _catalog_lines() -> Dict[str, str]:
    """The lines of ``groups.cat`` by group name, read once per process."""
    text = (files(__package__) / "fixtures" / "groups.cat").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return {line.split(None, 1)[0]: line for line in lines}


def catalog_group(name: str) -> PermGroup:
    """The ``groups.cat`` group of that name, built afresh from its line."""
    return parse_catalog(_catalog_lines()[name])[0]


def wreath_pair() -> Tuple[PermGroup, Subgroup, Subgroup, Subgroup]:
    """The wreath model with U = first two sign flips and its two rank-one subgroups.

    ``V1`` and ``V2`` are conjugate in the big group but by no element
    normalizing ``U``: the prototype of globally isomorphic quadratic
    extensions with no isomorphism fixing the middle field.
    """
    G = catalog_group("C2wrC3")
    e = G.identity
    a = perm_from_cycles(6, [(0, 1)])
    b = perm_from_cycles(6, [(2, 3)])
    ab = perm_from_cycles(6, [(0, 1), (2, 3)])
    U = Subgroup(G, frozenset([e, a, b, ab]))
    V1 = Subgroup(G, frozenset([e, a]))
    V2 = Subgroup(G, frozenset([e, b]))
    return G, U, V1, V2


def fano_point_line_stabilizers() -> Tuple[PermGroup, Subgroup, Subgroup]:
    """Stabilizer of a point and of a line of the Fano plane: the standard
    almost conjugate, non-conjugate pair.  The catalog numbers the points as
    the nonzero vectors of a binary 3-space, so points 1, 2, 3 form a line."""
    G = catalog_group("PSL(3,2)")
    elems = G.elements()
    point = frozenset(g for g in elems if g[0] == 0)
    line = frozenset(g for g in elems if {g[0], g[1], g[2]} == {0, 1, 2})
    return G, Subgroup(G, point), Subgroup(G, line)
