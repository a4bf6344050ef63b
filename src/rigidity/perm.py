"""The permutation kernel that the classify and equiv engines share.

A permutation is the tuple of its images of the points 0..n-1, read from
cycle notation.  One coset walk (Dimino's algorithm, ``_adjoin``, from a
generating tuple ``generate`` takes greedily) lists a group from its
generators, as ``_powers`` lists the powers of one element; the step by an
element is a function, so the walk runs on tuples and on element numbers
alike.  ``_walk`` goes breadth first over tables of element numbers.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import CapacityError, ContractError

Perm = Tuple[int, ...]

# Largest group order ``generate`` lists, for catalog groups and field
# automorphisms alike.
DEFAULT_GROUP_CAP = 10080


def perm_mul(a: Perm, b: Perm) -> Perm:
    """(a*b)(x) = a(b(x))."""
    return tuple(map(a.__getitem__, b))


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> Perm:
    """The product of disjoint cycles; a point that occurs twice is refused."""
    out = list(range(degree))
    seen = set()
    for cyc in cycles:
        if not cyc:
            raise ContractError("empty cycle")
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            if not (0 <= a < degree):
                raise ContractError(f"point {a} outside degree {degree}")
            if a in seen:
                raise ContractError("cycles do not define a permutation")
            seen.add(a)
            out[a] = b
    return tuple(out)


def read_cycles(text: str):
    """The cycles of a permutation in cycle notation, each as its list of words.

    Raises ValueError on a bracket fault; the words are the caller's to check.
    """
    rest = text
    while rest:
        close = rest.find(")")
        if not rest.startswith("(") or close < 0:
            raise ValueError(f"bad cycle notation {text!r}")
        yield rest[1:close].split()
        rest = rest[close + 1:].strip()


def _times(s: Perm) -> Callable[[Perm], Perm]:
    """x -> xs in one call; below two points the identity is the only permutation."""
    return itemgetter(*s) if len(s) > 1 else (lambda x: x)


def _powers(x, step: Callable, e) -> list:
    """e, x, x^2, ... up to the last power before e, where ``step`` is
    y -> yx or y -> xy.  Only elements of a listed group come here, so their
    order is within the cap; ``generate`` checks the cap on each power of an
    element it is given, as a coset of the trivial subgroup."""
    out = [e]
    while x != e:
        out.append(x)
        x = step(x)
    return out


def _adjoin(sub: FrozenSet, steps: Sequence[Callable], within: Optional[FrozenSet] = None) -> FrozenSet:
    """The subgroup ``sub`` and the generators whose multiplications y -> yx
    (or all y -> xy) are ``steps`` generate, as the union of the right (or
    left) cosets of ``sub`` they reach (Dimino's algorithm): each new coset
    is the image ``map(step, coset)`` of one found before.

    The union is closed under the generators it is built with, so ``steps``
    must include generators of ``sub`` unless they normalize ``sub``.  A
    coset that would take the union past ``DEFAULT_GROUP_CAP`` raises
    CapacityError; with ``within``, one that leaves it raises ContractError.
    """
    elems = set(sub)
    cosets = [list(sub)]
    room = DEFAULT_GROUP_CAP - len(sub)  # a larger union has no room for one more coset
    for coset in cosets:  # cosets grows while it is read
        for step in steps:
            if step(coset[0]) not in elems:
                if len(elems) > room:
                    raise CapacityError(f"group order exceeds the cap {DEFAULT_GROUP_CAP}")
                new = list(map(step, coset))
                if within is not None and not within.issuperset(new):
                    raise ContractError("subgroup not closed under composition")
                elems.update(new)
                cosets.append(new)
    return frozenset(elems)


def generate(xs: Iterable, e, times: Callable = _times,
             within: Optional[FrozenSet] = None) -> Tuple[tuple, FrozenSet]:
    """A generating tuple taken from ``xs`` in their order, one element for
    each that the earlier ones do not generate, and the subgroup generated
    (``_adjoin``); CapacityError past ``DEFAULT_GROUP_CAP`` elements.

    ``times(x)`` is the step by x: ``_times`` (y -> yx) lists a group of
    tuples from its generators, and a listed group's ``PermGroup.left``
    (y -> xy) spans its subgroups on element numbers.  With ``within``, the
    set that ``xs`` lists and that should be a subgroup: everything
    generated must lie in it, else ContractError.  Every element either is
    generated or becomes a generator, so this checks closure in at most
    |within| times the number of generators lookups, and a set that is not
    closed stops early.
    """
    gens: tuple = ()
    steps: List[Callable] = []
    sub = frozenset([e])
    for x in xs:
        if x not in sub:
            gens += (x,)
            steps.append(times(x))
            sub = _adjoin(sub, steps, within)
    return gens, sub


def _walk(tables: Sequence[List[int]], start: int, seen: bytearray,
          tree: Optional[List[Tuple[int, int, int]]] = None) -> List[int]:
    """The numbers that ``tables`` reach from ``start`` and that ``seen`` did
    not mark, breadth first from it, each marked as it is reached.  With
    ``tree``, each but ``start`` appends (y, x, k), with y = tables[k][x], so
    each x comes before it is used."""
    seen[start] = 1
    order = [start]
    for x in order:  # order grows while it is read
        k = 0  # counted by hand: an enumerate per point costs more than a short class walk
        for table in tables:
            y = table[x]
            if not seen[y]:
                seen[y] = 1
                order.append(y)
                if tree is not None:
                    tree.append((y, x, k))
            k += 1
    return order


def _spanning_tree(tables: Sequence[List[int]], n: int) -> List[Tuple[int, int, int]]:
    """(y, x, k) with y = tables[k][x], once for each of the n elements y but
    the identity 0, breadth first from it (``_walk``)."""
    tree: List[Tuple[int, int, int]] = []
    _walk(tables, 0, bytearray(n), tree)
    return tree


def _along(tree: List[Tuple[int, int, int]], tables: Sequence[List[int]], a: int) -> List[int]:
    """f with f(0) = a and f(y) = tables[k][f(x)] on every edge (y, x, k) of
    ``tree``: the map that commutes with every table and takes 0 to a."""
    f = [a] * (len(tree) + 1)
    for y, x, k in tree:
        f[y] = tables[k][f[x]]
    return f
