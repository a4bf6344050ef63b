"""Finite permutation groups and almost conjugacy.

Two subgroups of a finite group are almost conjugate when they meet every
conjugacy class in the same number of elements; equivalently, the
characters induced from their trivial characters agree.  Both sides are
computed here independently (class intersection profiles vs fixed point
counts on coset spaces) and compared on every call.  The headline
criterion: almost conjugate subgroups sitting with index two in a common
normal subgroup are in fact conjugate, which is the group-theoretic engine
certifying that quadratic extensions of a Galois base field cannot be
locally-but-not-globally interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import CapacityError, ContractError

Perm = Tuple[int, ...]

# Largest group order ``generate`` lists, for catalog groups and field
# automorphisms alike.
DEFAULT_GROUP_CAP = 10080

# Most normal subgroups one group may list; (Z/2)^n has about 2^(n^2/4).
NORMAL_SUBGROUP_LIMIT = 512


def perm_mul(a: Perm, b: Perm) -> Perm:
    """(a*b)(x) = a(b(x))."""
    return tuple(map(a.__getitem__, b))


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> Perm:
    out = list(range(degree))
    for cyc in cycles:
        if not cyc:
            raise ContractError("empty cycle")
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            if not (0 <= a < degree):
                raise ContractError(f"point {a} outside degree {degree}")
            out[a] = b
    if sorted(out) != list(range(degree)):
        raise ContractError("cycles do not define a permutation")
    return tuple(out)


class PermGroup:
    """A finite permutation group with cached element list and classes."""

    def __init__(self, degree: int, generators: Sequence[Perm], name: str = ""):
        self.degree = degree
        self.name = name
        self.generators = [tuple(g) for g in generators]
        for g in self.generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ContractError(f"not a permutation of degree {degree}: {g}")
        self._elements: Optional[List[Perm]] = None
        self._members: FrozenSet[Perm] = frozenset()
        self._classes: Optional[List[Tuple[Perm, ...]]] = None
        self._subgroups: Optional[List[FrozenSet[Perm]]] = None
        self._normal: Optional[List[FrozenSet[Perm]]] = None

    @property
    def identity(self) -> Perm:
        return tuple(range(self.degree))

    def elements(self) -> List[Perm]:
        if self._elements is None:
            self._members = generate(self.generators, self.identity)[1]
            self._elements = sorted(self._members)
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, p: Perm) -> bool:
        self.elements()
        return p in self._members

    def conjugacy_classes(self) -> List[Tuple[Perm, ...]]:
        """Partition of the element list into conjugacy classes, canonically sorted."""
        if self._classes is None:
            assigned = set()
            classes = []
            pairs = [(g, perm_inv(g)) for g in self.generators]
            for rep in self.elements():  # sorted, so each rep is its class's least element
                if rep in assigned:
                    continue
                orbit = {rep}
                frontier = [rep]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for g, gi in pairs:
                            y = tuple(map(g.__getitem__, map(x.__getitem__, gi)))  # g x g^-1
                            if y not in orbit:
                                orbit.add(y)
                                nxt.append(y)
                    frontier = nxt
                assigned |= orbit
                classes.append(tuple(sorted(orbit)))
            self._classes = sorted(classes, key=lambda c: (len(c), c[0]))
        return self._classes

    def subgroups(self) -> List[FrozenSet[Perm]]:
        """Every subgroup, sorted by order and then by elements: the reference lattice.

        Each known subgroup is joined with one cyclic subgroup at a time
        (``_adjoin`` from its generating tuple), which takes seconds from
        order 168 on.  Nothing in the package calls it; it stays as the
        oracle the tests compare ``normal_subgroups`` and
        ``index_two_subgroups`` with, and for the bench tracer.
        """
        if self._subgroups is not None:
            return self._subgroups
        elems = self.elements()
        cyclics: Dict[FrozenSet[Perm], Perm] = {}
        for x in elems:
            c = frozenset(_cyclic(x, self.identity))
            cyclics.setdefault(c, x)
        trivial = frozenset([self.identity])
        known = {trivial: ()}  # subgroup -> generating tuple
        frontier = [trivial]
        while frontier:
            nxt = []
            for sub in frontier:
                gens = known[sub]
                for cyc, x in cyclics.items():
                    if cyc <= sub:
                        continue
                    new_gens = gens + (x,)
                    key = _adjoin(sub, new_gens)
                    if key not in known:
                        known[key] = new_gens
                        nxt.append(key)
            frontier = nxt
        self._subgroups = sorted(known, key=lambda s: (len(s), sorted(s)))
        return self._subgroups

    def normal_subgroups(self) -> List[FrozenSet[Perm]]:
        """Every normal subgroup, in the order of ``subgroups()``.

        The subgroup a conjugacy class generates is normal, and every normal
        subgroup is a join of such class subgroups.  Starting from the class
        subgroups, each normal subgroup found is joined with every class
        subgroup that neither contains it nor lies in it.  It is normal, so
        the join is the union of its cosets that the class subgroup's
        generating tuple reaches.  Before each join pass it raises
        ``CapacityError`` once more than ``NORMAL_SUBGROUP_LIMIT`` are known.
        """
        if self._normal is None:
            trivial = frozenset([self.identity])
            spans: Dict[FrozenSet[Perm], Tuple[Perm, ...]] = {}  # class subgroup -> generators
            for cls in self.conjugacy_classes():
                if cls[0] != self.identity:
                    gens, sub = generate(cls, self.identity)
                    spans.setdefault(sub, gens)
            known = {trivial, *spans}
            frontier = list(spans)
            while frontier:
                nxt = []
                for n in frontier:
                    if len(known) > NORMAL_SUBGROUP_LIMIT:
                        raise CapacityError(
                            f"{len(known)} normal subgroups exceed the limit {NORMAL_SUBGROUP_LIMIT}"
                        )
                    for sub, gens in spans.items():
                        # n is normal, so it holds the class subgroup iff it holds gens[0]
                        if gens[0] in n or n <= sub:
                            continue
                        join = _adjoin(n, gens)
                        if join not in known:
                            known.add(join)
                            nxt.append(join)
                frontier = nxt
            self._normal = sorted(known, key=lambda s: (len(s), sorted(s)))
        return self._normal

    def index_two_subgroups(self, n: FrozenSet[Perm]) -> List[FrozenSet[Perm]]:
        """The subgroups of index two in the subgroup ``n``, in the order of ``subgroups()``.

        Each contains every square, so they are the preimages of the
        hyperplanes of the elementary abelian quotient of ``n`` by the
        subgroup its squares generate.  Every element gets its coordinates in
        a basis of that quotient as a bit mask, and each nonzero functional,
        itself a mask f, keeps the elements whose mask meets f in an even
        number of bits: 2^d - 1 subgroups for a quotient of rank d.
        """
        if len(n) % 2:
            return []
        _, squares = generate({perm_mul(x, x) for x in n}, self.identity)
        coords = dict.fromkeys(squares, 0)
        bit = 1
        for x in n:
            if x not in coords:
                # the known part is a subgroup holding the squares, so normal in n
                coords.update([(perm_mul(y, x), c | bit) for y, c in coords.items()])
                bit <<= 1
        halves = [frozenset(x for x, c in coords.items() if not (c & f).bit_count() % 2)
                  for f in range(1, bit)]
        return sorted(halves, key=sorted)


def _cyclic(x: Perm, e: Perm) -> List[Perm]:
    out = [e]
    y = x
    while y != e:
        out.append(y)
        if len(out) > DEFAULT_GROUP_CAP:
            raise CapacityError(f"group order exceeds the cap {DEFAULT_GROUP_CAP}")
        y = perm_mul(y, x)
    return out


def _adjoin(sub: FrozenSet[Perm], gens: Sequence[Perm],
            within: Optional[FrozenSet[Perm]] = None) -> FrozenSet[Perm]:
    """The subgroup ``sub`` and ``gens`` generate, as the union of the right
    cosets of ``sub`` reached from ``sub`` by ``gens`` (Dimino's algorithm).

    The union is closed under the generators it is built with, so ``gens``
    must include generators of ``sub`` unless they normalize ``sub``.  With
    ``within``, a coset that leaves it raises ContractError: a set that holds
    ``sub`` and ``gens`` but not all they generate is not closed.  A coset
    that would take the union past ``DEFAULT_GROUP_CAP`` raises CapacityError.
    """
    elems = set(sub)
    reps = [next(iter(sub))]
    i = 0
    while i < len(reps):
        r = reps[i]
        i += 1
        for g in gens:
            t = perm_mul(r, g)
            if t not in elems:
                coset = [tuple(map(h.__getitem__, t)) for h in sub]  # h * t, t among them
                if within is not None and not within.issuperset(coset):
                    raise ContractError("subgroup not closed under composition")
                if len(elems) + len(coset) > DEFAULT_GROUP_CAP:
                    raise CapacityError(f"group order exceeds the cap {DEFAULT_GROUP_CAP}")
                elems.update(coset)
                reps.append(t)
    return frozenset(elems)


def generate(elements: Iterable[Perm], e: Perm,
             ambient: Optional[PermGroup] = None) -> Tuple[Tuple[Perm, ...], FrozenSet[Perm]]:
    """A generating tuple taken from ``elements`` in their order, one element
    for each that the earlier ones do not generate, and the subgroup generated
    by Dimino's coset walk; CapacityError past ``DEFAULT_GROUP_CAP`` elements.

    With ``ambient``, ``elements`` is the frozenset that should be a subgroup
    of it: each generator must lie in ``ambient`` and everything generated in
    ``elements``, else ContractError.  Every element either is generated or
    becomes a generator, so this checks closure in at most |elements| times
    the number of generators products, and a bad set stops early."""
    within = elements if ambient is not None else None
    gens: Tuple[Perm, ...] = ()
    sub = frozenset([e])
    for x in elements:
        if x not in sub:
            if ambient is not None and x not in ambient:
                raise ContractError("subgroup element outside the ambient group")
            gens += (x,)
            if len(gens) > 1:
                sub = _adjoin(sub, gens, within)
            else:  # a first generator spans its powers, which are cheaper to list than cosets
                sub = frozenset(_cyclic(x, e))
                if within is not None and not within.issuperset(sub):
                    raise ContractError("subgroup not closed under composition")
    return gens, sub


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its element set, verified at construction through
    a generating tuple taken from its members (``generate``).  The tuple is
    kept as ``generators``, which is not part of the value."""

    group: PermGroup = field(compare=False)
    members: FrozenSet[Perm] = field(default_factory=frozenset)

    def __post_init__(self):
        e = self.group.identity
        if e not in self.members:
            raise ContractError("subgroup must contain the identity")
        object.__setattr__(self, "generators", generate(self.members, e, self.group)[0])

    def order(self) -> int:
        return len(self.members)


def _profile(G: PermGroup, U: Subgroup) -> Tuple[int, ...]:
    return tuple(len(U.members.intersection(c)) for c in G.conjugacy_classes())


def _induced_character(G: PermGroup, U: Subgroup) -> Tuple[int, ...]:
    """Value on each conjugacy class of the character induced from the trivial
    one on U: the number of left cosets xU that the class representative
    fixes, computed without the class profile.

    r fixes xU exactly when r lies in its stabilizer xUx^-1, and u -> xux^-1
    lists that stabilizer once.  So one pass over the cosets, each entered at
    its first element x in ``G.elements()`` order, adds one to a class for
    every u in U with xux^-1 its representative: 2|G| products in all, and
    none per class.
    """
    index = {cls[0]: i for i, cls in enumerate(G.conjugacy_classes())}
    values = [0] * len(index)
    covered = set()
    for x in G.elements():
        if x in covered:
            continue
        xi = perm_inv(x)
        for u in U.members:
            y = tuple(map(x.__getitem__, u))  # x u, a member of xU
            covered.add(y)
            i = index.get(tuple(map(y.__getitem__, xi)))  # x u x^-1
            if i is not None:
                values[i] += 1
    return tuple(values)


def _signature(G: PermGroup, U: Subgroup) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    return _profile(G, U), _induced_character(G, U)


def _signatures_agree(sig1, sig2) -> bool:
    """Equal class profiles, cross-checked against equal induced characters."""
    by_profile = sig1[0] == sig2[0]
    by_character = sig1[1] == sig2[1]
    if by_profile != by_character:
        raise ContractError(
            "class profiles and induced characters disagree; this cannot happen"
        )
    return by_profile


def _check_inside(G: PermGroup, *subgroups: Subgroup) -> None:
    """ContractError unless each subgroup lies in ``G``: its generators, and
    its identity for a trivial one, are elements of ``G``."""
    for U in subgroups:
        if G.identity not in U.members or not all(x in G for x in U.generators):
            raise ContractError("subgroup element outside the ambient group")


def almost_conjugate(G: PermGroup, U1: Subgroup, U2: Subgroup) -> bool:
    """Equal class intersection profiles, cross-checked against induced characters."""
    _check_inside(G, U1, U2)
    if U1.order() != U2.order():
        return False
    return _signatures_agree(_signature(G, U1), _signature(G, U2))


def are_conjugate(G: PermGroup, U1: Subgroup, U2: Subgroup) -> bool:
    _check_inside(G, U1, U2)
    if U1.order() != U2.order():
        return False
    target = U2.members
    for g in G.elements():
        gi = perm_inv(g)
        # g<X>g^-1 is generated by gXg^-1, so it lies in U2 when they do;
        # conjugation is injective and the orders agree, so inside is equality
        if all(tuple(map(g.__getitem__, map(x.__getitem__, gi))) in target
               for x in U1.generators):
            return True
    return False


def common_normal_index2(G: PermGroup, U1: Subgroup, U2: Subgroup) -> Optional[Subgroup]:
    """Some normal subgroup containing both inputs with index two, if one exists."""
    _check_inside(G, U1, U2)
    want = 2 * U1.order()
    if U2.order() != U1.order():
        return None
    for n in G.normal_subgroups():
        if len(n) == want and U1.members <= n and U2.members <= n:
            return Subgroup(G, n)
    return None


def verify_prop_almost_conjugate(G: PermGroup):
    """Scan every index-two pair inside every normal subgroup.

    The normal subgroups and their index-two subgroups come from
    ``normal_subgroups`` and ``index_two_subgroups``, not from the subgroup
    lattice.  The class profile and induced character of each index-two
    subgroup are computed once; every pair still compares both, raising
    ``ContractError`` when they disagree, and only almost conjugate pairs
    are tested for conjugacy.

    Returns (True, None) when almost conjugate implies conjugate throughout,
    otherwise (False, counterexample pair).  No counterexample should ever
    exist; the scan is the verification.
    """
    for n in G.normal_subgroups():
        halves = G.index_two_subgroups(n)
        if len(halves) < 2:
            continue
        inside = [Subgroup(G, s) for s in halves]
        signatures = [_signature(G, u) for u in inside]
        for i, u1 in enumerate(inside):
            for j in range(i + 1, len(inside)):
                u2 = inside[j]
                if _signatures_agree(signatures[i], signatures[j]) and not are_conjugate(G, u1, u2):
                    return False, (u1, u2)
    return True, None

