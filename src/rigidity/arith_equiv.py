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

A group is listed once, as sorted tuples of degree points, and from then on
``PermGroup`` runs the checks on element numbers: element i is the i-th of
the sorted list, each generator has its right, left and inverse conjugation
tables of |G| numbers, every other left factor gets a column of |G| numbers
while the kept columns have room and multiplies by tuple products past it,
and subgroups are frozensets of numbers.  One coset walk (Dimino's algorithm,
``_adjoin``, from a generating tuple ``generate`` takes greedily) lists
the group and spans its subgroups alike, as ``_powers`` lists the powers of
one element: each steps by a generator x, y -> yx by ``_times(x)`` on
tuples and y -> xy by ``PermGroup.left(x)`` on numbers.  Each fact about a
group is cached once, on numbers; the public functions take and return
tuples and convert at the boundary.  ``PermGroup.subgroups`` stays on
tuples, as the reference lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import CapacityError, ContractError

Perm = Tuple[int, ...]

# Largest group order ``generate`` lists, for catalog groups and field
# automorphisms alike.
DEFAULT_GROUP_CAP = 10080

# Most normal subgroups one group may list; (Z/2)^n has about 2^(n^2/4).
NORMAL_SUBGROUP_LIMIT = 512

# Most numbers the columns kept for left factors other than the generators
# hold, 8 MiB of list slots: all |G| columns up to order 1,024, 2^20/|G| past it.
KEPT_COLUMN_ENTRIES = 1 << 20


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


Members = FrozenSet[int]


def _spanning_tree(tables: Sequence[List[int]], n: int) -> List[Tuple[int, int, int]]:
    """(y, x, k) with y = tables[k][x], once for each of the n elements y but
    the identity 0, breadth first from it, so each x comes before it is used."""
    seen = bytearray(n)
    seen[0] = 1
    order, tree = [0], []
    for x in order:  # order grows while it is read
        for k, table in enumerate(tables):
            y = table[x]
            if not seen[y]:
                seen[y] = 1
                order.append(y)
                tree.append((y, x, k))
    return tree


def _along(tree: List[Tuple[int, int, int]], tables: Sequence[List[int]], a: int) -> List[int]:
    """f with f(0) = a and f(y) = tables[k][f(x)] on every edge (y, x, k) of
    ``tree``: the map that commutes with every table and takes 0 to a."""
    f = [a] * (len(tree) + 1)
    for y, x, k in tree:
        f[y] = tables[k][f[x]]
    return f


class PermGroup:
    """A finite permutation group, listed once and then worked on by element
    number.

    Element i is ``elements()[i]``.  The list is sorted, so index order is
    element order, every sorted output comes out as it would on tuples, and
    the identity, the least permutation, is 0.  Listing the group also
    builds its tables: each generator s has three of |G| numbers, x -> xs,
    x -> sx (its column) and x -> s^-1xs.  Every other left factor x gets
    its column y -> xy the first time ``left`` is asked for it; all columns
    are filled along one spanning tree of right multiplications by the
    generators, since x(yt) = (xy)t.  The columns kept hold at most
    ``KEPT_COLUMN_ENTRIES`` numbers; past that room it multiplies by one
    tuple product for each element, so a large group never builds its |G|^2
    product table.  Subgroups are frozensets of numbers, spanned by the coset
    walk that lists the group (``generate``, ``_adjoin``), with ``left`` as
    its step.  The classes, the normal subgroups and the squares are cached
    once, on numbers; ``conjugacy_classes``, ``normal_subgroups`` and
    ``index_two_subgroups`` convert to tuples on each call.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], name: str = ""):
        self.degree = degree
        self.name = name
        self.generators = [tuple(g) for g in generators]
        for g in self.generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ContractError(f"not a permutation of degree {degree}: {g}")
        self._elements: Optional[List[Perm]] = None
        self._classes: Optional[List[List[int]]] = None
        self._normal: Optional[List[Members]] = None
        self._squares: Optional[List[int]] = None

    @property
    def identity(self) -> Perm:
        return tuple(range(self.degree))

    def elements(self) -> List[Perm]:
        """The sorted element list; listing it also builds the tables."""
        if self._elements is None:
            elements = sorted(generate(self.generators, self.identity)[1])
            self.pos: Dict[Perm, int] = {x: i for i, x in enumerate(elements)}
            distinct = list(dict.fromkeys(self.generators))
            gens = [self.pos[s] for s in distinct]
            # x -> xs, and the tree that columns and conjugators are walked along
            self.rights = [list(map(self.pos.__getitem__, map(_times(s), elements))) for s in distinct]
            self.tree = _spanning_tree(self.rights, len(elements))
            # x -> sx along the tree, since s(yt) = (sy)t
            lefts = [_along(self.tree, self.rights, s) for s in gens]
            self.columns: Dict[int, List[int]] = dict(zip(gens, lefts))
            self._room = KEPT_COLUMN_ENTRIES
            # x -> s^-1xs: s^-1x, the inverse of x -> sx, then times s
            self.conjs = [list(map(right.__getitem__, perm_inv(left)))
                          for left, right in zip(lefts, self.rights)]
            self._elements = elements
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, p: Perm) -> bool:
        self.elements()
        return p in self.pos

    def numbers(self, perms: Iterable[Perm]) -> Members:
        """The element numbers of ``perms``; ContractError if one is not in the group."""
        self.elements()
        try:
            return frozenset(map(self.pos.__getitem__, perms))
        except KeyError:
            raise ContractError("subgroup element outside the ambient group") from None

    def perms(self, members: Members) -> FrozenSet[Perm]:
        return frozenset(map(self._elements.__getitem__, members))

    def conjugacy_classes(self) -> List[Tuple[Perm, ...]]:
        """Partition of the element list into conjugacy classes, canonically
        sorted (``classes``)."""
        return [tuple(map(self._elements.__getitem__, c)) for c in self.classes()]

    def subgroups(self) -> List[FrozenSet[Perm]]:
        """Every subgroup, sorted by order and then by elements: the reference lattice.

        Each known subgroup is joined with one cyclic subgroup at a time
        (``_adjoin`` from its generating tuple), which takes seconds from
        order 168 on; every call builds the lattice again.  Nothing in the
        package calls it.  It stays on tuples, off the element numbers, as
        the independent oracle the tests compare ``normal_subgroups`` and
        ``index_two_subgroups`` with, and for the bench tracer.
        """
        e = self.identity
        cyclics: Dict[FrozenSet[Perm], Perm] = {}
        for x in self.elements():
            cyclics.setdefault(frozenset(_powers(x, _times(x), e)), x)
        trivial = frozenset([e])
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
                    key = _adjoin(sub, list(map(_times, new_gens)))
                    if key not in known:
                        known[key] = new_gens
                        nxt.append(key)
            frontier = nxt
        return sorted(known, key=lambda s: (len(s), sorted(s)))

    def normal_subgroups(self) -> List[FrozenSet[Perm]]:
        """Every normal subgroup, in the order of ``subgroups()``
        (``normals``); CapacityError past ``NORMAL_SUBGROUP_LIMIT``."""
        return [self.perms(n) for n in self.normals()]

    def index_two_subgroups(self, n: FrozenSet[Perm]) -> List[FrozenSet[Perm]]:
        """The subgroups of index two in the subgroup ``n``, in the order of
        ``subgroups()`` (``halves``)."""
        return [self.perms(h) for h in self.halves(self.numbers(n))]

    def left(self, x: int) -> Callable[[int], int]:
        """y -> xy.  A kept column is looked up; failing that, while there is
        room, x's column is built along the tree of right multiplications,
        since x(yt) = (xy)t, and kept.  Past the room each product is one
        tuple product."""
        col = self.columns.get(x)
        if col is None and self._room >= len(self._elements):
            col = self.columns[x] = _along(self.tree, self.rights, x)
            self._room -= len(col)
        if col is not None:
            return col.__getitem__
        p, elements, pos = self._elements[x], self._elements, self.pos
        return lambda y: pos[perm_mul(p, elements[y])]

    def squares(self) -> List[int]:
        """x -> xx."""
        if self._squares is None:
            self._squares = [self.pos[_times(x)(x)] for x in self._elements]
        return self._squares

    def classes(self) -> List[List[int]]:
        """The conjugacy classes, orbits under the conjugation tables, each
        sorted and listed by (size, least element)."""
        if self._classes is None:
            n = len(self.elements())
            seen = bytearray(n)
            classes = []
            for rep in range(n):
                if seen[rep]:
                    continue
                seen[rep] = 1
                orbit = [rep]
                for x in orbit:  # orbit grows while it is read
                    for conj in self.conjs:
                        y = conj[x]
                        if not seen[y]:
                            seen[y] = 1
                            orbit.append(y)
                classes.append(sorted(orbit))
            classes.sort(key=lambda c: (len(c), c[0]))
            self.class_of = [0] * n
            for i, c in enumerate(classes):
                for x in c:
                    self.class_of[x] = i
            self.rep_class = {c[0]: i for i, c in enumerate(classes)}
            self._classes = classes
        return self._classes

    def normals(self) -> List[Members]:
        """Every normal subgroup, sorted by order and then by elements.

        The subgroup a conjugacy class generates is normal, and every normal
        subgroup is a join of such class subgroups.  Starting from the class
        subgroups, each normal subgroup found is joined with every class
        subgroup that neither contains it nor lies in it.  It is normal, so
        the join is the union of its cosets that the class subgroup's
        generating tuple reaches.  A class of the powers x^k, with k prime to
        the order of x, of a class spanned before generates the same subgroup
        and is not spanned again.  Before each join pass it raises
        ``CapacityError`` once more than ``NORMAL_SUBGROUP_LIMIT`` are known.
        """
        if self._normal is None:
            trivial = frozenset([0])
            spans: Dict[Members, Tuple[int, ...]] = {}  # class subgroup -> generators
            classes = self.classes()
            same = bytearray(len(classes))  # classes that generate a subgroup spanned before
            for i, cls in enumerate(classes):
                if cls[0] == 0 or same[i]:
                    continue
                powers = _powers(cls[0], self.left(cls[0]), 0)
                gens, sub = generate(cls, 0, self.left)
                spans.setdefault(sub, gens)
                for k in range(2, len(powers)):
                    if gcd(k, len(powers)) == 1:
                        same[self.class_of[powers[k]]] = 1
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
                        join = _adjoin(n, list(map(self.left, gens)))
                        if join not in known:
                            known.add(join)
                            nxt.append(join)
                frontier = nxt
            self._normal = sorted(known, key=lambda s: (len(s), sorted(s)))
        return self._normal

    def halves(self, n: Members) -> List[Members]:
        """The subgroups of index two in the subgroup ``n``, sorted by elements.

        Each contains every square, so they are the preimages of the
        hyperplanes of the elementary abelian quotient of ``n`` by the
        subgroup its squares generate.  Every element gets its coordinates in
        a basis of that quotient as a bit mask, and each nonzero functional,
        itself a mask f, keeps the elements whose mask meets f in an even
        number of bits: 2^d - 1 subgroups for a quotient of rank d.
        """
        if len(n) % 2:
            return []
        squares = self.squares()
        _, sub = generate(sorted({squares[x] for x in n}), 0, self.left)
        coords = dict.fromkeys(sub, 0)
        bit = 1
        for x in n:
            if x not in coords:
                # the known part is a subgroup holding the squares, so normal in n
                step = self.left(x)
                coords.update([(step(y), c | bit) for y, c in coords.items()])
                bit <<= 1
        halves = [frozenset(x for x, c in coords.items() if not (c & f).bit_count() % 2)
                  for f in range(1, bit)]
        return sorted(halves, key=sorted)

    def profile(self, members: Members) -> Tuple[int, ...]:
        """How many members each conjugacy class holds."""
        counts = [0] * len(self.classes())
        class_of = self.class_of
        for x in members:
            counts[class_of[x]] += 1
        return tuple(counts)

    def induced(self, members: Members) -> Tuple[int, ...]:
        """Value on each conjugacy class of the character induced from the
        trivial one on U = ``members``: the number of right cosets Ux that the
        class representative fixes, computed without the class profile.

        r fixes Ux exactly when r lies in its stabilizer x^-1Ux.  The walk
        starts at U, its own stabilizer, and reaches every right coset from
        one found before: (Ux)s by the table x -> xs, and its stabilizer
        s^-1(x^-1Ux)s by the table x -> s^-1xs.  Each coset adds one to the
        class of every representative its stabilizer holds: about 3|G|
        lookups in all, and none per class.
        """
        self.classes()
        rep_class = self.rep_class
        is_rep = rep_class.__contains__
        steps = list(zip(self.rights, self.conjs))
        values = [0] * len(rep_class)
        seen = set(members)
        walk = [(list(members), list(members))]  # (coset, its stabilizer)
        while walk:
            coset, stab = walk.pop()
            for r in filter(is_rep, stab):
                values[rep_class[r]] += 1
            x = coset[0]
            for right, conj in steps:
                if right[x] not in seen:
                    new = list(map(right.__getitem__, coset))
                    seen.update(new)
                    walk.append((new, list(map(conj.__getitem__, stab))))
        return tuple(values)

    def conjugates_into(self, xs: Sequence[int], target: Members) -> bool:
        """Whether some g conjugates every element of ``xs`` into ``target``.

        The walk follows the spanning tree: if y = zs then y^-1xy is
        s^-1(z^-1xz)s, one lookup in s's table x -> s^-1xs for each x."""
        if target.issuperset(xs):
            return True
        images: List[Optional[List[int]]] = [None] * len(self._elements)
        images[0] = list(xs)
        conjs = self.conjs
        for y, x, k in self.tree:
            image = list(map(conjs[k].__getitem__, images[x]))
            if target.issuperset(image):
                return True
            images[y] = image
        return False


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its element set, verified at construction through
    a generating tuple taken from its members in element order (``generate``
    on element numbers).  The tuple is kept as ``generators``, which is not
    part of the value."""

    group: PermGroup = field(compare=False)
    members: FrozenSet[Perm] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.group.identity not in self.members:
            raise ContractError("subgroup must contain the identity")
        G = self.group
        numbers = G.numbers(self.members)
        gens, _ = generate(sorted(numbers), 0, G.left, numbers)
        object.__setattr__(self, "generators", tuple(map(G.elements().__getitem__, gens)))
        object.__setattr__(self, "_numbers", (numbers, gens))

    def order(self) -> int:
        return len(self.members)


def _numbered(G: PermGroup, U: Subgroup) -> Tuple[Members, Tuple[int, ...]]:
    """U's members and generators as element numbers of ``G``; ContractError
    unless U lies in ``G``."""
    if U.group is G:
        return U._numbers
    members = G.numbers(U.members)
    return members, tuple(map(G.pos.__getitem__, U.generators))


def _signature(G: PermGroup, members: Members) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Class profile and induced character."""
    return G.profile(members), G.induced(members)


def _signatures_agree(sig1, sig2) -> bool:
    """Equal class profiles, cross-checked against equal induced characters."""
    by_profile = sig1[0] == sig2[0]
    by_character = sig1[1] == sig2[1]
    if by_profile != by_character:
        raise ContractError(
            "class profiles and induced characters disagree; this cannot happen"
        )
    return by_profile


def almost_conjugate(G: PermGroup, U1: Subgroup, U2: Subgroup) -> bool:
    """Equal class intersection profiles, cross-checked against induced characters."""
    a, _ = _numbered(G, U1)
    b, _ = _numbered(G, U2)
    if len(a) != len(b):
        return False
    return _signatures_agree(_signature(G, a), _signature(G, b))


def are_conjugate(G: PermGroup, U1: Subgroup, U2: Subgroup) -> bool:
    """Whether some element of ``G`` conjugates U1 onto U2.  g<X>g^-1 is
    generated by gXg^-1, so it lies in U2 when they do; conjugation is
    injective and the orders agree, so inside is equality.  Only U1's
    generators are conjugated (``PermGroup.conjugates_into``)."""
    a, gens = _numbered(G, U1)
    b, _ = _numbered(G, U2)
    if len(a) != len(b):
        return False
    return G.conjugates_into(gens, b)


def common_normal_index2(G: PermGroup, U1: Subgroup, U2: Subgroup) -> Optional[Subgroup]:
    """Some normal subgroup containing both inputs with index two, if one exists."""
    a, _ = _numbered(G, U1)
    b, _ = _numbered(G, U2)
    if len(a) != len(b):
        return None
    for n in G.normals():
        if len(n) == 2 * len(a) and a <= n and b <= n:
            return Subgroup(G, G.perms(n))
    return None


def verify_prop_almost_conjugate(G: PermGroup):
    """Scan every index-two pair inside every normal subgroup.

    The normal subgroups and their index-two subgroups come from
    ``PermGroup.normals`` and ``PermGroup.halves``, not from the subgroup
    lattice, and stay sets of element numbers.  Each is checked to be closed
    as ``Subgroup`` checks a set, and its class profile and induced character
    are computed once; every pair still compares both, raising
    ``ContractError`` when they disagree, and only almost conjugate pairs are
    tested for conjugacy (``PermGroup.conjugates_into`` on generators).

    Returns (True, None) when almost conjugate implies conjugate throughout,
    otherwise (False, a counterexample pair of ``Subgroup``s).  No
    counterexample should ever exist; the scan is the verification.
    """
    for n in G.normals():
        halves = G.halves(n)
        if len(halves) < 2:
            continue
        gens = [generate(sorted(h), 0, G.left, h)[0] for h in halves]
        signatures = [_signature(G, h) for h in halves]
        for i, h in enumerate(halves):
            for j in range(i + 1, len(halves)):
                if (_signatures_agree(signatures[i], signatures[j])
                        and not G.conjugates_into(gens[i], halves[j])):
                    return False, (Subgroup(G, G.perms(h)), Subgroup(G, G.perms(halves[j])))
    return True, None
