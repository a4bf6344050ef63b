"""Finite local-global data of the base number field.

A field enters the engine through the places the user declares: real
places, a count of complex places, and the finite places that may carry
invariants.  Finite places are tagged with an isomorphism class of
completions (the "adelic class"); the field automorphisms that stabilize
the defining square class are supplied as permutations of the declared
places.  Orbits on coordinate vectors under those permutations, and under
arbitrary class-preserving permutations, are the two sides of every
uniformity condition downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ._util import Interned, natural_key
from .arith_equiv import DEFAULT_GROUP_CAP, Perm, generate
from .errors import CapacityError, ValidationError
from .invariants import LocalClass, PlaceKind

Coords = Tuple[Tuple["PlaceLabel", LocalClass], ...]


class HbarFiber(str, Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class PlaceLabel(Interned):
    id: str
    kind: PlaceKind
    adelic_class: Optional[str]

    @staticmethod
    def _reduce(id: str, kind: PlaceKind, adelic_class: Optional[str] = None):
        return id, kind, adelic_class

    def __post_init__(self):
        # unlabelled places sit in their own singleton class; the key is
        # formatted once per pooled label and is not part of its value
        key = self.adelic_class if self.adelic_class is not None else f"#{self.id}"
        object.__setattr__(self, "_class_key", key)

    def class_key(self) -> str:
        return self._class_key


@dataclass(frozen=True)
class FieldDescriptor:
    degree: int
    real_places: Tuple[PlaceLabel, ...] = ()
    complex_place_count: int = 0
    finite_places: Tuple[PlaceLabel, ...] = ()
    locally_determined: bool = True
    galois_over_q: bool = False
    hbar_fiber: HbarFiber = HbarFiber.UNKNOWN

    def __post_init__(self):
        # canonical place order throughout the engine
        object.__setattr__(
            self, "real_places",
            tuple(sorted(self.real_places, key=lambda p: natural_key(p.id))),
        )
        object.__setattr__(
            self, "finite_places",
            tuple(sorted(self.finite_places, key=lambda p: natural_key(p.id))),
        )

    def declared_ids(self) -> Tuple[str, ...]:
        return tuple(p.id for p in self.finite_places + self.real_places)


@dataclass(frozen=True)
class PlacePerm:
    """A permutation of place ids, stored by its moved points."""

    moved: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        image = dict(self.moved)
        if len(image) != len(self.moved) or image.keys() != set(image.values()):
            raise ValidationError([f"not a permutation: {self.moved}"])
        object.__setattr__(self, "moved", tuple(sorted((a, b) for a, b in self.moved if a != b)))
        object.__setattr__(self, "_image", image)  # not part of the value

    @staticmethod
    def from_mapping(mapping: Dict[str, str]) -> "PlacePerm":
        return PlacePerm(tuple(mapping.items()))

    @staticmethod
    def from_cycles(cycles: Iterable[Tuple[str, ...]]) -> "PlacePerm":
        mapping: Dict[str, str] = {}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in mapping:
                    raise ValidationError([f"place {a} occurs twice in cycle notation"])
                mapping[a] = b
        return PlacePerm.from_mapping(mapping)

    def apply(self, pid: str) -> str:
        return self._image.get(pid, pid)

    def cycles(self) -> Tuple[Tuple[str, ...], ...]:
        support = sorted({a for a, _ in self.moved}, key=natural_key)
        seen, out = set(), []
        for start in support:
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.apply(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.apply(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def __str__(self):
        if not self.moved:
            return "()"
        return "".join("(" + " ".join(c) + ")" for c in self.cycles())


@dataclass(frozen=True)
class PlaceSymmetry:
    """Generators of the square-class-stabilizing field automorphisms, as place permutations.

    Orbits are walked over the generators (``orbit_set``); only ``validate``
    lists the whole group, by ``group``, to read its order.  The places the
    generators move are numbered once, in place order: ``number`` maps each
    such place id to its number."""

    generators: Tuple[PlacePerm, ...] = ()

    def __post_init__(self):
        # one generator order, however they were declared, and each distinct
        # generator once, as a copy only adds steps to every orbit walk; one
        # that moves no place adds nothing to the group, and could not be emitted
        moving = {g for g in self.generators if g.moved}
        object.__setattr__(self, "generators", tuple(sorted(moving, key=lambda p: p.moved)))
        # neither the numbering nor the listed group is part of the value
        points = sorted({a for g in self.generators for a, _ in g.moved}, key=natural_key)
        object.__setattr__(self, "number", {p: i for i, p in enumerate(points)})
        object.__setattr__(self, "_group", None)

    def group(self) -> Tuple[Perm, ...]:
        """Every element of the generated group as an image tuple over the
        numbered places, sorted (so the identity first); listed once by
        ``arith_equiv.generate`` and then kept.  Raises CapacityError past
        ``DEFAULT_GROUP_CAP`` elements."""
        if self._group is None:
            images = [tuple(self.number[g.apply(p)] for p in self.number) for g in self.generators]
            identity = tuple(range(len(self.number)))
            object.__setattr__(self, "_group", tuple(sorted(generate(images, identity)[1])))
        return self._group


def validate(f: FieldDescriptor, s: PlaceSymmetry) -> None:
    """Check every field and symmetry invariant; raise ValidationError listing all failures."""
    issues = []
    if f.degree < 1:
        issues.append("degree must be positive")
    if f.complex_place_count < 0:
        issues.append("complex place count cannot be negative")
    ids = f.declared_ids()
    if len(set(ids)) != len(ids):
        issues.append("duplicate place ids")
    for p in f.finite_places:
        if not p.kind.is_finite:
            issues.append(f"place {p.id}: declared finite but kind is {p.kind.value}")
    for p in f.real_places:
        if not p.kind.is_real:
            issues.append(f"place {p.id}: declared real but kind is {p.kind.value}")
        if p.adelic_class is not None:
            issues.append(f"place {p.id}: real places carry no adelic class")
    by_class: Dict[str, PlaceKind] = {}
    for p in f.finite_places:
        k = by_class.setdefault(p.class_key(), p.kind)
        if k != p.kind:
            issues.append(
                f"place {p.id}: adelic class {p.class_key()} mixes split and non-split places"
            )
    if f.degree < len(f.real_places) + 2 * f.complex_place_count:
        issues.append("degree smaller than the declared infinite places allow")
    if f.galois_over_q:
        if f.hbar_fiber == HbarFiber.NONTRIVIAL:
            issues.append("a Galois base field always has trivial square-class fibers")
        if not f.locally_determined:
            issues.append("a Galois base field is locally determined")
        if f.real_places and len(f.real_places) != f.degree:
            issues.append("a Galois field is totally real or totally imaginary")
    if f.degree == 1:
        if len(f.real_places) != 1 or f.complex_place_count != 0:
            issues.append("a degree 1 field has exactly one real place and no complex ones")
        if not f.locally_determined:
            issues.append("a degree 1 field is locally determined")
        if any(g.moved for g in s.generators):
            issues.append("a degree 1 field has no nontrivial automorphisms")
        classes = [p.class_key() for p in f.finite_places]
        if len(set(classes)) != len(classes):
            issues.append("over the rationals all completions are pairwise non-isomorphic")
    declared = set(ids)
    label_of = {p.id: p for p in f.finite_places + f.real_places}
    for i, g in enumerate(s.generators, start=1):
        # every moved place is the source of one pair, so an undeclared one is
        # named once; a cycle is reported at its first step out of a kind or class
        off_kind, off_class = set(), set()
        for a, b in g.moved:
            if a not in declared:
                issues.append(f"generator {i}: moves undeclared place {a}")
                continue
            if b not in declared:
                continue
            pa, pb = label_of[a], label_of[b]
            if pa.kind != pb.kind and a not in off_kind:
                issues.append(f"generator {i}: maps {a} ({pa.kind.value}) to {b} ({pb.kind.value})")
                off_kind.update(next(c for c in g.cycles() if a in c))
            if pa.kind.is_finite and pa.class_key() != pb.class_key() and a not in off_class:
                issues.append(f"generator {i}: maps {a} outside its adelic class")
                off_class.update(next(c for c in g.cycles() if a in c))
    if not issues:
        try:
            order = len(s.group())
        except CapacityError:
            if f.degree >= DEFAULT_GROUP_CAP:  # so large a group may be genuine
                raise
            order = None  # more elements than the cap, so than the degree
        if order is None or order > f.degree:
            issues.append("symmetry group order exceeds the degree bound")
        elif f.degree % order != 0:
            issues.append(f"symmetry group order {order} does not divide degree {f.degree}")
    if issues:
        raise ValidationError(issues)


# ---------------------------------------------------------------------------
# coordinate vectors and orbits

def sort_coords(pairs: Iterable[Tuple[PlaceLabel, LocalClass]]) -> Coords:
    """Put coordinates in the field's place order; every later operation keeps it."""
    return tuple(sorted(pairs, key=lambda e: natural_key(e[0].id)))


def coords_key(coords: Coords):
    return tuple(cls.sort_key() for _, cls in coords)


def apply_perm(values: tuple, step) -> tuple:
    """One step of the orbit walk: ``step`` is the ``itemgetter`` of a generator's
    position map, whose entry i is the position whose value it pushes to i."""
    return step(values)


def orbit_set(starts: Sequence[Coords], s: PlaceSymmetry, fixing: Optional[str] = None) -> Set[tuple]:
    """The union of the orbits of vectors over one list of places under the
    group ``s`` generates, or under its elements fixing the place
    ``fixing``, as tuples of values in place order, unsorted.  The walk
    applies each generator's position map to each vector found (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 4.1): |orbit|
    times |generators| steps.  With ``fixing`` each vector carries a mark at
    the image of that place, and the vectors whose mark came back are kept:
    the pairs (gx, gw) form one orbit, so those make the stabilizer's orbit.
    A ValidationError names a place of the list that a generator moves
    outside it."""
    pos = {lab.id: i for i, (lab, _) in enumerate(starts[0])}
    n = len(pos)
    marks = [] if fixing is None else [fixing]  # then each place the generators move it to
    for p in marks:  # marks grows while it is read
        marks += [q for q in dict.fromkeys(g.apply(p) for g in s.generators) if q not in marks]
    at = {p: n + j for j, p in enumerate(marks)}  # place -> position of its mark
    steps = []
    for g in s.generators:
        src = list(range(n + len(marks)))
        for a, b in g.moved:
            if a in pos:
                if b not in pos:
                    raise ValidationError([f"permutation moves {a} outside the declared support"])
                src[pos[b]] = pos[a]
            if a in at:
                src[at[b]] = at[a]
        # one index would make itemgetter return a bare value; a generator
        # that stays in a list of at most one position fixes it
        steps.append(itemgetter(*src) if len(src) > 1 else tuple)
    seen = {tuple(cls for _, cls in x) + tuple(p == fixing for p in marks) for x in starts}
    todo = list(seen)
    for values in todo:  # todo grows while it is read
        for step in steps:
            image = apply_perm(values, step)
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return {x[:n] for x in seen if x[n]} if marks else seen


def global_orbit(coords: Coords, s: PlaceSymmetry, fixing: Optional[str] = None) -> Tuple[Coords, ...]:
    """The orbit of ``coords`` by ``orbit_set``, as coordinate vectors in canonical order."""
    labels = [lab for lab, _ in coords]
    orbit = [tuple(zip(labels, values)) for values in orbit_set([coords], s, fixing)]
    return tuple(sorted(orbit, key=coords_key))


def _class_symmetry(starts: Sequence[Coords]) -> PlaceSymmetry:
    """A transposition of the first two places and a cycle through all the
    places of each adelic class in which some start vector holds two or more
    values: together they generate every permutation within those classes."""
    at: Dict[str, List[int]] = {}  # class -> the positions of its places
    for i, (lab, _) in enumerate(starts[0]):
        if lab.kind.is_finite:
            at.setdefault(lab.class_key(), []).append(i)
    walked = [[starts[0][i][0].id for i in pos] for pos in at.values()
              if len(pos) > 1 and any(len({x[i][1] for i in pos}) > 1 for x in starts)]
    return PlaceSymmetry(tuple(PlacePerm.from_cycles([c]) for ids in walked for c in (ids[:2], ids)))


def adelic_orbit(coords: Coords) -> Tuple[Coords, ...]:
    """All vectors obtained by permuting coordinates within each adelic class.

    The values themselves never move between classes: isomorphisms of
    completions act trivially on the local invariants, so only the
    placement within a class is free.  One ``orbit_set`` walk under
    ``_class_symmetry`` lists them.  Output order is canonical and
    independent of how the places were declared.
    """
    return global_orbit(coords, _class_symmetry([coords]))
