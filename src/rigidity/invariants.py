"""Cartan-Killing types and the local invariant algebra.

For every included type this module knows the relevant finite abelian
groups: the global dual target attached to the center of the quasi-split
form, the local second cohomology group of the center at each kind of
place, the local component of the global duality homomorphism, and the
action of the diagram symmetry on local and global classes.  All groups
are cyclic, trivial, or the Klein four group, so everything is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Tuple, Union

from ._util import Interned, _memo
from .errors import ContractError, OutOfScopeError


class Family(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"
    F4 = "F4"
    G2 = "G2"


FIXED_RANKS = {Family.E6: 6, Family.E7: 7, Family.E8: 8, Family.F4: 4, Family.G2: 2}


class FormKind(str, Enum):
    INNER = "inner"
    OUTER = "outer"


class PlaceKind(str, Enum):
    """Kind of a place of the base field, from the group's point of view.

    A place is "inner" when the group is of inner type over that
    completion: always for globally inner forms, and exactly at the
    places split in the defining quadratic extension for outer forms.
    Complex places carry no cohomology at all.
    """

    FINITE_INNER = "finite_inner"
    FINITE_OUTER = "finite_outer"
    REAL_INNER = "real_inner"
    REAL_OUTER = "real_outer"
    COMPLEX = "complex"

    def __init__(self, value: str):
        # stored once per member: a property would look the members up on every read
        self.is_finite = value.startswith("finite")
        self.is_real = value.startswith("real")


@dataclass(frozen=True, eq=False)
class GroupType(Interned):
    """A simple type: family, Cartan-Killing rank, and inner/outer kind."""

    family: Family
    rank: int
    form_kind: FormKind

    @staticmethod
    def _reduce(family: Family, rank: int, form_kind: FormKind = FormKind.INNER):
        if family == Family.A and rank < 1:
            raise ValueError("type A needs rank >= 1")
        if family in (Family.B, Family.C) and rank < 2:
            raise ValueError(f"type {family.value} needs rank >= 2")
        if family == Family.D and rank < 4:
            raise ValueError("type D needs rank >= 4 (and rank 4 is out of scope)")
        if family == Family.D and rank == 4:
            raise OutOfScopeError(D4_OUT_OF_SCOPE)
        if family in FIXED_RANKS and rank != FIXED_RANKS[family]:
            raise ValueError(f"type {family.value} has fixed rank {FIXED_RANKS[family]}")
        if form_kind == FormKind.OUTER and not has_symmetry(GroupType(family, rank)):
            raise ValueError(f"no outer forms of type {family.value}{rank}")
        return family, rank, form_kind

    @property
    def is_outer(self) -> bool:
        return self.form_kind == FormKind.OUTER

    def symbol(self) -> str:
        prefix = ""
        if has_symmetry(self):
            prefix = "2" if self.is_outer else "1"
        if self.family in FIXED_RANKS:
            return f"{prefix}{self.family.value}"
        return f"{prefix}{self.family.value}{self.rank}"

    def inner_twin(self) -> "GroupType":
        return GroupType(self.family, self.rank, FormKind.INNER)


# what ``GroupType`` raises for D4; as a file's only parse error, it makes
# ``rigidity classify`` answer OutOfScope rather than fail
D4_OUT_OF_SCOPE = "triality type D4 is out of scope"


def has_symmetry(t: GroupType) -> bool:
    """Whether the Dynkin diagram of the type has a nontrivial symmetry (order 2)."""
    return (
        (t.family == Family.A and t.rank >= 2)
        or (t.family == Family.D and t.rank >= 5)
        or t.family == Family.E6
    )


# ---------------------------------------------------------------------------
# abelian group shapes and their elements

@dataclass(frozen=True, eq=False)
class Shape(Interned):
    """Trivial, cyclic of order ``modulus``, or Klein (Z/2 x Z/2)."""

    kind: str  # "trivial" | "cyclic" | "klein"
    modulus: int

    @staticmethod
    def _reduce(kind: str, modulus: int = 1):
        if kind not in ("trivial", "cyclic", "klein"):
            raise ValueError(f"bad shape kind {kind!r}")
        if kind == "cyclic" and modulus < 2:
            raise ValueError("cyclic shape needs modulus >= 2; use TRIVIAL for order 1")
        return kind, modulus

    def __str__(self):
        if self.kind == "trivial":
            return "0"
        if self.kind == "klein":
            return "Z/2 x Z/2"
        return f"Z/{self.modulus}"


TRIVIAL = Shape("trivial")
KLEIN = Shape("klein")


@_memo
def cyclic(m: int) -> Shape:
    if m < 1:
        raise ValueError("modulus must be positive")
    return TRIVIAL if m == 1 else Shape("cyclic", m)


Value = Union[None, int, Tuple[int, int]]


@dataclass(frozen=True, eq=False)
class LocalClass(Interned):
    """An element of a local or global invariant group, reduced mod its shape."""

    shape: Shape
    value: Value

    @staticmethod
    def _reduce(shape: Shape, value: Value = None):
        if shape.kind == "trivial":
            return shape, None
        if shape.kind == "cyclic":
            if not isinstance(value, int):
                raise ContractError(f"cyclic class needs an integer value, got {value!r}")
            return shape, value % shape.modulus
        if not (isinstance(value, tuple) and len(value) == 2):
            raise ContractError(f"klein class needs a bit pair, got {value!r}")
        return shape, (value[0] % 2, value[1] % 2)

    @property
    def is_zero(self) -> bool:
        return self.value in (None, 0, (0, 0))

    def __add__(self, other: "LocalClass") -> "LocalClass":
        if self.shape != other.shape:
            raise ContractError(f"cannot add classes of shapes {self.shape} and {other.shape}")
        if self.shape.kind == "trivial":
            return self
        if self.shape.kind == "cyclic":
            return LocalClass(self.shape, self.value + other.value)
        return LocalClass(self.shape, (self.value[0] + other.value[0], self.value[1] + other.value[1]))

    def __neg__(self) -> "LocalClass":
        if self.shape.kind == "cyclic":
            return LocalClass(self.shape, -self.value)
        return self  # trivial and klein are 2-torsion

    def sort_key(self):
        if self.shape.kind == "trivial":
            return (0, 0)
        if self.shape.kind == "cyclic":
            return (self.value, 0)
        return self.value

    def __str__(self):
        if self.shape.kind == "trivial":
            return "0"
        if self.shape.kind == "klein":
            return f"({self.value[0]},{self.value[1]})"
        return f"{self.value}"


def zero(shape: Shape) -> LocalClass:
    if shape.kind == "trivial":
        return LocalClass(shape, None)
    if shape.kind == "cyclic":
        return LocalClass(shape, 0)
    return LocalClass(shape, (0, 0))


def shape_elements(shape: Shape) -> Iterator[LocalClass]:
    """All elements of a shape, in a fixed order.  Meant for exhaustive tests."""
    if shape.kind == "trivial":
        yield LocalClass(shape, None)
    elif shape.kind == "cyclic":
        for v in range(shape.modulus):
            yield LocalClass(shape, v)
    else:
        for a in range(2):
            for b in range(2):
                yield LocalClass(shape, (a, b))


# ---------------------------------------------------------------------------
# the tables

@_memo
def center_shape(t: GroupType) -> Shape:
    """Shape of the global dual target attached to the center of the quasi-split form."""
    if not t.is_outer:
        return _inner_finite_shape(t.family, t.rank)
    if t.family == Family.A:
        return cyclic(2) if t.rank % 2 == 1 else TRIVIAL
    return cyclic(2) if t.family == Family.D else TRIVIAL  # 2E6


def _inner_finite_shape(f: Family, r: int) -> Shape:
    if f == Family.A:
        return cyclic(r + 1)
    if f in (Family.B, Family.C, Family.E7):
        return cyclic(2)
    if f == Family.D:
        return KLEIN if r % 2 == 0 else cyclic(4)
    if f == Family.E6:
        return cyclic(3)
    return TRIVIAL  # E8, F4, G2: trivial center forces the zero object


def _inner_real_shape(f: Family, r: int) -> Shape:
    if f == Family.A:
        return cyclic(2) if r % 2 == 1 else TRIVIAL
    if f in (Family.B, Family.C, Family.E7):
        return cyclic(2)
    if f == Family.D:
        return KLEIN if r % 2 == 0 else cyclic(2)
    return TRIVIAL  # E6, E8, F4, G2


@_memo
def h2_local(t: GroupType, kind: PlaceKind) -> Shape:
    """Shape of the local second cohomology of the center at a place of the given kind.

    At places where an outer form becomes inner the local group is the one
    of the corresponding inner type, which strictly enlarges the group seen
    at non-split places.
    """
    if kind == PlaceKind.COMPLEX:
        return TRIVIAL
    if kind in (PlaceKind.FINITE_OUTER, PlaceKind.REAL_OUTER):
        if not t.is_outer:
            raise ContractError(f"{t.symbol()} is an inner form; it has no outer places")
        f, r = t.family, t.rank
        if f == Family.A:
            return cyclic(2) if r % 2 == 1 else TRIVIAL
        if f == Family.D:
            if kind == PlaceKind.REAL_OUTER and r % 2 == 0:
                return TRIVIAL
            return cyclic(2)
        return TRIVIAL  # outer E6
    if kind == PlaceKind.FINITE_INNER:
        return _inner_finite_shape(t.family, t.rank)
    return _inner_real_shape(t.family, t.rank)


@_memo
def c_local(t: GroupType, kind: PlaceKind, x: LocalClass) -> LocalClass:
    """Local component of the global duality map, into ``center_shape(t)``."""
    source = h2_local(t, kind)
    if x.shape != source:
        raise ContractError(
            f"class of shape {x.shape} given where {t.symbol()} at {kind.value} carries {source}"
        )
    target = center_shape(t)
    if target.kind == "trivial" or source.kind == "trivial" or kind == PlaceKind.COMPLEX:
        return zero(target)
    f, r = t.family, t.rank
    if not t.is_outer:
        if kind == PlaceKind.FINITE_INNER:
            return LocalClass(target, x.value)
        # real place of an inner form
        if f == Family.A:  # odd rank only; even rank has trivial real source
            return LocalClass(target, x.value * ((r + 1) // 2))
        if f == Family.D and r % 2 == 1:
            return LocalClass(target, 2 * x.value)
        return LocalClass(target, x.value)  # B, C, E7, even D: identity
    # outer form
    if kind in (PlaceKind.FINITE_OUTER, PlaceKind.REAL_OUTER):
        return LocalClass(target, x.value)
    # split place of an outer form: collapse the inner group onto the small target
    if f == Family.A:
        return LocalClass(target, x.value % 2)
    # outer type D: outer E6 has a trivial center, so it returned above
    if r % 2 == 0:
        return LocalClass(target, x.value[0] + x.value[1])
    return LocalClass(target, x.value % 2)


@_memo
def sym_act(t: GroupType, kind: PlaceKind, x: LocalClass) -> LocalClass:
    """Action of the nontrivial diagram symmetry on a local class.

    Negation on cyclic groups, the factor swap on Klein groups, the
    identity where there is no symmetry; on Z/2 negation degenerates to
    the identity, matching the fact that split places of outer forms of
    odd D and odd A carry no local symmetry data in their small groups.
    """
    source = h2_local(t, kind)
    if x.shape != source:
        raise ContractError(f"class shape {x.shape} does not match local shape {source}")
    if not has_symmetry(t) or source.kind == "trivial":
        return x
    if source.kind == "klein":
        return LocalClass(source, (x.value[1], x.value[0]))
    return -x


def count_local_forms(t: GroupType, square_class_count: int) -> int:
    """Number of local forms at a finite place with the given square class count.

    Symmetry orbits of the inner local group, plus one extra layer of
    quasi-split-and-twisted forms for every nontrivial square class when
    the type admits outer forms.
    """
    if square_class_count < 1:
        raise ContractError("square class count must be positive")
    inner = t.inner_twin()
    shape = h2_local(inner, PlaceKind.FINITE_INNER)
    seen = set()
    orbits = 0
    for x in shape_elements(shape):
        if x in seen:
            continue
        orbits += 1
        seen.add(x)
        seen.add(sym_act(inner, PlaceKind.FINITE_INNER, x))
    f, r = t.family, t.rank
    if (f == Family.A and r >= 3 and r % 2 == 1) or (f == Family.D and r >= 5):
        m = 2
    elif (f == Family.A and r % 2 == 0) or f == Family.E6:
        m = 1
    else:
        m = 0
    return orbits + m * (square_class_count - 1)
