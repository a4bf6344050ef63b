"""Real forms and their Galois cohomology bookkeeping.

Each named simply connected real form has one row in ``_FORMS``: its
printed name, its type, the size of its first cohomology set, the size of
the first cohomology of its center, the component count of its adjoint
group, and the class it pins at a real place.  The kernel order of the map
into adjoint cohomology derives from those.  The single bit the classifier
consumes is whether that map has trivial image: real places whose form
fails this gate always admit a locally invisible replacement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .errors import CapacityError, ContractError, MissingRealClassError
from .invariants import (
    Family,
    GroupType,
    LocalClass,
    PlaceKind,
    Value,
    h2_local,
    zero,
)

DELTA_TABLE = (
    (3, 2, 2, 2),
    (2, 1, 1, 0),
    (2, 1, 0, 0),
    (2, 0, 0, 0),
)


def delta(r: int, s: int) -> int:
    if r < 0 or s < 0:
        raise ContractError("delta takes nonnegative arguments")
    return DELTA_TABLE[r % 4][s % 4]


def _spin_signature(r: int, s: int) -> Tuple[Family, int, bool]:
    total = r + s
    if total % 2 == 1:
        return Family.B, (total - 1) // 2, False
    m = total // 2
    return Family.D, m, r % 2 != m % 2


def _su_stats(r: int, s: int) -> Tuple[int, int, int]:
    return r // 2 + s // 2 + 1, 2 if (r + s) % 2 == 0 else 1, 2 if r == s else 1


def _spin_stats(r: int, s: int) -> Tuple[int, int, int]:
    if (r + s) % 4 == 0:
        z = 4 if r % 2 == 0 else 1
    else:
        z = 2
    if r * s == 0 or (r % 2 == 1 and s % 2 == 1 and r != s):
        pi0 = 1
    elif r == s and r % 2 == 0:
        pi0 = 4
    else:
        pi0 = 2
    return (r + s) // 4 + delta(r, s), z, pi0


def _su_pin(r: int, s: int) -> Value:
    return ((r - s) // 2) % 2 if (r + s) % 2 == 0 else 0


def _spin_pin(r: int, s: int) -> Value:
    if abs(r - s) <= 2:
        return 0  # split and quasi-split spin forms sit at the base point
    if (r, s) in ((4, 1), (5, 0)):
        return 1  # accidental isomorphisms with compact-type symplectic forms
    return None


def _spin_star_pin(n: int) -> Value:
    return (1, 0) if (n // 2) % 2 == 0 else None


class _Form(NamedTuple):
    """A named real form; an entry that varies is a function of the parameters."""

    pattern: str  # the printed name, one ``{}`` per parameter
    signature: object  # (family, rank, outer over the reals)
    stats: object  # (|H^1|, |H^1 of the center|, adjoint components)
    pin: object  # the class value pinned at a real place (0 is the base point), or None


_FORMS = {
    "SL_R": _Form("SL({},R)", lambda n: (Family.A, n - 1, False),
                  lambda n: (1, 2, 2) if n % 2 == 0 else (1, 1, 1), 0),
    "SL_H": _Form("SL({},H)", lambda n: (Family.A, 2 * n - 1, False), (2, 2, 1), 1),
    "SU": _Form("SU({},{})", lambda r, s: (Family.A, r + s - 1, True), _su_stats, _su_pin),
    "Spin": _Form("Spin({},{})", _spin_signature, _spin_stats, _spin_pin),
    "SpinStar": _Form("Spin*({})", lambda n: (Family.D, n // 2, n // 2 % 2 == 1),
                      lambda n: (2, 4, 2) if n // 2 % 2 == 0 else (2, 2, 1), _spin_star_pin),
    "Sp_R": _Form("Sp({},R)", lambda n: (Family.C, n // 2, False), (1, 2, 2), 0),
    "Sp": _Form("Sp({},{})", lambda r, s: (Family.C, r + s, False),
                lambda r, s: (r + s + 1, 2, 2), 1),
    "E7_split": _Form("E7 split", (Family.E7, 7, False), (2, 2, 2), 0),
    "E7_quaternionic": _Form("E7 quaternionic", (Family.E7, 7, False), (4, 2, 1), 1),
    "E7_hermitian": _Form("E7 hermitian", (Family.E7, 7, False), (2, 2, 2), 0),
    "E7_compact": _Form("E7 compact", (Family.E7, 7, False), (4, 2, 1), 1),
}
NAMED = tuple(_FORMS)
GENERIC = ("SplitForm", "CompactForm", "AnisotropicOther")


def _entry(entry, params: Tuple[int, ...]):
    return entry(*params) if callable(entry) else entry


# the tags that name a real form of each family: each named row under every
# family its signature gives (a spin form's follows the parity of its
# parameters, so small ones show both), and the generic tags where the rows
# leave forms unnamed: in B, in every family no row gives, and D's anisotropic forms
_ALLOWED_TAGS = {fam: {name for name, form in _FORMS.items()
                       for params in itertools.product((1, 2), repeat=form.pattern.count("{}"))
                       if _entry(form.signature, params)[0] == fam} for fam in Family}
for _fam, _tags in _ALLOWED_TAGS.items():
    _tags.update(GENERIC if _fam == Family.B or not _tags else
                 ["AnisotropicOther"] if _fam == Family.D else [])


@dataclass(frozen=True)
class RealFormTag:
    """A simply connected real form, by name and parameters.

    Named tags carry their parameters; the generic tags (``SplitForm``,
    ``CompactForm``, ``AnisotropicOther``) carry the ambient family and
    rank instead and stand for forms the classifier never needs to tell
    apart further.  ``outer`` is only meaningful for ``AnisotropicOther``.
    """

    name: str
    params: Tuple[int, ...] = ()
    family: Optional[Family] = None
    rank: int = 0
    outer: bool = False

    def __post_init__(self):
        if self.name not in NAMED + GENERIC:
            raise ValueError(f"unknown real form tag {self.name!r}")
        n_params = _FORMS[self.name].pattern.count("{}") if self.name in _FORMS else 0
        if len(self.params) != n_params:
            raise ValueError(f"{self.name} takes {n_params} parameter(s)")
        if any(p < 0 for p in self.params):
            raise ValueError(f"{self.name} takes nonnegative parameters")
        # SL(0) and a form of total 0 have no group; their signatures would
        # give a negative rank
        if self.name in ("SL_R", "SL_H") and self.params[0] < 1:
            raise ValueError(f"{self.name} takes a parameter of at least 1")
        if self.name in ("SU", "Spin", "Sp") and sum(self.params) < 1:
            raise ValueError(f"{self.name} takes parameters of positive total")
        if self.name in ("SU", "Spin", "Sp") and self.params[0] < self.params[1]:
            object.__setattr__(self, "params", (self.params[1], self.params[0]))
        if self.name in ("Sp_R", "SpinStar") and self.params[0] % 2 != 0:
            raise ValueError(f"{self.name} takes an even parameter")
        if self.name in GENERIC and self.family is None:
            raise ValueError(f"{self.name} needs the ambient family and rank")

    def signature(self) -> Tuple[Family, int, bool]:
        """(family, rank, outer at the real place) of the form."""
        if self.name in _FORMS:
            return _entry(_FORMS[self.name].signature, self.params)
        if self.name == "SplitForm":
            return self.family, self.rank, False
        if self.name == "CompactForm":
            outer = (
                (self.family == Family.A and self.rank >= 2)
                or (self.family == Family.D and self.rank % 2 == 1)
                or self.family == Family.E6
            )
            return self.family, self.rank, outer
        return self.family, self.rank, self.outer

    def __str__(self):
        if self.name in _FORMS:
            return _FORMS[self.name].pattern.format(*self.params)
        fam = f"{self.family.value}{'' if self.family.value[0] in 'EFG' else self.rank}"
        return f"{self.name}[{fam}]"


@dataclass(frozen=True)
class RealStats:
    h1_size: int
    z_h1_size: int
    pi0_size: int
    kernel_size: int

    def __post_init__(self):
        if self.z_h1_size % self.pi0_size != 0:
            raise ContractError("center cohomology size not divisible by component count")
        if self.kernel_size != self.z_h1_size // self.pi0_size:
            raise ContractError("kernel size inconsistent with the quotient formula")
        if self.kernel_size > self.h1_size:
            raise ContractError("kernel larger than the whole cohomology set")


def real_stats(tag: RealFormTag) -> RealStats:
    """Cohomology orders of a named real form; generic tags are not tabulated."""
    if tag.name in _FORMS:
        h1, z, pi0 = _entry(_FORMS[tag.name].stats, tag.params)
        return RealStats(h1, z, pi0, z // pi0)
    raise ContractError(f"no tabulated cohomology data for {tag}")


def q_image_trivial(tag: RealFormTag) -> bool:
    """Whether the whole first cohomology of the form maps to the adjoint base point."""
    if tag.name in GENERIC:
        # outside the gate by construction; the only tags of E6, E8, F4 and G2,
        # whose adjoint cohomology equals the form's own and is never trivial
        return False
    st = real_stats(tag)
    return st.kernel_size == st.h1_size


ACCIDENTAL_ISOMORPHISMS = (
    (RealFormTag("SU", (2, 0)), RealFormTag("SL_H", (1,))),
    (RealFormTag("SU", (1, 1)), RealFormTag("SL_R", (2,))),
    (RealFormTag("Spin", (3, 2)), RealFormTag("Sp_R", (4,))),
    (RealFormTag("Spin", (6, 2)), RealFormTag("SpinStar", (8,))),
)


# Largest parameter total (the n of SL(n), Spin(n), Sp(2n)) whose forms
# ``trivial_image_forms`` enumerates.
FORM_PARAMETER_LIMIT = 100


def trivial_image_forms(t: GroupType) -> List[RealFormTag]:
    """All real forms of the given type passing the trivial-image gate.

    Enumerates the parameter space of the family (which is finite once the
    rank is fixed) and keeps the forms of the type's kind over the reals
    whose kernel exhausts their cohomology.  Raises CapacityError above
    ``FORM_PARAMETER_LIMIT``.
    """
    f, r, outer = t.family, t.rank, t.is_outer
    total = {Family.A: r + 1, Family.B: 2 * r + 1, Family.C: r, Family.D: 2 * r}.get(f, 0)
    if total > FORM_PARAMETER_LIMIT:
        raise CapacityError(f"parameter total {total} exceeds the limit {FORM_PARAMETER_LIMIT}")
    candidates: List[RealFormTag] = []
    if f == Family.A:
        candidates += [RealFormTag("SU", (total - s, s)) for s in range(total // 2 + 1)]
        candidates.append(RealFormTag("SL_R", (total,)))
        if total % 2 == 0:
            candidates.append(RealFormTag("SL_H", (total // 2,)))
    elif f == Family.B:
        candidates += [RealFormTag("Spin", (total - s, s)) for s in range(total // 2 + 1)]
    elif f == Family.C:
        candidates.append(RealFormTag("Sp_R", (2 * r,)))
        candidates += [RealFormTag("Sp", (r - s, s)) for s in range(r // 2 + 1)]
    elif f == Family.D:
        candidates += [RealFormTag("Spin", (total - s, s)) for s in range(total // 2 + 1)]
        candidates.append(RealFormTag("SpinStar", (total,)))
    elif f == Family.E7:
        candidates += [RealFormTag(n) for n in NAMED if n.startswith("E7")]
    # E6, E8, F4 and G2 have only generic tags, and none of those passes
    return [tag for tag in candidates if tag.signature()[2] == outer and q_image_trivial(tag)]


def real_class(
    tag: RealFormTag, ambient: GroupType, kind: PlaceKind, supplied: Optional[LocalClass] = None
) -> LocalClass:
    """The local invariant class a real form pins down at a real place of
    the given kind, when it pins one down.

    Split and quasi-split forms sit at the base point; the quaternionic
    linear forms, the compact-type symplectic forms, the even-parameter
    unitary forms, and the even star forms have forced classes.  All other
    forms (general spin forms in particular) carry a caller-supplied class
    that is validated only through the coherence of the whole vector.

    This is the one check that a form fits its place.  The first misfit
    raises ContractError, in this order: another family, another type,
    the other kind over the reals, a place kind the type lacks
    (``h2_local``), a class other than the pinned one.
    """
    fam, rank, outer = tag.signature()
    if tag.name not in _ALLOWED_TAGS[ambient.family]:
        raise ContractError(f"{tag} is not a form of family {ambient.family.value}")
    if (fam, rank) != (ambient.family, ambient.rank):
        raise ContractError(f"{tag} has type {fam.value}{rank}, group is {ambient.symbol()}")
    if kind != (PlaceKind.REAL_OUTER if outer else PlaceKind.REAL_INNER):
        raise ContractError(
            f"{tag} is {'outer' if outer else 'inner'} type over the reals "
            f"but the place is declared {kind.value}"
        )
    shape = h2_local(ambient, kind)
    if shape.kind == "trivial" or tag.name == "SplitForm":
        pin: Value = 0
    else:
        pin = _entry(_FORMS[tag.name].pin, tag.params) if tag.name in _FORMS else None
    forced = None if pin is None else zero(shape) if pin == 0 else LocalClass(shape, pin)
    if forced is not None:
        if supplied is not None and supplied != forced:
            raise ContractError(
                f"{tag} pins its real class to {forced}, got {supplied}"
            )
        return forced
    if supplied is None:
        raise MissingRealClassError(
            f"{tag} does not determine its real class; supply one explicitly"
        )
    if supplied.shape != shape:
        raise ContractError(f"real class for {tag} must have shape {shape}")
    return supplied


def partner_form(
    tag: RealFormTag, ambient: GroupType, kind: PlaceKind, cls: LocalClass
) -> RealFormTag:
    """A different real form in the same local class fiber as ``tag``.

    Exists whenever the trivial-image gate fails at the place, which is
    the only situation the classifier asks for a partner in.
    """
    primary = form_for_class(ambient, kind, cls)
    if primary != tag and not q_image_trivial(primary):
        # forms passing the trivial-image gate have no extra twists in their
        # fiber, so they can never serve as the replacement form
        return primary
    fam, rank, outer = tag.signature()
    if fam == Family.A:
        r, s = tag.params  # only unitary forms land here
        if (r + s) % 2 == 0:
            return RealFormTag("SU", (r - 2, s + 2) if r - 2 >= s + 2 else (r + 2, s - 2))
        return RealFormTag("SU", ((r + s - 1, 1) if s == 0 else (r + s, 0)))
    if fam == Family.C:
        return RealFormTag("Sp", (rank - 1, 1))
    if fam == Family.E7:
        return RealFormTag("E7_hermitian") if cls.is_zero else RealFormTag("E7_compact")
    if fam in (Family.B, Family.D):
        aniso = RealFormTag("AnisotropicOther", family=fam, rank=rank, outer=outer)
        if tag != aniso:
            return aniso
        if fam == Family.B:
            return RealFormTag("Spin", (rank + 2, rank - 1))
        off = 4 if not outer else 3
        return RealFormTag("Spin", (rank + off, rank - off))
    if tag.name == "AnisotropicOther":
        # only the outer form arrives: an inner one has real class 0, for which
        # form_for_class gives SplitForm, which fails the gate and is returned above
        return RealFormTag("CompactForm", family=fam, rank=rank)
    return RealFormTag("AnisotropicOther", family=fam, rank=rank, outer=outer)


def form_for_class(
    ambient: GroupType, kind: PlaceKind, cls: LocalClass
) -> RealFormTag:
    """A canonical real form tag realizing a given real class.

    Used when a witness flips a real coordinate and needs a concrete form
    to go with the new class.
    """
    fam, rank = ambient.family, ambient.rank
    if fam == Family.A and kind == PlaceKind.REAL_INNER:
        # class 1 occurs only at odd rank, where SL_H has a parameter
        return RealFormTag("SL_H", ((rank + 1) // 2,)) if cls.value == 1 else \
            RealFormTag("SL_R", (rank + 1,))
    if fam == Family.A and kind == PlaceKind.REAL_OUTER:
        m = rank + 1
        if cls.shape.kind == "trivial" or cls.value == 0:
            return RealFormTag("SU", ((m + 1) // 2, m // 2))
        return RealFormTag("SU", (m // 2 + 1, m // 2 - 1))
    if fam == Family.C:
        return RealFormTag("Sp_R", (2 * rank,)) if cls.value == 0 else \
            RealFormTag("Sp", (rank, 0))
    if fam == Family.E7:
        return RealFormTag("E7_split") if cls.value == 0 else RealFormTag("E7_quaternionic")
    if fam == Family.B:
        return RealFormTag("Spin", (rank + 1, rank)) if cls.is_zero else \
            RealFormTag("AnisotropicOther", family=fam, rank=rank)
    if fam == Family.D and kind == PlaceKind.REAL_INNER:
        if cls.value == (1, 0):  # a Klein class, so the rank is even
            return RealFormTag("SpinStar", (2 * rank,))
        return RealFormTag("Spin", (rank, rank)) if cls.is_zero else \
            RealFormTag("AnisotropicOther", family=fam, rank=rank)
    if fam == Family.D:
        if cls.is_zero:
            return RealFormTag("Spin", (rank + 1, rank - 1))
        if rank % 2 == 1:
            return RealFormTag("SpinStar", (2 * rank,))
    outer = kind == PlaceKind.REAL_OUTER
    if cls.is_zero and not outer:
        return RealFormTag("SplitForm", family=fam, rank=rank)
    return RealFormTag("AnisotropicOther", family=fam, rank=rank, outer=outer)
