"""The rigidity verdict engine.

``classify`` routes a validated descriptor through the classification
branches by family, rank parity, inner/outer kind, and the real place
layout, and returns a verdict carrying a reason trace.  Negative verdicts
come with an explicit witness descriptor: a group with identical finite
adelic data that is not related to the input by any field automorphism.
Every emitted witness is machine checked before it leaves this module.

``specialize_q`` and ``specialize_quasisplit`` evaluate the two
special-case checklists (rational base field, quasi-split over a Galois
field) directly; they exist as independent cross-checks of ``classify``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from ._util import _memo, count_text, natural_key
from .brauer import (
    OmegaVector,
    _flip_facts,
    _flip_subset,
    compare_possible,
    inner_twin_bound,
    inner_twin_places,
    s_omega_orbit,
    tate_sum,
    weak_uniformity,
)
from .errors import CapacityError, ContractError, ValidationError
from .field_model import (
    Coords,
    FieldDescriptor,
    HbarFiber,
    PlaceLabel,
    PlaceSymmetry,
    orbit_set,
)
from .field_model import validate as validate_field
from .invariants import (
    Family,
    GroupType,
    LocalClass,
    PlaceKind,
    h2_local,
    has_symmetry,
    sym_act,
    zero,
)
from .real_forms import (
    RealFormTag,
    form_for_class,
    partner_form,
    q_image_trivial,
    real_class,
)

# reason trace tags; the first five are the classification branches proper
TAG_NO_SYM = "no-symmetry-classification"
TAG_SYM_IMAG = "symmetric-imaginary-classification"
TAG_A = "type-A-classification"
TAG_D = "type-D-classification"
TAG_E6 = "type-E6-classification"
CLASSIFICATION_TAGS = (TAG_NO_SYM, TAG_SYM_IMAG, TAG_A, TAG_D, TAG_E6)

TAG_SCOPE = "scope"
TAG_LOCAL_DET = "locally-determined"
TAG_HBAR = "outer-square-class-fiber"
TAG_REAL_GATE = "real-form-gate"
TAG_OUTER_TWINS = "outer-two-twin-places"
TAG_TWIN_BOUND = "twin-count-bound"
TAG_MANY_REAL = "too-many-real-places"
TAG_WU = "weak-uniformity"
TAG_PLAIN = "orbit-match"
TAG_SUBSET = "half-sum-subset"
TAG_Q = "rational-base-checklist"
TAG_QS = "quasi-split-checklist"


class Outcome(str, Enum):
    RIGID = "Rigid"
    NOT_RIGID = "NotRigid"
    UNDETERMINED = "Undetermined"
    OUT_OF_SCOPE = "OutOfScope"


@dataclass(frozen=True)
class GroupDescriptor:
    group_type: GroupType
    field: FieldDescriptor
    symmetry: PlaceSymmetry
    omega: OmegaVector
    real_forms: Tuple[Tuple[str, RealFormTag], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "real_forms",
            tuple(sorted(self.real_forms, key=lambda e: natural_key(e[0]))),
        )


@dataclass
class Verdict:
    outcome: Outcome
    reasons: List[Tuple[str, str]]
    witness: Optional[GroupDescriptor] = None
    symbolic_witness: Optional[str] = None
    missing: Optional[str] = None


# ---------------------------------------------------------------------------
# validation and normalization

def validate_descriptor(g: GroupDescriptor) -> None:
    """Check all descriptor invariants; collects every failure before raising."""
    issues: List[str] = []
    try:
        validate_field(g.field, g.symmetry)
    except ValidationError as e:
        issues.extend(e.issues)
    _validate_coordinates(g, issues)


def _validate_coordinates(g: GroupDescriptor, issues: List[str]) -> None:
    """Add the faults of the coordinates, real forms and coherence to those
    of the type, field and symmetry in ``issues``, and raise if there are any.

    The coordinates and the real forms must list each declared place once,
    in place order, since every later step reads them by position."""
    t = g.group_type
    reals = g.field.real_places
    before = len(issues)
    if [lab for lab, _ in g.omega.finite] != [*g.field.finite_places]:
        issues.append("finite coordinates must cover exactly the declared finite places")
    if [lab for lab, _ in g.omega.real] != [*reals]:
        issues.append("real coordinates must cover exactly the declared real places")
    if [w for w, _ in g.real_forms] != [p.id for p in reals]:
        issues.append("every declared real place needs exactly one real form")
    # lists that do not line up are reported alone, without checking their forms
    aligned = len(issues) == before
    if g.omega.group_type != t:
        issues.append("coordinate vector built for a different group type")
    for p, (_, cls), (w, tag) in zip(reals, g.omega.real, g.real_forms) if aligned else ():
        try:
            real_class(tag, t, p.kind, cls)
        except ContractError as e:
            issues.append(f"real place {w}: {e}")
    if not issues:
        total = tate_sum(g.omega)
        if not total.is_zero:
            issues.append(f"coordinates are incoherent: local contributions sum to {total}")
    if issues:
        raise ValidationError(issues)


_B2_TAG_MAP = {
    ("Spin", (3, 2)): RealFormTag("Sp_R", (4,)),
    ("Spin", (4, 1)): RealFormTag("Sp", (1, 1)),
    ("Spin", (5, 0)): RealFormTag("Sp", (2, 0)),
}


def normalize(g: GroupDescriptor) -> GroupDescriptor:
    """Fold rank 2 of the odd orthogonal family into the symplectic one.

    ``g`` must be validated: its real forms are read beside its real
    coordinates, by position, and a generic form folds by its class."""
    t = g.group_type
    if t.family != Family.B or t.rank != 2:
        return g
    c2 = GroupType(Family.C, 2, t.form_kind)
    tags = tuple(
        (w, _B2_TAG_MAP.get((tag.name, tag.params))
         or (RealFormTag("Sp_R", (4,)) if cls.is_zero else RealFormTag("Sp", (2, 0))))
        for (w, tag), (_, cls) in zip(g.real_forms, g.omega.real)
    )
    omega = OmegaVector(c2, g.omega.finite, g.omega.real)
    return GroupDescriptor(c2, g.field, g.symmetry, omega, tags)


def _admit(g: GroupDescriptor) -> GroupDescriptor:
    """The first steps of every entry point: validation, then the B2 fold.
    Returns ``g`` validated and folded.  No descriptor is of type D4:
    ``GroupType`` refuses it when it is built."""
    validate_descriptor(g)
    return normalize(g)


# ---------------------------------------------------------------------------
# witness construction

def _not_rigid(g: GroupDescriptor, reasons, finite: Optional[Coords] = None,
               reals: Optional[Mapping[str, LocalClass]] = None,
               forms: Optional[Collection[str]] = None) -> Verdict:
    """A negative verdict whose witness, ``g`` with some of its data
    replaced, has passed the machine check.

    ``finite`` replaces the finite coordinates.  ``reals`` maps real place
    ids to new classes, each of which brings ``form_for_class``'s canonical
    form.  ``forms`` names real places that keep their class but trade their
    form for its ``partner_form``.
    """
    t = g.group_type
    reals, forms = reals or {}, forms or ()
    real = tuple((lab, reals.get(lab.id, cls)) for lab, cls in g.omega.real)
    # the real places, their coordinates and their forms share the place order
    tags = tuple(
        (w, form_for_class(t, p.kind, cls) if w in reals
         else partner_form(tag, t, p.kind, cls) if w in forms else tag)
        for p, (_, cls), (w, tag) in zip(g.field.real_places, real, g.real_forms)
    )
    witness = replace(
        g,
        omega=OmegaVector(t, g.omega.finite if finite is None else finite, real),
        real_forms=tags,
    )
    check_witness(g, witness)
    return Verdict(Outcome.NOT_RIGID, reasons, witness=witness)


def check_witness(g: GroupDescriptor, w: GroupDescriptor) -> None:
    """Machine check of an emitted witness: valid, locally isomorphic, not globally so.

    ``g`` is a validated input.  Sharing its type, field and automorphisms
    pins all the witness's data but the coordinates and real forms, so only those are checked."""
    g = normalize(g)
    if (w.group_type, w.field, w.symmetry) != (g.group_type, g.field, g.symmetry):
        raise ContractError("witness is not over the input's type, field and automorphisms")
    _validate_coordinates(w, [])
    if _classes_up_to_sigma(g.omega) != _classes_up_to_sigma(w.omega):
        raise ContractError("witness is not locally isomorphic to the input")
    target = tuple(v for _, v in _joint(w.omega.finite, w.omega.real, w.real_forms))
    if target in _two_sided_orbit(g):
        raise ContractError("witness lies in the global orbit of the input")


@_memo
def _up_to_sigma(t: GroupType, kind: PlaceKind, cls: LocalClass):
    """The sort key of a local class up to the local symmetry: the smaller
    of its own and its image's."""
    return min(cls.sort_key(), sym_act(t, kind, cls).sort_key())


def _classes_up_to_sigma(omega: OmegaVector) -> Counter:
    """Per adelic class, each finite value up to the local symmetry, counted."""
    t = omega.group_type
    return Counter((lab.class_key(), _up_to_sigma(t, lab.kind, cls)) for lab, cls in omega.finite)


def _joint(finite: Coords, real: Coords, forms) -> Coords:
    """The finite coordinates, then (class, form) at each real place, in place order."""
    return finite + tuple((lab, (cls, tag)) for (lab, cls), (_, tag) in zip(real, forms))


def _two_sided_orbit(g: GroupDescriptor):
    """The joint vectors of ``g`` and its symmetry flip under the automorphisms, as value tuples."""
    t = g.group_type
    starts = [_joint(g.omega.finite, g.omega.real, g.real_forms)]
    if has_symmetry(t):
        real = tuple((lab, sym_act(t, lab.kind, cls)) for lab, cls in g.omega.real)
        starts.append(_joint(_flip_facts(g.omega)[0], real, g.real_forms))
    return orbit_set(starts, g.symmetry)

# ---------------------------------------------------------------------------
# subset sums

# Most table entries ``subset_sum_forbidden`` visits while building its two
# half tables.  Each half can hold one entry per residue, so the count grows
# like 2^(n/2) in the n values until the tables fill the modulus.
SUBSET_SUM_WORK_LIMIT = 2 ** 17


def subset_sum_forbidden(values: Sequence[int], modulus: int, targets) -> Optional[List[int]]:
    """Indices of a nonempty subset whose sum mod ``modulus`` lies in ``targets``.

    Meet-in-the-middle over the two halves of the value list, each half
    keeping one smallest index tuple per residue, so the cost is at most the
    number of values times the modulus; returns the canonically
    smallest hit (fewest indices, then lexicographic) or None.  Raises
    CapacityError once building the halves visits more than
    ``SUBSET_SUM_WORK_LIMIT`` table entries.
    """
    targets = {x % modulus for x in targets}
    if not targets:
        return None
    mid = len(values) // 2
    left = list(enumerate(values[:mid]))
    right = [(i + mid, v) for i, v in enumerate(values[mid:])]
    work = 0

    def sums(items):
        # residue -> smallest nonempty index tuple; the empty tuple stays implicit,
        # as at residue 0 it would hide every nonempty subset summing to 0
        nonlocal work
        table: Dict[int, Tuple[int, ...]] = {}
        for idx, v in items:
            work += len(table) + 1
            if work > SUBSET_SUM_WORK_LIMIT:
                raise CapacityError(
                    f"{work} subset sum table entries exceed the work limit {SUBSET_SUM_WORK_LIMIT}"
                )
            # each visit offers one candidate and the table keeps the smallest,
            # so the order of the visits cannot change the table
            for s, ids in [(0, ())] + list(table.items()):
                ns = (s + v) % modulus
                cand = ids + (idx,)
                if ns not in table or (len(cand), cand) < (len(table[ns]), table[ns]):
                    table[ns] = cand
        return table

    lsums, rsums = sums(left), sums(right)
    hits = []
    for s_r, ids_r in [(0, ())] + list(rsums.items()):
        for tgt in targets:
            need = (tgt - s_r) % modulus
            if need in lsums:
                hits.append(lsums[need] + ids_r)
            if need == 0 and ids_r:
                hits.append(ids_r)
    return list(min(hits, key=lambda c: (len(c), c))) if hits else None


# ---------------------------------------------------------------------------
# shared branch helpers

def _raised(g: GroupDescriptor, k: int) -> Dict[str, LocalClass]:
    """The first ``k`` real places of ``g``, each with its class raised by one."""
    return {lab.id: LocalClass(cls.shape, cls.value + 1) for lab, cls in g.omega.real[:k]}


def _gate_verdict(g: GroupDescriptor, tag: str, detail: str) -> Optional[Verdict]:
    """The negative verdict at the first real place whose form fails the
    trivial-image gate, or None when every form passes it."""
    for w, form in g.real_forms:
        if not q_image_trivial(form):
            return _not_rigid(
                g,
                [(tag, detail),
                 (TAG_REAL_GATE, f"form {form} at {w} admits a locally invisible replacement")],
                forms=[w],
            )
    return None


def _uniformity_verdict(
    g: GroupDescriptor, tag: str, branch: str, stabilize: Optional[str] = None
) -> Verdict:
    t = g.group_type
    twins = inner_twin_places(g.omega)
    report = weak_uniformity(g.omega, g.field, g.symmetry, stabilize_real=stabilize)
    cond = "stabilized uniformity" if stabilize else "weak uniformity"
    if report.holds:
        return Verdict(
            Outcome.RIGID,
            [(tag, branch), (TAG_WU, f"{cond} holds ({len(report.lhs)} realized variations)")],
        )
    reasons = [(tag, branch),
               (TAG_WU, f"{cond} fails: {len(report.lhs)} realized < {count_text(report.possible)} possible")]
    if t.is_outer and len(twins) >= 2:
        reasons.append((TAG_OUTER_TWINS, f"twin places at {', '.join(l.id for l in twins)}"))
    elif not t.is_outer and inner_twin_bound(g.omega, g.field):
        reasons.append((TAG_TWIN_BOUND,
                        f"{len(twins)} twin places force non-rigidity at degree {g.field.degree}"))
    return _not_rigid(g, reasons, finite=report.witness)


def _plain_verdict(g: GroupDescriptor, tag: str, branch: str) -> Verdict:
    realized = orbit_set([g.omega.finite], g.symmetry)
    possible, witness = compare_possible(g.omega, realized)
    if witness is None:
        return Verdict(
            Outcome.RIGID,
            [(tag, branch), (TAG_PLAIN, f"automorphism orbit matches the adelic orbit ({len(realized)})")],
        )
    return _not_rigid(
        g,
        [(tag, branch),
         (TAG_PLAIN, f"automorphism orbit has {len(realized)} vectors, adelic orbit {count_text(possible)}")],
        finite=witness,
    )


def _flip_two_same_class(g: GroupDescriptor, tag: str, detail: str) -> Verdict:
    by_class: Dict[LocalClass, list] = {}
    for lab, cls in g.omega.real:
        by_class.setdefault(cls, []).append(lab.id)
    cls, pair = next((cls, ids[:2]) for cls, ids in by_class.items() if len(ids) >= 2)
    return _not_rigid(
        g,
        [(tag, detail), (TAG_MANY_REAL, f"real classes repeat at {pair[0]} and {pair[1]}")],
        reals=dict.fromkeys(pair, LocalClass(cls.shape, cls.value + 1)),
    )


def _exchange_verdict(g: GroupDescriptor, tag: str, same: str, fixed: str) -> Optional[Verdict]:
    """None when the two real places of ``g`` have different classes and the
    same kind and some automorphism exchanges them, else the negative verdict:
    ``same`` is its reason when the classes agree, ``fixed`` when no
    automorphism exchanges the places."""
    w1, w2 = g.field.real_places
    (_, c1), (_, c2) = g.omega.real
    if c1 == c2:
        return _flip_two_same_class(g, tag, same)
    if w1.kind != w2.kind:
        return _not_rigid(g, [(tag, "two real places of different split kind can never be exchanged")],
                          reals={w1.id: c2, w2.id: c1})
    # generators keep real places real, so one swaps the two if any automorphism does
    if not any(p.apply(w1.id) == w2.id for p in g.symmetry.generators):
        return _not_rigid(g, [(tag, fixed)], reals={w1.id: c2, w2.id: c1})
    return None


# ---------------------------------------------------------------------------
# the branches

def classify_no_symmetry(g: GroupDescriptor) -> Verdict:
    t = g.group_type
    reals = g.field.real_places
    fam = t.family
    if fam in (Family.B, Family.E7, Family.E8, Family.F4, Family.G2):
        return (_gate_verdict(g, TAG_NO_SYM, "(i) requires a totally imaginary base field")
                or _uniformity_verdict(g, TAG_NO_SYM, "(i) totally imaginary"))
    if fam == Family.C:
        if gate := _gate_verdict(g, TAG_NO_SYM, "(ii) requires the split symplectic form at real places"):
            return gate
        if len(reals) >= 2:
            return _not_rigid(
                g,
                [(TAG_NO_SYM, "(ii) allows at most one real place"),
                 (TAG_MANY_REAL, f"{len(reals)} real places")],
                reals=_raised(g, 2),
            )
        return _uniformity_verdict(g, TAG_NO_SYM, "(ii) at most one real place")
    # type A rank 1, which has no outer forms, so its real places share one kind
    if len(reals) >= 3:
        return _flip_two_same_class(g, TAG_NO_SYM, "(iii) allows at most two real places")
    if len(reals) == 2:
        return (_exchange_verdict(g, TAG_NO_SYM, "(iii) needs the two real forms to differ",
                                  "(iii) needs an automorphism exchanging the real places")
                or _uniformity_verdict(g, TAG_NO_SYM, "(iii) two exchanged real places",
                                       stabilize=reals[0].id))
    return _uniformity_verdict(g, TAG_NO_SYM, "(ii) at most one real place")


def classify_symmetric_imaginary(g: GroupDescriptor) -> Verdict:
    return _uniformity_verdict(g, TAG_SYM_IMAG, "totally imaginary base field")


def classify_a(g: GroupDescriptor) -> Verdict:
    t = g.group_type
    rank = t.rank
    reals = g.field.real_places
    detail = "(ii) outer even rank must split at real places" if t.is_outer and rank % 2 == 0 \
        else "real forms must pass the trivial-image gate"
    if gate := _gate_verdict(g, TAG_A, detail):
        return gate
    if rank % 2 == 0:
        branch = "(i) inner even rank" if not t.is_outer else "(ii) outer even rank, split at real places"
        return _uniformity_verdict(g, TAG_A, branch)
    # odd rank
    if len(reals) >= 3:
        return _flip_two_same_class(g, TAG_A, "odd rank allows at most two real places")
    stabilize: Optional[str] = None
    branch = "(iii) one real place" if not t.is_outer else "(v) one real place"
    if len(reals) == 2:
        if exchange := _exchange_verdict(g, TAG_A, "two real places need opposite real classes",
                                         "no automorphism exchanges the two real places"):
            return exchange
        stabilize = reals[0].id
        branch = "(iv) two exchanged real places" if not t.is_outer else "(vi) two exchanged real places"
    if not t.is_outer and (rank + 1) % 4 == 0:
        m = rank + 1
        half = m // 2
        values = [cls.value for _, cls in g.omega.finite if not cls.is_zero]
        hit = subset_sum_forbidden(values, m, {half // 2, m - half // 2})
        if hit is not None:
            nz = [lab for lab, cls in g.omega.finite if not cls.is_zero]
            ids = [nz[i].id for i in hit]
            return _not_rigid(
                g,
                [(TAG_A, branch),
                 (TAG_SUBSET, f"coordinates at {', '.join(ids)} sum to half the real contribution")],
                finite=_flip_subset(g.omega, ids), reals=_raised(g, 1),
            )
    return _uniformity_verdict(g, TAG_A, branch, stabilize=stabilize)


def classify_d(g: GroupDescriptor) -> Verdict:
    t = g.group_type
    rank = t.rank
    reals = g.field.real_places
    if gate := _gate_verdict(g, TAG_D, "the star form or Spin(7,3) is required at the real place"):
        return gate
    if len(reals) >= 2:
        if rank % 2 == 0:
            w1, w2 = reals[0].id, reals[1].id
            shape = h2_local(t, PlaceKind.REAL_INNER)
            return _not_rigid(
                g,
                [(TAG_D, "even rank allows only one real place"),
                 (TAG_MANY_REAL, "two inner-type real places")],
                reals={w1: zero(shape), w2: zero(shape)},
            )
        return _not_rigid(
            g,
            [(TAG_D, "odd rank allows only one real place"),
             (TAG_MANY_REAL, f"{len(reals)} real places")],
            reals=_raised(g, 2),
        )
    twins = inner_twin_places(g.omega)
    r = len(twins)
    if rank % 2 == 0 and not t.is_outer:
        if r != 1:
            value = dict(g.omega.finite)
            by_val: Dict[tuple, list] = {}
            for lab in twins:
                by_val.setdefault(value[lab].sort_key(), []).append(lab.id)
            pair = next(ids[:2] for ids in by_val.values() if len(ids) >= 2)
            return _not_rigid(
                g,
                [(TAG_D, "(i) needs a twin place at exactly one finite place"),
                 (TAG_TWIN_BOUND, f"{r} twin places")],
                finite=_flip_subset(g.omega, pair),
            )
        return _plain_verdict(g, TAG_D, "(i) star form, one twin place")
    if rank % 2 == 0:
        if r >= 1:
            return _not_rigid(
                g,
                [(TAG_D, "(ii) forbids twin places at finite places"),
                 (TAG_OUTER_TWINS if r >= 2 else TAG_TWIN_BOUND,
                  f"twin place at {twins[0].id}")],
                finite=_flip_subset(g.omega, [twins[0].id]),
            )
        return _plain_verdict(g, TAG_D, "(ii) outer even rank, star form, no twins")
    if not t.is_outer:
        # rank 5 with Spin(7,3); larger odd inner ranks never pass the gate
        if r >= 1:
            return _not_rigid(
                g,
                [(TAG_D, "(iii) forbids twin places at finite places"),
                 (TAG_SUBSET, f"twin place at {twins[0].id}")],
                finite=_flip_subset(g.omega, [twins[0].id]), reals=_raised(g, 1),
            )
        return _plain_verdict(g, TAG_D, "(iii) Spin(7,3), no twins")
    if r >= 2:
        return _not_rigid(
            g,
            [(TAG_D, "(iv) allows at most one twin place"),
             (TAG_OUTER_TWINS, f"twin places at {', '.join(l.id for l in twins)}")],
            finite=_flip_subset(g.omega, [twins[0].id]),
        )
    return _plain_verdict(g, TAG_D, "(iv) outer odd rank, at most one twin")


def classify_e6(g: GroupDescriptor) -> Verdict:
    reals = g.field.real_places
    w = reals[0].id
    return _not_rigid(
        g,
        [(TAG_E6, "never rigid with a real place"),
         (TAG_REAL_GATE, f"every real form of this type fails the gate, e.g. at {w}")],
        forms=[w],
    )


# ---------------------------------------------------------------------------
# dispatcher

def _resolved_hbar(f: FieldDescriptor) -> HbarFiber:
    if f.degree == 1 or f.galois_over_q:
        return HbarFiber.TRIVIAL
    return f.hbar_fiber


def classify(g: GroupDescriptor) -> Verdict:
    g = _admit(g)
    t = g.group_type
    if not g.field.locally_determined:
        return Verdict(
            Outcome.UNDETERMINED,
            [(TAG_LOCAL_DET, "the engine assumes a locally determined base field")],
            missing="locally determined base field",
        )
    if t.is_outer:
        fiber = _resolved_hbar(g.field)
        if fiber == HbarFiber.NONTRIVIAL:
            return Verdict(
                Outcome.NOT_RIGID,
                [(TAG_HBAR, "the defining square class has a locally isomorphic sibling")],
                symbolic_witness=(
                    "the same local data over the sibling quadratic extension; "
                    "constructing that extension needs field arithmetic outside this engine"
                ),
            )
        if fiber == HbarFiber.UNKNOWN:
            return Verdict(
                Outcome.UNDETERMINED,
                [(TAG_HBAR, "square class fiber undetermined for this base field")],
                missing="square class fiber (trivial or not)",
            )
    if not has_symmetry(t):
        return classify_no_symmetry(g)
    if not g.field.real_places:
        return classify_symmetric_imaginary(g)
    if t.family == Family.A:
        return classify_a(g)
    if t.family == Family.D:
        return classify_d(g)
    return classify_e6(g)


# ---------------------------------------------------------------------------
# independent special-case checklists

def _nonzero_finite(g: GroupDescriptor) -> List[PlaceLabel]:
    return [lab for lab, cls in g.omega.finite if not cls.is_zero]


def _wu_over_q(g: GroupDescriptor) -> bool:
    # over the rationals both permutation actions are trivial, so weak
    # uniformity is just the flip orbit staying within the symmetry pair
    return len(s_omega_orbit(g.omega).elements) <= 2


def specialize_q(g: GroupDescriptor) -> Verdict:
    """The rational-base-field checklist, evaluated literally.

    Its weak uniformity branches list the flip orbit, so above
    ``brauer.FLIP_WALK_TWIN_LIMIT`` twin places they raise CapacityError."""
    g = _admit(g)
    if g.field.degree != 1:
        raise ContractError("this checklist only applies over the rationals")
    t = g.group_type
    fam, rank = t.family, t.rank
    w = g.field.real_places[0]
    tag = g.real_forms[0][1]
    twins = len(inner_twin_places(g.omega))

    def verdict(ok: bool, detail: str) -> Verdict:
        return Verdict(Outcome.RIGID if ok else Outcome.NOT_RIGID, [(TAG_Q, detail)])

    if fam == Family.A and rank == 1:
        return verdict(True, "(i) rank one unitary type is always rigid over the rationals")
    if fam == Family.A and not t.is_outer and rank % 2 == 0:
        return verdict(_wu_over_q(g), "(ii) even rank inner: weak uniformity")
    if fam == Family.A and not t.is_outer and rank % 4 == 1:
        return verdict(_wu_over_q(g), "(ii) rank 1 mod 4 inner: weak uniformity")
    if fam == Family.A and t.is_outer and rank % 2 == 0:
        bad = len(_nonzero_finite(g))
        return verdict(
            bad <= 1 and w.kind == PlaceKind.REAL_INNER,
            "(iii) outer even rank: quasi-split away from one finite place, split over the reals",
        )
    if fam == Family.A and not t.is_outer and rank % 4 == 3:
        m = rank + 1
        values = [cls.value for _, cls in g.omega.finite if not cls.is_zero]
        hit = subset_sum_forbidden(values, m, {m // 4, m - m // 4})
        return verdict(
            _wu_over_q(g) and hit is None,
            "(iv) rank 3 mod 4 inner: weak uniformity and no half-sum subset",
        )
    if fam == Family.A and t.is_outer:
        over_r_ok = w.kind == PlaceKind.REAL_INNER or (
            rank == 3 and tag == RealFormTag("SU", (3, 1))
        )
        return verdict(twins <= 1 and over_r_ok,
                       "(v) outer odd rank: at most one twin place, inner or SU(3,1) over the reals")
    if fam == Family.C:
        return verdict(tag == RealFormTag("Sp_R", (2 * rank,)),
                       "(vi) split symplectic form over the reals")
    if fam == Family.D and not t.is_outer and rank % 2 == 0:
        return verdict(twins == 1 and tag == RealFormTag("SpinStar", (2 * rank,)),
                       "(vii) inner even rank: one twin place and the star form")
    if fam == Family.D and t.is_outer and rank % 2 == 0:
        return verdict(twins == 0 and tag == RealFormTag("SpinStar", (2 * rank,)),
                       "(viii) outer even rank: no twin places and the star form")
    if fam == Family.D and not t.is_outer:
        return verdict(rank == 5 and twins == 0 and tag == RealFormTag("Spin", (7, 3)),
                       "(ix) inner rank five: no twin places and Spin(7,3)")
    if fam == Family.D:
        ok_tag = tag == RealFormTag("SpinStar", (2 * rank,)) or (
            rank == 5 and tag == RealFormTag("Spin", (7, 3))
        )
        return verdict(twins <= 1 and ok_tag,
                       "(x) outer odd rank: at most one twin place, star form or Spin(7,3)")
    return verdict(False, "no branch admits this type over the rationals")


def is_quasisplit(g: GroupDescriptor) -> bool:
    return all(cls.is_zero for _, cls in g.omega.finite) and all(
        cls.is_zero for _, cls in g.omega.real
    )


def specialize_quasisplit(g: GroupDescriptor) -> Verdict:
    """The quasi-split checklist for Galois base fields, evaluated literally."""
    g = _admit(g)
    if not g.field.galois_over_q:
        raise ContractError("this checklist assumes a Galois base field")
    if not is_quasisplit(g):
        raise ContractError("this checklist assumes a quasi-split group")
    t = g.group_type
    fam, rank = t.family, t.rank
    reals = g.field.real_places

    def verdict(ok: bool, detail: str) -> Verdict:
        return Verdict(Outcome.RIGID if ok else Outcome.NOT_RIGID, [(TAG_QS, detail)])

    if fam == Family.A and rank % 2 == 0:
        return verdict(all(p.kind == PlaceKind.REAL_INNER for p in reals),
                       "(i) even rank: split at every infinite place")
    if fam == Family.A or fam == Family.C:
        ok = not reals or (
            g.field.degree == 1 and reals[0].kind == PlaceKind.REAL_INNER
        )
        return verdict(ok, "(ii) odd unitary or symplectic: rationals with a split real place, "
                           "or totally imaginary")
    return verdict(not reals, "(iii) remaining families need a totally imaginary field")
