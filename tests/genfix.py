"""Random descriptor generators shared across the test suite.

Everything is driven by an explicit Random instance so failures replay.
Generated descriptors are coherent by construction: the last finite
coordinate is chosen to cancel the running dual sum.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from rigidity.brauer import OmegaVector
from rigidity.classifier import GroupDescriptor, validate_descriptor
from rigidity.field_model import (
    FieldDescriptor,
    HbarFiber,
    PlaceLabel,
    PlacePerm,
    PlaceSymmetry,
)
from rigidity.invariants import (
    Family,
    FormKind,
    GroupType,
    LocalClass,
    PlaceKind,
    c_local,
    center_shape,
    h2_local,
    shape_elements,
    sym_act,
    zero,
)
from rigidity.errors import MissingRealClassError
from rigidity.real_forms import RealFormTag, real_class

Q_TYPES = [
    GroupType(Family.A, 1),
    GroupType(Family.A, 2),
    GroupType(Family.A, 3),
    GroupType(Family.A, 4),
    GroupType(Family.A, 5),
    GroupType(Family.A, 2, FormKind.OUTER),
    GroupType(Family.A, 3, FormKind.OUTER),
    GroupType(Family.A, 4, FormKind.OUTER),
    GroupType(Family.A, 5, FormKind.OUTER),
    GroupType(Family.B, 2),
    GroupType(Family.B, 3),
    GroupType(Family.B, 4),
    GroupType(Family.C, 2),
    GroupType(Family.C, 3),
    GroupType(Family.D, 5),
    GroupType(Family.D, 6),
    GroupType(Family.D, 5, FormKind.OUTER),
    GroupType(Family.D, 6, FormKind.OUTER),
    GroupType(Family.E6, 6),
    GroupType(Family.E6, 6, FormKind.OUTER),
    GroupType(Family.E7, 7),
    GroupType(Family.E8, 8),
    GroupType(Family.F4, 4),
    GroupType(Family.G2, 2),
]

SYMMETRIC_TYPES = [
    t for t in Q_TYPES
    if (t.family == Family.A and t.rank >= 2)
    or t.family in (Family.D, Family.E6)
]


def set_partitions(n):
    """The partitions of n places into adelic classes, as each place's class
    number (the first place of each class opens it)."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        for b in range(max(rest, default=-1) + 2):
            yield rest + (b,)


def rand_value(rng: random.Random, shape) -> LocalClass:
    return rng.choice(list(shape_elements(shape)))


def _preimage_for(t: GroupType, kind: PlaceKind, needed: LocalClass) -> LocalClass:
    """A local class at the given kind of place mapping to ``needed``."""
    shape = h2_local(t, kind)
    for x in shape_elements(shape):
        if c_local(t, kind, x) == needed:
            return x
    raise AssertionError(f"{t.symbol()} at {kind}: no preimage of {needed}")


def real_tags_for(t: GroupType, kind: PlaceKind, include_bad: bool) -> List[RealFormTag]:
    """Plausible tag choices for a real place, optionally including forms that
    fail the trivial-image gate."""
    f, r = t.family, t.rank
    outer = kind == PlaceKind.REAL_OUTER
    tags: List[RealFormTag] = []
    if f == Family.A and not outer:
        tags.append(RealFormTag("SL_R", (r + 1,)))
        if r % 2 == 1:
            tags.append(RealFormTag("SL_H", ((r + 1) // 2,)))
    elif f == Family.A:
        m = r + 1
        good = [RealFormTag("SU", (m - s, s)) for s in range(m // 2 + 1)]
        tags.extend(good if include_bad else
                    [g for g in good if g in (RealFormTag("SU", (3, 1)),)] or good[:1])
    elif f == Family.B:
        total = 2 * r + 1
        tags.extend(RealFormTag("Spin", (total - s, s)) for s in range(total // 2 + 1))
    elif f == Family.C:
        tags.append(RealFormTag("Sp_R", (2 * r,)))
        if include_bad:
            tags.extend(RealFormTag("Sp", (r - s, s)) for s in range(r // 2 + 1))
    elif f == Family.D:
        star = RealFormTag("SpinStar", (2 * r,))
        if star.signature()[2] == outer:
            tags.append(star)
        spins = [
            RealFormTag("Spin", (2 * r - s, s))
            for s in range(r + 1)
            if RealFormTag("Spin", (2 * r - s, s)).signature()[2] == outer
        ]
        if include_bad:
            tags.extend(spins)
        else:
            tags.extend(s for s in spins if s == RealFormTag("Spin", (7, 3)))
        if include_bad:
            tags.append(RealFormTag("AnisotropicOther", family=f, rank=r, outer=outer))
    elif f == Family.E7:
        tags.extend(RealFormTag(n) for n in
                    ("E7_split", "E7_quaternionic", "E7_hermitian", "E7_compact"))
    else:
        if outer:
            tags.append(RealFormTag("AnisotropicOther", family=f, rank=r, outer=True))
            if f == Family.E6:
                tags.append(RealFormTag("CompactForm", family=f, rank=r))
        else:
            tags.append(RealFormTag("SplitForm", family=f, rank=r))
            if f != Family.E6:
                tags.append(RealFormTag("CompactForm", family=f, rank=r))
            tags.append(RealFormTag("AnisotropicOther", family=f, rank=r))
    return tags


def _choose_real(rng: random.Random, t: GroupType, pid: str, include_bad: bool):
    if t.is_outer:
        kind = rng.choice([PlaceKind.REAL_INNER, PlaceKind.REAL_OUTER])
    else:
        kind = PlaceKind.REAL_INNER
    options = real_tags_for(t, kind, include_bad)
    if not options:
        kind = PlaceKind.REAL_INNER if kind == PlaceKind.REAL_OUTER else PlaceKind.REAL_OUTER
        options = real_tags_for(t, kind, include_bad)
    tag = rng.choice(options)
    shape = h2_local(t, kind)
    try:
        cls = real_class(tag, t, kind)
    except MissingRealClassError:
        cls = real_class(tag, t, kind, rand_value(rng, shape))
    return PlaceLabel(pid, kind), tag, cls


def _assemble(
    t: GroupType,
    field_kwargs: dict,
    finite: List[Tuple[PlaceLabel, LocalClass]],
    reals: List[Tuple[PlaceLabel, RealFormTag, LocalClass]],
    generators: Tuple[PlacePerm, ...] = (),
) -> GroupDescriptor:
    fdesc = FieldDescriptor(
        real_places=tuple(lab for lab, _, _ in reals),
        finite_places=tuple(lab for lab, _ in finite),
        **field_kwargs,
    )
    omega = OmegaVector(
        t,
        tuple(finite),
        tuple((lab, cls) for lab, _, cls in reals),
    )
    g = GroupDescriptor(
        group_type=t,
        field=fdesc,
        symmetry=PlaceSymmetry(generators),
        omega=omega,
        real_forms=tuple((lab.id, tag) for lab, tag, _ in reals),
    )
    validate_descriptor(g)
    return g


def _balanced_finite(
    rng: random.Random,
    t: GroupType,
    labels: List[PlaceLabel],
    real_contrib: LocalClass,
) -> List[Tuple[PlaceLabel, LocalClass]]:
    """Random values at all but the last place; the last cancels the total."""
    total = real_contrib
    out = []
    for lab in labels[:-1]:
        cls = rand_value(rng, h2_local(t, lab.kind))
        out.append((lab, cls))
        total = total + c_local(t, lab.kind, cls)
    last = labels[-1]
    out.append((last, _preimage_for(t, last.kind, -total)))
    return out


def rand_q(rng: random.Random) -> GroupDescriptor:
    """A random coherent descriptor over the rationals."""
    t = rng.choice(Q_TYPES)
    w, tag, wcls = _choose_real(rng, t, "w", include_bad=True)
    primes = ["v2", "v3", "v5", "v7", "v11"]
    n = rng.randint(1, 4)
    labels = []
    for pid in primes[:n]:
        kind = PlaceKind.FINITE_INNER
        if t.is_outer and rng.random() < 0.5:
            kind = PlaceKind.FINITE_OUTER
        labels.append(PlaceLabel(pid, kind))
    finite = _balanced_finite(rng, t, labels, c_local(t, w.kind, wcls))
    return _assemble(
        t,
        dict(degree=1, complex_place_count=0, locally_determined=True,
             galois_over_q=True, hbar_fiber=HbarFiber.TRIVIAL),
        finite,
        [(w, tag, wcls)],
    )


def rand_symmetric_omega(rng: random.Random, max_places: int = 6) -> OmegaVector:
    """A coherent vector for a type with diagram symmetries, twin set capped."""
    t = rng.choice(SYMMETRIC_TYPES)
    n = rng.randint(1, max_places)
    labels = []
    classes = ["c1", "c1", "c2", "c3", "c3", "c3"]
    for i in range(n):
        kind = PlaceKind.FINITE_INNER
        if t.is_outer and rng.random() < 0.4:
            kind = PlaceKind.FINITE_OUTER
        cls_key = classes[i % len(classes)] + kind.value
        labels.append(PlaceLabel(f"v{i+1}", kind, cls_key))
    reals: List[Tuple[PlaceLabel, LocalClass]] = []
    real_total = zero(center_shape(t))
    finite = _balanced_finite(rng, t, labels, real_total)
    return OmegaVector(t, tuple(finite), tuple(reals))


def _galois_field(reals: int, degree: int) -> dict:
    complexes = (degree - reals) // 2
    return dict(degree=degree, complex_place_count=complexes,
                locally_determined=True, galois_over_q=True,
                hbar_fiber=HbarFiber.TRIVIAL)


def _quasisplit_tag(t: GroupType, kind: PlaceKind) -> RealFormTag:
    f, r = t.family, t.rank
    outer = kind == PlaceKind.REAL_OUTER
    if f == Family.A:
        if outer:
            m = r + 1
            return RealFormTag("SU", ((m + 1) // 2, m // 2))
        return RealFormTag("SL_R", (r + 1,))
    if f == Family.B:
        return RealFormTag("Spin", (r + 1, r))
    if f == Family.C:
        return RealFormTag("Sp_R", (2 * r,))
    if f == Family.D:
        return RealFormTag("Spin", (r + 1, r - 1)) if outer else RealFormTag("Spin", (r, r))
    if f == Family.E7:
        return RealFormTag("E7_split")
    if outer:
        return RealFormTag("AnisotropicOther", family=f, rank=r, outer=True)
    return RealFormTag("SplitForm", family=f, rank=r)


def rand_quasisplit_galois(rng: random.Random) -> GroupDescriptor:
    """A quasi-split descriptor over a (declared) Galois field."""
    t = rng.choice(Q_TYPES)
    degree = rng.choice([1, 2, 2, 3, 4])
    if degree == 1:
        n_real = 1
    elif rng.random() < 0.5 and degree % 2 == 0:
        n_real = 0
    else:
        n_real = degree
    reals = []
    kinds = []
    if n_real:
        if t.is_outer and rng.random() < 0.5:
            kinds = [PlaceKind.REAL_OUTER] * n_real
        else:
            kinds = [PlaceKind.REAL_INNER] * n_real
    for i in range(n_real):
        kind = kinds[i]
        tag = _quasisplit_tag(t, kind)
        shape = h2_local(t, kind)
        reals.append((PlaceLabel(f"w{i+1}", kind), tag, zero(shape)))
    labels = []
    for i in range(rng.randint(1, 3)):
        kind = PlaceKind.FINITE_OUTER if (t.is_outer and rng.random() < 0.5) else PlaceKind.FINITE_INNER
        labels.append(PlaceLabel(f"v{i+1}", kind, f"c{i+1}"))
    finite = [(lab, zero(h2_local(t, lab.kind))) for lab in labels]
    generators: Tuple[PlacePerm, ...] = ()
    if n_real >= 2 and rng.random() < 0.6:
        ids = [f"w{i+1}" for i in range(n_real)]
        generators = (PlacePerm.from_cycles([tuple(ids)]),)
    return _assemble(t, _galois_field(n_real, degree), finite, reals, generators)


def rand_outer_two_twins(rng: random.Random) -> GroupDescriptor:
    """An outer type with at least two twin places, over a small field."""
    t = rng.choice([x for x in Q_TYPES if x.is_outer])
    shape = h2_local(t, PlaceKind.FINITE_INNER)
    twins = []
    for i in range(rng.randint(2, 3)):
        while True:
            cls = rand_value(rng, shape)
            from rigidity.invariants import sym_act
            if sym_act(t, PlaceKind.FINITE_INNER, cls) != cls:
                break
        twins.append((PlaceLabel(f"t{i+1}", PlaceKind.FINITE_INNER, f"ct{i+1}"), cls))
    reals = []
    total = zero(center_shape(t))
    if rng.random() < 0.4:
        w, tag, wcls = _choose_real(rng, t, "w", include_bad=True)
        reals.append((w, tag, wcls))
        total = total + c_local(t, w.kind, wcls)
    balancer = PlaceLabel("vb", PlaceKind.FINITE_OUTER)
    for lab, cls in twins:
        total = total + c_local(t, lab.kind, cls)
    finite = twins + [(balancer, _preimage_for(t, balancer.kind, -total))]
    degree = 2 if not reals else 3
    complexes = 1
    return _assemble(
        t,
        dict(degree=degree, complex_place_count=complexes, locally_determined=True,
             galois_over_q=not reals, hbar_fiber=HbarFiber.TRIVIAL),
        finite,
        reals,
    )


def rand_bound_violator(rng: random.Random) -> GroupDescriptor:
    """An inner symmetric type over the rationals with enough twin places to
    trip the degree bound."""
    t = rng.choice([
        GroupType(Family.A, 2),
        GroupType(Family.A, 3),
        GroupType(Family.D, 5),
        GroupType(Family.D, 6),
        GroupType(Family.E6, 6),
    ])
    if t.family == Family.A:
        m = t.rank + 1 if t.rank % 2 == 0 else (t.rank + 1) // 2
    elif t.family == Family.D:
        m = 2
    else:
        m = 3
    r = m + 1 + rng.randint(0, 2)
    shape = h2_local(t, PlaceKind.FINITE_INNER)
    from rigidity.invariants import sym_act
    moved = [x for x in shape_elements(shape)
             if sym_act(t, PlaceKind.FINITE_INNER, x) != x]
    w, tag, wcls = _choose_real(rng, t, "w", include_bad=True)
    total = c_local(t, w.kind, wcls)
    finite = []
    for i in range(r):
        lab = PlaceLabel(f"v{i+1}", PlaceKind.FINITE_INNER)
        cls = rng.choice(moved)
        finite.append((lab, cls))
        total = total + c_local(t, lab.kind, cls)
    balancer = PlaceLabel("vb", PlaceKind.FINITE_INNER)
    finite.append((balancer, _preimage_for(t, balancer.kind, -total)))
    g = _assemble(
        t,
        dict(degree=1, complex_place_count=0, locally_determined=True,
             galois_over_q=True, hbar_fiber=HbarFiber.TRIVIAL),
        finite,
        [(w, tag, wcls)],
    )
    return g


def rand_two_real_quadratic(rng: random.Random) -> GroupDescriptor:
    """Odd unitary rank over a real quadratic field with two real places.

    Exercises the exchanged-places branch: random real classes, an
    optional place-swapping automorphism, and class-paired or inert
    finite places.
    """
    rank = rng.choice([3, 5, 7])
    t = GroupType(Family.A, rank, rng.choice([FormKind.INNER, FormKind.OUTER]))
    reals = []
    for i, cls_val in enumerate(rng.choice([(0, 1), (1, 0), (0, 0), (1, 1)])):
        kind = PlaceKind.REAL_INNER
        shape = h2_local(t, kind)
        cls = LocalClass(shape, cls_val)
        tag = RealFormTag("SL_R", (rank + 1,)) if cls_val == 0 else \
            RealFormTag("SL_H", ((rank + 1) // 2,))
        reals.append((PlaceLabel(f"w{i+1}", kind), tag, cls))
    paired = rng.random() < 0.6
    labels = []
    if paired:
        labels += [PlaceLabel("va", PlaceKind.FINITE_INNER, "c"),
                   PlaceLabel("vb", PlaceKind.FINITE_INNER, "c")]
    labels.append(PlaceLabel("vz", PlaceKind.FINITE_INNER))
    total = zero(center_shape(t))
    for lab, _, cls in reals:
        total = total + c_local(t, lab.kind, cls)
    finite = _balanced_finite(rng, t, labels, total)
    generators: Tuple[PlacePerm, ...] = ()
    if rng.random() < 0.7:
        cycles = [("w1", "w2")]
        if paired and rng.random() < 0.7:
            cycles.append(("va", "vb"))
        generators = (PlacePerm.from_cycles(cycles),)
    return _assemble(
        t,
        dict(degree=2, complex_place_count=0, locally_determined=True,
             galois_over_q=True, hbar_fiber=HbarFiber.TRIVIAL),
        finite,
        reals,
        generators,
    )


def rand_three_reals(rng: random.Random) -> GroupDescriptor:
    """At least three real places, any type outside the even unitary family."""
    pool = [
        x for x in Q_TYPES
        if not (x.family == Family.A and x.rank % 2 == 0)
    ]
    t = rng.choice(pool)
    n_real = rng.randint(3, 4)
    degree = n_real + 2 * rng.randint(0, 1)
    reals = []
    for i in range(n_real):
        w, tag, wcls = _choose_real(rng, t, f"w{i+1}", include_bad=True)
        reals.append((w, tag, wcls))
    total = zero(center_shape(t))
    for lab, _, cls in reals:
        total = total + c_local(t, lab.kind, cls)
    labels = [PlaceLabel("v1", PlaceKind.FINITE_INNER),
              PlaceLabel("v2", PlaceKind.FINITE_INNER)]
    finite = _balanced_finite(rng, t, labels, total)
    return _assemble(
        t,
        dict(degree=degree, complex_place_count=(degree - n_real) // 2,
             locally_determined=True, galois_over_q=False,
             hbar_fiber=HbarFiber.TRIVIAL),
        finite,
        reals,
    )


def rand_classed(rng: random.Random, max_places: int = 12, max_class: int = 7) -> GroupDescriptor:
    """A symmetric type over a totally imaginary Galois field whose finite
    places sit in adelic classes of up to ``max_class`` places, with one
    automorphism cycling places inside some of the classes."""
    t = rng.choice(SYMMETRIC_TYPES)
    n = rng.randint(1, max_places)
    labels: List[PlaceLabel] = []
    cycles = []
    c = 0
    while len(labels) < n:
        size = min(rng.randint(1, max_class), n - len(labels))
        kind = PlaceKind.FINITE_OUTER if t.is_outer and rng.random() < 0.3 else PlaceKind.FINITE_INNER
        ids = [f"v{len(labels) + i + 1}" for i in range(size)]
        labels += [PlaceLabel(pid, kind, f"c{c}") for pid in ids]
        if size >= 2 and rng.random() < 0.5:
            cycles.append(tuple(rng.sample(ids, rng.randint(2, size))))
        c += 1
    finite = _balanced_finite(rng, t, labels, zero(center_shape(t)))
    generators = (PlacePerm.from_cycles(cycles),) if cycles else ()
    order = len(PlaceSymmetry(generators).group())
    return _assemble(t, _galois_field(0, 2 * order), finite, [], generators)


def rand_interleaved(rng: random.Random, max_places: int = 12, max_classes: int = 4) -> GroupDescriptor:
    """Like ``rand_classed``, but the adelic classes interleave in place
    order: the first class comes back after the second has started, so a
    class is still open while another one is being filled."""
    t = rng.choice(SYMMETRIC_TYPES)
    n = rng.randint(3, max_places)
    k = rng.randint(2, max_classes)
    class_of = [0, 1, 0] + [rng.randrange(k) for _ in range(n - 3)]
    names = [f"c{j}" for j in rng.sample(range(k), k)]
    kinds = [
        PlaceKind.FINITE_OUTER if t.is_outer and rng.random() < 0.3 else PlaceKind.FINITE_INNER
        for _ in range(k)
    ]
    labels = [PlaceLabel(f"v{i + 1}", kinds[c], names[c]) for i, c in enumerate(class_of)]
    cycles = []
    for c in range(k):
        ids = [lab.id for lab, d in zip(labels, class_of) if d == c]
        if len(ids) >= 2 and rng.random() < 0.5:
            cycles.append(tuple(rng.sample(ids, rng.randint(2, len(ids)))))
    finite = _balanced_finite(rng, t, labels, zero(center_shape(t)))
    generators = (PlacePerm.from_cycles(cycles),) if cycles else ()
    order = len(PlaceSymmetry(generators).group())
    return _assemble(t, _galois_field(0, 2 * order), finite, [], generators)


def rand_paired(rng: random.Random, max_pairs: int = 5) -> GroupDescriptor:
    """Inner type A of rank 4-12 over a totally imaginary Galois field whose
    adelic classes hold many distinct flip pairs: each class takes up to
    ``max_pairs`` twin values, one or two places each, some of them next to
    their image, and perhaps a value the symmetry fixes.  A last place in
    its own class makes the vector coherent."""
    t = GroupType(Family.A, rng.randint(4, 12))
    kind = PlaceKind.FINITE_INNER
    shape = h2_local(t, kind)
    still = [x for x in shape_elements(shape) if sym_act(t, kind, x) == x]
    pairs = [(x, sym_act(t, kind, x)) for x in shape_elements(shape)
             if x.sort_key() < sym_act(t, kind, x).sort_key()]
    finite = []
    cycles = []
    total = zero(center_shape(t))
    for c in range(rng.randint(1, 2)):
        vals = []
        for pair in rng.sample(pairs, rng.randint(1, min(max_pairs, len(pairs)))):
            v, w = rng.sample(pair, 2)
            vals += [v] * rng.randint(1, 2) + [w] * (rng.random() < 0.5)
        if rng.random() < 0.3:
            vals.append(rng.choice(still))
        rng.shuffle(vals)
        ids = [f"v{len(finite) + i + 1}" for i in range(len(vals))]
        for pid, cls in zip(ids, vals):
            finite.append((PlaceLabel(pid, kind, f"c{c}"), cls))
            total = total + c_local(t, kind, cls)
        if len(ids) >= 2 and rng.random() < 0.5:
            cycles.append(tuple(rng.sample(ids, rng.randint(2, len(ids)))))
    balancer = PlaceLabel("vb", kind, "cb")
    finite.append((balancer, _preimage_for(t, kind, -total)))
    generators = (PlacePerm.from_cycles(cycles),) if cycles else ()
    order = len(PlaceSymmetry(generators).group())
    return _assemble(t, _galois_field(0, 2 * order), finite, [], generators)
