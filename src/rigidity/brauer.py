"""The local invariant vector of a group and its orbit combinatorics.

An inner twist is recorded by one local class per declared place.  The
vector must be coherent: the local contributions sum to zero in the
global dual target, which is exactly the condition for a family of local
classes to come from a global one.  On top of the plain vector this
module computes the twin places (where the local symmetry moves the
coordinate), the orbit of coherent symmetry flips, and the two-sided
uniformity comparison between globally realized and adelically possible
variations.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ._util import natural_key
from .errors import CapacityError, ContractError, ValidationError
from .field_model import (
    Coords,
    FieldDescriptor,
    PlaceLabel,
    PlaceSymmetry,
    _class_symmetry,
    adelic_orbit,
    coords_key,
    global_orbit,
    orbit_set,
    sort_coords,
)
from .invariants import (
    Family,
    GroupType,
    LocalClass,
    c_local,
    center_shape,
    h2_local,
    has_symmetry,
    sym_act,
)


@dataclass(frozen=True)
class OmegaVector:
    """Local invariant classes at the declared finite and real places."""

    group_type: GroupType
    finite: Coords = ()
    real: Coords = ()

    def __post_init__(self):
        object.__setattr__(self, "finite", sort_coords(self.finite))
        object.__setattr__(self, "real", sort_coords(self.real))
        t = self.group_type
        for lab, cls in self.finite:
            if not lab.kind.is_finite:
                raise ContractError(f"place {lab.id} is not finite")
            if cls.shape is not h2_local(t, lab.kind):
                self._check_shape(lab, cls)
        for lab, cls in self.real:
            if not lab.kind.is_real:
                raise ContractError(f"place {lab.id} is not real")
            if cls.shape is not h2_local(t, lab.kind):
                self._check_shape(lab, cls)
        # σω and the twin places, made by ``_flip_facts`` when first asked
        # for; not part of the value, so ``replace`` starts without them
        object.__setattr__(self, "_flips", None)

    def _check_shape(self, lab: PlaceLabel, cls: LocalClass):
        want = h2_local(self.group_type, lab.kind)
        if cls.shape is not want:
            raise ContractError(
                f"place {lab.id}: class shape {cls.shape} but {self.group_type.symbol()} "
                f"carries {want} at a {lab.kind.value} place"
            )


def tate_sum(omega: OmegaVector) -> LocalClass:
    """Sum of all local contributions in the global dual target; zero means coherent."""
    t = omega.group_type
    target = center_shape(t)
    values = [c_local(t, lab.kind, cls).value for lab, cls in omega.finite + omega.real]
    if target.kind == "klein":  # the class reduces each bit sum mod 2
        return LocalClass(target, (sum(a for a, _ in values), sum(b for _, b in values)))
    return LocalClass(target, sum(values) if target.kind == "cyclic" else None)


def is_coherent(omega: OmegaVector) -> bool:
    return tate_sum(omega).is_zero


def sigma_flip(omega: OmegaVector) -> Coords:
    """The finite coordinates with the diagram symmetry applied everywhere."""
    t = omega.group_type
    return tuple((lab, sym_act(t, lab.kind, cls)) for lab, cls in omega.finite)


def _flip_facts(omega: OmegaVector) -> Tuple[Coords, Tuple[PlaceLabel, ...]]:
    """σω and the twin places of omega, made by one ``sigma_flip`` the
    first time they are asked for and then kept with omega."""
    facts = omega._flips
    if facts is None:
        sigma = sigma_flip(omega)
        twins = tuple(lab for (lab, cls), (_, image) in zip(omega.finite, sigma) if image is not cls)
        facts = sigma, twins
        object.__setattr__(omega, "_flips", facts)
    return facts


def inner_twin_places(omega: OmegaVector) -> Tuple[PlaceLabel, ...]:
    """Finite places where the local symmetry moves the coordinate.

    At such a place the group has a second, non-isomorphic-as-twist but
    locally isomorphic inner form; these are the only finite places where
    locally invisible variation can happen.
    """
    return _flip_facts(omega)[1]


def _flip_rule(t: GroupType):
    """The coherence rule for symmetry flips: a charge per flipped place and a modulus.

    Flipping the coordinates at a set of twin places keeps the vector
    globally realizable exactly when the flipped part's dual sum is fixed
    by the global symmetry, that is when the charges of the flipped places
    sum to zero mod the modulus.  The charge is the dual contribution (mod
    half the center for odd A), one per flip for inner D (flips come in
    pairs), and nothing for outer types.
    """
    if t.is_outer or not has_symmetry(t):
        return (lambda kind, cls: 0), 1
    if t.family == Family.D:
        return (lambda kind, cls: 1), 2
    m = center_shape(t).modulus
    if t.family == Family.A and t.rank % 2 == 1:
        m //= 2
    return (lambda kind, cls: c_local(t, kind, cls).value % m), m


def _full_flip_coherent(omega: OmegaVector) -> bool:
    """Whether flipping every twin place is coherent, which is whether σω is
    possible: a class's residue follows from its value counts, and σω has
    the counts of omega swapped at each flip pair."""
    charge, m = _flip_rule(omega.group_type)
    value = dict(omega.finite)
    return sum(charge(lab.kind, value[lab]) for lab in inner_twin_places(omega)) % m == 0


@dataclass(frozen=True)
class SOmegaOrbit:
    admissible_subsets: Tuple[FrozenSet[str], ...]
    elements: Tuple[Coords, ...]


def _flip_subset(omega: OmegaVector, ids: Collection[str]) -> Coords:
    t = omega.group_type
    return tuple(
        (lab, sym_act(t, lab.kind, cls) if lab.id in ids else cls)
        for lab, cls in omega.finite
    )


# Most twin places whose 2^r flip subsets ``s_omega_orbit`` walks: 14 take about
# 0.6 s (type 1A3, 2-vCPU Xeon VM, Python 3.11), each further twin about twice that.
FLIP_WALK_TWIN_LIMIT = 14


def _coherent_flips(omega: OmegaVector) -> Tuple[List[FrozenSet[str]], Set[Coords]]:
    """``s_omega_orbit``'s subsets and flipped vectors, unsorted."""
    twins = inner_twin_places(omega)
    if len(twins) > FLIP_WALK_TWIN_LIMIT:
        raise CapacityError(f"{len(twins)} twin places exceed the flip walk's limit {FLIP_WALK_TWIN_LIMIT}")
    charge, m = _flip_rule(omega.group_type)
    value = dict(omega.finite)
    charges = [charge(lab.kind, value[lab]) for lab in twins]
    subsets = []
    def walk(i: int, chosen, acc: int):
        if i == len(twins):
            if acc == 0:
                subsets.append(frozenset(chosen))
            return
        walk(i + 1, chosen, acc)
        chosen.append(twins[i].id)
        walk(i + 1, chosen, (acc + charges[i]) % m)
        chosen.pop()
    walk(0, [], 0)
    return subsets, {_flip_subset(omega, ids) for ids in subsets}


def s_omega_orbit(omega: OmegaVector) -> SOmegaOrbit:
    """All coherent symmetry flips of the finite coordinates.

    Flipping the coordinates in a subset of the twin places keeps the
    vector globally realizable exactly when the flipped part's dual sum is
    fixed by the global symmetry; the subsets satisfying that condition
    parameterize the orbit.  This walks all 2^r subsets of the r twin
    places: it is the reference listing, not the decision path, and above
    ``FLIP_WALK_TWIN_LIMIT`` twin places it raises CapacityError.
    """
    subsets, elements = _coherent_flips(omega)
    return SOmegaOrbit(tuple(sorted(subsets, key=lambda s: (len(s), sorted(map(natural_key, s))))),
                       tuple(sorted(elements, key=coords_key)))


def pick_witness(candidates: Iterable[Coords], base: Coords) -> Coords:
    """Deterministic choice among orbit vectors: agree with the base at the
    earliest places for as long as possible, then smallest values."""
    def key(c: Coords):
        return tuple(
            ((0 if cls == bcls else 1), cls.sort_key())
            for (_, cls), (_, bcls) in zip(c, base)
        )
    return min(candidates, key=key)


# Most terms the convolutions of one comparison may multiply, together with
# the terms of the pair factors it builds; sparse residue vectors still grow
# like 2^k with k distinct charges when the modulus is large, and a class of
# r open places in one pair has a factor of r + 1 terms for each count fixed.
RESIDUE_WORK_LIMIT = 1 << 18


def _charge(work: List[int], terms: int) -> None:
    """Count ``terms`` more residue products of one comparison; CapacityError
    past ``RESIDUE_WORK_LIMIT``."""
    work[0] += terms
    if work[0] > RESIDUE_WORK_LIMIT:
        raise CapacityError(
            f"{work[0]} residue products exceed the work limit {RESIDUE_WORK_LIMIT}"
        )


def _convolve(a: Dict[int, int], b: Dict[int, int], m: int, work: List[int]) -> Dict[int, int]:
    """Cyclic convolution mod m of two residue vectors stored by their support."""
    _charge(work, len(a) * len(b))
    out: Dict[int, int] = {}
    for r, x in a.items():
        for s, y in b.items():
            key = (r + s) % m
            out[key] = out.get(key, 0) + x * y
    return out


def _fixed_residue(still: Tuple[int, ...], pairs: list, held, m: int) -> Optional[int]:
    """A fully fixed class weighs one arrangement at one residue, or nothing:
    its counts must match each still value and each pair's total."""
    s, total = len(still), 0
    if tuple(held[:s]) != still:
        return None
    for (a, pair, ch), fv, fw in zip(pairs, held[s::2], held[s + 1::2]):
        if fv + fw != pair:
            return None
        total += (a - fv) * ch
    return total % m


def _possible_side(omega: OmegaVector, flips: bool):
    """The possible side of one comparison, counted and never listed: the
    coherent flips of the finite coordinates (none when ``flips`` is off),
    permuted within each adelic class.  A vector is possible exactly when
    every class holds a value multiset that one coherent set of flips
    produces there.  A class's residue vector (its arrangements summed by
    the residue of the flip charge) follows from its shape, the place kind
    and value counts, so classes of one shape share it, and the possible
    count is coefficient 0 of the cyclic convolution of one vector per
    class.  A fully fixed class weighs one arrangement at one residue, or
    nothing, in closed form, and the witness rebuild carries the finished
    classes as one residue.  Vectors are stored by their support, so the
    cost follows the residues that occur, not the modulus; more than
    ``RESIDUE_WORK_LIMIT`` convolution products and pair factor terms in
    all raise ``CapacityError``.  Returns the count and the witness
    rebuild, which takes the possible vectors of the realized side.
    """
    t = omega.group_type
    base = omega.finite
    flips = flips and has_symmetry(t)
    charge, m = _flip_rule(t) if flips else ((lambda kind, cls: 0), 1)
    by_class: Dict[str, Tuple[List[int], Dict[LocalClass, int]]] = defaultdict(lambda: ([], {}))
    for i, (lab, v) in enumerate(base):  # each class's places and value counts
        idx, counts = by_class[lab.class_key()]
        idx.append(i)
        counts[v] = counts.get(v, 0) + 1
    classes = list(by_class.values())  # numbered by their first place
    # per shape (place kind and value counts): the counts of the values
    # flips keep and the flip pairs.  A twin value v (a places) pairs with
    # its image w: j flips of v and j' of w leave k = a - j + j' places at
    # v, any k from 0 to the pair's total, and add (a - k) times the charge
    # of v.  Each value has a slot, still ones first, then v and w of each
    # pair, and a count per slot fixes the arrangements ``weights`` counts.
    shapes: Dict[tuple, int] = {}
    shape_of: List[int] = []  # per class
    parts, slots = [], []  # counts, value -> slot
    for idx, counts in classes:
        kind = base[idx[0]][0].kind
        s = shapes.setdefault((kind, frozenset(counts.items())), len(parts))
        shape_of.append(s)
        if s == len(parts):  # a new shape
            still, pairs, paired = [], [], set()
            for v, a in counts.items():
                w = sym_act(t, kind, v) if flips else v
                if w == v:
                    still.append((v, a))
                elif v not in paired:
                    paired.add(w)
                    pairs.append((v, w, a, a + counts.get(w, 0), charge(kind, v)))
            parts.append((tuple(a for _, a in still), [p[2:] for p in pairs]))
            vals = [v for v, _ in still] + [u for v, w, *_ in pairs for u in (v, w)]
            slots.append({v: j for j, v in enumerate(vals)})

    work = [0]  # residue products and pair factor terms so far
    memo: Dict[Tuple[int, Tuple[int, ...]], Dict[int, int]] = {}

    def weights(s: int, fix: Tuple[int, ...]) -> Dict[int, int]:
        """The arrangements of a class of shape s agreeing with the value
        counts f already fixed there, summed by the residue of their charge:
        the multinomial of the places left open at each still value and each
        pair, times one factor per pair with r places open, sum over i of
        C(r, i) at residue (a - f_v - i) * charge.  Each factor's r + 1
        terms count towards ``RESIDUE_WORK_LIMIT``."""
        if (s, fix) in memo:
            return memo[s, fix]
        still, pairs = parts[s]
        n = math.factorial(sum(still) + sum(total for _, total, _ in pairs) - sum(fix))
        for a, f in zip(still, fix):
            if f > a:
                return {}
            n //= math.factorial(a - f)
        open_pairs = []
        for (a, total, ch), fv, fw in zip(pairs, fix[len(still)::2], fix[len(still) + 1::2]):
            r = total - fv - fw
            if r < 0:
                return {}
            n //= math.factorial(r)
            open_pairs.append((r, a - fv, ch))
        w = None  # the first factor carries the multinomial
        for r, a, ch in open_pairs:
            _charge(work, r + 1)
            factor: Dict[int, int] = {}
            c = n  # n * C(r, i), kept by the running binomial
            for i in range(r + 1):
                key = (a - i) * ch % m
                factor[key] = factor.get(key, 0) + c
                c = c * (r - i) // (i + 1)
            w, n = (factor if w is None else _convolve(w, factor, m, work)), 1
        memo[s, fix] = w = {0: n} if w is None else w
        return w

    # suffix[k]: the classes from k on, nothing fixed
    unfixed = [(0,) * len(slot) for slot in slots]  # per shape
    suffix = [{0: 1}]
    for s in reversed(shape_of):
        suffix.append(_convolve(weights(s, unfixed[s]), suffix[-1], m, work))
    suffix.reverse()
    possible = suffix[0].get(0, 0)

    def witness(members: Collection[tuple]) -> Coords:
        """The pick_witness minimum outside the realized side, place by place:
        the first value, in that order, that leaves one.  Classes not started
        enter as a suffix product, finished ones as the residue ``done``."""
        class_of = {i: k for k, (idx, _) in enumerate(classes) for i in idx}
        ranked = [sorted(slot.items(), key=lambda vj: vj[0].sort_key()) for slot in slots]  # by value
        fixed = [unfixed[s] for s in shape_of]
        done = started = 0
        opened: List[int] = []
        chosen = []
        for i, (lab, b) in enumerate(base):
            c = class_of[i]
            s = shape_of[c]
            if c == started:
                started += 1
                opened.append(c)
            rest = suffix[started]
            for k in opened:
                if k != c:
                    rest = _convolve(rest, weights(shape_of[k], fixed[k]), m, work)
            last, held = i == classes[c][0][-1], fixed[c]
            for v, j in [(b, slots[s][b])] + [vj for vj in ranked[s] if vj[0] != b]:
                fix = held[:j] + (held[j] + 1,) + held[j + 1:]
                left = [x for x in members if x[i] == v]
                if last:  # the class ends here
                    r = _fixed_residue(*parts[s], fix, m)
                    if r is not None and rest.get((-r - done) % m, 0) > len(left):
                        break
                elif sum(n * rest.get((-q - done) % m, 0) for q, n in weights(s, fix).items()) > len(left):
                    break
            fixed[c] = fix
            if last:
                opened.remove(c)
                done += r
            chosen.append((lab, v))
            members = left
        return tuple(chosen)

    return possible, witness


def compare_possible(
    omega: OmegaVector, orbit: Set[tuple], flipped: Optional[Set[tuple]] = None
) -> Tuple[int, Optional[Coords]]:
    """Compare the realized side, given by its structure, with the possible
    side by counting.  ``orbit`` is O, the automorphism orbit of the finite
    values of omega (``orbit_set`` value tuples).  With ``flipped``, σ(O),
    the realized side is O ∪ σ(O) and flips are on (weak uniformity);
    without it, O and no flips (the orbit match).  No vector is tested:
    generators keep each place in its class, so O arranges omega, the empty
    flip, and is possible; σ commutes with them, so σ(O) arranges σω and is
    O or disjoint from it, and it is possible exactly when the full flip is
    (``_full_flip_coherent``).  Returns the possible count and, unless the
    sides are equal, the ``pick_witness`` choice among possible vectors
    outside the realized side, else among σ(O), which then are the
    realized vectors it lacks.  Only direct ``weak_uniformity`` calls reach
    that branch (say type 1D6 over Q, one twin): its witness is incoherent,
    and ``check_witness`` would raise on it if ``classify`` ever got there.
    """
    possible, witness = _possible_side(omega, flipped is not None)
    members, outside = orbit, ()
    if flipped is not None:
        if _full_flip_coherent(omega):
            members = orbit | flipped
        else:
            outside = flipped
    if possible != len(members):
        return possible, witness(members)
    if not outside:
        return possible, None
    labels = [lab for lab, _ in omega.finite]
    return possible, pick_witness((tuple(zip(labels, x)) for x in outside), omega.finite)


@dataclass(frozen=True)
class WeakUniformityReport:
    """The two-sided comparison of ``weak_uniformity``, by ``compare_possible``."""

    holds: bool
    lhs: FrozenSet[tuple]  # the realized side O ∪ σ(O): unsorted ``orbit_set`` value tuples
    possible: int
    witness: Optional[Coords]


def weak_uniformity(
    omega: OmegaVector,
    f: FieldDescriptor,
    s: PlaceSymmetry,
    stabilize_real: Optional[str] = None,
) -> WeakUniformityReport:
    """Compare globally realized variations against adelically possible ones.

    Left side: the finite vector and its full symmetry flip, closed under
    the declared field automorphisms (restricted to the stabilizer of one
    real place when requested).  The walk lists O, the orbit of the finite
    vector, once; σ commutes with the automorphisms, which keep place
    kinds, so the flip's orbit is σ(O), taken vector by vector, or O
    itself once σω lies in O.  Right side: every coherent flip, closed
    under all class-preserving place permutations, counted rather than
    listed.  Holding means every locally invisible variation is globally
    accounted for.
    """
    if stabilize_real and stabilize_real not in {p.id for p in f.real_places}:
        raise ValidationError([f"{stabilize_real} is not a declared real place"])
    orbit = orbit_set([omega.finite], s, stabilize_real)
    sigma, kinds = tuple(cls for _, cls in _flip_facts(omega)[0]), [lab.kind for lab, _ in omega.finite]
    flipped = orbit if sigma in orbit else {
        tuple(map(sym_act, repeat(omega.group_type), kinds, x)) for x in orbit}
    possible, witness = compare_possible(omega, orbit, flipped)
    return WeakUniformityReport(witness is None, frozenset(orbit | flipped), possible, witness)


def possible_vectors(omega: OmegaVector) -> Tuple[Coords, ...]:
    """The possible side, listed: one ``orbit_set`` walk from every coherent
    flip at once, under the permutations within each adelic class."""
    starts = list(_coherent_flips(omega)[1])
    labels = [lab for lab, _ in omega.finite]
    out = (tuple(zip(labels, x)) for x in orbit_set(starts, _class_symmetry(starts)))
    return tuple(sorted(out, key=coords_key))


def plain_orbits(
    omega: OmegaVector, s: PlaceSymmetry
) -> Tuple[Tuple[Coords, ...], Tuple[Coords, ...]]:
    """The one-sided orbit pair: field automorphisms only vs adelic permutations only."""
    return global_orbit(omega.finite, s), adelic_orbit(omega.finite)


def inner_twin_bound(omega: OmegaVector, f: FieldDescriptor) -> bool:
    """Degree bound that forces non-rigidity once enough twin places pile up."""
    t = omega.group_type
    if t.is_outer or not has_symmetry(t):
        return False
    r = len(inner_twin_places(omega))
    if r == 0:
        return False
    return f.degree < 2 ** ((r - 1) // _flip_rule(t)[1])
