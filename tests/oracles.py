"""Reference checks the engine does not need, and the catalog groups.

``hbar_certificate`` and ``mackey_decomposition_holds`` restate the
index-two criterion and the Mackey decomposition behind it;
``global_sym_act`` is the diagram symmetry on the global dual target,
which the brute-force flip listings filter by; ``outer_fast_path`` is a
shortcut for weak uniformity of outer types that ``weak_uniformity``
must agree with; ``reference_compare_possible`` counts the possible side
with one residue vector per adelic class and carries the finished classes
as a running product, as ``brauer.compare_possible`` did before it counted
per class shape, and must give the same count, witness and exceptions;
``reference_class_test`` tests one vector class by class, from the value
counts of omega and no table of the engine, and ``brauer._full_flip_coherent``
must agree with it on σω; ``per_vector_compare_possible`` takes any realized
side and runs that test on each of its vectors, as ``compare_possible`` did
before it decided membership per orbit, and must agree with it on the sides
the engine builds;
``reference_group`` lists a field automorphism group by
composing place permutations keyed by place id, ``reference_push`` pushes
a vector along one of them by place id, and ``reference_global_orbit`` and
``reference_two_sided_orbit`` are the orbits ``global_orbit`` and
``classifier._two_sided_orbit`` must agree with.
``reference_arrangements`` lists every permutation of each adelic class
by ``itertools.permutations``, and ``reference_possible_vectors`` takes
its union over the coherent flips: the listings ``adelic_orbit`` and
``brauer.possible_vectors`` must agree with, with no ``orbit_set`` walk.
``ReferenceParser`` (``reference_parse``) reads a descriptor line by line
with no memo and with no table or reader of ``rigidity.descriptor``, and
``rigidity.descriptor.parse`` must read it alike.
``reference_subgroup_check`` and ``reference_are_conjugate`` are the
all-pairs closure check and the all-members conjugacy test that
``arith_equiv.Subgroup`` and ``are_conjugate`` must agree with,
``reference_induced_character`` counts fixed cosets by testing every class
representative against every coset, which the induced character of
``arith_equiv`` must agree with, and ``reference_closure`` lists a generated group breadth
first, as ``arith_equiv.generate`` must.  ``reference_classes``,
``reference_normal_subgroups``, ``reference_index_two_subgroups``,
``stabilizer_induced_character``, ``generator_are_conjugate`` and
``reference_verify`` compute on tuples of degree points what
``arith_equiv`` computes on element numbers, by the same algorithms, and
must agree with it everywhere.  ``catalog_groups``
parses ``fixtures/groups.cat`` afresh on every call, as
``rigidity.catalog.catalog_group`` does for one group, so no two tests
share a group's caches.  ``run_python`` runs code in a fresh interpreter
that imports the package under test.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import rigidity
from rigidity.arith_equiv import (
    DEFAULT_GROUP_CAP,
    NORMAL_SUBGROUP_LIMIT,
    Perm,
    PermGroup,
    Subgroup,
    _adjoin,
    _times,
    almost_conjugate,
    are_conjugate,
    generate,
    perm_inv,
    perm_mul,
)
from rigidity.brauer import (
    OmegaVector,
    _convolve,
    _flip_rule,
    _possible_side,
    inner_twin_places,
    pick_witness,
    plain_orbits,
    s_omega_orbit,
    sigma_flip,
)
from rigidity.classifier import GroupDescriptor
from rigidity.catalog import parse_catalog
from rigidity.errors import (
    CapacityError,
    ContractError,
    DescriptorParseError,
    OutOfScopeError,
    RigidityError,
    ValidationError,
)
from rigidity.field_model import (
    Coords, FieldDescriptor, HbarFiber, PlaceLabel, PlacePerm, PlaceSymmetry, sort_coords,
)
from rigidity.invariants import (
    FIXED_RANKS,
    Family,
    FormKind,
    GroupType,
    LocalClass,
    PlaceKind,
    Shape,
    center_shape,
    has_symmetry,
    h2_local,
    sym_act,
    zero,
)
from rigidity.real_forms import GENERIC, RealFormTag, real_class

CATALOG = Path(__file__).resolve().parent.parent / "fixtures" / "groups.cat"


def run_python(args: List[str], hash_seed: Optional[str] = None,
               stdin: bytes = b"") -> subprocess.CompletedProcess:
    """``python ARGS`` importing this ``rigidity``, with a fixed string hash
    seed when one is given; output is captured as bytes."""
    src = str(Path(rigidity.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, *args], input=stdin, env=env, capture_output=True)


def catalog_groups() -> List[PermGroup]:
    """Every group of the bundled catalog, in file order, freshly parsed."""
    return parse_catalog(CATALOG.read_text(encoding="utf-8"))


def global_sym_act(t: GroupType, x: LocalClass) -> LocalClass:
    """Action of the diagram symmetry on the global dual target."""
    target = center_shape(t)
    if x.shape != target:
        raise ContractError(f"class shape {x.shape} does not match global target {target}")
    if not has_symmetry(t) or target.kind == "trivial":
        return x
    if target.kind == "klein":
        return LocalClass(target, (x.value[1], x.value[0]))
    return -x


def hbar_certificate(G: PermGroup, N: Subgroup, pairs) -> bool:
    """Certify that every almost conjugate pair of index-two subgroups of a
    normal subgroup is conjugate in the ambient group."""
    if frozenset(
        perm_mul(perm_mul(g, x), perm_inv(g)) for g in G.generators for x in N.members
    ) != N.members:
        raise ContractError("N must be normal in G")
    for U1, U2 in pairs:
        for U in (U1, U2):
            if not U.members <= N.members or 2 * U.order() != N.order():
                raise ContractError("pair members must have index two in N")
        if almost_conjugate(G, U1, U2) and not are_conjugate(G, U1, U2):
            return False
    return True


def reference_closure(generators: Sequence[Perm], identity: Perm) -> List[Perm]:
    """Every element the generators generate, breadth first from ``identity``;
    CapacityError once there are more than ``DEFAULT_GROUP_CAP``."""
    elems, seen = [identity], {identity}
    for e in elems:  # elems grows while it is read
        for g in generators:
            h = perm_mul(g, e)
            if h not in seen:
                seen.add(h)
                elems.append(h)
                if len(elems) > DEFAULT_GROUP_CAP:
                    raise CapacityError(f"group order exceeds the cap {DEFAULT_GROUP_CAP}")
    return elems


def reference_subgroup_check(G: PermGroup, members) -> None:
    """ContractError unless ``members`` holds the identity, lies in ``G``
    and holds the product of every ordered pair of its elements."""
    if G.identity not in members:
        raise ContractError("subgroup must contain the identity")
    for a in members:
        if a not in G:
            raise ContractError("subgroup element outside the ambient group")
        for b in members:
            if perm_mul(a, b) not in members:
                raise ContractError("subgroup not closed under composition")


def reference_induced_character(G: PermGroup, U: Subgroup) -> Tuple[int, ...]:
    """Value on each conjugacy class of the character induced from the trivial
    one on U: each left coset xU listed as a set, and for each class
    representative r the cosets with r x in xU counted."""
    cosets = []  # (representative x, coset xU)
    assigned = set()
    for x in G.elements():
        if x in assigned:
            continue
        coset = frozenset([perm_mul(x, u) for u in U.members])
        assigned |= coset
        cosets.append((x, coset))
    return tuple(
        sum(perm_mul(cls[0], x) in coset for x, coset in cosets)
        for cls in G.conjugacy_classes()
    )


def reference_are_conjugate(G: PermGroup, U1: Subgroup, U2: Subgroup) -> bool:
    """Whether some element of ``G`` conjugates every member of ``U1`` into ``U2``."""
    if U1.order() != U2.order():
        return False
    for g in G.elements():
        gi = perm_inv(g)
        if all(perm_mul(perm_mul(g, u), gi) in U2.members for u in U1.members):
            return True
    return False


def reference_classes(G: PermGroup) -> List[Tuple[Perm, ...]]:
    """The conjugacy classes as orbits of tuples under conjugation by the
    generators, each sorted, listed by (size, least element)."""
    assigned = set()
    classes = []
    pairs = [(g, perm_inv(g)) for g in G.generators]
    for rep in G.elements():  # sorted, so each rep is its class's least element
        if rep in assigned:
            continue
        orbit = {rep}
        frontier = [rep]
        while frontier:
            nxt = []
            for x in frontier:
                for g, gi in pairs:
                    y = perm_mul(perm_mul(g, x), gi)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        assigned |= orbit
        classes.append(tuple(sorted(orbit)))
    return sorted(classes, key=lambda c: (len(c), c[0]))


def reference_normal_subgroups(G: PermGroup) -> List[FrozenSet[Perm]]:
    """The normal subgroups as joins of the subgroups the classes generate,
    on tuples, with CapacityError past ``NORMAL_SUBGROUP_LIMIT`` at the same
    point of the closure as ``PermGroup.normal_subgroups``."""
    trivial = frozenset([G.identity])
    spans: Dict[FrozenSet[Perm], Tuple[Perm, ...]] = {}
    for cls in reference_classes(G):
        if cls[0] != G.identity:
            gens, sub = generate(cls, G.identity)
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
                if gens[0] in n or n <= sub:
                    continue
                join = _adjoin(n, list(map(_times, gens)))
                if join not in known:
                    known.add(join)
                    nxt.append(join)
        frontier = nxt
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def reference_index_two_subgroups(G: PermGroup, n: FrozenSet[Perm]) -> List[FrozenSet[Perm]]:
    """The index-two subgroups of ``n`` as hyperplane preimages of its
    quotient by the squares, on tuples, sorted by elements."""
    if len(n) % 2:
        return []
    _, squares = generate({perm_mul(x, x) for x in n}, G.identity)
    coords = dict.fromkeys(squares, 0)
    bit = 1
    for x in n:
        if x not in coords:
            coords.update([(perm_mul(y, x), c | bit) for y, c in coords.items()])
            bit <<= 1
    halves = [frozenset(x for x, c in coords.items() if not (c & f).bit_count() % 2)
              for f in range(1, bit)]
    return sorted(halves, key=sorted)


def reference_profile(classes, members: FrozenSet[Perm]) -> Tuple[int, ...]:
    """How many of ``members`` each of ``classes`` (``reference_classes``) holds."""
    return tuple(len(members.intersection(c)) for c in classes)


def stabilizer_induced_character(G: PermGroup, classes,
                                 members: FrozenSet[Perm]) -> Tuple[int, ...]:
    """The induced character on tuples, counted through coset stabilizers:
    each left coset xU entered at its first element x, and one added to a
    class of ``classes`` for every u in U with xux^-1 its representative."""
    index = {cls[0]: i for i, cls in enumerate(classes)}
    values = [0] * len(index)
    covered = set()
    for x in G.elements():
        if x in covered:
            continue
        xi = perm_inv(x)
        for u in members:
            y = perm_mul(x, u)
            covered.add(y)
            i = index.get(perm_mul(y, xi))
            if i is not None:
                values[i] += 1
    return tuple(values)


def generator_are_conjugate(G: PermGroup, members1: FrozenSet[Perm],
                            members2: FrozenSet[Perm]) -> bool:
    """Whether some element of ``G``, in element order, conjugates a
    generating tuple of ``members1`` (``generate`` on its sorted members)
    into ``members2``."""
    if len(members1) != len(members2):
        return False
    gens, _ = generate(sorted(members1), G.identity)
    for g in G.elements():
        gi = perm_inv(g)
        if all(perm_mul(perm_mul(g, x), gi) in members2 for x in gens):
            return True
    return False


def reference_verify(G: PermGroup):
    """``verify_prop_almost_conjugate`` on tuples: every pair of index-two
    subgroups of every normal subgroup whose class profiles and induced
    characters agree must be conjugate.  Returns (True, None) or (False,
    (members1, members2)) for the first pair that is not; ContractError
    when profile and character disagree on a pair."""
    classes = reference_classes(G)
    for n in reference_normal_subgroups(G):
        halves = reference_index_two_subgroups(G, n)
        signatures = [(reference_profile(classes, h), stabilizer_induced_character(G, classes, h))
                      for h in halves]
        for i, h1 in enumerate(halves):
            for j in range(i + 1, len(halves)):
                by_profile = signatures[i][0] == signatures[j][0]
                if by_profile != (signatures[i][1] == signatures[j][1]):
                    raise ContractError("class profiles and induced characters disagree")
                if by_profile and not generator_are_conjugate(G, h1, halves[j]):
                    return False, (h1, halves[j])
    return True, None


def mackey_decomposition_holds(G: PermGroup, N: Subgroup, U: Subgroup) -> bool:
    """Check that inducing the trivial character of U to G and restricting to N
    equals [G:N] copies of the trivial character plus the order-two characters
    with kernels the G-conjugates of U, one per coset of N."""
    if not U.members <= N.members or 2 * U.order() != N.order():
        raise ContractError("U must have index two in N")
    elems = G.elements()
    # coset representatives of N\G
    reps, covered = [], set()
    for x in elems:
        if x not in covered:
            reps.append(x)
            covered |= {perm_mul(n, x) for n in N.members}
    index = len(reps)
    conjugates = []
    for g in reps:
        gi = perm_inv(g)
        conjugates.append(frozenset(perm_mul(perm_mul(g, u), gi) for u in U.members))
    cosets = []
    assigned = set()
    for x in elems:
        if x in assigned:
            continue
        coset = frozenset(perm_mul(x, u) for u in U.members)
        assigned |= coset
        cosets.append(coset)
    for n in N.members:
        induced = sum(1 for c in cosets if perm_mul(n, next(iter(c))) in c)
        rhs = index + sum(1 if n in k else -1 for k in conjugates)
        if induced != rhs:
            return False
    return True


def outer_fast_path(omega: OmegaVector, s: PlaceSymmetry) -> Optional[bool]:
    """Weak uniformity for outer types: at most one twin place and matching plain orbits."""
    if not omega.group_type.is_outer:
        return None
    if len(inner_twin_places(omega)) >= 2:
        return False
    glob, adel = plain_orbits(omega, s)
    return set(glob) == set(adel)


def reference_class_test(omega: OmegaVector, x: tuple, flips: bool = True) -> bool:
    """Whether the vector of values ``x`` (over the places of omega) is
    possible, with flips on or off, tested class by class with no table of
    ``brauer._possible_side``: each class must hold ω's count of every value
    the symmetry keeps and, for each pair of a twin value v and its image w,
    ω's total of the two; j fewer places at v than ω's a add (a - j) times
    the charge of v, and the charges must sum to 0 mod the modulus."""
    t = omega.group_type
    flips = flips and has_symmetry(t)
    charge, m = _flip_rule(t) if flips else ((lambda kind, cls: 0), 1)
    want: Dict[str, Counter] = {}
    got: Dict[str, Counter] = {}
    kind_of = {}
    for (lab, v), u in zip(omega.finite, x):
        want.setdefault(lab.class_key(), Counter())[v] += 1
        got.setdefault(lab.class_key(), Counter())[u] += 1
        kind_of[lab.class_key()] = lab.kind
    total = 0
    for key, counts in want.items():
        kind, held, seen = kind_of[key], got[key], set()
        for v, a in counts.items():
            w = sym_act(t, kind, v) if flips else v
            if v in seen:  # the image of a value already paired
                continue
            seen.update((v, w))
            if w == v:
                if held[v] != a:
                    return False
            elif held[v] + held[w] != a + counts[w]:
                return False
            else:
                total += (a - held[v]) * charge(kind, v)
        if not seen.issuperset(held):
            return False
    return total % m == 0


def per_vector_compare_possible(
    omega: OmegaVector, realized: Iterable[tuple], flips: bool = True
) -> Tuple[int, Optional[Coords]]:
    """``brauer.compare_possible`` on any realized side (``orbit_set`` value
    tuples), with flips on or off: ``reference_class_test`` runs on every
    realized vector, and the count and the witness rebuild are the engine's."""
    possible, witness = _possible_side(omega, flips)
    realized = set(realized)
    members = [x for x in realized if reference_class_test(omega, x, flips)]
    if possible != len(members):
        return possible, witness(members)
    if len(members) == len(realized):
        return possible, None
    labels = [lab for lab, _ in omega.finite]
    return possible, pick_witness((tuple(zip(labels, x)) for x in realized.difference(members)), omega.finite)


def reference_compare_possible(
    omega: OmegaVector, realized: Iterable[tuple], flips: bool = True
) -> Tuple[int, Optional[Coords]]:
    """Compare realized vectors (``orbit_set`` value tuples) with the
    adelically possible ones by counting.

    The possible vectors are the coherent flips of the finite coordinates
    (only the coordinates themselves when ``flips`` is off), permuted
    within each adelic class.  A vector is possible exactly when every
    class holds a value multiset that one coherent set of flips produces
    there, so each class contributes a residue vector (its arrangements
    summed by the residue of the flip charge) and the possible side is
    counted, without listing it, as coefficient 0 of the cyclic
    convolution of those vectors.  Vectors are stored by their support, so
    the cost follows the residues that occur, not the modulus; convolutions
    of more than ``RESIDUE_WORK_LIMIT`` products in all raise
    ``CapacityError``.  Returns the possible count and, unless the two
    sides are equal, the ``pick_witness`` choice among possible vectors
    outside the realized side, or among realized vectors outside the
    possible side when there are none.
    """
    t = omega.group_type
    base = omega.finite
    flips = flips and has_symmetry(t)
    charge, m = _flip_rule(t) if flips else ((lambda kind, cls: 0), 1)
    by_class: Dict[str, List[int]] = {}
    for i, (lab, _) in enumerate(base):
        by_class.setdefault(lab.class_key(), []).append(i)
    classes = list(by_class.values())  # numbered by their first place
    class_of = {i: k for k, idx in enumerate(classes) for i in idx}
    # per class: the values flips keep (v, a places) and the flip pairs.  A
    # twin value v (a places) pairs with its image w: j flips of v and j' of
    # w leave k = a - j + j' places at v, any k from 0 to the pair's total,
    # and add (a - k) times the charge of v.  Each value has a slot, still
    # ones first, then v and w of each pair, and a count per slot fixes the
    # arrangements ``weights`` counts.
    parts: List[Tuple[list, list]] = []
    slots: List[Dict[LocalClass, int]] = []  # per class: value -> slot
    for idx in classes:
        counts = Counter(base[i][1] for i in idx)  # hashes each value once
        kind = base[idx[0]][0].kind
        still, pairs, paired = [], [], set()
        for v, a in counts.items():
            w = sym_act(t, kind, v) if flips else v
            if w == v:
                still.append((v, a))
            elif v not in paired:
                paired.add(w)
                pairs.append((v, w, a, a + counts.get(w, 0), charge(kind, v)))
        parts.append((still, pairs))
        vals = [v for v, _ in still] + [u for v, w, *_ in pairs for u in (v, w)]
        slots.append({v: j for j, v in enumerate(vals)})

    work = [0]  # residue products so far

    @lru_cache(maxsize=None)
    def weights(k: int, fix: Tuple[int, ...]) -> Dict[int, int]:
        """Class k's arrangements agreeing with the value counts f already
        fixed there, summed by the residue of their charge: the multinomial
        of the places left open at each still value and each pair, times
        one factor per pair with r places open, sum over i of C(r, i) at
        residue (a - f_v - i) * charge."""
        still, pairs = parts[k]
        s = len(still)
        n = math.factorial(len(classes[k]) - sum(fix))
        for (_, a), f in zip(still, fix):
            if f > a:
                return {}
            n //= math.factorial(a - f)
        open_pairs = []
        for (_, _, a, total, ch), fv, fw in zip(pairs, fix[s::2], fix[s + 1::2]):
            r = total - fv - fw
            if r < 0:
                return {}
            n //= math.factorial(r)
            open_pairs.append((r, a - fv, ch))
        w = None  # the first factor carries the multinomial
        for r, a, ch in open_pairs:
            factor: Dict[int, int] = {}
            for i in range(r + 1):
                key = (a - i) * ch % m
                factor[key] = factor.get(key, 0) + n * math.comb(r, i)
            w, n = (factor if w is None else _convolve(w, factor, m, work)), 1
        return {0: n} if w is None else w

    # suffix[k]: the classes from k on, nothing fixed
    unfixed = [(0,) * len(slot) for slot in slots]
    one = {0: 1}
    suffix = [one]
    for k in reversed(range(len(classes))):
        suffix.append(_convolve(weights(k, unfixed[k]), suffix[-1], m, work))
    suffix.reverse()
    possible = suffix[0].get(0, 0)

    def is_possible(x: Coords) -> bool:
        # a class with all its places fixed weighs one arrangement at one
        # residue, or nothing when no coherent flip puts its values there
        total = 0
        for k, (idx, slot) in enumerate(zip(classes, slots)):
            held = [0] * len(slot)
            for i in idx:
                j = slot.get(x[i])
                if j is None:
                    return False
                held[j] += 1
            w = weights(k, tuple(held))
            if not w:
                return False
            total += next(iter(w))
        return total % m == 0

    realized = set(realized)
    members = [x for x in realized if is_possible(x)]
    if possible == len(members):
        if len(members) == len(realized):
            return possible, None
        labels = [lab for lab, _ in base]
        return possible, pick_witness((tuple(zip(labels, x)) for x in realized.difference(members)), base)
    # rebuild the pick_witness minimum place by place: keep the first value,
    # in pick_witness order, that leaves a possible vector outside the
    # realized side.  The classes not started yet contribute a suffix
    # product, the finished ones a running product, and the other open
    # ones (classes interleave in place order) their current vectors.
    fixed = list(unfixed)
    done = one
    started = 0
    opened: List[int] = []
    witness = []
    for i, (lab, b) in enumerate(base):
        c = class_of[i]
        if c == started:
            started += 1
            opened.append(c)
        rest = _convolve(done, suffix[started], m, work)
        for k in opened:
            if k != c:
                rest = _convolve(rest, weights(k, fixed[k]), m, work)
        vals = list(slots[c])
        for j in sorted(range(len(vals)), key=lambda j: (vals[j] != b, vals[j].sort_key())):
            v = vals[j]
            fix = fixed[c][:j] + (fixed[c][j] + 1,) + fixed[c][j + 1:]
            left = [x for x in members if x[i] == v]
            if len(vals) == 1 or sum(n * rest.get(-r % m, 0) for r, n in weights(c, fix).items()) > len(left):
                break
        fixed[c] = fix
        if i == classes[c][-1]:
            opened.remove(c)
            done = _convolve(done, weights(c, fix), m, work)
        witness.append((lab, v))
        members = left
    return possible, tuple(witness)


def compose(p: PlacePerm, q: PlacePerm) -> PlacePerm:
    """p after q: (p * q)(x) = p(q(x))."""
    support = {a for a, _ in p.moved} | {a for a, _ in q.moved}
    return PlacePerm.from_mapping({x: p.apply(q.apply(x)) for x in support})


def reference_group(s: PlaceSymmetry) -> Tuple[PlacePerm, ...]:
    """The group the generators of ``s`` generate, sorted by moved points:
    breadth first from the identity, one ``compose`` per generator and known
    element, with no limit."""
    identity = PlacePerm()
    elems, seen = [identity], {identity}
    for e in elems:  # elems grows while it is read
        for g in s.generators:
            h = compose(g, e)
            if h not in seen:
                seen.add(h)
                elems.append(h)
    return tuple(sorted(elems, key=lambda p: p.moved))


def reference_push(coords, perm: PlacePerm):
    """Push (place label, value) pairs forward along a place permutation,
    by place id."""
    ids = {lab.id for lab, _ in coords}
    pushed = {}
    for lab, cls in coords:
        target = perm.apply(lab.id)
        if target not in ids:
            raise ValidationError([f"permutation moves {lab.id} outside the declared support"])
        pushed[target] = cls
    return tuple((lab, pushed[lab.id]) for lab, _ in coords)


def reference_global_orbit(coords, s: PlaceSymmetry, fixing: Optional[str] = None) -> Set:
    """The orbit of ``coords`` under the elements of ``reference_group(s)``
    that fix the place ``fixing``, or under all of them."""
    return {reference_push(coords, phi) for phi in reference_group(s)
            if fixing is None or phi.apply(fixing) == fixing}


def reference_arrangements(x: Coords) -> Set[Coords]:
    """Every permutation of each adelic class of ``x``, deduplicated afterwards."""
    classes: Dict[str, List[Tuple[PlaceLabel, LocalClass]]] = {}
    for lab, cls in x:
        if lab.kind.is_finite:
            classes.setdefault(lab.class_key(), []).append((lab, cls))
    per_class = [
        [list(zip([lab for lab, _ in members], arr))
         for arr in set(itertools.permutations([cls for _, cls in members]))]
        for members in classes.values()
    ]
    rest = [(lab, cls) for lab, cls in x if not lab.kind.is_finite]
    return {sort_coords(rest + [e for part in combo for e in part])
            for combo in itertools.product(*per_class)}


def reference_possible_vectors(omega: OmegaVector) -> Set[Coords]:
    """The possible side: ``reference_arrangements`` of each coherent flip, united."""
    return set().union(*map(reference_arrangements, s_omega_orbit(omega).elements))


def reference_two_sided_orbit(g) -> Set:
    """The full data (finite, real, real forms) of ``g`` and of its symmetry
    flip, pushed along every element of ``reference_group``."""
    t = g.group_type
    variants = [(g.omega.finite, g.omega.real)]
    if has_symmetry(t):
        variants.append((sigma_flip(g.omega),
                         tuple((lab, sym_act(t, lab.kind, cls)) for lab, cls in g.omega.real)))
    out = set()
    for phi in reference_group(g.symmetry):
        tag_at = {phi.apply(w): tag for w, tag in g.real_forms}
        tags = tuple((w, tag_at[w]) for w, _ in g.real_forms)
        for fin, real in variants:
            out.add((reference_push(fin, phi), reference_push(real, phi), tags))
    return out


# the grammar's section names, type codes and [field] keys, restated
_REFERENCE_SECTIONS = ("group", "field", "aut", "places", "real")
_REFERENCE_TYPE_CODES = {
    "A": (Family.A, FormKind.INNER), "1A": (Family.A, FormKind.INNER), "2A": (Family.A, FormKind.OUTER),
    "B": (Family.B, FormKind.INNER), "C": (Family.C, FormKind.INNER),
    "D": (Family.D, FormKind.INNER), "1D": (Family.D, FormKind.INNER), "2D": (Family.D, FormKind.OUTER),
    "E6": (Family.E6, FormKind.INNER), "1E6": (Family.E6, FormKind.INNER), "2E6": (Family.E6, FormKind.OUTER),
    "E7": (Family.E7, FormKind.INNER), "E8": (Family.E8, FormKind.INNER),
    "F4": (Family.F4, FormKind.INNER), "G2": (Family.G2, FormKind.INNER),
}


def _reference_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


_REFERENCE_FIELD_KEYS = {
    "degree": (int, "degree must be an integer"),
    "complex_places": (int, "complex_places must be an integer"),
    "locally_determined": (_reference_flag, "locally_determined must be true or false"),
    "galois": (_reference_flag, "galois must be true or false"),
    "hbar_fiber": (HbarFiber, "hbar_fiber must be trivial, nontrivial, or unknown"),
}


def _reference_cycles(text: str):
    """The words of each cycle of ``text``, one cycle at a time, as the
    parser checks them; ValueError at the first bracket fault."""
    rest = text
    while rest:
        if rest[0] != "(" or ")" not in rest:
            raise ValueError(f"bad cycle notation {text!r}")
        inner, rest = rest[1:].split(")", 1)
        yield inner.split()
        rest = rest.lstrip()


class ReferenceParser:
    """The descriptor parser as it read each line before entry values were
    memoized and before the [group] and [field] keys were read from key
    tables: every entry value is split, stripped and read afresh, and each
    reader reports its own faults through ``err``.
    ``rigidity.descriptor.parse`` must return what ``reference_parse``
    returns, or raise the same positioned errors."""

    def __init__(self, text: str):
        self.errors: List[Tuple[int, int, str]] = []
        self.lines = text.splitlines()

    def err(self, line: int, col: int, msg: str):
        self.errors.append((line, col, msg))

    def parse(self) -> GroupDescriptor:
        # each section's entries as key -> (line, value), in file order; a key
        # given twice in one section is refused here, at its second line
        sections: Dict[str, Dict[str, Tuple[int, str]]] = {s: {} for s in _REFERENCE_SECTIONS}
        current: Optional[str] = None
        for no, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in _REFERENCE_SECTIONS:
                    self.err(no, 1, f"unknown section [{name}]")
                    current = None
                else:
                    current = name
                continue
            if current is None:
                self.err(no, 1, "entry outside any section")
                continue
            if "=" not in line:
                self.err(no, 1, "expected 'key = value'")
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                self.err(no, 1, "empty key")
                continue
            if key in sections[current]:
                self.err(no, 1, f"key {key!r} given twice in [{current}]")
                continue
            sections[current][key] = (no, value)
        if not sections["group"]:
            self.err(1, 1, "missing [group] section")
            raise DescriptorParseError(self.errors)

        gtype = self._parse_group(sections["group"])
        fieldinfo = self._parse_field(sections["field"])
        if gtype is None or fieldinfo is None or self.errors:
            raise DescriptorParseError(self.errors or [(1, 1, "unusable descriptor")])

        fin_omega = self._parse_places(sections["places"], gtype)
        real_omega, tags = self._parse_real(sections["real"], gtype)
        perms = self._parse_aut(sections["aut"], {lab.id for lab, _ in fin_omega + real_omega})
        if self.errors:
            raise DescriptorParseError(self.errors)

        degree, complexes, loc_det, galois, hbar = fieldinfo
        fdesc = FieldDescriptor(
            degree=degree,
            real_places=tuple(lab for lab, _ in real_omega),
            complex_place_count=complexes,
            finite_places=tuple(lab for lab, _ in fin_omega),
            locally_determined=loc_det,
            galois_over_q=galois,
            hbar_fiber=hbar,
        )
        try:
            omega = OmegaVector(gtype, tuple(fin_omega), tuple(real_omega))
            desc = GroupDescriptor(
                group_type=gtype,
                field=fdesc,
                symmetry=PlaceSymmetry(tuple(perms)),
                omega=omega,
                real_forms=tuple(tags),
            )
        except RigidityError as e:
            self.err(1, 1, str(e))
            raise DescriptorParseError(self.errors)
        return desc

    def _parse_group(self, entries) -> Optional[GroupType]:
        code = rank = None
        code_line = 1
        for key, (no, value) in entries.items():
            if key == "type":
                code, code_line = value, no
            elif key == "rank":
                try:
                    rank = int(value)
                except ValueError:
                    self.err(no, 1, f"rank must be an integer, got {value!r}")
            else:
                self.err(no, 1, f"unknown key {key!r} in [group]")
        if code is None:
            self.err(1, 1, "missing type in [group]")
            return None
        if code not in _REFERENCE_TYPE_CODES:
            self.err(code_line, 1, f"unknown type code {code!r}")
            return None
        family, kind = _REFERENCE_TYPE_CODES[code]
        if rank is None:
            if family not in FIXED_RANKS:
                self.err(code_line, 1, f"type {code} needs an explicit rank")
                return None
            rank = FIXED_RANKS[family]
        try:
            return GroupType(family, rank, kind)
        except (ValueError, OutOfScopeError) as e:
            self.err(code_line, 1, str(e))
            return None

    def _parse_field(self, entries):
        values = {"complex_places": 0}
        for key, (no, value) in entries.items():
            if key not in _REFERENCE_FIELD_KEYS:
                self.err(no, 1, f"unknown key {key!r} in [field]")
                continue
            read, message = _REFERENCE_FIELD_KEYS[key]
            try:
                values[key] = read(value)
            except ValueError:
                self.err(no, 1, message)
        if "degree" not in values:
            if "degree" not in entries:
                self.err(1, 1, "missing degree in [field]")
            return None
        degree = values["degree"]
        galois = values.get("galois", degree == 1)
        loc_det = values.get("locally_determined")
        if loc_det is None:
            if degree > 6:
                self.err(1, 1, "degree above 6: declare locally_determined explicitly")
                return None
            loc_det = True  # fields of degree up to six are locally determined
        hbar = values.get("hbar_fiber", HbarFiber.TRIVIAL if galois else HbarFiber.UNKNOWN)
        return degree, values["complex_places"], loc_det, galois, hbar

    def _parse_aut(self, entries, declared) -> List[PlacePerm]:
        perms = []
        for name, (no, value) in entries.items():
            if not value:
                self.err(no, 1, f"generator {name} is empty")
                continue
            before = len(self.errors)
            try:
                cycles = []
                for cyc in _reference_cycles(value):
                    if len(cyc) < 2:
                        raise ValueError("cycles need at least two labels")
                    for pid in cyc:
                        if pid not in declared:
                            self.err(no, 1, f"generator {name}: undeclared place {pid}")
                    cycles.append(tuple(cyc))
                if len(self.errors) == before:
                    perms.append(PlacePerm.from_cycles(cycles))
            except (ValueError, ValidationError) as e:
                self.err(no, 1, f"generator {name}: {e}")
        return perms

    def _parse_value(self, no: int, text: str, shape: Shape) -> Optional[LocalClass]:
        text = text.strip()
        if shape.kind == "klein":
            if not (text.startswith("(") and text.endswith(")")):
                self.err(no, 1, f"expected a bit pair (b1,b2), got {text!r}")
                return None
            parts = text[1:-1].split(",")
            if len(parts) != 2:
                self.err(no, 1, f"expected two components in {text!r}")
                return None
            try:
                return LocalClass(shape, (int(parts[0]), int(parts[1])))
            except ValueError:
                self.err(no, 1, f"bad bit pair {text!r}")
                return None
        if "/" in text:
            num, den = text.split("/", 1)
            try:
                a, m = int(num), int(den)
            except ValueError:
                self.err(no, 1, f"bad fraction {text!r}")
                return None
            if m <= 0:
                self.err(no, 1, f"bad fraction {text!r}")
                return None
            if shape.kind == "trivial":
                if a % m != 0:
                    self.err(no, 1, f"value {text} does not lie in the trivial group")
                    return None
                return zero(shape)
            if shape.modulus % m != 0:
                self.err(no, 1, f"denominator {m} does not divide the local order {shape.modulus}")
                return None
            return LocalClass(shape, a * (shape.modulus // m))
        try:
            v = int(text)
        except ValueError:
            self.err(no, 1, f"bad value {text!r}")
            return None
        if shape.kind == "trivial":
            if v != 0:
                self.err(no, 1, "only 0 lies in the trivial group")
                return None
            return zero(shape)
        return LocalClass(shape, v)

    def _read_entries(self, entries, allowed):
        """(line, id, options) of each [places] or [real] entry whose options
        parse, with ``kind`` split or nonsplit if given."""
        for label, (no, value) in entries.items():
            opts = self._parse_opts(no, value, allowed)
            if opts is None:
                continue
            if opts.get("kind", "split") not in ("split", "nonsplit"):
                self.err(no, 1, "kind must be split or nonsplit")
                continue
            yield no, label, opts

    def _parse_places(self, entries, gtype: GroupType):
        omega = []
        for no, label, opts in self._read_entries(entries, {"class", "kind", "omega"}):
            kind = PlaceKind.FINITE_OUTER if opts.get("kind") == "nonsplit" else PlaceKind.FINITE_INNER
            try:
                shape = h2_local(gtype, kind)
            except ContractError as e:
                self.err(no, 1, str(e))
                continue
            cls = self._parse_value(no, opts["omega"], shape) if "omega" in opts else zero(shape)
            if cls is None:
                continue
            omega.append((PlaceLabel(label, kind, opts.get("class")), cls))
        return omega

    def _parse_real(self, entries, gtype: GroupType):
        omega = []
        tags = []
        for no, label, opts in self._read_entries(entries, {"form", "omega", "kind"}):
            if "form" not in opts:
                self.err(no, 1, f"real place {label} needs a form")
                continue
            tag = self._parse_form(no, opts["form"], gtype, opts.get("kind"))
            if tag is None:
                continue
            outer = opts["kind"] == "nonsplit" if "kind" in opts else tag.signature()[2]
            kind = PlaceKind.REAL_OUTER if outer else PlaceKind.REAL_INNER
            try:
                shape = h2_local(gtype, kind)
            except ContractError:
                shape = None  # real_class below names the form's first misfit
            supplied = None
            if "omega" in opts and shape is not None:
                supplied = self._parse_value(no, opts["omega"], shape)
                if supplied is None:
                    continue
            try:
                cls = real_class(tag, gtype, kind, supplied)
            except RigidityError as e:
                self.err(no, 1, str(e))
                continue
            omega.append((PlaceLabel(label, kind), cls))
            tags.append((label, tag))
        return omega, tags

    def _parse_form(self, no: int, text: str, gtype: GroupType,
                    explicit_kind: Optional[str]) -> Optional[RealFormTag]:
        text = text.strip()
        name, params = text, ()
        if "(" in text:
            if not text.endswith(")"):
                self.err(no, 1, f"unbalanced parentheses in form {text!r}")
                return None
            name, inner = text[:-1].split("(", 1)
            try:
                params = tuple(int(p) for p in inner.split(","))
            except ValueError:
                self.err(no, 1, f"bad form parameters in {text!r}")
                return None
        try:
            if name in GENERIC:
                outer = name == "AnisotropicOther" and explicit_kind == "nonsplit"
                return RealFormTag(name, family=gtype.family, rank=gtype.rank, outer=outer)
            return RealFormTag(name, params)
        except ValueError as e:
            self.err(no, 1, str(e))
            return None

    def _parse_opts(self, no: int, value: str, allowed) -> Optional[Dict[str, str]]:
        opts: Dict[str, str] = {}
        for token in value.split():
            if "=" not in token:
                self.err(no, 1, f"expected key=value, got {token!r}")
                return None
            k, v = token.split("=", 1)
            if k not in allowed:
                self.err(no, 1, f"unknown option {k!r}")
                return None
            if k in opts:
                self.err(no, 1, f"option {k!r} given twice")
                return None
            opts[k] = v
        return opts


def reference_parse(text: str) -> GroupDescriptor:
    """A descriptor from text by ``ReferenceParser``."""
    return ReferenceParser(text).parse()
