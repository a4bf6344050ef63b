"""Reference checks the engine does not need, and the catalog groups.

``hbar_certificate`` and ``mackey_decomposition_holds`` restate the
index-two criterion and the Mackey decomposition behind it;
``global_sym_act`` is the diagram symmetry on the global dual target,
which the brute-force flip listings filter by; ``outer_fast_path`` is a
shortcut for weak uniformity of outer types that ``weak_uniformity``
must agree with; ``reference_group`` lists a field automorphism group by
composing place permutations keyed by place id, ``reference_push`` pushes
a vector along one of them by place id, and ``reference_global_orbit`` and
``reference_two_sided_orbit`` are the orbits ``global_orbit`` and
``classifier._two_sided_orbit`` must agree with.
``reference_subgroup_check`` and ``reference_are_conjugate`` are the
all-pairs closure check and the all-members conjugacy test that
``arith_equiv.Subgroup`` and ``are_conjugate`` must agree with,
``reference_induced_character`` counts fixed cosets by testing every class
representative against every coset, which ``arith_equiv._induced_character``
must agree with, and ``reference_closure`` lists a generated group breadth
first, as ``arith_equiv.generate`` must.  ``catalog_groups``
parses ``fixtures/groups.cat`` afresh on every call, as
``rigidity.catalog.catalog_group`` does for one group, so no two tests
share a group's caches.  ``run_python`` runs code in a fresh interpreter
that imports the package under test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

import rigidity
from rigidity.arith_equiv import (
    DEFAULT_GROUP_CAP,
    Perm,
    PermGroup,
    Subgroup,
    almost_conjugate,
    are_conjugate,
    perm_inv,
    perm_mul,
)
from rigidity.brauer import OmegaVector, inner_twin_places, plain_orbits, sigma_flip
from rigidity.cli import parse_catalog
from rigidity.errors import CapacityError, ContractError, ValidationError
from rigidity.field_model import PlacePerm, PlaceSymmetry
from rigidity.invariants import GroupType, LocalClass, center_shape, has_symmetry, sym_act

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
