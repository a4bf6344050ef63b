"""The recount-based comparison of the possible side, kept as a reference.

``recount_compare_possible`` decides what ``brauer.compare_possible``
decides, the slow way: it rebuilds the witness place by place and, for
each candidate value, recounts every class, option and residue from
scratch.  The production function builds per-class residue vectors once
and reuses them; tests compare the two on generated inputs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from rigidity.brauer import OmegaVector, _flip_rule, pick_witness
from rigidity.field_model import Coords
from rigidity.invariants import LocalClass, has_symmetry, sym_act


def _arrangements(counts: Iterable[int]) -> int:
    """Distinct orderings of a multiset with the given multiplicities."""
    counts = list(counts)
    n = math.factorial(sum(counts))
    for c in counts:
        n //= math.factorial(c)
    return n


def recount_compare_possible(
    omega: OmegaVector, realized: Iterable[Coords], flips: bool = True
) -> Tuple[int, Optional[Coords]]:
    t = omega.group_type
    base = omega.finite
    flips = flips and has_symmetry(t)
    charge, m = _flip_rule(t) if flips else ((lambda kind, cls: 0), 1)
    by_class: Dict[str, List[int]] = {}
    for i, (lab, _) in enumerate(base):
        by_class.setdefault(lab.class_key(), []).append(i)
    classes = list(by_class.values())
    class_of = {i: k for k, idx in enumerate(classes) for i in idx}
    options: List[List[Tuple[Dict[LocalClass, int], int]]] = []
    for idx in classes:
        counts = Counter(base[i][1] for i in idx)
        kind = base[idx[0]][0].kind
        still, pairs, paired = {}, [], set()
        for v, a in counts.items():
            w = sym_act(t, kind, v) if flips else v
            if w == v:
                still[v] = a
            elif v not in paired:
                paired.add(w)
                pairs.append((v, w, a, a + counts.get(w, 0), charge(kind, v)))
        opts = []
        for ks in itertools.product(*(range(total + 1) for *_, total, _ in pairs)):
            ms, acc = dict(still), 0
            for (v, w, a, total, ch), k in zip(pairs, ks):
                ms[v], ms[w] = k, total - k
                acc += (a - k) * ch
            opts.append((ms, acc % m))
        options.append(opts)

    def count(fixed: List[Dict[LocalClass, int]]) -> int:
        """Possible vectors agreeing with the values already fixed per class."""
        ways = {0: 1}
        for opts, fix in zip(options, fixed):
            nxt: Dict[int, int] = {}
            for ms, ch in opts:
                if any(n > ms.get(v, 0) for v, n in fix.items()):
                    continue
                arrangements = _arrangements(n - fix.get(v, 0) for v, n in ms.items())
                for r, n in ways.items():
                    key = (r + ch) % m
                    nxt[key] = nxt.get(key, 0) + n * arrangements
            ways = nxt
        return ways.get(0, 0)

    realized = set(realized)
    members = [x for x in realized if count([Counter(x[i][1] for i in idx) for idx in classes])]
    fixed: List[Dict[LocalClass, int]] = [{} for _ in classes]
    possible = count(fixed)
    if possible == len(members):
        if len(members) == len(realized):
            return possible, None
        return possible, pick_witness(realized.difference(members), base)
    witness = []
    for i, (lab, b) in enumerate(base):
        fix = fixed[class_of[i]]
        values = {v for ms, _ in options[class_of[i]] for v, n in ms.items() if n}
        for v in sorted(values, key=lambda c: (c != b, c.sort_key())):
            fix[v] = fix.get(v, 0) + 1
            left = [x for x in members if x[i][1] == v]
            if len(values) == 1 or count(fixed) > len(left):
                break
            fix[v] -= 1
        witness.append((lab, v))
        members = left
    return possible, tuple(witness)
