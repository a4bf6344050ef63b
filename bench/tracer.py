"""Outside-in tracer: spans and counts recorded around the engine's public functions.

The tracer wraps each listed function in every ``rigidity`` module
namespace that holds it (``natural_key`` is imported by name into four
modules, for example), and each listed method on its class.  Nothing in
the engine changes; ``restore`` puts every original object back.

Functions traced as spans record (function, parent span, item id, start,
end) into flat arrays held in memory; self time is a span's duration minus
the durations of its direct children, summed per function after the run.
High-frequency helpers are only counted, so their time stays in their
caller's self time.  Ratio hooks read the wrapped call's arguments and
result with recording paused, so the hook's own calls into the engine are
not traced.
"""

from __future__ import annotations

import math
import sys
import time
import weakref
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, qualified name, "span" or "count")
TARGETS = [
    ("rigidity.cli", "parse", "span"),
    ("rigidity.cli", "emit_descriptor", "span"),
    ("rigidity.classifier", "classify", "span"),
    ("rigidity.classifier", "validate_descriptor", "span"),
    ("rigidity.classifier", "subset_sum_forbidden", "span"),
    ("rigidity.classifier", "check_witness", "span"),
    ("rigidity.brauer", "weak_uniformity", "span"),
    ("rigidity.brauer", "pick_witness", "span"),
    ("rigidity.brauer", "s_omega_orbit", "span"),
    ("rigidity.field_model", "adelic_orbit", "span"),
    ("rigidity.field_model", "global_orbit", "span"),
    ("rigidity.field_model", "sort_coords", "span"),
    ("rigidity.field_model", "validate", "span"),
    ("rigidity.field_model", "PlaceSymmetry.group", "count"),
    ("rigidity.field_model", "apply_perm", "count"),
    ("rigidity._util", "natural_key", "count"),
    ("rigidity.invariants", "sym_act", "count"),
    ("rigidity.invariants", "c_local", "count"),
    ("rigidity.invariants", "h2_local", "count"),
    ("rigidity.real_forms", "real_class", "span"),
    ("rigidity.real_forms", "form_for_class", "span"),
    ("rigidity.arith_equiv", "PermGroup.elements", "span"),
    ("rigidity.arith_equiv", "PermGroup.conjugacy_classes", "span"),
    ("rigidity.arith_equiv", "PermGroup.subgroups", "span"),
    ("rigidity.arith_equiv", "PermGroup.normal_subgroups", "span"),
    ("rigidity.arith_equiv", "almost_conjugate", "span"),
    ("rigidity.arith_equiv", "are_conjugate", "span"),
    ("rigidity.arith_equiv", "verify_prop_almost_conjugate", "span"),
    ("rigidity.arith_equiv", "common_normal_index2", "span"),
]


def layer_name(module: str, qualname: str) -> str:
    """Metric prefix of a target: ``rigidity._util`` reports as ``util``."""
    return f"{module.split('.')[-1].lstrip('_')}.{qualname}"


class Tracer:
    def __init__(self):
        self.targets = TARGETS
        self.names = [layer_name(m, q) for m, q, _ in TARGETS]
        self.fn = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.ratios: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
        self.totals: Counter = Counter()
        self._groups_seen: weakref.WeakSet = weakref.WeakSet()
        self.stack: List[int] = []
        self.item_id = -1
        self.paused = False
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {"brauer.s_omega_orbit": _admissible_ratio,
                 "field_model.adelic_orbit": _distinct_ratio,
                 "arith_equiv.PermGroup.subgroups": _subgroup_count}
        for idx, (module, qualname, mode) in enumerate(self.targets):
            mod = sys.modules[module]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(idx, original, mode, hooks.get(self.names[idx])))
                continue
            original = getattr(mod, qualname)
            wrapper = self._wrap(idx, original, mode, hooks.get(self.names[idx]))
            for name, ns in list(sys.modules.items()):
                if ns is None or not (name == "rigidity" or name.startswith("rigidity.")):
                    continue
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, idx: int, fn: Callable, mode: str, hook: Optional[Callable]):
        tracer = self
        clock = time.perf_counter

        if mode == "count":
            def counted(*args, **kwargs):
                if not tracer.paused:
                    tracer.counts[idx] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        def spanned(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = len(tracer.start)
            tracer.fn.append(idx)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.item.append(tracer.item_id)
            tracer.end.append(0.0)
            tracer.stack.append(span)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = clock()
                tracer.stack.pop()
            if hook is not None:
                tracer.paused = True
                try:
                    hook(tracer, args, result)
                finally:
                    tracer.paused = False
            return result
        spanned.__wrapped__ = fn
        return spanned

    # -- results ----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per function: span count as calls, self time in ms, plus counts and ratios."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Dict[int, float] = defaultdict(float)
        for i in range(n):
            calls[self.fn[i]] += 1
            self_s[self.fn[i]] += self.end[i] - self.start[i] - child[i]
        out: Dict[str, float] = {}
        for idx, name in enumerate(self.names):
            if self.targets[idx][2] == "count":
                out[f"{name}.calls"] = float(self.counts[idx])
            else:
                out[f"{name}.calls"] = float(calls[idx])
                out[f"{name}.self_ms"] = self_s[idx] * 1000.0
        for key, (num, den) in self.ratios.items():
            out[key] = num / den if den else 0.0
        out.update(self.totals)
        return out


# -- hooks: (tracer, wrapped call's args, result) ---------------------------

def _admissible_ratio(tracer: Tracer, args, result) -> None:
    from rigidity.brauer import inner_twin_places

    a = tracer.ratios["brauer.s_omega_orbit.admissible_ratio"]
    a[0] += len(result.admissible_subsets)
    a[1] += 2 ** len(inner_twin_places(args[0]))


def _distinct_ratio(tracer: Tracer, args, result) -> None:
    sizes = Counter(lab.class_key() for lab, _ in args[0] if lab.kind.is_finite)
    a = tracer.ratios["field_model.adelic_orbit.distinct_ratio"]
    a[0] += len(result)
    a[1] += math.prod(math.factorial(k) for k in sizes.values())


def _subgroup_count(tracer: Tracer, args, result) -> None:
    """Subgroups listed, once per group object however often it is asked."""
    if args[0] not in tracer._groups_seen:
        tracer._groups_seen.add(args[0])
        tracer.totals["arith_equiv.PermGroup.subgroups.count"] += len(result)
