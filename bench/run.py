"""Benchmark of the rigidity engine: verdict throughput and latency on four workloads.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

One client sends one input at a time and waits for its answer (a closed
loop, as a user batch-classifying descriptors does).  Inputs come from
``gen.py`` and the seed; every answer is checked before the next input is
sent, outside the timed region.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of the outside-in tracer.
The last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

# A run measures whole rounds for ``--seconds`` of wall time, and at least
# ``min_rounds`` of them.  Every timing is rescaled to the host's current
# speed (see rescaled); the statistics then keep, of every slot of a round,
# its ``keep`` middle instances (see middle_share), and the corpus, whose
# slots are drawn at random, its ``keep`` middle whole rounds.  So a run
# keeps ``keep`` times the round size samples however many rounds fit, and
# the tail percentile is the same on a faster program.  Traced runs make a
# fixed number of rounds so that their counts repeat.
WORKLOADS = {
    "corpus": dict(min_rounds=60, keep=15, traced_rounds=20, budget_s=1.0),
    "refute": dict(min_rounds=6, keep=2, traced_rounds=1, budget_s=20.0),
    "confirm": dict(min_rounds=6, keep=2, traced_rounds=1, budget_s=20.0),
    "equiv": dict(min_rounds=20, keep=5, traced_rounds=5, budget_s=10.0),
}
SETUP_REPEATS = 4  # before and again after the measured rounds
DEADLINE_S = 150.0
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

END_TO_END = {"throughput": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.parse.self_ms": "ms",
    "cli.emit_descriptor.self_ms": "ms",
    "classifier.classify.self_ms": "ms",
    "classifier.validate_descriptor.calls": "count",
    "classifier.validate_descriptor.self_ms": "ms",
    "classifier.subset_sum_forbidden.self_ms": "ms",
    "classifier.check_witness.calls": "count",
    "classifier.check_witness.self_ms": "ms",
    "brauer.weak_uniformity.calls": "count",
    "brauer.weak_uniformity.self_ms": "ms",
    "brauer.pick_witness.self_ms": "ms",
    "brauer.s_omega_orbit.self_ms": "ms",
    "brauer.s_omega_orbit.admissible_ratio": "ratio",
    "field_model.adelic_orbit.self_ms": "ms",
    "field_model.adelic_orbit.distinct_ratio": "ratio",
    "field_model.global_orbit.self_ms": "ms",
    "field_model.sort_coords.self_ms": "ms",
    "field_model.validate.self_ms": "ms",
    "field_model.PlaceSymmetry.group.calls": "count",
    "field_model.apply_perm.calls": "count",
    "util.natural_key.calls": "count",
    "invariants.sym_act.calls": "count",
    "invariants.c_local.calls": "count",
    "invariants.h2_local.calls": "count",
    "real_forms.real_class.self_ms": "ms",
    "real_forms.form_for_class.self_ms": "ms",
    "arith_equiv.PermGroup.elements.self_ms": "ms",
    "arith_equiv.PermGroup.conjugacy_classes.self_ms": "ms",
    "arith_equiv.PermGroup.subgroups.self_ms": "ms",
    "arith_equiv.PermGroup.subgroups.count": "count",
    "arith_equiv.PermGroup.normal_subgroups.self_ms": "ms",
    "arith_equiv.almost_conjugate.calls": "count",
    "arith_equiv.almost_conjugate.self_ms": "ms",
    "arith_equiv.are_conjugate.calls": "count",
    "arith_equiv.are_conjugate.self_ms": "ms",
    "arith_equiv.verify_prop_almost_conjugate.calls": "count",
    "arith_equiv.verify_prop_almost_conjugate.self_ms": "ms",
    "arith_equiv.common_normal_index2.calls": "count",
    "arith_equiv.common_normal_index2.self_ms": "ms",
    "trace.overhead_pct": "%",
}

# group orders of the catalog groups an equiv round builds, by name
CATALOG_ORDERS = {"C2": 2, "C3": 3, "C4": 4, "C6": 6, "C8": 8, "C12": 12, "V4": 4, "C2^3": 8,
                  "S3": 6, "D8": 8, "Q8": 8, "A4": 12, "D12": 12, "C2wrC3": 24, "S4": 24,
                  "SL(2,3)": 24, "S3xS3": 36, "S4xC2": 48}

# outcome and branch tag of each bundled fixture, from what the fixture encodes
FIXTURES = {
    "b3_split_Q": ("NotRigid", gen.TAG_NO_SYM),
    "cubic31": ("NotRigid", gen.TAG_NO_SYM),
    "komatsu_2A2": ("NotRigid", gen.TAG_HBAR),
    "lmfdb_sextic_2A2": ("NotRigid", gen.TAG_HBAR),
    "quat_sqrt2": ("NotRigid", gen.TAG_NO_SYM),
    "spin73_D5_Q": ("Rigid", gen.TAG_BY_FAMILY["D"]),
    "spinstar_D6_Q": ("Rigid", gen.TAG_BY_FAMILY["D"]),
    "split_C3_Q": ("Rigid", gen.TAG_NO_SYM),
    "split_G2_Q": ("NotRigid", gen.TAG_NO_SYM),
    "su31_2A3_Q": ("Rigid", gen.TAG_BY_FAMILY["A"]),
    "table1_D1": ("NotRigid", gen.TAG_BY_FAMILY["A"]),
    "table1_D2": ("NotRigid", gen.TAG_BY_FAMILY["A"]),
    "table3_A4_Qi": ("Rigid", gen.TAG_SYM_IMAG),
    "table4_A5_Qi": ("Rigid", gen.TAG_SYM_IMAG),
}

GATE_SCRIPT = """
import io, sys
sys.path.insert(0, "src")
from rigidity.cli import main
from rigidity.selftest import run_selftest
log = io.StringIO()
if run_selftest(log) != 0:
    sys.exit("selftest failed:\\n" + log.getvalue())
main(["classify", "fixtures/", "--json"])
"""


def engine() -> SimpleNamespace:
    """The engine's modules, imported afresh; calls go through module attributes
    so that the tracer's wrappers are seen."""
    for name in [m for m in sys.modules if m == "rigidity" or m.startswith("rigidity.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"rigidity.{name}") for name in
            ("cli", "classifier", "errors", "arith_equiv", "catalog")}
    return SimpleNamespace(**mods)


def originals() -> dict:
    """Every attribute of every engine module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "rigidity" or name.startswith("rigidity."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def same_objects(before: dict) -> bool:
    now = originals()
    return now.keys() == before.keys() and all(now[k] is v for k, v in before.items())


# ---------------------------------------------------------------------------
# items: a timed call plus an untimed check

class Item:
    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def classify_text(E, text):
    """parse -> classify -> JSON, as the command line does for one file."""
    try:
        g = E.cli.parse(text)
    except E.errors.DescriptorParseError as e:
        if not any("out of scope" in msg for _, _, msg in e.errors):
            raise
        g, v = None, E.classifier.Verdict(E.classifier.Outcome.OUT_OF_SCOPE, [("scope", str(e))])
    else:
        v = E.classifier.classify(g)
    payload = E.cli.verdict_to_json(v)
    return g, v, payload, json.dumps(payload, indent=2)


def check_verdict(E, g, v, payload, expect: str, tags, exact: bool) -> list:
    """Problems with one verdict: outcome, reason tags, and the witness round trip."""
    problems = []
    if v.outcome.value != expect:
        problems.append(f"outcome {v.outcome.value}, expected {expect}")
    got = tuple(tag for tag, _ in v.reasons)
    if (got if exact else got[:len(tags)]) != tuple(tags):
        problems.append(f"reason tags {got}, expected {tuple(tags)}{'' if exact else ' first'}")
    if (v.witness is not None or v.symbolic_witness is not None) != (v.outcome.value == "NotRigid"):
        problems.append("a witness must come with NotRigid and only with it")
    if v.witness is not None:
        text = payload["witness"]
        w = E.cli.parse(text)
        if w != v.witness or E.cli.emit_descriptor(w) != text:
            problems.append("witness does not survive emit -> parse")
        E.classifier.check_witness(E.classifier.normalize(g), w)
    return problems


def expected_outcome(E, case: gen.Case) -> str:
    """The outcome fixed by construction, or the named checklist's verdict."""
    checklist = {"q": E.classifier.specialize_q,
                 "quasisplit": E.classifier.specialize_quasisplit}.get(case.expect)
    if checklist is None:
        return case.expect
    try:
        return checklist(E.cli.parse(case.text)).outcome.value
    except E.errors.RigidityError as e:  # the item then fails its outcome check
        return f"checklist error: {e}"


def classify_item(E, name, text, expect, tags, exact) -> Item:
    state = {}

    def run():
        state["out"] = classify_text(E, text)

    def check():
        g, v, payload, _ = state.pop("out")
        return check_verdict(E, g, v, payload, expect, tags, exact)

    return Item(name, run, check)


def fixture_texts() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted((ROOT / "fixtures").glob("*.grp"))}


def classify_round(E, workload: str, seed: int, round_no: int) -> list:
    items = [classify_item(E, c.slot, c.text, expected_outcome(E, c), c.tags, c.exact)
             for c in gen.generate(workload, seed, round_no)]
    if workload == "corpus":
        for stem, text in fixture_texts().items():
            outcome, tag = FIXTURES[stem]
            items.append(classify_item(E, f"fixture_{stem}", text, outcome, (tag,), False))
    return items


def equiv_round(E, catalog_text: str, seed: int, round_no: int) -> list:
    pairs = {"fano": E.catalog.fano_point_line_stabilizers, "wreath": lambda: wreath_parts(E)}
    expected = {("fano", "almost_conjugate"): True, ("fano", "are_conjugate"): False,
                ("wreath", "almost_conjugate"): True, ("wreath", "are_conjugate"): True,
                ("wreath", "common_normal_index2"): None}
    return [group_item(E, entry[1]) if entry[0] == "group" else
            query_item(E, entry[1], pairs[entry[1]], entry[2], expected[entry[1:]])
            for entry in gen.catalog_round(catalog_text, seed, round_no)]


def wreath_parts(E):
    """The wreath model with its two rank-one subgroups."""
    G, _, V1, V2 = E.catalog.wreath_pair()
    return G, V1, V2


def group_item(E, line: str) -> Item:
    name = line.split()[0]
    state = {}

    def run():
        G = E.cli.parse_catalog(line)[0]
        state["out"] = (E.arith_equiv.verify_prop_almost_conjugate(G), G.order())

    def check():
        (ok, pair), order = state.pop("out")
        problems = [] if ok and pair is None else [f"{name}: counterexample {pair}"]
        if order != CATALOG_ORDERS[name]:
            problems.append(f"{name}: order {order}, expected {CATALOG_ORDERS[name]}")
        return problems

    return Item(f"group_{name}", run, check)


def query_item(E, pair: str, build, query: str, want) -> Item:
    state = {}

    def run():
        state["out"] = getattr(E.arith_equiv, query)(*build())

    def check():
        got = state.pop("out")
        return [] if got is want else [f"{pair} {query}: {got}, expected {want}"]

    return Item(f"{pair}_{query}", run, check)


def make_round(E, workload: str, seed: int, round_no: int, catalog_text: str) -> list:
    if workload == "equiv":
        return equiv_round(E, catalog_text, seed, round_no)
    return classify_round(E, workload, seed, round_no)


def warm_up(E, workload: str, catalog_text: str) -> str:
    """Exercise the code paths once before timing; returns the fixture JSON
    exactly as ``rigidity classify fixtures/ --json`` prints it."""
    if workload == "equiv":
        for line in catalog_text.splitlines():
            if line.split(" ", 1)[0] in ("C2", "C6", "V4", "S3", "D8", "Q8"):
                item = group_item(E, line)
                item.run()
                item.check()
    out = io.StringIO()
    for name, text in sorted((f"{stem}.grp", text) for stem, text in fixture_texts().items()):
        print(f"== {name}", file=out)
        print(classify_text(E, text)[3], file=out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# measurement

# The reference loop: fixed pure-Python work of the kind the engine does
# (tuple keys, dict updates, a keyed sort), independent of the engine.  It
# takes REFERENCE_S on a 2-vCPU Xeon VM when no neighbour competes for the
# core; timed next to every item, it shows how fast the host runs there.
REFERENCE_S = 0.2e-3
REFERENCE_SPAN = 3  # reference samples each side of an item that rescale it


def reference_work() -> int:
    acc = {}
    for i in range(600):
        key = (i % 7, (i * 31) % 11)
        acc[key] = acc.get(key, 0) + i
    return len(sorted(acc.items(), key=lambda kv: (kv[1], kv[0])))


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Tally:
    def __init__(self):
        # compact, so that the memory peak hardly depends on how many items fit
        self.names = []
        self.times = array("d")
        self.references = array("d")  # the reference loop's time just before each item
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, item: Item, budget_s: float, tracer=None) -> float:
        self.attempted += 1
        error = None
        self.references.append(reference_time())
        t0 = time.perf_counter()
        try:
            item.run()
        except Exception as e:  # a failed item is counted, and the run goes on
            error = e
        dt = time.perf_counter() - t0
        self.names.append(item.name)
        self.times.append(dt)
        if tracer is not None:
            tracer.paused = True
        try:
            problems = [f"{type(error).__name__}: {error}"] if error else item.check()
        except Exception as e:
            problems = [f"check raised {type(e).__name__}: {e}"]
        finally:
            if tracer is not None:
                tracer.paused = False
        if dt > budget_s:
            problems.append(f"took {dt:.2f} s, budget {budget_s} s")
        if problems:
            self.failed += 1
            self.problems.append(f"{item.name}: {'; '.join(problems)}")
        return dt

    @property
    def latencies(self) -> list:
        """(item name, latency) in run order."""
        return list(zip(self.names, self.times))


def run_round(tally: Tally, items: list, budget_s: float, deadline: float, tracer=None) -> float:
    gc.collect()  # every round starts from the same collector state
    busy = 0.0
    for i, item in enumerate(items):
        if time.perf_counter() > deadline:
            tally.attempted += len(items) - i
            tally.failed += len(items) - i
            tally.problems.append(f"deadline reached with {len(items) - i} items left")
            break
        if tracer is not None:
            tracer.item_id += 1
        busy += tally.run(item, budget_s, tracer)
    return busy


def tail_percentile(n_min: int) -> float:
    """Highest grid percentile with at least ten of ``n_min`` samples beyond it."""
    return max(p for p in TAIL_GRID if n_min - math.ceil(p / 100 * n_min) >= 10)


def rescaled(latencies, references) -> list:
    """Each (item name, latency) rescaled to a host on which the reference
    loop takes REFERENCE_S.

    A shared 2-vCPU Xeon VM was seen to run up to 1.9x slower for fractions
    of a second to minutes at a time as its neighbours came and went, with
    process CPU time slowing alike, so the neighbours compete for the core
    itself.  The reference loop slows with the engine: the ratio of an item
    to the reference samples around it held within a few percent while the
    item's own time swung by half.  An item is divided by the median of the
    REFERENCE_SPAN samples before it (the last one timed just before it) and
    the REFERENCE_SPAN after it.  A change to the engine leaves the reference
    loop as it was, so it shows in full.
    """
    n = len(references)
    out = []
    for i, (name, dt) in enumerate(latencies):
        near = references[max(0, i - REFERENCE_SPAN + 1):min(n, i + REFERENCE_SPAN + 1)]
        out.append((name, dt * REFERENCE_S / statistics.median(near)))
    return out


def middle_share(samples, round_size: int, by_round: bool, keep: int) -> list:
    """The ``keep`` middle instances of every slot of a round.

    ``samples`` are (item name, latency) in run order, ``round_size`` to a
    round.  In ``refute``, ``confirm`` and ``equiv`` items of one name cost
    the same in every round, so a name that fills n slots of a round keeps
    the ``keep * n`` instances around its median; the corpus draws its slots
    at random, so whole rounds are ranked by their sum instead.  Instances the
    rescaling could not correct, far off in either direction, fall away.
    """
    def middle(ordered, k):
        lo = max(0, (len(ordered) - k) // 2)
        return ordered[lo:lo + k]

    if by_round:
        rounds = [samples[i:i + round_size] for i in range(0, len(samples), round_size)]
        rounds = [r for r in rounds if len(r) == round_size]
        rounds.sort(key=lambda r: sum(dt for _, dt in r))
        return [dt for r in middle(rounds, keep) for _, dt in r]
    per_round = Counter(name for name, _ in samples[:round_size])
    per_name = {}
    for name, dt in samples:
        per_name.setdefault(name, []).append(dt)
    return [dt for name, v in per_name.items() for dt in middle(sorted(v), keep * per_round[name])]


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def gates() -> tuple:
    """The self-test battery and the command line's fixture JSON, in a child
    process so that neither touches this process's memory peak.

    Both depend only on the engine's sources, the fixtures and the
    interpreter, so a pass is kept in ``.bench_cache/`` under a hash of them
    and later runs on the same tree reuse it.
    """
    digest = hashlib.sha256(sys.version.encode())
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "fixtures").rglob("*"))
    for path in (p for p in sources if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    stamp = ROOT / ".bench_cache" / f"gates-{digest.hexdigest()}.json"
    if stamp.is_file():
        return 0, json.loads(stamp.read_text(encoding="utf-8"))["cli_json"], ""
    proc = subprocess.run([sys.executable, "-c", GATE_SCRIPT], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode == 0:
        stamp.parent.mkdir(exist_ok=True)
        stamp.write_text(json.dumps({"cli_json": proc.stdout}), encoding="utf-8")
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rigidity" / "__init__.py").is_file():
        print(f"no engine sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cfg = WORKLOADS[args.workload]
    deadline = time.perf_counter() + DEADLINE_S

    code, cli_json, err = gates()
    problems = [] if code == 0 else [f"selftest gate: exit {code}: {err.strip()[-400:]}"]
    catalog_text = (ROOT / "fixtures" / "groups.cat").read_text(encoding="utf-8")

    def set_up():
        """Import, round 0 and warm-up, timed and rescaled like an item."""
        gc.collect()
        near = [reference_time() for _ in range(REFERENCE_SPAN)]
        t0 = time.perf_counter()
        E = engine()
        items = make_round(E, args.workload, args.seed, 0, catalog_text)
        own_json = warm_up(E, args.workload, catalog_text)
        dt = time.perf_counter() - t0
        near += [reference_time() for _ in range(REFERENCE_SPAN)]
        setups.append((dt, dt * REFERENCE_S / statistics.median(near)))
        return E, items, own_json

    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        E, items, own_json = set_up()
    if own_json != cli_json:
        problems.append("fixture JSON differs from `rigidity classify fixtures/ --json`")
    before = originals()
    gc.freeze()  # set-up objects stay out of the timed collections

    tally = Tally()
    if args.trace:
        metrics = traced(E, args, cfg, items, catalog_text, tally, deadline)
    else:
        busy, rounds = 0.0, 0
        window_end = time.perf_counter() + args.seconds
        while rounds < cfg["min_rounds"] or time.perf_counter() < window_end:
            if rounds:
                items = make_round(E, args.workload, args.seed, rounds, catalog_text)
            busy += run_round(tally, items, cfg["budget_s"], deadline)
            rounds += 1
            if time.perf_counter() > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        by_round = args.workload == "corpus"
        kept = middle_share(rescaled(tally.latencies, tally.references), len(items), by_round,
                            cfg["keep"])
        unscaled = middle_share(tally.latencies, len(items), by_round, cfg["keep"])
        p = tail_percentile(cfg["keep"] * len(items))
        metrics = {
            "throughput": len(kept) / sum(kept),
            "latency_p50_ms": statistics.median(kept) * 1000,
            "latency_tail_ms": percentile(kept, p) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
    if not same_objects(before):
        problems.append("an engine module or class attribute was left replaced")
    if not args.trace:
        for _ in range(SETUP_REPEATS):  # set-up times from both ends of the run
            set_up()
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
        print(f"{args.workload} seed {args.seed}: {len(tally.times)} items in {rounds} "
              f"rounds, busy {busy:.3f} s; statistics over the {cfg['keep']} middle instances "
              f"of each {'round' if by_round else 'slot'}, {len(kept)} samples; latency_tail_ms "
              f"is p{p:g} ({len(kept) - math.ceil(p / 100 * len(kept))} samples beyond it)")
        print(f"reference loop: median {statistics.median(tally.references) * 1000:.4f} ms here, "
              f"times rescaled to {REFERENCE_S * 1000:g} ms; unscaled: throughput "
              f"{len(unscaled) / sum(unscaled):.4f} 1/s, latency_p50_ms "
              f"{statistics.median(unscaled) * 1000:.4f}, latency_tail_ms "
              f"{percentile(unscaled, p) * 1000:.4f}, set-up runs "
              f"{[round(raw, 4) for raw, _ in setups]} s")
    problems += tally.problems
    print(f"failed_frac {tally.failed / tally.attempted:.6f} ({tally.failed}/{tally.attempted})")
    for line in problems[:20]:
        print(f"problem: {line}")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def traced(E, args, cfg, items, catalog_text, tally, deadline) -> dict:
    """Each round untraced, traced, then untraced again; per-layer numbers are
    per round, and the overhead compares the traced pass with the mean of the
    two untraced passes around it."""
    plain = traced_busy = 0.0
    tracer = Tracer()
    rounds = cfg["traced_rounds"]
    for r in range(rounds):
        if r:
            items = make_round(E, args.workload, args.seed, r, catalog_text)
        plain += run_round(tally, items, cfg["budget_s"], deadline) / 2
        again = make_round(E, args.workload, args.seed, r, catalog_text)
        tracer.install()
        try:
            traced_busy += run_round(tally, again, cfg["budget_s"], deadline, tracer)
        finally:
            tracer.restore()
        last = make_round(E, args.workload, args.seed, r, catalog_text)
        plain += run_round(tally, last, cfg["budget_s"], deadline) / 2
    summary = tracer.summary()
    out = {k: summary.get(k, 0.0) / (1 if k.endswith("ratio") else rounds) for k in PER_LAYER}
    out["trace.overhead_pct"] = (traced_busy / plain - 1) * 100
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, untraced {plain:.3f} s "
          f"(mean of two passes), traced {traced_busy:.3f} s, {len(tracer.start)} spans")
    return out


if __name__ == "__main__":
    sys.exit(main())
