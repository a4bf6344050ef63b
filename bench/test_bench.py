"""Tests of the benchmark itself: generator, oracle and tracer.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

import rigidity.arith_equiv  # noqa: E402
import rigidity.catalog  # noqa: E402
import rigidity.classifier  # noqa: E402
import rigidity.cli  # noqa: E402
import rigidity.errors  # noqa: E402
from rigidity.classifier import validate_descriptor  # noqa: E402

E = SimpleNamespace(cli=rigidity.cli, classifier=rigidity.classifier, errors=rigidity.errors,
                    arith_equiv=rigidity.arith_equiv, catalog=rigidity.catalog)


@pytest.mark.parametrize("workload", ["corpus", "refute", "confirm"])
def test_generator_is_deterministic_per_seed(workload):
    assert gen.generate(workload, 7, 2) == gen.generate(workload, 7, 2)
    assert gen.generate(workload, 7, 2) != gen.generate(workload, 8, 2)
    assert gen.generate(workload, 7, 2) != gen.generate(workload, 7, 3)


def test_catalog_round_is_seeded_and_complete():
    text = (BENCH.parent / "fixtures" / "groups.cat").read_text(encoding="utf-8")
    assert gen.catalog_round(text, 3, 0) == gen.catalog_round(text, 3, 0)
    assert gen.catalog_round(text, 3, 0) != gen.catalog_round(text, 4, 0)
    entries = gen.catalog_round(text, 3, 0)
    names = Counter(e[1].split()[0] for e in entries if e[0] == "group")
    assert set(names.values()) == {1} and not set(names) & set(gen.SLOW_GROUPS)
    assert set(names) == set(run.CATALOG_ORDERS)
    assert sum(e[0] == "query" for e in entries) == len(gen.PAIR_QUERIES)


@pytest.mark.parametrize("workload,seed", [("corpus", 1), ("corpus", 2), ("refute", 1),
                                           ("confirm", 1)])
def test_generated_inputs_follow_the_descriptor_rules(workload, seed):
    for case in gen.generate(workload, seed, 0):
        if case.expect == gen.OUT_OF_SCOPE:
            with pytest.raises(rigidity.errors.DescriptorParseError, match="out of scope"):
                rigidity.cli.parse(case.text)
            continue
        g = rigidity.cli.parse(case.text)
        validate_descriptor(g)  # coherence and the automorphism order rule
        classes = Counter(p.class_key() for p in g.field.finite_places)
        assert max(classes.values(), default=0) <= g.field.degree, case.slot
        if g.field.degree > 6:
            assert "locally_determined = " in case.text, case.slot


def _verdict(case):
    return run.classify_text(E, case.text)


def test_oracle_accepts_the_engine_and_flags_a_planted_wrong_verdict():
    case = next(c for c in gen.generate("corpus", 1, 0) if c.slot == "twin_bound")
    g, v, payload, _ = _verdict(case)
    assert run.check_verdict(E, g, v, payload, case.expect, case.tags, case.exact) == []
    assert run.check_verdict(E, g, v, payload, gen.RIGID, case.tags, case.exact)
    assert run.check_verdict(E, g, v, payload, case.expect, (gen.TAG_SCOPE,), False)
    v.outcome = rigidity.classifier.Outcome.RIGID
    assert run.check_verdict(E, g, v, payload, case.expect, case.tags, case.exact)


def test_oracle_flags_a_witness_that_fails_the_round_trip():
    case = next(c for c in gen.generate("corpus", 1, 0) if c.slot == "twin_bound")
    g, v, payload, _ = _verdict(case)
    payload["witness"] = rigidity.cli.emit_descriptor(g)  # the input is not its own twin
    with pytest.raises(rigidity.errors.RigidityError):
        run.check_verdict(E, g, v, payload, case.expect, case.tags, case.exact)


def test_a_failed_check_counts_toward_failed_items():
    tally = run.Tally()
    tally.run(run.Item("ok", lambda: None, lambda: []), budget_s=1.0)
    tally.run(run.Item("bad", lambda: None, lambda: ["planted"]), budget_s=1.0)
    tally.run(run.Item("raises", lambda: 1 / 0, lambda: []), budget_s=1.0)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(1008) == 99.0
    assert run.tail_percentile(40) == 75.0
    samples = [(name, dt) for dt in (5, 9, 3, 7, 1) for name in "aab"]
    assert sorted(run.middle_share(samples, 3, False, 2)) == [3, 3, 5, 5, 5, 7]
    assert sorted(run.middle_share(samples, 3, True, 3)) == [3, 3, 3, 5, 5, 5, 7, 7, 7]
    assert run.middle_share(samples, 3, True, 1) == [5, 5, 5]


def test_rescaling_divides_by_the_reference_samples_around_an_item():
    slow = 2 * run.REFERENCE_S
    latencies = [("a", 0.010), ("b", 0.020), ("a", 0.010)]
    same = run.rescaled(latencies, [run.REFERENCE_S] * 3)
    assert [dt for _, dt in same] == pytest.approx([dt for _, dt in latencies])
    halved = run.rescaled(latencies, [slow] * 3)
    assert [name for name, _ in halved] == ["a", "b", "a"]
    assert [dt for _, dt in halved] == pytest.approx([0.005, 0.010, 0.005])
    assert run.percentile([float(i) for i in range(1, 101)], 90.0) == 90.0


def test_tracer_keeps_verdicts_byte_identical_and_restores_every_name():
    texts = run.fixture_texts()
    cases = gen.generate("corpus", 5, 0)[::3]
    plain = [_verdict_json(t) for t in texts.values()] + [_verdict_json(c.text) for c in cases]
    before = run.originals()
    tracer = Tracer()
    tracer.install()
    try:
        assert rigidity.classifier.natural_key is not before[("rigidity.classifier", "natural_key")]
        assert rigidity.cli.natural_key is rigidity.brauer.natural_key
        traced = [_verdict_json(t) for t in texts.values()] + [_verdict_json(c.text) for c in cases]
        G, P, L = rigidity.catalog.fano_point_line_stabilizers()
        assert rigidity.arith_equiv.almost_conjugate(G, P, L)
    finally:
        tracer.restore()
    assert traced == plain
    assert run.same_objects(before)
    summary = tracer.summary()
    in_scope = [c for c in cases if c.expect != gen.OUT_OF_SCOPE]
    assert summary["classifier.classify.calls"] == len(texts) + len(in_scope)
    assert summary["util.natural_key.calls"] > 0
    assert summary["arith_equiv.almost_conjugate.calls"] == 1
    assert {name for _, name, _ in TARGETS} >= {"natural_key", "PlaceSymmetry.group"}


def _verdict_json(text):
    return run.classify_text(E, text)[3]


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
