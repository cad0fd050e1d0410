"""Checks of the ledger benchmark itself, at ``--smoke`` scale.

    python -m pytest benchmarks/ledger -q

Not part of the tier-1 suite (``pytest.ini`` collects ``tests/`` only).
"""

from __future__ import annotations

import json
import re

import pytest

import run as ledger
from harness import Op, failed_ops, run_round
from inputs import K, make_tables, pick_charts
from spans import SpanRecorder
from workloads import WORKLOADS

SPEC = ledger.load_spec()
EXACT_COUNTS = (
    "index.candidate_frac",
    "index.interval_candidate_frac",
    "index.lsh_candidate_frac",
    "index.empty_fallback_frac",
    "index.lsh_buckets",
    "scorer.verify_tables",
    "scorer.prep_cache_hit_frac",
    "service.result_cache_hit_frac",
    "gt_hit_at_10",
)


def run_cli(capsys, *argv: str) -> dict:
    assert ledger.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_emits_the_end_to_end_metrics(workload, capsys):
    result = run_cli(capsys, "--workload", workload, "--seed", "3", "--smoke")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_emits_every_layer_metric_and_exact_counts_repeat(capsys):
    result = run_cli(capsys, "--workload", "exact_cold", "--seed", "3", "--smoke", "--traced")
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (ledger.OUT_DIR / "trace_exact_cold.json").exists()

    workload = WORKLOADS["exact_cold"](3, smoke=True)
    try:
        workload.prepare()
        again = ledger.trace_stages(workload, 0.0, smoke=True)
    finally:
        workload.cleanup()
    for name in EXACT_COUNTS:
        assert again["metrics"][name] == result["metrics"][name]["value"], name
    assert again["attempted"] == result["attempted"]


def test_another_seed_asks_about_other_charts():
    def fingerprints(seed):
        return [c.fingerprint() for c in pick_charts(make_tables(30, seed), 6, seed)[1]]

    assert fingerprints(1) == fingerprints(1)
    assert fingerprints(1) != fingerprints(2)


def test_an_injected_failing_op_is_counted_not_dropped():
    workload = WORKLOADS["exact_cold"](3, smoke=True)
    workload.prepare()
    service = workload.setup()
    bogus = Op("query", lambda: service.query(workload.charts[0], K, strategy="bogus"), 0)
    rounds = [run_round([workload.ops(service)[0] + [bogus]]) for _ in range(2)]
    failures = failed_ops(rounds, K, workload.known_ids)
    assert len(failures) == 2 and all("ValueError" in line for line in failures)
    assert sum(len(r.counted) for r in rounds) == 2 * (len(workload.charts) + 1)


def test_span_self_time_is_duration_minus_child_coverage():
    recorder = SpanRecorder()
    with recorder.span("request", request=7) as root:
        with recorder.span("child") as first:
            with recorder.span("grandchild") as leaf:
                pass
        with recorder.span("child") as second:
            pass
    assert {s.request for s in recorder.spans} == {7}
    assert (first.parent, second.parent, leaf.parent) == (root.span_id, root.span_id, first.span_id)
    self_times = recorder.self_times()
    assert self_times["request"][0] == pytest.approx(
        root.duration - first.duration - second.duration
    )
    assert self_times["child"] == pytest.approx(
        [first.duration - leaf.duration, second.duration]
    )
    # Overlapping children are covered once: self time never goes negative.
    first.end = second.end
    assert recorder.self_times()["request"][0] == pytest.approx(
        root.duration - (second.end - first.start)
    )
