"""The ledger benchmark: one workload per process, every metric by name.

    python3 benchmarks/ledger/run.py --workload exact_cold --seed 1

prints each metric with its unit, checks the program's outputs and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
(default) reports the end-to-end metrics with tracing off; ``--trace 1``
(alias ``--traced``) reports the per-layer metrics from harness-side spans.
Names, units and regression bounds live in ``BENCHMARK.json`` at the repo
root; README.md next to this file defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

from bootstrap import OUT_DIR, REPO_ROOT, THREAD_ENV, bootstrap

bootstrap()

from provenance import provenance_stamp  # noqa: E402

from harness import (  # noqa: E402
    HostSpeedProbe,
    Op,
    Round,
    failed_ops,
    host_speed,
    latencies_ms,
    measure_rounds,
    quiet_op_median_ms,
    quiet_throughput,
    ranking_defect,
    recall_and_hits,
    repeated_setup,
    run_round,
    score_mismatches,
)
from inputs import K  # noqa: E402
from probes import (  # noqa: E402
    StageReplay,
    fixture_probes,
    ground_truth_metrics,
    replay_mismatches,
    stage_metrics,
)
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Share of ``--seconds`` a traced run spends on paired plain/traced rounds;
#: the fixture probes take the rest.
TRACED_ROUND_SHARE = 0.5


def load_spec() -> Dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def check_outputs(
    workload: Workload, handle, groups: Sequence[Sequence[Round]], oracle
) -> Dict:
    """Failed ops, recall against exhaustive exact scoring, score parity.

    ``groups`` holds the measured rounds, one group per op list replayed.
    """
    served = workload.served(handle, groups[0][-1])
    ids = sorted(oracle.table_ids)
    exhaustive = [
        oracle.scorer.score_chart_batch(chart, table_ids=ids) for chart in workload.charts
    ]
    exact_top = [
        sorted(scores.items(), key=lambda item: item[1], reverse=True)[:K]
        for scores in exhaustive
    ]
    expected = workload.expected_rankings(oracle)
    failures = [
        line for rounds in groups for line in failed_ops(rounds, K, workload.known_ids, expected)
    ]
    defects = [d for d in (ranking_defect(r, K, workload.known_ids) for r in served) if d]
    rankings = [answer.ranking for answer in served]
    recall, gt_hit = recall_and_hits(rankings, exact_top, workload.source_ids, K)
    mismatches = 0 if defects else score_mismatches(rankings, exhaustive, workload.score_tolerance)
    return {
        "attempted": sum(len(r.counted) for rounds in groups for r in rounds),
        "failures": failures,
        "correct": not failures and not defects and mismatches == 0,
        "score_mismatches": mismatches,
        "recall_at_10": recall,
        "ground_truth": {
            "gt_hit_at_10": gt_hit,
            **ground_truth_metrics(exhaustive, workload.source_ids),
        },
    }


def run_plain(workload: Workload, seconds: float, smoke: bool) -> Dict:
    """End-to-end metrics, tracing off."""
    probe = HostSpeedProbe()
    once = {"min_reps": 1, "min_seconds": 0.0} if smoke else {}
    durations, setup_probes, handle = repeated_setup(
        workload.setup, workload.teardown, probe, **once
    )
    try:
        gc.collect()
        gc.freeze()
        clients = workload.ops(handle)

        def one_round() -> Round:
            workload.reset_round(handle)
            return run_round(clients, probe)

        one_round()  # warm-up, discarded
        rounds = measure_rounds(one_round, 0.0 if smoke else seconds, 2 if smoke else 4)
        peak_rss = workload.peak_rss_mb(handle)
        verdict = check_outputs(workload, handle, [rounds], workload.oracle())
    finally:
        workload.teardown(handle)
        gc.unfreeze()
    raw = {
        "setup_s": statistics.median(durations),
        "op_p50_ms": quiet_op_median_ms(rounds),
        "throughput_ops_s": quiet_throughput(rounds),
    }
    # The quiet-op estimators are lower envelopes, so they are scaled by the
    # probes' lowest decile; the median of the set-ups by the probes' median.
    speed = {
        "setup": host_speed(setup_probes, 0.5),
        "ops": host_speed([t for r in rounds for t in r.probes], 0.1),
    }
    scale = speed if workload.cpu_bound else {"setup": 1.0, "ops": 1.0}
    verdict["metrics"] = {
        "setup_s": raw["setup_s"] * scale["setup"],
        "op_p50_ms": raw["op_p50_ms"] * scale["ops"],
        "throughput_ops_s": raw["throughput_ops_s"] / scale["ops"],
        "peak_rss_mb": peak_rss,
        "recall_at_10": verdict["recall_at_10"],
    }
    verdict["detail"] = {
        "raw": raw,
        "host_speed": speed,
        "scaled_by_host_speed": workload.cpu_bound,
        "setup_durations_s": durations,
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "op_ms": [[[s.seconds * 1e3 for s in c] for c in r.clients] for r in rounds],
        "probe_ms": [[t * 1e3 for t in r.probes] for r in rounds],
    }
    return verdict


def trace_stages(workload: Workload, seconds: float, smoke: bool) -> Dict:
    """The workload's own per-layer metrics from paired plain/traced rounds."""
    recorder = SpanRecorder()
    handle = workload.setup()
    try:
        gc.collect()
        gc.freeze()
        oracle = workload.oracle()
        service = workload.service(handle)
        replay = StageReplay(service or oracle, recorder)
        plain_ops = workload.ops(handle)
        traced_ops = replay.traced(plain_ops, workload.charts, in_process=service is not None)

        probe = HostSpeedProbe()

        def one_round(clients: Sequence[Sequence[Op]]) -> Round:
            workload.reset_round(handle)
            return run_round(clients, probe)

        one_round(plain_ops)  # warm-up, discarded
        before = workload.cache_counters(handle)
        plain: List[Round] = []
        traced: List[Round] = []
        deadline = time.perf_counter() + (0.0 if smoke else seconds * TRACED_ROUND_SHARE)
        while len(traced) < (1 if smoke else 2) or time.perf_counter() < deadline:
            plain.append(one_round(plain_ops))
            traced.append(one_round(traced_ops))
        after = workload.cache_counters(handle)
        if service is not None:
            mismatches = sum(replay_mismatches(a, b) for a, b in zip(plain, traced))
            query_p50 = statistics.median(
                ms for r in plain for ms in latencies_ms(r.samples, "query")
            )
        else:
            query_p50, mismatches = replay.on_twin(workload.charts)
        verdict = check_outputs(workload, handle, [plain, traced], oracle)
    finally:
        workload.teardown(handle)
        gc.unfreeze()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    metrics = stage_metrics(recorder, service or oracle, plain, traced, query_p50)
    metrics["service.result_cache_hit_frac"] = hits / lookups if lookups else 0.0
    metrics["host.speed_ratio"] = host_speed([t for r in plain for t in r.probes], 0.1)
    metrics.update(verdict["ground_truth"])
    verdict["correct"] = verdict["correct"] and mismatches == 0
    verdict["metrics"] = metrics
    verdict["detail"] = {"paired_rounds": len(traced), "replay_mismatches": mismatches}
    recorder.dump(OUT_DIR / f"trace_{workload.name}.json")
    return verdict


def run_traced(workload: Workload, seconds: float, smoke: bool) -> Dict:
    """Per-layer metrics: the stage replay, then the fixture probes."""
    verdict = trace_stages(workload, seconds, smoke)
    verdict["metrics"].update(fixture_probes(workload.seed, smoke, workload.scratch_dir()))
    return verdict


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict:
    """Prepare the inputs, measure, and return the verdict with its metrics."""
    workload = WORKLOADS[name](seed, smoke)
    try:
        workload.prepare()
        return (run_traced if trace else run_plain)(workload, seconds, smoke)
    finally:
        workload.cleanup()


def report(name: str, args: argparse.Namespace, verdict: Dict, spec: Dict) -> Dict:
    """Print every metric with its unit, store the run, return the result line."""
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = set(units) ^ set(verdict["metrics"])
    if missing:
        raise SystemExit(f"ledger: metrics out of step with BENCHMARK.json: {sorted(missing)}")
    metrics = {
        metric: {"value": verdict["metrics"][metric], "unit": unit}
        for metric, unit in units.items()
    }
    for metric, entry in metrics.items():
        print(f"{name:18s} {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    for line in verdict["failures"][:20]:
        print(f"FAILED {line}")
    result = {
        "correct": bool(verdict["correct"]),
        "attempted": verdict["attempted"],
        "failed": len(verdict["failures"]),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "result": result,
        "detail": verdict["detail"],
        "score_mismatches": verdict["score_mismatches"],
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": os.cpu_count(),
        "provenance": provenance_stamp(),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    mode = "traced" if args.trace else "plain"
    (OUT_DIR / f"{name}-seed{args.seed}-{mode}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, two rounds: same code paths and checks")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    verdict = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result = report(args.workload, args, verdict, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
