"""Kernel-fusion microbenchmark: graphed vs ``no_grad`` vs fused, and the
int8 prefilter end to end.

Two measurements feed ``BENCH_kernels.json``:

* **matcher-forward cost per stage of de-overheading** — the same padded
  candidate batch scored three ways: the full autograd-graphed matcher
  forward (what training pays), the same Tensor ops under
  ``Module.inference()`` (no graph, still per-op Tensor allocation — the
  pre-fastpath serving cost), and the fused kernels of
  :mod:`repro.fcm.fastpath` (preallocated NumPy contractions, no Tensor
  machinery at all).  A score-parity check runs across all three.
* **exact vs int8-prefilter+rescore query latency** — end-to-end
  ``strategy="none"`` (exhaustive verification) queries through
  :class:`SearchService` at 10³ and 10⁴ tables (smoke mode: 10³ only),
  with the quantized pre-filter's top-k recall against exact scoring.

The model is the deterministic trained fixture
(:mod:`repro.bench.fixture`), so prefilter recall is measured on a
calibrated embedding space.  ``os.cpu_count()`` and a ``single_cpu`` flag
ride along in the JSON — all numbers here are single-process.

Results land in ``BENCH_kernels.json`` at the repository root and
``benchmarks/results/kernel_fusion.txt``.  The ≥5× fused-vs-graphed floor
at the 10⁴ point is asserted unless ``REPRO_SKIP_PERF_TESTS=1``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.fixture import trained_fixture_model
from repro.data import SynthConfig, synth_query_charts, synth_tables
from repro.fcm import FCMConfig
from repro.index import LSHConfig
from repro.nn import Tensor
from repro.serving import SearchService, ServingConfig

from provenance import stamp_results

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"

TOP_K = 10
#: Minimum warm speedup of the full fast path (fused kernels + quantized
#: pre-filter) over graphed exhaustive verification at the 10⁴-table point
#: (asserted at default scale, recorded always).  The fused kernels alone
#: shave constant factors; the order-of-magnitude step comes from the
#: pre-filter scoring the prebuilt pooled int8 pack instead of re-padding
#: and exactly scoring every candidate.
FAST_PATH_SPEEDUP_FLOOR = 5.0

#: Same sweep model as benchmarks/test_scale_sweep.py — numbers line up.
KERNEL_FCM = FCMConfig(
    embed_dim=32,
    num_heads=2,
    num_layers=1,
    data_segment_size=32,
    max_data_segments=8,
    beta=2,
)


def _skip_perf_assertions() -> bool:
    return os.environ.get("REPRO_SKIP_PERF_TESTS", "").lower() in ("1", "true", "yes")


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "smoke"


def _corpus(num_tables: int) -> SynthConfig:
    return SynthConfig(
        num_tables=num_tables,
        num_rows=256,
        max_columns=3,
        num_clusters=16,
        seed=11,
    )


def _write_json(results: dict) -> None:
    BENCH_JSON.write_text(json.dumps(stamp_results(results), indent=2) + "\n")


def test_kernel_fusion(record_result):
    model = trained_fixture_model(KERNEL_FCM)
    rounds = 2 if _smoke() else 5
    batch_tables = 128 if _smoke() else 256

    # ------------------------------------------------------------------ #
    # 1. One padded matcher batch, three execution strategies
    # ------------------------------------------------------------------ #
    corpus = _corpus(batch_tables)
    service = SearchService(
        model, config=ServingConfig(lsh_config=LSHConfig(num_bits=16, seed=0))
    )
    service.build(synth_tables(corpus))
    chart = synth_query_charts(corpus, 1)[0][1]
    scorer = service.scorer
    chart_input = scorer.prepare_query(chart)
    ids = scorer.indexed_table_ids
    with model.inference():
        chart_repr = model.encode_chart(chart_input)
    chart_data = np.ascontiguousarray(chart_repr.numpy())
    batch, segment_mask, column_mask = scorer._padded_batch(
        ids, chart_input.y_range
    )
    kernel = scorer._fused_kernel()
    assert kernel is not None

    def _graphed():
        return model.match_batch(
            chart_repr,
            Tensor(batch, dtype=model.config.numeric_dtype),
            segment_mask,
            column_mask,
        ).numpy()

    def _no_grad():
        with model.inference():
            return _graphed()

    def _fused():
        return kernel.score_batch(chart_data, batch, segment_mask, column_mask)

    variants = {"graphed": _graphed, "no_grad": _no_grad, "fused": _fused}
    outputs, timings = {}, {}
    for name, fn in variants.items():
        outputs[name] = np.atleast_1d(fn())  # warmup (and parity sample)
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        timings[name] = float(np.mean(samples))
    parity = max(
        float(np.max(np.abs(outputs["graphed"] - outputs["no_grad"]))),
        float(np.max(np.abs(outputs["graphed"] - outputs["fused"]))),
    )
    assert parity < 1e-8, f"stage outputs diverge: {parity:.3e}"

    stage_results = {
        "batch_tables": len(ids),
        "rounds": rounds,
        "graphed_seconds": timings["graphed"],
        "no_grad_seconds": timings["no_grad"],
        "fused_seconds": timings["fused"],
        "no_grad_speedup_vs_graphed": timings["graphed"] / timings["no_grad"],
        "fused_speedup_vs_no_grad": timings["no_grad"] / timings["fused"],
        "fused_speedup_vs_graphed": timings["graphed"] / timings["fused"],
        "score_parity_max_abs_diff": parity,
    }

    # ------------------------------------------------------------------ #
    # 2. Exact vs int8-prefilter+rescore, end to end
    # ------------------------------------------------------------------ #
    scales = [1_000] if _smoke() else [1_000, 10_000]
    num_queries = 2 if _smoke() else 3
    per_scale = []
    for num_tables in scales:
        corpus = _corpus(num_tables)
        build_service = SearchService(
            model, config=ServingConfig(lsh_config=LSHConfig(num_bits=16, seed=0))
        )
        build_service.build(synth_tables(corpus))
        # Encode once, then load the timing services from a snapshot —
        # which also routes the prefilter through the q8 sidecar path.  No
        # result cache: its key omits the fused flag (the paths score
        # identically), so a cached reply would time nothing.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "kernels_index.npz"
            build_service.save_index(path)
            del build_service
            exact_service = SearchService.load_index(
                model,
                path,
                config=ServingConfig(
                    lsh_config=LSHConfig(num_bits=16, seed=0),
                    result_cache_size=0,
                ),
            )
            prefilter_service = SearchService.load_index(
                model,
                path,
                config=ServingConfig(
                    lsh_config=LSHConfig(num_bits=16, seed=0),
                    result_cache_size=0,
                    quantized_prefilter=True,
                ),
            )
        charts = [c for _, c in synth_query_charts(corpus, num_queries)]
        # Warm pools, pad caches and the quantized pack.
        exact_service.query(charts[0], k=TOP_K, strategy="none")
        exact_service.query(charts[0], k=TOP_K, strategy="none", fused=False)
        prefilter_service.query(charts[0], k=TOP_K, strategy="none")
        fused_s, graphed_s, prefilter_s, recalls = [], [], [], []
        for chart in charts:
            # Per-chart warm pass so neither timed variant pays the pad-cache
            # misses for this chart's y-range (the first-timed path would
            # otherwise absorb them all).
            exact_service.query(chart, k=TOP_K, strategy="none")
            prefilter_service.query(chart, k=TOP_K, strategy="none")
            start = time.perf_counter()
            exact = exact_service.query(chart, k=TOP_K, strategy="none")
            fused_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            exact_service.query(chart, k=TOP_K, strategy="none", fused=False)
            graphed_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            approx = prefilter_service.query(chart, k=TOP_K, strategy="none")
            prefilter_s.append(time.perf_counter() - start)
            exact_ids = {t for t, _ in exact.ranking}
            recalls.append(
                len(exact_ids & {t for t, _ in approx.ranking})
                / max(len(exact_ids), 1)
            )
        per_scale.append(
            {
                "num_tables": num_tables,
                "num_queries": len(charts),
                "prefilter_overscan": prefilter_service.config.prefilter_overscan,
                "exact_fused_seconds_mean": float(np.mean(fused_s)),
                "exact_graphed_seconds_mean": float(np.mean(graphed_s)),
                "prefilter_seconds_mean": float(np.mean(prefilter_s)),
                "fused_speedup_vs_graphed": float(
                    np.mean(graphed_s) / np.mean(fused_s)
                ),
                "prefilter_speedup_vs_graphed": float(
                    np.mean(graphed_s) / np.mean(prefilter_s)
                ),
                "prefilter_speedup_vs_fused": float(
                    np.mean(fused_s) / np.mean(prefilter_s)
                ),
                "prefilter_topk_recall": float(np.mean(recalls)),
            }
        )

    results = {
        "benchmark": "kernel_fusion",
        "mode": "smoke" if _smoke() else "default",
        "num_cpus": os.cpu_count(),
        "single_cpu": (os.cpu_count() or 1) <= 1,
        "top_k": TOP_K,
        "fast_path_speedup_floor": FAST_PATH_SPEEDUP_FLOOR,
        "model": "trained fixture (repro.bench.fixture, pinned seed)",
        "matcher_forward": stage_results,
        "end_to_end": per_scale,
    }
    _write_json(results)

    lines = [
        f"Kernel fusion ({results['mode']} mode, trained fixture)",
        (
            f"  matcher forward x{stage_results['batch_tables']}: graphed "
            f"{timings['graphed'] * 1e3:.1f}ms, no_grad "
            f"{timings['no_grad'] * 1e3:.1f}ms "
            f"({stage_results['no_grad_speedup_vs_graphed']:.1f}x), fused "
            f"{timings['fused'] * 1e3:.1f}ms "
            f"({stage_results['fused_speedup_vs_graphed']:.1f}x vs graphed, "
            f"{stage_results['fused_speedup_vs_no_grad']:.1f}x vs no_grad)"
        ),
    ]
    for entry in per_scale:
        lines.append(
            f"  n={entry['num_tables']:>6}: exhaustive fused/graphed "
            f"{entry['exact_fused_seconds_mean'] * 1e3:.1f}/"
            f"{entry['exact_graphed_seconds_mean'] * 1e3:.1f}ms "
            f"({entry['fused_speedup_vs_graphed']:.1f}x), prefilter "
            f"{entry['prefilter_seconds_mean'] * 1e3:.1f}ms "
            f"({entry['prefilter_speedup_vs_graphed']:.1f}x vs graphed, "
            f"recall {entry['prefilter_topk_recall']:.2f} "
            f"@ overscan {entry['prefilter_overscan']})"
        )
    lines.append(f"  -> {BENCH_JSON.name}")
    record_result("kernel_fusion", "\n".join(lines))

    if not _skip_perf_assertions():
        assert timings["fused"] < timings["no_grad"] < timings["graphed"], (
            stage_results
        )
        big = [e for e in per_scale if e["num_tables"] >= 10_000]
        if big:
            assert (
                big[-1]["prefilter_speedup_vs_graphed"] >= FAST_PATH_SPEEDUP_FLOOR
            ), big[-1]
