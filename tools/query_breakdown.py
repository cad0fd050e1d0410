#!/usr/bin/env python
"""Where a cold query's milliseconds go, measured inside the real path.

Builds the ledger's ``exact_cold`` fixture (1 500 synthetic tables, the
pinned fixture model, 32 charts), asks ``SearchService.query`` about every
chart with the preparation cache cleared before each round — the ledger's
op — and splits each query's wall-clock by what ran *inside that call*:

=============  =============================================================
``hash``       ``LineChart.fingerprint`` (timed by wrapping the method)
``extract``    the ``prepare_query`` span: visual elements + preprocessing
``encode``     the ``encode_chart`` span: the chart encoder forward
``candidates`` the ``candidates`` span: LSH lookup, interval tree, fallback
``kernel``     every ``FusedMatchKernel._hcman_core`` call (wrapped)
``plumbing``   the ``verify`` span minus ``kernel``: ids to rows, scan plan,
               scores back to whatever the merge ranks
``merge``      the ``merge`` span: the top-k
``other``      the rest of the call (result-cache probe, stats, span glue)
=============  =============================================================

This is *not* the ledger's ``StageReplay``: the replay re-enacts the stages
one public call at a time, so its ``index.candidates_ms`` prepares and hashes
the chart again and its verify stage builds and sorts a dict.  The figures
here are the ones to quote for "what does a stage of a query cost".

Run from the repository root (``--src`` measures another checkout's
``src/`` with this checkout's fixture, e.g. the parent commit)::

    python tools/query_breakdown.py [--seed 5] [--rounds 5] [--src PATH]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "ledger"))

from bootstrap import bootstrap  # noqa: E402

STAGES = ("hash", "extract", "encode", "candidates", "plumbing", "kernel", "merge", "other")


def _span_ms(tree: dict, name: str) -> float:
    """Total duration of every span called ``name`` under ``tree``."""
    own = tree["duration_ms"] if tree["name"] == name else 0.0
    return own + sum(_span_ms(child, name) for child in tree.get("children", ()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--tables", type=int, default=1500)
    parser.add_argument("--charts", type=int, default=32)
    parser.add_argument("--src", type=Path, default=None, help="another checkout's src/")
    args = parser.parse_args()
    bootstrap()
    if args.src is not None:
        sys.path.insert(0, str(args.src.resolve()))

    import repro
    from inputs import K, LSH_CONFIG, load_model, make_tables, pick_charts
    from repro.charts.rasterizer import LineChart
    from repro.fcm.fastpath import FusedMatchKernel
    from repro.serving import SearchService, ServingConfig

    clock = {"hash": 0.0, "kernel": 0.0}

    def timed(cls, method: str, key: str) -> None:
        inner = getattr(cls, method)

        def wrapper(*a, **kw):
            start = time.perf_counter()
            try:
                return inner(*a, **kw)
            finally:
                clock[key] += time.perf_counter() - start

        setattr(cls, method, wrapper)

    timed(LineChart, "fingerprint", "hash")
    timed(FusedMatchKernel, "_hcman_core", "kernel")

    tables = make_tables(args.tables, args.seed)
    charts = pick_charts(tables, args.charts, args.seed)[1]
    service = SearchService(
        load_model(),
        ServingConfig(lsh_config=LSH_CONFIG, result_cache_size=0, tracing=True),
    )
    service.build(tables)
    samples = {stage: [] for stage in STAGES + ("total",)}
    for round_number in range(args.rounds + 1):  # the first round warms the packs
        service.scorer.clear_query_cache()
        for chart in charts:
            clock.update(hash=0.0, kernel=0.0)
            start = time.perf_counter()
            service.query(chart, K)
            total = (time.perf_counter() - start) * 1e3
            if not round_number:
                continue
            tree = service.last_trace
            row = {
                "hash": clock["hash"] * 1e3,
                "extract": _span_ms(tree, "prepare_query"),
                "encode": _span_ms(tree, "encode_chart"),
                "candidates": _span_ms(tree, "candidates"),
                "kernel": clock["kernel"] * 1e3,
                "merge": _span_ms(tree, "merge"),
            }
            row["plumbing"] = _span_ms(tree, "verify") - row["kernel"]
            row["other"] = total - sum(row.values())
            row["total"] = total
            for stage, value in row.items():
                samples[stage].append(value)
    service.close()
    print(f"repro from {Path(repro.__file__).parent}")
    print(
        f"{args.tables} tables, {len(charts)} charts x {args.rounds} cold rounds, "
        f"seed {args.seed}; median ms per query (tracing on)"
    )
    for stage in STAGES + ("total",):
        print(f"  {stage:<11}{statistics.median(samples[stage]):7.3f}")


if __name__ == "__main__":
    main()
