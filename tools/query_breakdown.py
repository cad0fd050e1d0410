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

``--after-write`` asks the other question — what the first query after a
write pays.  It builds the ledger's ``stream_mixed`` fixture (1 000 tables +
8 streams) and replays that workload's round: a 64-row append, the one
repeated chart, a chart not asked before.  ``plumbing`` is split in two —
``reconcile`` is ``FCMScorer.exact_pack`` (wrapped: the read of the index
generation's pack, which the write has already advanced — older checkouts
caught the held pack up with the write here) and ``id-walk`` the rest of
the ``verify`` span (ids to
rows, the scan plan, a held chart's score row mapped onto the new pack) —
and the medians are printed per kind of query: ``repeated`` (the chart is
in the scorer's query LRU, asked before the write) and ``fresh``.

This is *not* the ledger's ``StageReplay``: the replay re-enacts the stages
one public call at a time, so its ``index.candidates_ms`` prepares and hashes
the chart again and its verify stage builds and sorts a dict.  The figures
here are the ones to quote for "what does a stage of a query cost".

Run from the repository root (``--src`` measures another checkout's
``src/`` with this checkout's fixture, e.g. the parent commit)::

    python tools/query_breakdown.py [--seed 5] [--rounds 5] [--src PATH] [--after-write]
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
WRITE_STAGES = STAGES[:4] + ("reconcile", "id-walk") + STAGES[5:]


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
    parser.add_argument("--after-write", action="store_true", help="the stream_mixed round")
    args = parser.parse_args()
    bootstrap()
    if args.src is not None:
        sys.path.insert(0, str(args.src.resolve()))

    import repro
    from inputs import K, LSH_CONFIG, load_model, make_tables, pick_charts
    from repro.charts.rasterizer import LineChart
    from repro.fcm import FCMScorer
    from repro.fcm.fastpath import FusedMatchKernel
    from repro.serving import SearchService, ServingConfig

    clock = {"hash": 0.0, "kernel": 0.0, "reconcile": 0.0}

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
    timed(FCMScorer, "exact_pack", "reconcile")

    def query(service, chart) -> dict:
        """One ``service.query`` split by stage (both modes' stages)."""
        clock.update(hash=0.0, kernel=0.0, reconcile=0.0)
        start = time.perf_counter()
        service.query(chart, K)
        total = (time.perf_counter() - start) * 1e3
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
        row["reconcile"] = clock["reconcile"] * 1e3
        row["id-walk"] = row["plumbing"] - row["reconcile"]
        row["total"] = total
        return row

    print(f"repro from {Path(repro.__file__).parent}")
    if args.after_write:
        from workloads import StreamMixed

        class Traced(StreamMixed):
            def serving_config(self):
                config = super().serving_config()
                config.tracing = True
                return config

        workload = Traced(args.seed)
        workload.prepare()
        service = workload.setup()
        samples = {
            kind: {stage: [] for stage in WRITE_STAGES + ("total",)}
            for kind in ("repeated", "fresh")
        }
        for round_number in range(args.rounds + 1):  # the first round warms the packs
            workload.reset_round(service)
            appends = [op for op in workload.ops(service)[0] if op.kind == "append"]
            for cycle, append in enumerate(appends):  # the round, less its snapshots
                append.call()
                for kind, chart in (("repeated", 0), ("fresh", 1 + cycle)):
                    row = query(service, workload.charts[chart])
                    if round_number and (cycle or kind == "fresh"):  # cycle 0 holds no chart yet
                        for stage in samples[kind]:
                            samples[kind][stage].append(row[stage])
        workload.teardown(service)
        workload.cleanup()
        scale = workload.scale
        print(
            f"{scale['tables']} tables + {scale['streams']} streams, {scale['cycles']} x "
            f"({scale['batch_rows']}-row append, repeated chart, fresh chart) x {args.rounds} "
            f"rounds, seed {args.seed}; median ms per query (tracing on)"
        )
        print(f"  {'':<11}{'repeated':>9}{'fresh':>9}")
        for stage in WRITE_STAGES + ("total",):
            medians = [statistics.median(samples[kind][stage]) for kind in ("repeated", "fresh")]
            print(f"  {stage:<11}{medians[0]:9.3f}{medians[1]:9.3f}")
        return

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
            row = query(service, chart)
            if round_number:
                for stage in samples:
                    samples[stage].append(row[stage])
    service.close()
    print(
        f"{args.tables} tables, {len(charts)} charts x {args.rounds} cold rounds, "
        f"seed {args.seed}; median ms per query (tracing on)"
    )
    for stage in STAGES + ("total",):
        print(f"  {stage:<11}{statistics.median(samples[stage]):7.3f}")


if __name__ == "__main__":
    main()
