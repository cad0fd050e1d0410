#!/usr/bin/env python
"""Where an index build's milliseconds go, measured inside the real path.

Builds the ledger's ``exact_cold`` fixture (1 500 synthetic tables, the pinned
fixture model) with ``SearchService.build`` — the ledger's timed set-up minus
the checkpoint load — and splits each build's wall-clock by what ran *inside
that call*:

===============  ===========================================================
``prepare``      ``prepare_table_input``: columns → ``(NC, N2, P2)`` segments
``da_layers``    ``DataAggregationEncoder.forward``: transformation → HMRL →
                 MoE, the per-segment embeddings
``transformer``  ``TransformerEncoder.forward`` over those embeddings
``forward_rest`` the rest of ``FCMModel.encode_table_batch``: grouping the
                 chunk's tables, concatenating, splitting the result
``cache_fill``   ``FCMScorer._cache_encodings``: copies kept, column means,
                 value ranges
``interval``     ``IndexBuildStats.interval_seconds``: the interval tree
``lsh``          ``IndexBuildStats.lsh_seconds``: hashing every column
``other``        the rest of the call (registry, chunk loop, result cache)
===============  ===========================================================

Every figure is the best of ``--rounds`` builds (the median is printed
beside it), and each round also times a fixed NumPy probe — one GEMM and one
elementwise pass of the encoder's sizes — so a slow stretch of the host shows
up as a slow probe instead of passing for a slow build.

Run from the repository root (``--src`` measures another checkout's ``src/``
with this checkout's fixture, e.g. the parent commit)::

    python tools/build_breakdown.py [--seed 1] [--rounds 7] [--src PATH] [--smoke]
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

STAGES = (
    "prepare",
    "da_layers",
    "transformer",
    "forward_rest",
    "cache_fill",
    "interval",
    "lsh",
    "other",
)


def _probe_ms(np) -> float:
    """A fixed slice of the build's arithmetic: best of five, in ms."""
    rng = np.random.default_rng(0)
    rows, weights = rng.standard_normal((2560, 64)), rng.standard_normal((64, 32))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            out = rows @ weights
            np.maximum(out, 0.0, out=out)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--tables", type=int, default=1500)
    parser.add_argument("--src", type=Path, default=None, help="another checkout's src/")
    parser.add_argument(
        "--smoke", action="store_true", help="100 tables, 2 rounds: the same code paths in seconds"
    )
    args = parser.parse_args()
    if args.smoke:
        args.tables, args.rounds = min(args.tables, 100), min(args.rounds, 2)
    bootstrap()
    if args.src is not None:
        sys.path.insert(0, str(args.src.resolve()))

    import numpy as np
    import repro
    import repro.fcm.scorer as scorer_module
    from inputs import LSH_CONFIG, load_model, make_tables
    from repro.fcm.da_layers import DataAggregationEncoder
    from repro.fcm.model import FCMModel
    from repro.nn.transformer import TransformerEncoder
    from repro.serving import SearchService, ServingConfig

    clock = dict.fromkeys(("prepare", "da_layers", "transformer", "forward", "cache_fill"), 0.0)

    def timed(owner, name: str, key: str) -> None:
        inner = getattr(owner, name)

        def wrapper(*a, **kw):
            start = time.perf_counter()
            try:
                return inner(*a, **kw)
            finally:
                clock[key] += time.perf_counter() - start

        setattr(owner, name, wrapper)

    timed(scorer_module, "prepare_table_input", "prepare")
    timed(DataAggregationEncoder, "forward", "da_layers")
    timed(TransformerEncoder, "forward", "transformer")
    timed(FCMModel, "encode_table_batch", "forward")
    # The parent of PR 22 cached one table at a time, under the singular name.
    cache_fill = "_cache_encodings" if hasattr(scorer_module.FCMScorer, "_cache_encodings") else "_cache_encoding"
    timed(scorer_module.FCMScorer, cache_fill, "cache_fill")

    tables = make_tables(args.tables, args.seed)
    model = load_model()
    config = ServingConfig(lsh_config=LSH_CONFIG, result_cache_size=0)
    samples = {stage: [] for stage in STAGES + ("total", "probe")}
    for round_number in range(args.rounds + 1):  # the first round warms the allocator
        for key in clock:
            clock[key] = 0.0
        probe = _probe_ms(np)
        service = SearchService(model, config)
        start = time.perf_counter()
        stats = service.build(tables)
        total = time.perf_counter() - start
        service.close()
        if not round_number:
            continue
        row = {
            "prepare": clock["prepare"],
            "da_layers": clock["da_layers"],
            "transformer": clock["transformer"],
            "forward_rest": clock["forward"] - clock["da_layers"] - clock["transformer"],
            "cache_fill": clock["cache_fill"],
            "interval": stats.interval_seconds,
            "lsh": stats.lsh_seconds,
        }
        row["other"] = total - sum(row.values())
        row["total"] = total
        for stage, seconds in row.items():
            samples[stage].append(seconds * 1e3)
        samples["probe"].append(probe)

    print(f"repro from {Path(repro.__file__).parent}")
    print(
        f"{args.tables} tables, seed {args.seed}, {args.rounds} builds after one warm-up; "
        "ms per build, best (median)"
    )
    for stage in STAGES + ("total",):
        best, median = min(samples[stage]), statistics.median(samples[stage])
        print(f"  {stage:<13}{best:8.1f}  ({median:6.1f})")
    best_total = min(samples["total"])
    print(f"  per table    {best_total / args.tables:8.3f} ms")
    print(
        f"  numpy probe  {min(samples['probe']):8.2f}  ({statistics.median(samples['probe']):6.2f})"
        "  -- compare between runs before comparing builds"
    )


if __name__ == "__main__":
    main()
