#!/usr/bin/env python
"""Where an index build's milliseconds go, measured inside the real path.

Builds the ledger's ``exact_cold`` fixture (1 500 synthetic tables, the pinned
fixture model) with ``SearchService.build`` — the ledger's timed set-up minus
the checkpoint load — and splits each build by what ran *inside that call*:

===============  ===========================================================
``prepare``      ``prepare_table_inputs``: a chunk's columns → one
                 ``(C, N2, P2)`` group per segment count, plus each column's
                 value range (``prepare_table_input`` per table in a
                 checkout without it)
``da_layers``    ``DataAggregationEncoder.folded_forward``: transformation →
                 HMRL → MoE with the adjacent affine maps composed, the
                 per-segment embeddings (``forward`` in a checkout without it)
``transformer``  ``TransformerEncoder.array_forward`` over those embeddings,
                 graph-free (``forward`` in a checkout without it)
``forward_rest`` the rest of the chunk's encode (``FCMScorer._encode_chunk``
                 minus the three rows above: the groups' column means and
                 the index entries, per-table copies; in a checkout from
                 before the chunk-wide preparation, the rest of
                 ``SegmentDatasetEncoder._forward_many``, or of
                 ``FCMModel.encode_table_batch`` before that: grouping,
                 concatenating, splitting)
``cache_fill``   older checkouts' ``FCMScorer._cache_encodings``: the cache
                 entries (before the chunk-wide preparation also the column
                 means, copies and value ranges); 0 where ``_encode_chunk``
                 makes the entries itself
``interval``     ``IndexBuildStats.interval_seconds``: the interval index
``lsh``          ``IndexBuildStats.lsh_seconds``: hashing every column
===============  ===========================================================

The stage rows are **thread-seconds**: with BLAS pinned to one thread the
build encodes its chunks on every core (``IndexBuildStats.encode_threads``),
so the first four stages run on several threads at once and their sum can
exceed the build's wall-clock, which is printed beside them (``total``, and
``other`` = total − stage sum, for a build on one thread only).

Every figure is the best of ``--rounds`` builds (the median is printed
beside it), and each round also times a fixed NumPy probe — one GEMM and one
elementwise pass of the encoder's sizes — so a slow stretch of the host shows
up as a slow probe instead of passing for a slow build.

Run from the repository root (``--src`` measures another checkout's ``src/``
with this checkout's fixture, e.g. the parent commit; ``--unpinned`` leaves
the BLAS thread count to the environment instead of pinning it to one, as
the ledger does)::

    python tools/build_breakdown.py [--seed 1] [--rounds 7] [--src PATH] [--smoke] [--unpinned]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "ledger"))

from bootstrap import THREAD_ENV, bootstrap  # noqa: E402

#: Thread-seconds: what ran inside each stage, summed over the threads it ran on.
STAGES = (
    "prepare",
    "da_layers",
    "transformer",
    "forward_rest",
    "cache_fill",
    "interval",
    "lsh",
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
    parser.add_argument(
        "--unpinned",
        action="store_true",
        help="keep the environment's BLAS thread count instead of pinning it to one",
    )
    args = parser.parse_args()
    if args.smoke:
        args.tables, args.rounds = min(args.tables, 100), min(args.rounds, 2)
    inherited = {name: os.environ.get(name) for name in THREAD_ENV}
    bootstrap()
    if args.unpinned:  # NumPy is not loaded yet, so BLAS reads these instead
        for name, value in inherited.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    if args.src is not None:
        sys.path.insert(0, str(args.src.resolve()))

    import numpy as np
    import repro
    import repro.fcm.scorer as scorer_module
    from inputs import LSH_CONFIG, load_model, make_tables
    from repro.fcm.da_layers import DataAggregationEncoder
    from repro.fcm.dataset_encoder import SegmentDatasetEncoder
    from repro.fcm.model import FCMModel
    from repro.nn.transformer import TransformerEncoder
    from repro.serving import SearchService, ServingConfig

    clock = dict.fromkeys(("prepare", "da_layers", "transformer", "forward", "cache_fill"), 0.0)
    clock_lock = threading.Lock()  # the encode stages run on helper threads too

    def timed(owner, name: str, key: str) -> None:
        inner = getattr(owner, name)

        def wrapper(*a, **kw):
            start = time.perf_counter()
            try:
                return inner(*a, **kw)
            finally:
                elapsed = time.perf_counter() - start
                with clock_lock:
                    clock[key] += elapsed

        setattr(owner, name, wrapper)

    # The build's own entry points; an older checkout (--src) prepared table
    # by table, encoded through the graphed forwards, or both.
    chunk_wide = hasattr(scorer_module, "prepare_table_inputs")
    if chunk_wide:
        timed(scorer_module, "prepare_table_inputs", "prepare")
        timed(scorer_module.FCMScorer, "_encode_chunk", "forward")
        timed(TransformerEncoder, "array_forward", "transformer")
    else:
        timed(scorer_module, "prepare_table_input", "prepare")
        timed(TransformerEncoder, "forward", "transformer")
        if hasattr(SegmentDatasetEncoder, "_forward_many"):
            timed(SegmentDatasetEncoder, "_forward_many", "forward")
        else:
            timed(FCMModel, "encode_table_batch", "forward")
    if hasattr(DataAggregationEncoder, "folded_forward"):
        timed(DataAggregationEncoder, "folded_forward", "da_layers")
    else:
        timed(DataAggregationEncoder, "forward", "da_layers")
    # Older checkouts cached the entries in a call of their own, the oldest
    # one table at a time, under the singular name.
    for cache_fill in ("_cache_encodings", "_cache_encoding"):
        if hasattr(scorer_module.FCMScorer, cache_fill):
            timed(scorer_module.FCMScorer, cache_fill, "cache_fill")
            break

    tables = make_tables(args.tables, args.seed)
    model = load_model()
    config = ServingConfig(lsh_config=LSH_CONFIG, result_cache_size=0)
    samples = {stage: [] for stage in STAGES + ("stage_sum", "wall", "other", "probe")}
    threads = set()
    for round_number in range(args.rounds + 1):  # the first round warms the allocator
        for key in clock:
            clock[key] = 0.0
        probe = _probe_ms(np)
        service = SearchService(model, config)
        start = time.perf_counter()
        stats = service.build(tables)
        wall = time.perf_counter() - start
        service.close()
        if not round_number:
            continue
        # An older checkout (--src) reports no thread count: it encoded on one.
        threads.add(getattr(stats, "encode_threads", 1))
        row = {
            "prepare": clock["prepare"],
            "da_layers": clock["da_layers"],
            "transformer": clock["transformer"],
            "forward_rest": clock["forward"]
            - clock["da_layers"]
            - clock["transformer"]
            - (clock["prepare"] if chunk_wide else 0.0),
            "cache_fill": clock["cache_fill"],
            "interval": stats.interval_seconds,
            "lsh": stats.lsh_seconds,
        }
        row["stage_sum"] = sum(row.values())
        row["wall"] = wall
        row["other"] = wall - row["stage_sum"]
        for stage, seconds in row.items():
            samples[stage].append(seconds * 1e3)
        samples["probe"].append(probe)

    def line(label: str, values) -> None:
        print(f"  {label:<13}{min(values):8.1f}  ({statistics.median(values):6.1f})")

    serial = threads == {1}
    blas = {name: os.environ.get(name, "unset") for name in THREAD_ENV}
    print(f"repro from {Path(repro.__file__).parent}")
    print(f"BLAS threads {blas}; encode threads {sorted(threads)}")
    print(
        f"{args.tables} tables, seed {args.seed}, {args.rounds} builds after one warm-up; "
        "ms per build, best (median)"
    )
    print("  thread-seconds by stage:")
    for stage in STAGES:
        line(stage, samples[stage])
    line("stage sum", samples["stage_sum"])
    print("  wall-clock:")
    if serial:  # on several threads the stages overlap: no remainder to attribute
        line("other", samples["other"])
    line("total", samples["wall"])
    print(f"  per table    {min(samples['wall']) / args.tables:8.3f} ms")
    print(
        f"  numpy probe  {min(samples['probe']):8.2f}  ({statistics.median(samples['probe']):6.2f})"
        "  -- compare between runs before comparing builds"
    )


if __name__ == "__main__":
    main()
