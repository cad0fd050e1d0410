#!/usr/bin/env python
"""The learning half, this checkout against another, in one script.

Three measurements, each with its parity check beside the timing:

``train``     the ledger's fixture recipe (``MODEL_CONFIG``, ``FIXTURE_CORPUS``,
              ``FIXTURE_TRAINER``) at the reduced scale the fixture golden
              records (``tests/fixtures/fixture_model_sums.json``'s
              ``reduced``: a round takes seconds, where the full recipe would
              take ≈ 9 minutes), trained cold — ``clear_relevance_cache()``
              first — under semi-hard, random and hard negatives: wall
              seconds, ground-truth DTWs computed (relevance-memo misses) and
              a digest of every epoch loss and parameter array;
``relevance`` the Table II-style ground-truth pass: a cold ``relevance_matrix``
              of the same corpus's training examples against its tables, at
              the recipe's ``relevance_max_points``: wall seconds, memo
              misses and a digest of the matrix;
``chunk``     the graphed scoring body — ``score_encoded_batch(..., fused=False)``,
              one chart against one 256-table chunk of the ledger corpus:
              column filter, zero-padding and one matcher forward — for the
              HCMAN and the averaged matcher: best-of milliseconds and a
              digest of the scores.

Equal digests mean bitwise-equal weights / scores.  With ``--against`` the
other checkout's ``src/`` (e.g. a clone of the parent commit) is measured in
alternating subprocesses and one table comes out; without it this checkout
alone is measured.  Run from the repository root::

    python tools/learning_ab.py [--against OTHER/src] [--rounds 3]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_SUMS = REPO_ROOT / "tests" / "fixtures" / "fixture_model_sums.json"
#: The fixture recipe's reduced scale, as the fixture golden records it.
REDUCED = json.loads(FIXTURE_SUMS.read_text())["reduced"]
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "ledger"))

from bootstrap import bootstrap  # noqa: E402

STRATEGIES = ("semi-hard", "random", "hard")


def _digest(arrays) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def measure(src: Path | None) -> dict:
    """The three measurements for one ``src/`` (this checkout's when ``None``)."""
    bootstrap()
    if src is not None:
        sys.path.insert(0, str(src.resolve()))

    import numpy as np
    from inputs import MODEL_CONFIG, make_tables
    from repro.bench.fixture import (
        FIXTURE_AGGREGATED_FRACTION,
        FIXTURE_CORPUS,
        FIXTURE_TRAINER,
        fixture_records,
    )
    from repro.charts import render_chart_for_table
    from repro.fcm.model import FCMModel
    from repro.fcm.scorer import FCMScorer
    from repro.fcm.training import build_training_data, relevance_matrix, train_fcm
    from repro.relevance import clear_relevance_cache, relevance_cache_info

    result: dict = {"train": {}, "relevance": {}, "chunk": {}}
    records = fixture_records(replace(FIXTURE_CORPUS, **REDUCED["corpus"]))
    trainer = replace(FIXTURE_TRAINER, **REDUCED["trainer"])
    for strategy in STRATEGIES:
        clear_relevance_cache()
        start = time.perf_counter()
        model, history, _ = train_fcm(
            records,
            config=MODEL_CONFIG,
            trainer_config=replace(trainer, strategy=strategy),
            aggregated_fraction=FIXTURE_AGGREGATED_FRACTION,
        )
        result["train"][strategy] = {
            "seconds": time.perf_counter() - start,
            "dtw": relevance_cache_info().misses,
            "digest": _digest(
                [np.asarray(history.losses)] + [p.data for _, p in model.named_parameters()]
            ),
        }

    data = build_training_data(
        records, MODEL_CONFIG, aggregated_fraction=FIXTURE_AGGREGATED_FRACTION, seed=trainer.seed
    )
    clear_relevance_cache()
    start = time.perf_counter()
    matrix, _ = relevance_matrix(
        data.examples, data.tables, max_points=trainer.relevance_max_points
    )
    result["relevance"]["matrix"] = {
        "seconds": time.perf_counter() - start,
        "dtw": relevance_cache_info().misses,
        "digest": _digest([matrix]),
    }

    tables = make_tables(256, seed=1)
    chart = render_chart_for_table(tables[0], tables[0].column_names, spec=MODEL_CONFIG.chart_spec)
    for name, use_hcman in (("hcman", True), ("averaged", False)):
        scorer = FCMScorer(FCMModel(MODEL_CONFIG.with_overrides(use_hcman=use_hcman)))
        scorer.index_repository(tables)
        ids = scorer.indexed_table_ids
        chart_input = scorer.prepare_query(chart)
        chart_repr = scorer.encode_query(chart_input)

        def forward():
            return scorer.score_encoded_batch(
                chart_input, ids, batch_size=256, fused=False, chart_repr=chart_repr
            )

        scores, timings = forward(), []
        for _ in range(30):
            start = time.perf_counter()
            forward()
            timings.append(time.perf_counter() - start)
        result["chunk"][name] = {
            "ms": min(timings) * 1e3,
            "digest": _digest([np.asarray([scores[table_id] for table_id in ids])]),
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=None, help="measure this src/ instead")
    parser.add_argument("--against", type=Path, default=None, help="another checkout's src/")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="one JSON line, no table")
    args = parser.parse_args()

    if args.json:
        print(json.dumps(measure(args.src)))
        return
    sides = {"this": args.src}
    if args.against is not None:
        sides = {"other": args.against, "this": args.src}
    runs = {side: [] for side in sides}
    for round_number in range(args.rounds):
        order = list(sides) if round_number % 2 == 0 else list(sides)[::-1]
        for side in order:
            command = [sys.executable, __file__, "--json"]
            if sides[side] is not None:
                command += ["--src", str(sides[side])]
            output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
            runs[side].append(json.loads(output.strip().splitlines()[-1]))

    def cell(side, section, row, key):
        return statistics.median(run[section][row][key] for run in runs[side])

    def digests(side, section, row):
        return {run[section][row]["digest"] for run in runs[side]}

    reference = next(iter(sides))
    print(f"median of {args.rounds} alternating process runs; 'equal' = digests equal to '{reference}'")
    print(f"{'':<22}" + "".join(f"{side:>24}" for side in sides) + f"{'equal':>8}")
    for section, rows, key, unit in (
        ("train", STRATEGIES, "seconds", "s"),
        ("relevance", ("matrix",), "seconds", "s"),
        ("chunk", ("hcman", "averaged"), "ms", "ms"),
    ):
        for row in rows:
            cells = []
            for side in sides:
                text = f"{cell(side, section, row, key):.2f} {unit}"
                if section != "chunk":
                    text += f" / {int(cell(side, section, row, 'dtw'))} DTW"
                cells.append(f"{text:>24}")
            same = all(
                len(digests(side, section, row)) == 1
                and digests(side, section, row) == digests(reference, section, row)
                for side in sides
            )
            print(f"{section + ' ' + row:<22}" + "".join(cells) + f"{str(same):>8}")


if __name__ == "__main__":
    main()
