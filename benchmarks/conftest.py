"""Session-scoped fixtures shared by every benchmark target.

The expensive artefacts — the benchmark dataset and the trained methods — are
built once per pytest session and reused by every table/figure target.  The
experiment scale can be shrunk via the ``REPRO_BENCH_SCALE=smoke`` environment
variable (useful for CI or quick sanity runs); the default is the reporting
scale recorded in ``EXPERIMENTS.md``.

Each target times its experiment once (``benchmark.pedantic(..., rounds=1)``)
and prints its formatted result table; at the reporting scale it also writes
the table to ``benchmarks/results/<name>.txt`` so the numbers survive
pytest's output capturing.  A smoke run leaves the recorded tables alone.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import (  # noqa: E402
    build_benchmark,
    default_scale,
    smoke_scale,
    train_baseline_methods,
    train_fcm_methods,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _smoke_run() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "smoke"


@pytest.fixture(scope="session")
def scale():
    return smoke_scale() if _smoke_run() else default_scale()


@pytest.fixture(scope="session")
def bench_data(scale):
    """The benchmark of Sec. VII-A (corpus, queries, ground truth)."""
    return build_benchmark(scale.benchmark)


@pytest.fixture(scope="session")
def fcm_methods(bench_data, scale):
    """The three trained FCM variants (full model + both ablations)."""
    return train_fcm_methods(bench_data, scale, variants=("FCM", "FCM-HCMAN", "FCM-DA"))


@pytest.fixture(scope="session")
def baseline_methods(bench_data, scale):
    """The four trained/indexed baselines: CML, DE-LN, Opt-LN, Qetch*."""
    return train_baseline_methods(bench_data, scale)


@pytest.fixture(scope="session")
def all_methods(fcm_methods, baseline_methods):
    return {**baseline_methods, "FCM": fcm_methods["FCM"]}


@pytest.fixture(scope="session")
def record_result():
    """Print a formatted result table and, at the reporting scale, write it
    to benchmarks/results/<name>.txt."""

    def _record(name: str, text: str) -> None:
        if not _smoke_run():
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record
