#!/usr/bin/env python
"""Where a restart's milliseconds go, measured inside the real path.

Saves the ledger's ``prefilter_restart`` fixture (1 500 synthetic tables
built with the pinned fixture model) once, then restarts from it the way
the ledger's timed set-up does — ``trained_fixture_model`` followed by
``SearchService.load_index`` under ``mmap_index=True`` — and splits each
restart by what ran *inside that call*:

===============  ===========================================================
``model_init``   ``FCMModel(config)``: building the modules the weights go in
``checkpoint``   ``load_state_dict``: reading the checkpoint, copying weights
``archive``      the snapshot's ``__meta__``, metadata members and sidecars
``decode``       ``_decode``: every table's entry built from the flat arrays
``to_encoded``   ``_states_to_encoded`` (older checkouts: a second pass)
``register``     the index generation's registry: entries, stream families
                 and composed parents (older checkouts: the scorer cache
                 and the table registry)
``hash``         the LSH: every column embedding hashed in one product
                 (older checkouts: the saved codes read back instead)
``interval``     the interval rows and the interval index
``other``        the rest of the restart (service, streams, logging)
===============  ===========================================================

Every figure is the best of ``--rounds`` restarts (the median is printed
beside it).  The split comes from instrumented restarts, whose wrappers
cost about a microsecond a call (a stage called once per table carries
that); ``total`` and ``first query`` come from separate, unpatched
restarts.  ``first query`` is the first ``service.query`` after the load,
so work moved out of the restart and into the first query shows there.
``import`` is what a restarted process pays before any of that: the median,
over five fresh interpreters, of the seconds ``import repro.serving`` takes,
and the process's resident-set high-water mark (``VmHWM``) right after it.
Each round also times a fixed NumPy probe, so a slow stretch of the host
shows up as a slow probe instead of passing for a slow restart.

Run from the repository root.  ``--src`` measures another checkout's
``src/`` (e.g. the parent commit), with that checkout's own fixture
checkpoint (``<checkout>/benchmarks/ledger/.cache``, trained on first use)::

    python tools/restart_breakdown.py [--seed 1] [--rounds 15] [--src PATH] [--smoke]
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "ledger"))

from bootstrap import bootstrap  # noqa: E402

STAGES = (
    "model_init",
    "checkpoint",
    "archive",
    "decode",
    "to_encoded",
    "register",
    "hash",
    "interval",
    "other",
)

#: (module or class path, attribute names, stage).  A name a checkout lacks
#: is skipped, so one list covers this checkout and older ones.
HOOKS = (
    ("repro.bench.fixture", ("load_state_dict",), "checkpoint"),
    (
        "repro.serving.persistence",
        ("_open_npz", "_archive_member", "_open_sidecar", "_read_archive", "_read_members"),
        "archive",
    ),
    ("repro.serving.persistence", ("_decode",), "decode"),
    ("repro.serving.persistence", ("_states_to_encoded",), "to_encoded"),
    ("repro.serving.persistence", ("_decode_intervals",), "interval"),
    ("repro.fcm.scorer", ("_registered",), "register"),
    ("repro.fcm.scorer:FCMScorer", ("add_encoded", "add_encoded_tables"), "register"),
    ("repro.index.hybrid:HybridQueryProcessor", ("register_table", "register_tables"), "register"),
    ("repro.index.lsh:RandomHyperplaneLSH", ("add_tables", "add_codes", "add_codes_flat"), "hash"),
    (
        "repro.index.interval_tree:IntervalTree",
        ("__init__", "build", "from_arrays", "add_rows"),
        "interval",
    ),
)


#: Fresh interpreters behind the ``import`` row.
IMPORT_RUNS = 5

_IMPORT_SCRIPT = """\
import time
start = time.perf_counter()
import repro.serving
seconds = time.perf_counter() - start
with open('/proc/self/status') as status:
    hwm = next(line.split()[1] for line in status if line.startswith('VmHWM:'))
print(seconds, int(hwm) / 1024.0)
"""


def _import_cost(source: Path) -> tuple:
    """``(seconds, VmHWM MiB)``: the median over :data:`IMPORT_RUNS` fresh
    interpreters of ``import repro.serving`` from ``source``."""
    env = dict(os.environ, PYTHONPATH=str(source))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _IMPORT_SCRIPT],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        ).stdout.split()
        for _ in range(IMPORT_RUNS)
    ]
    return tuple(statistics.median(float(run[i]) for run in runs) for i in (0, 1))


def _probe_ms(np) -> float:
    """A fixed slice of a restart's kind of work — many small array views
    and one sort: best of five, in ms."""
    rng = np.random.default_rng(0)
    flat, keys = rng.standard_normal(200_000), rng.standard_normal(20_000)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        views = [flat[i : i + 64].reshape(8, 8) for i in range(0, 96_000, 32)]
        np.argsort(keys, kind="stable")
        best = min(best, time.perf_counter() - start)
    del views
    return best * 1e3


class Hooks:
    """Wraps the :data:`HOOKS` targets; each stage counts its outermost
    calls only (a hooked call inside another of the same stage is not
    counted twice)."""

    def __init__(self) -> None:
        self.clock = dict.fromkeys(STAGES, 0.0)
        self._depth = dict.fromkeys(STAGES, 0)
        self._saved = []
        for target, names, stage in HOOKS:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            for name in names:
                if name in vars(owner):
                    self._saved.append((owner, name, vars(owner)[name], stage))

    @property
    def stages(self) -> set:
        """The stages at least one hook of this checkout feeds."""
        return {stage for *_, stage in self._saved}

    def install(self) -> None:
        for owner, name, inner, stage in self._saved:
            setattr(owner, name, self._wrap(inner, stage))

    def remove(self) -> None:
        for owner, name, inner, _ in self._saved:
            setattr(owner, name, inner)

    def _wrap(self, inner, stage):
        call = inner.__func__ if isinstance(inner, (staticmethod, classmethod)) else inner
        clock, depth = self.clock, self._depth

        def wrapper(*args, **kwargs):
            depth[stage] += 1
            start = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                depth[stage] -= 1
                if not depth[stage]:
                    clock[stage] += time.perf_counter() - start

        if isinstance(inner, staticmethod):
            return staticmethod(wrapper)
        if isinstance(inner, classmethod):
            return classmethod(wrapper)
        return wrapper


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--tables", type=int, default=1500)
    parser.add_argument("--src", type=Path, default=None, help="another checkout's src/")
    parser.add_argument(
        "--smoke", action="store_true", help="100 tables, 2 rounds: the same code paths in seconds"
    )
    args = parser.parse_args()
    if args.smoke:
        args.tables, args.rounds = min(args.tables, 100), min(args.rounds, 2)
    bootstrap()
    source = (args.src or REPO_ROOT / "src").resolve()
    sys.path.insert(0, str(source))

    import numpy as np
    import repro
    from inputs import K, LSH_CONFIG, MODEL_CONFIG, make_tables, pick_charts
    from repro.bench.fixture import trained_fixture_model
    from repro.serving import SearchService, ServingConfig

    cache_dir = source.parent / "benchmarks" / "ledger" / ".cache"

    def load_model():
        return trained_fixture_model(MODEL_CONFIG, cache_dir=cache_dir)

    tables = make_tables(args.tables, args.seed)
    _, charts = pick_charts(tables, 1, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix="restart-breakdown-"))
    try:
        snapshot = workdir / "restart.npz"
        builder = SearchService(load_model(), ServingConfig(lsh_config=LSH_CONFIG))
        builder.build(tables)
        builder.save_index(snapshot)
        builder.close()
        config = ServingConfig(
            lsh_config=LSH_CONFIG,
            result_cache_size=0,
            mmap_index=True,
            quantized_prefilter=True,
            prefilter_overscan=8,
        )
        hooks = Hooks()
        unhooked = set(STAGES) - hooks.stages - {"model_init", "to_encoded", "other"}
        if unhooked and args.src is None:
            raise SystemExit(f"restart_breakdown: no hook found for {sorted(unhooked)}")
        samples = {stage: [] for stage in STAGES + ("total", "first_query", "probe")}
        for round_number in range(args.rounds + 1):  # the first round warms up
            probe = _probe_ms(np)
            start = time.perf_counter()
            service = SearchService.load_index(load_model(), snapshot, config)
            total = time.perf_counter() - start
            start = time.perf_counter()
            service.query(charts[0], K)
            first_query = time.perf_counter() - start
            service.close()

            hooks.clock.update(dict.fromkeys(STAGES, 0.0))
            hooks.install()
            try:
                start = time.perf_counter()
                model = load_model()
                model_seconds = time.perf_counter() - start
                start = time.perf_counter()
                SearchService.load_index(model, snapshot, config).close()
                load_seconds = time.perf_counter() - start
            finally:
                hooks.remove()
            if not round_number:
                continue
            row = dict(hooks.clock)
            row["model_init"] = model_seconds - row["checkpoint"]
            row["other"] = load_seconds - sum(
                row[stage] for stage in STAGES if stage not in ("model_init", "checkpoint", "other")
            )
            row["total"], row["first_query"] = total, first_query
            for stage, seconds in row.items():
                samples[stage].append(seconds * 1e3)
            samples["probe"].append(probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"repro from {Path(repro.__file__).parent}")
    print(
        f"{args.tables} tables, seed {args.seed}, {args.rounds} restarts after one warm-up; "
        "ms per restart, best (median)"
    )
    for stage in STAGES + ("total", "first_query"):
        best, median = min(samples[stage]), statistics.median(samples[stage])
        label = stage.replace("_", " ")
        print(f"  {label:<13}{best:8.2f}  ({median:6.2f})")
    print(f"  per 1000      {min(samples['total']) * 1000 / args.tables:8.2f} ms of total")
    import_seconds, import_hwm = _import_cost(source)
    print(
        f"  import       {import_seconds * 1e3:8.2f} ms, VmHWM {import_hwm:.1f} MiB"
        f"  -- import repro.serving, median of {IMPORT_RUNS} fresh interpreters"
    )
    print(
        f"  numpy probe  {min(samples['probe']):8.2f}  ({statistics.median(samples['probe']):6.2f})"
        "  -- compare between runs before comparing restarts"
    )


if __name__ == "__main__":
    main()
