"""The four workloads of the ledger benchmark.

Each workload fixes a corpus, a serving configuration and an op list, and is
chosen so that a different layer owns its latency (README, "Workloads").
Everything in :meth:`Workload.prepare` happens outside every timed window;
:meth:`Workload.setup` is the timed from-scratch set-up.
"""

from __future__ import annotations

import json
import resource
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.data.table import Table
from repro.serving import SearchService, ServingConfig, snapshot_segments
from repro.serving.http import table_payload_from_table

from bootstrap import OUT_DIR
from harness import Answer, Op, Ranking, Round
from inputs import (
    K,
    LSH_CONFIG,
    load_model,
    make_tables,
    pick_charts,
    query_body,
    stream_rows,
    zipf_draw,
)
from wire import ServerProcess, post_query


class Workload:
    """Shared shape: a synthetic corpus queried through ``SearchService``."""

    name = ""
    #: Whether the timing metrics are scaled by the measured host speed: yes
    #: where the time is CPU work, no where most of it is a kernel timer.
    cpu_bound = True
    #: Largest |served score - exhaustive score| the output check accepts: a
    #: pruned candidate set pads its matcher batch differently from the full
    #: one, which moves the last bit; the repo pins rankings at <= 1e-8.
    score_tolerance = 1e-8
    FULL: Dict[str, int] = {}
    SMOKE: Dict[str, int] = {}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.scale = dict(self.SMOKE if smoke else self.FULL)
        self._scratch: Optional[Path] = None

    def scratch_dir(self) -> Path:
        """A private directory for this run's snapshots (see :meth:`cleanup`)."""
        if self._scratch is None:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            self._scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
        return self._scratch

    def cleanup(self) -> None:
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)

    # -- untimed preparation ------------------------------------------- #
    def prepare(self) -> None:
        load_model()  # trains the checkpoint on a checkout's first run, untimed
        self.tables = make_tables(self.scale["tables"], self.seed)
        self.sources, self.charts = pick_charts(
            self.tables, self.scale["charts"], self.seed
        )
        self.source_ids = [self.tables[i].table_id for i in self.sources]
        self.known_ids = {table.table_id for table in self.tables}

    # -- timed set-up --------------------------------------------------- #
    def serving_config(self) -> ServingConfig:
        return ServingConfig(lsh_config=LSH_CONFIG, result_cache_size=0)

    def setup(self):
        service = SearchService(load_model(), self.serving_config())
        service.build(self.tables)
        return service

    def teardown(self, handle) -> None:
        handle.close()

    # -- rounds ---------------------------------------------------------- #
    def service(self, handle) -> Optional[SearchService]:
        """The in-process service behind ``handle`` (``None`` over the wire)."""
        return handle

    def reset_round(self, handle) -> None:
        """Bring the program back to the round's start state (untimed)."""
        handle.scorer.clear_query_cache()

    def query_op(self, handle, chart: int) -> Op:
        service, chart_obj = self.service(handle), self.charts[chart]

        def call() -> Answer:
            result = service.query(chart_obj, K)
            return Answer(result.ranking, result.candidates)

        return Op("query", call, chart)

    def ops(self, handle) -> List[List[Op]]:
        """Per client, the op list every round replays."""
        return [[self.query_op(handle, i) for i in range(len(self.charts))]]

    # -- output checks ---------------------------------------------------- #
    def served(self, handle, last_round: Round) -> List[Answer]:
        """Per distinct chart, the answer recall and score parity are judged on.

        Every round asks about every chart, so the last round's answers serve.
        """
        answers = {s.chart: s.result for s in last_round.samples if s.kind == "query"}
        return [answers[i] for i in range(len(self.charts))]

    def oracle(self) -> SearchService:
        """The same corpus built from scratch with nothing approximate on."""
        service = SearchService(load_model(), ServingConfig(lsh_config=LSH_CONFIG))
        service.build(self.tables)
        return service

    def expected_rankings(self, oracle: SearchService) -> Optional[Dict[int, Ranking]]:
        return None

    def peak_rss_mb(self, handle) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cache_counters(self, handle) -> Dict[str, int]:
        stats = self.service(handle).stats.per_strategy["hybrid"]
        return {"hits": stats.cache_hits, "misses": stats.queries}


class ExactCold(Workload):
    name = "exact_cold"
    FULL = {"tables": 1500, "charts": 32}
    SMOKE = {"tables": 100, "charts": 12}


class PrefilterRestart(Workload):
    name = "prefilter_restart"
    FULL = {"tables": 1500, "charts": 32}
    SMOKE = {"tables": 100, "charts": 12}

    def prepare(self) -> None:
        super().prepare()
        self.snapshot = self.scratch_dir() / "restart.npz"
        builder = self.oracle()
        builder.save_index(self.snapshot, layout="v2")
        builder.close()

    def serving_config(self) -> ServingConfig:
        return ServingConfig(
            lsh_config=LSH_CONFIG,
            result_cache_size=0,
            mmap_index=True,
            quantized_prefilter=True,
            prefilter_overscan=8,
        )

    def setup(self):
        return SearchService.load_index(
            load_model(), self.snapshot, self.serving_config()
        )


class HttpZipf(Workload):
    name = "http_zipf"
    cpu_bound = False
    FULL = {"tables": 400, "ranks": 32, "requests": 40}
    SMOKE = {"tables": 50, "ranks": 12, "requests": 12}
    _THROWAWAY = "throwaway"

    def prepare(self) -> None:
        # The workload's distinct charts are the popularity ranks the Zipf
        # draw actually asks for; ranks never drawn are never rendered.
        ranks = zipf_draw(self.scale["ranks"], self.scale["requests"], self.seed)
        drawn = sorted(set(ranks))
        self.scale["charts"] = len(drawn)
        super().prepare()
        self.sequence = [drawn.index(rank) for rank in ranks]
        self.bodies = [query_body(self.tables[i]) for i in self.sources]
        extra = make_tables(1, self.seed, first=self.scale["tables"])[0]
        throwaway = Table(self._THROWAWAY, extra.columns)
        self.add_body = json.dumps(
            {"tables": [table_payload_from_table(throwaway)]}
        ).encode("utf-8")

    def setup(self):
        server = ServerProcess(self.scale["tables"], self.seed)
        server.client = server.connect()  # the one closed-loop keep-alive client
        return server

    def teardown(self, handle) -> None:
        handle.client.close()
        handle.close()

    def service(self, handle) -> Optional[SearchService]:
        return None

    def reset_round(self, handle) -> None:
        # Adding then removing one table invalidates the result cache and
        # leaves the index identical, so every round starts from one state.
        for method, path, body in (
            ("POST", "/tables", self.add_body),
            ("DELETE", f"/tables/{self._THROWAWAY}", None),
        ):
            status, reply = handle.request(method, path, body)
            if status != 200:
                raise RuntimeError(f"{method} {path} answered {status}: {reply}")

    def query_op(self, handle, chart: int) -> Op:
        connection, body = handle.client, self.bodies[chart]
        return Op("query", lambda: post_query(connection, body), chart)

    def ops(self, handle) -> List[List[Op]]:
        return [[self.query_op(handle, chart) for chart in self.sequence]]

    def expected_rankings(self, oracle: SearchService) -> Dict[int, Ranking]:
        return {
            i: oracle.query(chart, K).ranking for i, chart in enumerate(self.charts)
        }

    def peak_rss_mb(self, handle) -> float:
        return handle.peak_rss_mb()

    def cache_counters(self, handle) -> Dict[str, int]:
        return handle.cache_counters()


class StreamMixed(Workload):
    name = "stream_mixed"
    FULL = {
        "tables": 1000,
        "streams": 8,
        "initial_rows": 1024,
        "batch_rows": 64,
        "cycles": 24,
        "subscriptions": 4,
    }
    SMOKE = {
        "tables": 100,
        "streams": 2,
        "initial_rows": 512,
        "batch_rows": 64,
        "cycles": 6,
        "subscriptions": 2,
    }

    def prepare(self) -> None:
        scale = self.scale
        scale["charts"] = 1 + scale["cycles"]  # one repeated chart + one fresh per cycle
        super().prepare()
        subscribed = pick_charts(self.tables, scale["subscriptions"], self.seed + 1)
        self.subscription_charts = subscribed[1]
        self.stream_ids = [f"stream_{s}" for s in range(scale["streams"])]
        self.known_ids |= set(self.stream_ids)
        batches = -(-scale["cycles"] // scale["streams"])
        self.history = [
            stream_rows(s, scale["initial_rows"] + batches * scale["batch_rows"], self.seed)
            for s in range(scale["streams"])
        ]
        self.snapshot = self.scratch_dir() / "stream.npz"

    def serving_config(self) -> ServingConfig:
        return ServingConfig(lsh_config=LSH_CONFIG)

    def _rows(self, stream: int, start: int, stop: int):
        return {name: values[start:stop] for name, values in self.history[stream].items()}

    def _create_streams(self, service: SearchService) -> None:
        for stream, stream_id in enumerate(self.stream_ids):
            service.append_rows(stream_id, self._rows(stream, 0, self.scale["initial_rows"]))

    def setup(self):
        service = super().setup()
        self._create_streams(service)
        for chart in self.subscription_charts:
            service.subscribe(chart, k=1, threshold=0.0)
        return service

    def reset_round(self, handle) -> None:
        # Re-create the streams at their initial length and drop the round's
        # append segments, so every round appends to and snapshots one state.
        handle.remove_tables(self.stream_ids)
        self._create_streams(handle)
        for subscription in handle.subscriptions.active:
            handle.poll(subscription)
        if self.snapshot.exists():
            for segment in snapshot_segments(self.snapshot):
                segment.unlink()
        else:
            handle.save_index(self.snapshot)
        handle.scorer.clear_query_cache()

    def ops(self, handle) -> List[List[Op]]:
        scale = self.scale
        ops: List[Op] = []
        for cycle in range(scale["cycles"]):
            stream, batch = cycle % scale["streams"], cycle // scale["streams"]
            start = scale["initial_rows"] + batch * scale["batch_rows"]
            rows = self._rows(stream, start, start + scale["batch_rows"])
            stream_id = self.stream_ids[stream]
            ops.append(
                Op("append", lambda i=stream_id, r=rows: handle.append_rows(i, r))
            )
            ops.append(self.query_op(handle, 0))
            ops.append(self.query_op(handle, 1 + cycle))
            if cycle + 1 in (scale["cycles"] // 2, scale["cycles"]):
                ops.append(
                    Op("snapshot", lambda: handle.save_index(self.snapshot, append=True))
                )
        return [ops]

    def served(self, handle, last_round: Round) -> List[Answer]:
        """Fresh answers on the end state: the oracle holds the full histories."""
        return [self.query_op(handle, i).call() for i in range(len(self.charts))]

    def oracle(self) -> SearchService:
        """Static tables plus every stream's full row history in one batch each."""
        service = super().oracle()
        scale = self.scale
        for stream, stream_id in enumerate(self.stream_ids):
            batches = len(range(stream, scale["cycles"], scale["streams"]))
            rows = scale["initial_rows"] + batches * scale["batch_rows"]
            service.append_rows(stream_id, self._rows(stream, 0, rows))
        return service


WORKLOADS = {
    cls.name: cls for cls in (ExactCold, PrefilterRestart, HttpZipf, StreamMixed)
}
