"""Round runner, estimators and output checks of the ledger benchmark.

A workload's measured window is a sequence of *rounds* that each replay the
identical op list in a closed loop (a client issues its next op only when the
previous one returned).  Latency and throughput are computed from each op's
fastest execution over the rounds: on this host the CPU runs slower for
seconds at a time, which shifts every sample it touches, so a statistic over
all samples inherits the slow phases while each op's quietest execution does
not (README, "Run shape and estimators").
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Ranking = List[Tuple[str, float]]


@dataclass
class Answer:
    """What a query op returns: the ranking and the candidate count behind it."""

    ranking: Ranking
    candidates: int


class OpError(Exception):
    """An op the program refused (``status`` carries a non-200 HTTP status)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Op:
    """One timed call into the program; ``chart`` indexes the distinct chart."""

    kind: str
    call: Callable[[], Any]
    chart: Optional[int] = None


#: Op kinds that are the harness's own measurements, not part of the workload.
UNCOUNTED = ("probe",)


@dataclass
class Sample:
    kind: str
    chart: Optional[int]
    seconds: float
    result: Any = None
    error: Optional[BaseException] = None


@dataclass
class Round:
    wall: float
    clients: List[List[Sample]] = field(default_factory=list)
    #: Seconds of each host-speed probe taken between this round's ops.
    probes: List[float] = field(default_factory=list)

    @property
    def samples(self) -> List[Sample]:
        return [sample for client in self.clients for sample in client]

    @property
    def counted(self) -> List[Sample]:
        """The ops that count as attempted (everything but the harness's probes)."""
        return [sample for sample in self.samples if sample.kind not in UNCOUNTED]


class HostSpeedProbe:
    """A fixed piece of NumPy + interpreter work, timed to gauge the host.

    The same code runs 20-40 % slower on this host for seconds to minutes at a
    time.  The probe is independent of the program under test (small batched
    matmuls, a softmax and a Python loop: the program's instruction mix, none
    of its code), takes about 4 ms and runs between the ops of a round, so
    its timings sample the interference the ops saw.  :func:`host_speed`
    turns them into the factor the timing metrics are scaled by.
    """

    #: The probe's time on this benchmark's reference host when it is quiet.
    REFERENCE_SECONDS = 4.1e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 48, 32))
        self._w = rng.standard_normal((32, 32))

    def __call__(self) -> float:
        start = time.perf_counter()
        x = self._a @ self._w
        y = np.einsum("bik,bjk->bij", x, x)
        y = np.exp(y - y.max(axis=-1, keepdims=True))
        y /= y.sum(axis=-1, keepdims=True)
        y @ x
        total = 0
        for i in range(10_000):
            total += i * i
        return time.perf_counter() - start


def _run_client(
    ops: Sequence[Op], out: List[Sample], probe: Optional[Callable[[], float]], probes: List[float]
) -> None:
    for op in ops:
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed op is counted, never dropped
            result, error = None, exc
        out.append(Sample(op.kind, op.chart, time.perf_counter() - start, result, error))
        if probe is not None:
            probes.append(probe())


def run_round(
    clients: Sequence[Sequence[Op]], probe: Optional[Callable[[], float]] = None
) -> Round:
    """Run every client's op list to completion; one thread per extra client.

    ``probe`` (one client only: it would compete with other clients' requests
    for the CPU) runs after every op, outside the op's timing.
    """
    if probe is not None and len(clients) > 1:
        raise ValueError("the host-speed probe needs a single-client round")
    outputs: List[List[Sample]] = [[] for _ in clients]
    probes: List[float] = []
    start = time.perf_counter()
    if len(clients) == 1:
        _run_client(clients[0], outputs[0], probe, probes)
    else:
        threads = [
            threading.Thread(target=_run_client, args=(ops, out, None, probes))
            for ops, out in zip(clients, outputs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return Round(time.perf_counter() - start, outputs, probes)


def measure_rounds(
    run_one: Callable[[], Round], seconds: float, min_rounds: int
) -> List[Round]:
    """Rounds back to back for about ``seconds`` (at least ``min_rounds``).

    A further round starts only while more than half of it still fits, so the
    window overshoots and undershoots ``seconds`` equally often.
    """
    rounds: List[Round] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds
        rounds.append(run_one())


def repeated_setup(
    setup: Callable[[], Any],
    teardown: Callable[[Any], None],
    probe: Callable[[], float],
    min_reps: int = 5,
    max_reps: int = 15,
    min_seconds: float = 3.0,
) -> Tuple[List[float], List[float], Any]:
    """Set up from scratch repeatedly → (durations, probe timings, last handle).

    One set-up of 40 ms to 2 s is too short to time once (a single build
    ranged 1.8-2.6 s here, the median of five 1.93-1.98 s), so set-up repeats
    at least ``min_reps`` times and until ``min_seconds`` have been spent.
    """
    durations: List[float] = []
    probes: List[float] = []
    handle = None
    while True:
        if handle is not None:
            teardown(handle)
            handle = None
            gc.collect()
        probes.extend(probe() for _ in range(8))
        start = time.perf_counter()
        handle = setup()
        durations.append(time.perf_counter() - start)
        enough = len(durations) >= min_reps and sum(durations) >= min_seconds
        if enough or len(durations) >= max_reps:
            probes.extend(probe() for _ in range(8))
            return durations, probes, handle


# --------------------------------------------------------------------- #
# Estimators
# --------------------------------------------------------------------- #
def latencies_ms(samples: Sequence[Sample], kind: str) -> List[float]:
    return [s.seconds * 1e3 for s in samples if s.kind == kind and s.error is None]


def _quietest(rounds: Sequence[Round]) -> List[List[Tuple[str, float]]]:
    """Per client and op position: the op's kind and its fastest execution.

    Every round replays the same ops, so position ``i`` is the same work in
    each of them; interference only ever adds time, and the minimum over the
    rounds is the execution it touched least.  Probes and ops that failed in
    every round are left out.
    """
    quietest: List[List[Tuple[str, float]]] = []
    for client in range(len(rounds[0].clients)):
        ops: List[Tuple[str, float]] = []
        for executions in zip(*(r.clients[client] for r in rounds)):
            good = [s.seconds for s in executions if s.error is None]
            if good and executions[0].kind not in UNCOUNTED:
                ops.append((executions[0].kind, min(good)))
        quietest.append(ops)
    return quietest


def quiet_op_median_ms(rounds: Sequence[Round], kind: str = "query") -> float:
    """Median over the ``kind`` ops of each op's fastest execution, in ms."""
    return 1e3 * statistics.median(
        seconds for ops in _quietest(rounds) for op_kind, seconds in ops if op_kind == kind
    )


def quiet_throughput(rounds: Sequence[Round]) -> float:
    """Ops per second of one round made of every op's fastest execution.

    Each closed-loop client needs the sum of its ops' times; the round ends
    with its slowest client.
    """
    quietest = _quietest(rounds)
    return sum(len(ops) for ops in quietest) / max(
        sum(seconds for _, seconds in ops) for ops in quietest
    )


def host_speed(probes: Sequence[float], quantile: float) -> float:
    """Reference probe time / observed probe time: 1.0 on a quiet reference host.

    ``quantile`` picks the observed time to match the statistic it scales: the
    quiet-op estimators are lower envelopes and go with the probes' lowest
    decile, a median of set-ups goes with the probes' median.
    """
    return HostSpeedProbe.REFERENCE_SECONDS / float(np.quantile(probes, quantile))


def percentile_with_support(values: Sequence[float], beyond: int = 10) -> float:
    """The highest percentile that still has ``beyond`` samples above it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - beyond - 1, 0)]


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #
def ranking_defect(answer: Any, k: int, known_ids: set) -> Optional[str]:
    """Why ``answer`` is not a valid top-``k`` answer (``None`` when it is).

    The index may hand verification fewer than ``k`` candidates; the ranking
    is then that short, which recall (not this check) accounts for.
    """
    if not isinstance(answer, Answer):
        return "query returned no answer"
    ranking = answer.ranking
    if len(ranking) != min(k, answer.candidates):
        return "ranking is not min(k, candidates) long"
    scores = [score for _, score in ranking]
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "ranking is not sorted by score"
    if any(table_id not in known_ids for table_id, _ in ranking):
        return "ranking names an unknown table id"
    return None


def failed_ops(
    rounds: Sequence[Round],
    k: int,
    known_ids: set,
    expected: Optional[Dict[int, Ranking]] = None,
) -> List[str]:
    """One line per failed op of the measured rounds.

    An op fails on an exception (a non-200 arrives as :class:`OpError`), on a
    malformed ranking, on a ranking that differs from ``expected`` for its
    chart, or on a ranking that differs from the same op's in the first round
    (every round replays identical ops against identical state).
    """
    failures: List[str] = []
    for number, current in enumerate(rounds):
        for client, samples in enumerate(current.clients):
            for position, sample in enumerate(samples):
                where = f"round {number} client {client} op {position} ({sample.kind})"
                if sample.error is not None:
                    failures.append(f"{where}: {type(sample.error).__name__}: {sample.error}")
                    continue
                if sample.kind != "query":
                    continue
                defect = ranking_defect(sample.result, k, known_ids)
                if defect is None and expected is not None:
                    if sample.result.ranking != expected[sample.chart]:
                        defect = "ranking differs from in-process SearchService.query"
                first = rounds[0].clients[client][position]
                if defect is None and first.error is None and sample.result != first.result:
                    defect = "ranking differs from the first round's"
                if defect is not None:
                    failures.append(f"{where}: {defect}")
    return failures


def recall_and_hits(
    served: Sequence[Ranking],
    oracle: Sequence[Ranking],
    source_ids: Sequence[str],
    k: int,
) -> Tuple[float, float]:
    """(mean overlap of served and exhaustive top-k, share holding the source)."""
    overlaps = [
        len({t for t, _ in s[:k]} & {t for t, _ in o[:k]}) / k
        for s, o in zip(served, oracle)
    ]
    hits = [
        source in {t for t, _ in s[:k]} for s, source in zip(served, source_ids)
    ]
    return statistics.fmean(overlaps), sum(hits) / len(hits)


def score_mismatches(
    served: Sequence[Ranking], exhaustive: Sequence[Dict[str, float]], tolerance: float
) -> int:
    """Served (id, score) pairs whose score is not the exhaustive exact score."""
    return sum(
        1
        for ranking, scores in zip(served, exhaustive)
        for table_id, score in ranking
        if abs(scores[table_id] - score) > tolerance
    )
