"""In-memory span recorder owned by the benchmark harness.

The ledger measures every layer from outside, so it cannot use the spans
``repro.obs`` plants inside the program: it records its own around each call
into a public function.  A span has a name, a start, an end, the span that
caused it and a request id shared by every span of one request.  Spans stay
in memory during the run and are written out once, at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    request: Optional[int]
    start: float = 0.0
    end: float = 0.0
    #: Exact counts taken at this boundary (set sizes, cache hits).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Span]:
        """Time the body; a nested span inherits its parent's request id."""
        stack: List[Span] = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        current = Span(
            next(self._ids), name, parent.span_id if parent else None, request
        )
        self.spans.append(current)
        stack.append(current)
        current.start = time.perf_counter()
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            stack.pop()

    def self_times(self) -> Dict[str, List[float]]:
        """Seconds of self time per span name, in recording order.

        Self time is the span's duration minus the part of its interval that
        its child spans cover (overlapping children are counted once).
        """
        children: Dict[int, List[Span]] = {}
        for item in self.spans:
            if item.parent is not None:
                children.setdefault(item.parent, []).append(item)
        result: Dict[str, List[float]] = {}
        for item in self.spans:
            covered, reach = 0.0, item.start
            for child in sorted(children.get(item.span_id, ()), key=lambda c: c.start):
                low, high = max(child.start, reach), min(child.end, item.end)
                if high > low:
                    covered += high - low
                    reach = high
            result.setdefault(item.name, []).append(item.duration - covered)
        return result

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(item) for item in self.spans]))
