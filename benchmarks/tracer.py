"""Outside-in tracing of hetsim: wrappers at the names the program calls.

The tracer replaces public functions with timing wrappers at the module
attribute (or class attribute) through which the program looks them up,
so no file of the program changes. Spans are opened by the benchmark
around each run and each cycle; inside a span, wrapped calls are not kept
one by one (a sampled cycle at N=200 makes ~40k ``sample_link`` calls)
but aggregated per primitive into [calls, total_ns, child_ns, hits].
``hits`` counts results the primitive's predicate accepts, such as
delivered links. Self time is total minus the time of traced calls made
inside it, and a span's self time is its duration minus its traced
children. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Iterator

from hetsim import domain, engine, evaluation, netmodel, report, strategy
from hetsim.sensing import ReceptionLedger

CALLS, TOTAL_NS, CHILD_NS, HITS = range(4)


def _delivered(link: Any) -> bool:
    return link.delivered


def _measured(metrics: Any) -> bool:
    return metrics is not None


def _switches(decision: Any) -> bool:
    return decision.target is not None


#: (owner, attribute, primitive name, hit predicate). perf_at is bound in
#: three modules and decide_game/decide_baseline share one primitive.
PATCH_POINTS: tuple[tuple[Any, str, str, Callable[[Any], bool] | None], ...] = (
    (domain, "load_scenario", "load_scenario", None),
    (domain, "validate_config", "validate_config", None),
    (engine, "init_state", "init_state", None),
    (engine, "sample_link", "sample_link", _delivered),
    (engine, "evaluate_network", "evaluate_network", None),
    (engine, "decide_game", "decide", _switches),
    (engine, "decide_baseline", "decide", _switches),
    (engine, "perf_at", "perf_at", None),
    (netmodel, "perf_at", "perf_at", None),
    (evaluation, "perf_at", "perf_at", None),
    (strategy, "select_best", "select_best", None),
    (ReceptionLedger, "begin_cycle", "begin_cycle", None),
    (ReceptionLedger, "record_reception", "record_reception", None),
    (ReceptionLedger, "measure", "measure", _measured),
    (ReceptionLedger, "distinct_senders", "distinct_senders", None),
    (report, "summarize", "summarize", None),
    (report, "render_csv", "render_csv", None),
)


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        # Per open frame (span or wrapped call): time of traced calls under it.
        self._child_ns: list[int] = [0]
        self._open: list[dict[str, Any]] = []
        # Primitive aggregates of the innermost open span.
        self._prims: dict[str, list[int]] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, hit in PATCH_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hit))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable[..., Any], name: str,
              hit: Callable[[Any], bool] | None) -> Callable[..., Any]:
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_ns.pop()
                child_ns[-1] += elapsed
                agg = self._prims.get(name)
                if agg is None:
                    agg = self._prims[name] = [0, 0, 0, 0]
                agg[CALLS] += 1
                agg[TOTAL_NS] += elapsed
                agg[CHILD_NS] += inner
            if hit is not None and hit(result):
                agg[HITS] += 1
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """One span under the innermost open one; records its self time."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                **attrs, "prims": {}}
        self.spans.append(span)
        outer_prims, self._prims = self._prims, span["prims"]
        self._open.append(span)
        self._child_ns.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            children = self._child_ns.pop()
            self._child_ns[-1] += end - start
            self._prims = outer_prims
            span.update(start_ns=start, end_ns=end, self_ns=end - start - children)

    def totals(self, first: int = 0, stop: int | None = None) -> dict[str, list[int]]:
        """Primitive aggregates summed over spans[first:stop]."""
        out: dict[str, list[int]] = {}
        for span in self.spans[first:stop]:
            for name, agg in span["prims"].items():
                acc = out.setdefault(name, [0, 0, 0, 0])
                for i, value in enumerate(agg):
                    acc[i] += value
        return out
