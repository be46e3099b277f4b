"""In-memory span recorder installed around hamq's layer functions.

``Tracer.install()`` replaces every binding of a layer function inside the
loaded ``hamq`` modules (the defining module and each module that imported
the name) with a wrapper that records a span (layer, start, end, parent) and
the layer's work counters.  ``uninstall()`` puts the originals back.  Nothing
under ``src/hamq`` is changed.

Spans are kept in parallel arrays and written out once, at the end of a run.
A call into a layer that is already active (the same layer further up the
stack) is counted but gets no span of its own, so busy time is never counted
twice.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# observer(counters, layer, result, exception): adds the layer's work counts
Observer = Callable[[Counter, str, Any, BaseException | None], None]


def _obs_closure(c: Counter, name: str, res: Any, exc: BaseException | None) -> None:
    if exc is None:
        g, trace = res
        c[name + ".edges_added"] += len(trace.added)
        c[name + ".complete"] += g.m == g.n * (g.n - 1) // 2


def _obs_oracle(c: Counter, name: str, res: Any, exc: BaseException | None) -> None:
    if exc is None:
        c[name + ".nodes_expanded"] += res.nodes_expanded
        c[name + ".timeout"] += res.verdict == "timeout"


def _obs_truthy(c: Counter, name: str, res: Any, exc: BaseException | None) -> None:
    if exc is None:
        c[name + ".fired"] += bool(res)


def _obs_found(c: Counter, name: str, res: Any, exc: BaseException | None) -> None:
    if exc is None:
        c[name + ".found"] += res is not None
    elif type(exc).__name__ == "BudgetExceeded":
        c[name + ".budget_exceeded"] += 1


def _obs_perron(c: Counter, name: str, res: Any, exc: BaseException | None) -> None:
    if exc is None:
        c[name + ".iterations"] += res.iterations
        c[name + ".converged"] += res.converged


def _obs_certify(c: Counter, name: str, res: Any, exc: BaseException | None) -> None:
    if exc is None:
        stage = decided_by(res.outcome, res.fired_condition, res.trace)
        c[f"certifier.outcome.{res.outcome}"] += 1
        c[f"certifier.fired.{stage}"] += 1
        c[f"census.{res.outcome}/{stage}"] += 1


def _obs_suite(c: Counter, name: str, res: Any, exc: BaseException | None) -> None:
    if exc is None:
        c[f"verify.{res.suite}.cases"] += res.cases


# layer name -> observer; the name is "<defining module>.<function>"
LAYERS: dict[str, Observer | None] = {
    "transforms.closure": _obs_closure,
    "graph.parse_graph6": None,
    "graph.parse_edgelist": None,
    "graph.is_connected": None,
    "graph.is_2_connected": None,
    "hamilton.is_hamilton_connected": _obs_oracle,
    "hamilton.ore_check": _obs_truthy,
    "certifier.certify": _obs_certify,
    "families.spanning_subgraph_of": _obs_found,
    "families.membership": _obs_found,
    "spectral.perron_pair": _obs_perron,
    "spectral.rayleigh_quotient_exact": None,
    "corpus.connected_graphs": None,
}

# verify suite function -> the suite name its reports carry
SUITE_FUNCTIONS = {"run_hunt": "hunt", "run_closure": "closure", "run_qlower": "q-lower",
                   "run_qupper": "q-upper", "run_qbound": "qbound",
                   "run_family_nonhc": "family-nonhc"}


def decided_by(outcome: str, fired: dict | None, trace: list[dict]) -> str:
    """The pipeline stage that settled a certificate (census key)."""
    if fired:
        return fired["name"]
    for entry in trace:
        if entry["verdict"] == "exceptional":
            return entry["condition"]
    if outcome == "NotHamiltonConnected" and trace:
        return trace[0]["condition"]
    return "none"


class Tracer:
    """Spans and counters of one process; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._active: Counter = Counter()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn: Callable, *args: Any, observe: Observer | None = None,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        self.counters[name + ".calls"] += 1
        if self._active[name]:
            return fn(*args, **kwargs)
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._active[name] += 1
        exc: BaseException | None = None
        res = None
        self.span_start.append(time.perf_counter())
        try:
            res = fn(*args, **kwargs)
            return res
        except BaseException as e:
            exc = e
            raise
        finally:
            self.span_end[idx] = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            if observe is not None:
                observe(self.counters, name, res, exc)

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, observe=observe, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of each layer function in the loaded hamq modules."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "hamq" or k.startswith("hamq."))]
        targets: list[tuple[str, Any, Observer | None]] = []
        for layer, observe in LAYERS.items():
            mod, func = layer.split(".")
            targets.append((layer, getattr(sys.modules["hamq." + mod], func), observe))
        verify = sys.modules.get("hamq.verify")
        if verify is not None:
            for func, suite in SUITE_FUNCTIONS.items():
                targets.append((f"verify.{suite}", getattr(verify, func), _obs_suite))
        for layer, orig, observe in targets:
            wrapper = self.wrap(layer, orig, observe)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._installed.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- export ---------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to :meth:`busy` and :meth:`since` later."""
        return len(self.span_start), Counter(self.counters)

    def since(self, mark: tuple[int, Counter]) -> Counter:
        """Counters accumulated after ``mark``."""
        out = Counter(self.counters)
        out.subtract(mark[1])
        return +out

    def busy(self, mark: tuple[int, Counter]) -> tuple[dict[str, float], dict[str, float]]:
        """Busy and self seconds per span name for spans opened after ``mark``."""
        first = mark[0]
        busy: dict[str, float] = Counter()
        child: dict[int, float] = Counter()
        for i in range(first, len(self.span_start)):
            dur = self.span_end[i] - self.span_start[i]
            busy[self.names[self.span_name[i]]] += dur
            child[self.span_parent[i]] += dur
        self_s: dict[str, float] = Counter()
        for i in range(first, len(self.span_start)):
            dur = self.span_end[i] - self.span_start[i]
            self_s[self.names[self.span_name[i]]] += dur - child.get(i, 0.0)
        return busy, self_s

    def merge(self, data: dict) -> None:
        """Add a child process's :meth:`to_json` output under the open span."""
        parent = self._stack[-1]
        offset = len(self.span_start)
        for name, start, end, par in data["spans"]:
            self.span_name.append(self._name_id(name))
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent if par < 0 else par + offset)
        self.counters.update(data["counters"])

    def to_json(self) -> dict:
        spans = [[self.names[self.span_name[i]], self.span_start[i],
                  self.span_end[i], self.span_parent[i]]
                 for i in range(len(self.span_start))]
        return {"spans": spans, "counters": dict(self.counters)}

    def write_tsv(self, path: Any) -> None:
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}"
                          f"\t{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")
