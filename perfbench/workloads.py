"""The three workloads: seeded set-up, one pass over a fixed item set, and
the correctness gate over a pass's results.

All load comes from one caller in one process (closed loop); cli-cold runs
one child process at a time.  Why each workload exists is recorded in
BENCHMARK.json; perfbench/README.md lists what is left out on purpose.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import hamq
import hamq.corpus
import hamq.verify

import gate
import inputs
from inputs import Item
from tracer import Tracer, decided_by

HERE = Path(__file__).resolve().parent

# node-expansion budget per pair search for `hamq certify --budget`.  With it
# a k = 3 confirmation on the T host at n = 270 gives up after about 1 s of
# search and ends unconfirmed (exit 2); the default 10**8 takes 220-300 s.
# S-host members are left out of cli-cold: their confirmation costs over 1 s
# more at any budget, and long items are what make a run unsteady here.
CLI_BUDGET = 250_000
CHILD_TIMEOUT_S = 120


@dataclass
class Result:
    """One item of one pass."""

    label: str
    latency_s: float
    report: dict[str, Any] | None = None  # outcome, fired_condition, witnesses, trace
    error: str | None = None
    exit_code: int | None = None
    suite_json: str | None = None
    cases: int = 1
    extra: dict[str, float] = field(default_factory=dict)


def _report_of(cert: Any) -> dict[str, Any]:
    return {"outcome": cert.outcome, "fired_condition": cert.fired_condition,
            "witnesses": cert.witnesses, "trace": cert.trace}


def signature(r: Result) -> str:
    """What must repeat exactly when the same item runs again."""
    if r.error is not None:
        return f"{r.label}:error"
    if r.suite_json is not None:
        return f"{r.label}:{r.suite_json}"
    rep = r.report
    stage = decided_by(rep["outcome"], rep["fired_condition"], rep["trace"])
    return f"{r.label}:{rep['outcome']}/{stage}:{r.exit_code}"


def _check_verdicts(items: list[Item], results: list[Result]) -> list[str]:
    """The gate on each verdict, and its exit code against the CLI contract."""
    problems = []
    for it, r in zip(items, results):
        if r.report is None:
            continue
        msg = gate.check(it.graph, it.truth, r.report)
        if msg is None and r.exit_code != gate.expected_exit(r.report):
            msg = f"exit code {r.exit_code} for outcome {r.report['outcome']}"
        if msg:
            problems.append(f"{it.label}: {msg}")
    return problems


def _draw(make: Callable[[], Item]) -> Item:
    """Draw an item, redrawing any that could reach a k >= 3 host
    confirmation, which would cost minutes per item."""
    for _ in range(100):
        item = make()
        if inputs.max_exceptional_k(item.graph) == 0:
            return item
    raise RuntimeError(f"no {item.label} item without a k >= 3 exceptional risk")


# The host-speed probe: fixed pure-Python work shaped like the program's inner
# loops (bit-mask sweeps), and the time it is taken to need at the nominal
# speed that corrected times are quoted at.
_PROBE_ROWS = [((i * 2654435761) & ((1 << 64) - 1)) | 1 for i in range(64)]
PROBE_NOMINAL_S = 0.002


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(12):
        for row in _PROBE_ROWS:
            m = row
            while m:
                b = m & -m
                acc ^= b.bit_length()
                m ^= b
    return time.perf_counter() - t0


@dataclass
class Pass:
    """One pass over the item set; only the first keeps its reports.

    ``slowness`` is the median probe time during the pass over the nominal
    one: the host's speed drifts by tens of percent over minutes, and
    dividing a pass's times by it quotes them at the nominal speed.
    """

    results: list[Result]
    seconds: float
    slowness: float = 1.0
    signatures: list[str] = field(default_factory=list)
    unsettled: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def run_passes(wl: Any, items: list, seconds: float, tracer: Tracer | None = None) -> list[Pass]:
    """Whole passes until the next one would end after ``seconds`` (at least one)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        mark = tracer.mark() if tracer is not None else None
        t0 = time.perf_counter()
        results, probes = run_pass(wl, items, tracer)
        p = Pass(results, time.perf_counter() - t0,
                 slowness=statistics.median(probes) / PROBE_NOMINAL_S,
                 signatures=[signature(r) for r in results],
                 unsettled=sum(r.report is not None and gate.unsettled(r.report)
                               for r in results))
        if tracer is not None:
            p.layers = layer_values(tracer, mark, results)
        if passes:  # only the first pass's reports are kept, for the gate
            for r in results:
                r.report = None
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def run_pass(wl: Any, items: list, tracer: Tracer | None) -> tuple[list[Result], list[float]]:
    """One pass, with the host-speed probe before each item and after the last.

    Traced, each item runs untraced and then traced, back to back, so that the
    difference is the tracing overhead and not a change in the host's speed.
    """
    out, probes = [], [probe()]
    for it in items:
        if tracer is None:
            out.append(wl.run_item(it, None))
        else:
            untraced = wl.run_item(it, None).latency_s
            with tracer.installed():
                res = wl.run_item(it, tracer)
            res.extra["trace.overhead_s"] = res.latency_s - untraced
            out.append(res)
        probes.append(probe())
    return out, probes


def layer_values(tracer: Tracer, mark: Any, results: list[Result]) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed as in BENCHMARK.json."""
    busy, self_s = tracer.busy(mark)
    c = tracer.since(mark)
    out: dict[str, float] = {}
    for name, dur in busy.items():
        out[name + ".s"] = dur
    for key, val in c.items():
        out[key] = val

    def frac(layer: str, what: str) -> float:
        calls = c.get(layer + ".calls", 0)
        return c.get(f"{layer}.{what}", 0) / calls if calls else 0.0

    out["transforms.closure.complete_frac"] = frac("transforms.closure", "complete")
    out["hamilton.is_hamilton_connected.timeout_frac"] = frac(
        "hamilton.is_hamilton_connected", "timeout")
    out["hamilton.ore_check.fired_frac"] = frac("hamilton.ore_check", "fired")
    out["families.spanning_subgraph_of.found_frac"] = frac(
        "families.spanning_subgraph_of", "found")
    out["families.membership.found_frac"] = frac("families.membership", "found")
    out["spectral.perron_pair.converged_frac"] = frac("spectral.perron_pair", "converged")
    out["certifier.certify.self_s"] = self_s.get("certifier.certify", 0.0)
    for r in results:
        for key, val in r.extra.items():
            out[key] = out.get(key, 0.0) + val
    return out


class PaperMix:
    """Library ``certify(g)`` on prebuilt graphs at n = 92 (k = 2) and
    n = 270 (k = 3), default config, caches warm after the first pass."""

    name = "paper-mix"
    rss = "self"

    # (count, factory(rng) -> Item) per scale
    SPECS = {
        "full": [
            # below the median: Ore, cheap exceptional and spectral-fail items
            (4, lambda r: Item("gnp-0.2-n92", inputs.gnp(r, 92, 0.2), None)),
            (4, lambda r: Item("gnp-0.9-n92", inputs.gnp(r, 92, 0.9), None)),
            (4, lambda r: inputs.host_plus_xz(r, "S", 92, 2)),
            (4, lambda r: inputs.host_plus_xz(r, "T", 92, 2)),
            (4, lambda r: inputs.family_member(r, "S1", 92, 2)),
            (4, lambda r: inputs.family_member(r, "T1", 92, 2)),
            (4, lambda r: inputs.near_host(r, "S", 92, 2, 3)),
            (4, lambda r: inputs.near_host(r, "T", 92, 2, 3)),
            # the median lies inside this block of class-2 members
            (16, lambda r: inputs.family_member(r, "S2", 92, 2)),
            (16, lambda r: inputs.family_member(r, "T2", 92, 2)),
            # above the median; p90 lies inside the n = 92 closure block
            (4, lambda r: inputs.near_host(r, "S", 92, 2, 0)),
            (4, lambda r: inputs.near_host(r, "T", 92, 2, 0)),
            (4, lambda r: inputs.near_host(r, "S", 92, 2, 1)),
            (4, lambda r: inputs.near_host(r, "T", 92, 2, 1)),
            (6, lambda r: inputs.cut_vertex(r, 92, 0.6)),
            (10, lambda r: Item("gnp-0.5-n92", inputs.gnp(r, 92, 0.5), None)),
            (2, lambda r: Item("gnp-0.2-n270", inputs.gnp(r, 270, 0.2), None)),
            (2, lambda r: Item("gnp-0.9-n270", inputs.gnp(r, 270, 0.9), None)),
            (1, lambda r: inputs.host_plus_xz(r, "S", 270, 3)),
            (1, lambda r: inputs.host_plus_xz(r, "T", 270, 3)),
            (1, lambda r: inputs.cut_vertex(r, 270, 0.6)),
        ],
        "tiny": [
            (2, lambda r: Item("gnp-0.5-n30", inputs.gnp(r, 30, 0.5), None)),
            (2, lambda r: Item("gnp-0.9-n30", inputs.gnp(r, 30, 0.9), None)),
            (2, lambda r: inputs.family_member(r, "S2", 30, 2)),
            (2, lambda r: inputs.near_host(r, "T", 30, 2, 1)),
            (1, lambda r: inputs.cut_vertex(r, 30, 0.6)),
        ],
    }

    def __init__(self, scale: str, workdir: Path):
        self.spec = self.SPECS[scale]

    def setup(self, seed: int) -> tuple[list[Item], str]:
        rng = random.Random(seed)
        items = inputs.spread([[_draw(lambda: make(rng)) for _ in range(count)]
                               for count, make in self.spec])
        bad = [it.label for it in items if inputs.max_exceptional_k(it.graph)]
        if bad:
            raise RuntimeError(f"k >= 3 exceptional risk in paper-mix: {bad}")
        return items, inputs.digest([inputs.edgelist_text(it.graph).encode() for it in items])

    def run_item(self, it: Item, tracer: Tracer | None) -> Result:
        t0 = time.perf_counter()
        try:
            cert = hamq.certify(it.graph)
        except Exception as exc:  # an item that raises is a failed item
            return Result(it.label, time.perf_counter() - t0, error=repr(exc))
        dt = time.perf_counter() - t0
        return Result(it.label, dt, report=_report_of(cert), exit_code=cert.exit_code())

    def check(self, items: list[Item], results: list[Result]) -> list[str]:
        return _check_verdicts(items, results)


class CliCold:
    """``hamq certify FILE --json --budget B`` as a fresh child per file."""

    name = "cli-cold"
    rss = "children"

    SPECS = {
        "full": {"dense": (1, 652, 0.6), "edgelist": (1, 270, 0.7),
                 "k2": ("T2",), "k2_n": 92, "k3": ("T1", "T1"), "k3_n": 270},
        "tiny": {"dense": (1, 40, 0.6), "edgelist": (1, 30, 0.7),
                 "k2": ("S2",), "k2_n": 20, "k3": ("T1",), "k3_n": 30},
    }

    def __init__(self, scale: str, workdir: Path):
        self.spec = self.SPECS[scale]
        self.dir = workdir / "cli-inputs"
        self.child_trace = workdir / "child-trace.json"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(Path(hamq.__file__).resolve().parent.parent)

    def setup(self, seed: int) -> tuple[list[Item], str]:
        rng = random.Random(seed)
        s = self.spec
        self.dir.mkdir(parents=True, exist_ok=True)
        count, n, p = s["dense"]
        dense = [("g6", Item(f"dense-n{n}", inputs.gnp(rng, n, p), None)) for _ in range(count)]
        count, n, p = s["edgelist"]
        edgelist = [("el", Item(f"edgelist-n{n}", inputs.gnp(rng, n, p), None))
                    for _ in range(count)]
        k2 = [("g6", inputs.family_member(rng, c, s["k2_n"], 2)) for c in s["k2"]]
        k3 = [("g6", inputs.family_member(rng, c, s["k3_n"], 3)) for c in s["k3"]]
        drawn = inputs.spread([dense, edgelist, k2, k3])
        items, chunks = [], []
        for i, (fmt, it) in enumerate(drawn):
            text = hamq.emit_graph6(it.graph) + "\n" if fmt == "g6" else inputs.edgelist_text(it.graph)
            data = text.encode()
            path = self.dir / f"{i:02d}-{it.label}.{fmt}"
            path.write_bytes(data)
            chunks.append(data)
            items.append(dataclasses.replace(it, path=path))
        return items, inputs.digest(chunks)

    def run_item(self, it: Item, tracer: Tracer | None) -> Result:
        args = ["certify", str(it.path), "--json", "--budget", str(CLI_BUDGET)]
        if tracer is None:
            cmd = [sys.executable, "-m", "hamq.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(self.child_trace), *args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Result(it.label, time.perf_counter() - t0, error="child timed out")
        dt = time.perf_counter() - t0
        res = Result(it.label, dt, exit_code=proc.returncode)
        try:
            res.report = json.loads(proc.stdout)
        except ValueError:
            res.error = f"exit {proc.returncode}, no JSON report: {proc.stderr.strip()[-200:]}"
        if tracer is not None and res.error is None:
            data = json.loads(self.child_trace.read_text())
            tracer.merge(data)
            main_s = sum(e - s for name, s, e, _ in data["spans"] if name == "cli.main")
            res.extra["cli.startup_s"] = dt - main_s
        return res

    def check(self, items: list[Item], results: list[Result]) -> list[str]:
        return _check_verdicts(items, results)


@dataclass(frozen=True)
class SuiteCall:
    label: str
    function: str  # name of a hamq.verify suite function
    kwargs: dict[str, Any]


class DeskSuites:
    """``hamq.verify`` suites at reduced, fixed scale, in-process."""

    name = "desk-suites"
    rss = "self"

    # suite -> (calls per pass, arguments of one call); every call gets its own
    # seed.  Calls are kept near 0.3 s, so that each is timed several times
    # per run.
    SPECS = {
        "full": {
            "corpus_n": 6,
            "hunt-gnp-n8": (4, "run_hunt", {"n": 8, "trials": 1000, "model": "gnp(0.5)"}),
            "hunt-dense-n22": (4, "run_hunt", {"n": 22, "trials": 15,
                                               "model": "dense-above-edge-threshold(k=2)"}),
            "closure": (1, "run_closure", {"random_per_n": 200, "order_trials": 100}),
            "q-lower": (1, "run_qlower", {"cases": [(2, 92, "exhaustive", 0),
                                                   (3, 40, "exhaustive", 0),
                                                   (3, 270, "sample", 200)]}),
            "q-upper": (2, "run_qupper", {"cases": [(2, 92, "sample", 300)]}),
            "qbound": (4, "run_qbound", {"count": 375}),
            "family-nonhc": (1, "run_family_nonhc", {"k_values": (2, 3),
                                                     "n_values": range(8, 12)}),
        },
        "tiny": {
            "corpus_n": 5,
            "hunt-gnp-n8": (1, "run_hunt", {"n": 8, "trials": 40, "model": "gnp(0.5)"}),
            "hunt-dense-n22": (1, "run_hunt", {"n": 22, "trials": 2,
                                               "model": "dense-above-edge-threshold(k=2)"}),
            "closure": (1, "run_closure", {"random_per_n": 5, "order_trials": 5}),
            "q-lower": (1, "run_qlower", {"cases": [(2, 20, "exhaustive", 0)]}),
            "q-upper": (1, "run_qupper", {"cases": [(2, 92, "sample", 5)]}),
            "qbound": (1, "run_qbound", {"count": 10}),
            "family-nonhc": (1, "run_family_nonhc", {"k_values": (2, 3),
                                                     "n_values": range(8, 9)}),
        },
    }
    SEEDLESS = ("run_family_nonhc",)

    def __init__(self, scale: str, workdir: Path):
        self.spec = self.SPECS[scale]
        self.corpus_s = 0.0

    def setup(self, seed: int) -> tuple[list[SuiteCall], str]:
        corpus_n = self.spec["corpus_n"]
        hamq.corpus.all_graphs.cache_clear()
        hamq.corpus.connected_graphs.cache_clear()
        t0 = time.perf_counter()
        for n in range(1, corpus_n + 1):
            hamq.corpus.connected_graphs(n)
        self.corpus_s = time.perf_counter() - t0
        rng = random.Random(seed)
        groups = []
        for label, spec in self.spec.items():
            if label == "corpus_n":
                continue
            count, function, kwargs = spec
            kwargs = dict(kwargs)
            if function == "run_closure":
                kwargs["exhaustive_n"] = range(1, corpus_n + 1)
            group = []
            for _ in range(count):
                if function not in self.SEEDLESS:
                    kwargs["seed"] = rng.randrange(2**32)
                group.append(SuiteCall(label, function, dict(kwargs)))
            groups.append(group)
        calls = inputs.spread(groups)
        text = json.dumps([[c.label, c.function, repr(sorted(c.kwargs.items()))] for c in calls])
        return calls, inputs.digest([text.encode()])

    def run_item(self, c: SuiteCall, tracer: Tracer | None) -> Result:
        fn = getattr(hamq.verify, c.function)
        t0 = time.perf_counter()
        try:
            rep = fn(**c.kwargs)
        except Exception as exc:  # a suite that raises is a failed item
            return Result(c.label, time.perf_counter() - t0, error=repr(exc))
        dt = time.perf_counter() - t0
        return Result(c.label, dt, suite_json=rep.to_stable_json(), cases=rep.cases)

    def check(self, calls: list[SuiteCall], results: list[Result]) -> list[str]:
        problems = []
        for r in results:
            if r.suite_json is not None:
                failures = json.loads(r.suite_json)["failures"]
                if failures:
                    problems.append(f"{r.label}: {len(failures)} failure(s), "
                                    f"first {failures[0]}")
        return problems


WORKLOADS = {w.name: w for w in (PaperMix, CliCold, DeskSuites)}
