"""hamq benchmark: one workload, seeded, timed for a fixed number of seconds.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 20 --trace 0

Workloads: paper-mix, cli-cold, desk-suites (see BENCHMARK.json for why each
exists).  The run sets up its inputs several times and reports the median
set-up time, then runs whole passes over the item set until the next pass
would overrun ``--seconds`` (at least one).  Times are quoted at a nominal
host speed: a fixed probe is timed between items, and each pass's (and the
set-up's) times are divided by the probe's median slowness.  An item's
latency is the median over the passes; percentiles and throughput are taken
over those.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every item
untraced and then traced, back to back, and prints the per-layer metrics,
including the tracing overhead.  Spans are written to
``.perfbench/spans-<workload>.tsv``.

Every verdict is checked (see gate.py); work counts and input digests are
checked against earlier runs of the same code and seed, kept under
``.perfbench/state``.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is nonzero when any check
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: the smallest value with at least a share q at or below it."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def code_digest() -> str:
    h = hashlib.sha256()
    for d in (ROOT / "src" / "hamq", HERE):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def failed_frac(passes: list) -> tuple[int, int, int]:
    """(attempted, errors, unsettled) over all passes."""
    attempted = sum(r.cases for p in passes for r in p.results)
    errors = sum(r.cases for p in passes for r in p.results if r.error is not None)
    return attempted, errors, sum(p.unsettled for p in passes)


def item_latencies(passes: list) -> list[float]:
    """Each item's time at the nominal host speed, median over the passes.

    Every pass runs the same items in the same order; a pass's times are
    divided by its measured slowness (see ``workloads.Pass``).
    """
    return [statistics.median(p.results[i].latency_s / p.slowness for p in passes)
            for i in range(len(passes[0].results))]


def end_to_end(passes: list, setup_s: float, rss_who: str) -> dict[str, float]:
    usage = resource.RUSAGE_CHILDREN if rss_who == "children" else resource.RUSAGE_SELF
    lat = item_latencies(passes)
    return {
        "items_per_s": sum(r.cases for r in passes[0].results) / sum(lat),
        "latency_ms.p50": 1000 * percentile(lat, 0.5),
        "latency_ms.p90": 1000 * percentile(lat, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }


class StateFile:
    """Digests and counts from earlier runs of the same code, workload and seed."""

    def __init__(self, workdir: Path, key: str):
        self.path = workdir / "state" / f"{key}.json"
        self.data = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def compare(self, name: str, value: Any) -> str | None:
        old = self.data.setdefault(name, value)
        if old != value:
            if isinstance(old, dict):
                diff = sorted(k for k in set(old) | set(value) if old.get(k) != value.get(k))
                return f"{name} differ from an earlier run with this code and seed: {diff[:8]}"
            return f"{name} differ from an earlier run with this code and seed"
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.data, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every item set, for the smoke test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hamq" / "__init__.py").is_file():
        print(f"error: no hamq sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    os.environ.pop("HAMQ_THREADS", None)

    t0 = time.perf_counter()
    import hamq
    import hamq.cli  # noqa: F401  (loaded so the tracer can wrap its bindings)
    import hamq.verify  # noqa: F401
    import numpy
    import_s = time.perf_counter() - t0
    if Path(hamq.__file__).resolve().parent != (src / "hamq").resolve():
        print(f"error: hamq was imported from {hamq.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.scale, workdir)
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")

    problems: list[str] = []
    setup_times, digests, probes = [], set(), [workloads.probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items, digest = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        digests.add(digest)
        probes.append(workloads.probe())
    if len(digests) != 1:
        problems.append("set-up gave different inputs for the same seed")
    slowness = statistics.median(probes) / workloads.PROBE_NOMINAL_S
    setup_raw = import_s + statistics.median(setup_times)
    setup_s = setup_raw / slowness
    print(f"inputs: {len(items)} items, sha256 {digest}")
    print(f"setup: import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
          f"{[round(t, 3) for t in setup_times]} s = {setup_raw:.4f} s at host "
          f"slowness {slowness:.3f}")

    tracer = Tracer() if args.trace else None
    passes = workloads.run_passes(wl, items, args.seconds, tracer)
    print(f"passes: {len(passes)}, median {statistics.median(p.seconds for p in passes):.3f} s, "
          f"{len(passes[0].results)} timed items per pass, host slowness "
          f"{[round(p.slowness, 3) for p in passes]}")
    by_label: dict[str, list[float]] = {}
    for p in passes:
        for r in p.results:
            by_label.setdefault(r.label, []).append(1000 * r.latency_s)
    print("raw median ms per item kind: " + ", ".join(
        f"{k}={statistics.median(v):.4g}x{len(v) // len(passes)}" for k, v in by_label.items()))

    # correctness: the first pass in full, the others must repeat it exactly
    problems += wl.check(items, passes[0].results)
    first = passes[0].signatures
    for i, p in enumerate(passes[1:], 2):
        if p.signatures != first:
            problems.append(f"pass {i} verdicts differ from pass 1")
    state = StateFile(workdir, f"{args.workload}-{args.scale}-seed{args.seed}-"
                               f"{code_digest()[:16]}")
    problems += [m for m in (state.compare("inputs", digest),
                             state.compare("verdicts", first)) if m]

    attempted, errors, unsettled = failed_frac(passes)
    ff = (errors + unsettled) / attempted
    census: dict[str, int] = {}
    for r, sig in zip(passes[0].results, first):
        if r.report is not None:
            key = sig.split(":")[1]
            census[key] = census.get(key, 0) + 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        counted = [n for n in wanted if units[n] in ("count", "ratio")]
        values = {n: statistics.fmean(p.layers.get(n, 0.0) for p in passes) for n in wanted}
        for n in counted:
            values[n] = passes[0].layers.get(n, 0)
            if any(p.layers.get(n, 0) != values[n] for p in passes[1:]):
                problems.append(f"count {n} differs between traced passes")
        # desk-suites builds the corpus in set-up, where its cost lies
        values["corpus.connected_graphs.s"] += getattr(wl, "corpus_s", 0.0)
        values["bench.failed_frac"] = ff
        counts = {n: values[n] for n in counted}
        census_layer = {k[len("census."):]: v for k, v in passes[0].layers.items()
                        if k.startswith("census.")}
        problem = state.compare("counts", counts)
        if problem:
            problems.append(problem)
        print("census (certify calls, outcome/stage): "
              + ", ".join(f"{k}={v}" for k, v in sorted(census_layer.items())))
        print("counts sha256 " + hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()).hexdigest())
        tracer.write_tsv(workdir / f"spans-{args.workload}.tsv")
    else:
        values = end_to_end(passes, setup_s, wl.rss)
    for name, val in values.items():
        print(f"{name} {val:.6g} {units[name]}")
    print(f"failed_frac {ff:.4g} ratio ({errors} errors, {unsettled} unsettled "
          f"of {attempted} attempted)")
    if census:
        print("verdicts per pass: " + ", ".join(f"{k}={v}" for k, v in sorted(census.items())))
    if not problems:  # a run that failed a check is no reference for later runs
        state.save()
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}")
    print(f"correctness: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": errors,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
