"""One-line mutants of the certifier and the closure, and a runner for them.

Each mutant replaces one fragment on exactly one line of one source file.
The runner exports a git revision into a fresh directory (``git archive``,
so the working tree is never touched), applies one mutant there, and runs
the tier-1 suite on the copy with ``-x``.  A mutant is *killed* when the
suite fails and *survives* when it passes.  A mutant marked equivalent is
expected to compute the same verdicts as the original; if the suite still
kills it, some test pins more than the verdicts (a call count, say).

Usage, from the repository root::

    python tests/mutants.py                  # every mutant, on HEAD
    python tests/mutants.py --list
    python tests/mutants.py --rev HEAD~1 --only closure-one-round

Each run takes about as long as tier-1 (under a minute on two cores), so the
runner stays out of tier-1 and CI; pytest does not collect this file.
``tests/test_mutants.py`` checks in tier-1 that every mutant still applies
to the working tree, so a source edit that orphans one fails at once.
Exit status: 0 when no mutant that is not marked equivalent survives.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str  # must occur on exactly one line of ``path``
    new: str
    equivalent: bool = False


CERTIFIER = "src/hamq/certifier.py"
GRAPH = "src/hamq/graph.py"
TRANSFORMS = "src/hamq/transforms.py"

MUTANTS = (
    # the certifier
    Mutant("edge-count-ge", CERTIFIER, "g.m > need", "g.m >= need"),
    Mutant("closure-early-exit-n-plus-1", TRANSFORMS,
           "if sum(sorted(g._deg)[-2:]) <= n:", "if sum(sorted(g._deg)[-2:]) <= n + 1:"),
    Mutant("ore-shortcut-2delta-ge-n", "src/hamq/hamilton.py",
           "if 2 * d >= n + 1:", "if 2 * d >= n:"),
    Mutant("degree-count-guard-ge-k", CERTIFIER,
           "g._deg.count(k) >= k - 1", "g._deg.count(k) >= k"),
    Mutant("host-T-before-S", CERTIFIER,
           'next(hub_partitions(g, "S", k), None) or next(hub_partitions(g, "T", k), None)',
           'next(hub_partitions(g, "T", k), None) or next(hub_partitions(g, "S", k), None)'),
    Mutant("separator-count-c-plus-1", CERTIFIER,
           "if not 2 <= len(y) <= c:", "if not 2 <= len(y) <= c + 1:"),
    Mutant("spectral-drops-k2", CERTIFIER,
           "range(2, min(delta, n // 2) + 1)", "range(3, min(delta, n // 2) + 1)"),
    # class-1 and class-2 deletion counts are disjoint, so at most one class fits
    Mutant("family-class-order", CERTIFIER,
           '(part.kind + "1", part.kind + "2")', '(part.kind + "2", part.kind + "1")',
           equivalent=True),
    Mutant("edge-count-floor-10k", CERTIFIER,
           "k = min(delta, n // 11)", "k = min(delta, n // 10)"),
    # the screen's connectivity record
    Mutant("connectivity-record-true", GRAPH,
           "g._connected = not unvisited", "g._connected = True"),
    # the closure's round pass
    Mutant("closure-emit-shift-u", TRANSFORMS,
           "hi = cand >> (u + 1)", "hi = cand >> u"),
    Mutant("closure-emit-both-ends", TRANSFORMS,
           "added += zip(repeat(u), compress(range(u + 1, n), _bit_selector(hi)))",
           "added += zip(repeat(u), compress(range(n), _bit_selector(cand)))"),
    Mutant("closure-one-round", TRANSFORMS,
           "if len(added) in (before, missing):", "if True:"),
    # the rounds only from order N + 1: the order-N graphs go to the worklist
    Mutant("closure-order-gate-gt", TRANSFORMS,
           "_rounds if n >= _ROUNDS_FROM_ORDER", "_rounds if n > _ROUNDS_FROM_ORDER"),
    # rounds on every graph compute the same closure, only slower
    Mutant("closure-gate-ge-0", TRANSFORMS,
           "_rounds if n >= _ROUNDS_FROM_ORDER else", "_rounds if n >= 0 else", equivalent=True),
    # the degree masks one entry short: ge[n + 1], read for a vertex of
    # degree 0, is past the end
    Mutant("degree-masks-short", GRAPH, "ge = [0] * (n + 2)", "ge = [0] * (n + 1)"),
)


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def locate(mutant: Mutant, lines: list[str]) -> int:
    """The index of the one line of ``lines`` that holds ``mutant.old``, once;
    ValueError when there is no such line, or more than one."""
    hits = [i for i, line in enumerate(lines) if mutant.old in line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} is on {len(hits)} lines of "
                         f"{mutant.path}, not one")
    if lines[hits[0]].count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs more than once on its line")
    return hits[0]


def apply(mutant: Mutant, tree: Path) -> None:
    """Replace ``mutant.old`` by ``mutant.new`` on its one line in ``tree``."""
    path = tree / mutant.path
    lines = path.read_text().splitlines(keepends=True)
    try:
        i = locate(mutant, lines)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    lines[i] = lines[i].replace(mutant.old, mutant.new)
    path.write_text("".join(lines))


def run(mutant: Mutant, rev: str, workdir: str | None) -> tuple[str, float, str]:
    """Apply ``mutant`` to a fresh export of ``rev``; return its status,
    the suite's wall time, and the suite's last output line with the first
    failing test."""
    with tempfile.TemporaryDirectory(dir=workdir, prefix="mutant-") as tmp:
        tree = Path(tmp)
        export(rev, tree)
        apply(mutant, tree)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        # a mutated tree fails test_mutants.py by construction (the old text
        # is gone), so that check is left out of the run
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
            cwd=tree, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines() or [""]
    first = next((line.split(" - ")[0] for line in lines
                  if line.startswith(("FAILED ", "ERROR "))), None)
    tail = lines[-1] if first is None else f"{lines[-1]}; {first}"
    if done.returncode == 0:
        status = "equivalent" if mutant.equivalent else "SURVIVED"
    else:
        status = "killed"
    return status, wall, tail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD", help="git revision to mutate (default HEAD)")
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    ap.add_argument("--workdir", help="directory for the exported copies (default: system temp)")
    args = ap.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    unknown = set(args.only or ()) - {m.name for m in MUTANTS}
    if unknown:
        ap.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    if args.list:
        for m in chosen:
            mark = " (equivalent)" if m.equivalent else ""
            print(f"{m.name}{mark}: {m.path}: {m.old!r} -> {m.new!r}")
        return 0
    counts = {"killed": 0, "equivalent": 0, "SURVIVED": 0}
    for m in chosen:
        status, wall, tail = run(m, args.rev, args.workdir)
        counts[status] += 1
        mark = " (marked equivalent)" if m.equivalent and status == "killed" else ""
        print(f"{status:10} {m.name}{mark}  [{wall:.0f} s] {tail}", flush=True)
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    return 1 if counts["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
