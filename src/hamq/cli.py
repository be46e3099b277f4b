"""Command-line front end.

Subcommands:

* ``spectrum``: print the certified radius enclosure of one graph.
* ``certify``: run the certification pipeline; ``--budget`` bounds only the
  exact oracle, which runs for ``n <= --oracle-gate``.
* ``family``: emit a family host, or all members of its class 1 or 2 (a
  sample with ``--count``), as graph6 lines, with an optional JSON sidecar
  describing the partitions.
* ``verify``: run one named verification suite and print its stable report;
  ``--count`` is the one case-count flag, and samples a ``--k``/``--n`` grid.
* ``hunt``: certifier-vs-oracle consistency search, sampled, or exhaustive
  with ``--model all-connected``.

Exit codes: ``certify`` gives 0 certified/exact-yes, 1 exact-no/exceptional/
not-connected, 2 inconclusive and 3 timeout.  ``verify`` and ``hunt`` run
in-process, give 0 on a clean report and 1 when it lists failures (a run of
no case lists one), and print the wall time to stderr.  Every subcommand
exits 4, with one ``error:`` line, on malformed input or arguments and on
running out of memory (README's CLI section lists the cases); ``--help``
exits 0.

Input graphs are read as bytes, from a file or from stdin with ``-``, and
decoded once, so both report a bad byte at one offset.  The format is
sniffed from the first non-empty line: ``"n m"`` headers select the
edge-list reader, anything else must be the input's only graph6 line.  A
parse error's byte offset counts the input's bytes as given.

``hamq.verify`` is imported only by ``verify`` and ``hunt``, and
``hamq.rng`` only by those two and ``family --class``, so the other commands
compile neither the suites nor the generators at start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, NoReturn, TextIO

# perfbench's tracer looks up sys.modules["hamq.corpus"] in a traced child,
# where nothing else loads it now that hamq.verify is imported only by the
# suite commands; this import goes once the tracer skips modules not loaded
from . import corpus  # noqa: F401
from .certifier import DEFAULT_ORACLE_GATE, certify
from .errors import BadParameters, HamqError, ParseError
from .families import build_S, build_T, enumerate_class
from .graph import Graph, emit_graph6, parse_edgelist, parse_graph6
from .hamilton import DEFAULT_PAIR_BUDGET
from .spectral import DEFAULT_TOL, perron_pair, upper_bound_edge_count

EXIT_INPUT_ERROR = 4


def _read_graph(source: str) -> Graph:
    try:
        text = (sys.stdin.buffer.read() if source == "-" else Path(source).read_bytes()).decode()
    except OSError as exc:
        raise BadParameters(f"cannot read {source}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError("input is not valid text", exc.start) from None
    body = text.lstrip()
    if not body:
        raise ParseError("empty input", 0)
    # the first line, at the line breaks of the edge-list reader, without
    # splitting the rest of the input
    first = body.partition("\n")[0].splitlines()[0]
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return parse_edgelist(text)
    rest = body[len(first):].lstrip()
    if rest:
        records = sum(1 for line in text.splitlines() if line.strip())
        second = len(text[: len(text) - len(rest)].encode())
        raise ParseError(f"graph6 input holds {records} records, not one", second)
    return parse_graph6(text)


def _open_output(path: str, mode: str) -> TextIO:
    try:
        return open(path, mode)
    except OSError as exc:
        raise BadParameters(f"cannot write {path}: {exc.strerror or exc}") from None


def _same_file(a: str, b: str) -> bool:
    """Do the paths name one file?  Paths not yet created are compared
    after resolving links and ``..``."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _open_outputs(files: ExitStack, *paths: str | None) -> list[TextIO | None]:
    """Open each given path for writing, or none of them.

    Each is first opened for appending, which truncates nothing; if one
    fails, the files this made are removed again.  Only then are they all
    opened for writing, and closed with ``files``.
    """
    made = []
    for path in paths:
        if path is None:
            continue
        existed = os.path.exists(path)
        try:
            _open_output(path, "a").close()
        except BadParameters:
            for p in made:
                os.remove(p)
            raise
        if not existed:
            made.append(path)
    return [None if p is None else files.enter_context(_open_output(p, "w")) for p in paths]


def _cmd_spectrum(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    est = perron_pair(g, tol=args.tol)
    bound = upper_bound_edge_count(g)
    print(f"n = {g.n}  m = {g.m}")
    print(f"q_hat    = {est.q_hat!r}")
    print(f"interval = [{est.lo!r}, {est.hi!r}]  (width {est.width:.3e})")
    print(f"residual = {est.residual:.3e}  iterations = {est.iterations}"
          f"  converged = {est.converged}")
    print(f"edge-count upper bound 2m/(n-1)+n-2 = {bound} = {float(bound)!r}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    cert = certify(g, oracle_gate=args.oracle_gate, pair_budget=args.budget)
    if args.json:
        print(cert.to_json())
    else:
        print(f"outcome: {cert.outcome}")
        if cert.fired_condition:
            print(f"fired:   {cert.fired_condition}")
        for entry in cert.trace:
            k = f" k={entry['k']}" if "k" in entry else ""
            print(f"  {entry['condition']}{k}: {entry['verdict']}")
    return cert.exit_code()


def _cmd_family(args: argparse.Namespace) -> int:
    if args.clazz is None and (args.count, args.seed) != (None, None):
        raise BadParameters("--count and --seed need --class")
    if args.count is None and args.seed is not None:
        raise BadParameters("--seed needs --count")
    if args.clazz is None:
        members = [(build_S if args.kind == "S" else build_T)(args.n, args.k)]
    else:
        members = enumerate_class(args.kind + args.clazz, args.n, args.k,
                                  mode="exhaustive" if args.count is None else "sample",
                                  seed=args.seed or 0, count=args.count)
    if args.out and args.sidecar and _same_file(args.out, args.sidecar):
        raise BadParameters(f"--out and --sidecar name one file: {args.sidecar}")
    with ExitStack() as files:
        out, side = _open_outputs(files, args.out, args.sidecar)
        out = out or sys.stdout
        sidecars = []
        count = 0
        for handle in members:
            print(emit_graph6(handle.graph), file=out)
            count += 1
            if side:
                sidecars.append(handle.sidecar())
        if side:
            side.write(json.dumps(sidecars, sort_keys=True))
    print(f"emitted {count} member(s)", file=sys.stderr)
    return 0


def _parse_int_list(text: str) -> list[int]:
    """``'3'``, ``'2,3'`` or ``'2..12'``; one naming no value is an error."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(p) for p in text.split(",") if p]
    except ValueError:
        values = []
    if not values:
        raise BadParameters(f"not an integer list or range: {text!r}")
    return values


def _case_grid(args: argparse.Namespace) -> list[tuple] | None:
    """The ``(k, n, mode, count)`` cases of a ``--k``/``--n`` grid: sampled
    with ``--count``, exhaustive without it."""
    if args.k is None or args.n is None:
        if (args.k, args.n, args.count) != (None, None, None):
            raise BadParameters("--k, --n and --count need both --k and --n")
        return None
    ks, ns = _parse_int_list(args.k), _parse_int_list(args.n)
    if args.count is not None and args.count < 1:
        raise BadParameters("a sampled grid needs --count >= 1")
    if args.count is None and args.seed is not None:
        # an exhaustive grid draws nothing, so a seed would only be recorded
        raise BadParameters("an exhaustive grid does not read --seed")
    mode = "exhaustive" if args.count is None else "sample"
    return [(k, n, mode, args.count or 0) for k in ks for n in ns]


_VERIFY_FLAGS = ("k", "n", "count", "seed")
_K_VALUES = ("k_values", ("k",), lambda a: None if a.k is None else _parse_int_list(a.k))
_N_VALUES = ("n_values", ("n",), lambda a: None if a.n is None else _parse_int_list(a.n))
_SEED = ("seed", ("seed",), lambda a: a.seed)

# suite -> (keyword, flags read, reader) rules; a reader returning None passes
# nothing, so the suite keeps its own default; a set flag no rule reads is an error
_VERIFY_KWARGS = {
    "appendix": (_K_VALUES,),
    "corollary": (_K_VALUES, _N_VALUES),
    "family-nonhc": (_K_VALUES, _N_VALUES),
    "q-lower": (("cases", ("k", "n", "count"), _case_grid), _SEED),
    "q-upper": (("cases", ("k", "n", "count"), _case_grid), _SEED),
    "ore": (("trials", ("count",), lambda a: a.count), _SEED),
    "kelmans": (("count", ("count",), lambda a: a.count), _SEED),
    "qbound": (("count", ("count",), lambda a: a.count), _SEED),
    "closure": (("random_per_n", ("count",), lambda a: a.count), _SEED),
}


def _print_report(label: str, suite_call: str, /, *args: Any, **kwargs: Any) -> int:
    """Run ``hamq.verify.<suite_call>``, print its stable report, and on stderr
    its case and failure counts and wall time; 0 on a clean report, else 1."""
    from . import verify

    start = time.monotonic()
    report = getattr(verify, suite_call)(*args, **kwargs)
    print(report.to_stable_json())
    print(f"{label}: {report.cases} cases, {len(report.failures)} failure(s), "
          f"{time.monotonic() - start:.1f}s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    stray = [f"--{f}" for f in _VERIFY_FLAGS if getattr(args, f) is not None
             and all(f not in flags for _, flags, _ in _VERIFY_KWARGS[args.suite])]
    if stray:
        raise BadParameters(f"suite {args.suite} does not read {', '.join(stray)}")
    params = {key: value for key, _, read in _VERIFY_KWARGS[args.suite]
              if (value := read(args)) is not None}
    return _print_report(f"suite {args.suite}", "run_suite", args.suite, **params)


def _cmd_hunt(args: argparse.Namespace) -> int:
    return _print_report("hunt", "run_hunt", n=args.n, trials=args.trials, seed=args.seed,
                         model=args.model)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as BadParameters, so that it exits 4, not the
    2 that ``certify`` gives an inconclusive outcome."""

    def error(self, message: str) -> NoReturn:
        raise BadParameters(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hamq",
        description="Hamilton-connectivity certification via signless "
        "Laplacian spectral conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="certified radius enclosure of a graph")
    p.add_argument("input", help="graph file (graph6 or edge list), - for stdin")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("certify", help="run the certification pipeline")
    p.add_argument("input", help="graph file (graph6 or edge list), - for stdin")
    p.add_argument("--oracle-gate", type=int, default=DEFAULT_ORACLE_GATE,
                   help="run the exact oracle only when n <= gate")
    p.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET,
                   help="node-expansion budget per path search of the exact "
                   "oracle (run only when n <= --oracle-gate)")
    p.add_argument("--json", action="store_true", help="print the JSON report")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("family", help="emit family hosts or class members")
    p.add_argument("kind", choices=["S", "T"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--class", dest="clazz", choices=["1", "2"],
                   help="emit the members of the kind's class 1 or 2, not "
                   "the host")
    p.add_argument("--count", type=int, help="sample this many members (default: all)")
    p.add_argument("--seed", type=int, help="seed of the sample, default 0")
    p.add_argument("--out", help="write graph6 lines here instead of stdout")
    p.add_argument("--sidecar", help="write a JSON partition sidecar here")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(_VERIFY_KWARGS))
    p.add_argument("--k", help="k values: '3' or '2,3' or '2..12'")
    p.add_argument("--n", help="n values: same syntax as --k")
    p.add_argument("--count", type=int, help="case count; on a --k/--n grid, members "
                   "sampled per class and case (default: all)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hunt", help="certifier-vs-oracle consistency search")
    p.add_argument("--n", type=int,
                   help="graph order (default 7 for all-connected, 8 otherwise)")
    p.add_argument("--trials", type=int,
                   help="sampled graphs (default 10000); all-connected takes none")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--model", help="gnp(p) (default gnp(0.5)) | gnm(m) "
                   "| dense-above-edge-threshold(k=K) | all-connected (every "
                   "connected graph of order n)")
    p.set_defaults(func=_cmd_hunt)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except HamqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
