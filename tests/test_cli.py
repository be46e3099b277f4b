"""Command-line interface: formats, flags, exit codes."""

import json

import pytest

from hamq.certifier import certify
from hamq.cli import main
from hamq.families import build_S
from hamq.graph import Graph, complete, emit_graph6, parse_graph6

from conftest import cycle, emit_edgelist, path_graph


def run_cli(capsys, args, stdin=None, monkeypatch=None):
    """Run ``main`` in-process; ``stdin`` (text, or bytes as given) is served
    through a byte buffer, as a real stdin is."""
    if stdin is not None:
        import io
        import sys

        data = stdin if isinstance(stdin, bytes) else stdin.encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_exit_codes(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["certify", "-"], emit_graph6(complete(22)), monkeypatch)
    assert code == 0 and "Ore" in out
    code, out, _ = run_cli(capsys, ["certify", "-"], emit_graph6(cycle(6)), monkeypatch)
    assert code == 1
    code, out, _ = run_cli(
        capsys, ["certify", "-", "--oracle-gate", "0"], emit_graph6(cycle(12)), monkeypatch
    )
    assert code == 2  # oracle gated off, nothing fires


def test_certify_json_schema(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["certify", "-", "--json"], emit_graph6(build_S(22, 2).graph), monkeypatch
    )
    assert code == 1
    data = json.loads(out)
    assert set(data) == {"outcome", "fired_condition", "parameters", "witnesses", "trace"}
    assert data["outcome"] == "ExceptionalFamily"


@pytest.mark.parametrize("text, outcome, witness", [
    ("HyNJ@se", "ExactYes", "paths"),  # a table of tuple paths
    (emit_graph6(build_S(22, 2).graph), "ExceptionalFamily", "embedding"),  # tuple X/Y/Z
    ("HFtQ~n~", "CertifiedHamiltonConnected", "closure_additions"),
    # two triangles sharing vertex 2
    (emit_graph6(Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])),
     "NotHamiltonConnected", "cut_vertex"),
])
def test_certify_json_prints_the_certificate_serializer(capsys, monkeypatch, text, outcome,
                                                        witness):
    cert = certify(parse_graph6(text))
    assert cert.outcome == outcome and witness in cert.witnesses
    code, out, _ = run_cli(capsys, ["certify", "-", "--json"], text, monkeypatch)
    assert out == cert.to_json() + "\n"
    assert code == cert.exit_code()


def test_certify_edgelist_input(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, ["certify", str(f)])
    assert code == 0


def test_spectrum_output(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["spectrum", "-"], emit_graph6(complete(10)), monkeypatch)
    assert code == 0
    assert "q_hat    = 18.0" in out
    assert "edge-count upper bound" in out


def test_spectrum_rejects_disconnected(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["spectrum", "-"],
                           emit_graph6(path_graph(1)), monkeypatch)
    assert code == 4


def test_family_host_single_line(capsys):
    code, out, err = run_cli(capsys, ["family", "S", "--n", "6", "--k", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    from hamq.graph import parse_graph6

    assert parse_graph6(lines[0]) == build_S(6, 2).graph


def test_family_class_enumeration_count(capsys):
    code, out, _ = run_cli(
        capsys,
        ["family", "T", "--n", "9", "--k", "3", "--class", "1"],
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 22


def test_family_sample_and_sidecar(tmp_path, capsys):
    sidecar = tmp_path / "members.json"
    code, out, _ = run_cli(
        capsys,
        ["family", "S", "--n", "92", "--k", "2", "--class", "2", "--seed", "3", "--count", "5",
         "--sidecar", str(sidecar)],
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    data = json.loads(sidecar.read_text())
    assert len(data) == 5
    assert all(len(entry["deleted"]) == 1 for entry in data)


def test_verify_subcommand(capsys):
    code, out, err = run_cli(capsys, ["verify", "appendix", "--k", "2..12"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "appendix" and report["failures"] == []


def test_verify_with_case_params(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "q-lower", "--k", "3", "--n", "40"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["cases"] == 2 * (1 + 703)


def test_hunt_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["hunt", "--n", "7", "--model", "all-connected"])
    assert code == 0
    report = json.loads(out)
    assert report["cases"] == 853 and report["failures"] == []


def test_exhaustive_hunt_defaults_to_the_largest_corpus_order(capsys):
    # n = 7 is the largest order the exhaustive corpus holds; an explicit
    # --n 8 still asks for a corpus that does not exist
    code, out, _ = run_cli(capsys, ["hunt", "--model", "all-connected"])
    report = json.loads(out)
    assert code == 0 and report["cases"] == 853 and report["params"]["n"] == 7
    code, out, err = run_cli(capsys, ["hunt", "--n", "8", "--model", "all-connected"])
    assert (code, out) == (4, "") and "gated at n <= 7" in err


def test_input_error_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["certify", "-"], "not a graph at all\n", monkeypatch)
    assert code == 4 and "error" in err


def test_certify_pinned_random_regressions(capsys, monkeypatch):
    # sparse random graphs beyond the oracle gate: pinned seed, pinned outcome
    from hamq.rng import SplitMix64, gnp

    g1 = gnp(10, 0.2, SplitMix64(1))  # disconnected at this seed
    code, _, _ = run_cli(capsys, ["certify", "-"], emit_graph6(g1), monkeypatch)
    assert code == 1
    g2 = gnp(10, 0.35, SplitMix64(2))  # 2-connected, nothing fires at this seed
    code, out, _ = run_cli(capsys, ["certify", "-"], emit_graph6(g2), monkeypatch)
    assert code == 2 and "Inconclusive" in out


@pytest.mark.parametrize("argv", [
    ["hunt", "--model", "gnp(x)"],
    ["hunt", "--model", "gnp(1.5)"],
    ["hunt", "--model", "gnm(3.5)"],
    ["hunt", "--model", "gnm(-1)"],
    ["hunt", "--model", "dense-above-edge-threshold(k=two)"],
    ["hunt", "--model", "dense-above-edge-threshold(k=1)", "--trials", "0"],
    ["hunt", "--n", "1", "--model", "dense-above-edge-threshold(k=2)", "--trials", "1"],
    ["hunt", "--n", "0", "--model", "all-connected"],
    ["hunt", "--trials", "abc"],
    ["hunt", "--trials", "-3"],
    ["hunt", "--n", "7", "--trials", "exhaustive", "--model", "gnp(0.5)"],
    ["hunt", "--n", "7", "--model", "all-connected", "--trials", "5"],
    ["verify", "appendix", "--k", "a..b"],
    ["verify", "corollary", "--n", "30,x"],
    # a sampled case grid draws at least one member per class, a count needs
    # the whole grid, and a grid without a count reads no seed: it draws nothing
    ["verify", "q-lower", "--k", "3", "--n", "40", "--count", "0"],
    ["verify", "q-upper", "--k", "3", "--n", "40", "--count", "-1"],
    ["verify", "q-lower", "--k", "3", "--count", "5"],
    ["verify", "q-upper", "--n", "40", "--count", "5"],
    ["verify", "q-lower", "--k", "3", "--n", "40", "--seed", "5"],
    # the spellings the count flag replaced
    ["verify", "q-upper", "--k", "3", "--n", "40", "--mode", "sample", "--count", "5"],
    ["verify", "ore", "--trials", "5"],
    ["hunt", "--model", ""],  # not the default model
])
def test_malformed_suite_input_is_an_input_error(capsys, argv):
    # exit 1 means "the report lists failures"; bad input must not read so
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and err.startswith("error: ") and out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "appendix", "--k", ""],
    ["verify", "q-lower", "--k", "", "--n", ""],
    ["verify", "corollary", "--k", ",", "--n", "30"],
    ["verify", "family-nonhc", "--k", "3", "--n", "9..8"],
    ["verify", "q-upper", "--k", "3..2", "--n", "92", "--count", "1"],
])
def test_a_list_that_names_no_value_is_an_input_error(capsys, argv):
    # an empty --k or --n neither falls back to the suite's default values,
    # nor reads as a missing flag, nor runs no case and exits 1
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: not an integer list or range: ")


@pytest.mark.parametrize("argv", [
    ["verify", "family-nonhc", "--k", "5", "--n", "8"],  # every n < 2k
    ["verify", "corollary", "--k", "2"],  # k = 2 is skipped
    ["hunt", "--trials", "0"],
])
def test_suite_that_ran_no_case_fails(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    report = json.loads(out)
    assert code == 1 and report["cases"] == 0
    assert report["failures"] == [{"graph6": "", "violated": "no case ran"}]


@pytest.mark.parametrize("command", ["certify", "spectrum"])
def test_graph6_input_holds_exactly_one_record(capsys, monkeypatch, command):
    # a record after the first would be silently dropped
    code, out, _ = run_cli(capsys, ["family", "S", "--n", "9", "--k", "3", "--class", "1"])
    assert code == 0 and len(out.splitlines()) == 22
    for text in (out, out.splitlines()[0] + "\nnot-a-graph\n"):
        code, got, err = run_cli(capsys, [command, "-"], text, monkeypatch)
        assert code == 4 and err.startswith("error: ") and got == ""
    code, _, _ = run_cli(capsys, [command, "-"], "\n" + out.splitlines()[0] + "\n\n",
                         monkeypatch)
    assert code != 4


def test_family_invalid_params_exit_code(capsys):
    code, _, err = run_cli(capsys, ["family", "S", "--n", "6", "--k", "5"])
    assert code == 4 and "error" in err


@pytest.mark.parametrize("flags", [
    ["--class", "1", "--seed", "1"],  # a seed needs a sample
    ["--count", "5"],  # a sample needs a class
    ["--seed", "0"],
    ["--count", "5", "--seed", "0"],
    ["--class", "S1"],  # the kind gives the letter
    ["--class", "T2"],
    ["--class", "1", "--mode", "sample", "--count", "5"],  # no --mode: --count samples
])
def test_family_flag_its_mode_does_not_read_is_an_input_error(capsys, flags):
    code, out, err = run_cli(capsys, ["family", "S", "--n", "9", "--k", "3", *flags])
    assert code == 4 and err.startswith("error: ") and out == ""


def test_family_sample_seed_defaults_to_zero(capsys):
    argv = ["family", "S", "--n", "92", "--k", "2", "--class", "2", "--count", "3"]
    assert run_cli(capsys, argv)[:2] == run_cli(capsys, argv + ["--seed", "0"])[:2]


@pytest.mark.parametrize("command", ["certify", "spectrum"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_input_is_an_input_error(tmp_path, capsys, command, kind):
    # exit 1 means "not Hamilton-connected"; an unreadable file must not read so
    path = {"missing": tmp_path / "missing.g6", "directory": tmp_path,
            "not-utf8": tmp_path / "bytes.g6"}[kind]
    if kind == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 4 and err.startswith("error: ") and out == ""


def test_certify_start_up_stays_lean(tmp_path):
    # numpy is imported only by perron_pair, which certify never calls: a
    # graph that Ore settles and one that reaches the spectral annotation are
    # both certified without loading it; the suites run in-process, so no
    # process-pool machinery is loaded either, and certify runs no suite, so
    # hamq.verify is not loaded at all.  The records are named tuples and
    # plain classes, so dataclasses (and inspect, which it imports) never
    # load; fractions loads only in the stages with exact rationals, which
    # the Ore-settled K8 never reaches; certify samples nothing, so the
    # generators in hamq.rng are not loaded either
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hamq
    from hamq.rng import SplitMix64, gnp

    f = tmp_path / "k8.txt"
    f.write_text(emit_edgelist(complete(8)))
    sparse = tmp_path / "gnp92.g6"
    sparse.write_text(emit_graph6(gnp(92, 0.2, SplitMix64(7))))
    script = ("import sys\nfrom hamq.cli import main\nrc = main(sys.argv[1:])\n"
              "print(sorted(m for m in ('numpy', 'concurrent.futures', 'multiprocessing',"
              " 'hamq.verify', 'hamq.rng', 'dataclasses', 'inspect', 'fractions')"
              " if m in sys.modules))\n"
              "sys.exit(rc)")
    env = dict(os.environ)
    src = str(Path(hamq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*args):
        return subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True, timeout=60)

    res = run("certify", str(f))
    assert res.returncode == 0, res.stderr
    assert "Ore" in res.stdout and res.stdout.splitlines()[-1] == "[]"
    res = run("certify", str(sparse))
    assert res.returncode == 2, res.stderr
    assert "Spectral k=2: fail" in res.stdout
    assert res.stdout.splitlines()[-1] == "['fractions']"
    res = run("spectrum", str(f))
    assert res.returncode == 0, res.stderr
    assert "q_hat    = 14.0" in res.stdout


def _reference_verify_kwargs(args):
    """The per-suite flag handling the table in ``hamq.cli`` replaced."""
    from hamq.cli import _parse_int_list

    params = {}
    if args.suite in ("appendix",):
        if args.k:
            params["k_values"] = _parse_int_list(args.k)
    elif args.suite in ("corollary", "family-nonhc"):
        if args.k:
            params["k_values"] = _parse_int_list(args.k)
        if args.n:
            params["n_values"] = _parse_int_list(args.n)
    elif args.suite in ("q-lower", "q-upper"):
        if args.k and args.n:
            mode = "exhaustive" if args.count is None else "sample"
            count = args.count or 0
            params["cases"] = [
                (k, n, mode, count)
                for k in _parse_int_list(args.k)
                for n in _parse_int_list(args.n)
            ]
        if args.seed is not None:
            params["seed"] = args.seed
    elif args.suite in ("ore",):
        if args.count is not None:
            params["trials"] = args.count
        if args.seed is not None:
            params["seed"] = args.seed
    elif args.suite in ("kelmans", "qbound"):
        if args.count is not None:
            params["count"] = args.count
        if args.seed is not None:
            params["seed"] = args.seed
    elif args.suite in ("closure",):
        if args.count is not None:
            params["random_per_n"] = args.count
        if args.seed is not None:
            params["seed"] = args.seed
    return params


# the flags each suite reads; q-lower and q-upper read --k, --n and --count
# only as a case grid, which needs both --k and --n and is sampled iff
# --count is given; --seed is read by their default case list and by a
# sampled grid, not by an exhaustive one
_SUITE_FLAGS = {
    "appendix": {"--k"},
    "corollary": {"--k", "--n"},
    "family-nonhc": {"--k", "--n"},
    "q-lower": {"--k", "--n", "--count", "--seed"},
    "q-upper": {"--k", "--n", "--count", "--seed"},
    "ore": {"--count", "--seed"},
    "kelmans": {"--count", "--seed"},
    "qbound": {"--count", "--seed"},
    "closure": {"--count", "--seed"},
}


def _suite_reads(suite, given):
    if not given <= _SUITE_FLAGS[suite]:
        return False
    grid = given & {"--k", "--n", "--count"}
    return (suite not in ("q-lower", "q-upper") or not grid
            or {"--k", "--n"} <= grid and ("--count" in grid or "--seed" not in given))


def test_verify_passes_every_flag_combination(capsys, monkeypatch):
    from itertools import product
    from types import SimpleNamespace

    import hamq.verify
    from hamq.cli import build_parser
    from hamq.verify import SUITES

    calls = []

    def fake_run_suite(suite, **kwargs):
        calls.append((suite, kwargs))
        return SimpleNamespace(suite=suite, cases=0, failures=[], elapsed=0.0,
                               ok=True, to_stable_json=lambda: "{}")

    # the CLI looks run_suite up on hamq.verify when it runs, so the patch
    # must sit on hamq.verify itself
    monkeypatch.setattr(hamq.verify, "run_suite", fake_run_suite)
    flags = [("--k", "2,3"), ("--n", "40..41"), ("--count", "5"), ("--seed", "0")]
    parser = build_parser()
    rejected = 0
    for suite in sorted(SUITES):
        for chosen in product((False, True), repeat=len(flags)):
            argv = ["verify", suite]
            for on, pair in zip(chosen, flags):
                argv += list(pair) if on else []
            given = {flag for on, (flag, _) in zip(chosen, flags) if on}
            capsys.readouterr()
            if not _suite_reads(suite, given):
                # a flag the suite would drop is an input error, not a default
                assert main(argv) == 4 and not calls, argv
                assert capsys.readouterr().err.startswith("error: "), argv
                rejected += 1
                continue
            assert main(argv) == 0
            got_suite, got = calls.pop()
            want = _reference_verify_kwargs(parser.parse_args(argv))
            assert got_suite == suite and got == want, argv
    # accepted: appendix 2, corollary and family-nonhc 4 each, q-lower and
    # q-upper 5 each, ore, kelmans, qbound and closure 4 each
    assert rejected == 9 * 16 - 36
    capsys.readouterr()


def test_readme_cli_synopsis_names_only_flags_the_parser_accepts():
    # the `hamq ...` lines of README's CLI block cover every subcommand, and
    # each --flag on a line is one its subcommand's parser accepts
    import argparse
    import re
    from pathlib import Path

    from hamq.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].split() for line in block.replace("\\\n", " ").splitlines()]
    lines = [words for words in lines if words[:1] == ["hamq"]]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {words[1] for words in lines} == set(sub.choices)
    for words in lines:
        accepted = sub.choices[words[1]]._option_string_actions
        unknown = [f for f in re.findall(r"--[a-z][a-z-]*", " ".join(words)) if f not in accepted]
        assert not unknown, words


def test_verify_flag_table_names_every_suite():
    # the verify choices come from the table, so that the CLI need not
    # import hamq.verify to build its parser
    from hamq import cli, verify

    assert set(cli._VERIFY_KWARGS) == set(verify.SUITES)


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["certify", "-", "--budget", "abc"],
    ["verify", "nosuch"],
    [],
])
def test_usage_error_is_an_input_error(capsys, argv):
    # exit 2 means "inconclusive"; a command line argparse rejects must not read so
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["family", "S", "--n", "9", "--k", "3", "--class", "1", "--count", "-2"],
    ["verify", "qbound", "--count", "-3"],
    ["verify", "ore", "--count", "-1"],
    ["spectrum", "-", "--tol", "-1"],
    ["spectrum", "-", "--tol", "nan"],
    ["spectrum", "-", "--tol", "inf"],
])
def test_negative_count_or_tolerance_is_an_input_error(capsys, monkeypatch, argv):
    code, out, err = run_cli(capsys, argv, emit_graph6(cycle(60)), monkeypatch)
    assert code == 4 and err.startswith("error: ") and out == ""


def test_oracle_deeper_than_the_recursion_limit_gives_a_verdict(capsys, monkeypatch):
    # the pair search walks a path past Python's recursion limit before the
    # budget runs out; a crash there would exit 1, "not Hamilton-connected"
    from hamq.rng import SplitMix64, gnp

    g = gnp(1100, 0.05, SplitMix64(3))
    code, out, _ = run_cli(capsys, ["certify", "-", "--oracle-gate", "2000", "--budget", "3000"],
                           emit_graph6(g), monkeypatch)
    assert code == 3 and out.startswith("outcome: Timeout")


@pytest.mark.parametrize("flag", ["--out", "--sidecar"])
def test_family_unwritable_output_is_an_input_error(tmp_path, capsys, flag):
    # both files are opened before the first member is printed
    code, out, err = run_cli(capsys, ["family", "S", "--n", "9", "--k", "3",
                                      flag, str(tmp_path / "missing" / "x")])
    assert code == 4 and out == ""
    assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("existing", [False, True])
def test_family_unwritable_sidecar_leaves_out_as_it_was(tmp_path, capsys, existing):
    # a rejected run neither creates --out nor truncates it
    out = tmp_path / "m.g6"
    if existing:
        out.write_text("kept\n")
    code, _, err = run_cli(capsys, ["family", "S", "--n", "9", "--k", "3", "--out", str(out),
                                    "--sidecar", str(tmp_path / "missing" / "x")])
    assert code == 4 and err.startswith("error: cannot write ")
    assert (out.read_text() == "kept\n") if existing else not out.exists()


def test_family_argument_error_writes_no_file(tmp_path, capsys):
    # the class budget is checked before either file is opened
    out, side = tmp_path / "m.g6", tmp_path / "m.json"
    code, _, err = run_cli(capsys, ["family", "S", "--n", "200", "--k", "3", "--class", "2",
                                    "--out", str(out), "--sidecar", str(side)])
    assert code == 4 and err.startswith("error: exhaustive enumeration of S2")
    assert not out.exists() and not side.exists()


@pytest.mark.parametrize("graph", ["C6", "gnp92"])
def test_negative_budget_is_an_input_error(capsys, monkeypatch, graph):
    # C6 reaches the oracle, which would report -1 expansions; gnp(92) never
    # does, and its Inconclusive exit 2 would hide the bad flag
    from hamq.rng import SplitMix64, gnp

    g = cycle(6) if graph == "C6" else gnp(92, 0.2, SplitMix64(7))
    code, out, err = run_cli(capsys, ["certify", "-", "--budget", "-1", "--json"],
                             emit_graph6(g), monkeypatch)
    assert code == 4 and out == ""
    assert err == "error: pair search needs a budget >= 0, got -1\n"


@pytest.mark.parametrize("spelling", ["same", "dotted", "hardlink", "symlink"])
@pytest.mark.parametrize("existing", [False, True])
def test_family_out_and_sidecar_naming_one_file_is_an_input_error(tmp_path, capsys,
                                                                    spelling, existing):
    # both would be opened for writing, and the sidecar JSON would land over
    # the graph6 lines; a rejected run creates and truncates neither
    out = tmp_path / "m.g6"
    if existing or spelling == "hardlink":
        out.write_text("kept\n")
    side = {"same": out, "dotted": tmp_path / "sub" / ".." / "m.g6",
            "hardlink": tmp_path / "link.g6", "symlink": tmp_path / "link.g6"}[spelling]
    if spelling == "dotted":
        (tmp_path / "sub").mkdir()
    elif spelling == "hardlink":
        side.hardlink_to(out)
    elif spelling == "symlink":
        side.symlink_to(out)
    code, got, err = run_cli(capsys, ["family", "S", "--n", "9", "--k", "3", "--class", "1",
                                      "--out", str(out), "--sidecar", str(side)])
    assert code == 4 and got == ""
    assert err == f"error: --out and --sidecar name one file: {side}\n"
    if existing or spelling == "hardlink":
        assert out.read_text() == "kept\n"
    else:
        assert not out.exists()


def test_family_out_and_sidecar_in_distinct_files(tmp_path, capsys):
    out, side = tmp_path / "m.g6", tmp_path / "m.json"
    code, _, _ = run_cli(capsys, ["family", "S", "--n", "9", "--k", "3", "--class", "1",
                                  "--out", str(out), "--sidecar", str(side)])
    assert code == 0
    assert len(out.read_text().splitlines()) == len(json.loads(side.read_text())) == 22


def test_graph6_input_error_offsets_count_the_bytes_as_given(tmp_path, capsys, monkeypatch):
    # leading blank lines and whitespace, a header, a \r before each \n and
    # the utf-8 width of every character before the fault all count
    cases = [
        ("\n\n  Bw\x7f\n", "graph6 body has 2 bytes, expected 1", 5),
        ("é\nBw\n", "graph6 input holds 2 records, not one", 3),
        ("Bw\n\n \xa0Bw\nBw\n", "graph6 input holds 3 records, not one", 7),
        (">>graph6<<Bx\n", "nonzero padding bits", 11),
        ("\r\n\xa0Dé\r\n", "invalid graph6 byte 195", 5),
        ("3 1\r\n0 0\r\n", "loop at vertex 0", 5),
        (" \n\t\n", "empty input", 0),
    ]
    path = tmp_path / "g.txt"
    for text, message, offset in cases:
        path.write_bytes(text.encode())
        want = f"error: {message} (byte offset {offset})\n"
        assert run_cli(capsys, ["certify", str(path)]) == (4, "", want), repr(text)
        assert run_cli(capsys, ["certify", "-"], text, monkeypatch) == (4, "", want)


def _hamq_child(*args, stdin=b"", preexec_fn=None):
    """Run ``python -m hamq.cli`` on this checkout's sources, stdin given as bytes."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hamq

    env = dict(os.environ)
    src = str(Path(hamq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # the locale codec of stdin would keep a bad byte as a surrogate
    env["PYTHONIOENCODING"] = "utf-8:surrogateescape"
    return subprocess.run([sys.executable, "-m", "hamq.cli", *args], input=stdin, env=env,
                          capture_output=True, timeout=60, preexec_fn=preexec_fn)


@pytest.mark.parametrize("data, offset", [(b"\xff\n", 0), (b"3 1\n0 \xff\n", 6)])
def test_stdin_is_decoded_like_a_file(tmp_path, capsys, monkeypatch, data, offset):
    # stdin is read as bytes and decoded once, as a file is: a bad byte is an
    # input error at its offset, not a traceback that exits 1
    want = f"error: input is not valid text (byte offset {offset})\n"
    res = _hamq_child("certify", "-", stdin=data)
    assert (res.returncode, res.stdout, res.stderr.decode()) == (4, b"", want)
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    assert run_cli(capsys, ["certify", str(path)]) == (4, "", want)
    assert run_cli(capsys, ["certify", "-"], data, monkeypatch) == (4, "", want)


def test_out_of_memory_is_an_input_error(capsys, monkeypatch):
    import hamq.cli

    def parse_edgelist(text):
        raise MemoryError

    monkeypatch.setattr(hamq.cli, "parse_edgelist", parse_edgelist)
    assert run_cli(capsys, ["certify", "-"], "3 0\n", monkeypatch) == (
        4, "", "error: out of memory\n")


def test_out_of_memory_in_a_small_address_space_is_an_input_error():
    # a header of 10**12 vertices makes the edge-list reader ask for a row
    # table it cannot have; the child's address space is capped at 1 GiB, so
    # the request fails at once and nothing large is allocated
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    res = _hamq_child("certify", "-", stdin=b"1000000000000 0\n", preexec_fn=cap)
    assert (res.returncode, res.stdout, res.stderr) == (4, b"", b"error: out of memory\n")


# stdout sha256 and exit code of each run, as the CLI gave them before the
# hunt's trial/model pairing moved into hamq.verify.run_hunt; the family and
# sampled q-lower runs gave these bytes under their older spellings
# (--class S2 --mode sample, --class T1, --mode sample --count 5); the
# q-upper and kelmans runs give the bytes of one Perron loop per graph, which
# the stacked loop reproduces (the k = 3 run fails at n = 20 and prints hi to
# 12 decimals)
_PINNED_RUNS = [
    (["hunt"], 0, "66bdf014fe87e6ac0f73a71923aa8e78cd1cb4abd3a400b0f0c3ff487a64bcc1"),
    (["hunt", "--n", "6", "--model", "all-connected"], 0,
     "dd1abad94903b5fc6ddc8f74e612076a4546b27bbe0a6014404c1d7934c05a74"),
    (["hunt", "--model", "gnm(9)"], 0,
     "f42d70dc46e1da816839a2aec42ffe566872afd4ceb8a415ab4594d8cd04d038"),
    (["hunt", "--n", "22", "--trials", "5", "--model", "dense-above-edge-threshold(k=2)"], 0,
     "f4031b7e368988dd74636d382addea6955e744f8f2a4646d6e435bf7e5e430c4"),
    (["hunt", "--trials", "exhaustive", "--model", "gnp(0.5)"], 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["hunt", "--model", "all-connected", "--trials", "5"], 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["hunt", "--trials", "abc"], 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["hunt", "--trials", "2.5"], 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["hunt", "--trials", "0"], 1,
     "4d906c0ef9b7b60b6005e4ecc7345403d8643476e9102d09ffb877f76bbb664f"),
    (["verify", "appendix"], 0,
     "bbc1ad8c68f171fd890b367c023accd9ff430c51b804a4f707e45c0d5a32fa33"),
    (["verify", "q-lower", "--k", "3", "--n", "40", "--count", "5"], 0,
     "f6341d0270987a6bcc10a797a1b980b6f7d878716a0b571a1cd88e0c8ac7bfcd"),
    (["verify", "q-upper", "--k", "3", "--n", "20", "--count", "6"], 1,
     "3924608135c294304d3f26223462f0b7bc9e19461afb5ddb1a7a35e65a3c5dad"),
    (["verify", "q-upper", "--k", "2", "--n", "92", "--count", "20"], 0,
     "3a3cbacd2eea91e864e444c683ccf46a3346dabf202c7179cf91bae73a359205"),
    (["verify", "kelmans", "--count", "40"], 0,
     "57f49f64fb88d054c7a45b2784e45972bcfc1b2c6c48c0b6753b531b97ab6d3d"),
    (["verify", "qbound", "--count", "200"], 0,
     "dadba9c5f4b7d9b6f0948c0042c1f1e976c245a1cb9def12c52a0ff03f5cb3e1"),
    (["verify", "corollary", "--k", "2"], 1,
     "d483d249298eff53bf641fceeff56f178745d1da9b0db620a00de58b0476c98f"),
    (["family", "S", "--n", "92", "--k", "2", "--class", "2", "--count", "3"], 0,
     "def9bbef726f62475b41c70d6d518545a9565f4a0c2439c15d22c901308f6964"),
    (["family", "T", "--n", "9", "--k", "3", "--class", "1"], 0,
     "5f23f6b819ba3a4a2c1a08ed07d1ce1749da9935320531d3af361bf53c0d88ae"),
]


# sha256 of the concatenated stdout of `hamq --help` and of every
# subcommand's --help, at COLUMNS=80 under Python 3.11: the flags, their
# choices and the help texts, as the parser prints them
HELP_DIGEST = "fc050f6d19cf4cda30221d0b3f30fb8ade13507281634934698e358813bd54ea"


def test_help_bytes_are_pinned(monkeypatch):
    import hashlib

    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for sub in ([], ["spectrum"], ["certify"], ["family"], ["verify"], ["hunt"]):
        res = _hamq_child(*sub, "--help")
        assert (res.returncode, res.stderr) == (0, b"")
        digest.update(res.stdout)
    assert digest.hexdigest() == HELP_DIGEST


def test_option_defaults_are_pinned():
    # --help does not print defaults, so they are pinned here
    from hamq.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["spectrum", "-"]).tol == 1e-10
    args = parser.parse_args(["certify", "-"])
    assert (args.oracle_gate, args.budget) == (9, 10**8)


@pytest.mark.parametrize("argv, code, digest", _PINNED_RUNS,
                         ids=[" ".join(argv) for argv, _, _ in _PINNED_RUNS])
def test_suite_and_hunt_runs_are_pinned(capsys, argv, code, digest):
    import hashlib

    got, out, _ = run_cli(capsys, argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
