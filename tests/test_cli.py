"""Command-line interface: output formats, exit codes and round-trips, and
the CLI as a real process where the process is what is checked."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from codequiv import (GeneratorMatrix, batch, bmcanon, emit_codes, field,
                      parse_codes, random_code, simplex_generator)
from codequiv import cli
from codequiv.cli import main
from codequiv.equiv import MonomialTransform

G1_TEXT = "3 3 6\n1 0 0 1 2 0\n0 1 0 1 1 1\n0 0 1 1 1 0\n"
G2_TEXT = "3 3 6\n1 0 0 1 1 0\n0 1 0 1 2 0\n0 0 1 1 0 2\n"


@pytest.fixture
def pair_file(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text(G1_TEXT + "\n" + G2_TEXT)
    return str(p)


def _write(tmp_path, name, codes):
    p = tmp_path / name
    p.write_text(emit_codes(codes))
    return str(p)


# ---------------------------------------------------------------------------


def test_points_exact_output(capsys):
    assert main(["points", "-k", "2", "-q", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "1: (0,1)\n2: (1,0)\n3: (1,1)\n4: (1,2)\n"


def test_points_composite_field(capsys):
    assert main(["points", "-k", "2", "-q", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # theta(1, 4)
    assert lines[0] == "1: (0,1)"


def test_chi_output(pair_file, capsys):
    assert main(["chi", pair_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 2 0 0 1 0 0 0 1 0 0 0 1"
    assert len(lines) == 2
    assert sorted(lines[0].split()) == sorted(lines[1].split())


def test_equiv_worked_pair(pair_file, capsys):
    assert main(["equiv", pair_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("EQUIVALENT method=cesimpg")
    assert "sigma: 1 3 4 2 5 6" in out
    assert "rho: 0" in out
    assert "witness: re-verified OK" in out
    assert "Q:" in out


def test_equiv_two_files(tmp_path, capsys):
    f1 = tmp_path / "a.txt"
    f2 = tmp_path / "b.txt"
    f1.write_text(G1_TEXT)
    f2.write_text(G2_TEXT)
    assert main(["equiv", str(f1), str(f2)]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_equiv_inequivalent_exit_1(tmp_path, capsys):
    spec = field(3)
    path = _write(tmp_path, "two.txt", [random_code(spec, 8, 3, seed=1),
                                        random_code(spec, 8, 3, seed=2)])
    assert main(["equiv", path]) == 1
    assert capsys.readouterr().out.startswith("INEQUIVALENT method=")


def test_equiv_ceimpg_route_witness(pair_file, capsys):
    # the incidence isomorphism, moved onto the points, lifts to a witness
    assert main(["equiv", pair_file, "--algo", "ceimpg"]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT method=ceimpg" in out
    assert "witness: re-verified OK" in out


def test_equiv_single_code_errors(tmp_path, capsys):
    f1 = tmp_path / "one.txt"
    f1.write_text(G1_TEXT)
    assert main(["equiv", str(f1)]) == 2
    assert "second code" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["chi", "/nonexistent/path.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_directory_path_exit_2(tmp_path, capsys):
    # exit 1 would read as "inequivalent" from `equiv`
    assert main(["equiv", str(tmp_path)]) == 2
    assert main(["chi", str(tmp_path)]) == 2
    assert main(["gen", "-q", "2", "-k", "3", "-n", "7",
                 "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "Traceback" not in err


def test_bad_file_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("3 2 3\n1 0 3\n0 1 1\n")
    assert main(["chi", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(G1_TEXT))
    assert main(["chi", "-"]) == 0
    assert capsys.readouterr().out.startswith("1 2 0")


def test_gen_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "gen.txt"
    assert main(["gen", "-q", "3", "-k", "3", "-n", "8",
                 "--count", "4", "--seed", "9", "-o", str(out_path)]) == 0
    codes = parse_codes(out_path.read_text())
    assert len(codes) == 4
    assert all(c.n == 8 and c.k == 3 for c in codes)
    # same invocation to stdout produces identical text
    assert main(["gen", "-q", "3", "-k", "3", "-n", "8",
                 "--count", "4", "--seed", "9"]) == 0
    assert capsys.readouterr().out == out_path.read_text()


def test_gen_projective_distinct_points(capsys):
    assert main(["gen", "-q", "2", "-k", "3", "-n", "7",
                 "--projective", "--seed", "3"]) == 0
    (code,) = parse_codes(capsys.readouterr().out)
    cols = {tuple(col) for col in zip(*code.mat.rows)}
    assert len(cols) == 7


def test_classify_report_and_determinism(tmp_path, capsys):
    spec = field(3)
    rng_codes = [random_code(spec, 8, 3, seed=s) for s in range(12)]
    t = MonomialTransform(spec, tuple(reversed(range(8))), (1, 2) * 4, 0)
    rng_codes.append(GeneratorMatrix(spec, t.apply(rng_codes[0].mat).rows))
    path = _write(tmp_path, "batch.txt", rng_codes)

    assert main(["classify", path, "--seed", "5"]) == 0
    out1 = capsys.readouterr().out
    lines = out1.splitlines()
    assert lines[0].startswith("class 1: size ")
    footer = [l for l in lines if l.startswith("total codes ")]
    assert len(footer) == 1
    assert "total codes 13" in footer[0]
    assert "seed 5" in footer[0]
    assert lines[-1].startswith("digest ")

    # member 13 (the transformed copy) classes with member 1
    first_class = lines[0]
    assert " 1 " in first_class + " " and "13" in first_class.split("members", 1)[1]

    assert main(["classify", path, "--algo", "cesimpg"]) == 0
    out2 = capsys.readouterr().out
    digest1 = [l for l in out1.splitlines() if l.startswith("digest ")][0]
    n1 = [l for l in out1.splitlines() if l.startswith("total")][0].split("classes")[1]
    n2 = [l for l in out2.splitlines() if l.startswith("total")][0].split("classes")[1]
    assert n1.split()[0] == n2.split()[0]  # same class count both routes

    assert main(["classify", path]) == 0
    out3 = capsys.readouterr().out
    digest3 = [l for l in out3.splitlines() if l.startswith("digest ")][0]
    assert digest1 == digest3  # deterministic re-run


def test_classify_budget_zero_exit_2(tmp_path, monkeypatch, capsys):
    spec = field(3)
    path = _write(tmp_path, "b.txt", [random_code(spec, 8, 3, seed=s)
                                      for s in range(3)])
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    assert main(["classify", path]) == 2
    captured = capsys.readouterr()
    assert "errors 3" in captured.out
    assert captured.err.count("error: code") == 3


@pytest.mark.parametrize("argv", [["autgroup", "{code}"],
                                  ["equiv", "{pair}"]],
                         ids=["autgroup", "equiv"])
def test_budget_error_exit_2(tmp_path, pair_file, monkeypatch, capsys, argv):
    # `equiv` reaches a search only on a pair that shares its weight profile
    code = _write(tmp_path, "c.txt", [random_code(field(3), 8, 3, seed=0)])
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    assert main([a.format(code=code, pair=pair_file) for a in argv]) == 2
    assert capsys.readouterr().err == (
        "error: BudgetExceededError: canonical-form search exceeded 0 nodes\n")


def test_comment_only_file_exit_2(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("# no code here\n\n")
    assert main(["classify", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p}: no codes found\n"


def test_bench_route_errors_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    assert main(["bench", "-k", "3", "-n", "8", "--count", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: cesimpg: 4 codes failed, the first with BudgetExceededError: "
        "canonical-form search exceeded 0 nodes\n")


def test_bench_disagreeing_class_counts_exit_2(monkeypatch, capsys):
    def classify(codes, algo, jobs):
        classes = [batch.CodeClass(i, [i], "")
                   for i in range(2 if algo == "ceimpg" else 1)]
        return batch.ClassifyResult(algo, len(codes), classes, [], 0.0, "")

    monkeypatch.setattr(cli, "classify", classify)
    assert main(["bench", "-k", "3", "-n", "8", "--count", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: class counts disagree: cesimpg 1 vs ceimpg 2\n")


def test_autgroup_simplex(tmp_path, capsys):
    simplex = GeneratorMatrix(2, simplex_generator(3, 2).rows)
    path = _write(tmp_path, "s.txt", [simplex])
    assert main(["autgroup", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("code 1: aut order 168,")
    assert "  gen 1: sigma " in out
    assert "| rho 0" in out


def test_autgroup_composite_field_notice(tmp_path, capsys):
    path = _write(tmp_path, "c4.txt", [random_code(field(4), 7, 3, seed=2)])
    assert main(["autgroup", path]) == 0
    out = capsys.readouterr().out
    assert "aut order not computed (composite field)" in out


def test_bench_small(capsys):
    assert main(["bench", "-q", "3", "-k", "3", "-n", "8",
                 "--count", "40", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["q", "k", "n", "generated", "inequivalent",
                                "cesimpg_s", "ceimpg_s"]
    row = lines[1].split()
    assert row[:4] == ["3", "3", "8", "40"]
    assert int(row[4]) <= 40
    float(row[5]), float(row[6])  # timings parse


@pytest.mark.parametrize("argv", [
    ["points", "-k", "2", "-q", "9", "--modulus", "-5"],
    ["gen", "-q", "9", "-k", "2", "-n", "4", "--modulus", "-5"]])
def test_negative_modulus_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "non-negative" in capsys.readouterr().err


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_budget_flag_is_a_usage_error(pair_file):
    with pytest.raises(SystemExit) as exc:
        main(["classify", pair_file, "--budget", "5"])
    assert exc.value.code == 2


def test_classify_auto_is_a_usage_error(pair_file, capsys):
    # classify names its two routes; equiv keeps its default "auto"
    with pytest.raises(SystemExit) as exc:
        main(["classify", pair_file, "--algo", "auto"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["classify", "{pair}", "--jobs", "0"],
                                  ["bench", "--jobs", "-3"]])
def test_jobs_below_one_is_a_usage_error(pair_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(pair=pair_file) for a in argv])
    assert exc.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gen", "-q", "3", "-k", "2", "-n", "4",
                                   "--count", "-2"],
                                  ["bench", "--count", "0"]])
def test_count_below_one_is_a_usage_error(argv, capsys):
    # refused, not answered with no codes (gen) or a table for none (bench)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--count: must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seeded batches, and the CLI as a process


def _gen(tmp_path, q, k, n, count=1, seed=1):
    """The file `gen -q q -k k -n n --count count --seed seed` writes."""
    path = tmp_path / f"gen-{q}-{k}-{n}-{count}-{seed}.txt"
    args = ("-q", q, "-k", k, "-n", n, "--count", count, "--seed", seed)
    assert main(["gen", *map(str, args), "-o", str(path)]) == 0
    return str(path)


def _classify_report(path, algo, jobs, capsys):
    """The digest and the members column of each class that `classify`
    prints for `path`."""
    assert main(["classify", path, "--algo", algo, "--jobs", str(jobs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    (digest,) = [l for l in lines if l.startswith("digest ")]
    members = [l.split(" members ", 1)[1] for l in lines
               if l.startswith("class ")]
    return digest, members


@pytest.mark.parametrize("q, k, n, count, jobs, forks", [
    (3, 3, 8, 20, (1, 2, 3), False),
    # 8 of the 20 codes are keyed on their duals
    (3, 6, 8, 20, (1, 2), False),
    # both bodies of the mask kernel's composite half: odd p, then p = 2
    (9, 3, 10, 20, (1, 2), False),
    (4, 3, 9, 20, (1, 2), False),
    # 0.37-0.49 s of serial keying on 2 vCPUs, some 10x FORK_PAYS_S
    (7, 3, 20, 600, (1, 2, 3), True),
], ids=["8-3-3", "8-6-3", "10-3-9", "9-3-4", "20-3-7x600"])
def test_classify_batch_same_answer_at_every_jobs_and_route(
        tmp_path, monkeypatch, capsys, q, k, n, count, jobs, forks):
    """The digest of a seeded batch is the same at every `--jobs`, and both
    routes place every code in the same classes.  `forks`: `--jobs` above 1
    hands the rest of the batch to forked workers with the real
    FORK_PAYS_S; a batch without it may be keyed here alone (short batches
    never fork: tests/test_equiv.py)."""
    path = _gen(tmp_path, q, k, n, count)
    forked = []
    real = batch._forked_keys

    def spy(codes, mode, procs):
        forked.append(procs)
        return real(codes, mode, procs)

    monkeypatch.setattr(batch, "_forked_keys", spy)
    members = {}
    for algo in ("ceimpg", "cesimpg"):
        reports = []
        for j in jobs:
            forked.clear()
            reports.append(_classify_report(path, algo, j, capsys))
            if forks:
                assert forked == ([j] if j > 1 else [])
        digest, members[algo] = reports[0]
        assert digest != "digest " and members[algo]
        assert all(r == reports[0] for r in reports)
    assert members["ceimpg"] == members["cesimpg"]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(*args):
    """`python -m codequiv.cli *args` as a process on this checkout's
    sources, with this run's -W options; a hung CLI fails at the timeout."""
    return subprocess.run(
        [sys.executable, *(f"-W{w}" for w in sys.warnoptions),
         "-m", "codequiv.cli", *args],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
        text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["chi", "."],
    ["classify", "{codes}", "--jobs", "0"],
    ["gen", "-q", "3", "-k", "3", "-n", "8", "--count", "0"],
    ["points", "-k", "2", "-q", "9", "--modulus", "-5"]],
    ids=["chi-dir", "jobs-0", "count-0", "negative-modulus"])
def test_process_exits_2(tmp_path, argv):
    codes = _gen(tmp_path, 3, 3, 8, 20)
    assert _run_cli(*(a.format(codes=codes) for a in argv)).returncode == 2


def test_process_equiv_exit_statuses(tmp_path):
    seed1, seed2 = (_gen(tmp_path, 3, 3, 8, seed=s) for s in (1, 2))
    twice = tmp_path / "twice.txt"
    twice.write_text(Path(seed1).read_text() * 2)
    same = _run_cli("equiv", str(twice))
    assert same.returncode == 0
    assert "witness: re-verified OK" in same.stdout.splitlines()
    # their weight profiles differ: rejected before any canonical search
    assert _run_cli("equiv", seed1, seed2).returncode == 1


def test_process_autgroup(tmp_path):
    assert _run_cli("autgroup", _gen(tmp_path, 3, 3, 8, 20)).returncode == 0


# a conic [10,3]_11 code and a monomial copy: the point group is Sym(10),
# past the real coset cap, and sigma0 does not lift
CONIC_PAIR = """\
11 3 10
1 1 1 1 1 1 1 1 1 1
0 1 2 3 4 5 6 7 8 9
0 1 4 9 5 3 3 5 9 4

11 3 10
10 3 2 8 5 3 2 9 1 10
9 9 0 4 3 1 2 4 8 4
7 5 0 2 4 4 2 3 9 6
"""
# a 10-arc on no conic: every 10-arc of PG(2,11) has the conic's weight
# profile, so this pair still reaches the canonical searches
ARC = """\
11 3 10
1 1 1 1 0 1 1 1 1 1
4 0 7 3 1 2 0 4 7 6
7 5 2 3 5 2 4 5 10 10
"""


@pytest.mark.parametrize("algo, lines", [
    # the incidence search gives a witness
    ([], ["EQUIVALENT method=cesimpg", "witness: re-verified OK"]),
    # no weight-profile shortcut on this route, and the incidence
    # isomorphism it finds lifts to a witness too
    (["--algo", "ceimpg"], ["EQUIVALENT method=ceimpg",
                            "witness: re-verified OK"])],
    ids=["auto", "ceimpg"])
def test_process_equiv_past_the_coset_cap(tmp_path, algo, lines):
    conic, arc = tmp_path / "conic.txt", tmp_path / "arc.txt"
    conic.write_text(CONIC_PAIR)
    arc.write_text(ARC)
    same = _run_cli("equiv", str(conic), *algo)
    assert same.returncode == 0
    assert set(lines) <= set(same.stdout.splitlines())
    assert _run_cli("equiv", str(conic), str(arc), *algo).returncode == 1
