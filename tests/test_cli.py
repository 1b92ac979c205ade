import argparse
import dataclasses
import json
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import chipfire as cf
from chipfire import cli, experiments
from chipfire.cli import _finish_driver, main
from chipfire.experiments import CaseRecord, ExperimentConfig, ExperimentReport


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"adj": [row for row in map(list, cf.cycle_graph(4).adj)]}))
    return str(path)


def test_rank_command(c4_file, capsys):
    assert main(["rank", "--graph", c4_file, "--divisor", "2,0,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"rank": 1, "witness_failure": [0, 0, 0, 2]}


def test_rank_command_bare_matrix(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text("[[0,1],[1,0]]")
    assert main(["rank", "--graph", str(path), "--divisor", "1,0"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 1


def test_toric_rank_command(c4_file, capsys):
    assert main(["toric-rank", "--graph", c4_file, "--divisor", "1,0,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["toric_rank"] == 0
    assert sum(out["witness_failure"]) == 1


def test_rr_check_command(c4_file, capsys):
    assert main(["rr-check", "--graph", c4_file, "--divisor", "1,-1,2,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True
    assert out["residual"] == 0
    assert out["rank"] - out["rank_dual"] == 2 + 1 - 1


def test_toric_rr_check_command(c4_file, capsys):
    assert main(["toric-rr-check", "--graph", c4_file, "--divisor", "0,1,0,1", "--trials", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True
    assert out["trial_disagreements"] == 0


# over F_7 with two trials, the toric identity fails for (2, 0, 0, 0) on C4
_TORIC_VIOLATION_FLAGS = "--trials 2 --seed 4 --prime 7 --nonzero-entries"


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["rank", "--divisor", "2,0,0,0"], 0, '{"rank":1,"witness_failure":[0,0,0,2]}'),
        (["toric-rank", "--divisor", "1,1,0,0"], 0, '{"toric_rank":1,"witness_failure":[0,0,0,2]}'),
        (
            ["rr-check", "--divisor", "1,-1,2,0"],
            0,
            '{"holds":true,"rank":1,"rank_dual":-1,"residual":0}',
        ),
        (
            ["toric-rr-check", "--divisor", "0,1,0,1", "--trials", "1"],
            0,
            '{"holds":true,"toric_rank":1,"toric_rank_dual":-1,"residual":0,'
            '"trial_disagreements":0}',
        ),
        (
            ["toric-rr-check", "--divisor", "2,0,0,0", *_TORIC_VIOLATION_FLAGS.split()],
            1,
            '{"holds":false,"toric_rank":0,"toric_rank_dual":-1,"residual":-1,'
            '"trial_disagreements":1}',
        ),
    ],
    ids=["rank", "toric-rank", "rr-check", "toric-rr-check", "toric-rr-check-violation"],
)
def test_single_case_stdout_bytes_are_pinned(c4_file, capsys, argv, code, line):
    assert main([argv[0], "--graph", c4_file, *argv[1:]]) == code
    assert capsys.readouterr().out == line + "\n"


def test_rr_check_violation_exits_1_with_a_graph_reproducer(c4_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "rank", lambda G, D: cf.RankResult(9, D))
    assert main(["rr-check", "--graph", c4_file, "--divisor", "1,-1,2,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == '{"holds":false,"rank":9,"rank_dual":9,"residual":-2}\n'
    repro = captured.err.split("violation ", 1)[1].splitlines()[0]
    assert repro == '{"graph":"0,1,0,1;1,0,1,0;0,1,0,1;1,0,1,0","divisor":[1,-1,2,0]}'


def test_missing_graph_file(capsys):
    assert main(["rank", "--graph", "/nonexistent/g.json", "--divisor", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_divisor_text(c4_file, capsys):
    assert main(["rank", "--graph", c4_file, "--divisor", "1,x,0,0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_divisor_length_mismatch(c4_file, capsys):
    assert main(["rank", "--graph", c4_file, "--divisor", "1,0"]) == 2
    assert "4 vertices" in capsys.readouterr().err


def test_graph_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe[[0,1],[1,0]]")
    assert main(["rank", "--graph", str(path), "--divisor", "1,0"]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_divisor_entry_past_int64(c4_file, capsys):
    assert main(["rank", "--graph", c4_file, "--divisor", f"{1 << 63},0,0,0"]) == 2
    assert "int64" in capsys.readouterr().err
    assert main(["rank", "--graph", c4_file, f"--divisor={-(1 << 63) - 1},0,0,{1 << 63}"]) == 2
    assert "int64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, divisor",
    [
        ("rank", f"{(1 << 63) - 1},1,0,0"),
        ("rank", f"{1 << 62},{1 << 62},0,0"),
        ("rank", f"{-(1 << 63)},-1,0,0"),
        # D's degree fits, K - D's degree is 2^63
        ("rr-check", f"{1 - (1 << 63)},0,0,-1"),
        ("toric-rr-check", f"{1 - (1 << 63)},0,0,-1"),
        # K - D has the entry 2^63
        ("rr-check", f"{-(1 << 63)},0,0,0"),
    ],
)
def test_divisor_degree_past_int64(c4_file, capsys, monkeypatch, command, divisor):
    # int64 would read these degrees as wrapped, giving a rank of -1, a
    # reduction that does not end, or a false violation; the CLI
    # rejects them before any rank is computed
    def no_rank(*args):
        raise AssertionError("rank computed")

    monkeypatch.setattr(cli, "rank", no_rank)
    monkeypatch.setattr(cli, "toric_rank", no_rank)
    assert main([command, "--graph", c4_file, f"--divisor={divisor}"]) == 2
    assert "int64" in capsys.readouterr().err


def test_vertex_degree_past_int64(tmp_path, capsys):
    # every entry fits int64, vertex 0's degree 2^63 does not
    half = 1 << 62
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"adj": [[0, half, half], [half, 0, 1], [half, 1, 0]]}))
    assert main(["rr-check", "--graph", str(path), "--divisor", "1,0,0"]) == 2
    assert "int64" in capsys.readouterr().err


def test_adjacency_entry_past_int64(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"adj": [[0, 1 << 63], [1 << 63, 0]]}))
    assert main(["rank", "--graph", str(path), "--divisor", "1,0"]) == 2
    assert "int64" in capsys.readouterr().err


def test_graph_n_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "adj": [[0, 1], [1, 0]]}))
    assert main(["rank", "--graph", str(path), "--divisor", "0,0"]) == 2
    assert "'n'=3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "graph", [{"adj": [[0]], "n": True}, {"adj": [[0, 2], [2, 0]], "n": 2.0}]
)
def test_graph_n_must_be_an_integer(tmp_path, capsys, graph):
    # true == 1 and 2.0 == 2 in Python, but neither is a row count
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    divisor = ",".join(["0"] * len(graph["adj"]))
    assert main(["rank", "--graph", str(path), "--divisor", divisor]) == 2
    assert "'n'=" in capsys.readouterr().err


def test_graph_missing_adj_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[0, 1], [1, 0]]}))
    assert main(["rank", "--graph", str(path), "--divisor", "0,0"]) == 2
    assert "no 'adj' key" in capsys.readouterr().err


def test_invalid_adjacency(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text("[[1]]")
    assert main(["rank", "--graph", str(path), "--divisor", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_adjacency_not_a_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "adj": 5}))
    assert main(["rank", "--graph", str(path), "--divisor", "0,0"]) == 2
    assert "list of rows" in capsys.readouterr().err


def test_internal_error_exits_3(c4_file, capsys, monkeypatch):
    # A ValueError raised inside the library is a crash, not bad input.
    def broken(G, D):
        raise ValueError("internal invariant broken")

    monkeypatch.setattr(cli, "rank", broken)
    assert main(["rank", "--graph", c4_file, "--divisor", "2,0,0,0"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "internal invariant broken" in err


def test_bad_trials_rejected(c4_file, capsys):
    assert main(["toric-rank", "--graph", c4_file, "--divisor", "0,0,0,0", "--trials", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_prime_rejected(c4_file, capsys):
    code = main(["toric-rank", "--graph", c4_file, "--divisor", "0,0,0,0", "--prime", "10"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_exhaustive_command(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = main(
        [
            "exhaustive",
            "--max-vertices", "4",
            "--genus-min", "1",
            "--genus-max", "1",
            "--max-multiplicity", "1",
            "--out", str(out_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert summary["graphs"] == 2
    assert summary["violations"] == 0
    assert "wall_clock_seconds=" in captured.err
    report = json.loads(out_path.read_text())
    assert report["summary"] == summary
    assert "wall_clock" not in report


def test_exhaustive_no_toric_csv(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code = main(
        [
            "exhaustive",
            "--max-vertices", "3",
            "--max-multiplicity", "2",
            "--no-toric",
            "--format", "csv",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["toric"] is False
    text = out_path.read_text()
    assert text.startswith("# chipfire-report v1\n")
    assert text.rstrip().split("\n")[-1].startswith("# summary ")


def test_random_sweep_command(capsys):
    code = main(
        [
            "random-sweep",
            "--cases", "2",
            "--min-genus", "2",
            "--n-min", "4",
            "--n-max", "5",
            "--seed", "11",
            "--trials", "1",
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cases"] == 2
    assert summary["violations"] == 0


def test_finish_driver_reports_violations(capsys):
    cfg = ExperimentConfig(nonzero_entries=True)
    G = cf.cycle_graph(3)
    fake = CaseRecord(
        case=0, graph_id=0, n=3, genus=1, degree=0, divisor=(0, 0, 0),
        rank=0, rank_dual=0, residual=1, toric_rank=0, toric_rank_dual=0,
        toric_residual=1, passed=False,
    )
    report = ExperimentReport(
        config=cfg, graphs=(G,), case_count=1, violation_count=1,
        anomaly_count=0, violations=(fake,), anomalies=(), summary={"violations": 1},
    )
    assert _finish_driver(report) == 1
    captured = capsys.readouterr()
    assert "violation " in captured.err
    repro = json.loads(captured.err.split("violation ", 1)[1].splitlines()[0])
    assert repro["graph"] == "0,1,1;1,0,1;1,1,0"
    assert repro["divisor"] == [0, 0, 0]
    assert repro["prime"] == cf.DEFAULT_PRIME
    assert repro["nonzero_entries"] is True
    settings = {k: v for k, v in repro.items() if k not in ("graph", "divisor")}
    assert cf.ToricConfig(**settings) == cfg.toric_config()


def test_random_sweep_unreachable_genus_exits_2(capsys):
    argv = ["random-sweep", "--cases", "1", "--n-min", "2", "--n-max", "2", "--min-genus", "4"]
    assert main(argv) == 2
    assert "min_genus" in capsys.readouterr().err


def test_random_sweep_improbable_genus_exits_2(tmp_path, capsys):
    # genus 36 on 10 vertices is K_10 alone, one fair-coin draw in 2^45
    out_path = tmp_path / "r.csv"
    argv = [
        "random-sweep", "--cases", "1", "--min-genus", "36", "--n-min", "10",
        "--n-max", "10", "--no-toric", "--format", "csv", "--out", str(out_path),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "min_genus" in err and f"{experiments._MAX_REJECTED_DRAWS} graphs" in err
    assert list(tmp_path.iterdir()) == []


def test_random_sweep_genus_zero_exits_2(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    argv = [
        "random-sweep", "--cases", "1", "--n-min", "1", "--n-max", "1",
        "--min-genus", "0", "--out", str(out_path),
    ]
    assert main(argv) == 2
    assert "min_genus" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_random_sweep_at_seed_0(tmp_path, capsys):
    # its first graph (n = 10, genus 20) has a Laplacian transform with
    # 43-bit entries, which used to overflow the class keys (exit 3)
    out_path = tmp_path / "r.csv"
    argv = [
        "random-sweep", "--cases", "20", "--min-genus", "4", "--n-min", "5",
        "--n-max", "10", "--seed", "0", "--format", "csv", "--out", str(out_path),
    ]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cases"] == 20 and summary["violations"] == 0
    assert out_path.read_text().count("\n# graph ") == 20


@pytest.mark.parametrize("earlier", [None, "an earlier report\n"])
def test_crashed_sweep_leaves_no_report(tmp_path, capsys, monkeypatch, earlier):
    from chipfire import experiments

    real = experiments._class_members
    calls = []

    def failing(G, k, reps):
        calls.append(k)
        if len(calls) > 20:
            raise RuntimeError("class table broke partway")
        return real(G, k, reps)

    monkeypatch.setattr(experiments, "_class_members", failing)
    out_path = tmp_path / "r.csv"
    if earlier is not None:
        out_path.write_text(earlier)
    argv = [
        "exhaustive", "--max-vertices", "4", "--genus-max", "2",
        "--format", "csv", "--workers", "1", "--out", str(out_path),
    ]
    assert main(argv) == 3
    assert "class table broke partway" in capsys.readouterr().err
    assert len(calls) == 21
    if earlier is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [out_path]
        assert out_path.read_text() == earlier


def test_sweep_report_replaces_earlier_file(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    out_path.write_text("stale\n")
    argv = ["exhaustive", "--max-vertices", "3", "--format", "csv", "--out", str(out_path)]
    assert main(argv) == 0
    assert out_path.read_text().startswith("# chipfire-report v1\n")
    assert list(tmp_path.iterdir()) == [out_path]


# every flag of the command with a non-default value, and the config
# fields those values must land in
_SWEEP_FLAGS = {
    "exhaustive": (
        "--max-vertices 3 --genus-min 3 --genus-max 3 --degree-min 0 --degree-max 1"
        " --window 1 --max-multiplicity 2 --workers 2",
        dict(
            max_vertices=3, genus_min=3, genus_max=3, degree_min=0, degree_max=1,
            window=1, max_multiplicity=2, workers=2,
        ),
    ),
    "random-sweep": (
        "--cases 2 --min-genus 2 --n-min 4 --n-max 5",
        dict(cases=2, min_genus=2, n_min=4, n_max=5),
    ),
}
_TORIC_FLAGS = "--prime 7 --trials 2 --mode random-vector --seed 4 --nonzero-entries"
_TORIC_VALUES = dict(prime=7, trials=2, toric_mode="random-vector", seed=4, nonzero_entries=True)


def _flag_dests(command: str) -> set[str]:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["exhaustive", "random-sweep"])
def test_every_sweep_flag_reaches_the_config(tmp_path, capsys, monkeypatch, command, fmt):
    flags, values = _SWEEP_FLAGS[command]
    out_path = str(tmp_path / f"r.{fmt}")
    argv = [
        command, *flags.split(), *_TORIC_FLAGS.split(), "--no-toric",
        "--format", fmt, "--out", out_path,
    ]
    given = dict(values, **_TORIC_VALUES, toric=False, output_format=fmt, output_path=out_path)
    assert _flag_dests(command) == set(given)  # no flag left untested
    expected = ExperimentConfig(mode=command, **given)
    default = ExperimentConfig(mode=command)
    changed = {k for k in given if getattr(default, k) != given[k]}
    assert changed == set(given) - ({"output_format"} if fmt == "json" else set())

    driver = "run_exhaustive" if command == "exhaustive" else "run_random_sweep"
    real = getattr(cli, driver)
    seen = []
    monkeypatch.setattr(cli, driver, lambda cfg: seen.append(cfg) or real(cfg))
    assert main(argv) == 0
    assert seen == [expected]

    echoed = [f.name for f in fields(ExperimentConfig)]
    for name in ("output_format", "output_path", "workers"):
        echoed.remove(name)
    text = (tmp_path / f"r.{fmt}").read_text()
    if fmt == "json":
        assert json.loads(text)["config"] == {k: getattr(expected, k) for k in echoed}
    else:
        head, config_line = text.splitlines()[:2]
        assert head == "# chipfire-report v1"
        assert config_line == "# config " + " ".join(f"{k}={getattr(expected, k)}" for k in echoed)
    assert list(tmp_path.iterdir()) == [tmp_path / f"r.{fmt}"]


def test_toric_rank_flags_reach_toric_rank(c4_file, capsys, monkeypatch):
    assert _flag_dests("toric-rank") == {"graph", "divisor", *_TORIC_VALUES}
    argv = ["toric-rank", "--graph", c4_file, "--divisor", "1,1,0,0", *_TORIC_FLAGS.split()]
    expected = cf.ToricConfig(
        prime=7, trials=2, mode="random-vector", seed=4, nonzero_entries=True
    )
    seen = []
    monkeypatch.setattr(cli, "toric_rank", lambda G, D, cfg: seen.append(cfg) or cf.toric_rank(G, D, cfg))
    assert main(argv) == 0
    assert seen == [expected]
    res = cf.toric_rank(cf.cycle_graph(4), cf.Divisor((1, 1, 0, 0)), expected)
    out = json.loads(capsys.readouterr().out)
    assert out == {"toric_rank": res.rank, "witness_failure": list(res.witness_failure.coeffs)}


@pytest.mark.parametrize("command", ["exhaustive", "random-sweep"])
def test_omitted_sweep_flags_take_the_config_defaults(monkeypatch, command):
    driver = "run_exhaustive" if command == "exhaustive" else "run_random_sweep"
    seen = []
    monkeypatch.setattr(cli, driver, seen.append)
    monkeypatch.setattr(cli, "_finish_driver", lambda report: 0)
    assert main([command]) == 0
    assert seen == [ExperimentConfig(mode=command)]


def test_omitted_toric_flags_take_the_config_defaults(c4_file, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "toric_rank", lambda G, D, cfg: seen.append(cfg) or cf.toric_rank(G, D, cfg))
    assert main(["toric-rank", "--graph", c4_file, "--divisor", "1,0,0,0"]) == 0
    assert seen == [cf.ToricConfig()]


def test_every_optional_flag_defaults_to_suppress():
    # an omitted flag leaves its dest unset, so only the configs declare defaults
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in (parser, *sub.choices.values()):
        for action in p._actions:
            if action.option_strings and not action.required:
                assert action.default is argparse.SUPPRESS, (p.prog, action.option_strings)


def test_toric_violation_reproducer_replays_its_settings(c4_file, capsys, monkeypatch):
    argv = ["toric-rr-check", "--graph", c4_file, "--divisor", "1,1,0,0", *_TORIC_FLAGS.split()]
    monkeypatch.setattr(cli, "toric_rank", lambda G, D, cfg, memo: cf.RankResult(9, D))
    assert main(argv) == 1
    repro = json.loads(capsys.readouterr().err.split("violation ", 1)[1].splitlines()[0])
    assert repro["nonzero_entries"] is True
    settings = {k: v for k, v in repro.items() if k not in ("graph", "divisor")}
    assert cf.ToricConfig(**settings) == cf.ToricConfig(
        prime=7, trials=2, mode="random-vector", seed=4, nonzero_entries=True
    )


def test_sweep_without_out_builds_no_records(tmp_path, capsys, monkeypatch):
    argv = ["exhaustive", "--max-vertices", "4", "--genus-max", "2", "--max-multiplicity", "2"]
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    written = json.loads((tmp_path / "r.json").read_text())["cases"]

    built, reports = [], []
    monkeypatch.setattr(experiments, "CaseRecord", lambda *a: built.append(a) or CaseRecord(*a))
    monkeypatch.setattr(cli, "_finish_driver", lambda report: reports.append(report) or 0)
    assert main(argv) == 0
    (report,) = reports
    assert report.violation_count == report.anomaly_count == 0
    assert built == []  # the run kept column blocks only
    cases = report.cases
    assert len(built) == len(cases) == report.case_count == len(written) > 100
    assert report.cases is cases
    eager = [
        {**dataclasses.asdict(rec), "divisor": list(rec.divisor), "anomalies": list(rec.anomalies)}
        for rec in cases
    ]
    assert eager == written


def test_readme_cli_block_prints_what_it_says(tmp_path, capsys, monkeypatch):
    # "$ cat c4.json" writes the line below it to the file; every
    # "$ chipfire ..." line must print the line below it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line, after in zip(lines, lines[1:]):
        if line == "$ cat c4.json":
            (tmp_path / "c4.json").write_text(after + "\n")
        elif line.startswith("$ chipfire "):
            assert main(shlex.split(line)[2:]) == 0, line
            assert capsys.readouterr().out == after + "\n", line
            ran += 1
    assert ran == 4
