"""Report bytes pinned by sha256.

The exhaustive digests with the toric check on, and the CSV one with it
off, were recorded from the per-case driver that preceded the
class-level one.  The JSON one with it off and the random-sweep digests
were recorded from the driver that spelled every cell once per row,
before the sinks spelled them once per class.  So any change to the
bytes a sweep writes shows up here, not only a difference between
reruns.
"""

import hashlib
import json

import pytest

from chipfire import ExperimentConfig, run_exhaustive, run_random_sweep

from .helpers import flag_verdicts

GOLDEN = {
    ("csv", True): "596f873b39b1449d43c8b16db7eae5ac4608dccf3b7f84c9632944ab6880907b",
    ("json", True): "1bf882a96affaebf638b42240263f2ef25af17929c7172631dbf37500733501f",
    ("csv", False): "3ad58873f7cc7896abaaf2ea43b70d5a232762d63d00c1e821e4fa9f555dc19c",
    ("json", False): "19200e6f04fa9360ab7ae1253f0ccb8ce4913b8fed59d66ce6061ad8120052e8",
}

RANDOM_GOLDEN = {
    "csv": "dc1d7f5c2cbeed2239c223bc4d70c649fd64a50f7e3f5f650176411f6c104271",
    "json": "629df8cee9c3504d3799a1053aadcbebf96b396fed66b36588c08360c3807d64",
}


def _config(**overrides) -> ExperimentConfig:
    base = dict(mode="exhaustive", max_vertices=5, genus_min=1, genus_max=2, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt,toric", sorted(GOLDEN))
def test_report_digest(tmp_path, fmt, toric):
    path = tmp_path / f"report.{fmt}"
    report = run_exhaustive(_config(output_format=fmt, output_path=str(path), toric=toric))
    assert report.summary == {
        "graphs": 18, "cases": 8895, "violations": 0, "anomalies": 0, "toric": toric,
    }
    assert _digest(path) == GOLDEN[fmt, toric]


@pytest.mark.parametrize("fmt", sorted(RANDOM_GOLDEN))
def test_random_sweep_report_digest(tmp_path, fmt):
    path = tmp_path / f"report.{fmt}"
    cfg = ExperimentConfig(
        mode="random-sweep", cases=6, min_genus=2, n_min=4, n_max=6, seed=3,
        output_format=fmt, output_path=str(path),
    )
    report = run_random_sweep(cfg)
    assert report.summary == {
        "graphs": 6, "cases": 6, "violations": 0, "anomalies": 0, "toric": True,
    }
    assert _digest(path) == RANDOM_GOLDEN[fmt]


def _csv_rows(text: str) -> list:
    return [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]


def _csv_cells(rec) -> list:
    return [
        str(rec.case), str(rec.graph_id), str(rec.n), str(rec.genus), str(rec.degree),
        "|".join(map(str, rec.divisor)), str(rec.rank), str(rec.rank_dual),
        str(rec.residual), str(rec.toric_rank), str(rec.toric_rank_dual),
        str(rec.toric_residual), str(int(rec.passed)), ";".join(rec.anomalies),
    ]


def _json_fields(rec) -> dict:
    fields = dict(vars(rec))
    fields.update(divisor=list(rec.divisor), anomalies=list(rec.anomalies))
    return fields


@pytest.mark.parametrize("fmt,flagged", [("csv", False), ("json", False), ("csv", True), ("json", True)])
def test_in_memory_cases_match_report_rows(tmp_path, monkeypatch, fmt, flagged):
    # flagged: every verdict on the zero divisor reads as trial-disagreeing,
    # so the rows of the classes whose recursion reads it carry an anomaly
    if flagged:
        flag_verdicts(monkeypatch, lambda G, coeffs: not any(coeffs))
    path = tmp_path / f"report.{fmt}"
    written = run_exhaustive(_config(output_format=fmt, output_path=str(path)))
    report = run_exhaustive(_config())
    cases = report.cases
    assert written.summary == report.summary
    assert len(cases) == report.case_count == 8895
    assert (report.anomaly_count > 0) == flagged
    assert sum(bool(rec.anomalies) for rec in cases) == report.anomaly_count
    if fmt == "csv":
        assert _csv_rows(path.read_text()) == [_csv_cells(rec) for rec in cases]
    else:
        assert json.loads(path.read_text())["cases"] == [_json_fields(rec) for rec in cases]
    for rec in cases:
        assert all(type(x) is int for x in (rec.case, rec.rank, rec.toric_rank, *rec.divisor))
        assert type(rec.passed) is bool
