"""Report bytes pinned by sha256.

The digests were recorded from the per-case driver that preceded the
class-level one, so any change to the bytes a sweep writes shows up
here, not only a difference between reruns.
"""

import hashlib

import pytest

from chipfire import ExperimentConfig, run_exhaustive

GOLDEN = {
    ("csv", True): "596f873b39b1449d43c8b16db7eae5ac4608dccf3b7f84c9632944ab6880907b",
    ("json", True): "1bf882a96affaebf638b42240263f2ef25af17929c7172631dbf37500733501f",
    ("csv", False): "3ad58873f7cc7896abaaf2ea43b70d5a232762d63d00c1e821e4fa9f555dc19c",
}


def _config(**overrides) -> ExperimentConfig:
    base = dict(mode="exhaustive", max_vertices=5, genus_min=1, genus_max=2, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("fmt,toric", sorted(GOLDEN))
def test_report_digest(tmp_path, fmt, toric):
    path = tmp_path / f"report.{fmt}"
    report = run_exhaustive(_config(output_format=fmt, output_path=str(path), toric=toric))
    assert report.summary == {
        "graphs": 18, "cases": 8895, "violations": 0, "anomalies": 0, "toric": toric,
    }
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[fmt, toric]


def test_in_memory_cases_match_csv_rows(tmp_path):
    path = tmp_path / "report.csv"
    run_exhaustive(_config(output_format="csv", output_path=str(path)))
    rows = [ln.split(",") for ln in path.read_text().splitlines() if not ln.startswith("#")]
    cases = run_exhaustive(_config()).cases
    assert len(cases) == len(rows) == 8895
    for rec, row in zip(cases, rows):
        expected = [
            str(rec.case), str(rec.graph_id), str(rec.n), str(rec.genus), str(rec.degree),
            "|".join(map(str, rec.divisor)), str(rec.rank), str(rec.rank_dual),
            str(rec.residual), str(rec.toric_rank), str(rec.toric_rank_dual),
            str(rec.toric_residual), str(int(rec.passed)), ";".join(rec.anomalies),
        ]
        assert row == expected
        assert all(type(x) is int for x in (rec.case, rec.rank, rec.toric_rank, *rec.divisor))
        assert type(rec.passed) is bool
