import dataclasses
import hashlib
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipfire as cf
from chipfire import (
    ConfigError,
    Divisor,
    ExperimentConfig,
    encode_adjacency,
    enumerate_treeless_graphs,
    random_connected_graph,
    random_effective_divisor,
    run_exhaustive,
    run_random_sweep,
)
from chipfire import experiments, linsys

from .helpers import (
    canonical_adjacency,
    connected_multigraphs_up_to_iso,
    flag_verdicts,
    graph_and_divisor,
)


def test_config_validation_branches():
    bad = [
        dict(mode="freestyle"),
        dict(output_format="xml"),
        dict(max_vertices=0),
        dict(genus_min=3, genus_max=2),
        dict(genus_min=-1),
        dict(degree_min=2, degree_max=1),
        dict(window=-1),
        dict(prime=9),
        dict(trials=0),
        dict(toric_mode="magic"),
        dict(workers=0),
        dict(cases=-1),
        dict(n_min=0),
        dict(n_min=4, n_max=3),
        dict(max_multiplicity=0),
        dict(mode="single"),
        dict(mode="random-sweep", min_genus=0),
        # integer fields reject float and bool instead of coercing them
        dict(max_vertices=2.5),
        dict(workers=True),
        dict(genus_max=2.0),
        dict(degree_min=0.5),
        dict(window=False),
        dict(prime=10000000019.0),
        dict(trials=2.5),
        dict(seed=1.5),
        dict(cases=True),
        dict(n_max=10.0),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs).validate()
    ExperimentConfig().validate()
    # exhaustive mode ignores min_genus; an empty random sweep draws nothing
    ExperimentConfig(mode="exhaustive", min_genus=-3).validate()
    ExperimentConfig(mode="random-sweep", cases=0, min_genus=0).validate()


def test_config_resolved_prime_and_toric_config():
    cfg = ExperimentConfig(trials=5, seed=9, toric_mode="random-vector")
    assert cfg.prime == cf.DEFAULT_PRIME
    tc = cfg.toric_config()
    assert tc.trials == 5 and tc.seed == 9 and tc.mode == "random-vector"
    assert tc.prime == cf.DEFAULT_PRIME
    assert ExperimentConfig(prime=101).toric_config().prime == 101


def test_random_connected_graph():
    G = random_connected_graph(1, rng_seed=0)
    assert G.n == 1
    G2 = random_connected_graph(2, rng_seed=7)
    assert G2.adj == ((0, 1), (1, 0))  # only one connected option on 2 vertices
    for seed in range(10):
        G = random_connected_graph(5, rng_seed=seed)
        assert cf.is_connected(G)
        assert all(x in (0, 1) for row in G.adj for x in row)
        assert G == random_connected_graph(5, rng_seed=seed)
    with pytest.raises(ValueError):
        random_connected_graph(0, rng_seed=1)


def test_random_effective_divisor():
    for seed in range(20):
        D = random_effective_divisor(4, 3, rng_seed=seed)
        assert cf.degree(D) == 3
        assert D.is_effective()
        assert D == random_effective_divisor(4, 3, rng_seed=seed)
    values = {random_effective_divisor(2, 1, rng_seed=s).coeffs for s in range(30)}
    assert values == {(0, 1), (1, 0)}
    assert random_effective_divisor(1, 0, rng_seed=0).coeffs == (0,)
    for n, d in ((1, -1), (3, -1), (0, 0), (0, 2), (-1, 1)):
        with pytest.raises(ValueError, match="no effective divisor"):
            random_effective_divisor(n, d, rng_seed=0)


def test_enumerate_treeless_genus_one_simple():
    got = list(enumerate_treeless_graphs(4, (1, 1), max_multiplicity=1))
    forms = {canonical_adjacency(G.adj) for G in got}
    expected = {
        canonical_adjacency(cf.cycle_graph(3).adj),
        canonical_adjacency(cf.cycle_graph(4).adj),
    }
    assert forms == expected


def test_enumerate_treeless_multiplicity_adds_banana():
    got = {canonical_adjacency(G.adj) for G in enumerate_treeless_graphs(4, (1, 1), 2)}
    assert canonical_adjacency(((0, 2), (2, 0))) in got
    assert len(got) == 3


def test_enumerate_treeless_small_genus_two():
    got = list(enumerate_treeless_graphs(2, (2, 2), max_multiplicity=3))
    assert [G.adj for G in got] == [((0, 3), (3, 0))]
    assert list(enumerate_treeless_graphs(6, (0, 0))) == []


def test_enumerate_treeless_invariants():
    got = list(enumerate_treeless_graphs(5, (1, 2), max_multiplicity=2))
    assert got, "expected a nonempty family"
    forms = set()
    for G in got:
        assert cf.is_connected(G)
        assert min(G.vertex_degrees()) >= 2
        assert 1 <= cf.genus(G) <= 2
        assert max(x for row in G.adj for x in row) <= 2
        forms.add(canonical_adjacency(G.adj))
    assert len(forms) == len(got), "pairwise non-isomorphic"
    assert [G.adj for G in got] == [
        G.adj for G in enumerate_treeless_graphs(5, (1, 2), max_multiplicity=2)
    ]


@pytest.mark.parametrize(
    "max_n, max_mult", [(2, 3), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1)]
)
def test_enumerate_treeless_matches_brute_force_oracle(max_n, max_mult):
    cores = [
        G for G in connected_multigraphs_up_to_iso(max_n, max_mult)
        if min(G.vertex_degrees()) >= 2
    ]
    for g_lo, g_hi in ((1, 1), (1, 3), (2, 4), (0, 10)):
        want = {G.adj for G in cores if g_lo <= cf.genus(G) <= g_hi}
        # the oracle canonicalizes over all n! permutations, the enumerator
        # over degree-sorted orders only, so compare by the oracle's forms
        got = [
            canonical_adjacency(G.adj)
            for G in enumerate_treeless_graphs(max_n, (g_lo, g_hi), max_mult)
        ]
        assert len(got) == len(want)
        assert set(got) == want


def test_enumerate_treeless_order_is_pinned():
    # report bytes follow this order; digest recorded from the brute-force
    # canonical-form enumerator that the degree-sorted search replaced
    got = list(enumerate_treeless_graphs(6, (1, 4), 3))
    assert len(got) == 511
    text = "".join(encode_adjacency(G) + "\n" for G in got)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "90a86e2a1b6b67b341a5af5fbfe63f1f8409ee1162e5f189a6e33b23cc8b466a"
    )


def test_enumerate_treeless_order_is_pinned_at_seven_vertices():
    # digest recorded from the enumerator that collected and sorted the
    # canonical form of every degree-sorted leaf
    got = list(enumerate_treeless_graphs(7, (1, 2), 3))
    assert len(got) == 44
    text = "".join(encode_adjacency(G) + "\n" for G in got)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1fa03ebf02ac2cfa4314d0ffd9829bf990e22435293efa491143b07a958a292a"
    )


def test_enumerate_treeless_is_lazy(monkeypatch):
    calls = []
    real = experiments._is_canonical

    def counting(adj):
        calls.append(adj)
        return real(adj)

    monkeypatch.setattr(experiments, "_is_canonical", counting)
    next(enumerate_treeless_graphs(7, (1, 3), 3))
    first = len(calls)
    calls.clear()
    list(enumerate_treeless_graphs(7, (1, 3), 3))
    assert 0 < first < len(calls)


def test_encode_adjacency():
    assert encode_adjacency(cf.path_graph(3)) == "0,1,0;1,0,1;0,1,0"
    assert encode_adjacency(cf.cycle_graph(2)) == "0,2;2,0"


def _tiny_exhaustive(**overrides) -> ExperimentConfig:
    base = dict(
        mode="exhaustive",
        max_vertices=4,
        genus_min=1,
        genus_max=1,
        max_multiplicity=1,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_exhaustive_in_memory():
    report = run_exhaustive(_tiny_exhaustive())
    assert len(report.graphs) == 2  # 3-cycle and 4-cycle
    assert report.case_count == len(report.cases) > 0
    assert report.violation_count == 0
    assert report.anomaly_count == 0
    assert report.summary["cases"] == report.case_count
    assert report.summary["graphs"] == 2
    assert all(rec.residual == 0 for rec in report.cases)
    assert all(rec.toric_residual == 0 for rec in report.cases)
    assert [rec.case for rec in report.cases] == list(range(report.case_count))
    assert report.wall_clock_seconds > 0


def test_run_exhaustive_degree_window_scoping():
    # genus-1 graphs default to the single degree 0 with window 1
    report = run_exhaustive(_tiny_exhaustive())
    assert {rec.degree for rec in report.cases} == {0}
    wide = run_exhaustive(_tiny_exhaustive(degree_min=0, degree_max=1, window=2))
    assert {rec.degree for rec in wide.cases} == {0, 1}
    assert wide.case_count > report.case_count


def test_run_exhaustive_without_toric():
    report = run_exhaustive(_tiny_exhaustive(toric=False))
    assert all(rec.toric_rank is None for rec in report.cases)
    assert all(rec.toric_residual is None for rec in report.cases)
    assert report.violation_count == 0
    assert report.summary["toric"] is False


def test_run_exhaustive_empty_family():
    report = run_exhaustive(_tiny_exhaustive(max_vertices=2))
    assert report.case_count == 0
    assert report.graphs == ()
    assert report.summary["cases"] == 0


def test_run_exhaustive_mode_mismatch():
    with pytest.raises(ConfigError):
        run_exhaustive(ExperimentConfig(mode="random-sweep"))
    with pytest.raises(ConfigError):
        run_random_sweep(ExperimentConfig(mode="exhaustive"))


def test_json_report_shape(tmp_path):
    path = tmp_path / "report.json"
    report = run_exhaustive(_tiny_exhaustive(output_path=str(path), output_format="json"))
    assert report.cases == ()  # streamed, not kept
    data = json.loads(path.read_text())
    assert data["format"] == "chipfire-report"
    assert data["version"] == 1
    assert set(data["config"]) == {
        "mode", "max_vertices", "genus_min", "genus_max", "degree_min",
        "degree_max", "window", "prime", "trials", "toric_mode", "seed",
        "toric", "nonzero_entries", "cases", "min_genus", "n_min", "n_max",
        "max_multiplicity",
    }
    assert data["config"]["prime"] == cf.DEFAULT_PRIME
    assert "workers" not in data["config"]
    assert "output_path" not in data["config"]
    assert len(data["graphs"]) == 2
    assert data["graphs"][0].keys() == {"id", "n", "genus", "adj"}
    assert len(data["cases"]) == data["summary"]["cases"] == report.case_count
    first = data["cases"][0]
    assert set(first) == {
        "case", "graph_id", "n", "genus", "degree", "divisor", "rank",
        "rank_dual", "residual", "toric_rank", "toric_rank_dual",
        "toric_residual", "passed", "anomalies",
    }
    assert data["summary"]["violations"] == 0


def test_csv_report_shape(tmp_path):
    path = tmp_path / "report.csv"
    run_exhaustive(_tiny_exhaustive(output_path=str(path), output_format="csv"))
    lines = path.read_text().splitlines()
    assert lines[0] == "# chipfire-report v1"
    assert lines[1].startswith("# config mode=exhaustive ")
    assert lines[2] == (
        "# columns case,graph_id,n,genus,degree,divisor,rank,rank_dual,"
        "residual,toric_rank,toric_rank_dual,toric_residual,passed,anomalies"
    )
    graph_lines = [ln for ln in lines if ln.startswith("# graph ")]
    assert len(graph_lines) == 2
    data_lines = [ln for ln in lines if not ln.startswith("#")]
    assert data_lines
    cells = data_lines[0].split(",")
    assert len(cells) == 14
    assert cells[0] == "0"
    assert cells[12] in ("0", "1")
    assert lines[-1].startswith("# summary ")
    assert "violations=0" in lines[-1]


def test_reports_byte_identical_across_runs_and_workers(tmp_path):
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    for path, workers in zip(paths, (1, 1, 2)):
        run_exhaustive(
            _tiny_exhaustive(
                max_vertices=4,
                genus_max=2,
                max_multiplicity=2,
                output_path=str(path),
                workers=workers,
            )
        )
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("multiplicity", [1, 2])
def test_pool_size_is_capped_at_the_graph_count(monkeypatch, tmp_path, multiplicity):
    # 2 and 3 graphs with workers=8: one process per graph.  The fake
    # pool records its size and runs the tasks here, so none start.
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks):
            return map(func, tasks)

    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    cfg = _tiny_exhaustive(max_multiplicity=multiplicity, output_format="csv")
    report = run_exhaustive(dataclasses.replace(cfg, output_path=str(serial)))
    monkeypatch.setattr(experiments, "Pool", FakePool)
    run_exhaustive(dataclasses.replace(cfg, output_path=str(pooled), workers=8))
    assert sizes == [len(report.graphs)] and len(report.graphs) == multiplicity + 1
    assert pooled.read_bytes() == serial.read_bytes()


def test_run_random_sweep():
    cfg = ExperimentConfig(
        mode="random-sweep", cases=3, min_genus=2, n_min=4, n_max=5, seed=11
    )
    report = run_random_sweep(cfg)
    assert report.case_count == 3
    assert len(report.graphs) == 3
    for rec, G in zip(report.cases, report.graphs):
        assert rec.genus == cf.genus(G) >= 2
        assert rec.degree == rec.genus - 1
        assert cf.degree(Divisor(rec.divisor)) == rec.degree
        assert rec.residual == 0
        assert rec.passed
    again = run_random_sweep(cfg)
    assert again.cases == report.cases


def test_run_random_sweep_zero_cases():
    report = run_random_sweep(ExperimentConfig(mode="random-sweep", cases=0))
    assert report.case_count == 0
    assert report.graphs == ()


def test_trial_disagreement_tags_every_case_of_affected_classes(monkeypatch):
    cfg = _tiny_exhaustive(genus_min=2, genus_max=2)
    (G,) = enumerate_treeless_graphs(4, (2, 2), max_multiplicity=1)
    zero = (0,) * G.n
    flag_verdicts(monkeypatch, lambda H, coeffs: H == G and coeffs == zero)
    report = run_exhaustive(cfg)

    # Oracle, one case at a time with no class cache: a case is affected
    # iff the toric rank search of D or of K - D probes the zero divisor.
    tcfg = cfg.toric_config()
    K = cf.canonical_divisor(G)
    expected = []
    for rec in report.cases:
        memo = cf.ToricMemo(G, tcfg)
        cf.toric_rank(G, Divisor(rec.divisor), tcfg, memo)
        cf.toric_rank(G, K - Divisor(rec.divisor), tcfg, memo)
        if zero in memo.outcomes:
            expected.append(rec.case)
    # one memo entry, but every case of the classes that read it
    assert len(expected) > 1
    assert report.anomaly_count == len(expected)
    assert [rec.case for rec in report.cases if rec.anomalies] == expected
    assert all(
        rec.anomalies == (("trial-disagreement",) if rec.case in expected else ())
        for rec in report.cases
    )
    assert [rec.case for rec in report.anomalies] == expected
    assert report.violation_count == 0


def test_trial_disagreement_tags_classes_whose_recursion_reads_it(monkeypatch):
    # Degree 1 on genus <= 2: the classes of D and K - D have degree 1 or
    # -1, and the toric recursion of a class C decides T on the zero class
    # iff T(C) holds and C - e_v ~ 0 for some v.
    cfg = _tiny_exhaustive(genus_max=2, degree_min=1, degree_max=1, window=1)
    flag_verdicts(monkeypatch, lambda H, coeffs: not any(coeffs))
    report = run_exhaustive(cfg)
    tcfg = cfg.toric_config()

    def reads_zero(G, C):
        units = [Divisor(tuple(int(i == v) for i in range(G.n))) for v in range(G.n)]
        return cf.toric_rank(G, C, tcfg).rank >= 0 and any(
            Divisor.zero(G.n) in cf.linear_system(G, C - e) for e in units
        )

    expected = []
    for rec in report.cases:
        G, D = report.graphs[rec.graph_id], Divisor(rec.divisor)
        if reads_zero(G, D) or reads_zero(G, cf.canonical_divisor(G) - D):
            expected.append(rec.case)
    assert 0 < len(expected) < report.case_count
    assert [rec.case for rec in report.cases if rec.anomalies] == expected


def test_random_sweep_tags_trial_disagreements(monkeypatch):
    cfg = ExperimentConfig(mode="random-sweep", cases=2, min_genus=2, n_min=4, n_max=4, seed=5)
    assert run_random_sweep(cfg).anomaly_count == 0
    flag_verdicts(monkeypatch, lambda H, coeffs: True)
    report = run_random_sweep(cfg)
    assert report.anomaly_count == 2
    assert all(rec.anomalies == ("trial-disagreement",) for rec in report.cases)


def test_random_sweep_rejects_unreachable_genus():
    # a simple connected graph on n vertices has genus at most C(n, 2) - n + 1
    for n_max, top in ((1, 0), (2, 0), (3, 1), (4, 3), (5, 6)):
        cfg = ExperimentConfig(mode="random-sweep", cases=1, n_min=1, n_max=n_max, min_genus=top + 1)
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            run_random_sweep(cfg)
        if top >= 1:
            dataclasses.replace(cfg, min_genus=top).validate()
        else:  # only trees: no min_genus >= 1 is reachable
            with pytest.raises(ConfigError):
                dataclasses.replace(cfg, min_genus=top).validate()
        dataclasses.replace(cfg, cases=0).validate()
        dataclasses.replace(cfg, mode="exhaustive").validate()


def _every_class(G, d):
    """One representative of each divisor class of degree d: the orbit of
    d e_0 under adding e_v - e_0, deduplicated by class key."""
    n = G.n
    frontier = np.zeros((1, n), dtype=np.int64)
    frontier[0, 0] = d
    steps = (np.eye(n, dtype=np.int64) - np.eye(n, dtype=np.int64)[0])[1:]
    found = {}
    while len(frontier):
        fresh = []
        for key, row in zip(linsys._row_keys(linsys._class_keys_batch(G, frontier)).tolist(), frontier):
            if key not in found:
                found[key] = row
                fresh.append(row)
        frontier = (np.array(fresh, dtype=np.int64).reshape(-1, 1, n) + steps).reshape(-1, n)
    return np.array(list(found.values()), dtype=np.int64).reshape(-1, n)


def _scan_ranks(G, reps, memo):
    cfg = memo.config
    return [
        [cf.rank(G, Divisor(tuple(r))).rank, cf.toric_rank(G, Divisor(tuple(r)), cfg, memo).rank]
        for r in reps.tolist()
    ]


def _assert_recursion_matches_scans(G, reps, memo):
    got = experiments._recurse_classes(G, memo, reps)[:, :2].tolist()
    assert got == _scan_ranks(G, reps, memo), (G.adj, reps.tolist())
    return got


def test_class_recursion_matches_rank_scans_on_every_class():
    cfg = cf.ToricConfig()
    graphs = list(enumerate_treeless_graphs(5, (1, 3)))
    assert len(graphs) == 60
    for G in graphs:
        g = cf.genus(G)
        moduli = linsys._class_data(G)[1]
        jacobian = int(np.prod(moduli))
        reps = [_every_class(G, d) for d in range(-1, 2 * g)]
        assert all(len(r) == jacobian for r in reps)
        _assert_recursion_matches_scans(G, np.concatenate(reps), cf.ToricMemo(G, cfg))


def test_class_recursion_reads_members_past_the_table_budget(monkeypatch):
    # a budget of 20 entries holds the tables of degrees 0 and 1 on four
    # vertices; every higher degree of the recursion walks for |c|
    walked = []
    real_walk = linsys._walk_members
    monkeypatch.setattr(linsys, "_ELEMENT_BUDGET", 20)
    cfg = cf.ToricConfig()
    for G in enumerate_treeless_graphs(4, (1, 3)):
        reps = np.concatenate([_every_class(G, d) for d in range(-1, 2 * cf.genus(G))])
        memo = cf.ToricMemo(G, cfg)
        with monkeypatch.context() as m:
            m.setattr(linsys, "_walk_members", lambda G, D: walked.append(D) or real_walk(G, D))
            got = experiments._recurse_classes(G, memo, reps)[:, :2].tolist()
        assert got == _scan_ranks(G, reps, memo), G.adj
    assert all(cf.degree(D) >= 2 for D in walked) and len(walked) > 10


def test_class_recursion_does_not_grow_the_stack():
    # 1,002 degrees, past Python's default recursion limit of 1,000, on
    # one vertex, where each degree is one class with a one-row table;
    # the toric side is off, its tests at degrees near 1,000 take long
    reps = np.array([[1001]], dtype=np.int64)
    assert experiments._recurse_classes(cf.path_graph(1), None, reps).tolist() == [[1001, -1, 0]]
    # two vertices, genus 1: 1,002 degrees, each with a two-column table
    reps = np.array([[1001, 0]], dtype=np.int64)
    assert experiments._recurse_classes(cf.cycle_graph(2), None, reps).tolist() == [[1000, -1, 0]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph_and_divisor(), st.sampled_from([cf.ToricConfig(), cf.ToricConfig(prime=5, trials=1)]))
def test_class_recursion_matches_rank_scans_on_random_divisors(case, cfg):
    # over F_5 many verdicts come out wrong, so toric ranks vary among
    # the classes of one degree; T stays a class property all the same.
    # Under the default config the toric rank is the closed form
    # max(deg D - g, -1)
    G, coeffs = case
    reps = np.array([coeffs], dtype=np.int64)
    [(_, toric)] = _assert_recursion_matches_scans(G, reps, cf.ToricMemo(G, cfg))
    if cfg == cf.ToricConfig():
        assert toric == max(sum(coeffs) - cf.genus(G), -1), (G.adj, coeffs)


def test_toric_sweep_runs_the_parents_effectivity_tests(monkeypatch):
    # 2,028 is what one removal scan per class ran: on the default
    # windows the recursion probes no candidate those scans did not
    calls = []
    real = cf.toric.toric_effective_test
    monkeypatch.setattr(cf.toric, "toric_effective_test", lambda *a: calls.append(a) or real(*a))
    report = run_exhaustive(ExperimentConfig(max_vertices=5, genus_min=1, genus_max=3))
    assert report.case_count == 219813 and report.violation_count == 0
    assert len(calls) == 2028


def test_exhaustive_sweep_keys_each_degree_table_once(monkeypatch):
    # the exhaustive driver solves classes by the recursion alone: no
    # removal scan, and one keying of each (graph, degree) composition table
    def no_scan(*args):
        raise AssertionError("removal scan in the exhaustive sweep")

    keyed = []
    real = linsys._class_keys_batch

    def recording(G, divisors):
        k = int(divisors[0].sum()) if len(divisors) else -1
        if k >= 0 and divisors is linsys._compositions_array(G.n, k):
            keyed.append((G, k))
        return real(G, divisors)

    monkeypatch.setattr(importlib.import_module("chipfire.rank"), "_rank_scan", no_scan)
    monkeypatch.setattr(cf.toric, "_rank_scan", no_scan)
    monkeypatch.setattr(linsys, "_class_keys_batch", recording)
    linsys._members.cache_clear()
    report = run_exhaustive(_tiny_exhaustive(genus_max=2, max_multiplicity=2))
    assert report.violation_count == 0 and report.summary["toric"]
    assert len(keyed) > 10
    assert len(set(keyed)) == len(keyed)


def test_exhaustive_sweep_groups_by_key_rows_past_the_int64_bound(monkeypatch, tmp_path):
    # graphs whose kappa(G) times the degree passes 2^63 get Python-int
    # codes; forcing them, or the key rows themselves as opaque values,
    # everywhere must leave the report unchanged
    cfg = _tiny_exhaustive(genus_max=3, max_multiplicity=2)
    real = linsys._class_codes
    forced = {
        "ints": lambda G, rows: real(G, rows).astype(object),
        "keys": lambda G, rows: linsys._row_keys(linsys._class_keys_batch(G, rows)),
    }
    path = tmp_path / "codes.csv"
    run_exhaustive(dataclasses.replace(cfg, output_path=str(path), output_format="csv"))
    for name, codes in forced.items():
        # the recursion codes its batches, and linsys the composition tables
        for module in (experiments, linsys):
            monkeypatch.setattr(module, "_class_codes", codes)
        out = tmp_path / f"{name}.csv"
        report = run_exhaustive(dataclasses.replace(cfg, output_path=str(out), output_format="csv"))
        assert report.case_count > 1000 and report.violation_count == 0
        assert out.read_bytes() == path.read_bytes()


def test_class_recursion_groups_classes_past_the_int64_factor_bound():
    # an invariant factor of this graph passes 2^63, so its class codes
    # are Python ints; the recursion groups and solves its classes as on
    # any other graph
    G = cf.random_connected_graph(24, 0)
    assert linsys._class_codes(G, np.zeros((1, 24), dtype=np.int64)).dtype == object
    eye = np.eye(24, dtype=np.int64)
    L = cf.laplacian(G)
    reps = np.vstack([2 * eye[0], 2 * eye[0] + L[:, 3], eye[0] + eye[1], eye[5], eye[0] - eye[1]])
    got = experiments._recurse_classes(G, None, reps)[:, 0].tolist()
    assert got == [cf.rank(G, Divisor(tuple(r))).rank for r in reps.tolist()] == [0, 0, 0, 0, -1]
