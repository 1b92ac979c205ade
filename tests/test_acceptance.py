"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Each test prints exactly one line of the form

    ACCEPTANCE <k> <slug>: PASS (<counts and timing>)

before asserting, so the suite output doubles as a checklist.  Runtime
budgets are asserted alongside correctness; the limits are deliberate
tolerances, not aspirations, and every check here runs well inside them
on one desktop core.
"""

import hashlib
import itertools
import json
import subprocess
import sys
import time

import chipfire as cf
from chipfire import (
    Divisor,
    ExperimentConfig,
    ToricConfig,
    ToricMemo,
    build_constraint_matrix,
    constraint_matrix_from_pattern,
    derive_seed,
    kernel_basis,
    matrix_rank,
    random_connected_graph,
    random_effective_divisor,
    run_exhaustive,
    toric_effective_test,
    toric_rank,
    verify_rr_toric,
)

from .helpers import (
    all_connected_simple_graphs,
    brute_members,
    connected_multigraphs_up_to_iso,
    cycle_with_pendant_path,
    trees_up_to_iso,
)


def _report(criterion: int, slug: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {slug}: {verdict} ({detail})")
    assert ok, f"acceptance criterion {criterion} ({slug}) failed: {detail}"


class _MemberKeyedRanks:
    """Rank cache keyed by the member tuple of the linear system.

    The rank scan consumes nothing but the member set, so two divisors
    with the same complete linear system (on any graph) have the same
    rank.  This turns a window sweep with heavy equivalence overlap into
    a handful of distinct scans.
    """

    def __init__(self, fn):
        self.fn = fn
        self.cache = {}

    def __call__(self, G, D):
        key = cf.linear_system(G, D).divisors
        got = self.cache.get(key)
        if got is None:
            got = self.fn(G, D).rank
            self.cache[key] = got
        return got


def test_criterion_1_rr_identity_exact():
    t0 = time.perf_counter()
    graphs = [G for n in range(1, 5) for G in all_connected_simple_graphs(n)]
    crank = _MemberKeyedRanks(cf.rank)
    cases = 0
    violations = 0
    for G in graphs:
        g = cf.genus(G)
        K = cf.canonical_divisor(G)
        for coeffs in itertools.product(range(-2, 3), repeat=G.n):
            D = Divisor(coeffs)
            if crank(G, D) - crank(G, K - D) != cf.degree(D) + 1 - g:
                violations += 1
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and len(graphs) == 44 and cases == 24280 and elapsed < 120
    _report(
        1,
        "rr-identity-exact",
        ok,
        f"{len(graphs)} graphs, {cases} cases, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_linear_system_oracle():
    t0 = time.perf_counter()
    graphs = connected_multigraphs_up_to_iso(4, 2)
    cases = 0
    mismatches = 0
    for G in graphs:
        for coeffs in itertools.product(range(-2, 3), repeat=G.n):
            expected = brute_members(G, coeffs, radius=10)
            got = {d.coeffs for d in cf.linear_system(G, coeffs)}
            if got != expected:
                mismatches += 1
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and len(graphs) == 63 and cases == 34055 and elapsed < 60
    _report(
        2,
        "linear-system-oracle",
        ok,
        f"{len(graphs)} multigraphs, {cases} cases, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_toric_rr_trees():
    t0 = time.perf_counter()
    trees = [T for n in range(1, 7) for T in trees_up_to_iso(n)]
    cfg = ToricConfig()  # default prime (first past 1e10), 3 trials
    cases = 0
    violations = 0
    spot_checks = 0
    for T in trees:
        memo = ToricMemo(T, cfg)
        K = cf.canonical_divisor(T)
        trank = _MemberKeyedRanks(lambda G, D: toric_rank(G, D, cfg, memo))
        for d in range(4):
            for D in cf.non_effective_divisors_of_degree(T.n, d, 2):
                rt = trank(T, D)
                rt_dual = trank(T, K - D)
                if rt != d or rt - rt_dual != d + 1:
                    violations += 1
                if cases % 997 == 0:  # direct end-to-end spot checks
                    spot_checks += 1
                    if not verify_rr_toric(T, D, cfg, memo):
                        violations += 1
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and len(trees) == 14 and cases == 153556 and elapsed < 300
    _report(
        3,
        "toric-rr-trees",
        ok,
        f"{len(trees)} trees, {cases} cases, {spot_checks} direct identity calls, "
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_4_toric_rr_genus_one():
    t0 = time.perf_counter()
    graphs = [cycle_with_pendant_path(k, plen) for k in range(3, 7) for plen in (0, 1, 2)]
    cfg = ToricConfig()
    cases = 0
    violations = 0
    for G in graphs:
        assert cf.genus(G) == 1
        window = 2 if G.n <= 6 else 1  # n = 7, 8 get the tighter window
        memo = ToricMemo(G, cfg)
        K = cf.canonical_divisor(G)
        trank = _MemberKeyedRanks(lambda H, D: toric_rank(H, D, cfg, memo))
        for d in range(-2, 2):
            for D in cf.non_effective_divisors_of_degree(G.n, d, window):
                rt = trank(G, D)
                rt_dual = trank(G, K - D)
                if rt - rt_dual != d:  # identity at genus 1
                    violations += 1
                if d == 1 and rt != 0:
                    violations += 1
                # closed form max(deg E - g, -1), for E = D and K - D
                if (rt, rt_dual) != (max(d - 1, -1), max(-d - 1, -1)):
                    violations += 1
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and len(graphs) == 12 and cases == 33165 and elapsed < 300
    _report(
        4,
        "toric-rr-genus-one",
        ok,
        f"{len(graphs)} graphs, {cases} cases, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_5_degree_g_certificates():
    t0 = time.perf_counter()
    certificates = 0
    structure_ok = 0
    self_passes = 0
    max_scanned = 0
    for case in range(50):
        n = 5 + derive_seed(3255, "n", case) % 4
        G = random_connected_graph(n, derive_seed(3255, "graph", case))
        g = cf.genus(G)
        D = random_effective_divisor(n, g, derive_seed(3255, "divisor", case))
        cfg = ToricConfig(seed=derive_seed(3255, "matrix", case), trials=1)
        members = cf.linear_system(G, D).divisors
        witness = None
        for scanned, m in enumerate(members, start=1):
            out = toric_effective_test(G, m, cfg)
            if out.passed:
                witness = (m, out, scanned)
                break
        if witness is None:
            continue
        m, out, scanned = witness
        certificates += 1
        max_scanned = max(max_scanned, scanned)
        if scanned == 1 and m == D:
            self_passes += 1
        M = build_constraint_matrix(G, m, out.sample_seed, prime=cfg.prime)
        if (
            out.kernel_dim >= 1
            and all(out.per_block_support)
            and M.n_cols == cf.degree(D) + n
            and M.n_rows == n + g - 1
        ):
            structure_ok += 1
    elapsed = time.perf_counter() - t0
    ok = certificates == 50 and structure_ok == 50 and elapsed < 300
    _report(
        5,
        "degree-g-certificates",
        ok,
        f"{certificates}/50 certificates, {structure_ok}/50 structural counts, "
        f"{self_passes} base divisors passed directly, "
        f"longest scan {max_scanned} members, {elapsed:.1f}s",
    )


# sha256 of the criterion-6 CSV report; any change to a case, a verdict
# or the report format changes it
CRITERION_6_SHA256 = "d1668ffa4bff1b97700cebf34aedc55f718a20c0e1817689a5ac51bb326a1eca"


def test_criterion_6_exhaustive_sweep(tmp_path):
    t0 = time.perf_counter()
    out_path = tmp_path / "sweep.csv"
    config = ExperimentConfig(
        mode="exhaustive",
        max_vertices=6,
        genus_min=1,
        genus_max=3,
        seed=0,
        output_format="csv",
        output_path=str(out_path),
        workers=1,
    )
    report = run_exhaustive(config)
    # the report is about 184 MB: hash it in chunks, read the trailer off its end
    digest = hashlib.sha256()
    with out_path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
        f.seek(-4096, 2)
        trailer = f.read().decode().rstrip().rsplit("\n", 1)[-1]
    elapsed = time.perf_counter() - t0
    ok = (
        report.violation_count == 0
        and report.anomaly_count == 0
        and len(report.graphs) == 136
        and report.case_count == 3767284
        and "violations=0" in trailer
        and trailer.startswith("# summary")
        and digest.hexdigest() == CRITERION_6_SHA256
        and elapsed < 1800
    )
    _report(
        6,
        "exhaustive-sweep-genus-le-3",
        ok,
        f"{len(report.graphs)} graphs, {report.case_count} cases, "
        f"{report.violation_count} violations, {report.anomaly_count} anomalies, "
        f"{elapsed:.0f}s",
    )


STAR_PATTERN = (
    (1, 1, 1, 0, 0, 0),
    (1, 0, 0, 1, 1, 0),
    (0, 1, 1, 1, 1, 0),
    (0, 1, 1, 0, 0, 1),
    (0, 0, 0, 1, 1, 1),
)


def test_criterion_7_star_pattern_fixture():
    t0 = time.perf_counter()
    good = 0
    for s in range(100):
        M = constraint_matrix_from_pattern(STAR_PATTERN, derive_seed("star", s))
        basis = kernel_basis(M)
        if (
            matrix_rank(M) == 5
            and len(basis) == 1
            and all(any(vec[c] for vec in basis) for c in range(6))
        ):
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good == 100 and elapsed < 60
    _report(
        7,
        "star-pattern-rank",
        ok,
        f"{good}/100 seeds gave rank 5, kernel dim 1, all blocks supported, {elapsed:.2f}s",
    )


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "chipfire", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    checks = []

    def run_variants(base_args: list[str], variants: list[list[str]], stem: str) -> None:
        blobs = []
        outs = []
        for i, extra in enumerate(variants):
            path = tmp_path / f"{stem}{i}.out"
            proc = _run_cli(base_args + extra + ["--out", str(path)])
            assert proc.returncode == 0, proc.stderr
            blobs.append(path.read_bytes())
            outs.append(proc.stdout)
        checks.append(len(set(blobs)) == 1 and len(set(outs)) == 1)

    exhaustive = [
        "exhaustive",
        "--max-vertices", "4",
        "--genus-min", "1",
        "--genus-max", "2",
        "--max-multiplicity", "2",
        "--seed", "7",
    ]
    run_variants(
        exhaustive + ["--format", "json"],
        [[], [], ["--workers", "2"]],
        "exh-json",
    )
    run_variants(exhaustive + ["--format", "csv"], [[], ["--workers", "3"]], "exh-csv")
    sweep = [
        "random-sweep",
        "--cases", "3",
        "--min-genus", "2",
        "--n-min", "4",
        "--n-max", "5",
        "--seed", "11",
        "--trials", "1",
        "--format", "json",
    ]
    run_variants(sweep, [[], []], "sweep")
    elapsed = time.perf_counter() - t0
    ok = all(checks) and len(checks) == 3
    _report(
        8,
        "cli-byte-determinism",
        ok,
        f"{sum(checks)}/{len(checks)} invocation families byte-identical "
        f"(reruns and worker counts), {elapsed:.1f}s",
    )
