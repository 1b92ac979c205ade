"""Command-line interface.

Single-case verifiers print one JSON object on stdout; sweep drivers
write a report file and print the summary JSON on stdout.  Exit codes:

* 0: every checked identity held;
* 1: a violation was found (the reproducer is dumped to stderr);
* 2: bad input: configuration, graph file, divisor, placement or I/O;
* 3: internal error, any other exception; its traceback goes to stderr.

Wall-clock timing goes to stderr only, so stdout and report files
are byte-stable for a fixed seed.

Graph files are JSON: either {"adj": [[...]]} (optionally with "n") or a
bare adjacency matrix [[...]].  Divisors on the command line are
comma-separated integers, one per vertex.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict, fields
from functools import partial

from .experiments import (
    _FORMATS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    encode_adjacency,
    run_exhaustive,
    run_random_sweep,
)
from .graphs import Divisor, InvalidGraphError, Multigraph, PlacementError, canonical_divisor
from .rank import _rr_residual, rank
from .toric import _TORIC_MODES, ToricMemo, toric_rank

__all__ = ["main", "run"]


# divisors go through int64 arrays, and rank reads their degree as one;
# Multigraph bounds vertex degrees, and so adjacency entries, itself
_INT64 = range(-(1 << 63), 1 << 63)


def _load_graph(path: str) -> Multigraph:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError:
        raise ConfigError(f"graph file {path} is not UTF-8 text")
    if isinstance(data, dict):
        if "adj" not in data:
            raise ConfigError(f"graph file {path} has no 'adj' key")
        adj = data["adj"]
    elif isinstance(data, list):
        adj = data
    else:
        raise ConfigError(f"graph file {path} must hold an object or a matrix")
    if not isinstance(adj, list) or not all(isinstance(row, list) for row in adj):
        raise ConfigError(f"graph file {path}: adjacency must be a list of rows")
    # "n", when given, is the row count as a JSON integer: not true, not 2.0
    n = data.get("n", len(adj)) if isinstance(data, dict) else len(adj)
    if type(n) is not int or n != len(adj):
        raise ConfigError(f"graph file {path}: 'n'={n!r} but adjacency has {len(adj)} rows")
    return Multigraph.from_adjacency(adj)


def _parse_divisor(text: str, n: int) -> Divisor:
    try:
        coeffs = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"divisor {text!r} is not a comma-separated integer list")
    if len(coeffs) != n:
        raise ConfigError(f"divisor has {len(coeffs)} entries, graph has {n} vertices")
    return _check_int64(Divisor(coeffs), f"divisor {text!r}")


def _check_int64(D: Divisor, what: str) -> Divisor:
    if any(c not in _INT64 for c in D.coeffs) or sum(D.coeffs) not in _INT64:
        raise ConfigError(f"{what} has an entry or degree outside the int64 range")
    return D


def _config(args: argparse.Namespace, **fixed) -> ExperimentConfig:
    """The validated run configuration: every parsed flag whose dest
    names an ExperimentConfig field, plus the given fixed fields."""
    names = {f.name for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names}, **fixed)
    cfg.validate()
    return cfg


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="path to a JSON graph file")
    p.add_argument("--divisor", required=True, help="comma-separated coefficients")


def _add_toric_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime", type=int, help="field modulus (default: first prime past 1e10)")
    p.add_argument("--trials", type=int)
    p.add_argument("--mode", dest="toric_mode", choices=_TORIC_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--nonzero-entries", action="store_true")


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--toric", action=argparse.BooleanOptionalAction)
    p.add_argument("--out", dest="output_path", metavar="OUT", help="report file path")
    p.add_argument("--format", dest="output_format", choices=_FORMATS)
    _add_toric_args(p)


def _cmd_rank(args: argparse.Namespace, toric: bool) -> int:
    G = _load_graph(args.graph)
    D = _parse_divisor(args.divisor, G.n)
    res = toric_rank(G, D, _config(args).toric_config()) if toric else rank(G, D)
    prefix = "toric_" if toric else ""
    _emit({f"{prefix}rank": res.rank, "witness_failure": list(res.witness_failure.coeffs)})
    return 0


def _reproducer(G: Multigraph, D: Divisor, extra: dict | None = None) -> None:
    obj = {"graph": encode_adjacency(G), "divisor": list(D.coeffs)}
    if extra:
        obj.update(extra)
    print("violation " + json.dumps(obj, separators=(",", ":")), file=sys.stderr)


def _cmd_rr_check(args: argparse.Namespace, toric: bool) -> int:
    G = _load_graph(args.graph)
    D = _parse_divisor(args.divisor, G.n)
    _check_int64(canonical_divisor(G) - D, "K - D")
    if toric:
        cfg = _config(args).toric_config()
        memo = ToricMemo(G, cfg)
        r, r_dual, residual = _rr_residual(G, D, lambda E: toric_rank(G, E, cfg, memo).rank)
    else:
        r, r_dual, residual = _rr_residual(G, D, lambda E: rank(G, E).rank)
    prefix = "toric_" if toric else ""
    out = {
        "holds": residual == 0,
        f"{prefix}rank": r,
        f"{prefix}rank_dual": r_dual,
        "residual": residual,
    }
    if toric:
        out["trial_disagreements"] = len(memo.trial_disagreements())
    _emit(out)
    if residual != 0:
        _reproducer(G, D, asdict(cfg) if toric else None)
        return 1
    return 0


def _finish_driver(report: ExperimentReport) -> int:
    _emit(report.summary)
    print(f"wall_clock_seconds={report.wall_clock_seconds:.3f}", file=sys.stderr)
    if report.violation_count:
        settings = asdict(report.config.toric_config())
        for rec in report.violations[:20]:
            _reproducer(report.graphs[rec.graph_id], Divisor(rec.divisor), settings)
        return 1
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    return _finish_driver(run_exhaustive(_config(args, mode="exhaustive")))


def _cmd_random_sweep(args: argparse.Namespace) -> int:
    return _finish_driver(run_random_sweep(_config(args, mode="random-sweep")))


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser.  An omitted flag leaves its dest unset, so
    the defaults live in ExperimentConfig and ToricConfig alone."""
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing divisor ranks and toric rank experiments on multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    for name, handler, toric, help_text in (
        ("rank", _cmd_rank, False, "Baker-Norine rank of a divisor"),
        ("toric-rank", _cmd_rank, True, "toric rank over a generic graph curve"),
        ("rr-check", _cmd_rr_check, False, "verify the Riemann-Roch identity for one divisor"),
        ("toric-rr-check", _cmd_rr_check, True, "verify toric Riemann-Roch for one divisor"),
    ):
        p = add(name, help=help_text)
        _add_graph_args(p)
        if toric:
            _add_toric_args(p)
        p.set_defaults(func=partial(handler, toric=toric))

    p = add("exhaustive", help="sweep all 2-core graphs and divisor windows in range")
    p.add_argument("--max-vertices", type=int)
    p.add_argument("--genus-min", type=int)
    p.add_argument("--genus-max", type=int)
    p.add_argument("--degree-min", type=int)
    p.add_argument("--degree-max", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--max-multiplicity", type=int)
    p.add_argument("--workers", type=int)
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_exhaustive)

    p = add("random-sweep", help="random high-genus spot checks")
    p.add_argument("--cases", type=int)
    p.add_argument("--min-genus", type=int)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_random_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidGraphError, PlacementError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def run() -> None:
    sys.exit(main(sys.argv[1:]))
