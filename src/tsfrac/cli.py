"""Command-line harness: convergence studies, solver comparisons, diagnostics.

Subcommands
-----------
convergence-time    error/rate table over a doubling list of M (N coupled)
convergence-space   error/rate table over a doubling list of N (M coupled)
solver-compare      scheme x solver matrix at one grid size
spectrum            dense eigenvalue / singular-value listing at one level
soe-check           kernel-compression error profile over a log grid
soe-nodes           CSV dump of the SOE nodes and weights
ifl-column          CSV dump of the Toeplitz first column

Output is CSV on stdout by default (```--format json`` wraps rows plus the
config); every table is preceded by ``#`` comment lines echoing the full
configuration so each row is reproducible from the file alone.  Errors are
printed with 4 significant digits, rates with 3 decimals.  Exit code 0 on
success, nonzero on any run failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import couplings, spectrum
from .ifl import build_ifl
from .mesh import build_mesh
from .problems import make_case
from .scheme import SolverOptions, _level_shift, run_dids, run_fids
from .soe import build_soe

DEFAULT_EPS = {"example1": 1e-10, "example2": 1e-9}


@dataclass
class RunConfig:
    subcommand: str
    case: str = "example1"
    gamma: float = 0.5
    alpha: float = 1.5
    r: float = 2.0
    mu: Optional[float] = None          # None -> 1 + alpha/2
    M: list[int] = field(default_factory=list)
    N: list[int] = field(default_factory=list)
    coupling: str = "time2"             # time2 | timemu | space2 | spacemu
    scheme: str = "fids"
    solver: str = "auto"
    epsilon: Optional[float] = None     # None -> per-case default
    tol: float = 1e-10
    out: Optional[str] = None
    format: str = "csv"
    level: Optional[int] = None
    kappa_const: Optional[float] = None
    delta: Optional[float] = None
    T: float = 1.0
    points: int = 10_000
    time_reps: int = 1

    def resolved_mu(self) -> float:
        return 1.0 + self.alpha / 2.0 if self.mu is None else self.mu

    def resolved_eps(self) -> float:
        return DEFAULT_EPS[self.case] if self.epsilon is None else self.epsilon


def _fmt_err(v) -> str:
    return "" if v is None else f"{v:.3e}"


def _fmt_rate(v) -> str:
    return "" if v is None else f"{v:.3f}"


class Table:
    def __init__(self, columns: list[str]):
        self.columns = columns
        self.rows: list[list[str]] = []
        self.meta: dict[str, str] = {}

    def add(self, *values):
        self.rows.append([str(v) for v in values])


def _emit(config: RunConfig, table: Table) -> str:
    cfg = {k: v for k, v in asdict(config).items() if v not in (None, [])}
    if config.format == "json":
        payload = {"config": cfg, "meta": table.meta, "columns": table.columns,
                   "rows": [dict(zip(table.columns, row)) for row in table.rows]}
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {k} = {v}" for k, v in sorted(cfg.items())]
    lines.extend(f"# {k} = {v}" for k, v in table.meta.items())
    lines.append(",".join(table.columns))
    lines.extend(",".join(row) for row in table.rows)
    return "\n".join(lines) + "\n"


def _run_scheme(config: RunConfig, scheme: str, M: int, N: int, solver: str):
    case = make_case(config.case, config.alpha, config.gamma, T=config.T)
    options = SolverOptions(solver=solver, tol=config.tol)
    kwargs = dict(mu=config.resolved_mu(), options=options)
    reps = max(1, config.time_reps)
    best_wall = math.inf
    for _ in range(reps):
        if scheme == "dids":
            _, report = run_dids(case.spec, M, config.r, N, **kwargs)
        else:
            _, report = run_fids(case.spec, M, config.r, N,
                                 epsilon=config.resolved_eps(), **kwargs)
        best_wall = min(best_wall, report.wall_time)
    report.wall_time = best_wall
    return report


_CONV_COLUMNS = ["M", "N", "err_inf", "rate_inf", "err_2", "rate_2",
                 "avg_its", "wall_s"]


def _coupling_q(config: RunConfig) -> float:
    return 2.0 if config.coupling.endswith("2") else config.resolved_mu()


def cmd_convergence(config: RunConfig) -> Table:
    """convergence-time doubles M and couples N(M); convergence-space doubles
    N and couples M(N)."""
    q = _coupling_q(config)
    in_time = config.subcommand == "convergence-time"
    sizes = config.M if in_time else config.N
    if not sizes:
        raise ValueError(f"{config.subcommand} needs {'--M' if in_time else '--N'} "
                         f"(comma-separated doubling list)")
    table = Table(_CONV_COLUMNS)
    prev = (None, None)
    for size in sizes:
        if in_time:
            M, N = size, couplings.n_from_m(size, config.r, config.gamma, q)
        else:
            M, N = couplings.m_from_n(size, config.r, config.gamma, q), size
        report = _run_scheme(config, config.scheme, M, N, config.solver)
        rate_inf = couplings.rate(prev[0], report.err_inf) if prev[0] else None
        rate_2 = couplings.rate(prev[1], report.err_2) if prev[1] else None
        table.add(M, N, _fmt_err(report.err_inf), _fmt_rate(rate_inf),
                  _fmt_err(report.err_2), _fmt_rate(rate_2),
                  f"{report.avg_iterations:.1f}", f"{report.wall_time:.3f}")
        prev = (report.err_inf, report.err_2)
    return table


def cmd_solver_compare(config: RunConfig) -> Table:
    if not config.N:
        raise ValueError("solver-compare needs --N")
    N = config.N[0]
    q = _coupling_q(config)
    M = config.M[0] if config.M else couplings.m_from_n(N, config.r, config.gamma, q)
    table = Table(["scheme", "solver", "M", "N", "err_inf", "err_2",
                   "avg_its", "wall_s"])
    for scheme in ("dids", "fids"):
        for solver in ("direct", "krylov", "pkrylov"):
            report = _run_scheme(config, scheme, M, N, solver)
            table.add(scheme, solver, M, N, _fmt_err(report.err_inf),
                      _fmt_err(report.err_2), f"{report.avg_iterations:.1f}",
                      f"{report.wall_time:.3f}")
    return table


def cmd_spectrum(config: RunConfig) -> Table:
    if not config.N:
        raise ValueError("spectrum needs --N")
    N = config.N[0]
    if N - 1 > spectrum.DENSE_SPECTRUM_CAP:
        raise ValueError(f"spectrum diagnostics capped at N-1 <= "
                         f"{spectrum.DENSE_SPECTRUM_CAP}")
    q = _coupling_q(config)
    M = config.M[0] if config.M else couplings.m_from_n(N, config.r, config.gamma, q)
    level = config.level if config.level is not None else M
    if not 1 <= level <= M:
        raise ValueError(f"--level must lie in [1, {M}], got {level}")
    mesh = build_mesh(M, config.r, config.T)
    shift = _level_shift(mesh, config.gamma, level)
    disc = build_ifl(config.alpha, config.resolved_mu(), 1.0, N)
    x = disc.interior_points()

    if config.kappa_const is not None:
        orig = spectrum.system_eigenvalues(disc, shift, config.kappa_const)
        prec = spectrum.preconditioned_eigenvalues(disc, shift, config.kappa_const)
        table = Table(["index", "eig_original", "eig_preconditioned"])
        table.meta["shift"] = f"{shift:.6e}"
        for i, (a, b) in enumerate(zip(orig, prec)):
            table.add(i, f"{a:.12e}", f"{b:.12e}")
        return table

    case = make_case(config.case, config.alpha, config.gamma, T=config.T)
    kappa = np.asarray(case.spec.kappa(x, mesh.t[level]), dtype=float)
    sv = spectrum.preconditioned_singular_values(disc, shift, kappa)
    summary = spectrum.gershgorin_summary(spectrum.dense_system(disc, shift, kappa))
    table = Table(["index", "sv_preconditioned"])
    table.meta["shift"] = f"{shift:.6e}"
    for k, v in summary.items():
        table.meta[f"gershgorin_{k}"] = f"{v:.6e}"
    for i, v in enumerate(sv):
        table.add(i, f"{v:.12e}")
    return table


def cmd_soe_check(config: RunConfig) -> Table:
    eps = config.resolved_eps()
    delta = config.delta if config.delta is not None else (1.0 / 256.0) ** config.r
    soe = build_soe(config.gamma, eps, delta, config.T)
    t = np.logspace(math.log10(delta), math.log10(config.T), config.points)
    err = np.abs(t ** (-config.gamma) - soe.evaluate(t))
    table = Table(["t", "abs_error"])
    table.meta["n_exp"] = str(soe.n_exp)
    table.meta["sup_error"] = f"{err.max():.3e}"
    for ti, ei in zip(t, err):
        table.add(f"{ti:.6e}", f"{ei:.3e}")
    return table


def cmd_soe_nodes(config: RunConfig) -> Table:
    eps = config.resolved_eps()
    delta = config.delta if config.delta is not None else (1.0 / 256.0) ** config.r
    soe = build_soe(config.gamma, eps, delta, config.T)
    table = Table(["node", "weight"])
    for s, w in zip(soe.nodes, soe.weights):
        table.add(f"{s:.16e}", f"{w:.16e}")
    return table


def cmd_ifl_column(config: RunConfig) -> Table:
    if not config.N:
        raise ValueError("ifl-column needs --N")
    disc = build_ifl(config.alpha, config.resolved_mu(), 1.0, config.N[0])
    table = Table(["k", "first_col"])
    for k, v in enumerate(disc.first_col, start=1):
        table.add(k, f"{v:.16e}")
    return table


_COMMANDS = {
    "convergence-time": cmd_convergence,
    "convergence-space": cmd_convergence,
    "solver-compare": cmd_solver_compare,
    "spectrum": cmd_spectrum,
    "soe-check": cmd_soe_check,
    "soe-nodes": cmd_soe_nodes,
    "ifl-column": cmd_ifl_column,
}


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsfrac",
        description="benchmarks for the fractional-diffusion difference schemes",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--case", choices=("example1", "example2"), default="example1")
        p.add_argument("--gamma", type=float, default=0.5)
        p.add_argument("--alpha", type=float, default=1.5)
        p.add_argument("--r", type=float, default=2.0)
        p.add_argument("--mu", type=float, default=None,
                       help="splitting parameter; default 1 + alpha/2")
        p.add_argument("--M", type=_int_list, default=[],
                       help="comma-separated time-step counts")
        p.add_argument("--N", type=_int_list, default=[],
                       help="comma-separated spatial interval counts")
        p.add_argument("--coupling",
                       choices=("time2", "timemu", "space2", "spacemu"),
                       default=None)
        p.add_argument("--scheme", choices=("dids", "fids"), default="fids")
        p.add_argument("--solver", choices=("auto", "direct", "krylov", "pkrylov"),
                       default="auto")
        p.add_argument("--eps", dest="epsilon", type=float, default=None,
                       help="SOE tolerance; default 1e-10 (example1) / 1e-9 (example2)")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--level", type=int, default=None)
        p.add_argument("--kappa-const", dest="kappa_const", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--T", type=float, default=1.0)
        p.add_argument("--points", type=int, default=10_000)
        p.add_argument("--time-reps", dest="time_reps", type=int, default=1)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    coupling = args.coupling
    if coupling is None:
        coupling = "space2" if args.subcommand == "convergence-space" else "time2"
    return RunConfig(
        subcommand=args.subcommand, case=args.case, gamma=args.gamma,
        alpha=args.alpha, r=args.r, mu=args.mu, M=args.M, N=args.N,
        coupling=coupling, scheme=args.scheme, solver=args.solver,
        epsilon=args.epsilon, tol=args.tol, out=args.out, format=args.format,
        level=args.level, kappa_const=args.kappa_const,
        delta=args.delta, T=args.T, points=args.points, time_reps=args.time_reps,
    )


def run_command(config: RunConfig) -> str:
    table = _COMMANDS[config.subcommand](config)
    return _emit(config, table)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        text = run_command(config)
    except Exception as exc:  # any run failure -> nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
