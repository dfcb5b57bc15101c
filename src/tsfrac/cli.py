"""Command-line harness: convergence studies, solver comparisons, diagnostics.

Subcommands, and the flags each takes besides --out and --format
----------------------------------------------------------------
convergence-time    error/rate table over a doubling list --M, N coupled
convergence-space   the same over a doubling list --N, M coupled; both take
                    --case --gamma --alpha --r --mu --coupling --scheme
                    --solver --eps --tol --T --time-reps
solver-compare      scheme x solver matrix at one grid --N [--M]; the flags
                    above but --scheme and --solver
spectrum            dense spectra at one --level of one grid --N [--M]; --case
                    --gamma --alpha --r --mu --coupling --kappa-const --T
soe-check           kernel-compression error profile over a log grid, absolute
                    and relative, of the SOE to the relative --eps a FIDS run
                    asks for;
                    --case --gamma --r --eps --delta --T --points
soe-nodes           SOE nodes and weights; soe-check's flags but --points
ifl-column          CSV dump of the Toeplitz first column; --alpha --mu --N

Output is CSV on stdout by default (``--format json`` wraps rows plus the
config); every table is preceded by ``#`` comment lines echoing the full
configuration so each row is reproducible from the file alone.  CSV rows
are written as they finish; a row that fails ends the table, the rows
before it standing (JSON adds an ``error`` field), and the error goes to
stderr.  Errors are printed with 4 significant digits, rates with 3
decimals.  Exit code 0 on success, 1 on a run failure, 2 on a flag the
subcommand does not take.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable, Optional

import numpy as np

from . import couplings, spectrum
from .ifl import build_ifl, splitting_parameter
from .mesh import build_mesh, gamma_factor, level_shift
from .problems import make_case
from .scheme import SOLVERS, SolverOptions, run_dids, run_fids
from .soe import build_soe

DEFAULT_EPS = {"example1": 1e-10, "example2": 1e-9}


def resolved_mu(config: argparse.Namespace) -> float:
    return splitting_parameter(config.alpha, config.mu)


def resolved_eps(config: argparse.Namespace) -> float:
    return DEFAULT_EPS[config.case] if config.epsilon is None else config.epsilon


def _fmt_err(v) -> str:
    return "" if v is None else f"{v:.3e}"


def _fmt_rate(v) -> str:
    return "" if v is None else f"{v:.3f}"


class Table:
    """Columns, meta lines and rows; ``rows`` may be a generator that solves
    each row as it is read, so the table is written as its rows finish."""

    def __init__(self, columns: list[str], rows: Iterable = ()):
        self.columns = columns
        self.rows = rows
        self.meta: dict[str, str] = {}


def _emit(config: argparse.Namespace, table: Table, write) -> Optional[Exception]:
    """Write ``table`` through ``write`` and return the error of a row that
    failed, if one did.  CSV goes out row by row, the ``#`` echo with the
    first row; JSON goes out at the end, with an ``error`` field after a
    failure.  When the first row fails, nothing is written."""
    cfg = {k: v for k, v in vars(config).items() if v not in (None, [])}
    rows, error = [], None
    try:
        for values in table.rows:
            rows.append([str(v) for v in values])
            if config.format == "csv":
                if len(rows) == 1:
                    write(_csv_header(cfg, table))
                write(",".join(rows[-1]) + "\n")
    except Exception as exc:  # a row failed: the rows before it stand
        error = exc
    if rows or error is None:
        if config.format == "json":
            payload = {"config": cfg, "meta": table.meta, "columns": table.columns,
                       "rows": [dict(zip(table.columns, row)) for row in rows]}
            if error is not None:
                payload["error"] = str(error)
            write(json.dumps(payload, indent=2) + "\n")
        elif not rows:
            write(_csv_header(cfg, table))
    return error


def _csv_header(cfg: dict, table: Table) -> str:
    lines = [f"# {k} = {v}" for k, v in sorted(cfg.items())]
    lines.extend(f"# {k} = {v}" for k, v in table.meta.items())
    lines.append(",".join(table.columns))
    return "\n".join(lines) + "\n"


def _run_scheme(config: argparse.Namespace, scheme: str, M: int, N: int, solver: str):
    if config.time_reps < 1:
        raise ValueError(f"--time-reps must be >= 1, got {config.time_reps}")
    case = make_case(config.case, config.alpha, config.gamma, T=config.T)
    options = SolverOptions(solver=solver, tol=config.tol)
    kwargs = dict(mu=resolved_mu(config), options=options)
    best_wall = math.inf
    for _ in range(config.time_reps):
        if scheme == "dids":
            _, report = run_dids(case.spec, M, config.r, N, **kwargs)
        else:
            _, report = run_fids(case.spec, M, config.r, N,
                                 epsilon=resolved_eps(config),
                                 keep_history=False, **kwargs)
        best_wall = min(best_wall, report.wall_time)
    report.wall_time = best_wall
    return report


_CONV_COLUMNS = ["M", "N", "err_inf", "rate_inf", "err_2", "rate_2",
                 "avg_its", "wall_s"]


def _coupling_q(config: argparse.Namespace) -> float:
    return 2.0 if config.coupling == "2" else resolved_mu(config)


def cmd_convergence(config: argparse.Namespace) -> Table:
    """convergence-time doubles M and couples N(M); convergence-space doubles
    N and couples M(N)."""
    q = _coupling_q(config)
    in_time = config.subcommand == "convergence-time"
    sizes = config.M if in_time else config.N
    if not sizes:
        raise ValueError(f"{config.subcommand} needs {'--M' if in_time else '--N'} "
                         f"(comma-separated doubling list)")
    # every grid is resolved, and a bad size reported, before the first solve
    grids = [(size, couplings.n_from_m(size, config.r, config.gamma, q)) if in_time
             else (couplings.m_from_n(size, config.r, config.gamma, q), size)
             for size in sizes]

    def rows():
        prev = (None, None)
        for M, N in grids:
            report = _run_scheme(config, config.scheme, M, N, config.solver)
            rate_inf = couplings.rate(prev[0], report.err_inf) if prev[0] else None
            rate_2 = couplings.rate(prev[1], report.err_2) if prev[1] else None
            yield (M, N, _fmt_err(report.err_inf), _fmt_rate(rate_inf),
                   _fmt_err(report.err_2), _fmt_rate(rate_2),
                   f"{report.avg_iterations:.1f}", f"{report.wall_time:.3f}")
            prev = (report.err_inf, report.err_2)

    return Table(_CONV_COLUMNS, rows())


def _one_grid(config: argparse.Namespace) -> tuple[int, int]:
    """(N, M) from --N and --M; M defaults to the coupled M(N)."""
    if config.N is None:
        raise ValueError(f"{config.subcommand} needs --N")
    if config.M is not None:
        return config.N, config.M
    q = _coupling_q(config)
    return config.N, couplings.m_from_n(config.N, config.r, config.gamma, q)


def cmd_solver_compare(config: argparse.Namespace) -> Table:
    N, M = _one_grid(config)

    def rows():
        for scheme in ("dids", "fids"):
            # auto picks one of the others
            for solver in (tag for tag in SOLVERS if tag != "auto"):
                report = _run_scheme(config, scheme, M, N, solver)
                yield (scheme, solver, M, N, _fmt_err(report.err_inf),
                       _fmt_err(report.err_2), f"{report.avg_iterations:.1f}",
                       f"{report.wall_time:.3f}")

    return Table(["scheme", "solver", "M", "N", "err_inf", "err_2", "avg_its",
                  "wall_s"], rows())


def cmd_spectrum(config: argparse.Namespace) -> Table:
    N, M = _one_grid(config)
    # before the coupled M, which grows like N^2, sizes the mesh
    spectrum.check_order(N - 1)
    level = config.level if config.level is not None else M
    if not 1 <= level <= M:
        raise ValueError(f"--level must lie in [1, {M}], got {level}")
    mesh = build_mesh(M, config.r, config.T)
    shift = level_shift(mesh, config.gamma, level, gamma_factor(config.gamma))
    disc = build_ifl(config.alpha, resolved_mu(config), 1.0, N)
    x, col = disc.interior_points(), disc.first_col

    if config.kappa_const is not None:
        orig = spectrum.system_eigenvalues(col, shift, config.kappa_const)
        prec = spectrum.preconditioned_eigenvalues(col, shift, config.kappa_const)
        table = Table(["index", "eig_original", "eig_preconditioned"],
                      [(i, f"{a:.12e}", f"{b:.12e}")
                       for i, (a, b) in enumerate(zip(orig, prec))])
        table.meta["shift"] = f"{shift:.6e}"
        return table

    case = make_case(config.case, config.alpha, config.gamma, T=config.T)
    kappa = np.asarray(case.spec.kappa(x, mesh.t[level]), dtype=float)
    sv = spectrum.preconditioned_singular_values(col, shift, kappa)
    summary = spectrum.gershgorin_summary(spectrum.dense_system(col, shift, kappa))
    table = Table(["index", "sv_preconditioned"],
                  [(i, f"{v:.12e}") for i, v in enumerate(sv)])
    table.meta["shift"] = f"{shift:.6e}"
    for k, v in summary.items():
        table.meta[f"gershgorin_{k}"] = f"{v:.6e}"
    return table


def _soe_of(config: argparse.Namespace):
    """The SOE for --gamma on [delta, T] to the relative tolerance --eps, the
    target a FIDS run asks for; delta defaults to (1/256)^r T, the first step
    of a 256-step mesh on [0, T]."""
    delta = (config.delta if config.delta is not None
             else (1.0 / 256.0) ** config.r * config.T)
    return build_soe(config.gamma, resolved_eps(config), delta, config.T,
                     relative=True), delta


def cmd_soe_check(config: argparse.Namespace) -> Table:
    if config.points < 1:
        raise ValueError(f"--points must be >= 1, got {config.points}")
    soe, delta = _soe_of(config)
    t = np.logspace(math.log10(delta), math.log10(config.T), config.points)
    kernel = t ** (-config.gamma)
    err = np.abs(kernel - soe.evaluate(t))
    rel = err / kernel
    table = Table(["t", "abs_error", "rel_error"],
                  [(f"{ti:.6e}", f"{ei:.3e}", f"{ri:.3e}")
                   for ti, ei, ri in zip(t, err, rel)])
    table.meta["n_exp"] = str(soe.n_exp)
    table.meta["sup_error"] = f"{err.max():.3e}"
    table.meta["sup_rel_error"] = f"{rel.max():.3e}"
    return table


def cmd_soe_nodes(config: argparse.Namespace) -> Table:
    soe, _ = _soe_of(config)
    return Table(["node", "weight"], [(f"{s:.16e}", f"{w:.16e}")
                                      for s, w in zip(soe.nodes, soe.weights)])


def cmd_ifl_column(config: argparse.Namespace) -> Table:
    if config.N is None:
        raise ValueError("ifl-column needs --N")
    disc = build_ifl(config.alpha, resolved_mu(config), 1.0, config.N)
    return Table(["k", "first_col"], [(k, f"{v:.16e}")
                                      for k, v in enumerate(disc.first_col, start=1)])


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


# Each flag's add_argument keywords, in JSON echo order; "M*"/"N*" take lists.
_FLAGS = {
    "case": dict(choices=("example1", "example2"), default="example1"),
    "gamma": dict(type=float, default=0.5),
    "alpha": dict(type=float, default=1.5),
    "r": dict(type=float, default=2.0),
    "mu": dict(type=float, default=None, help="splitting parameter; default 1 + alpha/2"),
    "M*": dict(type=_int_list, default=[], help="comma-separated time-step counts"),
    "M": dict(type=int, default=None, help="time-step count; default coupled to N"),
    "N*": dict(type=_int_list, default=[], help="comma-separated spatial interval counts"),
    "N": dict(type=int, default=None, help="spatial interval count"),
    "coupling": dict(choices=("2", "mu"), default="2", help="q of the coupled grid"),
    "scheme": dict(choices=("dids", "fids"), default="fids"),
    "solver": dict(choices=SOLVERS, default="auto"),
    "eps": dict(dest="epsilon", type=float, default=None,
                help="relative SOE tolerance, |t^-gamma - SOE(t)| <= eps t^-gamma; "
                     "default 1e-10 (example1) / 1e-9 (example2)"),
    "tol": dict(type=float, default=1e-10),
    "out": dict(default=None),
    "format": dict(choices=("csv", "json"), default="csv"),
    "level": dict(type=int, default=None),
    "kappa-const": dict(dest="kappa_const", type=float, default=None),
    "delta": dict(type=float, default=None),
    "T": dict(type=float, default=1.0),
    "points": dict(type=int, default=10_000),
    "time-reps": dict(dest="time_reps", type=int, default=1),
}

# subcommand -> (command, the flags it reads besides --out and --format)
_COMMANDS = {
    "convergence-time": (cmd_convergence, "case gamma alpha r mu M* coupling "
                         "scheme solver eps tol T time-reps"),
    "convergence-space": (cmd_convergence, "case gamma alpha r mu N* coupling "
                          "scheme solver eps tol T time-reps"),
    "solver-compare": (cmd_solver_compare,
                       "case gamma alpha r mu M N coupling eps tol T time-reps"),
    "spectrum": (cmd_spectrum, "case gamma alpha r mu M N coupling level kappa-const T"),
    "soe-check": (cmd_soe_check, "case gamma r eps delta T points"),
    "soe-nodes": (cmd_soe_nodes, "case gamma r eps delta T"),
    "ifl-column": (cmd_ifl_column, "alpha mu N"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsfrac",
        description="benchmarks for the fractional-diffusion difference schemes",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in sorted(flags.split() + ["out", "format"], key=list(_FLAGS).index):
            p.add_argument("--" + flag.rstrip("*"), **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    config = build_parser().parse_args(argv)
    out = []  # the output stream, opened by the first write

    def write(text: str):
        if not out:
            out.append(open(config.out, "w") if config.out else sys.stdout)
        out[0].write(text)
        out[0].flush()

    try:
        error = _emit(config, _COMMANDS[config.subcommand][0](config), write)
    except Exception as exc:  # any run failure -> nonzero exit
        error = exc
    finally:
        if out and out[0] is not sys.stdout:
            out[0].close()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
