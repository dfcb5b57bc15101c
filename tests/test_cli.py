import argparse
import json

import numpy as np
import pytest

import tsfrac.scheme
from tsfrac.cli import _COMMANDS, build_parser, main
from tsfrac.soe import build_soe


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    comments = [l for l in text.splitlines() if l.startswith("#")]
    data = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in data[1:]]
    return comments, header, rows


class TestConvergenceTime:
    def test_single_row_no_rates(self, capsys):
        code, out = run_cli(capsys, "convergence-time", "--M", "32",
                            "--gamma", "0.5", "--alpha", "1.5", "--r", "2",
                            "--scheme", "dids")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header[:4] == ["M", "N", "err_inf", "rate_inf"]
        assert len(rows) == 1
        assert rows[0]["rate_inf"] == ""
        assert any("case = example1" in c for c in comments)

    def test_two_rows_rates_and_roundtrip(self, capsys):
        code, out = run_cli(capsys, "convergence-time", "--M", "32,64",
                            "--scheme", "fids")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 2
        # rate recomputed from the printed 4-significant-digit errors matches
        # the printed 3-decimal rate
        e0 = float(rows[0]["err_inf"])
        e1 = float(rows[1]["err_inf"])
        assert abs(np.log2(e0 / e1) - float(rows[1]["rate_inf"])) < 5e-3
        # formatting is reproducible: parse -> format -> identical string
        assert f"{e0:.3e}" == rows[0]["err_inf"]

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "convergence-time", "--M", "16",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["subcommand"] == "convergence-time"
        assert len(payload["rows"]) == 1
        assert "err_inf" in payload["rows"][0]

    def test_missing_m_fails(self, capsys):
        code, _ = run_cli(capsys, "convergence-time")
        assert code != 0

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_time_reps_must_be_positive(self, capsys, reps):
        code = main(["convergence-time", "--M", "16", "--time-reps", reps])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"--time-reps must be >= 1, got {reps}" in captured.err


class TestConvergenceSpace:
    def test_two_rows(self, capsys):
        code, out = run_cli(capsys, "convergence-space", "--N", "8,16",
                            "--gamma", "0.5", "--r", "2", "--scheme", "dids")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r["N"] for r in rows] == ["8", "16"]
        assert float(rows[1]["rate_inf"]) > 1.5


class TestSolverCompare:
    def test_matrix_of_cells_and_error_agreement(self, capsys):
        code, out = run_cli(capsys, "solver-compare", "--N", "16",
                            "--case", "example2", "--alpha", "1.5",
                            "--gamma", "0.5", "--r", "2", "--coupling", "mu")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 6
        tags = {(r["scheme"], r["solver"]) for r in rows}
        assert ("dids", "direct") in tags and ("fids", "pkrylov") in tags
        errs = sorted(float(r["err_inf"]) for r in rows)
        # solutions agree across solvers; printed at 4 significant digits,
        # so allow one quantum of the last digit
        assert errs[-1] - errs[0] <= 2e-6

    def test_runs_above_the_dense_spectrum_cap(self, capsys):
        # solver-compare runs no dense spectrum diagnostic: its direct solve
        # is capped at N-1 <= 2048, not at the spectrum's 256
        code, out = run_cli(capsys, "solver-compare", "--N", "300", "--M", "4")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 6 and {r["N"] for r in rows} == {"300"}


class TestSpectrum:
    def test_constant_kappa_listing(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--N", "16", "--M", "8",
                            "--kappa-const", "1.0")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["index", "eig_original", "eig_preconditioned"]
        assert len(rows) == 15
        prec = np.array([float(r["eig_preconditioned"]) for r in rows])
        assert np.all(prec > 0)

    def test_x_dependent_singular_values(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--N", "16", "--M", "8",
                            "--case", "example2")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["index", "sv_preconditioned"]
        assert any("gershgorin_lower_bound" in c for c in comments)

    def test_shift_is_the_level_system_shift(self, capsys):
        from scipy.special import gamma as gamma_fn

        from tsfrac.mesh import build_mesh, l1_weights

        code, out = run_cli(capsys, "spectrum", "--N", "16", "--M", "8",
                            "--level", "3", "--kappa-const", "1.0")
        assert code == 0
        comments, _, _ = parse_csv(out)
        shift = l1_weights(build_mesh(8, 2.0, 1.0), 0.5, 3)[-1] / gamma_fn(0.5)
        assert f"# shift = {shift:.6e}" in comments

    def test_level_out_of_range(self, capsys):
        for level in ("0", "9"):
            code = main(["spectrum", "--N", "16", "--M", "8", "--level", level,
                         "--kappa-const", "1.0"])
            assert code == 1
            assert f"--level must lie in [1, 8], got {level}" in capsys.readouterr().err

    def test_cap(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--N", "512")
        assert code == 1

    @pytest.mark.parametrize("N", ["512", "1000000"])
    def test_cap_fails_before_the_mesh_is_built(self, capsys, monkeypatch, N):
        # the coupled M grows like N^2: at N = 10^6 the mesh alone would take
        # 1.82 TiB
        monkeypatch.setattr("tsfrac.cli.build_mesh",
                            lambda *args: pytest.fail("the mesh was built"))
        assert main(["spectrum", "--N", N]) == 1
        assert (f"dense diagnostics capped at order 256, got {int(N) - 1}"
                in capsys.readouterr().err)


class TestSoeCommands:
    def test_soe_check_meets_bound(self, capsys):
        code, out = run_cli(capsys, "soe-check", "--gamma", "0.5",
                            "--eps", "1e-8", "--delta", "1e-3", "--points", "200")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["t", "abs_error", "rel_error"]
        assert len(rows) == 200
        # --eps is the relative tolerance a FIDS run asks for
        sup = [c for c in comments if "sup_rel_error" in c][0]
        assert float(sup.split("=")[1]) <= 1e-8
        assert max(float(row["rel_error"]) for row in rows) <= 1e-8
        # profile only covers [delta, T]
        assert float(rows[0]["t"]) >= 1e-3

    def test_soe_nodes_dump(self, capsys):
        code, out = run_cli(capsys, "soe-nodes", "--gamma", "0.5",
                            "--eps", "1e-6", "--delta", "1e-2")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["node", "weight"]
        nodes = np.array([float(r["node"]) for r in rows])
        weights = np.array([float(r["weight"]) for r in rows])
        assert np.all(nodes > 0) and np.all(weights > 0)

    @pytest.mark.parametrize("command", ["soe-check"])
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_must_be_positive(self, capsys, command, points):
        code = main([command, "--points", points])
        assert code == 1
        assert f"--points must be >= 1, got {points}" in capsys.readouterr().err

    def test_default_delta_is_the_first_step_on_0_T(self, capsys):
        # (1/256)^r T lies in (0, T) for a short final time too
        code, out = run_cli(capsys, "soe-check", "--r", "1", "--T", "0.001",
                            "--eps", "1e-6", "--points", "3")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [float(row["t"]) for row in rows] == [3.90625e-06, 6.25e-05, 1e-3]

    def test_soe_nodes_default_delta_follows_T(self, capsys):
        code, out = run_cli(capsys, "soe-nodes", "--r", "1", "--T", "0.001",
                            "--eps", "1e-6")
        assert code == 0
        _, _, rows = parse_csv(out)
        soe = build_soe(0.5, 1e-6, 0.001 / 256, 0.001, relative=True)
        assert [float(row["node"]) for row in rows] == soe.nodes.tolist()

    def test_degenerate_delta_fails(self, capsys):
        code, _ = run_cli(capsys, "soe-check", "--delta", "2.0")
        assert code == 1


class TestIflColumn:
    def test_dump_matches_library(self, capsys):
        from tsfrac.ifl import build_ifl

        code, out = run_cli(capsys, "ifl-column", "--N", "8", "--alpha", "1.0",
                            "--mu", "2.0")
        assert code == 0
        _, header, rows = parse_csv(out)
        col = np.array([float(r["first_col"]) for r in rows])
        np.testing.assert_allclose(col, build_ifl(1.0, 2.0, 1.0, 8).first_col,
                                   rtol=1e-15)


class TestRejectedFlags:
    # a flag the subcommand does not read, or in a form it does not read,
    # fails at parse time with argparse naming it
    @pytest.mark.parametrize("argv,flag", [
        (["solver-compare", "--N", "8", "--scheme", "dids"], "--scheme"),
        (["convergence-time", "--M", "16", "--N", "64"], "--N"),
        (["ifl-column", "--N", "6", "--points", "0"], "--points"),
        (["soe-nodes", "--points", "0"], "--points"),
        (["soe-nodes", "--points", "-1"], "--points"),
        (["solver-compare", "--N", "8,16"], "--N"),
        (["convergence-time", "--M", "16", "--coupling", "time2"], "--coupling"),
    ], ids=["solver-compare-scheme", "convergence-time-N", "ifl-column-points",
            "soe-nodes-points-0", "soe-nodes-points--1", "solver-compare-N-list", "coupling-time2"])
    def test_rejected_at_parse_time(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert flag in captured.err


class TestBadParameters:
    # each fails by name in the library function the path calls
    @pytest.mark.parametrize("gamma", ["0", "-0.3", "1", "1.5"])
    @pytest.mark.parametrize("argv", [
        ["convergence-time", "--M", "16"], ["convergence-space", "--N", "8"],
        ["solver-compare", "--N", "8"], ["spectrum", "--N", "8"]],
        ids=lambda argv: argv[0])
    def test_gamma_of_a_coupled_grid(self, capsys, argv, gamma):
        # couplings.temporal_exponent
        assert main(argv + ["--gamma", gamma]) == 1
        assert (f"gamma must lie in (0, 1), got {float(gamma)}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("gamma", ["0", "-0.3", "1", "1.5"])
    def test_gamma_of_the_level_shift(self, capsys, gamma):
        # mesh.gamma_factor: with --M given, no coupling is computed
        assert main(["spectrum", "--N", "8", "--M", "4", "--kappa-const", "1",
                     "--gamma", gamma]) == 1
        assert (f"gamma must lie in (0, 1), got {float(gamma)}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["convergence-time", "--M", "16"], ["convergence-space", "--N", "8"]],
        ids=lambda argv: argv[0])
    def test_mu_before_the_coupling(self, capsys, argv):
        # ifl.splitting_parameter, before q = mu divides or sizes the grid
        assert main(argv + ["--coupling", "mu", "--mu", "0"]) == 1
        assert ("mu must lie in (alpha, 2], got mu=0.0, alpha=1.5"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,message", [
        (["convergence-time", "--M", "16,-4"], "M must be >= 1, got -4"),
        (["convergence-space", "--N", "8,1"], "N must be >= 2, got 1")],
        ids=["convergence-time", "convergence-space"])
    def test_every_grid_before_the_first_solve(self, capsys, monkeypatch, argv,
                                               message):
        # couplings.n_from_m / m_from_n, on every size before any row runs
        import tsfrac.cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a row was solved")

        monkeypatch.setattr(tsfrac.cli, "run_dids", no_solve)
        monkeypatch.setattr(tsfrac.cli, "run_fids", no_solve)
        assert main(argv + ["--scheme", "dids"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    # M = 200000 couples to N = 894, over the full-history cap
    _CAPPED = ["convergence-time", "--M", "16,200000", "--scheme", "dids"]
    _CAP_ERROR = "the full history is capped at 67108864 values, got M = 200000"

    def test_csv_rows_are_written_as_they_finish(self, capsys, monkeypatch):
        import tsfrac.cli
        seen = []

        def run_dids(*args, **kwargs):
            seen.append(capsys.readouterr().out)  # written before this row
            return tsfrac.scheme.run_dids(*args, **kwargs)

        monkeypatch.setattr(tsfrac.cli, "run_dids", run_dids)
        assert main(self._CAPPED) == 1
        captured = capsys.readouterr()
        assert seen[0] == "" and captured.out == ""
        comments, header, rows = parse_csv(seen[1])
        assert "# M = [16, 200000]" in comments and header[0] == "M"
        assert [(row["M"], row["N"]) for row in rows] == [("16", "8")]
        assert self._CAP_ERROR in captured.err

    def test_json_keeps_the_finished_rows_and_the_error(self, capsys):
        assert main(self._CAPPED + ["--format", "json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert [(row["M"], row["N"]) for row in payload["rows"]] == [("16", "8")]
        assert payload["error"].startswith(self._CAP_ERROR)
        assert self._CAP_ERROR in captured.err

    @pytest.mark.parametrize("kappa", ["-1", "0", "nan", "inf"])
    def test_kappa_const(self, capsys, kappa):
        # spectrum.dense_system
        assert main(["spectrum", "--N", "8", "--M", "4", "--kappa-const", kappa]) == 1
        assert (f"kappa must be positive and finite, got kappa[0] = {float(kappa)}"
                in capsys.readouterr().err)


class _ReadLog(argparse.Namespace):
    """A namespace that adds each attribute read to ``log`` while it is a set."""
    log = None

    def __getattribute__(self, name):
        if type(self).log is not None:
            type(self).log.add(name)
        return super().__getattribute__(name)


def _subparsers(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _unread_dests(parser, argvs):
    """Per subcommand, the dests it registers that no run of ``argvs`` reads;
    --out counts as read by main and --format by _emit."""
    read = {name: {"out", "format"} for name in _COMMANDS}
    for argv in argvs:
        config = parser.parse_args(argv, namespace=_ReadLog())
        _ReadLog.log = read[argv[0]]
        try:
            list(_COMMANDS[argv[0]][0](config).rows)
        finally:
            _ReadLog.log = None
    unread = {name: {a.dest for a in sub._actions if a.dest != "help"} - read[name]
              for name, sub in _subparsers(parser).items()}
    return {name: dests for name, dests in unread.items() if dests}


# small runs that, between them, take every branch that reads a flag:
# each leaves the defaults that fall back on another flag unset
_READ_RUNS = [
    ["convergence-time", "--M", "8"],
    ["convergence-space", "--N", "8"],
    ["solver-compare", "--N", "8"],
    ["spectrum", "--N", "8"],
    ["soe-check", "--points", "5"],
    ["soe-nodes"],
    ["ifl-column", "--N", "6"],
]


class TestFlagsRead:
    def test_every_registered_flag_is_read(self):
        assert _unread_dests(build_parser(), _READ_RUNS) == {}

    def test_an_unread_flag_is_caught(self):
        parser = build_parser()
        _subparsers(parser)["ifl-column"].add_argument("--dummy", default=0)
        assert _unread_dests(parser, _READ_RUNS) == {"ifl-column": {"dummy"}}


class TestOutputFile:
    def test_out_path(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code = main(["convergence-time", "--M", "16", "--out", str(path)])
        assert code == 0
        assert path.read_text().startswith("#")


# The full echo of one invocation of each subcommand: the CSV "#" block
# (config keys sorted, then the table's meta lines) and the JSON "config"
# object (in field order, format as csv).  A dropped, renamed, reordered or
# unread field fails here.
_ECHO_BASE = {"case": "example1", "gamma": 0.5, "alpha": 1.5, "r": 2.0}
_ECHO_TAIL = {"T": 1.0, "time_reps": 1}
_ECHO = [
    (["convergence-time", "--M", "16", "--scheme", "dids"],
     {"subcommand": "convergence-time", **_ECHO_BASE, "M": [16],
      "coupling": "2", "scheme": "dids", "solver": "auto", "tol": 1e-10,
      "format": "csv", **_ECHO_TAIL},
     """\
# M = [16]
# T = 1.0
# alpha = 1.5
# case = example1
# coupling = 2
# format = csv
# gamma = 0.5
# r = 2.0
# scheme = dids
# solver = auto
# subcommand = convergence-time
# time_reps = 1
# tol = 1e-10"""),
    (["convergence-space", "--N", "8", "--scheme", "dids",
      "--coupling", "mu", "--mu", "1.8"],
     {"subcommand": "convergence-space", **_ECHO_BASE, "mu": 1.8, "N": [8],
      "coupling": "mu", "scheme": "dids", "solver": "auto", "tol": 1e-10,
      "format": "csv", **_ECHO_TAIL},
     """\
# N = [8]
# T = 1.0
# alpha = 1.5
# case = example1
# coupling = mu
# format = csv
# gamma = 0.5
# mu = 1.8
# r = 2.0
# scheme = dids
# solver = auto
# subcommand = convergence-space
# time_reps = 1
# tol = 1e-10"""),
    (["solver-compare", "--N", "8", "--M", "4", "--case", "example2"],
     {"subcommand": "solver-compare", **_ECHO_BASE, "case": "example2",
      "M": 4, "N": 8, "coupling": "2", "tol": 1e-10, "format": "csv",
      **_ECHO_TAIL},
     """\
# M = 4
# N = 8
# T = 1.0
# alpha = 1.5
# case = example2
# coupling = 2
# format = csv
# gamma = 0.5
# r = 2.0
# subcommand = solver-compare
# time_reps = 1
# tol = 1e-10"""),
    (["spectrum", "--N", "8", "--M", "4", "--level", "2", "--kappa-const", "1.0"],
     {"subcommand": "spectrum", **_ECHO_BASE, "M": 4, "N": 8,
      "coupling": "2", "format": "csv", "level": 2, "kappa_const": 1.0,
      "T": 1.0},
     """\
# M = 4
# N = 8
# T = 1.0
# alpha = 1.5
# case = example1
# coupling = 2
# format = csv
# gamma = 0.5
# kappa_const = 1.0
# level = 2
# r = 2.0
# subcommand = spectrum
# shift = 2.605880e+00"""),
    (["soe-check", "--eps", "1e-6", "--delta", "1e-2", "--points", "5"],
     {"subcommand": "soe-check", "case": "example1", "gamma": 0.5, "r": 2.0,
      "epsilon": 1e-06, "format": "csv", "delta": 0.01, "T": 1.0, "points": 5},
     """\
# T = 1.0
# case = example1
# delta = 0.01
# epsilon = 1e-06
# format = csv
# gamma = 0.5
# points = 5
# r = 2.0
# subcommand = soe-check
# n_exp = 15
# sup_error = 1.204e-07
# sup_rel_error = 5.242e-08"""),
    (["soe-nodes", "--eps", "1e-6", "--delta", "1e-2", "--T", "2.0"],
     {"subcommand": "soe-nodes", "case": "example1", "gamma": 0.5, "r": 2.0,
      "epsilon": 1e-06, "format": "csv", "delta": 0.01, "T": 2.0},
     """\
# T = 2.0
# case = example1
# delta = 0.01
# epsilon = 1e-06
# format = csv
# gamma = 0.5
# r = 2.0
# subcommand = soe-nodes"""),
    (["ifl-column", "--N", "6", "--alpha", "1.0"],
     {"subcommand": "ifl-column", "alpha": 1.0, "N": 6, "format": "csv"},
     """\
# N = 6
# alpha = 1.0
# format = csv
# subcommand = ifl-column"""),
]


class TestEcho:
    @pytest.mark.parametrize("argv,config,block", _ECHO, ids=[e[0][0] for e in _ECHO])
    def test_csv_comment_block(self, capsys, argv, config, block):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert parse_csv(out)[0] == block.splitlines()

    @pytest.mark.parametrize("argv,config,block", _ECHO, ids=[e[0][0] for e in _ECHO])
    def test_json_config(self, capsys, argv, config, block):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        expected = [(k, "json" if k == "format" else v) for k, v in config.items()]
        assert list(json.loads(out)["config"].items()) == expected

    def test_out_file_config(self, tmp_path):
        path = tmp_path / "col.json"
        assert main(["ifl-column", "--N", "6", "--format", "json",
                     "--out", str(path)]) == 0
        assert list(json.loads(path.read_text())["config"].items()) == [
            ("subcommand", "ifl-column"), ("alpha", 1.5), ("N", 6),
            ("out", str(path)), ("format", "json")]
