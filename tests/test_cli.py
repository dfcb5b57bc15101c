import json

import numpy as np

from tsfrac.cli import main


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
                            "--gamma", "0.5", "--r", "2", "--coupling", "spacemu")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 6
        tags = {(r["scheme"], r["solver"]) for r in rows}
        assert ("dids", "direct") in tags and ("fids", "pkrylov") in tags
        errs = sorted(float(r["err_inf"]) for r in rows)
        # solutions agree across solvers; printed at 4 significant digits,
        # so allow one quantum of the last digit
        assert errs[-1] - errs[0] <= 2e-6


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
        shift = l1_weights(build_mesh(8, 2.0, 1.0), 0.5, 3).a[-1] / gamma_fn(0.5)
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


class TestSoeCommands:
    def test_soe_check_meets_bound(self, capsys):
        code, out = run_cli(capsys, "soe-check", "--gamma", "0.5",
                            "--eps", "1e-8", "--delta", "1e-3", "--points", "200")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["t", "abs_error"]
        assert len(rows) == 200
        sup = [c for c in comments if "sup_error" in c][0]
        assert float(sup.split("=")[1]) <= 1e-8
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


class TestOutputFile:
    def test_out_path(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code = main(["convergence-time", "--M", "16", "--out", str(path)])
        assert code == 0
        assert path.read_text().startswith("#")
