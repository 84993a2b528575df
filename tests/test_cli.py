import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import edtorus.cli
import edtorus.flow
import edtorus.pencil
import edtorus.perturb
from edtorus.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_REJECTED,
    build_initial,
    build_grid,
    main,
    parse_config_text,
)
from edtorus.errors import (
    ConvergenceFailure,
    NoSimpleEigenvalue,
    NonPositiveConformalFactor,
    ParseError,
    PositivityLoss,
    StepTooLarge,
    ValidationError,
)
from edtorus.fields import SpinorField
from edtorus.pencil import EigenPair

SQRT3_2 = np.sqrt(3.0) / 2.0


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "edtorus.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestParseConfig:
    def test_defaults_fill_and_round_trip(self):
        cfg = parse_config_text("grid.n = 6\n")
        assert cfg["grid.n"] == "6"
        assert cfg["flow.scheme"] == "rk4_explicit"
        again = parse_config_text("".join(f"{k} = {v}\n" for k, v in cfg.values.items()))
        assert again.values == cfg.values

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\n\nseed = 3  # trailing\n")
        assert cfg["seed"] == "3"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text("flw.dt = 0.1\n")
        assert err.value.key == "flw.dt"

    def test_bad_shift_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text("spin.shift = 0.3,0,0\n")
        assert err.value.key == "spin.shift"

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("grid.n = 6\nnot a key value line\n")
        assert err.value.line == 2
        assert err.value.column is not None

    def test_value_validation(self):
        for text in ("grid.n = 7\n", "flow.horizon = -1\n", "flow.scheme = rk9\n",
                     "initial.kind = nonsense\n"):
            with pytest.raises(ValidationError):
                parse_config_text(text)


class TestInitialData:
    def test_constant(self):
        cfg = parse_config_text("grid.n = 6\ninitial.kind = constant\ninitial.terms = 2.0\n")
        u = build_initial(cfg, build_grid(cfg))
        assert np.all(u.values == 2.0)

    def test_trig_terms(self):
        cfg = parse_config_text(
            "grid.n = 6\ninitial.kind = trig\ninitial.terms = 0.3:1,0,0;0.2:0,1,1\n")
        u = build_initial(cfg, build_grid(cfg))
        g = build_grid(cfg)
        x1, x2, x3 = g.coords()
        expect = 1 + 0.3 * np.cos(x1) + 0.2 * np.cos(x2 + x3)
        assert np.allclose(u.values, expect)

    def test_random_clamped_positive(self):
        cfg = parse_config_text(
            "grid.n = 6\ninitial.kind = trig\ninitial.terms = random:4\nseed = 11\n")
        u = build_initial(cfg, build_grid(cfg))
        assert u.min() >= 0.5 - 1e-9

    def test_random_seed_determinism(self):
        text = "grid.n = 6\ninitial.kind = trig\ninitial.terms = random:4\nseed = 11\n"
        a = build_initial(parse_config_text(text), build_grid(parse_config_text(text)))
        b = build_initial(parse_config_text(text), build_grid(parse_config_text(text)))
        assert np.array_equal(a.values, b.values)

    def test_snapshot_file(self, tmp_path):
        from edtorus.fields import TorusGrid, field_from_function, write_snapshot

        grid = TorusGrid(6)
        u = field_from_function(grid, lambda x, y, z: 1 + 0.25 * np.cos(x))
        path = tmp_path / "u0.edf"
        write_snapshot(path, u)
        cfg = parse_config_text(
            f"grid.n = 6\ninitial.kind = file\ninitial.terms = {path}\n")
        loaded = build_initial(cfg, build_grid(cfg))
        assert np.array_equal(loaded.values, u.values)

    def test_snapshot_wrong_grid_rejected(self, tmp_path):
        from edtorus.fields import TorusGrid, constant_field, write_snapshot

        path = tmp_path / "u8.edf"
        write_snapshot(path, constant_field(TorusGrid(8), 1.0))
        cfg = parse_config_text(
            f"grid.n = 6\ninitial.kind = file\ninitial.terms = {path}\n")
        with pytest.raises(ValidationError):
            build_initial(cfg, build_grid(cfg))

    @pytest.mark.parametrize("defect", ["missing", "truncated", "nonfinite"])
    def test_bad_snapshot_is_config_error(self, tmp_path, defect):
        from edtorus.fields import TorusGrid, constant_field, write_snapshot

        grid = TorusGrid(6)
        path = tmp_path / "u0.edf"
        if defect != "missing":
            write_snapshot(path, constant_field(grid, 1.0))
            raw = path.read_bytes()
            if defect == "truncated":
                raw = raw[:10]
            else:
                raw = raw[:16] + np.full(grid.num_points, np.nan, "<f8").tobytes()
            path.write_bytes(raw)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"grid.n = 6\ninitial.kind = file\ninitial.terms = {path}\n"
                       f"output.dir = {tmp_path / 'out'}\n")
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_CONFIG


    @pytest.mark.parametrize("kind, terms", [
        ("constant", "abc"), ("constant", "nan"), ("constant", "inf"), ("constant", "-1"),
        ("trig", "random:abc"), ("trig", "random:0"), ("trig", "random:-2"), ("trig", "randomx"),
        ("trig", "nan:1,0,0"), ("trig", "0.1:1,0,0;inf:0,1,0"), ("trig", "0.1:1,0"),
    ])
    def test_malformed_terms_are_config_errors(self, tmp_path, capsys, kind, terms):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"grid.n = 6\ninitial.kind = {kind}\ninitial.terms = {terms}\n"
                       f"output.dir = {tmp_path / 'out'}\n")
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_CONFIG
        assert "initial.terms" in capsys.readouterr().err
        with pytest.raises(ValidationError) as err:
            parse_config_text(cfg.read_text())
        assert err.value.key == "initial.terms"

    @pytest.mark.parametrize("key, value", [
        ("grid.length", "nan"), ("grid.length", "inf"), ("eigen.target", "nan"),
        ("eigen.target", "-inf"), ("eigen.gap_tol", "nan"), ("flow.horizon", "nan"),
        ("flow.dt", "inf"), ("seed", "-1"),
    ])
    def test_nonfinite_values_and_negative_seed_are_config_errors(self, tmp_path, capsys,
                                                                  key, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"grid.n = 4\n{key} = {value}\noutput.dir = {tmp_path / 'out'}\n")
        assert main(["flow", "--config", str(cfg)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        with pytest.raises(ValidationError) as err:
            parse_config_text(cfg.read_text())
        assert err.value.key == key


class TestSpectrumCommand:
    def test_flat_cluster_reported(self, tmp_path):
        (tmp_path / "c.cfg").write_text(
            "grid.n = 6\ninitial.kind = constant\ninitial.terms = 1.0\n"
            "eigen.target = 0.9\noutput.dir = out\n")
        r = run_cli(["spectrum", "--config", "c.cfg"], tmp_path)
        assert r.returncode == EXIT_OK, r.stderr
        data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        top = data["clusters"][0]
        assert top["lambda"] == pytest.approx(0.8660254, abs=1e-6)
        assert top["multiplicity"] == 8

    def test_scaled_constant(self, tmp_path):
        (tmp_path / "c.cfg").write_text(
            "grid.n = 6\ninitial.kind = constant\ninitial.terms = 2.0\n"
            "eigen.target = 0.22\noutput.dir = out\n")
        r = run_cli(["spectrum", "--config", "c.cfg"], tmp_path)
        assert r.returncode == EXIT_OK, r.stderr
        data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        assert data["clusters"][0]["lambda"] == pytest.approx(0.2165064, abs=1e-6)

    def test_generic_matches_dense(self, tmp_path, exps):
        from edtorus.fields import TorusGrid, field_from_function
        from edtorus.pencil import dense_oracle

        (tmp_path / "c.cfg").write_text(
            "grid.n = 6\ninitial.kind = trig\ninitial.terms = 0.3:1,0,0;0.2:0,1,1\n"
            "eigen.target = 0.87\noutput.dir = out\n")
        r = run_cli(["spectrum", "--config", "c.cfg"], tmp_path)
        assert r.returncode == EXIT_OK, r.stderr
        data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        grid = TorusGrid(6)
        u = field_from_function(grid, lambda x, y, z: 1 + 0.3 * np.cos(x) + 0.2 * np.cos(y + z))
        dense = dense_oracle(u)
        sel = dense.nearest_indices(0.87, 12)
        assert np.abs(np.array(data["eigenvalues"]) -
                      np.sort(dense.eigenvalues[sel])).max() <= 1e-8
        assert 0 < data["iterations"] <= 400

    @pytest.mark.parametrize("shift", ["0.5,0.5,0.5", "0,0,0"])
    def test_clusters_agree_with_simplicity_gap(self, tmp_path, exps, shift):
        # the clusters of spectrum.json and simplicity_gap read one rule, at
        # the default shift and at the trivial one
        from edtorus.fields import SpinStructure, TorusGrid, field_from_function
        from edtorus.pencil import simplicity_gap, solve_window

        (tmp_path / "c.cfg").write_text(
            f"grid.n = 6\nspin.shift = {shift}\noutput.dir = {tmp_path / 'out'}\n")
        assert main(["spectrum", "--config", str(tmp_path / "c.cfg")]) == EXIT_OK
        data = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        u = field_from_function(TorusGrid(6),
                                lambda x, y, z: 1 + 0.3 * np.cos(x) + 0.2 * np.cos(y + z))
        spin = SpinStructure(tuple(float(s) for s in shift.split(",")))
        window = solve_window(u, 0.87, 12, spin, exps, seed=7)
        assert data["eigenvalues"] == window.eigenvalues.tolist()
        assert sum(c["multiplicity"] for c in data["clusters"]) == 12
        for cluster in data["clusters"]:
            _kind, rep = simplicity_gap(window, cluster["lambda"])
            assert cluster["multiplicity"] == len(rep.members)
            assert cluster["width"] == rep.width
            assert cluster["gap_in_window"] == rep.gap

    def test_solver_stats_of_the_window(self, tmp_path, monkeypatch):
        # counted from a reset: two runs in one process report the same work
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("grid.n = 6\noutput.dir = out\n")
        reports = []
        for _ in range(2):
            assert main(["spectrum", "--config", "c.cfg"]) == EXIT_OK
            reports.append(json.loads((tmp_path / "out" / "spectrum.json").read_text()))
        stats = reports[0]["solver_stats"]
        assert set(stats) == {"minres_solves", "minres_iterations", "window_solves",
                              "lobpcg_iterations", "refine_pair_calls", "operator_columns"}
        assert stats == reports[1]["solver_stats"]
        assert stats["window_solves"] == 1
        assert stats["lobpcg_iterations"] == reports[0]["iterations"]
        assert stats["operator_columns"] > 0 and stats["minres_solves"] == 0

    def test_bad_config_exit_code(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("flw.dt = 0.1\n")
        r = run_cli(["spectrum", "--config", "bad.cfg"], tmp_path)
        assert r.returncode == EXIT_CONFIG, r.stderr


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (NoSimpleEigenvalue, EXIT_REJECTED),
        (PositivityLoss, EXIT_REJECTED),
        (NonPositiveConformalFactor, EXIT_REJECTED),
        (StepTooLarge, EXIT_REJECTED),
        (ConvergenceFailure, EXIT_CONVERGENCE),
    ])
    def test_one_mapping_for_every_command(self, tmp_path, monkeypatch, capsys, error, code):
        # main alone maps a package error to its exit code, so spectrum maps
        # each rejection as flow does
        def failing_window(*_args, **_kwargs):
            raise error("injected")

        monkeypatch.setattr(edtorus.cli, "solve_window", failing_window)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"grid.n = 4\noutput.dir = {tmp_path / 'out'}\n")
        assert main(["spectrum", "--config", str(cfg)]) == code
        label = "rejected" if code == EXIT_REJECTED else error.__name__
        assert capsys.readouterr().err == f"spectrum: {label}: injected\n"

    @pytest.mark.parametrize("command", ["spectrum", "flow"])
    @pytest.mark.parametrize("setting", ["eigen.target = 1e160", "grid.length = 1e-300"])
    def test_overflowing_window_is_convergence_failure(self, tmp_path, command, setting):
        # a far target or a tiny side overflows the folded operator (C - sigma)^2;
        # the window solver reports a typed failure, and flow still writes its summary
        (tmp_path / "c.cfg").write_text(f"grid.n = 4\n{setting}\noutput.dir = out\n")
        r = run_cli([command, "--config", "c.cfg"], tmp_path)
        assert r.returncode == EXIT_CONVERGENCE, r.stderr
        message = "ConvergenceFailure: window block is not finite"
        assert r.stderr.splitlines()[-1] == f"{command}: {message}"
        if command == "flow":
            summary = json.loads((tmp_path / "out" / "summary.json").read_text())
            assert summary["failed"] == message
            assert summary["iterations"] >= 1
            assert summary["residual"] == math.inf

    @pytest.mark.parametrize("defect", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, defect):
        path = tmp_path / "c.cfg"
        if defect == "directory":
            path.mkdir()
        elif defect == "not-utf8":
            path.write_bytes(b"seed = 3 # \xff\xfe\n")
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot read config file")

    @pytest.mark.parametrize("command", ["spectrum", "flow", "perturb-validate",
                                         "parabolic-validate", "covariance-check"])
    def test_output_dir_that_is_a_file_is_config_error(self, tmp_path, capsys, command):
        # every command creates its output directory before it computes
        (tmp_path / "taken").write_text("")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"grid.n = 4\noutput.dir = {tmp_path / 'taken'}\n")
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot create output.dir")


FLOW_CFG = """grid.n = 6
initial.kind = trig
initial.terms = 0.3:1,0,0;0.2:0,1,1
eigen.target = 0.88
flow.horizon = 0.004
flow.projection_period = 3
output.dir = {out}
output.stride = 5
seed = 5
"""


class TestFlowCommand:
    def test_constant_rejected_exit_3(self, tmp_path):
        (tmp_path / "c.cfg").write_text(
            "grid.n = 6\ninitial.kind = constant\ninitial.terms = 1.0\n"
            "eigen.target = 0.87\noutput.dir = out\n")
        r = run_cli(["flow", "--config", "c.cfg"], tmp_path)
        assert r.returncode == EXIT_REJECTED, r.stderr
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "NoSimpleEigenvalue" in summary["rejected"]

    def test_fixed_dt_above_cfl_rejected_exit_3(self, tmp_path, monkeypatch):
        # the first step breaks the CFL precondition at u0 (bound 1.7e-3 at
        # N=6): rejected before any window solve
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cfg").write_text("grid.n = 6\nflow.dt = 0.01\noutput.dir = out\n")
        assert main(["flow", "--config", "f.cfg"]) == EXIT_REJECTED
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["rejected"].startswith("StepTooLarge: dt = 1.000e-02 violates")
        assert summary["solver_stats"]["window_solves"] == 0

    def test_run_monotone_and_conservative(self, tmp_path):
        (tmp_path / "f.cfg").write_text(FLOW_CFG.format(out="out"))
        r = run_cli(["flow", "--config", "f.cfg"], tmp_path)
        assert r.returncode == EXIT_OK, r.stderr
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "lambda", "energy", "volume", "constraint_residual",
                          "stationarity_residual", "min_u", "gap", "dt"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(np.diff(rows[:, 0]) > 0)
        vols = rows[:, 3]
        assert np.abs(vols - vols[0]).max() / vols[0] <= 1e-6
        assert (tmp_path / "out" / "u_000000.edf").exists()
        assert (tmp_path / "out" / "psi_000000.edf").exists()
        # a pair refinement at RK4 stages 2-4 and at the accepted state of
        # every step; a window solve at the start and every 3rd step
        steps = len(rows) - 1
        stats = json.loads((tmp_path / "out" / "summary.json").read_text())["solver_stats"]
        assert stats["window_solves"] == 1 + steps // 3
        assert stats["minres_solves"] >= 4 * steps
        assert stats["minres_iterations"] > stats["minres_solves"]
        assert stats["lobpcg_iterations"] > 0
        assert stats["refine_pair_calls"] == 4 * steps

    def test_rerun_byte_identical(self, tmp_path):
        (tmp_path / "f.cfg").write_text(FLOW_CFG.format(out="out1"))
        (tmp_path / "g.cfg").write_text(FLOW_CFG.format(out="out2"))
        r1 = run_cli(["flow", "--config", "f.cfg"], tmp_path)
        assert r1.returncode == EXIT_OK, r1.stderr
        r2 = run_cli(["flow", "--config", "g.cfg"], tmp_path)
        assert r2.returncode == EXIT_OK, r2.stderr
        csv1 = (tmp_path / "out1" / "trajectory.csv").read_bytes()
        csv2 = (tmp_path / "out2" / "trajectory.csv").read_bytes()
        assert csv1 == csv2
        s1 = (tmp_path / "out1" / "summary.json").read_text()
        s2 = (tmp_path / "out2" / "summary.json").read_text()
        assert s1.replace("out1", "OUT") == s2.replace("out2", "OUT")
        snap1 = (tmp_path / "out1" / "u_000000.edf").read_bytes()
        snap2 = (tmp_path / "out2" / "u_000000.edf").read_bytes()
        assert snap1 == snap2

    @pytest.mark.parametrize("error, code", [
        (ConvergenceFailure("injected inner-solver failure"), EXIT_CONVERGENCE),
        (PositivityLoss("injected positivity loss"), EXIT_OK),
    ])
    def test_abort_exit_code(self, tmp_path, monkeypatch, error, code):
        # solver failure exits 2, a mathematical abort exits 0; both write
        # the partial trajectory and the abort reason
        def failing_step(*_args, **_kwargs):
            raise error

        monkeypatch.setattr(edtorus.flow, "step", failing_step)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cfg").write_text(FLOW_CFG.format(out="out"))
        assert main(["flow", "--config", "f.cfg"]) == code
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header and the initial state
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["steps"] == 0
        assert summary["abort_reason"] == f"{type(error).__name__}: {error}"

    def test_gap_collapse_records_small_gap(self, tmp_path, monkeypatch):
        # the first gap re-measurement (after step 3) finds the tracked
        # cluster no longer simple: a mathematical abort, exit 0, with the
        # trajectory up to step 2 and the abort reason written
        original = edtorus.flow.simplicity_gap
        reports = []

        def collapsing(*args, **kwargs):
            kind, cluster = original(*args, **kwargs)
            reports.append((kind, cluster))
            if len(reports) == 1:  # the initial state
                return kind, cluster
            return "indeterminate", dataclasses.replace(cluster, gap=1e-3 * cluster.gap)

        monkeypatch.setattr(edtorus.flow, "simplicity_gap", collapsing)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cfg").write_text(FLOW_CFG.format(out="out"))
        assert main(["flow", "--config", "f.cfg"]) == EXIT_OK
        assert len(reports) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["abort_reason"].startswith("SmallGap: tracked cluster no longer simple")
        assert summary["steps"] == 2
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 4  # header, the initial state and steps 1-2

    def test_inner_solver_cap_records_iterations(self, tmp_path, monkeypatch):
        # MINRES capped at 3 iterations fails the first pair refinement (RK4
        # stage 2 of the first step); the abort carries the solver's
        # iterations and residual
        original = edtorus.pencil.minres_hermitian

        def capped(*args, **kwargs):
            return original(*args, **{**kwargs, "maxiter": 3})

        monkeypatch.setattr(edtorus.pencil, "minres_hermitian", capped)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cfg").write_text(FLOW_CFG.format(out="out"))
        assert main(["flow", "--config", "f.cfg"]) == EXIT_CONVERGENCE
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["abort_reason"].startswith("ConvergenceFailure")
        assert summary["iterations"] == 3
        assert np.isfinite(summary["residual"])

    def test_nonfinite_rate_records_typed_abort(self, tmp_path, monkeypatch):
        # the 5th u rate (first RK4 stage of step 2) is computed for a spinor
        # scaled by 1e200: |psi|^2 overflows and the ratio-form bracket turns
        # NaN; the run records a typed abort, writes summary.json and exits 2
        original = edtorus.flow.rhs_u
        calls = []

        def overflowing(u, pair, exps):
            calls.append(None)
            if len(calls) == 5:
                psi = pair.psi
                pair = EigenPair(pair.lam, SpinorField(psi.grid, psi.spin, 1e200 * psi.values))
            return original(u, pair, exps)

        monkeypatch.setattr(edtorus.flow, "rhs_u", overflowing)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cfg").write_text(FLOW_CFG.format(out="out"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["flow", "--config", "f.cfg"]) == EXIT_CONVERGENCE
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["steps"] == 1
        assert summary["abort_reason"] == "NonFiniteState: non-finite rate of u"
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 3  # header, the initial state and step 1

    def test_failure_before_first_step_writes_summary(self, tmp_path, monkeypatch):
        # a ConvergenceFailure from the initial solve leaves no trajectory
        # but still writes summary.json with its details
        def failing_run(*_args, **_kwargs):
            raise ConvergenceFailure("x", iterations=7, residual=1e-3)

        monkeypatch.setattr(edtorus.cli, "flow_run", failing_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cfg").write_text(FLOW_CFG.format(out="out"))
        assert main(["flow", "--config", "f.cfg"]) == EXIT_CONVERGENCE
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["failed"] == "ConvergenceFailure: x"
        assert summary["iterations"] == 7
        assert summary["residual"] == 1e-3
        assert not (tmp_path / "out" / "trajectory.csv").exists()


class TestValidators:
    def test_covariance_check(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default output.dir is relative
        assert main(["covariance-check"]) == EXIT_OK
        r = run_cli(["covariance-check"], tmp_path)
        assert r.returncode == EXIT_OK, r.stderr
        data = json.loads((tmp_path / "out" / "covariance_check.json").read_text())
        assert data["pass"]
        assert data["residual_f_zero"] == 0.0

    def test_perturb_validate(self, tmp_path):
        r = run_cli(["perturb-validate"], tmp_path)
        assert r.returncode == EXIT_OK, r.stdout + r.stderr
        data = json.loads((tmp_path / "out" / "perturb_validate.json").read_text())
        assert data["pass"]
        assert abs(data["lambda_rate_slope"] - 2.0) <= 0.1
        assert abs(data["spinor_rate_slope"] - 2.0) <= 0.1

    def test_perturb_validate_solver_stats(self, tmp_path):
        # the six refined perturbed pairs, counted from a reset; a rerun
        # reproduces the report byte for byte
        for out in ("out1", "out2"):
            (tmp_path / f"{out}.cfg").write_text(f"output.dir = {out}\n")
            r = run_cli(["perturb-validate", "--config", f"{out}.cfg"], tmp_path)
            assert r.returncode == EXIT_OK, r.stdout + r.stderr
        data = json.loads((tmp_path / "out1" / "perturb_validate.json").read_text())
        stats = data["solver_stats"]
        assert stats["refine_pair_calls"] == 6
        assert stats["window_solves"] == stats["lobpcg_iterations"] == 0
        assert stats["minres_solves"] > 0 and stats["minres_iterations"] > 0
        assert ((tmp_path / "out1" / "perturb_validate.json").read_bytes()
                == (tmp_path / "out2" / "perturb_validate.json").read_bytes())

    def test_perturb_validate_refinement_failure_exits_2(self, tmp_path, monkeypatch,
                                                          capsys):
        def failing_refine(*_args, **_kwargs):
            raise ConvergenceFailure("pair refinement stalled", iterations=5, residual=1e-6)

        monkeypatch.setattr(edtorus.perturb, "refine_pair", failing_refine)
        monkeypatch.chdir(tmp_path)
        assert main(["perturb-validate"]) == EXIT_CONVERGENCE
        assert "ConvergenceFailure: pair refinement stalled" in capsys.readouterr().err
        assert not (tmp_path / "out" / "perturb_validate.json").exists()

    def test_parabolic_validate(self, tmp_path):
        r = run_cli(["parabolic-validate"], tmp_path)
        assert r.returncode == EXIT_OK, r.stdout + r.stderr
        data = json.loads((tmp_path / "out" / "parabolic_validate.json").read_text())
        assert data["pass"]
        assert abs(data["cn_order"] - 2.0) <= 0.1
        assert data["random_sweep_pass"] == "20/20"

    def test_parabolic_validate_solver_stats(self, tmp_path):
        # the implicit-step work of the whole report, counted from a reset:
        # 56 Crank-Nicolson order steps, 64 heat steps, the 32 steps of the
        # lockstep sweep and 2 x 32 uniqueness steps; a rerun reproduces the
        # report byte for byte
        for out in ("out1", "out2"):
            (tmp_path / f"{out}.cfg").write_text(f"output.dir = {out}\n")
            r = run_cli(["parabolic-validate", "--config", f"{out}.cfg"], tmp_path)
            assert r.returncode == EXIT_OK, r.stdout + r.stderr
        data = json.loads((tmp_path / "out1" / "parabolic_validate.json").read_text())
        stats = data["solver_stats"]
        assert set(stats) == {"step_solves", "gmres_iterations", "lockstep_iterations",
                              "residual_checks"}
        assert stats["step_solves"] == 216
        assert stats["step_solves"] <= stats["lockstep_iterations"] < stats["gmres_iterations"]
        assert stats["step_solves"] <= stats["residual_checks"]
        assert ((tmp_path / "out1" / "parabolic_validate.json").read_bytes()
                == (tmp_path / "out2" / "parabolic_validate.json").read_bytes())


FLOW_FORMULAS = {"flow_rhs", "volume_invariant", "eigen_tracking"}
RATE_FORMULAS = {"eigen_rate", "spinor_rate"}


class TestReportKeys:
    """Each command's JSON report holds exactly these keys; a `formulas` tag
    names only the formulas that command ran."""

    @pytest.mark.parametrize("command, report, keys, formulas", [
        ("spectrum", "spectrum.json",
         {"config", "target", "eigenvalues", "clusters", "max_constraint_residual",
          "iterations", "solver_stats"}, None),
        ("flow", "summary.json",
         {"config", "steps", "final_time", "final_lambda", "volume_drift",
          "max_constraint_residual", "abort_reason", "iterations", "residual",
          "solver_stats", "formulas"}, FLOW_FORMULAS),
        ("perturb-validate", "perturb_validate.json",
         {"lambda_rate_slope", "lambda_rate_errors", "spinor_rate_slope",
          "spinor_rate_errors", "uniform_scaling_error", "norm_rate_identity", "pass",
          "solver_stats", "formulas"}, RATE_FORMULAS),
        ("parabolic-validate", "parabolic_validate.json",
         {"cn_errors", "cn_order", "heat_mode_error", "energy_estimate",
          "random_sweep_pass", "a1_constant", "a2_violation", "uniqueness_diff", "pass",
          "solver_stats"},
         None),
        ("covariance-check", "covariance_check.json",
         {"residual_f_zero", "residual_f_constant", "residual_band_limited", "pass"}, None),
    ], ids=["spectrum", "flow", "perturb-validate", "parabolic-validate", "covariance-check"])
    def test_key_set(self, tmp_path, monkeypatch, command, report, keys, formulas):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cfg").write_text(FLOW_CFG.format(out="out"))
        assert main([command, "--config", "f.cfg"]) == EXIT_OK
        data = json.loads((tmp_path / "out" / report).read_text())
        assert set(data) == keys
        if formulas is not None:
            assert set(data["formulas"]) == formulas
