"""Batch front end: config parsing, subcommand dispatch, artifact emission.

Configuration is plain text, one dotted key per line (`key = value`, `#`
comments).  Identical config + seed produces byte-identical outputs: floats
are printed with shortest-round-trip formatting and nothing time- or
host-dependent enters the files.

Exit codes: 0 success, 1 validation-suite failure, 2 solver convergence
failure, 3 precondition rejection, 4 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import conformal, parabolic
from .errors import (
    ConvergenceFailure,
    EdtorusError,
    NoSimpleEigenvalue,
    NonPositiveConformalFactor,
    ParseError,
    PositivityLoss,
    StepTooLarge,
    ValidationError,
)
from .fields import (
    ExponentTable,
    ScalarField,
    SpinStructure,
    TorusGrid,
    TWO_PI,
    field_from_function,
    read_snapshot,
    scalar_field,
    write_snapshot,
)
from .flow import FORMULA_VERSIONS, FlowConfig, TRAJECTORY_COLUMNS, run as flow_run
from .pencil import reset_solver_stats, solve_window, solver_stats
from .perturb import RATE_FORMULA_VERSIONS, fd_study, lambda_dot

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONVERGENCE = 2
EXIT_REJECTED = 3
EXIT_CONFIG = 4

#: precondition rejections, which `main` maps to exit 3: the datum or the
#: step lies outside what the flow accepts
_REJECTIONS = (NoSimpleEigenvalue, PositivityLoss, NonPositiveConformalFactor, StepTooLarge)


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "grid.n": "8",
    "grid.length": repr(TWO_PI),
    "spin.shift": "0.5,0.5,0.5",
    "initial.kind": "trig",
    "initial.terms": "0.3:1,0,0;0.2:0,1,1",
    "eigen.target": "0.87",
    "eigen.gap_tol": "0.001",
    "flow.dt": "adaptive",
    "flow.horizon": "0.05",
    "flow.scheme": "rk4_explicit",
    "flow.projection_period": "50",
    "output.dir": "out",
    "output.stride": "0",
    "seed": "7",
}

_KNOWN_KEYS = set(_DEFAULTS)


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError:
            raise ValidationError(f"key {key} expects an integer, got {self.values[key]!r}",
                                  key=key) from None

    def get_float(self, key: str) -> float:
        try:
            value = float(self.values[key])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValidationError(f"key {key} expects a finite number, got {self.values[key]!r}",
                                  key=key)
        return value


def parse_config_text(text: str) -> RunConfig:
    values = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'",
                             line=lineno, column=len(raw.rstrip()) + 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(f"line {lineno}: missing key", line=lineno, column=1)
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"unknown key {key!r}", key=key)
        values[key] = value
    cfg = RunConfig(values)
    _validate(cfg)
    return cfg


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {str(path)!r}: {exc}") from None
    return parse_config_text(text)


def _validate(cfg: RunConfig) -> None:
    n = cfg.get_int("grid.n")
    if n < 4 or n % 2:
        raise ValidationError(f"grid.n must be an even integer >= 4, got {n}", key="grid.n")
    if cfg.get_float("grid.length") <= 0:
        raise ValidationError("grid.length must be positive", key="grid.length")
    shift = _parse_shift(cfg["spin.shift"])
    if any(s not in (0.0, 0.5) for s in shift):
        raise ValidationError("spin.shift components must be 0 or 0.5", key="spin.shift")
    kind, terms = cfg["initial.kind"], cfg["initial.terms"]
    if kind not in ("constant", "trig", "file"):
        raise ValidationError(f"initial.kind must be constant|trig|file, got {kind!r}",
                              key="initial.kind")
    if kind == "constant" and terms and cfg.get_float("initial.terms") <= 0:
        raise ValidationError(f"constant initial.terms must be a finite number > 0, got {terms!r}",
                              key="initial.terms")
    if kind == "trig" and not terms.startswith("random"):
        _parse_trig_terms(terms)
    elif kind == "trig" and not re.fullmatch(r"random(:0*[1-9][0-9]*)?", terms):
        raise ValidationError(f"initial.terms must be random or random:<n>, n >= 1, got {terms!r}",
                              key="initial.terms")
    cfg.get_float("eigen.target")
    if cfg.get_float("eigen.gap_tol") <= 0:
        raise ValidationError("eigen.gap_tol must be positive", key="eigen.gap_tol")
    if cfg["flow.dt"] != "adaptive" and cfg.get_float("flow.dt") <= 0:
        raise ValidationError("flow.dt must be positive or 'adaptive'", key="flow.dt")
    if cfg.get_float("flow.horizon") <= 0:
        raise ValidationError("flow.horizon must be positive", key="flow.horizon")
    if cfg["flow.scheme"] not in ("rk4_explicit", "imex"):
        raise ValidationError("flow.scheme must be rk4_explicit|imex", key="flow.scheme")
    if cfg.get_int("flow.projection_period") < 1:
        raise ValidationError("flow.projection_period must be >= 1",
                              key="flow.projection_period")
    if cfg.get_int("output.stride") < 0:
        raise ValidationError("output.stride must be >= 0", key="output.stride")
    if cfg.get_int("seed") < 0:
        raise ValidationError("seed must be >= 0", key="seed")


def _parse_shift(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValidationError("spin.shift expects three comma-separated values",
                              key="spin.shift")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"spin.shift components must be numbers, got {text!r}",
                              key="spin.shift") from None


def build_grid(cfg: RunConfig) -> TorusGrid:
    return TorusGrid(cfg.get_int("grid.n"), cfg.get_float("grid.length"))


def build_spin(cfg: RunConfig) -> SpinStructure:
    return SpinStructure(_parse_shift(cfg["spin.shift"]))


def _parse_trig_terms(text: str):
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            amp_s, modes_s = chunk.split(":")
            amp = float(amp_s)
            modes = tuple(int(m) for m in modes_s.split(","))
            if len(modes) != 3 or not math.isfinite(amp):
                raise ValueError
        except ValueError:
            raise ValidationError(f"bad initial.terms term {chunk!r} (want a:k1,k2,k3, a finite)",
                                  key="initial.terms") from None
        terms.append((amp, modes))
    return terms


def build_initial(cfg: RunConfig, grid: TorusGrid) -> ScalarField:
    kind = cfg["initial.kind"]
    spec = cfg["initial.terms"]
    if kind == "constant":
        return scalar_field(grid, np.full(grid.shape, float(spec) if spec else 1.0))
    if kind == "file":
        try:
            f = read_snapshot(spec, length=grid.length)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read initial snapshot {spec!r}: {exc}",
                                  key="initial.terms") from None
        if not isinstance(f, ScalarField) or f.grid.n != grid.n:
            raise ValidationError("initial snapshot must be a scalar field on the run grid",
                                  key="initial.terms")
        return f
    terms = _random_terms(cfg, spec) if spec.startswith("random") else _parse_trig_terms(spec)
    scale = TWO_PI / grid.length

    def f(x1, x2, x3):
        out = np.ones_like(x1)
        for amp, (k1, k2, k3) in terms:
            out = out + amp * np.cos(scale * (k1 * x1 + k2 * x2 + k3 * x3))
        return out

    u = field_from_function(grid, f)
    if u.min() <= 0:
        raise ValidationError("trig initial data loses positivity", key="initial.terms")
    return u


def _random_terms(cfg: RunConfig, spec: str):
    """Seeded band-limited trig terms (a, k), the amplitudes scaled so that
    their absolute sum stays below 0.5."""
    n_modes = 3
    if ":" in spec:
        n_modes = int(spec.split(":", 1)[1])
    rng = np.random.default_rng(cfg.get_int("seed"))
    terms = []
    while len(terms) < n_modes:
        k = tuple(int(m) for m in rng.integers(-2, 3, size=3))
        if k == (0, 0, 0):
            continue
        terms.append((float(rng.uniform(-1.0, 1.0)), k))
    total = sum(abs(a) for a, _ in terms)
    clamp = min(1.0, 0.5 / total) * 0.999
    return [(clamp * a, k) for a, k in terms]


def build_flow_config(cfg: RunConfig) -> FlowConfig:
    return FlowConfig(
        horizon=cfg.get_float("flow.horizon"),
        dt=None if cfg["flow.dt"] == "adaptive" else cfg.get_float("flow.dt"),
        projection_period=cfg.get_int("flow.projection_period"),
        gap_tol=cfg.get_float("eigen.gap_tol"),
        scheme=cfg["flow.scheme"],
        seed=cfg.get_int("seed"),
    )


# ---------------------------------------------------------------------------
# Deterministic emission helpers.
# ---------------------------------------------------------------------------

def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg["output.dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output.dir {str(out)!r}: {exc}",
                              key="output.dir") from None
    return out


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    grid = build_grid(cfg)
    spin = build_spin(cfg)
    exps = ExponentTable(3)
    u = build_initial(cfg, grid)
    target = cfg.get_float("eigen.target")
    out = _outdir(cfg)
    reset_solver_stats()
    window = solve_window(u, target, count=12, spin=spin, exps=exps, seed=cfg.get_int("seed"))
    lams = window.eigenvalues
    clusters = [{"lambda": c.mean, "multiplicity": len(c.members), "width": c.width,
                 "gap_in_window": c.gap} for c in window.clusters()]
    residuals = [p.constraint_residual(u, exps) for p in window.pairs]
    write_json(out / "spectrum.json", {
        "config": cfg.values,
        "target": target,
        "eigenvalues": [float(x) for x in lams],
        "clusters": clusters,
        "max_constraint_residual": max(residuals),
        "iterations": window.iterations,
        "solver_stats": solver_stats(),
    })
    write_csv(out / "spectrum.csv", ("index", "lambda", "constraint_residual"),
              [(i, lams[i], residuals[i]) for i in range(len(lams))])
    print(f"spectrum: {len(lams)} eigenvalues near {target} -> {out}")
    return EXIT_OK


def cmd_flow(cfg: RunConfig) -> int:
    grid = build_grid(cfg)
    spin = build_spin(cfg)
    exps = ExponentTable(3)
    u0 = build_initial(cfg, grid)
    fc = build_flow_config(cfg)
    out = _outdir(cfg)
    stride = cfg.get_int("output.stride")

    def hook(step_index: int, state) -> None:
        if stride and step_index % stride == 0:
            write_snapshot(out / f"u_{step_index:06d}.edf", state.u)
            write_snapshot(out / f"psi_{step_index:06d}.edf", state.pair.psi)

    def write_summary(exc, **fields) -> None:
        write_json(out / "summary.json", {
            "config": cfg.values, **fields,
            "iterations": getattr(exc, "iterations", None),
            "residual": getattr(exc, "residual", None),
            "solver_stats": solver_stats(),
            "formulas": FORMULA_VERSIONS,
        })

    reset_solver_stats()
    try:
        traj = flow_run(u0, cfg.get_float("eigen.target"), fc, exps, spin,
                        snapshot_hook=hook if stride else None)
    except (*_REJECTIONS, ConvergenceFailure) as exc:
        outcome = "failed" if isinstance(exc, ConvergenceFailure) else "rejected"
        write_summary(exc, **{outcome: f"{type(exc).__name__}: {exc}"})
        raise

    write_csv(out / "trajectory.csv", TRAJECTORY_COLUMNS, traj.rows)
    vols = traj.column("volume")
    write_summary(
        traj.abort_error,
        steps=len(traj.rows) - 1,
        final_time=traj.rows[-1][0],
        final_lambda=traj.rows[-1][1],
        volume_drift=float(np.abs(vols - vols[0]).max() / vols[0]),
        max_constraint_residual=float(traj.column("constraint_residual").max()),
        abort_reason=traj.abort_reason,
    )
    print(f"flow: {len(traj.rows) - 1} steps to t={fmt(traj.rows[-1][0])} -> {out}")
    if isinstance(traj.abort_error, ConvergenceFailure):
        raise traj.abort_error
    return EXIT_OK


def cmd_perturb_validate(cfg: RunConfig) -> int:
    exps = ExponentTable(3)
    grid = TorusGrid(6)
    u = field_from_function(
        grid, lambda x, y, z: 1 + 0.3 * np.cos(x) + 0.2 * np.cos(y + z))
    udot = field_from_function(
        grid, lambda x, y, z: np.cos(x) + 0.4 * np.cos(y) + 0.3 * np.cos(x + z))
    out = _outdir(cfg)

    reset_solver_stats()
    study = fd_study(u, udot, 0.88, exps)
    lam_rep, psi_rep = study.lam, study.psi

    # uniform scaling closed form lambda' = -2 s lambda
    s = 0.41
    pair = study.base
    scaling_err = abs(lambda_dot(u, scalar_field(grid, s * u.values), pair, exps)
                      + 2.0 * s * pair.lam)

    ok = (lam_rep.ok and psi_rep.ok
          and scaling_err <= 1e-12 and abs(psi_rep.extras["norm_rate"]) <= 1e-9)
    write_json(out / "perturb_validate.json", {
        "lambda_rate_slope": lam_rep.slope,
        "lambda_rate_errors": [float(e) for e in lam_rep.errors],
        "spinor_rate_slope": psi_rep.slope,
        "spinor_rate_errors": [float(e) for e in psi_rep.errors],
        "uniform_scaling_error": float(scaling_err),
        "norm_rate_identity": float(psi_rep.extras["norm_rate"]),
        "pass": bool(ok),
        "solver_stats": solver_stats(),
        "formulas": RATE_FORMULA_VERSIONS,
    })
    print(f"perturb-validate: lambda slope {lam_rep.slope:.3f}, "
          f"psi slope {psi_rep.slope:.3f}, pass={ok}")
    return EXIT_OK if ok else EXIT_VALIDATION_FAILED


def cmd_parabolic_validate(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    parabolic.reset_solver_stats()
    grid = TorusGrid(8)
    one = np.ones(grid.shape)
    x1, x2, x3 = grid.coords()
    mop = parabolic.mean_operator(grid)

    # manufactured Crank-Nicolson order
    def wstar(t):
        return np.exp(-t) * (1 + 0.2 * np.cos(x2))

    def forcing(t):
        w = wstar(t)
        return -w - np.exp(-t) * (-0.2 * np.cos(x2)) + mop.apply(w, t)

    errs = []
    for steps in (8, 16, 32):
        prob = parabolic.ParabolicProblem(grid, parabolic.constant_provider(one), mop,
                                          forcing, scalar_field(grid, wstar(0.0)), 1.0, steps)
        sol = parabolic.solve(prob, "crank_nicolson")
        errs.append(float(np.sqrt(grid.cell_volume * np.sum((sol.states[-1] - wstar(1.0)) ** 2))))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
    cn_order = float(np.mean(orders))

    # heat decay and energy estimate
    u0 = field_from_function(grid, lambda x, y, z: np.cos(x))
    heat = parabolic.ParabolicProblem(grid, parabolic.constant_provider(one),
                                      parabolic.zero_operator(grid), None, u0, 1.0, 64)
    sol_h = parabolic.solve(heat, "crank_nicolson")
    heat_err = float(np.abs(sol_h.states[-1] - np.exp(-1) * u0.values).max())
    energy = parabolic.energy_estimate_check(heat, sol_h, 1.5)

    # randomized energy-estimate sweep, the problems marched together
    rng = np.random.default_rng(cfg.get_int("seed"))
    n_sweep = 20
    problems = []
    for _ in range(n_sweep):
        base = parabolic.random_band_limited(grid, rng)
        amp = 0.3 * rng.uniform(0.3, 1.0)
        a_fun = (lambda t, b=base, a=amp: 1.0 + a * b * np.cos(t))
        op = parabolic.NonlocalOperator(grid, [
            parabolic.RankOne(parabolic.constant_provider(parabolic.random_band_limited(grid, rng)),
                              parabolic.constant_provider(parabolic.random_band_limited(grid, rng))),
            parabolic.Multiply(parabolic.constant_provider(0.5 * parabolic.random_band_limited(grid, rng))),
        ])
        f_field = parabolic.random_band_limited(grid, rng)
        f_fun = (lambda t, ff=f_field: np.cos(2 * t) * ff)
        w0 = scalar_field(grid, 0.5 * parabolic.random_band_limited(grid, rng))
        problems.append(parabolic.ParabolicProblem(grid, a_fun, op, f_fun, w0, 1.0, 32))
    sweep_pass = 0
    for prob, sol in zip(problems, parabolic.solve_batch(problems)):
        gr = parabolic.garding_constants(prob, probes=40)
        rep = parabolic.energy_estimate_check(prob, sol, gr.kappa + 0.75, garding=gr)
        sweep_pass += rep.ok

    axioms = parabolic.check_axioms(mop, trials=60)
    uniq = parabolic.uniqueness_check(
        parabolic.ParabolicProblem(grid, parabolic.constant_provider(one), mop, None,
                                   scalar_field(grid, one), 1.0, 32))

    ok = (abs(cn_order - 2.0) <= 0.1 and energy.ok and sweep_pass == n_sweep
          and axioms.a2_violation <= 1e-12 and uniq <= 1e-9)
    write_json(out / "parabolic_validate.json", {
        "cn_errors": errs,
        "cn_order": cn_order,
        "heat_mode_error": heat_err,
        "energy_estimate": {"lhs": energy.lhs, "rhs": energy.rhs, "pass": energy.ok},
        "random_sweep_pass": f"{sweep_pass}/{n_sweep}",
        "a1_constant": axioms.a1_constant,
        "a2_violation": axioms.a2_violation,
        "uniqueness_diff": uniq,
        "pass": bool(ok),
        "solver_stats": parabolic.solver_stats(),
    })
    print(f"parabolic-validate: CN order {cn_order:.3f}, sweep {sweep_pass}/{n_sweep}, pass={ok}")
    return EXIT_OK if ok else EXIT_VALIDATION_FAILED


def cmd_covariance_check(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    exps = ExponentTable(3)
    grid = TorusGrid(16)
    zero = scalar_field(grid, np.zeros(grid.shape))
    u_a = field_from_function(grid, lambda x, y, z: 1 + 0.3 * np.cos(y))
    r_zero = conformal.yamabe_covariance_residual(zero, u_a, exps)
    const = scalar_field(grid, np.full(grid.shape, 0.37))
    r_const = conformal.yamabe_covariance_residual(const, u_a, exps)
    f_b = field_from_function(grid, lambda x, y, z: 0.2 * np.cos(x))
    r_band = conformal.yamabe_covariance_residual(f_b, u_a, exps)

    ok = r_zero == 0.0 and r_const <= 1e-10 and r_band <= 1e-8
    write_json(out / "covariance_check.json", {
        "residual_f_zero": r_zero,
        "residual_f_constant": r_const,
        "residual_band_limited": r_band,
        "pass": bool(ok),
    })
    print(f"covariance-check: residuals ({r_zero:.2e}, {r_const:.2e}, {r_band:.2e}), pass={ok}")
    return EXIT_OK if ok else EXIT_VALIDATION_FAILED


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "flow": cmd_flow,
    "perturb-validate": cmd_perturb_validate,
    "parabolic-validate": cmd_parabolic_validate,
    "covariance-check": cmd_covariance_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edtorus",
        description="Dirac-pencil constrained conformal flow laboratory on T^3")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to key=value config file")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config else parse_config_text("")
        return _COMMANDS[args.command](cfg)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _REJECTIONS as exc:
        print(f"{args.command}: rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except EdtorusError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
