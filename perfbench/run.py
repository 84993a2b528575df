"""edtorus benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload flow|validate --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The workload runs in a child process
(worker.py), as a user runs the program: one process, default threading.
Set-up time is measured on that process and on SETUP_PROBES more that stop
once their inputs are ready.  After the child has ended, this process checks
the outputs against the benchmark's own references (reference.py) and
prints one JSON line: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics, or with `--trace 1` the per-layer metrics from the
child's spans).  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference
import spans
import worker
from worker import now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2
#: one run must end within this many seconds
RUN_LIMIT_S = 175.0


def start_worker(args, out: Path, log: Path, timeout: float) -> float:
    """Run worker.py to its end; return the seconds from process start to
    inputs ready."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(out)] + [str(a) for a in args]
    err = log.with_suffix(".err")
    with open(log, "w") as fh, open(err, "w") as fh_err:
        t0 = now()
        proc = subprocess.run(cmd, stdout=fh, stderr=fh_err, cwd=ROOT, timeout=timeout)
    lines = log.read_text().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n"
                           + "\n".join(err.read_text().splitlines()[-20:]))
    return float(lines[0]) - t0


# ---------------------------------------------------------------------------
# Correctness checks (outside every timed region).
# ---------------------------------------------------------------------------

def check_flow(result, arrays) -> list:
    cfg = result["config"]
    n, length = int(cfg["grid.n"]), float(cfg["grid.length"])
    u = arrays["u"]
    problems = []
    # the cold window solve: the tracked pair is the reference Kramers pair
    # nearest the target, and the pair satisfies its constraint
    if np.abs(u[0] - reference.trig_field(n, length, worker.DATUM)).max() > 1e-14:
        problems.append("initial field differs from the datum")
    lam0 = float(arrays["initial_lambda"])
    ref0 = reference.nearest(reference.pencil_eigenvalues(u[0], length, worker.SHIFT),
                             worker.TARGET, 2)
    if np.abs(ref0 - lam0).max() > 1e-8:
        problems.append(f"initial lambda {lam0} is not the reference Kramers pair "
                        f"{ref0} nearest the target")
    resid = reference.constraint_residual(u[0], lam0, arrays["initial_psi"], length,
                                          worker.SHIFT)
    if resid > 1e-9:
        problems.append(f"initial constraint residual {resid:.2e} above 1e-9")
    if arrays["t"][-1] < arrays["horizon"] - 1e-12:
        problems.append(f"stopped at t = {arrays['t'][-1]} before the horizon")
    vol = (u ** 6).sum(axis=(1, 2, 3))
    drift = float(np.abs(vol - vol[0]).max() / vol[0])
    if drift > 1e-6:
        problems.append(f"volume drift {drift:.2e} above 1e-6")
    lam = float(arrays["final_lambda"])
    evals = reference.pencil_eigenvalues(u[-1], length, worker.SHIFT)
    near = reference.nearest(evals, lam, 2)
    if np.abs(near - lam).max() > 1e-6:
        problems.append(f"final lambda {lam} is no double eigenvalue of the "
                        f"reference (nearest {near})")
    return problems


def check_validate(result, _arrays) -> list:
    problems = []
    for reports in result["reports"]:
        perturb, parabolic, covariance = reports
        for name, rep in zip(worker.VALIDATORS, reports):
            if rep is not None and rep["pass"] is not True:
                problems.append(f"{name} does not pass")
        if perturb is not None:
            # eigenvalue rate against centered differences, lambda' = -2 s lambda
            for key in ("lambda_rate_slope", "spinor_rate_slope"):
                if abs(perturb[key] - 2.0) > 0.1:
                    problems.append(f"perturb-validate {key} {perturb[key]}")
            if perturb["uniform_scaling_error"] > 1e-12:
                problems.append("perturb-validate: lambda' = -2 s lambda fails")
        if parabolic is not None:
            errs = parabolic["cn_errors"]
            order = np.mean(np.log2(np.array(errs[:-1]) / np.array(errs[1:])))
            if abs(order - 2.0) > 0.1:
                problems.append(f"parabolic-validate: Crank-Nicolson order {order}")
            # Crank-Nicolson on cos x, 64 steps to t = 1: amplification
            # ((1 - dt/2) / (1 + dt/2))^64 against exp(-1)
            dt = 1.0 / 64
            expected = abs(((1 - dt / 2) / (1 + dt / 2)) ** 64 - np.exp(-1.0))
            if abs(parabolic["heat_mode_error"] - expected) > 1e-9:
                problems.append("parabolic-validate: heat mode off its exp(-t) decay")
        if covariance is not None and max(covariance[k] for k in (
                "residual_f_zero", "residual_f_constant", "residual_band_limited")) > 1e-8:
            problems.append("covariance-check residual above 1e-8")
    return problems


CHECKS = {"flow": check_flow, "validate": check_validate}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def end_to_end(result, setups) -> dict:
    done = [r for r in result["rounds"] if "wall" in r]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall"] for r in done), "s"),
        "init_s": (statistics.median(r["init"] for r in done), "s"),
        "steps": (statistics.median(len(r["steps"]) for r in done), "count"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def step_times(result) -> dict:
    """Median and 80th percentile of the step times of all rounds.  They are
    per-layer metrics: the flow's step times fall from about 750 to 250 ms
    over a run, so their median and percentile rest on a few seconds of it
    and spread across runs about twice as much as `wall_s` does."""
    steps = [s for r in result["rounds"] for s in r.get("steps", [])]
    return {
        "step_ms": (1e3 * statistics.median(steps), "ms"),
        "step_p80_ms": (1e3 * float(np.percentile(steps, 80)), "ms"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        probes: int = SETUP_PROBES) -> dict:
    began = now()
    out = OUT / f"{workload}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    extra = ["smoke"] if smoke else []
    setups = [start_worker([workload, seed, "setup", 0], out / "probe",
                           OUT / f"{workload}-{seed}-probe.log", RUN_LIMIT_S)
              for _ in range(probes)]
    setups.append(start_worker(
        [workload, seed, seconds, int(trace)] + extra, out,
        OUT / f"{workload}-{seed}.log", RUN_LIMIT_S - (now() - began)))
    result = json.loads((out / "result.json").read_text())
    arrays = {}
    if (out / "result.npz").exists():
        with np.load(out / "result.npz") as data:
            arrays = {k: data[k] for k in data.files}
    problems = CHECKS[workload](result, arrays) if arrays or result["reports"] else []
    errors = [e for r in result["rounds"] for e in r.get("errors", [])]
    for line in result["failures"] + errors + problems:
        print(f"{workload}: {line}", file=sys.stderr)
    rounds = len(result["rounds"])
    if trace:
        metrics = spans.layer_metrics(spans.load(out / "spans.npz"), rounds)
        metrics.update(step_times(result))
    else:
        metrics = end_to_end(result, setups)
    return {
        "correct": not problems,
        "attempted": rounds * worker.OPS[workload],
        "failed": sum(r["failed"] for r in result["rounds"]),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(worker.RUNNERS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: check the harness itself in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "edtorus").is_dir():
        print(f"no edtorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        import smoke

        return smoke.main(run)
    if args.workload is None:
        parser.error("--workload is required")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
