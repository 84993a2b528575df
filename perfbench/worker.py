"""Runs one benchmark workload on edtorus, in this one process.

Started by run.py as `python3 perfbench/worker.py <out dir> <workload> <seed>
<seconds> <trace 0|1> [smoke]`, or with `<seconds>` = `setup` to stop once
the inputs are ready.  Prints the CLOCK_MONOTONIC time at which its inputs
were ready; run.py subtracts the time it started the process.  Repeats
whole rounds of the workload until `seconds` have passed (at least one),
then writes `result.json` (timings, counts, failures) and `result.npz`
(outputs for the correctness checks) into the out dir, and with tracing
`spans.npz`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the initial datum u = 1 + 0.3 cos x + 0.2 cos(y + z): (amplitude, mode)
DATUM = ((0.3, (1, 0, 0)), (0.2, (0, 1, 1)))
TARGET = 0.87
SHIFT = (0.5, 0.5, 0.5)
VALIDATORS = ("perturb-validate", "parabolic-validate", "covariance-check")
#: operations in one round of each workload
OPS = {"flow": 1, "validate": len(VALIDATORS)}


def config_text(workload: str, seed: int, out: Path, smoke: bool) -> str:
    """The run's edtorus config; the values equal today's defaults, written
    out so that a change of default does not change the benchmark."""
    terms = ";".join(f"{a}:{k[0]},{k[1]},{k[2]}" for a, k in DATUM)
    lines = [f"grid.n = {4 if smoke else 8}",
             "spin.shift = " + ",".join(str(s) for s in SHIFT),
             "initial.kind = trig",
             f"initial.terms = {terms}",
             f"eigen.target = {TARGET}",
             f"seed = {seed}",
             f"output.dir = {out / 'program'}"]
    if workload == "flow":
        lines.append(f"flow.horizon = {0.0005 if smoke else 0.1}")
    return "".join(line + "\n" for line in lines)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_flow(inp, record):
    from edtorus import flow

    marks, times, us, pairs = [], [], [], []

    def hook(_step, state):
        marks.append(now())
        times.append(state.t)
        us.append(state.u.values)  # frozen arrays: kept, not copied
        if not pairs:
            pairs.append(state.pair)

    t0 = now()
    traj = flow.run(inp["u"], TARGET, inp["flow_config"], inp["exps"], inp["spin"],
                    snapshot_hook=hook)
    t1 = now()
    if traj.abort_reason is not None:
        raise RuntimeError(f"flow aborted: {traj.abort_reason}")
    record["arrays"] = {
        "t": times,
        "u": us,
        "initial_lambda": pairs[0].lam,
        "initial_psi": pairs[0].psi.values,
        "final_lambda": traj.final_state.pair.lam,
        "horizon": inp["flow_config"].horizon,
    }
    steps = [b - a for a, b in zip(marks, marks[1:])]
    return {"init": marks[0] - t0, "steps": steps, "wall": t1 - t0, "failed": 0}


def run_validate(inp, record):
    from edtorus import cli

    program = inp["config_path"].parent / "program"
    t0 = now()
    marks, codes = [t0], []
    for name in VALIDATORS:
        try:
            codes.append(cli.main([name, "--config", str(inp["config_path"])]))
        except Exception as exc:  # counted as a failed operation
            codes.append(f"{type(exc).__name__}: {exc}")
        marks.append(now())
    # each validator's JSON report, None for a failed one
    record.setdefault("reports", []).append([
        json.loads((program / f"{name.replace('-', '_')}.json").read_text())
        if code == 0 else None for name, code in zip(VALIDATORS, codes)])
    steps = [b - a for a, b in zip(marks, marks[1:])]
    errors = [f"{name}: {code}" for name, code in zip(VALIDATORS, codes) if code != 0]
    return {"init": steps[0], "steps": steps, "wall": marks[-1] - t0,
            "failed": len(errors), "errors": errors}


RUNNERS = {"flow": run_flow, "validate": run_validate}


def main(argv) -> int:
    out, workload, seed, seconds, trace = argv[:5]
    smoke = argv[5:] == ["smoke"]
    seed, out = int(seed), Path(out)
    sys.path.insert(0, str(ROOT / "src"))

    from edtorus import cli

    config_path = out / "run.cfg"
    config_path.write_text(config_text(workload, seed, out, smoke))
    cfg = cli.parse_config(config_path)
    inp = {"seed": cfg.get_int("seed"), "config_path": config_path}
    if workload != "validate":
        grid = cli.build_grid(cfg)
        inp.update(spin=cli.build_spin(cfg), exps=cli.ExponentTable(3),
                   u=cli.build_initial(cfg, grid), flow_config=cli.build_flow_config(cfg))
    ready = now()
    print(repr(ready), flush=True)
    if seconds == "setup":
        return 0

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    rounds, failures, record = [], [], {}
    start = now()
    while not rounds or now() - start < float(seconds):
        try:
            rounds.append(RUNNERS[workload](inp, record))
        except Exception as exc:  # the benchmark keeps going and counts it
            failures.append(f"{type(exc).__name__}: {exc}")
            rounds.append({"failed": OPS[workload]})

    if tracer is not None:
        tracer.uninstall()
        tracer.save(out / "spans.npz")
    arrays = record.pop("arrays", {})
    if arrays:
        import numpy as np

        np.savez(out / "result.npz", **{k: np.asarray(v) for k, v in arrays.items()})
    (out / "result.json").write_text(json.dumps({
        "rounds": rounds,
        "failures": failures,
        "reports": record.get("reports", []),
        "config": cfg.values,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
