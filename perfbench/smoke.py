"""Smoke mode of the benchmark: checks the harness on tiny inputs in seconds.

- span self-time and nesting arithmetic on hand-made spans;
- the benchmark's dense reference against the program's `dense_oracle` at
  N = 6;
- each workload once at N = 4 (flow to t = 0.0005, one step), traced, and
  flow once untraced: the checks pass and every metric BENCHMARK.json names
  is reported.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import reference
import spans
import worker

ROOT = Path(__file__).resolve().parent.parent


def check_span_arithmetic() -> list:
    # solve_window [0, 10] > minres [1, 4] > apply [2, 3] (3 columns)
    #                      > minres [5, 9] > minres [6, 7] (recursive call)
    names = ["pencil.solve_window", "pencil.minres", "pencil.apply",
             "pencil.minres", "pencil.minres"]
    idx = {n: i for i, n in enumerate(spans.SPAN_NAMES)}
    fake = {
        "names": np.array(spans.SPAN_NAMES),
        "name": np.array([idx[n] for n in names]),
        "start": np.array([0.0, 1.0, 2.0, 5.0, 6.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0, 7.0]),
        "parent": np.array([-1, 0, 1, 0, 3]),
        "work": np.array([0.0, 2.0, 3.0, 1.0, 1.0]),
    }
    expect = {
        "pencil.solve_window.self_s": 3.0,
        "pencil.minres.calls": 2, "pencil.minres.s": 7.0, "pencil.minres.self_s": 6.0,
        "pencil.minres.columns": 3, "pencil.minres.iterations": 1,
        "pencil.apply.columns": 3, "pencil.apply.self_s": 1.0,
        "pencil.solve_window.minres_calls": 2,
    }
    got = spans.layer_metrics(fake, rounds=1)
    problems = [f"{k}: {got[k][0]} != {v}" for k, v in expect.items() if got[k][0] != v]
    halved = spans.layer_metrics(fake, rounds=2)
    if halved["pencil.minres.s"][0] != 3.5:
        problems.append("per-round division")
    return problems


def check_reference() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    from edtorus import fields, pencil

    grid = fields.TorusGrid(6)
    u = reference.trig_field(grid.n, grid.length, worker.DATUM)
    oracle = pencil.dense_oracle(fields.scalar_field(grid, u),
                                 fields.SpinStructure(worker.SHIFT))
    err = np.abs(reference.pencil_eigenvalues(u, grid.length, worker.SHIFT)
                 - oracle.eigenvalues).max()
    return [] if err <= 1e-12 else [f"dense reference off the oracle by {err:.2e}"]


def main(run) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f"span arithmetic: {p}" for p in check_span_arithmetic()]
    problems += check_reference()
    cases = [(w, True) for w in worker.RUNNERS] + [("flow", False)]
    for workload, trace in cases:
        report = run(workload, 7, 0.0, trace, smoke=True, probes=1)
        kind = "per_layer" if trace else "end_to_end"
        names = {m["name"] for m in declared[kind]}
        if set(report["metrics"]) != names:
            problems.append(f"{workload} {kind}: metrics {sorted(set(report['metrics']) ^ names)}"
                            " differ from BENCHMARK.json")
        if not report["correct"] or report["failed"]:
            problems.append(f"{workload}: correct={report['correct']} failed={report['failed']}")
        print(f"smoke {workload} trace={int(trace)}: {report['attempted']} attempted, "
              f"{report['failed']} failed, correct={report['correct']}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0
