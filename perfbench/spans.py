"""Span tracing of edtorus from outside the package, and per-layer metrics.

`Tracer.install` replaces a function (or method) of an edtorus module with a
wrapper that records one span per call: name, start, end, parent span and an
optional work figure (columns, bytes).  The replacement covers the module
attribute and every name other edtorus modules imported from it, so calls
through `from .fields import grid_fft` are traced too.  Spans are held in
compact arrays while the program runs and written out once at the end.

`layer_metrics` turns a span file into the per-layer metrics of the
benchmark.  A span's self time is its duration minus the durations of its
direct child spans (the program is single threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _columns(args, kwargs, result) -> int:
    """Columns of the block (or vector) passed as the second argument."""
    x = args[1]
    return 1 if x.ndim == 1 else x.shape[1]


def _fft_bytes(args, kwargs, result) -> float:
    return float(args[0].nbytes + result.nbytes)


def _project_state_name(args, kwargs) -> str:
    full = kwargs.get("full", args[4] if len(args) > 4 else False)
    return "flow.project_state.full" if full else "flow.project_state.cheap"


#: traced layers: (span name, or a function of (args, kwargs) giving it;
#: module; attribute path; work function of (args, kwargs, result) or None)
LAYERS = (
    ("fields.fft", "edtorus.fields", "grid_fft", _fft_bytes),
    ("fields.fft", "edtorus.fields", "grid_ifft", _fft_bytes),
    ("pencil.apply", "edtorus.pencil", "Pencil.apply", _columns),
    ("pencil.precond", "edtorus.pencil", "ShiftedDiagonalPreconditioner.__call__", _columns),
    ("pencil.minres", "edtorus.pencil", "minres_hermitian", _columns),
    ("pencil.solve_window", "edtorus.pencil", "solve_window", None),
    ("pencil.refine_pair", "edtorus.pencil", "refine_pair", None),
    ("pencil.dense_oracle", "edtorus.pencil", "dense_oracle", None),
    ("perturb.projected_resolvent", "edtorus.perturb", "projected_resolvent", None),
    ("flow.prepare_initial_state", "edtorus.flow", "prepare_initial_state", None),
    ("flow.step", "edtorus.flow", "step", None),
    (_project_state_name, "edtorus.flow", "project_state", None),
    ("flow.diagnostics", "edtorus.flow", "FlowState.with_diagnostics", None),
    ("parabolic.solve", "edtorus.parabolic", "solve", None),
    ("parabolic.garding_constants", "edtorus.parabolic", "garding_constants", None),
    ("conformal.laplacian", "edtorus.conformal", "laplacian", None),
)

#: every span name a traced run can record, in report order
SPAN_NAMES = (
    "fields.fft", "pencil.apply", "pencil.precond", "pencil.minres",
    "pencil.solve_window", "pencil.refine_pair", "pencil.dense_oracle",
    "perturb.projected_resolvent", "flow.prepare_initial_state", "flow.step",
    "flow.project_state.cheap", "flow.project_state.full", "flow.diagnostics",
    "parabolic.solve", "parabolic.garding_constants", "conformal.laplacian",
)


class Tracer:
    """Records spans of wrapped calls in memory (single threaded)."""

    def __init__(self):
        self._name_index = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.work = array("d")
        self._stack = [-1]
        self._restore = []

    def _wrap(self, name, original, work):
        tracer = self
        fixed = None if callable(name) else self._name_index[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(fixed if fixed is not None
                               else tracer._name_index[name(args, kwargs)])
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer.work.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                tracer.work[idx] = work(args, kwargs, result)
            return result

        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer; `uninstall` puts the originals back."""
        for name, module_name, path, work in layers:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self._wrap(name, original, work)
            targets = [(owner, attr)]
            if not outer:
                # names other modules bound with `from module import name`
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("edtorus") and mod is not owner:
                        for key, value in vars(mod).items():
                            if value is original:
                                targets.append((mod, key))
            for obj, key in targets:
                self._restore.append((obj, key, original))
                setattr(obj, key, traced)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), name=np.frombuffer(self.name, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int64),
                 work=np.frombuffer(self.work))


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def ancestor_has(name, parent, wanted) -> np.ndarray:
    """For each span, whether some proper ancestor's name index equals
    `wanted[i]` (an int, or an array giving one target per span)."""
    wanted = np.broadcast_to(np.asarray(wanted), name.shape)
    found = np.zeros(name.size, bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        idx = np.flatnonzero(live)
        found[idx] |= name[anc[idx]] == wanted[idx]
        anc[idx] = parent[anc[idx]]
        live = anc >= 0
    return found


def layer_metrics(spans: dict, rounds: int) -> dict:
    """Per-layer metrics per round from a span file's arrays.

    For every span name: `.calls` and `.s` count the outermost spans of that
    name (a recursive call is not a second call), `.self_s` sums self time
    over all of them.  Layer-specific work counts are added by name.
    """
    names = list(spans["names"])
    name, parent = spans["name"], spans["parent"]
    start, end, work = spans["start"], spans["end"], spans["work"]
    dur = end - start
    own = self_times(start, end, parent)
    nested = ancestor_has(name, parent, name)
    idx = {n: i for i, n in enumerate(names)}

    def pick(span_name, outermost=True):
        sel = name == idx[span_name]
        return sel & ~nested if outermost else sel

    def inside(span_name):
        return ancestor_has(name, parent, idx[span_name])

    out = {}
    for n in SPAN_NAMES:
        top = pick(n)
        out[f"{n}.calls"] = (int(top.sum()), "count")
        out[f"{n}.s"] = (float(dur[top].sum()), "s")
        out[f"{n}.self_s"] = (float(own[pick(n, False)].sum()), "s")
    fft = pick("fields.fft")
    out["fields.fft.mb_computed"] = (float(work[fft].sum()) / 1e6, "MB")
    for n in ("pencil.apply", "pencil.precond", "pencil.minres"):
        out[f"{n}.columns"] = (int(work[pick(n)].sum()), "count")
    apply = pick("pencil.apply")
    out["pencil.minres.iterations"] = (int((apply & inside("pencil.minres")).sum()), "count")
    out["pencil.solve_window.minres_calls"] = (
        int((pick("pencil.minres") & inside("pencil.solve_window")).sum()), "count")
    out["perturb.projected_resolvent.apply_columns"] = (
        int(work[apply & inside("perturb.projected_resolvent")].sum()), "count")
    return {k: (v / rounds, unit) for k, (v, unit) in out.items()}


def load(path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}
