"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.install` replaces each
traced biphoton function with a wrapper in every namespace that holds a
reference to it (re-imports such as `schmidt.signal_wavenumber`, the
package `__init__`, and `cli.COMMANDS`), and `uninstall` puts the originals
back.  A span is (name, parent, start, end, overhead, points, aux); `points`
is the number of elements the call worked on, `aux` a second count some
spans carry (in-box pairs, bytes), and `overhead` the time the wrapper spent
outside [start, end] on its own bookkeeping.  `layer_metrics` takes every
span's overhead out of its ancestors' durations, so the tracer's cost is not
counted as time in the program's layers.  Spans live in flat arrays until
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np
from biphoton.schmidt import MODELS


class SpanRecorder:
    """Flat, append-only span store; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.overhead = array("d")
        self.points = array("q")
        self.aux = array("q")
        self._stack: list[int] = []

    def __len__(self):
        return len(self.name_id)

    def begin(self, name: str, points: int = 0, aux: int = 0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.points.append(int(points))
        self.aux.append(int(aux))
        self.end.append(float("nan"))
        self.overhead.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def charge(self, idx: int, entered: float):
        """Book the wrapper's time since `entered` outside the span as overhead."""
        self.overhead[idx] = (time.perf_counter() - entered
                              - (self.end[idx] - self.start[idx]))

    def columns(self, lo=0, hi=None):
        """Spans [lo, hi) as numpy columns, parents re-based to lo (-1 if outside)."""
        hi = len(self) if hi is None else hi
        # copies, not buffer views: a live view would stop the arrays growing
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        return {
            "name_id": np.array(self.name_id[lo:hi], dtype=np.int64),
            "parent": parent,
            "start": np.array(self.start[lo:hi], dtype=np.float64),
            "end": np.array(self.end[lo:hi], dtype=np.float64),
            "overhead": np.array(self.overhead[lo:hi], dtype=np.float64),
            "points": np.array(self.points[lo:hi], dtype=np.int64),
            "aux": np.array(self.aux[lo:hi], dtype=np.int64),
        }

    def save(self, path):
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def _size(*arrays):
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _in_box_pairs(kern, W1, W2):
    half = kern.filter.half_widths()
    W1 = np.atleast_2d(np.asarray(W1, dtype=float))
    W2 = np.atleast_2d(np.asarray(W2, dtype=float))
    inside = np.all(np.abs(W1) <= half, axis=1) & np.all(np.abs(W2) <= half, axis=1)
    return int(np.count_nonzero(inside))


def _svd_matrix_bytes(result):
    cells = int(np.prod(result.grid_sizes))
    return cells * cells * np.dtype(complex).itemsize


# (module, attribute, span name, points(args, kwargs), extra) where extra may
# hold "label" (span-name suffix from the arguments), "aux" (count from the
# arguments), "aux_result" (count from the return value) and "capture".
def _targets():
    return [
        ("biphoton.dispersion", "signal_wavenumber", "dispersion.signal_wavenumber",
         lambda a, k: _size(_arg(a, k, 0, "omega_shift")), {}),
        ("biphoton.dispersion", "pump_wavenumber_at", "dispersion.pump_wavenumber_at",
         lambda a, k: _size(_arg(a, k, 0, "omega_pump_shift")), {}),
        ("biphoton.phasematch", "solve_q_pm", "phasematch.solve_q_pm",
         lambda a, k: 1, {}),
        ("biphoton.phasematch", "delta_pw", "phasematch.delta_pw",
         lambda a, k: _size(_arg(a, k, 0, "q"), _arg(a, k, 1, "omega_shift")), {}),
        ("biphoton.phasematch", "solve_pm_curve", "phasematch.solve_pm_curve",
         lambda a, k: int(_arg(a, k, 1, "n_samples")), {}),
        ("biphoton.phasematch", "delta_full_arrays", "phasematch.delta_full_arrays",
         lambda a, k: _size(*a[:6]), {}),
        ("biphoton.correlation", "biphoton_fourier_arrays",
         "correlation.biphoton_fourier_arrays", lambda a, k: _size(*a[:6]), {}),
        ("biphoton.correlation", "pw_kernel_values", "correlation.pw_kernel_values",
         lambda a, k: _size(_arg(a, k, 0, "q"), _arg(a, k, 1, "omega_shift")), {}),
        ("biphoton.correlation", "correlation_map", "correlation.correlation_map",
         lambda a, k: 0, {}),
        ("biphoton.correlation", "synthesize_map", "correlation.synthesize_map",
         lambda a, k: _size(_arg(a, k, 0, "kernel_values")),
         {"aux": lambda a, k: np.asarray(_arg(a, k, 0, "kernel_values")).nbytes}),
        ("biphoton.correlation", "ridge_fit", "correlation.ridge_fit", lambda a, k: 0, {}),
        ("biphoton.schmidt", "mc_norm", "schmidt.mc_norm",
         lambda a, k: int(_arg(a, k, 3, "n_samples")),
         {"label": lambda a, k: _arg(a, k, 0, "filter").model}),
        ("biphoton.schmidt", "mc_purity", "schmidt.mc_purity",
         lambda a, k: int(_arg(a, k, 3, "n_samples")),
         {"label": lambda a, k: _arg(a, k, 0, "filter").model}),
        ("biphoton.schmidt", "PdcKernel.evaluate", "schmidt.PdcKernel.evaluate",
         lambda a, k: len(np.atleast_2d(np.asarray(a[1]))),
         {"aux": lambda a, k: _in_box_pairs(*a[:3])}),
        ("biphoton.schmidt", "schmidt_number", "schmidt.schmidt_number", lambda a, k: 0, {}),
        ("biphoton.schmidt", "svd_oracle", "schmidt.svd_oracle", lambda a, k: 0,
         {"aux_result": _svd_matrix_bytes}),
        ("biphoton.schmidt", "bandwidth_sweep", "schmidt.bandwidth_sweep",
         lambda a, k: 0, {"capture": True}),
        ("biphoton.config", "parse_config", "config.parse_config", lambda a, k: 0, {}),
        ("biphoton.cli", "cmd_tune", "cli.tune", lambda a, k: 0, {}),
        ("biphoton.cli", "cmd_dispersion", "cli.dispersion", lambda a, k: 0, {}),
        ("biphoton.cli", "cmd_pmcurve", "cli.pmcurve", lambda a, k: 0, {}),
        ("biphoton.cli", "cmd_correlate", "cli.correlate", lambda a, k: 0, {}),
        ("biphoton.cli", "cmd_schmidt_sweep", "cli.schmidt-sweep", lambda a, k: 0, {}),
    ]


class Tracer:
    """Installs span-recording wrappers around biphoton's public functions."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self.captured: list = []
        self._patches: list = []

    def _wrap(self, fn, name, points, extra):
        rec = self.rec
        label = extra.get("label")
        aux_fn = extra.get("aux")
        aux_result = extra.get("aux_result")
        capture = self.captured if extra.get("capture") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            full = f"{name}.{label(args, kwargs)}" if label else name
            aux = aux_fn(args, kwargs) if aux_fn else 0
            idx = rec.begin(full, points(args, kwargs), aux)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.finish(idx)
                rec.charge(idx, entered)
                raise
            rec.finish(idx)
            if aux_result is not None:
                rec.aux[idx] = aux_result(result)
            if capture is not None:
                capture.append(result)
            rec.charge(idx, entered)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "biphoton" or key.startswith("biphoton."))]
        for modname, attr, name, points, extra in _targets():
            if "." in attr:  # a method: patch the class
                cls_name, attr = attr.split(".")
                cls = getattr(sys.modules[modname], cls_name)
                original = getattr(cls, attr)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, points, extra))
                continue
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, name, points, extra)
            for mod in modules:
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is original:
                        self._patches.append((space, key, original))
                        space[key] = wrapper
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._patches.append((value, dkey, original))
                                value[dkey] = wrapper

    def uninstall(self):
        for space, key, original in reversed(self._patches):
            if isinstance(space, type):
                setattr(space, key, original)
            else:
                space[key] = original
        self._patches.clear()


# per-layer metrics of the traced run: name -> (unit, which way is better)
LAYER_METRICS = {
    "dispersion.signal_wavenumber.calls": ("count", "lower"),
    "dispersion.signal_wavenumber.points": ("count", "lower"),
    "dispersion.signal_wavenumber.ns_per_point": ("ns", "lower"),
    "dispersion.pump_wavenumber_at.points": ("count", "lower"),
    "dispersion.pump_wavenumber_at.ns_per_point": ("ns", "lower"),
    "phasematch.solve_q_pm.calls": ("count", "lower"),
    "phasematch.solve_q_pm.self_s": ("s", "lower"),
    "phasematch.delta_pw.calls": ("count", "lower"),
    "phasematch.delta_pw.calls_per_pmcurve": ("count", "lower"),
    "phasematch.solve_pm_curve.s": ("s", "lower"),
    "phasematch.delta_full_arrays.points": ("count", "lower"),
    "phasematch.delta_full_arrays.ns_per_point": ("ns", "lower"),
    "correlation.biphoton_fourier_arrays.points": ("count", "lower"),
    "correlation.biphoton_fourier_arrays.self_ns_per_point": ("ns", "lower"),
    "correlation.pw_kernel_values.points": ("count", "lower"),
    "correlation.pw_kernel_values.ns_per_point": ("ns", "lower"),
    "correlation.synthesize_map.s": ("s", "lower"),
    "correlation.synthesize_map.bytes_in": ("bytes", "lower"),
    "correlation.ridge_fit.s": ("s", "lower"),
    "schmidt.PdcKernel.evaluate.calls": ("count", "lower"),
    "schmidt.PdcKernel.evaluate.points": ("count", "lower"),
    "schmidt.PdcKernel.evaluate.ns_per_point": ("ns", "lower"),
    "schmidt.PdcKernel.evaluate.in_box_frac": ("ratio", "higher"),
    **{f"schmidt.mc_norm.ns_per_sample.{m}": ("ns", "lower") for m in MODELS},
    **{f"schmidt.mc_purity.ns_per_sample.{m}": ("ns", "lower") for m in MODELS},
    "schmidt.mc_purity.kernel_points_per_sample": ("count", "lower"),
    "schmidt.mc_purity.sellmeier_points_per_sample": ("count", "lower"),
    "schmidt.svd_oracle.s": ("s", "lower"),
    "schmidt.svd_oracle.fill_s": ("s", "lower"),
    "schmidt.svd_oracle.self_s": ("s", "lower"),
    "schmidt.svd_oracle.matrix_bytes": ("bytes", "lower"),
    "cli.tune.s": ("s", "lower"),
    "cli.dispersion.s": ("s", "lower"),
    "cli.pmcurve.s": ("s", "lower"),
    "cli.correlate.s": ("s", "lower"),
    "cli.schmidt-sweep.s": ("s", "lower"),
    "cli.cmd_correlate.self_s": ("s", "lower"),
    "config.parse_config.s": ("s", "lower"),
    # filled in by the harness: bytes of every file the CLI calls wrote,
    # cells bandwidth_sweep gave up on, and traced against untraced pass time
    "cli.bytes_written": ("bytes", "lower"),
    "schmidt.bandwidth_sweep.failed_cells": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _nearest_ancestor(parent, is_target):
    """For each span, the index of its nearest strict ancestor with
    is_target set, or -1.  Parents precede children, so one forward sweep."""
    out = np.full(len(parent), -1, dtype=np.int64)
    if not is_target.any():
        return out
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            out[i] = p if is_target[p] else out[p]
    return out


def _descendant_overhead(parent, overhead):
    """For each span, the summed wrapper overhead of all its descendants.
    Children follow their parents, so one backward sweep."""
    out = np.zeros(len(parent))
    for i in range(len(parent) - 1, -1, -1):
        p = parent[i]
        if p >= 0:
            out[p] += overhead[i] + out[i]
    return out


def layer_metrics(rec: SpanRecorder, lo: int, hi: int) -> dict:
    """Per-layer figures of the spans recorded in [lo, hi) (one traced pass)."""
    cols = rec.columns(lo, hi)
    names = np.array(rec.names + [""], dtype=object)
    name = names[cols["name_id"]] if hi > lo else np.array([], dtype=object)
    parent = cols["parent"]
    # durations without the tracer's bookkeeping in nested wrappers
    dur = cols["end"] - cols["start"] - _descendant_overhead(parent.tolist(),
                                                             cols["overhead"].tolist())
    points = cols["points"]
    aux = cols["aux"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time

    def sel(n):
        return name == n

    def total(values, n):
        return float(values[sel(n)].sum())

    def per_point_ns(values, n):
        pts = int(points[sel(n)].sum())
        return 1e9 * total(values, n) / pts if pts else 0.0

    out = {}
    for n in ("dispersion.signal_wavenumber", "phasematch.solve_q_pm",
              "phasematch.delta_pw", "schmidt.PdcKernel.evaluate"):
        out[f"{n}.calls"] = int(np.count_nonzero(sel(n)))
    for n in ("dispersion.signal_wavenumber", "dispersion.pump_wavenumber_at",
              "phasematch.delta_full_arrays", "correlation.biphoton_fourier_arrays",
              "correlation.pw_kernel_values", "schmidt.PdcKernel.evaluate"):
        out[f"{n}.points"] = int(points[sel(n)].sum())
    for n in ("dispersion.signal_wavenumber", "dispersion.pump_wavenumber_at",
              "phasematch.delta_full_arrays", "correlation.pw_kernel_values",
              "schmidt.PdcKernel.evaluate"):
        out[f"{n}.ns_per_point"] = per_point_ns(dur, n)
    out["correlation.biphoton_fourier_arrays.self_ns_per_point"] = per_point_ns(
        self_time, "correlation.biphoton_fourier_arrays")
    out["phasematch.solve_q_pm.self_s"] = total(self_time, "phasematch.solve_q_pm")

    curves = sel("phasematch.solve_pm_curve")
    out["phasematch.solve_pm_curve.s"] = total(dur, "phasematch.solve_pm_curve")
    in_curve = _nearest_ancestor(parent, curves) >= 0
    n_curves = int(np.count_nonzero(curves))
    out["phasematch.delta_pw.calls_per_pmcurve"] = (
        np.count_nonzero(sel("phasematch.delta_pw") & in_curve) / n_curves
        if n_curves else 0.0)

    out["correlation.synthesize_map.s"] = total(dur, "correlation.synthesize_map")
    out["correlation.synthesize_map.bytes_in"] = int(aux[sel("correlation.synthesize_map")].sum())
    out["correlation.ridge_fit.s"] = total(dur, "correlation.ridge_fit")

    ev = sel("schmidt.PdcKernel.evaluate")
    ev_points = int(points[ev].sum())
    out["schmidt.PdcKernel.evaluate.in_box_frac"] = (
        int(aux[ev].sum()) / ev_points if ev_points else 0.0)
    for lane in ("mc_norm", "mc_purity"):
        for m in MODELS:
            out[f"schmidt.{lane}.ns_per_sample.{m}"] = per_point_ns(dur, f"schmidt.{lane}.{m}")

    purity = np.isin(name, [f"schmidt.mc_purity.{m}" for m in MODELS])
    purity_samples = int(points[purity].sum())
    in_purity = _nearest_ancestor(parent, purity) >= 0
    in_evaluate = _nearest_ancestor(parent, ev) >= 0
    sellmeier = sel("dispersion.signal_wavenumber") & in_evaluate & in_purity
    out["schmidt.mc_purity.kernel_points_per_sample"] = (
        int(points[ev & in_purity].sum()) / purity_samples if purity_samples else 0.0)
    out["schmidt.mc_purity.sellmeier_points_per_sample"] = (
        int(points[sellmeier].sum()) / purity_samples if purity_samples else 0.0)

    oracle = sel("schmidt.svd_oracle")
    in_oracle = _nearest_ancestor(parent, oracle) >= 0
    out["schmidt.svd_oracle.s"] = total(dur, "schmidt.svd_oracle")
    out["schmidt.svd_oracle.fill_s"] = float(dur[ev & in_oracle].sum())
    out["schmidt.svd_oracle.self_s"] = total(self_time, "schmidt.svd_oracle")
    out["schmidt.svd_oracle.matrix_bytes"] = int(aux[oracle].sum())

    for sub in ("tune", "dispersion", "pmcurve", "correlate", "schmidt-sweep"):
        out[f"cli.{sub}.s"] = total(dur, f"cli.{sub}")
    out["cli.cmd_correlate.self_s"] = total(self_time, "cli.correlate")
    out["config.parse_config.s"] = total(dur, "config.parse_config")
    return out
