"""Command-line interface: config-driven batch runs with file outputs.

    biphoton <subcommand> --config <path> [--out <dir>] [--seed <u64>]
               [--samples <n>]

Subcommands: tune, dispersion, pmcurve, correlate, schmidt-sweep.  Every run
writes a run.json manifest (resolved config, versions, timings, seeds,
output list).  Data products contain no wall-clock metadata and are
bit-reproducible for a fixed config and seed; run.json carries the timings
and is the one documented exception.  On failure the partial outputs are
removed and a machine-readable error JSON goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, config_snapshot, dump_config, parse_config
from .correlation import (
    CorrelationMap,
    SpectralGrid,
    arm_reach,
    correlation_map,
    default_q_extent,
    ridge_fit,
)
from .dispersion import group_quantities, index_ordinary, walkoff_metrics
from .phasematch import (
    curve_to_csv,
    delta0,
    solve_pm_curve,
    taylor_coefficients,
    tune_collinear,
)
from .schmidt import RNG_DESCRIPTION, BandwidthFilter, bandwidth_sweep

OUTPUT_ENV_VAR = "BIPHOTON_OUT"
NO_X_ARMS = ("no X arms: the fitted ridge moves by less than one delta_t step "
             "across the fit window; relative errors omitted")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


class _Outputs(list):
    """The files a command writes, in order, and the seconds spent writing
    them.  Each path is listed before its file is opened, so a write that
    fails halfway still leaves the partial file listed for removal."""

    def __init__(self):
        super().__init__()
        self.export_s = 0.0

    @contextmanager
    def open(self, path: Path, mode: str = "w"):
        self.append(path)
        t0 = time.perf_counter()
        try:
            with open(path, mode) as fh:
                yield fh
        finally:
            self.export_s += time.perf_counter() - t0


def _write_json(path: Path, payload: dict, tracker: _Outputs):
    with tracker.open(path) as fh:
        fh.write(json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str, tracker: _Outputs):
    with tracker.open(path) as fh:
        fh.write(text)


def cmd_tune(rc: RunConfig, outdir: Path, tracker) -> dict:
    angle = tune_collinear(rc.crystal)
    if angle is None:
        payload = {"found": False, "message": "no collinear tuning angle in (0, pi/2)"}
        print("collinear tuning: not found")
    else:
        residual = delta0(rc.crystal.replace(tuning_angle=angle))
        payload = {
            "found": True,
            "angle_rad": angle,
            "angle_deg": math.degrees(angle),
            "delta0_at_angle": residual,
            "delta0_at_config_angle": delta0(rc.crystal),
        }
        print(f"collinear tuning angle: {math.degrees(angle):.3f} deg "
              f"(residual mismatch {residual:.2e})")
    _write_json(outdir / "tune.json", payload, tracker)
    return payload


def cmd_dispersion(rc: RunConfig, outdir: Path, tracker) -> dict:
    crystal = rc.crystal
    omegas = np.linspace(-rc.filter.omega_max, rc.filter.omega_max, 201)
    rows = ["omega_rad_s,k_s_rad_m,v_g_m_s,gvd_s2_m"]
    for om in omegas:
        s = group_quantities(float(om), crystal)
        rows.append(f"{float(om)!r},{s.k_signal!r},{s.group_velocity!r},{s.gvd!r}")
    _write_text(outdir / "dispersion.csv", "\n".join(rows) + "\n", tracker)

    walk = walkoff_metrics(crystal)
    coeff = taylor_coefficients(crystal)
    payload = {
        "n_o_degenerate": float(index_ordinary(2 * crystal.pump_wavelength, crystal)),
        "gvm_delay_s": walk.gvm_delay,
        "spatial_walkoff_m": walk.spatial_walkoff,
        "delta0": coeff.delta0,
        "k_s_rad_m": coeff.k_s,
        "gvd_s2_m": coeff.gvd,
        "asymptote_slope_s_m": coeff.asymptote_slope,
    }
    _write_json(outdir / "metrics.json", payload, tracker)
    print(f"gvm delay {walk.gvm_delay * 1e15:.1f} fs, "
          f"walk-off {walk.spatial_walkoff * 1e6:.1f} um, delta0 {coeff.delta0:.3g}")
    return payload


def cmd_pmcurve(rc: RunConfig, outdir: Path, tracker) -> dict:
    curve = solve_pm_curve(
        (-rc.grid.omega_extent, rc.grid.omega_extent), 401, rc.crystal
    )
    _write_text(outdir / "pmcurve.csv", curve_to_csv(curve), tracker)
    payload = {
        "regime": curve.regime,
        "delta0": curve.delta0,
        "solver_tol": curve.solver_tol,
        "n_samples": len(curve),
        "n_gaps": int(np.count_nonzero(curve.gap_mask)),
        "kink_slopes": curve.kink_slopes,
    }
    _write_json(outdir / "pmcurve.json", payload, tracker)
    print(f"phase-matching curve: regime {curve.regime}, delta0 {curve.delta0:.3g}, "
          f"{payload['n_gaps']} gaps")
    return payload


_MAP_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Standalone plot of a correlation-map CSV (columns delta_x_m, delta_t_s,
# abs2): run next to map.csv to produce map.png.
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

rows = list(csv.DictReader(open(Path(__file__).parent / "map.csv")))
x = sorted({float(r["delta_x_m"]) for r in rows})
t = sorted({float(r["delta_t_s"]) for r in rows})
grid = np.zeros((len(x), len(t)))
ix = {v: i for i, v in enumerate(x)}
it = {v: i for i, v in enumerate(t)}
for r in rows:
    grid[ix[float(r["delta_x_m"])], it[float(r["delta_t_s"])]] = float(r["abs2"])
plt.figure(figsize=(6, 4.5))
plt.pcolormesh(np.array(t) * 1e15, np.array(x) * 1e3, grid, shading="auto")
plt.xlabel("delta t (fs)")
plt.ylabel("delta x (mm)")
plt.title("biphoton correlation |psi|^2")
plt.colorbar()
plt.tight_layout()
plt.savefig(Path(__file__).parent / "map.png", dpi=150)
print("wrote map.png")
"""


def _export_map(cmap: CorrelationMap, outdir: Path, tracker: _Outputs, rc: RunConfig):
    abs2 = cmap.intensity
    with tracker.open(outdir / "map.bin", "wb") as fh:
        # one plane at a time: at most one plane-sized copy (real, imag)
        for plane in (abs2, cmap.psi.real, cmap.psi.imag):
            np.ascontiguousarray(plane, dtype="<f8").tofile(fh)

    sidecar = {
        "format": "row-major float64 little-endian, planes: abs2, real, imag",
        "shape": [3, *cmap.psi.shape],
        "axes": {
            "delta_x": {
                "unit": "m",
                "start": float(cmap.delta_x[0]),
                "step": float(cmap.delta_x[1] - cmap.delta_x[0]),
                "n": len(cmap.delta_x),
            },
            "delta_t": {
                "unit": "s",
                "start": float(cmap.delta_t[0]),
                "step": float(cmap.delta_t[1] - cmap.delta_t[0]),
                "n": len(cmap.delta_t),
            },
        },
        "mode": cmap.mode,
        "warnings": cmap.warnings,
        "evanescent_cells": cmap.evanescent_cells,
        "config": config_snapshot(rc),
        "software": {"biphoton": __version__, "numpy": np.__version__},
    }
    _write_json(outdir / "map.json", sidecar, tracker)

    # at most 256 x 256 rows "delta_x,delta_t,abs2", formatted with repr; the
    # per-element work (repr, concatenation) runs in map/join, not in bytecode
    stride_x = max(1, len(cmap.delta_x) // 256)
    stride_t = max(1, len(cmap.delta_t) // 256)
    t_cells = [f"{t!r}," for t in cmap.delta_t[::stride_t].tolist()]
    with tracker.open(outdir / "map.csv") as fh:
        fh.write("delta_x_m,delta_t_s,abs2\n")
        for x, row in zip(cmap.delta_x[::stride_x].tolist(),
                          abs2[::stride_x, ::stride_t].tolist()):
            fh.write(f"{x!r},"
                     + f"\n{x!r},".join(map(str.__add__, t_cells, map(repr, row)))
                     + "\n")
    _write_text(outdir / "plot_map.py", _MAP_PLOT_SCRIPT, tracker)


def cmd_correlate(rc: RunConfig, outdir: Path, tracker) -> dict:
    g = rc.grid
    q_extent = g.q_extent
    if q_extent is None:
        q_extent = default_q_extent(rc.crystal, g.omega_extent, n_q=g.n_q)
    grid = SpectralGrid.centered(
        g.n_q, q_extent, g.n_omega, g.omega_extent, with_qy=(g.mode == "full3d")
    )
    cmap = correlation_map(grid, rc.crystal, rc.pump, mode=g.mode)
    _export_map(cmap, outdir, tracker, rc)

    coeff = taylor_coefficients(rc.crystal)
    fit = ridge_fit(cmap)
    report = {
        "slope_plus_s_m": fit.slope_plus,
        "slope_minus_s_m": fit.slope_minus,
        "predicted_slope_s_m": coeff.asymptote_slope,
        "residual_s": fit.residual,
        "n_points": [fit.n_plus, fit.n_minus],
        "sufficient": fit.sufficient,
        "reason": fit.reason,
        "arm_reach_m": arm_reach(rc.crystal, g.omega_extent),
        "warnings": cmap.warnings,
    }
    if fit.flat:
        report["warnings"] = cmap.warnings + [NO_X_ARMS]
    elif fit.sufficient and coeff.slope_defined:
        report["relative_error_plus"] = fit.slope_plus / coeff.asymptote_slope - 1.0
        report["relative_error_minus"] = fit.slope_minus / (-coeff.asymptote_slope) - 1.0
    _write_json(outdir / "ridge.json", report, tracker)
    if not fit.sufficient:
        print(f"ridge fit: insufficient data ({fit.reason})")
    elif fit.flat:
        print("ridge fit: no X arms (flat ridge locus)")
    else:
        print(f"ridge slopes {fit.slope_plus:.4e} / {fit.slope_minus:.4e} s/m "
              f"(prediction {coeff.asymptote_slope:.4e})")
    return report


_SWEEP_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Standalone plot of a Schmidt-number sweep CSV: run next to sweep.csv to
# produce sweep.png.
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).parent / "sweep.csv")))
om = [float(r["omega_max_hz"]) for r in rows]
plt.figure(figsize=(6, 4.5))
for key, err, label in (("k3d", "k3d_err", "K 3D"),
                        ("kprod", "kprod_err", "K 2D x K 1D")):
    plt.errorbar(om, [float(r[key]) for r in rows],
                 yerr=[float(r[err]) for r in rows], label=label, marker="o")
plt.xscale("log")
plt.yscale("log")
plt.xlabel("detected bandwidth omega_max (1/s)")
plt.ylabel("Schmidt number")
plt.legend()
plt.tight_layout()
plt.savefig(Path(__file__).parent / "sweep.png", dpi=150)
print("wrote sweep.png")
"""


def cmd_schmidt_sweep(rc: RunConfig, outdir: Path, tracker) -> dict:
    filt = BandwidthFilter(q_max=rc.filter.q_max, omega_max=rc.filter.omega_max)
    sweep = bandwidth_sweep(
        rc.filter.omega_max_list, filt, rc.crystal, rc.pump,
        (rc.mc.n_norm, rc.mc.n_purity), rc.mc.seed,
        sampler=rc.mc.sampler, batch=rc.mc.batch,
    )
    _write_text(outdir / "sweep.csv", sweep.to_csv(), tracker)
    meta = {
        "rng": RNG_DESCRIPTION,
        "failures": [list(f) for f in sweep.failures],
        "config": config_snapshot(rc),
        "kernel_metadata": [
            est.kernel_metadata if est else None for est in sweep.estimates[:3]
        ],
        "cells": sweep.cell_diagnostics(),
    }
    _write_json(outdir / "sweep_meta.json", meta, tracker)
    _write_text(outdir / "plot_sweep.py", _SWEEP_PLOT_SCRIPT, tracker)
    print(f"sweep complete: {len(sweep.omega_max)} bandwidths, "
          f"{len(sweep.failures)} failed cells")
    return {"failures": len(sweep.failures)}


COMMANDS = {
    "tune": cmd_tune,
    "dispersion": cmd_dispersion,
    "pmcurve": cmd_pmcurve,
    "correlate": cmd_correlate,
    "schmidt-sweep": cmd_schmidt_sweep,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Twin-photon phase matching, correlation and Schmidt-number toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a .cfg file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override mc seed")
        p.add_argument("--samples", type=int, default=None,
                       help="override both Monte Carlo sample counts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t_start = time.perf_counter()
    try:
        rc = parse_config(args.config)
        # the overrides re-run McParams' validation
        if args.seed is not None:
            rc = replace(rc, mc=replace(rc.mc, seed=args.seed))
        if args.samples is not None:
            rc = replace(rc, mc=replace(rc.mc, n_norm=args.samples,
                                        n_purity=args.samples))
    except ConfigError as exc:
        json.dump({"error": "ConfigError", "message": str(exc),
                   "command": args.command}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    parse_s = time.perf_counter() - t_start
    outdir = Path(args.out or os.environ.get(OUTPUT_ENV_VAR) or rc.output_dir)

    tracker = _Outputs()
    t_command = time.perf_counter()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        result = COMMANDS[args.command](rc, outdir, tracker)
        command_s = time.perf_counter() - t_command
        manifest = {
            "command": args.command,
            "config_path": str(args.config),
            "flags": {"out": args.out, "seed": args.seed, "samples": args.samples},
            "resolved_config": config_snapshot(rc),
            "resolved_config_text": dump_config(rc),
            "outputs": [p.name for p in tracker],
            "seed": rc.mc.seed,
            "rng": RNG_DESCRIPTION,
            "versions": {
                "biphoton": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "timings": {
                "parse_s": parse_s,
                "compute_s": command_s - tracker.export_s,
                "export_s": tracker.export_s,
                "wall_s": time.perf_counter() - t_start,
            },
            "summary": _json_ready(result),
        }
        # a failed manifest write removes the data products like any failure
        _write_json(outdir / "run.json", manifest, tracker)
    except Exception as exc:
        for f in tracker:
            try:
                f.unlink()
            except OSError:
                pass
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "command": args.command}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
