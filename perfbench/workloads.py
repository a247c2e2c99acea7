"""The three benchmark workloads and the checks on their outputs.

Each workload writes its own configs (copies of the bundled ones with
benchmark overrides), then runs passes: one pass is the whole job, closed
loop, one client.  `run_pass` only does the timed work; `check_pass` reads
what the pass produced and returns one (name, ok, detail) entry per check.
Operations are CLI calls, sweep cells and output checks.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from biphoton import cli, config, phasematch, schmidt
from biphoton.correlation import PumpConfig


def write_config(src: Path, dst: Path, overrides: dict) -> Path:
    """Copy a bundled config with {(section, key): value} overrides."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(src)
    for (section, key), value in overrides.items():
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, str(value))
    with open(dst, "w") as fh:
        cp.write(fh)
    return dst


def run_cli(argv):
    """Call biphoton.cli.main in-process; returns (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - t0, err.getvalue().strip()


def written_bytes(outdir: Path) -> int:
    """Bytes of the files one CLI call wrote, from its run.json manifest."""
    manifest = outdir / "run.json"
    names = json.loads(manifest.read_text())["outputs"]
    return manifest.stat().st_size + sum((outdir / n).stat().st_size for n in names)


def check(name, ok, detail=""):
    return (name, bool(ok), detail)


def rel_close(value, target, tol):
    return math.isfinite(value) and abs(value - target) <= tol * abs(target)


def read_map(outdir: Path):
    meta = json.loads((outdir / "map.json").read_text())
    planes = np.fromfile(outdir / "map.bin", dtype="<f8").reshape(meta["shape"])
    return meta, planes


def product_digest(outdir: Path) -> dict:
    """sha256 of every data product (run.json carries wall-clock timings)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "run.json"}


class Workload:
    name = ""

    def __init__(self, root: Path, out: Path, seed: int):
        self.root = root
        self.out = out
        self.seed = seed
        self.configs: list[Path] = []

    def bundled(self, name):
        return self.root / "src" / "biphoton" / "configs" / f"{name}.cfg"

    def prepare(self):
        """Write configs and build inputs; not timed."""

    def run_pass(self) -> dict:
        """Timed work of one pass: {"wall_s", "ops", "bytes_written", ...}."""
        raise NotImplementedError

    def check_pass(self, result: dict, captured: list) -> list:
        raise NotImplementedError

    def figures(self, passes: list) -> dict:
        """Workload-specific end-to-end figures: {name: (value, unit)}."""
        return {}


class Sweep(Workload):
    name = "sweep"

    # acceptance criterion 8's collinear bandwidths
    OMEGAS = (5.0e13, 1.5e14, 3.0e14)
    # two lanes per estimate (at least one per core on a 2-core machine)
    BATCH = 1 << 18
    SAMPLES = 2 * BATCH

    def prepare(self):
        self.cfg = write_config(self.bundled("bbo_collinear"), self.out / "sweep.cfg", {
            ("filter", "omega_max_list"): ", ".join(repr(o) for o in self.OMEGAS),
            ("mc", "n_norm"): self.SAMPLES,
            ("mc", "n_purity"): self.SAMPLES,
            ("mc", "batch"): self.BATCH,
        })
        self.configs = [self.cfg]
        self.outdir = self.out / "sweep"
        self.first_csv = None

    def run_pass(self):
        rc, secs, err = run_cli(["schmidt-sweep", "--config", self.cfg,
                                 "--out", self.outdir, "--seed", self.seed])
        return {"wall_s": secs,
                "ops": [check("cli schmidt-sweep", rc == 0, err)],
                "bytes_written": written_bytes(self.outdir) if rc == 0 else 0}

    def check_pass(self, result, captured):
        ops = []
        csv_bytes = (self.outdir / "sweep.csv").read_bytes()
        meta = json.loads((self.outdir / "sweep_meta.json").read_text())
        failed = {(int(i), m) for i, m, _ in meta["failures"]}
        rows = csv_bytes.decode().strip().splitlines()
        header = rows[0].split(",")
        table = [dict(zip(header, map(float, r.split(",")))) for r in rows[1:]]
        ops.append(check("sweep.csv rows", len(table) == len(self.OMEGAS), f"{len(table)} rows"))
        rel2 = []
        for i, row in enumerate(table):
            for model, col in zip(schmidt.MODELS, ("k3d", "k2d", "k1d")):
                k, err = row[col], row[col + "_err"]
                ok = (i, model) not in failed and math.isfinite(k) and math.isfinite(err) \
                    and k >= 1.0 - 3.0 * err and err > 0
                ops.append(check(f"cell {i} {model}", ok, f"K {k!r} +- {err!r}"))
                rel2.append((err / k) ** 2)
        result["k_rel_var"] = float(np.mean(rel2))
        result["failed_cells"] = len(meta["failures"])
        if self.first_csv is None:
            self.first_csv = csv_bytes
        else:
            ops.append(check("sweep.csv byte-identical to pass 0", csv_bytes == self.first_csv))
        for sweep in captured:
            for est in sweep.estimates:
                pull = abs(est.b_imag) / est.b_imag_stderr
                ops.append(check(f"Im B pull {est.filter.model} {est.filter.omega_max:.3g}",
                                 pull < 5.0, f"{pull:.2f} sigma"))
        return ops

    def figures(self, passes):
        wall = float(np.median([p["wall_s"] for p in passes]))
        rel_var = float(np.median([p["k_rel_var"] for p in passes]))
        samples = 2 * self.SAMPLES * len(self.OMEGAS) * len(schmidt.MODELS)
        return {"samples_per_s": (samples / wall, "1/s"),
                "k_time_to_1pct_s": (wall * rel_var / 1e-4, "s")}


class Maps(Workload):
    name = "maps"

    SUBCOMMANDS = ("tune", "dispersion", "pmcurve", "correlate")
    FULL3D_GRID = {("grid", "n_q"): 128, ("grid", "n_omega"): 256, ("grid", "mode"): "full3d"}
    PM_CHECK_POINTS = 16

    def prepare(self):
        self.cfg = {
            "collinear": write_config(self.bundled("bbo_collinear"),
                                      self.out / "collinear.cfg", {}),
            "noncollinear": write_config(self.bundled("bbo_noncollinear"),
                                         self.out / "noncollinear.cfg", {}),
            "full3d": write_config(self.bundled("bbo_collinear"),
                                   self.out / "full3d.cfg", self.FULL3D_GRID),
        }
        self.configs = list(self.cfg.values())
        self.crystal = {k: config.parse_config(p).crystal for k, p in self.cfg.items()}
        self.calls = [(tag, sub) for tag in ("collinear", "noncollinear")
                      for sub in self.SUBCOMMANDS] + [("full3d", "correlate")]
        self.first_digest = None
        self.rng = np.random.default_rng(self.seed)

    def run_pass(self):
        ops, stages, written = [], {"pmcurve_s": 0.0, "correlate_s": 0.0}, 0
        t0 = time.perf_counter()
        for tag, sub in self.calls:
            outdir = self.out / tag
            rc, secs, err = run_cli([sub, "--config", self.cfg[tag], "--out", outdir,
                                     "--seed", self.seed])
            ops.append(check(f"cli {sub} {tag}", rc == 0, err))
            if f"{sub}_s" in stages:
                stages[f"{sub}_s"] += secs
            if rc == 0:
                written += written_bytes(outdir)
        return {"wall_s": time.perf_counter() - t0, "ops": ops,
                "bytes_written": written, **stages}

    def _check_pmcurve(self, tag, regime):
        d = self.out / tag
        meta = json.loads((d / "pmcurve.json").read_text())
        ops = [check(f"pmcurve regime {tag}", meta["regime"] == regime, meta["regime"]),
               check(f"pmcurve samples {tag}", meta["n_samples"] == 401)]
        rows = [r.split(",") for r in (d / "pmcurve.csv").read_text().splitlines()[1:]]
        roots = [(float(om), float(q)) for om, q, _ in rows if q]
        if not roots:
            return ops + [check(f"pmcurve has roots {tag}", False)]
        picks = self.rng.choice(len(roots), size=min(self.PM_CHECK_POINTS, len(roots)),
                                replace=False)
        worst = max(abs(phasematch.delta_pw(roots[i][1], roots[i][0], self.crystal[tag]))
                    for i in picks)
        ops.append(check(f"pmcurve |delta_pw(q_pm)| <= solver_tol {tag}",
                         worst <= meta["solver_tol"], f"worst {worst:.3e}"))
        return ops

    def _check_dispersion(self, tag):
        d = self.out / tag
        rows = np.array([[float(v) for v in r.split(",")] for r in
                         (d / "dispersion.csv").read_text().splitlines()[1:]])
        return [check(f"dispersion.csv {tag}", rows.shape == (201, 4)
                      and np.all(np.isfinite(rows)) and np.all(rows[:, 1:3] > 0))]

    def _check_map(self, tag, mode, shape):
        meta, planes = read_map(self.out / tag)
        ok = (meta["mode"] == mode and planes.shape == (3, *shape)
              and np.all(np.isfinite(planes)) and planes[0].max() > 0)
        return [check(f"map {tag} finite {mode} {shape}", ok)]

    def check_pass(self, result, captured):
        out = self.out
        ops = []
        for tag in ("collinear", "noncollinear"):
            tune = json.loads((out / tag / "tune.json").read_text())
            ops.append(check(f"tune {tag} (criterion 1: 22.9 +- 0.5 deg)",
                             tune["found"] and abs(tune["angle_deg"] - 22.9) <= 0.5,
                             str(tune.get("angle_deg"))))
            ops += self._check_dispersion(tag)
        metrics = json.loads((out / "collinear" / "metrics.json").read_text())
        ops.append(check("walk-off (criterion 2: 350 fs, 220 um +- 10%)",
                         rel_close(metrics["gvm_delay_s"], 350e-15, 0.10)
                         and rel_close(metrics["spatial_walkoff_m"], 220e-6, 0.10)))
        metrics = json.loads((out / "noncollinear" / "metrics.json").read_text())
        ops.append(check("delta0 at 28 deg (criterion 1: 419 +- 10%)",
                         rel_close(metrics["delta0"], 419.0, 0.10), str(metrics["delta0"])))
        ops += self._check_pmcurve("collinear", "collinear")
        ops += self._check_pmcurve("noncollinear", "noncollinear")
        ridge = json.loads((out / "collinear" / "ridge.json").read_text())
        ops.append(check("ridge slopes within 5% of sqrt(k_s k''_s)",
                         ridge["sufficient"]
                         and abs(ridge.get("relative_error_plus", math.inf)) <= 0.05
                         and abs(ridge.get("relative_error_minus", math.inf)) <= 0.05,
                         f"{ridge.get('relative_error_plus')} / "
                         f"{ridge.get('relative_error_minus')}"))
        ops += self._check_map("collinear", "slice2d", (1024, 1024))
        ops += self._check_map("noncollinear", "slice2d", (2048, 1024))
        ops += self._check_map("full3d", "full3d", (128, 256))
        digest = {tag: product_digest(out / tag) for tag in self.cfg}
        if self.first_digest is None:
            self.first_digest = digest
        else:
            ops.append(check("data products byte-identical to pass 0",
                             digest == self.first_digest))
        return ops

    def figures(self, passes):
        return {k: (float(np.median([p[k] for p in passes])), "s")
                for k in ("pmcurve_s", "correlate_s")}


class Oracle(Workload):
    name = "oracle"

    # acceptance criterion 6's box and narrow pump
    Q_MAX, OMEGA_MAX = 1e5, 5e13
    PUMP = PumpConfig(waist=60e-6, duration=40e-15)
    GRID_1D, GRID_3D = 512, 14
    SAMPLES_1D = (200_000, 1_000_000)
    SAMPLES_3D = (1 << 18, 1 << 20)
    # the Monte Carlo seeds of criterion 6: a 3-sigma pull test fails by
    # chance once in ~370 draws, so its streams are pinned, not drawn from
    # the workload seed
    MC_SEEDS = (606, 607)

    def prepare(self):
        self.cfg = write_config(self.bundled("bbo_collinear"), self.out / "oracle.cfg", {})
        self.configs = [self.cfg]
        crystal = config.parse_config(self.cfg).crystal
        self.crystal = crystal.replace(tuning_angle=phasematch.tune_collinear(crystal))
        self.f1 = schmidt.BandwidthFilter(self.Q_MAX, self.OMEGA_MAX, model="temporal1d")
        self.f3 = schmidt.BandwidthFilter(self.Q_MAX, self.OMEGA_MAX, model="full3d")
        self.first_k = None
        # only two passes fit in --seconds 30, so first-call costs (LAPACK
        # and BLAS start-up, lazy imports) are paid here, on small sizes
        schmidt.svd_oracle(self.f1, self.crystal, self.PUMP, 64)
        schmidt.svd_oracle(self.f3, self.crystal, self.PUMP, 6)
        schmidt.schmidt_number(self.f3, self.crystal, self.PUMP, (1 << 14, 1 << 14), self.seed)

    def run_pass(self):
        c, p = self.crystal, self.PUMP
        t0 = time.perf_counter()
        o1 = schmidt.svd_oracle(self.f1, c, p, self.GRID_1D)
        o3 = schmidt.svd_oracle(self.f3, c, p, self.GRID_3D)
        t1 = time.perf_counter()
        m1 = schmidt.schmidt_number(self.f1, c, p, self.SAMPLES_1D, self.MC_SEEDS[0])
        m3 = schmidt.schmidt_number(self.f3, c, p, self.SAMPLES_3D, self.MC_SEEDS[1])
        t2 = time.perf_counter()
        return {"wall_s": t2 - t0, "ops": [], "oracle_s": t1 - t0, "mc_s": t2 - t1,
                "bytes_written": 0, "results": (o1, o3, m1, m3)}

    def check_pass(self, result, captured):
        o1, o3, m1, m3 = result.pop("results")
        ops = []
        for label, orc, mc in (("1D", o1, m1), ("3D", o3, m3)):
            ops.append(check(f"oracle K {label} >= 1", math.isfinite(orc.k_value)
                             and orc.k_value >= 1.0 - 1e-9, repr(orc.k_value)))
            pull = abs(mc.k_value - orc.k_value) / mc.k_stderr
            ops.append(check(f"MC vs oracle pull {label} < 3 sigma", mc.ok and pull < 3.0,
                             f"K_mc {mc.k_value:.4f} +- {mc.k_stderr:.4f}, "
                             f"K_svd {orc.k_value:.4f}, {pull:.2f} sigma"))
        ks = (m1.k_value, m3.k_value)
        if self.first_k is None:
            self.first_k = ks
        else:
            ops.append(check("MC K bit-identical to pass 0", ks == self.first_k))
        return ops

    def figures(self, passes):
        mc = float(np.median([p["mc_s"] for p in passes]))
        samples = sum(self.SAMPLES_1D) + sum(self.SAMPLES_3D)
        return {"oracle_s": (float(np.median([p["oracle_s"] for p in passes])), "s"),
                "samples_per_s": (samples / mc, "1/s")}


WORKLOADS = {w.name: w for w in (Sweep, Maps, Oracle)}
