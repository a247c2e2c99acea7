"""Benchmark of the biphoton toolkit: one workload per process, closed loop.

    python3 perfbench/run.py --workload {sweep,maps,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  Passes
run back to back until about S seconds of pass time are measured (at least
two, so every output can be compared with the first pass's).  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
passes alternate untraced and traced and the last line holds the per-layer
metrics of the traced passes.  Every output a pass produces is checked;
`failed` counts the operations (CLI calls, sweep cells, output checks) that
did not succeed.  Configs, CLI outputs, spans and a result file go to
./.perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

DEFAULT_SEED = 1
CONFIRM_SEED = 2
MIN_PASSES = 2
# stop starting passes after this long whatever --seconds says (runs must
# end within 180 s)
HARD_LIMIT_S = 120.0
# set-up is timed this many times before every pass and after the last, so
# its median samples the whole run rather than one moment of it
SETUP_PER_GAP = 4
# the set-up probe runs with one BLAS thread: an idle OpenBLAS worker spins
# after start-up and, on two cores, doubles the probe's time at random
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

SETUP_CODE = """\
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import biphoton.cli
from biphoton.config import parse_config
for path in sys.argv[2:]:
    parse_config(path)
print(repr(time.process_time() - t0))
"""


def setup_seconds(src: Path, configs) -> list:
    """CPU seconds a fresh interpreter takes to import biphoton and parse
    configs.  CPU time, not wall time, so other load on the host does not
    count."""
    times = []
    env = {**os.environ, **SETUP_ENV}
    for _ in range(SETUP_PER_GAP):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(src), *map(str, configs)],
            capture_output=True, text=True, timeout=120, check=True, env=env)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _blas_threads():
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(root: Path) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "biphoton").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "maps", "oracle"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; confirm claims "
                        f"with {CONFIRM_SEED})")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "biphoton" / "__init__.py").is_file():
        print(f"perfbench: no biphoton package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import biphoton

    if Path(biphoton.__file__).resolve().parent != src / "biphoton":
        print(f"perfbench: imported biphoton from {biphoton.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import spans
    from workloads import WORKLOADS

    out = root / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    prov = provenance(root)
    print("provenance " + json.dumps(prov, sort_keys=True))
    workload = WORKLOADS[args.workload](root, out, args.seed)
    workload.prepare()
    setup_times = []

    recorder = spans.SpanRecorder()
    tracer = spans.Tracer(recorder)
    passes, layers = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        setup_times += setup_seconds(src, workload.configs)
        lo = len(recorder)
        tracer.captured.clear()
        if traced:
            tracer.install()
        try:
            result = workload.run_pass()
        finally:
            tracer.uninstall()
        result["traced"] = traced
        ops = result.pop("ops")
        try:
            ops += workload.check_pass(result, list(tracer.captured))
        except Exception:  # a missing or malformed output fails the pass's checks
            ops.append(("output checks", False, traceback.format_exc(limit=-1).strip()))
        attempted += len(ops)
        bad = [op for op in ops if not op[1]]
        failed += len(bad)
        for name, _, detail in bad:
            print(f"FAILED pass {index}: {name}: {detail}")
        if traced:
            layer = spans.layer_metrics(recorder, lo, len(recorder))
            layer["cli.bytes_written"] = result["bytes_written"]
            layer["schmidt.bandwidth_sweep.failed_cells"] = result.get("failed_cells", 0)
            layers.append(layer)
        passes.append(result)
        print(f"pass {index} {'traced' if traced else 'untraced'} "
              f"wall {result['wall_s']:.4f} s, {len(ops)} ops, {len(bad)} failed")
        # stop at the pass boundary nearest to --seconds of measured time
        walls = [p["wall_s"] for p in passes]
        if len(walls) >= MIN_PASSES and (
                sum(walls) + statistics.median(walls) / 2 >= args.seconds
                or time.perf_counter() - t_start > HARD_LIMIT_S):
            break

    setup_times += setup_seconds(src, workload.configs)
    untraced = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    figures = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        **workload.figures(untraced),
    }
    for name, (value, unit) in figures.items():
        print(f"{args.workload} {name} = {value!r} {unit}")

    if args.trace:
        recorder.save(out / "spans.npz")
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        # counts repeat exactly across passes (bytes_written differs by the
        # width of run.json's timings), so they keep their integer type
        layer = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                     [lay[k] for lay in layers]) for k, v in layers[0].items()}
        layer["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        metrics = {k: {"value": layer[k], "unit": u} for k, (u, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": figures[k][0], "unit": u} for k, (u, _) in END_TO_END.items()}

    if not failed:
        # drop the CLI outputs (about 90 MiB for maps) before the kernel
        # writes them back to disk during whatever runs next
        for path in out.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "provenance": prov,
         "figures": figures, "setup_times": setup_times, "passes": passes,
         **report}, indent=2, default=float))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
