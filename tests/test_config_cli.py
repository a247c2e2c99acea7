import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biphoton
from biphoton import cli
from biphoton.cli import NO_X_ARMS, main
from biphoton.config import (
    ConfigError,
    builtin_config_path,
    dump_config,
    parse_config,
)

COLLINEAR_CFG = builtin_config_path("bbo_collinear")
NONCOLLINEAR_CFG = builtin_config_path("bbo_noncollinear")


def test_parse_bundled_collinear():
    rc = parse_config(COLLINEAR_CFG)
    assert math.degrees(rc.crystal.tuning_angle) == pytest.approx(22.9)
    assert rc.crystal.length_lc == pytest.approx(4.0e-3)
    assert rc.crystal.pump_wavelength == pytest.approx(527.5e-9)
    assert rc.pump.waist == pytest.approx(600e-6)
    assert rc.mc.sampler == "pump"


def test_parse_bundled_noncollinear():
    rc = parse_config(NONCOLLINEAR_CFG)
    assert math.degrees(rc.crystal.tuning_angle) == pytest.approx(28.0)
    assert rc.grid.n_q == 2048


def test_missing_pump_waist_gets_default(tmp_path):
    cfg = tmp_path / "min.cfg"
    cfg.write_text("[crystal]\ntuning_angle_deg = 22.9\n\n[pump]\ncoupling_g = 2e-3\n")
    rc = parse_config(cfg)
    assert rc.pump.waist == pytest.approx(600e-6)
    assert rc.pump.coupling_g == pytest.approx(2e-3)
    # the resolved dump echoes the applied default (SI spelling)
    assert "waist_m = 0.0006" in dump_config(rc)


def test_negative_length_names_field(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[crystal]\nlength_mm = -4.0\n")
    with pytest.raises(ConfigError, match="length_lc"):
        parse_config(cfg)


def test_unknown_key_rejected_with_location(tmp_path):
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text("[crystal]\nlenght_mm = 4.0\n")
    with pytest.raises(ConfigError, match=r"\[crystal\] lenght_mm"):
        parse_config(cfg)
    cfg2 = tmp_path / "unknown2.cfg"
    cfg2.write_text("[cristal]\nlength_mm = 4.0\n")
    with pytest.raises(ConfigError, match=r"\[cristal\]"):
        parse_config(cfg2)


def test_syntax_error_carries_line_info(tmp_path):
    cfg = tmp_path / "syntax.cfg"
    cfg.write_text("[crystal\nlength_mm = 4.0\n")
    with pytest.raises(ConfigError, match="line"):
        parse_config(cfg)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/nowhere.cfg")


def test_config_round_trip(tmp_path):
    rc1 = parse_config(COLLINEAR_CFG)
    dumped = tmp_path / "dumped.cfg"
    dumped.write_text(dump_config(rc1))
    rc2 = parse_config(dumped)
    assert rc1 == rc2
    assert dump_config(rc2) == dump_config(rc1)


def test_cli_tune_prints_angle(tmp_path, capsys):
    code = main(["tune", "--config", str(COLLINEAR_CFG), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "22.9" in out
    payload = json.loads((tmp_path / "tune.json").read_text())
    assert payload["found"] is True
    assert payload["angle_deg"] == pytest.approx(22.9, abs=0.5)
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["command"] == "tune"
    assert "resolved_config" in manifest
    assert manifest["outputs"] == ["tune.json"]
    assert "timings" in manifest


def test_cli_dispersion_outputs(tmp_path):
    code = main(["dispersion", "--config", str(COLLINEAR_CFG), "--out", str(tmp_path)])
    assert code == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["gvm_delay_s"] == pytest.approx(350e-15, rel=0.10)
    assert metrics["spatial_walkoff_m"] == pytest.approx(220e-6, rel=0.10)
    header = (tmp_path / "dispersion.csv").read_text().splitlines()[0]
    assert header == "omega_rad_s,k_s_rad_m,v_g_m_s,gvd_s2_m"


def test_cli_pmcurve_outputs_with_gaps(tmp_path):
    code = main(["pmcurve", "--config", str(COLLINEAR_CFG), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "pmcurve.csv").read_text().splitlines()
    assert lines[0] == "omega_rad_s,q_pm_rad_m,slope_s_m"
    # literal 22.9 deg is a hair under-tuned: a gap straddles degeneracy
    gaps = [l for l in lines[1:] if l.split(",")[1] == ""]
    assert gaps
    meta = json.loads((tmp_path / "pmcurve.json").read_text())
    assert meta["n_gaps"] == len(gaps)


def _small_cfg(tmp_path, name="small.cfg", n=256, extra=""):
    text = (
        "[crystal]\ntuning_angle_deg = 22.9\n\n"
        f"[grid]\nn_q = {n}\nn_omega = {n}\nomega_extent = 3.0e14\n"
        + extra
    )
    cfg = tmp_path / name
    cfg.write_text(text)
    return cfg


def test_cli_correlate_outputs(tmp_path):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["correlate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    n = 256
    blob = (out / "map.bin").read_bytes()
    assert len(blob) == 3 * n * n * 8
    planes = np.frombuffer(blob, dtype="<f8").reshape(3, n, n)
    assert np.allclose(planes[0], planes[1] ** 2 + planes[2] ** 2, rtol=1e-10)
    sidecar = json.loads((out / "map.json").read_text())
    assert sidecar["axes"]["delta_x"]["n"] == n
    assert sidecar["mode"] == "slice2d"
    ridge = json.loads((out / "ridge.json").read_text())
    assert "predicted_slope_s_m" in ridge
    assert (out / "plot_map.py").is_file()
    csv_lines = (out / "map.csv").read_text().splitlines()
    assert csv_lines[0] == "delta_x_m,delta_t_s,abs2"


def test_cli_correlate_reproducible_bits(tmp_path):
    cfg = _small_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["correlate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["correlate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("map.bin", "map.csv", "map.json", "ridge.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_schmidt_sweep_small(tmp_path):
    cfg = _small_cfg(
        tmp_path,
        extra=(
            "\n[filter]\nomega_max_list = 5e13, 1e14\n\n"
            "[mc]\nn_norm = 20000\nn_purity = 60000\nseed = 4\n"
        ),
    )
    out = tmp_path / "sweep"
    code = main(["schmidt-sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "omega_max_hz,k3d,k3d_err,k2d,k2d_err,k1d,k1d_err,kprod,kprod_err"
    assert len(lines) == 3
    meta = json.loads((out / "sweep_meta.json").read_text())
    assert meta["seed"] == 4
    assert meta["rng"].startswith("numpy PCG64")
    assert (out / "plot_sweep.py").is_file()


def test_cli_sweep_meta_records_kernel_metadata(tmp_path):
    cfg = _small_cfg(
        tmp_path,
        extra=(
            "\n[filter]\nomega_max_list = 5e13\n\n"
            "[mc]\nn_norm = 2000\nn_purity = 10000\nseed = 4\n"
        ),
    )
    out = tmp_path / "sweep"
    assert main(["schmidt-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    full3d, spatial2d, temporal1d = json.loads(
        (out / "sweep_meta.json").read_text()
    )["kernel_metadata"]
    assert full3d == {"model": "full3d"}
    assert spatial2d == {"model": "spatial2d", "frozen_omega": 0.0}
    assert temporal1d["model"] == "temporal1d"
    assert set(temporal1d) == {"model", "frozen_q", "frozen_q_taylor"}


def test_cli_sweep_meta_records_cell_diagnostics(tmp_path):
    cfg = _small_cfg(
        tmp_path,
        extra=(
            "\n[filter]\nomega_max_list = 5e13, 2e15\n\n"
            "[mc]\nn_norm = 2000\nn_purity = 10000\nseed = 4\n"
        ),
    )
    out = tmp_path / "sweep"
    assert main(["schmidt-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "sweep_meta.json").read_text())
    cells = meta["cells"]
    assert [(c["model"], c["omega_max"]) for c in cells] == [
        (m, om) for om in (5e13, 2e15) for m in ("full3d", "spatial2d", "temporal1d")
    ]
    failed = {(i, m) for i, m, _ in meta["failures"]}
    for idx, cell in enumerate(cells):
        i = idx // 3
        if (i, cell["model"]) in failed:
            continue
        assert cell["n_samples_norm"] == 2000
        assert cell["n_samples_purity"] == 10000
        for lane in ("norm", "purity"):
            assert 0 < cell[f"accept_frac_{lane}"] <= 1
            assert 0 < cell[f"ess_{lane}"] <= cell[f"n_samples_{lane}"]
        assert math.isfinite(cell["b_imag_pull"])
    # the 2e15 bandwidth leaves the dispersion window: those cells keep only
    # their coordinates
    assert set(cells[3]) == {"model", "omega_max"}
    assert not any("wall" in key for cell in cells for key in cell)


def test_cli_seed_and_samples_flags_echoed(tmp_path):
    cfg = _small_cfg(
        tmp_path,
        extra="\n[filter]\nomega_max_list = 5e13\n\n[mc]\nseed = 4\n",
    )
    out = tmp_path / "flags"
    code = main([
        "schmidt-sweep", "--config", str(cfg), "--out", str(out),
        "--seed", "123", "--samples", "50000",
    ])
    assert code == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["flags"]["seed"] == 123
    assert manifest["seed"] == 123
    assert manifest["resolved_config"]["mc"]["n_purity"] == 50000


def test_cli_bad_config_exit_code(tmp_path, capsys):
    code = main(["tune", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"


def test_cli_runtime_error_removes_partial_outputs(tmp_path, capsys):
    # an omega extent beyond the dispersion window fails inside the command
    cfg = _small_cfg(tmp_path, extra="").read_text()
    bad = tmp_path / "bad_extent.cfg"
    bad.write_text(cfg.replace("omega_extent = 3.0e14", "omega_extent = 3.0e15"))
    out = tmp_path / "broken"
    code = main(["pmcurve", "--config", str(bad), "--out", str(out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["command"] == "pmcurve"
    assert not (out / "pmcurve.csv").exists()
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("command, failing", [
    ("tune", "tune.json"),
    ("correlate", "map.bin"),
    ("correlate", "map.csv"),
])
def test_cli_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys,
                                                 command, failing):
    # the failing write gets a few bytes onto disk before it raises, as a
    # full disk would
    def open_then_fail(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if Path(path).name != failing:
            return fh
        with fh:
            fh.write(b"\0" * 8 if "b" in mode else "{\n")
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(cli, "open", open_then_fail, raising=False)
    out = tmp_path / "out"
    code = main([command, "--config", str(_small_cfg(tmp_path)), "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "OSError"
    assert list(out.iterdir()) == []


def test_cli_run_json_timings(tmp_path):
    out = tmp_path / "out"
    assert main(["correlate", "--config", str(_small_cfg(tmp_path)), "--out", str(out)]) == 0
    timings = json.loads((out / "run.json").read_text())["timings"]
    parts = ("parse_s", "compute_s", "export_s")
    assert set(timings) == {*parts, "wall_s"}
    assert all(timings[k] >= 0 for k in timings)
    assert sum(timings[k] for k in parts) <= timings["wall_s"]


def test_cli_noncollinear_ridge_has_no_x_arms(tmp_path):
    out = tmp_path / "cigar"
    assert main(["correlate", "--config", str(NONCOLLINEAR_CFG), "--out", str(out)]) == 0
    ridge = json.loads((out / "ridge.json").read_text())
    assert NO_X_ARMS in ridge["warnings"]
    assert "relative_error_plus" not in ridge
    assert "relative_error_minus" not in ridge
    # the collinear X map keeps its relative errors
    out = tmp_path / "x"
    assert main(["correlate", "--config", str(_small_cfg(tmp_path)), "--out", str(out)]) == 0
    ridge = json.loads((out / "ridge.json").read_text())
    assert NO_X_ARMS not in ridge["warnings"]
    assert abs(ridge["relative_error_plus"]) < 0.05


def test_cli_env_var_output_dir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "от_env"
    monkeypatch.setenv("BIPHOTON_OUT", str(target))
    code = main(["tune", "--config", str(COLLINEAR_CFG)])
    assert code == 0
    assert (target / "tune.json").is_file()


def test_cli_entry_point_runs():
    # the child must import the same biphoton as this process, installed or
    # put on sys.path by pytest's pythonpath setting
    src = str(Path(biphoton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "biphoton.cli", "tune", "--config",
         str(COLLINEAR_CFG), "--out", "/tmp/biphoton_entry_test"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "22.9" in proc.stdout
