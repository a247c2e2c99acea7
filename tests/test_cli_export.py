"""Byte identity of the correlate exports against their plain reference
forms: map.csv as one repr-formatted row per kept element, map.bin as the
stacked (abs2, real, imag) planes in little-endian float64."""

import numpy as np
import pytest

from biphoton import cli
from biphoton.correlation import correlation_map


def reference_map_csv(cmap) -> bytes:
    abs2 = np.abs(cmap.psi) ** 2
    stride_x = max(1, len(cmap.delta_x) // 256)
    stride_t = max(1, len(cmap.delta_t) // 256)
    rows = ["delta_x_m,delta_t_s,abs2"]
    for i in range(0, len(cmap.delta_x), stride_x):
        for j in range(0, len(cmap.delta_t), stride_t):
            rows.append(
                f"{float(cmap.delta_x[i])!r},{float(cmap.delta_t[j])!r},{float(abs2[i, j])!r}"
            )
    return ("\n".join(rows) + "\n").encode()


def reference_map_bin(cmap) -> bytes:
    abs2 = np.abs(cmap.psi) ** 2
    return np.stack([abs2, cmap.psi.real, cmap.psi.imag]).astype("<f8").tobytes()


@pytest.mark.parametrize(
    "n_q, n_omega, mode",
    [(256, 256, "slice2d"), (1024, 512, "slice2d"), (128, 256, "full3d")],
    ids=["stride1", "stride4x2", "full3d"],
)
def test_correlate_exports_match_reference(tmp_path, monkeypatch, n_q, n_omega, mode):
    maps = []

    def recording_map(*args, **kwargs):
        maps.append(correlation_map(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(cli, "correlation_map", recording_map)
    cfg = tmp_path / "map.cfg"
    cfg.write_text(
        "[crystal]\ntuning_angle_deg = 22.9\n\n"
        f"[grid]\nn_q = {n_q}\nn_omega = {n_omega}\nomega_extent = 3.0e14\n"
        f"mode = {mode}\n"
    )
    out = tmp_path / "out"
    assert cli.main(["correlate", "--config", str(cfg), "--out", str(out)]) == 0
    (cmap,) = maps
    assert cmap.psi.shape == (n_q, n_omega)
    assert (out / "map.csv").read_bytes() == reference_map_csv(cmap)
    assert (out / "map.bin").read_bytes() == reference_map_bin(cmap)
