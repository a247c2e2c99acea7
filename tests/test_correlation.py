import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.config import builtin_config_path, parse_config
from biphoton.correlation import (
    CorrelationMap,
    PumpConfig,
    SpectralGrid,
    arm_reach,
    biphoton_fourier,
    correlation_map,
    default_q_extent,
    factorized_correlation,
    pump_spectral_amplitude,
    pw_kernel_values,
    ridge_fit,
    sinc,
    synthesize_map,
)
from biphoton.phasematch import (
    EvanescentError,
    FourierCoord,
    delta_pw,
    solve_q_pm,
    taylor_coefficients,
)
from biphoton.dispersion import signal_wavenumber


def test_sinc_series_fallback_matches_direct():
    for x in (1e-5, 5e-5, 9.9e-5):
        assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-14)
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    # one array mixing zero, series-range and direct-range entries
    x = np.array([0.0, 1e-5, -5e-5, 9.9e-5, 1e-4, 0.5, math.pi, -20.0, 1e3])
    out = sinc(x)
    assert isinstance(sinc(0.0), float) and isinstance(sinc(1e3), float)
    assert out.shape == x.shape and out[0] == 1.0
    assert np.array_equal(out, [sinc(float(v)) for v in x])
    direct = np.array([math.sin(v) / v for v in x[1:]])
    assert np.allclose(out[1:], direct, rtol=1e-14, atol=1e-15)
    assert np.array_equal(sinc(x.reshape(3, 3)), out.reshape(3, 3))


def test_pump_config_validation():
    with pytest.raises(ValueError):
        PumpConfig(coupling_g=0.0)
    with pytest.raises(ValueError):
        PumpConfig(waist=-1.0)
    with pytest.raises(ValueError):
        PumpConfig(duration=0.0)


def test_pump_spectral_amplitude_normalization(pump):
    # prefactor is the 3D Fourier constant of the unit-peak Gaussian
    c0 = pump_spectral_amplitude(0.0, 0.0, pump)
    assert c0 == pytest.approx(pump.waist**2 * pump.duration / 2**1.5, rel=1e-12)
    val = pump_spectral_amplitude(2.0 / pump.waist, 2.0 / pump.duration, pump)
    assert val == pytest.approx(c0 * math.exp(-2.0), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    qx=st.floats(-3e5, 3e5), qy=st.floats(-3e5, 3e5), om=st.floats(-5e14, 5e14),
    qx2=st.floats(-3e5, 3e5), qy2=st.floats(-3e5, 3e5), om2=st.floats(-5e14, 5e14),
)
def test_biphoton_fourier_exchange_symmetry(qx, qy, om, qx2, qy2, om2):
    bbo = __import__("biphoton.dispersion", fromlist=["CrystalConfig"]).CrystalConfig()
    pump = PumpConfig()
    w1 = FourierCoord(qx, qy, om)
    w2 = FourierCoord(qx2, qy2, om2)
    assert biphoton_fourier(w1, w2, bbo, pump) == biphoton_fourier(w2, w1, bbo, pump)


def test_biphoton_fourier_maximal_on_curve(noncollinear, pump):
    om = 5e13
    q_on = solve_q_pm(om, noncollinear)
    on = abs(biphoton_fourier(
        FourierCoord(q_on, 0, om), FourierCoord(-q_on, 0, -om), noncollinear, pump
    ))
    for q in (0.5 * q_on, 0.8 * q_on, 1.2 * q_on):
        off = abs(biphoton_fourier(
            FourierCoord(q, 0, om), FourierCoord(-q, 0, -om), noncollinear, pump
        ))
        assert off < on


def test_biphoton_fourier_linear_in_g(bbo):
    w1 = FourierCoord(1e5, 0, 3e13)
    w2 = FourierCoord(-0.8e5, 0, -2e13)
    v1 = biphoton_fourier(w1, w2, bbo, PumpConfig(coupling_g=1e-3))
    v2 = biphoton_fourier(w1, w2, bbo, PumpConfig(coupling_g=5e-4))
    assert abs(v2) == pytest.approx(0.5 * abs(v1), rel=1e-12)


def test_biphoton_fourier_evanescent_raises(bbo, pump):
    ks = 9.9e6
    with pytest.raises(EvanescentError):
        biphoton_fourier(
            FourierCoord(1.2 * ks, 0, 0), FourierCoord(0, 0, 0), bbo, pump
        )


def test_pw_kernel_on_curve_modulus(collinear):
    om = 1e14
    q = solve_q_pm(om, collinear)
    g = 1e-3
    assert abs(pw_kernel_values(q, om, collinear, g)[0]) == pytest.approx(g, rel=1e-9)


def test_pw_kernel_zero_at_full_lobe(collinear):
    # locate Delta_pw = 2*pi between the curve and the evanescent bound
    om = 1e14
    lo = solve_q_pm(om, collinear)
    hi = lo * 3.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if delta_pw(mid, om, collinear) > -2 * math.pi:
            lo = mid
        else:
            hi = mid
    assert abs(pw_kernel_values(0.5 * (lo + hi), om, collinear, 1.0)[0]) < 1e-9


def test_pw_kernel_even_in_omega(bbo):
    assert (pw_kernel_values(2e5, 7e13, bbo, 1.0)[0]
            == pw_kernel_values(2e5, -7e13, bbo, 1.0)[0])


def test_pw_kernel_evanescent_tally(bbo):
    val, ok = pw_kernel_values(2e7, 0.0, bbo, 1.0)
    assert val == 0.0
    assert not ok


def test_spectral_grid_validation():
    with pytest.raises(ValueError, match="even"):
        SpectralGrid(qx=np.linspace(-1, 1, 5), omega=np.linspace(-1, 1, 4))
    with pytest.raises(ValueError, match="zero bin"):
        SpectralGrid(qx=np.linspace(-1.0, 1.0, 4), omega=(np.arange(4) - 2.0))
    g = SpectralGrid.centered(8, 4.0, 6, 3.0)
    assert g.qx[4] == 0.0
    assert g.omega[3] == 0.0
    assert g.dq == pytest.approx(1.0)


def _sinc2_map(grid, crystal):
    vals, _ = pw_kernel_values(grid.qx[:, None], grid.omega[None, :], crystal, 1.0)
    return np.abs(vals) ** 2


def test_sinc2_map_bounds_and_ridges(collinear, noncollinear):
    coeff = taylor_coefficients(collinear)
    grid = SpectralGrid.centered(256, 3e5, 256, 3e14)
    m = _sinc2_map(grid, collinear)
    assert m.shape == (256, 256)
    assert np.all(m >= 0) and np.all(m <= 1.0)
    # ridge rows trace q = slope * |Omega|
    for j in (200, 230):
        om = grid.omega[j]
        q_star = abs(grid.qx[np.argmax(m[:, j])])
        assert q_star == pytest.approx(coeff.asymptote_slope * abs(om), abs=2 * grid.dq)
    # noncollinear ridge is a horizontal pair of lines at the ring radius
    grid_n = SpectralGrid.centered(512, 1.5e6, 128, 1e14)
    m_n = _sinc2_map(grid_n, noncollinear)
    ring = math.sqrt(coeff.k_s * 419.57 / noncollinear.length_lc)
    for j in (10, 64, 100):
        q_star = abs(grid_n.qx[np.argmax(m_n[:, j])])
        assert q_star == pytest.approx(ring, rel=0.02)


def test_constant_kernel_transforms_to_delta(bbo):
    grid = SpectralGrid.centered(64, 1e5, 64, 1e14)
    kern = np.ones((64, 64), dtype=complex)
    m = synthesize_map(kern, grid, "slice2d", bbo)
    inten = np.abs(m.psi) ** 2
    peak = np.unravel_index(np.argmax(inten), inten.shape)
    assert peak == (32, 32)
    assert inten[32, 32] > 1e6 * np.partition(inten.ravel(), -2)[-2]


def test_map_parseval(collinear, pump):
    grid = SpectralGrid.centered(256, 4e5, 256, 3e14)
    kern, _ = pw_kernel_values(
        grid.qx[:, None], grid.omega[None, :], collinear, pump.coupling_g
    )
    m = synthesize_map(kern, grid, "slice2d", collinear)
    lhs = (np.abs(m.psi) ** 2).sum() * (m.delta_x[1] - m.delta_x[0]) * (
        m.delta_t[1] - m.delta_t[0]
    )
    rhs = (np.abs(kern) ** 2).sum() * grid.dq * grid.domega / (2 * math.pi) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_map_linear_in_g(collinear):
    grid = SpectralGrid.centered(128, 4e5, 128, 3e14)
    m1 = correlation_map(grid, collinear, PumpConfig(coupling_g=1e-3))
    m2 = correlation_map(grid, collinear, PumpConfig(coupling_g=2e-3))
    assert np.allclose(np.abs(m2.psi), 2 * np.abs(m1.psi), rtol=1e-12)


def test_full3d_mode_returns_midplane(collinear, pump):
    grid = SpectralGrid.centered(32, 4e5, 32, 3e14, with_qy=True)
    m3 = correlation_map(grid, collinear, pump, mode="full3d")
    assert m3.psi.shape == (32, 32)
    assert m3.mode == "full3d"
    # the delta_y = 0 plane keeps the reflection symmetry in delta_x
    inten = np.abs(m3.psi) ** 2
    assert np.allclose(inten[1:, :], inten[1:, :][::-1, :], rtol=1e-8)


def _cube_midplane(grid, crystal, g):
    """Reference full3d map: the delta_y = 0 plane of the 3D transform of
    the whole (q_x, q_y, Omega) kernel cube."""
    q_abs = np.hypot(grid.qx[:, None, None], grid.qy[None, :, None])
    kern, ok = pw_kernel_values(q_abs, grid.omega[None, None, :], crystal, g)
    n_qy = len(grid.qy)
    cube = np.fft.ifftn(np.fft.ifftshift(kern), axes=(0, 1)) * (grid.n_q * n_qy)
    cube = np.fft.fftshift(np.fft.fft(cube, axis=2))
    dqy = grid.qy[1] - grid.qy[0]
    plane = cube[:, n_qy // 2, :] * (grid.dq * dqy * grid.domega / (2 * math.pi) ** 3)
    return plane, int(np.count_nonzero(~ok))


@pytest.mark.parametrize("name", ["bbo_collinear", "bbo_noncollinear"])
def test_full3d_matches_cube_midplane(name):
    rc = parse_config(builtin_config_path(name))
    qext = default_q_extent(rc.crystal, 3e14, n_q=64)
    grid = SpectralGrid.centered(64, qext, 48, 3e14, with_qy=True)
    m = correlation_map(grid, rc.crystal, rc.pump, mode="full3d")
    ref, _ = _cube_midplane(grid, rc.crystal, rc.pump.coupling_g)
    assert m.psi.shape == ref.shape == (64, 48)
    assert np.max(np.abs(m.psi - ref)) <= 1e-12 * np.max(np.abs(ref))
    # a grid reaching past the emission cone: the evanescent count is per
    # cube cell, as for the cube itself
    grid = SpectralGrid.centered(16, 1.5e7, 8, 3e14, with_qy=True)
    m = correlation_map(grid, rc.crystal, rc.pump, mode="full3d")
    _, n_evan = _cube_midplane(grid, rc.crystal, rc.pump.coupling_g)
    assert m.evanescent_cells == n_evan == 1460


def _signed_column_map(grid, crystal, pump, mode):
    """Reference map that evaluates the kernel on every signed q_x, with
    full3d's q_y rows in the same order and weights as correlation_map."""
    g = pump.coupling_g
    om = grid.omega[None, :]
    if mode == "slice2d":
        kern, ok = pw_kernel_values(grid.qx[:, None], om, crystal, g)
        n_evan = int(np.count_nonzero(~ok))
    else:
        kern = np.zeros((grid.n_q, grid.n_omega), dtype=complex)
        n_evan = 0
        for qy, count in zip(*np.unique(np.abs(grid.qy), return_counts=True)):
            row, ok = pw_kernel_values(np.hypot(grid.qx, qy)[:, None], om, crystal, g)
            kern += count * row
            n_evan += int(count) * int(np.count_nonzero(~ok))
        kern *= float(grid.qy[1] - grid.qy[0]) / (2 * math.pi)
    return synthesize_map(kern, grid, mode, crystal, evanescent_cells=n_evan)


@pytest.mark.parametrize("mode", ["slice2d", "full3d"])
@pytest.mark.parametrize("name", ["bbo_collinear", "bbo_noncollinear"])
def test_mirror_rows_match_signed_column_bits(name, mode):
    # the kernel sees q only through q^2, so evaluating each |q_x| once
    # and copying it to its mirror row moves no bit of the map
    rc = parse_config(builtin_config_path(name))
    n_q = 64 if mode == "full3d" else 256
    qext = default_q_extent(rc.crystal, 3e14, n_q=n_q)
    grid = SpectralGrid.centered(n_q, qext, 96, 3e14, with_qy=(mode == "full3d"))
    m = correlation_map(grid, rc.crystal, rc.pump, mode=mode)
    ref = _signed_column_map(grid, rc.crystal, rc.pump, mode)
    assert np.array_equal(m.psi, ref.psi)
    assert np.array_equal(m.intensity, np.abs(ref.psi) ** 2)
    assert m.evanescent_cells == ref.evanescent_cells


def test_mirror_rows_keep_evanescent_count(collinear, pump):
    # past the emission cone every signed q_x row counts, mirrors included
    grid = SpectralGrid.centered(16, 1.5e7, 8, 3e14)
    m = correlation_map(grid, collinear, pump)
    ref = _signed_column_map(grid, collinear, pump, "slice2d")
    assert m.evanescent_cells == ref.evanescent_cells > 0
    assert np.array_equal(m.psi, ref.psi)


def test_full3d_memory_stays_2d(collinear, pump):
    # the 128 x 128 x 256 cube alone would take 64 MiB of complex128
    grid = SpectralGrid.centered(128, 4e5, 256, 3e14, with_qy=True)
    tracemalloc.start()
    try:
        m = correlation_map(grid, collinear, pump, mode="full3d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.psi.shape == (128, 256)
    assert peak < 16 * 2**20


def test_synthesize_map_rejects_unknown_mode_and_cube(bbo):
    grid = SpectralGrid.centered(8, 1e5, 8, 1e14, with_qy=True)
    with pytest.raises(ValueError, match="unknown mode"):
        synthesize_map(np.ones((8, 8), complex), grid, "full4d", bbo)
    with pytest.raises(ValueError, match="shape"):
        synthesize_map(np.ones((8, 8, 8), complex), grid, "full3d", bbo)


def test_resolution_warning_on_coarse_grid(noncollinear, pump):
    grid = SpectralGrid.centered(64, 2.1e6, 256, 3e14)
    m = correlation_map(grid, noncollinear, pump)
    assert m.warnings and "under-resolved" in m.warnings[0]


def test_collinear_map_ridge_slopes(bbo, pump):
    # bundled collinear geometry: X-arm slopes within 5% of sqrt(k_s k''_s)
    coeff = taylor_coefficients(bbo)
    qext = default_q_extent(bbo, 3e14)
    grid = SpectralGrid.centered(1024, qext, 1024, 3e14)
    m = correlation_map(grid, bbo, pump)
    fit = ridge_fit(m)
    assert fit.sufficient
    assert fit.slope_plus == pytest.approx(coeff.asymptote_slope, rel=0.05)
    assert fit.slope_minus == pytest.approx(-coeff.asymptote_slope, rel=0.05)


def test_ridge_fit_grid_refinement_stability(bbo, pump):
    qext = default_q_extent(bbo, 3e14)
    fits = []
    for n in (1024, 2048):
        grid = SpectralGrid.centered(n, qext, n, 3e14)
        fits.append(ridge_fit(correlation_map(grid, bbo, pump)))
    assert abs(fits[1].slope_plus - fits[0].slope_plus) < 0.01 * abs(
        fits[0].slope_plus
    )


def test_ridge_fit_synthetic_known_slope(bbo):
    # Gaussian ridges exactly on q = +-Omega/c0: map arms at dt = dx/c0
    c0 = 1.0 / 6e-10  # m/s, slope 1/c0 = 6e-10 s/m
    grid = SpectralGrid.centered(512, 4e5, 512, 3e14)
    Q = grid.qx[:, None]
    OM = grid.omega[None, :]
    sigma = 4e3
    kern = (
        np.exp(-((Q - OM / c0) ** 2) / (2 * sigma**2))
        + np.exp(-((Q + OM / c0) ** 2) / (2 * sigma**2))
    ).astype(complex)
    m = synthesize_map(kern, grid, "slice2d", bbo)
    x_max = m.delta_x[-1]
    fit = ridge_fit(m, core_exclusion=0.08 * x_max, outer_limit=0.5 * x_max)
    assert fit.sufficient
    assert fit.slope_plus == pytest.approx(1.0 / c0, rel=0.02)
    assert fit.slope_minus == pytest.approx(-1.0 / c0, rel=0.02)


def test_ridge_fit_noncollinear_flat_or_insufficient(noncollinear, pump):
    qext = default_q_extent(noncollinear, 3e14, n_q=1024)
    grid = SpectralGrid.centered(1024, qext, 512, 3e14)
    fit = ridge_fit(correlation_map(grid, noncollinear, pump))
    s = taylor_coefficients(noncollinear).asymptote_slope
    assert (not fit.sufficient) or abs(fit.slope_plus) < 0.05 * s


@pytest.mark.parametrize("name, flat", [("bbo_noncollinear", True),
                                        ("bbo_collinear", False)])
def test_ridge_fit_flags_flat_locus(name, flat):
    # the bundled cigar map fits slopes of ~1e-26 s/m: sufficient but flat
    rc = parse_config(builtin_config_path(name))
    g = rc.grid
    qext = default_q_extent(rc.crystal, g.omega_extent, n_q=g.n_q)
    grid = SpectralGrid.centered(g.n_q, qext, g.n_omega, g.omega_extent)
    fit = ridge_fit(correlation_map(grid, rc.crystal, rc.pump))
    assert fit.sufficient
    assert fit.flat is flat


def test_ridge_fit_insufficient_data(bbo, pump):
    grid = SpectralGrid.centered(64, 4e5, 64, 3e14)
    fit = ridge_fit(correlation_map(grid, bbo, pump), core_exclusion=1.0)
    assert not fit.sufficient
    assert "ridge points" in fit.reason


def _small_map(crystal, pump):
    grid = SpectralGrid.centered(256, default_q_extent(crystal, 3e14, n_q=256),
                                 256, 3e14)
    return correlation_map(grid, crystal, pump)


def test_factorized_correlation_center_equals_pw(collinear, pump):
    # unit envelope at the origin: value is psi_pw itself (up to the
    # bilinear-weight rounding of hitting an exact node)
    m = _small_map(collinear, pump)
    dx, dt = m.delta_x[80], m.delta_t[140]
    val = factorized_correlation((0.0, 0.0), (dx, dt), m, pump)
    assert val == pytest.approx(m.psi[80, 140], rel=1e-12)


def test_factorized_correlation_pump_envelope_decay(collinear, pump):
    m = _small_map(collinear, pump)
    xi_d = (m.delta_x[130], m.delta_t[130])
    near = abs(factorized_correlation((0.0, 0.0), xi_d, m, pump))
    far = abs(factorized_correlation((6 * pump.waist, 0.0), xi_d, m, pump))
    assert far < 1e-10 * near


def test_factorized_correlation_out_of_range(collinear, pump):
    m = _small_map(collinear, pump)
    with pytest.raises(ValueError, match="outside map axes"):
        factorized_correlation((0.0, 0.0), (10 * m.delta_x[-1], 0.0), m, pump)


def test_map_intensity_even_under_point_reflection(collinear, pump):
    # |psi_pw(-xi)| = |psi_pw(xi)|: kernel is even in q and Omega separately
    m = _small_map(collinear, pump)
    inten = np.abs(m.psi) ** 2
    core = inten[1:, 1:]  # index n/2 + k <-> n/2 - k pairs exist off the edge
    assert np.allclose(core, core[::-1, ::-1], rtol=1e-8, atol=core.max() * 1e-10)


def test_biphoton_fourier_evanescent_names_the_evanescent_photon(bbo, pump):
    # photon 2 is past its cone; photon 1 and the pump propagate
    ks_m = float(signal_wavenumber(-1e14, bbo))
    w1 = FourierCoord(0.0, 0.0, 1e14)
    w2 = FourierCoord(1.2 * ks_m, 0.0, -1e14)
    with pytest.raises(EvanescentError) as info:
        biphoton_fourier(w1, w2, bbo, pump)
    err = info.value
    assert err.omega_shift == -1e14
    assert err.k == pytest.approx(9.296e6, rel=1e-3)
    assert err.k == ks_m
    assert "omega_shift = -1.000000e+14" in str(err)
    assert "k = 9.296" in str(err)
