"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are fixed here and
all Monte Carlo runs use pinned seeds, so every outcome is reproducible
bit-for-bit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from biphoton.config import builtin_config_path, parse_config
from biphoton.correlation import (
    SpectralGrid,
    correlation_map,
    default_q_extent,
    ridge_fit,
)
from biphoton.dispersion import walkoff_metrics
from biphoton.phasematch import (
    classical_separation,
    delta0,
    pm_slope,
    taylor_coefficients,
    tune_collinear,
)
from biphoton.schmidt import (
    BandwidthFilter,
    SyntheticKernel,
    bandwidth_sweep,
    schmidt_number,
    svd_oracle,
)


def _report(criterion, ok, detail):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def collinear_rc():
    return parse_config(builtin_config_path("bbo_collinear"))


@pytest.fixture(scope="module")
def noncollinear_rc():
    return parse_config(builtin_config_path("bbo_noncollinear"))


def test_criterion_1_collinear_tuning(collinear_rc, noncollinear_rc):
    angle = tune_collinear(collinear_rc.crystal)
    d28 = delta0(noncollinear_rc.crystal)
    ok = (
        angle is not None
        and abs(math.degrees(angle) - 22.9) <= 0.5
        and abs(d28 - 419.0) <= 0.10 * 419.0
    )
    _report(
        1, ok,
        f"tuned angle {math.degrees(angle):.3f} deg (target 22.9 +- 0.5), "
        f"delta0(28 deg) = {d28:.2f} (target 419 +- 10%)",
    )


def test_criterion_2_walkoff_metrics(collinear_rc):
    gvm, walk = walkoff_metrics(collinear_rc.crystal)
    ok = abs(gvm - 350e-15) <= 0.10 * 350e-15 and abs(walk - 220e-6) <= 0.10 * 220e-6
    _report(
        2, ok,
        f"gvm delay {gvm * 1e15:.1f} fs (target 350 +- 10%), "
        f"walk-off {walk * 1e6:.1f} um (target 220 +- 10%)",
    )


def test_criterion_3_classical_identity(collinear_rc, noncollinear_rc):
    tuned = collinear_rc.crystal.replace(
        tuning_angle=tune_collinear(collinear_rc.crystal)
    )
    rng = np.random.default_rng(2024)
    worst = 0.0
    for cfg in (tuned, noncollinear_rc.crystal):
        for _ in range(100):
            om = rng.uniform(0.05, 1.0) * 4e14 * rng.choice([-1.0, 1.0])
            z = rng.uniform(0.0, cfg.length_lc)
            sep = classical_separation(om, z, cfg)
            rel = abs(sep.delta_t - sep.delta_r * pm_slope(om, cfg)) / abs(sep.delta_t)
            worst = max(worst, rel)
    ok = worst < 1e-4
    _report(3, ok, f"200 random curve points, worst |dt - dr q'|/|dt| = {worst:.2e} "
                   f"(tolerance 1e-4)")


def test_criterion_4_x_asymptotes(collinear_rc):
    rc = collinear_rc
    coeff = taylor_coefficients(rc.crystal)
    qext = default_q_extent(rc.crystal, rc.grid.omega_extent, n_q=rc.grid.n_q)
    grid = SpectralGrid(rc.grid.n_q, qext, rc.grid.n_omega, rc.grid.omega_extent)
    cmap = correlation_map(grid, rc.crystal, rc.pump)
    fit = ridge_fit(cmap)
    err_p = fit.slope_plus / coeff.asymptote_slope - 1.0
    err_m = fit.slope_minus / (-coeff.asymptote_slope) - 1.0
    ok = fit.sufficient and abs(err_p) <= 0.05 and abs(err_m) <= 0.05
    _report(
        4, ok,
        f"1024^2 X-map ridge slopes {fit.slope_plus:.4e} / {fit.slope_minus:.4e} s/m "
        f"vs sqrt(k_s k''_s) = {coeff.asymptote_slope:.4e}: errors "
        f"{err_p:+.2%} / {err_m:+.2%} (tolerance 5%)",
    )


def test_criterion_5_cigar_geometry(collinear_rc, noncollinear_rc):
    rc = noncollinear_rc
    qext = default_q_extent(rc.crystal, rc.grid.omega_extent, n_q=rc.grid.n_q)
    grid = SpectralGrid(rc.grid.n_q, qext, rc.grid.n_omega, rc.grid.omega_extent)
    cmap = correlation_map(grid, rc.crystal, rc.pump)
    inten = np.abs(cmap.psi) ** 2
    x, t = cmap.delta_x, cmap.delta_t
    x_max = float(x[-1])
    # X arms of the collinear geometry over the same delta-x range
    slope = taylor_coefficients(collinear_rc.crystal).asymptote_slope
    band = 0.20 * slope * x_max
    outside = np.abs(x) > 0.05 * x_max
    in_band = np.abs(t) <= band
    frac = inten[np.ix_(outside, in_band)].sum() / inten[outside, :].sum()
    ok = frac >= 0.90 and not cmap.warnings
    _report(
        5, ok,
        f"cigar map: {frac:.1%} of off-core mass inside |dt| < {band:.2e} s "
        f"(20% of the collinear arm extent; need >= 90%)",
    )


@pytest.mark.slow
def test_criterion_6_schmidt_oracle_equivalence(collinear_rc, narrow_pump):
    crystal = collinear_rc.crystal.replace(
        tuning_angle=tune_collinear(collinear_rc.crystal)
    )
    # box and pump sized so the midpoint grids resolve the kernel
    filt_1d = BandwidthFilter(q_max=1e5, omega_max=5e13, model="temporal1d")
    orc_1d = svd_oracle(filt_1d, crystal, narrow_pump, 512)
    mc_1d = schmidt_number(filt_1d, crystal, narrow_pump, (200_000, 1_000_000), 606)
    pull_1d = abs(mc_1d.k_value - orc_1d.k_value) / mc_1d.k_stderr

    filt_3d = BandwidthFilter(q_max=1e5, omega_max=5e13, model="full3d")
    # 16^3 = 4096 cells per photon: the largest grid the oracle's memory
    # bound admits (see the svd_oracle contract); K is grid-converged to
    # 0.3% here while the MC error is ~0.6%
    orc_3d = svd_oracle(filt_3d, crystal, narrow_pump, 16)
    mc_3d = schmidt_number(filt_3d, crystal, narrow_pump, (1_000_000, 10_000_000), 607)
    pull_3d = abs(mc_3d.k_value - orc_3d.k_value) / mc_3d.k_stderr

    ok = mc_1d.ok and mc_3d.ok and pull_1d < 3.0 and pull_3d < 3.0
    _report(
        6, ok,
        f"1D (grid 512): K_mc {mc_1d.k_value:.3f}+-{mc_1d.k_stderr:.3f} vs "
        f"K_svd {orc_1d.k_value:.3f} ({pull_1d:.2f} sigma); "
        f"3D (grid 16^3): K_mc {mc_3d.k_value:.2f}+-{mc_3d.k_stderr:.2f} vs "
        f"K_svd {orc_3d.k_value:.2f} ({pull_3d:.2f} sigma); need < 3 sigma",
    )


def test_criterion_7_separable_baseline():
    filt = BandwidthFilter(q_max=1.0, omega_max=2.0, model="temporal1d")
    kern = SyntheticKernel(1, lambda W1, W2: np.exp(-W1[:, 0] ** 2 - W2[:, 0] ** 2))
    est = schmidt_number(filt, None, None, (100_000, 800_000), 707,
                         sampler="uniform", kernel=kern)
    orc = svd_oracle(filt, None, None, 64, kernel=kern)
    pull = abs(est.k_value - 1.0) / est.k_stderr
    ok = est.ok and pull < 3.0 and abs(orc.k_value - 1.0) < 1e-12
    _report(
        7, ok,
        f"rank-1 kernel: K_mc {est.k_value:.4f}+-{est.k_stderr:.4f} "
        f"({pull:.2f} sigma from 1), K_svd {orc.k_value:.12f} (exact 1)",
    )


def _ratio_with_error(sweep, i):
    r = sweep.k3d[i] / sweep.kprod[i]
    err = r * math.sqrt(
        (sweep.k3d_err[i] / sweep.k3d[i]) ** 2
        + (sweep.kprod_err[i] / sweep.kprod[i]) ** 2
    )
    return r, err


def _run_transition_sweep(rc, omegas, seed):
    filt = BandwidthFilter(q_max=rc.filter.q_max, omega_max=omegas[-1])
    return bandwidth_sweep(
        omegas, filt, rc.crystal, rc.pump,
        (rc.mc.n_norm, rc.mc.n_purity), seed,
        sampler=rc.mc.sampler, batch=rc.mc.batch,
    )


COLLINEAR_SWEEP_OMEGAS = [5e13, 1.5e14, 3e14]
NONCOLLINEAR_SWEEP_OMEGAS = [2.5e13, 5e13, 1e14, 2e14, 3e14]
SWEEP_SEED = 808


@pytest.fixture(scope="module")
def collinear_sweep(collinear_rc):
    """The seed-808 collinear sweep that criteria 8 and 9 both read."""
    return _run_transition_sweep(collinear_rc, COLLINEAR_SWEEP_OMEGAS, SWEEP_SEED)


@pytest.mark.slow
def test_criterion_8_factorization_transition(collinear_sweep, noncollinear_rc):
    col = collinear_sweep
    assert not col.failures
    col_detail = []
    departs = []
    for i, om in enumerate(col.omega_max):
        r, err = _ratio_with_error(col, i)
        col_detail.append(f"{om:.2e}: {r:.3f}+-{err:.3f}")
        if om > 1.0e14:
            departs.append(abs(r - 1.0) > 3.0 * err)
    collinear_ok = len(departs) > 0 and all(departs)

    non = _run_transition_sweep(noncollinear_rc, NONCOLLINEAR_SWEEP_OMEGAS, SWEEP_SEED)
    assert not non.failures
    non_detail = []
    within = []
    for i, om in enumerate(non.omega_max):
        r, err = _ratio_with_error(non, i)
        non_detail.append(f"{om:.2e}: {r:.3f}+-{err:.3f}")
        if om <= 3.0e14:  # 3x the collinear departure bandwidth
            within.append(abs(r - 1.0) <= 3.0 * err)
    noncollinear_ok = all(within) and len(within) == len(non.omega_max)

    ok = collinear_ok and noncollinear_ok
    _report(
        8, ok,
        "K3D/(K2D*K1D) collinear { " + ", ".join(col_detail) + " } departs > 3 sigma "
        "beyond 1e14; noncollinear { " + ", ".join(non_detail) + " } stays within "
        "3 sigma up to 3e14",
    )


@pytest.mark.slow
def test_criterion_9_sweep_determinism(collinear_rc, collinear_sweep):
    s1 = collinear_sweep
    s2 = _run_transition_sweep(collinear_rc, COLLINEAR_SWEEP_OMEGAS, SWEEP_SEED)
    csv1, csv2 = s1.to_csv(), s2.to_csv()
    ok = csv1 == csv2 and csv1.encode() == csv2.encode()
    _report(9, ok, f"collinear sweep repeated with seed {SWEEP_SEED}: CSV "
                   f"bit-identical = {csv1 == csv2}")
