import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.config import builtin_config_path, parse_config
from biphoton.dispersion import (
    KATO_BBO_EXTRAORDINARY,
    KATO_BBO_ORDINARY,
    CrystalConfig,
    group_quantities,
    pump_walkoff_angle,
    pump_wavenumber,
    signal_wavenumber,
)
from biphoton.phasematch import (
    PM_SOLVER_TOL,
    EvanescentError,
    FourierCoord,
    OffCurveError,
    classical_separation,
    curve_to_csv,
    delta0,
    delta_full,
    delta_pw,
    photon_kz_arrays,
    pm_slope,
    pm_slope_implicit,
    solve_pm_curve,
    solve_q_pm,
    taylor_coefficients,
    tune_collinear,
)


def equal_sets_config():
    # dispersive but identical branches: no birefringence to tune against
    return CrystalConfig(
        sellmeier_ordinary=KATO_BBO_ORDINARY,
        sellmeier_extraordinary=KATO_BBO_ORDINARY,
    )


def test_kz_on_axis(bbo):
    ks = float(signal_wavenumber(0.0, bbo))
    kz, ok = photon_kz_arrays(0.0, 0.0, 0.0, bbo)
    assert ok
    assert kz == ks


def test_kz_half_power_point(bbo):
    ks = float(signal_wavenumber(0.0, bbo))
    q = ks / math.sqrt(2.0)
    kz, ok = photon_kz_arrays(q, 0.0, 0.0, bbo)
    assert ok
    assert kz == pytest.approx(ks / math.sqrt(2.0), rel=1e-12)
    # past k_s the mode is flagged evanescent
    assert not photon_kz_arrays(0.0, ks * 1.01, 0.0, bbo)[1]


def test_delta0_noncollinear_matches_reported_value(noncollinear):
    assert delta0(noncollinear) == pytest.approx(419.0, rel=0.10)


def test_delta0_collinear_tuned_is_zero(collinear):
    assert abs(delta0(collinear)) < 1e-3


def test_delta_pw_vanishes_on_curve(collinear):
    for om in (3e13, 1.2e14, 2.7e14):
        q = solve_q_pm(om, collinear)
        assert abs(delta_pw(q, om, collinear)) < 1e-6


@settings(max_examples=50, deadline=None)
@given(
    q_frac=st.floats(min_value=0.0, max_value=0.2),
    om=st.floats(min_value=-9e14, max_value=9e14),
)
def test_delta_pw_even_in_omega(q_frac, om):
    bbo = CrystalConfig()
    q = q_frac * 9.8e6
    assert delta_pw(q, om, bbo) == delta_pw(q, -om, bbo)


def test_delta_pw_scales_with_crystal_length(bbo):
    doubled = bbo.replace(length_lc=2 * bbo.length_lc)
    assert delta_pw(2e5, 1e14, doubled) == pytest.approx(
        2 * delta_pw(2e5, 1e14, bbo), rel=1e-14
    )
    q1 = solve_q_pm(2e14, bbo)
    q2 = solve_q_pm(2e14, doubled)
    assert q1 == pytest.approx(q2, rel=1e-9)


def test_delta_full_reduces_to_pw_on_conjugate_pair(bbo):
    w = FourierCoord(1.5e5, 0.7e5, 8e13)
    q = math.sqrt(w.q2)
    assert delta_full(w, -w, bbo) == pytest.approx(
        float(delta_pw(q, w.omega_shift, bbo)), rel=1e-12
    )


def test_delta_full_symmetric_under_exchange(bbo):
    w1 = FourierCoord(2e5, -1e5, 5e13)
    w2 = FourierCoord(-1.3e5, 4e4, -2e13)
    assert delta_full(w1, w2, bbo) == delta_full(w2, w1, bbo)


def test_delta_full_degenerate_axis_gives_delta0(bbo):
    zero = FourierCoord(0.0, 0.0, 0.0)
    assert delta_full(zero, zero, bbo) == pytest.approx(delta0(bbo), rel=1e-12)


def test_walkoff_phase_flag_adds_linear_term(bbo):
    w1 = FourierCoord(2e5, 0.0, 5e13)
    w2 = FourierCoord(1e5, 0.0, -1e13)
    base = delta_full(w1, w2, bbo)
    flagged = delta_full(w1, w2, bbo.replace(pump_walkoff_phase=True))
    expected = pump_walkoff_angle(bbo) * (w1.qx + w2.qx) * bbo.length_lc
    assert flagged - base == pytest.approx(expected, rel=1e-9)
    # conjugate pairs carry no net transverse pump momentum: flag is inert
    w = FourierCoord(2e5, 0.0, 5e13)
    assert delta_full(w, -w, bbo.replace(pump_walkoff_phase=True)) == pytest.approx(
        delta_full(w, -w, bbo), rel=1e-14
    )


def test_collinear_curve_follows_linear_law(collinear):
    coeff = taylor_coefficients(collinear)
    for om in (1e13, 3e13, 6e13):
        q = solve_q_pm(om, collinear)
        assert q == pytest.approx(coeff.asymptote_slope * om, rel=0.01)


def test_noncollinear_curve_plateau(noncollinear):
    coeff = taylor_coefficients(noncollinear)
    expected = math.sqrt(coeff.k_s * coeff.delta0 / noncollinear.length_lc)
    assert solve_q_pm(0.0, noncollinear) == pytest.approx(expected, rel=0.01)
    assert solve_q_pm(3e13, noncollinear) == pytest.approx(expected, rel=0.01)


def bisect_q_pm(omega, config):
    """Reference root of Delta_pw by bisection, vectorized over omega."""
    ks = np.minimum(signal_wavenumber(omega, config), signal_wavenumber(-omega, config))
    lo, hi = np.zeros_like(omega), ks * (1.0 - 1e-12)
    has_root = (delta_pw(lo, omega, config) >= 0.0) & (delta_pw(hi, omega, config) <= 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = delta_pw(mid, omega, config) >= 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.where(has_root, 0.5 * (lo + hi), np.nan)


@pytest.mark.parametrize("name", ["bbo_collinear", "bbo_noncollinear"])
def test_closed_form_root_matches_bisection(name):
    rc = parse_config(builtin_config_path(name))
    ext = rc.grid.omega_extent
    omega = np.linspace(-ext, ext, 401)
    q = solve_q_pm(omega, rc.crystal)
    ref = bisect_q_pm(omega, rc.crystal)
    assert np.array_equal(np.isnan(q), np.isnan(ref))
    found = ~np.isnan(q)
    assert np.any(found)
    assert np.all(np.abs(q[found] - ref[found]) <= 1e-9 * ref[found])
    assert np.all(np.abs(delta_pw(q[found], omega[found], rc.crystal)) <= PM_SOLVER_TOL)


def test_solve_q_pm_scalar_and_array_shapes(noncollinear):
    assert type(solve_q_pm(1e14, noncollinear)) is float
    assert type(solve_q_pm(0.0, equal_sets_config())) is float
    omega = np.linspace(-2e14, 2e14, 12).reshape(3, 4)
    q = solve_q_pm(omega, noncollinear)
    assert isinstance(q, np.ndarray) and q.shape == (3, 4)
    assert q[1, 2] == solve_q_pm(omega[1, 2], noncollinear)


def test_curve_samples_satisfy_solver_postcondition(noncollinear):
    curve = solve_pm_curve((-3e14, 3e14), 101, noncollinear)
    assert curve.regime == "noncollinear"
    for om, q in zip(curve.omega, curve.q_pm):
        assert not math.isnan(q)
        assert abs(delta_pw(q, om, noncollinear)) < curve.solver_tol


def test_curve_gap_handling(bbo):
    # literal 22.9 deg is slightly under-tuned (delta0 ~ -1.4): no root
    # until gvd * l_c * Omega^2 overcomes it
    curve = solve_pm_curve((-3e14, 3e14), 201, bbo)
    assert np.count_nonzero(curve.gap_mask) > 0
    assert not np.all(curve.gap_mask)


def test_empty_curve_is_explicit_not_exception():
    curve = solve_pm_curve((-1e14, 1e14), 41, equal_sets_config())
    assert np.all(curve.gap_mask)


def test_curve_kink_tagged_at_degeneracy(collinear):
    curve = solve_pm_curve((-2e14, 2e14), 81, collinear)  # includes omega = 0
    assert curve.regime == "collinear"
    assert curve.kink_slopes is not None
    left, right = curve.kink_slopes
    s = taylor_coefficients(collinear).asymptote_slope
    assert right == pytest.approx(s, rel=0.02)
    assert left == pytest.approx(-s, rel=0.02)
    i0 = int(np.nonzero(curve.omega == 0.0)[0][0])
    assert math.isnan(curve.slope[i0])


def test_taylor_delta0_consistency(noncollinear):
    assert taylor_coefficients(noncollinear).delta0 == pytest.approx(
        delta0(noncollinear), rel=1e-12
    )


def test_taylor_curvatures_against_least_squares_fit(collinear):
    # quadratic surface fit of delta_pw over a small neighborhood
    coeff = taylor_coefficients(collinear)
    qs = np.linspace(0, 2.7e4, 12)
    oms = np.linspace(-4.2e13, 4.2e13, 13)
    q_scale, om_scale = qs[-1], oms[-1]
    rows, vals = [], []
    for q in qs:
        for om in oms:
            rows.append([1.0, (q / q_scale) ** 2, (om / om_scale) ** 2,
                         (q / q_scale) ** 2 * (om / om_scale) ** 2])
            vals.append(delta_pw(q, om, collinear))
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(vals), rcond=None)
    assert sol[1] / q_scale**2 == pytest.approx(
        -collinear.length_lc / coeff.k_s, rel=0.01
    )
    assert sol[2] / om_scale**2 == pytest.approx(
        coeff.gvd * collinear.length_lc, rel=0.01
    )


def test_taylor_asymptote_is_root_product(collinear):
    coeff = taylor_coefficients(collinear)
    assert coeff.slope_defined
    assert coeff.asymptote_slope == pytest.approx(
        math.sqrt(coeff.k_s * coeff.gvd), rel=1e-12
    )


def test_tune_collinear_angle(bbo):
    angle = tune_collinear(bbo)
    assert angle is not None
    assert math.degrees(angle) == pytest.approx(22.9, abs=0.5)
    assert abs(delta0(bbo.replace(tuning_angle=angle))) < 1e-3


def test_tune_collinear_not_found_without_birefringence():
    assert tune_collinear(equal_sets_config()) is None


def test_tune_collinear_matches_bisection(bbo):
    def f(theta):
        return delta0(bbo.replace(tuning_angle=theta))

    lo, hi = 1e-9, math.pi / 2 - 1e-9
    assert f(lo) < 0.0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    assert abs(tune_collinear(bbo) - 0.5 * (lo + hi)) <= 1e-12


def test_tune_collinear_not_found_with_swapped_index_sets():
    # positive uniaxial: n_e > n_o at the pump, so sin^2(theta) < 0
    swapped = CrystalConfig(
        sellmeier_ordinary=KATO_BBO_EXTRAORDINARY,
        sellmeier_extraordinary=KATO_BBO_ORDINARY,
    )
    assert tune_collinear(swapped) is None


def test_delta_pw_evanescent_raises(bbo):
    ks = float(signal_wavenumber(1e14, bbo))
    with pytest.raises(EvanescentError):
        delta_pw(1.01 * ks, 1e14, bbo)
    with pytest.raises(EvanescentError) as err:
        delta_pw(np.array([1e5, 1.01 * ks]), 1e14, bbo)
    assert err.value.q == 1.01 * ks
    assert err.value.omega_shift == 1e14


def test_delta_full_evanescent_raises(bbo, noncollinear):
    ks = float(signal_wavenumber(0.0, bbo))
    zero = FourierCoord(0.0, 0.0, 0.0)
    with pytest.raises(EvanescentError) as err:
        delta_full(zero, FourierCoord(1.01 * ks, 0.0, 0.0), bbo)
    assert err.value.q == 1.01 * ks
    # both photons propagate, their summed q lies past the 28 deg pump cone
    w = FourierCoord(0.999 * ks, 0.0, 0.0)
    with pytest.raises(EvanescentError) as err:
        delta_full(w, w, noncollinear)
    assert err.value.k == pytest.approx(pump_wavenumber(noncollinear), rel=1e-15)


def test_classical_separation_degenerate_pair(collinear):
    sep = classical_separation(0.0, 1e-3, collinear)
    assert sep.delta_t == 0.0
    assert abs(sep.delta_r) < 1e-8  # tuning residual only


def test_classical_separation_validates_inputs(collinear, bbo):
    with pytest.raises(ValueError):
        classical_separation(1e14, -1e-3, collinear)
    with pytest.raises(OffCurveError):
        classical_separation(1e12, 1e-3, bbo)  # inside the 22.9 deg gap


def test_classical_identity_machine_precision(collinear, noncollinear):
    rng = np.random.default_rng(3)
    for cfg in (collinear, noncollinear):
        for _ in range(40):
            om = rng.uniform(0.05, 1.0) * 4e14 * rng.choice([-1.0, 1.0])
            z = rng.uniform(0.0, cfg.length_lc)
            sep = classical_separation(om, z, cfg)
            rhs = sep.delta_r * pm_slope_implicit(om, cfg)
            assert abs(sep.delta_t - rhs) <= 1e-6 * abs(sep.delta_t)


def test_classical_identity_with_resolve_slope(collinear):
    rng = np.random.default_rng(4)
    for _ in range(25):
        om = rng.uniform(0.05, 1.0) * 4e14 * rng.choice([-1.0, 1.0])
        z = rng.uniform(0.0, collinear.length_lc)
        sep = classical_separation(om, z, collinear)
        rhs = sep.delta_r * pm_slope(om, collinear)
        assert abs(sep.delta_t - rhs) <= 1e-4 * abs(sep.delta_t)


def test_noncollinear_delay_is_suppressed(noncollinear):
    s = taylor_coefficients(noncollinear)
    slope_scale = math.sqrt(s.k_s * s.gvd)
    sep = classical_separation(2e13, 0.5e-3, noncollinear)
    assert abs(sep.delta_t) < 0.05 * sep.delta_r * slope_scale


def test_collinear_slope_limit(collinear):
    s = taylor_coefficients(collinear).asymptote_slope
    assert pm_slope(1e12, collinear) == pytest.approx(s, rel=0.01)
    assert pm_slope(-1e12, collinear) == pytest.approx(-s, rel=0.01)


def test_on_curve_total_derivative_identity(noncollinear):
    curve = solve_pm_curve((5e13, 3e14), 41, noncollinear)
    h_q, h_om = 1.0, 1e8
    # interior samples only: edge samples fall back to one-sided slopes
    for om, q, slope in zip(
        curve.omega[1:-1], curve.q_pm[1:-1], curve.slope[1:-1]
    ):
        if math.isnan(q) or math.isnan(slope):
            continue
        d_q = (delta_pw(q + h_q, om, noncollinear)
               - delta_pw(q - h_q, om, noncollinear)) / (2 * h_q)
        d_om = (delta_pw(q, om + h_om, noncollinear)
                - delta_pw(q, om - h_om, noncollinear)) / (2 * h_om)
        assert abs(d_om + d_q * slope) < 1e-3 * abs(d_q * slope)


def test_curve_csv_format_and_gaps(bbo):
    curve = solve_pm_curve((-2e14, 2e14), 41, bbo)
    text = curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "omega_rad_s,q_pm_rad_m,slope_s_m"
    assert len(lines) == 42
    gap_rows = [l for l in lines[1:] if l.split(",")[1] == ""]
    assert len(gap_rows) == int(np.count_nonzero(curve.gap_mask))
