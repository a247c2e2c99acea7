import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import schmidt
from biphoton.dispersion import WindowError
from biphoton.phasematch import delta_pw
from biphoton.schmidt import (
    BandwidthFilter,
    SyntheticKernel,
    bandwidth_sweep,
    build_kernel,
    mc_norm,
    mc_purity,
    restricted_kernel,
    schmidt_from_matrix,
    schmidt_from_singular_values,
    schmidt_number,
    svd_oracle,
)

BOX_1D = BandwidthFilter(q_max=1.0, omega_max=2.0, model="temporal1d")
CONST = SyntheticKernel(1, lambda W1, W2: np.ones(len(W1)))
GAUSS = SyntheticKernel(1, lambda W1, W2: np.exp(-W1[:, 0] ** 2 - W2[:, 0] ** 2))


def small_filter():
    """Box small enough that coarse grids resolve the kernel."""
    return BandwidthFilter(q_max=1.0e5, omega_max=5e13, model="temporal1d")


def test_filter_validation():
    with pytest.raises(ValueError):
        BandwidthFilter(q_max=0.0, omega_max=1.0)
    with pytest.raises(ValueError):
        BandwidthFilter(q_max=1.0, omega_max=-1.0)
    with pytest.raises(ValueError):
        BandwidthFilter(q_max=1.0, omega_max=1.0, model="planar9d")
    f = BandwidthFilter(q_max=2.0, omega_max=3.0)
    assert f.dim == 3
    assert f.box_volume() == pytest.approx(4 * 4 * 6)


def test_sample_count_preconditions(bbo, pump):
    with pytest.raises(ValueError, match=">= 1000"):
        mc_norm(BOX_1D, None, None, 999, 0, sampler="uniform", kernel=CONST)
    with pytest.raises(ValueError, match=">= 10000"):
        mc_purity(BOX_1D, None, None, 9999, 0, sampler="uniform", kernel=CONST)


def test_constant_kernel_norm_is_exact_volume():
    est = mc_norm(BOX_1D, None, None, 2000, 7, sampler="uniform", kernel=CONST)
    assert est.value == BOX_1D.box_volume() ** 2
    assert est.stderr == 0.0


def test_constant_kernel_purity_is_exact_volume_squared():
    est = mc_purity(BOX_1D, None, None, 20000, 7, sampler="uniform", kernel=CONST)
    assert est.value == (BOX_1D.box_volume() ** 2) ** 2
    assert est.stderr == 0.0
    assert est.imag_value == 0.0


def test_gaussian_norm_matches_closed_form():
    # N = (int_{-L}^{L} e^{-2 w^2} dw)^2 via the error function
    L = BOX_1D.omega_max
    exact = (math.sqrt(math.pi / 2) * math.erf(math.sqrt(2.0) * L)) ** 2
    est = mc_norm(BOX_1D, None, None, 400_000, 5, sampler="uniform", kernel=GAUSS)
    assert abs(est.value - exact) < 3 * est.stderr
    assert est.stderr < 0.01 * exact


def test_rank_one_kernel_gives_unit_schmidt_number():
    est = schmidt_number(BOX_1D, None, None, (50_000, 400_000), 11,
                         sampler="uniform", kernel=GAUSS)
    assert est.ok
    assert abs(est.k_value - 1.0) <= 3 * est.k_stderr
    # purity equals norm squared for separable kernels
    assert abs(est.b_value - est.n_value**2) <= 3 * (
        est.b_stderr + 2 * est.n_value * est.n_stderr
    )


def test_rank_one_svd_oracle_exact():
    orc = svd_oracle(BOX_1D, None, None, 64, kernel=GAUSS, spectrum=True)
    assert orc.k_value == pytest.approx(1.0, abs=1e-12)
    s = orc.singular_values
    assert s[0] > 0
    assert np.all(s[1:] < 1e-12 * s[0])


def _svd_reference(M):
    """K, sum s^2 and sum s^4 from a dense SVD."""
    s2 = np.linalg.svd(M, compute_uv=False) ** 2
    return s2.sum() ** 2 / (s2 * s2).sum(), s2.sum(), (s2 * s2).sum()


# one partial column block, exactly one block, and two blocks plus one column
@pytest.mark.parametrize("cells", [1, 7, 256, 513])
def test_frobenius_schmidt_matches_svd(cells):
    rng = np.random.default_rng(cells)
    M = rng.standard_normal((cells, cells)) + 1j * rng.standard_normal((cells, cells))
    k_ref, n_ref, b_ref = _svd_reference(M)
    k, n, b = schmidt._frobenius_schmidt(M)
    assert k == pytest.approx(k_ref, rel=1e-10)
    assert n == pytest.approx(n_ref, rel=1e-10)
    assert b == pytest.approx(b_ref, rel=1e-10)
    assert schmidt_from_matrix(M) == k


def test_frobenius_schmidt_zero_matrix_raises():
    with pytest.raises(ValueError, match="vanish"):
        schmidt_from_matrix(np.zeros((3, 3), dtype=complex))


def test_svd_oracle_matches_svd_reference_full3d(collinear, narrow_pump):
    filt = BandwidthFilter(q_max=1e5, omega_max=5e13, model="full3d")
    sizes = (3, 5, 7)
    half = filt.half_widths()
    axes = [-h + (np.arange(n) + 0.5) * 2 * h / n for h, n in zip(half, sizes)]
    W = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    cells = len(W)
    kern = build_kernel(filt, collinear, narrow_pump)
    M = kern.evaluate(np.repeat(W, cells, axis=0), np.tile(W, (cells, 1)))
    k_ref, n_ref, b_ref = _svd_reference(M.reshape(cells, cells))
    vol = np.prod(2 * half / sizes)

    orc = svd_oracle(filt, collinear, narrow_pump, sizes)
    assert orc.singular_values is None
    assert orc.grid_sizes == sizes
    assert orc.k_value == pytest.approx(k_ref, rel=1e-10)
    assert orc.n_grid == pytest.approx(n_ref * vol**2, rel=1e-10)
    assert orc.b_grid == pytest.approx(b_ref * vol**4, rel=1e-10)
    full = svd_oracle(filt, collinear, narrow_pump, sizes, spectrum=True)
    assert len(full.singular_values) == cells
    assert (full.k_value, full.n_grid, full.b_grid) == (
        orc.k_value, orc.n_grid, orc.b_grid
    )


def test_schmidt_from_matrix_maximally_entangled_pair():
    m = np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2.0)
    assert schmidt_from_matrix(m) == pytest.approx(2.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30))
def test_schmidt_number_bounds_from_singular_values(sigmas):
    k = schmidt_from_singular_values(sigmas)
    assert 1.0 - 1e-9 <= k <= len(sigmas) + 1e-9


def test_doubling_gain_quadruples_norm(collinear, pump):
    filt = small_filter()
    est1 = mc_norm(filt, collinear, pump, 20_000, 3)
    est2 = mc_norm(filt, collinear, replace(pump, coupling_g=2 * pump.coupling_g), 20_000, 3)
    assert est2.value == pytest.approx(4 * est1.value, rel=1e-12)


def test_mc_seed_determinism(collinear, pump):
    filt = small_filter()
    a = mc_purity(filt, collinear, pump, 50_000, 42)
    b = mc_purity(filt, collinear, pump, 50_000, 42)
    assert (a.value, a.stderr, a.imag_value) == (b.value, b.stderr, b.imag_value)
    c = mc_purity(filt, collinear, pump, 50_000, 43)
    assert c.value != a.value


def test_uniform_and_pump_samplers_agree(collinear, narrow_pump):
    filt = small_filter()
    u = mc_norm(filt, collinear, narrow_pump, 400_000, 8, sampler="uniform")
    p = mc_norm(filt, collinear, narrow_pump, 400_000, 9, sampler="pump")
    assert abs(u.value - p.value) < 3 * math.hypot(u.stderr, p.stderr)


def test_purity_imaginary_part_vanishes(collinear, narrow_pump):
    est = mc_purity(small_filter(), collinear, narrow_pump, 200_000, 17)
    assert abs(est.imag_value) <= 3 * max(est.imag_stderr, 1e-300)


def test_restricted_kernel_2d_equals_3d_at_zero_frequency(collinear, pump):
    filt = BandwidthFilter(q_max=3e5, omega_max=5e13)
    for qx1, qy1, qx2, qy2 in [(1e5, -2e4, -0.9e5, 1e4), (0.0, 0.0, 0.0, 0.0)]:
        full = restricted_kernel(
            "full3d", (qx1, qy1, 0.0), (qx2, qy2, 0.0), filt, collinear, pump
        )
        flat = restricted_kernel(
            "spatial2d", (qx1, qy1), (qx2, qy2), filt, collinear, pump
        )
        assert full == flat


def test_restricted_kernel_1d_collinear_on_curve_maximum(collinear, pump):
    filt = BandwidthFilter(q_max=3e5, omega_max=2e14, model="temporal1d")
    om = 8e13
    conj = abs(restricted_kernel("temporal1d", (om,), (-om,), filt, collinear, pump))
    off = abs(restricted_kernel("temporal1d", (om,), (0.6 * om,), filt, collinear, pump))
    assert conj > off


def test_restricted_kernel_1d_noncollinear_frozen_coordinate(noncollinear, pump):
    filt = BandwidthFilter(q_max=1.2e6, omega_max=2e14, model="temporal1d")
    kern = build_kernel(filt, noncollinear, pump)
    q_frozen = kern.metadata["frozen_q"]
    assert abs(delta_pw(q_frozen, 0.0, noncollinear)) < 1e-6
    # quadratic-law estimate recorded alongside, within a percent of the root
    assert kern.metadata["frozen_q_taylor"] == pytest.approx(q_frozen, rel=0.01)


def test_kernel_rejects_evanescent_frozen_coordinate(noncollinear, pump):
    filt = BandwidthFilter(q_max=1e5, omega_max=5e13, model="temporal1d",
                           fixed_q_for_1d=2e7)
    with pytest.raises(ValueError, match="evanescent|propagating bound"):
        build_kernel(filt, noncollinear, pump)


def test_svd_oracle_memory_bound():
    with pytest.raises(ValueError, match="try grid_sizes"):
        svd_oracle(BandwidthFilter(1e5, 5e13), None, None, 32, kernel=SyntheticKernel(3, lambda a, b: np.ones(len(a))))


def test_svd_oracle_grid_size_arity(collinear, pump):
    with pytest.raises(ValueError, match="entries"):
        svd_oracle(small_filter(), collinear, pump, (8, 8))


def test_mc_matches_svd_oracle_1d(collinear, narrow_pump):
    # midpoint-grid integrals are converged here (256 vs 512 points moves
    # the pulls by < 0.01 sigma), so the MC stderr is the whole error budget
    filt = small_filter()
    orc = svd_oracle(filt, collinear, narrow_pump, 256)
    est = schmidt_number(filt, collinear, narrow_pump, (200_000, 400_000), 23)
    assert est.ok
    assert abs(est.k_value - orc.k_value) < 3 * est.k_stderr
    assert abs(est.n_value - orc.n_grid) < 3 * est.n_stderr
    assert abs(est.b_value - orc.b_grid) < 3 * est.b_stderr


def test_svd_oracle_invariant_under_fourier_rotation(collinear, narrow_pump):
    # unitary DFT per photon leaves the singular spectrum unchanged
    filt = small_filter()
    kern = build_kernel(filt, collinear, narrow_pump)
    n = 128
    half = filt.half_widths()
    step = 2 * half[0] / n
    axis = -half[0] + (np.arange(n) + 0.5) * step
    W = axis.reshape(-1, 1)
    M = np.empty((n, n), dtype=complex)
    for i in range(n):
        M[i] = kern.evaluate(np.repeat(W[i : i + 1], n, axis=0), W)
    F = np.exp(-2j * math.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
    M_dir = F @ M @ F.T
    s1 = np.linalg.svd(M, compute_uv=False)
    s2 = np.linalg.svd(M_dir, compute_uv=False)
    top = s1 > 1e-9 * s1[0]
    assert np.allclose(s1[top], s2[top], rtol=1e-6)


def test_k1d_monotone_in_bandwidth(collinear, pump):
    ks = []
    for om_max in (5e13, 1.5e14, 3e14):
        filt = BandwidthFilter(q_max=1.2e6, omega_max=om_max, model="temporal1d")
        est = schmidt_number(filt, collinear, pump, (50_000, 300_000), 29)
        assert est.ok
        ks.append(est)
    for lo, hi in zip(ks, ks[1:]):
        assert hi.k_value - lo.k_value > -3 * math.hypot(lo.k_stderr, hi.k_stderr)


def test_physical_kernel_k_at_least_one(collinear, narrow_pump):
    est = schmidt_number(small_filter(), collinear, narrow_pump, (50_000, 200_000), 31)
    assert est.ok
    assert est.k_value >= 1.0 - 3 * est.k_stderr


def test_failed_estimate_is_explicit():
    # an odd kernel makes the B sample mean fluctuate around zero
    odd = SyntheticKernel(1, lambda W1, W2: (W1[:, 0] + W2[:, 0]) + 0j)
    est = schmidt_number(BOX_1D, None, None, (2_000, 10_000), 2,
                         sampler="uniform", kernel=odd)
    assert isinstance(est.ok, bool)
    if not est.ok:
        assert "increase n_samples" in est.message
        assert math.isnan(est.k_value)


def test_sweep_single_cell_matches_direct_call(collinear, pump):
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1e14)
    sweep = bandwidth_sweep([1e14], filt, collinear, pump, (20_000, 60_000), 77)
    root = np.random.SeedSequence(77)
    children = root.spawn(3)
    direct = schmidt_number(
        replace(filt, model="spatial2d"), collinear, pump, (20_000, 60_000),
        children[1],
    )
    assert sweep.k2d[0] == direct.k_value
    assert sweep.k2d_err[0] == direct.k_stderr


def test_sweep_csv_layout_and_determinism(collinear, pump):
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1e14)
    omegas = [5e13, 1e14]
    s1 = bandwidth_sweep(omegas, filt, collinear, pump, (20_000, 60_000), 99)
    s2 = bandwidth_sweep(omegas, filt, collinear, pump, (20_000, 60_000), 99)
    csv1, csv2 = s1.to_csv(), s2.to_csv()
    assert csv1 == csv2
    lines = csv1.strip().split("\n")
    assert lines[0] == (
        "omega_max_hz,k3d,k3d_err,k2d,k2d_err,k1d,k1d_err,kprod,kprod_err"
    )
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 5e13
    assert float(row[7]) == pytest.approx(float(row[3]) * float(row[5]), rel=1e-12)


def test_sweep_requires_sorted_bandwidths(collinear, pump):
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1e14)
    with pytest.raises(ValueError, match="ascending"):
        bandwidth_sweep([2e14, 1e14], filt, collinear, pump, (20_000, 60_000), 1)


def test_sweep_records_failures_and_continues(pump, collinear):
    # a filter violating the window at the largest bandwidth: that cell
    # fails, earlier cells survive
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1e14)
    sweep = bandwidth_sweep([5e13, 2.0e15], filt, collinear, pump,
                            (20_000, 60_000), 5)
    assert len(sweep.failures) >= 1
    assert not math.isnan(sweep.k1d[0])
    assert math.isnan(sweep.k3d[1])


def _failing_schmidt_number(exc):
    real = schmidt.schmidt_number

    def fake(filt, *args, **kwargs):
        if filt.model == "temporal1d":
            raise exc
        return real(filt, *args, **kwargs)

    return fake


def test_sweep_records_value_error_type(monkeypatch, collinear, pump):
    exc = WindowError(4e-6, (0.22e-6, 3.1e-6))
    monkeypatch.setattr(schmidt, "schmidt_number", _failing_schmidt_number(exc))
    filt = BandwidthFilter(q_max=1.2e6, omega_max=5e13)
    sweep = bandwidth_sweep([5e13], filt, collinear, pump, (20_000, 60_000), 5)
    assert sweep.failures == [(0, "temporal1d", f"WindowError: {exc}")]
    assert sweep.estimates[2] is None
    assert math.isnan(sweep.k1d[0])
    assert not math.isnan(sweep.k3d[0])


def test_sweep_propagates_non_domain_errors(monkeypatch, collinear, pump):
    monkeypatch.setattr(
        schmidt, "schmidt_number", _failing_schmidt_number(TypeError("bug"))
    )
    filt = BandwidthFilter(q_max=1.2e6, omega_max=5e13)
    with pytest.raises(TypeError, match="bug"):
        bandwidth_sweep([5e13], filt, collinear, pump, (20_000, 60_000), 5)
