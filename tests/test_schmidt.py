import math
import sys
import tracemalloc
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
    PdcKernel,
    SyntheticKernel,
    bandwidth_sweep,
    mc_norm,
    mc_purity,
    schmidt_from_matrix,
    schmidt_number,
    svd_oracle,
)

BOX_1D = BandwidthFilter(q_max=1.0, omega_max=2.0, model="temporal1d")
CONST = SyntheticKernel(1, lambda W1, W2: np.ones(len(W1)))
GAUSS = SyntheticKernel(1, lambda W1, W2: np.exp(-W1[:, 0] ** 2 - W2[:, 0] ** 2),
                        sigmas=[1.0])


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


def test_rank_one_kernel_pump_sampler():
    # the synthetic kernel divides its integrands by the proposal density
    est = schmidt_number(BOX_1D, None, None, (50_000, 400_000), 11, kernel=GAUSS)
    assert est.ok
    assert abs(est.k_value - 1.0) <= 3 * est.k_stderr


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
    kern = PdcKernel(filt, collinear, narrow_pump)
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


def _crystal(request, config):
    if config == "walkoff":
        return request.getfixturevalue("collinear").replace(pump_walkoff_phase=True)
    return request.getfixturevalue(config)


@pytest.mark.parametrize("model", schmidt.MODELS)
@pytest.mark.parametrize("config", ["collinear", "walkoff", "noncollinear"])
def test_mirror_axes_leave_matrix_rows_unchanged(request, model, config, narrow_pump):
    filt = BandwidthFilter(q_max=1e5, omega_max=5e13, model=model)
    kern = PdcKernel(filt, _crystal(request, config), narrow_pump)
    if model == "temporal1d":
        assert kern.mirror_axes == ()
    else:
        assert kern.mirror_axes == ((1,) if config == "walkoff" else (0, 1))
    half = filt.half_widths()
    rng = np.random.default_rng(5)
    A, B = (rng.uniform(-half, half, size=(40, kern.dim)) for _ in range(2))
    ref = kern.matrix_rows(A, B)(0, len(A))
    assert np.all(ref != 0)
    for d in kern.mirror_axes:
        flip = np.where(np.arange(kern.dim) == d, -1.0, 1.0)
        assert np.array_equal(kern.matrix_rows(A * flip, B * flip)(0, len(A)), ref)
    if config == "walkoff" and model != "temporal1d":
        flip = np.where(np.arange(kern.dim) == 0, -1.0, 1.0)
        moved = kern.matrix_rows(A * flip, B * flip)(0, len(A))
        assert np.max(np.abs(moved - ref)) > 1e-3 * np.max(np.abs(ref))


# even grids reduce two axes (one with walk-off); (5, 6, 4) has an odd q_x
@pytest.mark.parametrize("model, sizes", [
    ("full3d", (4, 6, 5)), ("spatial2d", (12, 12)), ("full3d", (5, 6, 4))])
@pytest.mark.parametrize("walkoff", [False, True])
def test_mirror_block_oracle_matches_dense_reference(collinear, narrow_pump, model,
                                                     sizes, walkoff):
    crystal = collinear.replace(pump_walkoff_phase=walkoff)
    filt = BandwidthFilter(q_max=1e5, omega_max=5e13, model=model)
    kern = PdcKernel(filt, crystal, narrow_pump)
    reduced = [d for d in kern.mirror_axes if sizes[d] % 2 == 0]
    assert len(reduced) == (1 if walkoff or sizes[0] % 2 else 2)
    half = filt.half_widths()
    axes = [-h + (np.arange(n) + 0.5) * 2 * h / n for h, n in zip(half, sizes)]
    W = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    cells = len(W)
    M = kern.evaluate(np.repeat(W, cells, axis=0), np.tile(W, (cells, 1)))
    M = M.reshape(cells, cells)
    k_ref, n_ref, b_ref = _svd_reference(M)
    s_ref = np.linalg.svd(M, compute_uv=False)
    vol = np.prod(2 * half / sizes)

    orc = svd_oracle(filt, crystal, narrow_pump, sizes, spectrum=True)
    assert orc.k_value == pytest.approx(k_ref, rel=1e-10)
    assert orc.n_grid == pytest.approx(n_ref * vol**2, rel=1e-10)
    assert orc.b_grid == pytest.approx(b_ref * vol**4, rel=1e-10)
    assert len(orc.singular_values) == cells
    assert np.all(np.abs(orc.singular_values - s_ref) <= 1e-10 * s_ref[0])


def test_mirror_block_oracle_memory_full3d_14(collinear, narrow_pump):
    # a dense 2744 x 2744 matrix alone is 115 MiB; its four mirror blocks
    # are 29 MiB together (the dense oracle peaked at 147 MiB)
    filt = BandwidthFilter(q_max=1e5, omega_max=5e13, model="full3d")
    tracemalloc.start()
    try:
        svd_oracle(filt, collinear, narrow_pump, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("model, max_cells, grid, suggested", [
    ("temporal1d", 4096, 4097, 4096), ("spatial2d", 4096, 65, 64),
    ("full3d", 4096, 17, 16), ("spatial2d", 1000, 32, 31), ("full3d", 999, 10, 9)])
def test_svd_oracle_suggests_largest_admitted_grid(model, max_cells, grid, suggested):
    filt = BandwidthFilter(1e5, 5e13, model=model)
    assert suggested**filt.dim <= max_cells < (suggested + 1) ** filt.dim
    kern = SyntheticKernel(filt.dim, lambda a, b: np.ones(len(a)))
    with pytest.raises(ValueError, match=f"try grid_sizes={suggested} per"):
        svd_oracle(filt, None, None, grid, kernel=kern, max_cells=max_cells)


def test_schmidt_from_matrix_maximally_entangled_pair():
    m = np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2.0)
    assert schmidt_from_matrix(m) == pytest.approx(2.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30))
def test_schmidt_number_bounds_from_singular_values(sigmas):
    k = schmidt_from_matrix(np.diag(sigmas))
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


def _amplitude(model, w1, w2, filt, crystal, pump):
    """Amplitude of one coordinate pair in the given model's kernel."""
    kern = PdcKernel(replace(filt, model=model), crystal, pump)
    return complex(kern.evaluate([w1], [w2])[0])


def test_restricted_kernel_2d_equals_3d_at_zero_frequency(collinear, pump):
    filt = BandwidthFilter(q_max=3e5, omega_max=5e13)
    for qx1, qy1, qx2, qy2 in [(1e5, -2e4, -0.9e5, 1e4), (0.0, 0.0, 0.0, 0.0)]:
        full = _amplitude(
            "full3d", (qx1, qy1, 0.0), (qx2, qy2, 0.0), filt, collinear, pump
        )
        flat = _amplitude("spatial2d", (qx1, qy1), (qx2, qy2), filt, collinear, pump)
        assert full == flat


def test_restricted_kernel_1d_collinear_on_curve_maximum(collinear, pump):
    filt = BandwidthFilter(q_max=3e5, omega_max=2e14, model="temporal1d")
    om = 8e13
    conj = abs(_amplitude("temporal1d", (om,), (-om,), filt, collinear, pump))
    off = abs(_amplitude("temporal1d", (om,), (0.6 * om,), filt, collinear, pump))
    assert conj > off


def test_restricted_kernel_1d_noncollinear_frozen_coordinate(noncollinear, pump):
    filt = BandwidthFilter(q_max=1.2e6, omega_max=2e14, model="temporal1d")
    kern = PdcKernel(filt, noncollinear, pump)
    q_frozen = kern.metadata["frozen_q"]
    assert abs(delta_pw(q_frozen, 0.0, noncollinear)) < 1e-6
    # quadratic-law estimate recorded alongside, within a percent of the root
    assert kern.metadata["frozen_q_taylor"] == pytest.approx(q_frozen, rel=0.01)


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
    kern = PdcKernel(filt, collinear, narrow_pump)
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
    omegas = [5e13, 1e14]
    sweep = bandwidth_sweep(omegas, filt, collinear, pump, (20_000, 60_000), 77)
    children = np.random.SeedSequence(77).spawn(6)
    for i, om in enumerate(omegas):
        for j, (model, col) in enumerate(zip(schmidt.MODELS, ("k3d", "k2d", "k1d"))):
            # spatial2d has no Omega axis: every row is row 0's cell, child 1
            child = children[1 if model == "spatial2d" else i * 3 + j]
            direct = schmidt_number(
                replace(filt, model=model, omega_max=om), collinear, pump,
                (20_000, 60_000), child,
            )
            assert getattr(sweep, col)[i] == direct.k_value
            assert getattr(sweep, col + "_err")[i] == direct.k_stderr


def test_seed_object_reused_gives_same_bits(collinear, pump):
    # deriving the norm/purity and lane streams leaves the seed object as it
    # was, so a second call with the same child repeats the first
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1e14, model="temporal1d")
    child = np.random.SeedSequence(5).spawn(1)[0]
    first, second = (schmidt_number(filt, collinear, pump, (20_000, 60_000), child)
                     for _ in range(2))
    assert repr(first.k_value) == repr(second.k_value)
    assert repr(first.k_stderr) == repr(second.k_stderr)
    assert child.n_children_spawned == 0


def test_spatial2d_reads_no_omega(collinear, pump):
    # at 2e15 the Omega edge leaves the dispersion window (omega_p / 2 +
    # Omega < 0), which only a model with an Omega axis samples
    PdcKernel(BandwidthFilter(1.2e6, 2e15, "spatial2d"), collinear, pump)
    for model in ("full3d", "temporal1d"):
        with pytest.raises(ValueError):
            PdcKernel(BandwidthFilter(1.2e6, 2e15, model), collinear, pump)
    a, b = (schmidt_number(BandwidthFilter(1.2e6, om, "spatial2d"), collinear, pump,
                           (20_000, 60_000), 3) for om in (5e13, 6e14))
    assert replace(a, filter=None) == replace(b, filter=None)


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


def test_sweep_runs_shared_cell_once_and_repeats_its_failure(monkeypatch, collinear,
                                                             pump):
    exc = WindowError(4e-6, (0.22e-6, 3.1e-6))
    real, calls = schmidt.schmidt_number, []

    def fake(filt, *args, **kwargs):
        if filt.model == "spatial2d":
            calls.append(filt.omega_max)
            raise exc
        return real(filt, *args, **kwargs)

    monkeypatch.setattr(schmidt, "schmidt_number", fake)
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1e14)
    sweep = bandwidth_sweep([5e13, 1e14], filt, collinear, pump, (20_000, 60_000), 5)
    assert calls == [5e13]
    message = f"WindowError: {exc}"
    assert sweep.failures == [(0, "spatial2d", message), (1, "spatial2d", message)]
    assert np.isnan(sweep.k2d).all() and np.isnan(sweep.kprod).all()
    assert not np.isnan(sweep.k3d).any()


def _four_evaluate_product(kern, W1, W2, W3, W4):
    """Reference purity integrand from four full complex kernels."""
    return (
        kern.evaluate(W1, W2)
        * kern.evaluate(W3, W4)
        * np.conj(kern.evaluate(W1, W4))
        * np.conj(kern.evaluate(W3, W2))
    )


@pytest.mark.parametrize("model", schmidt.MODELS)
@pytest.mark.parametrize("config", ["collinear", "walkoff", "noncollinear"])
def test_phase_free_integrands_match_evaluate(request, model, config, narrow_pump):
    # noncollinear temporal1d freezes q at the emission-ring radius (q != 0)
    crystal = _crystal(request, config)
    filt = BandwidthFilter(q_max=1e5, omega_max=5e13, model=model)
    kern = PdcKernel(filt, crystal, narrow_pump)
    if model == "temporal1d" and config == "noncollinear":
        assert kern.metadata["frozen_q"] > 0
    half = filt.half_widths()
    rng = np.random.default_rng(3)
    W1, W2, W3, W4 = (rng.uniform(-half, half, size=(4000, kern.dim)) for _ in range(4))

    ref = _four_evaluate_product(kern, W1, W2, W3, W4)
    fused = kern.purity_integrand(W1, W2, W3, W4)
    assert np.all(ref != 0)
    assert np.all(np.abs(fused - ref) <= 1e-10 * np.abs(ref))

    a = kern.evaluate(W1, W2)
    ref_i = a.real**2 + a.imag**2
    assert kern.intensity(W1, W2).dtype == float
    assert np.all(np.abs(kern.intensity(W1, W2) - ref_i) <= 1e-14 * ref_i)


# ids end in spatial2d's frozen Omega, 0.0, as when it was a parameter
@pytest.mark.parametrize("model", schmidt.MODELS, ids=lambda m: f"{m}-0.0")
@pytest.mark.parametrize("config", ["collinear", "walkoff", "noncollinear"])
def test_folded_pump_weights_match_integrand_over_density(request, model, config,
                                                          pump):
    crystal = _crystal(request, config)
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1e14, model=model)
    kern = PdcKernel(filt, crystal, pump)
    half, dim = filt.half_widths(), kern.dim
    rng = np.random.default_rng(11)
    n = 4000
    W1 = rng.uniform(-half, half, size=(n, dim))
    S = rng.normal(0.0, kern.proposal_sigmas(), size=(n, dim))
    sig = kern.proposal_sigmas(True)
    A, B, C = (rng.normal(0.0, sig, size=(n, dim)) for _ in range(3))
    W2, V2, W4, W3 = S - W1, A - W1, B - W1, W1 - B + C
    if model != "temporal1d":
        # evanescent photons: zero weights in both forms
        W2[:50, 0] = V2[:50, 0] = 2e7
        W3[50:100, 1] = -2e7
    dens = (schmidt._gauss_density(A, sig) * schmidt._gauss_density(B, sig)
            * schmidt._gauss_density(C, sig))
    checks = (
        (kern.intensity(W1, W2) / schmidt._gauss_density(S, kern.proposal_sigmas()),
         kern.pump_norm_weight(W1, W2, S)),
        (kern.purity_integrand(W1, V2, W3, W4) / dens,
         kern.pump_purity_weight(W1, V2, W3, W4, A, B, C)),
    )
    for ref, folded in checks:
        assert np.array_equal(ref == 0, folded == 0)
        assert np.count_nonzero(ref) >= n - 100
        assert np.all(np.abs(folded - ref) <= 1e-12 * np.abs(ref))


def test_pump_lane_memory_stays_block_sized(monkeypatch, collinear, pump):
    # one 2^18-sample lane: the parent's lane-sized draws peaked at 35.6 MiB
    monkeypatch.setattr(schmidt, "_worker_count", lambda: 2)
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1.5e14)
    kern = PdcKernel(filt, collinear, pump)
    tracemalloc.start()
    try:
        mc_purity(filt, collinear, pump, 1 << 18, 3, kernel=kern, batch=1 << 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_phase_free_integrands_vanish_outside_cone(bbo, pump):
    filt = BandwidthFilter(q_max=1e5, omega_max=5e13)
    kern = PdcKernel(filt, bbo, pump)
    inside = np.array([[1e4, 0.0, 1e13]])
    evanescent = np.array([[2e7, 0.0, 0.0]])
    assert kern.intensity(inside, evanescent)[0] == 0.0
    assert kern.purity_integrand(inside, inside, evanescent, inside)[0] == 0.0


def test_synthetic_kernel_integrands():
    W = np.array([[0.3], [-1.1]])
    V = np.array([[0.7], [0.2]])
    kern = SyntheticKernel(1, lambda A, B: np.exp(1j * A[:, 0] - B[:, 0] ** 2))
    a = kern.evaluate(W, V)
    assert np.array_equal(kern.intensity(W, V), a.real**2 + a.imag**2)
    assert np.array_equal(kern.purity_integrand(W, V, V, W),
                          _four_evaluate_product(kern, W, V, V, W))


def test_block_evaluation_independent_of_worker_count(monkeypatch, collinear,
                                                      narrow_pump):
    # one lane of 60000 samples spans four evaluation blocks
    filt = BandwidthFilter(q_max=1.2e6, omega_max=1e14)
    f1 = BandwidthFilter(q_max=1e5, omega_max=5e13, model="temporal1d")
    f3 = BandwidthFilter(q_max=1e5, omega_max=5e13, model="full3d")
    runs = []
    switch = sys.getswitchinterval()
    # 5 workers: more threads than blocks of a lane, and than most hosts'
    # cores, with frequent thread switches
    for workers in (1, 2, 5):
        monkeypatch.setattr(schmidt, "_worker_count", lambda: workers)
        sys.setswitchinterval(1e-5 if workers == 5 else switch)
        try:
            sweep = bandwidth_sweep([5e13, 1.5e14], filt, collinear, narrow_pump,
                                    (20_000, 60_000), 41)
            o1 = svd_oracle(f1, collinear, narrow_pump, 256)  # 4 blocks of rows
            # 8^3: 128 mirror-orbit representative rows, 4 blocks of them
            o3 = svd_oracle(f3, collinear, narrow_pump, 8)
        finally:
            sys.setswitchinterval(switch)
        runs.append((sweep.to_csv().encode(), sweep.cell_diagnostics(),
                     o1.k_value, o3.k_value, o3.n_grid, o3.b_grid))
    assert runs[0] == runs[1] == runs[2]


def test_block_errors_propagate(monkeypatch):
    def fail(W1, W2):
        if np.any(W1[:, 0] > 1.9):
            raise FloatingPointError("bad block")
        return np.ones(len(W1))

    monkeypatch.setattr(schmidt, "_worker_count", lambda: 2)
    with pytest.raises(FloatingPointError, match="bad block"):
        mc_norm(BOX_1D, None, None, 100_000, 3, sampler="uniform",
                kernel=SyntheticKernel(1, fail))


def test_lane_diagnostics_uniform_constant_kernel():
    est = mc_norm(BOX_1D, None, None, 5000, 7, sampler="uniform", kernel=CONST,
                  batch=2048)
    assert est.accept_frac == 1.0
    assert est.ess == pytest.approx(5000, rel=1e-12)


def test_lane_diagnostics_pump_sampler_accept_fraction(collinear, pump):
    filt = small_filter()
    kern = PdcKernel(filt, collinear, pump)
    n, batch = 30_000, 8192
    est = mc_norm(filt, collinear, pump, n, 12, kernel=kern, batch=batch)
    # redraw every block's proposals from the same per-block substreams
    half, sig = filt.half_widths(), kern.proposal_sigmas()
    hits = 0
    for size, child in zip(schmidt._lane_sizes(n, batch),
                           np.random.SeedSequence(12).spawn(4)):
        sizes = schmidt._lane_sizes(size, schmidt._BLOCK_SAMPLES)
        for m, grandchild in zip(sizes, child.spawn(len(sizes))):
            rng = np.random.Generator(np.random.PCG64(grandchild))
            W1 = rng.uniform(-half, half, size=(m, 1))
            S = rng.normal(0.0, sig, size=(m, 1))
            hits += int(np.count_nonzero(np.all(np.abs(S - W1) <= half, axis=1)))
    assert 0 < hits < n
    assert est.accept_frac == hits / n
    assert 0 < est.ess < n
