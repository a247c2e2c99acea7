"""Schmidt number of the two-photon state by Monte Carlo integration.

K = N^2 / B with

    N = int dw1 dw2 |psi(w1, w2)|^2
    B = int dw1..dw4 psi(w1,w2) psi(w3,w4) psi*(w1,w4) psi*(w3,w2)

evaluated over a rectangular detection box (|q_x|, |q_y| <= q_max,
|Omega| <= omega_max), in the full 3D spatio-temporal model or restricted
2D-spatial / 1D-temporal models.  A dense-grid oracle provides the exact
discretized K for cross-validation, from two Frobenius norms of the
amplitude matrix (its singular values on request).

Two samplers are available.  "uniform" draws every coordinate uniformly in
the box; it is exact but useless when the kernel support is a vanishing
fraction of the box (broad pumps, wide filters).  "pump" keeps photon-1
coordinates uniform and draws the mode-sum coordinates from Gaussians
matched to the pump spectrum, dividing out the proposal density, which
leaves an unbiased estimator whose variance is set by the sinc ridge
occupancy alone.  Streams are numpy PCG64 generators derived through
SeedSequence spawning, one per fixed-size lane, reduced in a fixed pairwise
tree, so results are bit-reproducible for a given (seed, batch) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .correlation import PumpConfig, biphoton_fourier_arrays
from .dispersion import CrystalConfig, signal_wavenumber
from .phasematch import delta0, solve_q_pm, taylor_coefficients

MODELS = ("full3d", "spatial2d", "temporal1d")
DEFAULT_BATCH = 1 << 19
RNG_DESCRIPTION = "numpy PCG64, SeedSequence-spawned lane substreams"

MIN_NORM_SAMPLES = 1_000
MIN_PURITY_SAMPLES = 10_000


@dataclass(frozen=True)
class BandwidthFilter:
    """Detection box simulating spatial / temporal filters.

    model selects the integration space: full3d keeps (q_x, q_y, Omega) per
    photon, spatial2d keeps (q_x, q_y) with Omega frozen at
    fixed_omega_for_2d, temporal1d keeps Omega with the transverse
    coordinate frozen at |q| = fixed_q_for_1d (None: solved q_pm(0), which
    is 0 for collinear tuning and the emission-ring radius otherwise).
    """

    q_max: float
    omega_max: float
    model: str = "full3d"
    fixed_q_for_1d: Optional[float] = None
    fixed_omega_for_2d: float = 0.0

    def __post_init__(self):
        if not self.q_max > 0:
            raise ValueError(f"q_max must be > 0, got {self.q_max}")
        if not self.omega_max > 0:
            raise ValueError(f"omega_max must be > 0, got {self.omega_max}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.fixed_q_for_1d is not None and self.fixed_q_for_1d < 0:
            raise ValueError("fixed_q_for_1d must be >= 0")

    @property
    def dim(self):
        return {"full3d": 3, "spatial2d": 2, "temporal1d": 1}[self.model]

    def half_widths(self):
        """Per-dimension half widths of the one-photon box."""
        if self.model == "full3d":
            return np.array([self.q_max, self.q_max, self.omega_max])
        if self.model == "spatial2d":
            return np.array([self.q_max, self.q_max])
        return np.array([self.omega_max])

    def box_volume(self):
        return float(np.prod(2.0 * self.half_widths()))


class PdcKernel:
    """Biphoton amplitude restricted to a model's coordinate slice.

    evaluate(W1, W2) takes (n, dim) arrays of one-photon coordinates and
    returns the complex amplitude, zero outside the propagating cone.
    """

    def __init__(self, filter: BandwidthFilter, crystal: CrystalConfig,
                 pump: PumpConfig):
        self.filter = filter
        self.crystal = crystal
        self.pump = pump
        self.model = filter.model
        self.dim = filter.dim
        self.metadata = {"model": self.model}
        self._validate_box()
        if self.model == "temporal1d":
            if filter.fixed_q_for_1d is not None:
                q_frozen = float(filter.fixed_q_for_1d)
            else:
                q_frozen = solve_q_pm(0.0, crystal)
                if math.isnan(q_frozen):
                    q_frozen = 0.0
            ks0 = float(signal_wavenumber(0.0, crystal))
            if q_frozen >= ks0:
                raise ValueError(
                    f"frozen transverse coordinate {q_frozen:.4e} rad/m is "
                    f"evanescent (k_s = {ks0:.4e} rad/m)"
                )
            d0 = delta0(crystal)
            t = taylor_coefficients(crystal)
            self.metadata["frozen_q"] = q_frozen
            self.metadata["frozen_q_taylor"] = (
                math.sqrt(t.k_s * d0 / crystal.length_lc) if d0 > 0 else 0.0
            )
            self._q_frozen = q_frozen
        elif self.model == "spatial2d":
            self.metadata["frozen_omega"] = float(filter.fixed_omega_for_2d)

    def _validate_box(self):
        f = self.filter
        # fail at construction rather than mid-sampling: the box must stay
        # inside the dispersion window and below the evanescent bound
        for om in (-f.omega_max, 0.0, f.omega_max):
            signal_wavenumber(om, self.crystal)
        from .dispersion import pump_wavenumber_at

        for om in (-2 * f.omega_max, 2 * f.omega_max):
            pump_wavenumber_at(om, self.crystal)
        ks_lo = min(
            float(signal_wavenumber(-f.omega_max, self.crystal)),
            float(signal_wavenumber(f.omega_max, self.crystal)),
        )
        q_reach = f.q_max * (math.sqrt(2.0) if f.model != "temporal1d" else 0.0)
        if f.model == "temporal1d":
            q_reach = self.filter.fixed_q_for_1d or 0.0
        if q_reach >= ks_lo:
            raise ValueError(
                f"filter q reach {q_reach:.4e} rad/m exceeds the propagating "
                f"bound k_s = {ks_lo:.4e} rad/m at the Omega edge"
            )

    def _expand(self, W):
        """Map model coordinates (n, dim) to full (qx, qy, Omega) triples."""
        W = np.atleast_2d(np.asarray(W, dtype=float))
        if self.model == "full3d":
            return W[:, 0], W[:, 1], W[:, 2]
        if self.model == "spatial2d":
            om = np.full(len(W), self.filter.fixed_omega_for_2d)
            return W[:, 0], W[:, 1], om
        zeros = np.zeros(len(W))
        return np.full(len(W), self._q_frozen), zeros, W[:, 0]

    def evaluate(self, W1, W2):
        qx1, qy1, om1 = self._expand(W1)
        qx2, qy2, om2 = self._expand(W2)
        if self.model == "temporal1d":
            # twin photons sit on opposite sides of the emission cone
            qx2 = -qx2
        vals, _ = biphoton_fourier_arrays(
            qx1, qy1, om1, qx2, qy2, om2, self.crystal, self.pump
        )
        return vals

    def proposal_sigmas(self):
        """Per-dimension widths of the pump-matched sum-coordinate proposal."""
        sig_q = 1.0 / self.pump.waist
        sig_om = 1.0 / self.pump.duration
        if self.model == "full3d":
            return np.array([sig_q, sig_q, sig_om])
        if self.model == "spatial2d":
            return np.array([sig_q, sig_q])
        return np.array([sig_om])


class SyntheticKernel:
    """Adapter giving an arbitrary callable the kernel interface (tests,
    synthetic baselines).  fn(W1, W2) -> complex array for (n, dim) inputs."""

    def __init__(self, dim: int, fn: Callable, sigmas=None):
        self.dim = dim
        self._fn = fn
        self._sigmas = None if sigmas is None else np.asarray(sigmas, float)
        self.metadata = {"model": "synthetic"}

    def evaluate(self, W1, W2):
        return np.asarray(
            self._fn(np.atleast_2d(W1), np.atleast_2d(W2)), dtype=complex
        )

    def proposal_sigmas(self):
        if self._sigmas is None:
            raise ValueError(
                "synthetic kernel has no pump widths; use sampler='uniform' "
                "or pass sigmas"
            )
        return self._sigmas


def build_kernel(filter: BandwidthFilter, crystal: CrystalConfig,
                 pump: PumpConfig) -> PdcKernel:
    return PdcKernel(filter, crystal, pump)


def restricted_kernel(model, w1, w2, filter: BandwidthFilter,
                      crystal: CrystalConfig, pump: PumpConfig):
    """Amplitude of one coordinate pair in the given restricted model."""
    filt = replace(filter, model=model)
    kern = build_kernel(filt, crystal, pump)
    W1 = np.atleast_1d(np.asarray(w1, dtype=float)).reshape(1, -1)
    W2 = np.atleast_1d(np.asarray(w2, dtype=float)).reshape(1, -1)
    if W1.shape[1] != kern.dim or W2.shape[1] != kern.dim:
        raise ValueError(
            f"model {model!r} expects {kern.dim} coordinates per photon, "
            f"got {W1.shape[1]} and {W2.shape[1]}"
        )
    return complex(kern.evaluate(W1, W2)[0])


@dataclass(frozen=True)
class McEstimate:
    """One Monte Carlo integral with its standard error and diagnostics."""

    value: float
    stderr: float
    n_samples: int
    sampler: str
    batch: int
    lanes: int
    imag_value: float = 0.0
    imag_stderr: float = 0.0


def _as_seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _lane_sizes(n, batch):
    sizes = [batch] * (n // batch)
    if n % batch:
        sizes.append(n % batch)
    return sizes


def _pairwise_sum(rows):
    """Deterministic pairwise-tree reduction of per-lane stat vectors."""
    items = [np.asarray(r, dtype=float) for r in rows]
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(items[i] + items[i + 1])
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _gauss_density(S, sigmas):
    z = S / sigmas
    norm = np.prod(np.sqrt(2.0 * math.pi) * sigmas)
    return np.exp(-0.5 * np.sum(z * z, axis=1)) / norm


def _inside(W, half):
    return np.all(np.abs(W) <= half, axis=1)


def _mc_run(n_samples, seed, batch, lane_fn):
    """Run lanes, reduce (n, sum_re, sumsq_re, sum_im, sumsq_im), return stats."""
    root = _as_seed_sequence(seed)
    sizes = _lane_sizes(int(n_samples), int(batch))
    children = root.spawn(len(sizes))
    rows = []
    for size, child in zip(sizes, children):
        rng = np.random.Generator(np.random.PCG64(child))
        vals = lane_fn(rng, size)
        re = vals.real
        im = vals.imag
        rows.append(
            (size, re.sum(), (re * re).sum(), im.sum(), (im * im).sum())
        )
    n, s_re, ss_re, s_im, ss_im = _pairwise_sum(rows)
    mean_re = s_re / n
    mean_im = s_im / n
    var_re = max(ss_re - s_re * s_re / n, 0.0) / max(n - 1, 1)
    var_im = max(ss_im - s_im * s_im / n, 0.0) / max(n - 1, 1)
    return mean_re, math.sqrt(var_re / n), mean_im, math.sqrt(var_im / n), len(sizes)


def mc_norm(filter: BandwidthFilter, crystal: CrystalConfig, pump: PumpConfig,
            n_samples, seed, sampler="pump", kernel=None,
            batch=DEFAULT_BATCH) -> McEstimate:
    """Monte Carlo estimate of N = int dw1 dw2 |psi|^2 over the filter box."""
    if n_samples < MIN_NORM_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_NORM_SAMPLES}")
    kern = kernel if kernel is not None else build_kernel(filter, crystal, pump)
    half = filter.half_widths()
    if len(half) != kern.dim:
        raise ValueError("filter dimensionality does not match the kernel")
    volume = filter.box_volume()

    if sampler == "uniform":
        scale = volume**2

        def lane(rng, m):
            W1 = rng.uniform(-half, half, size=(m, kern.dim))
            W2 = rng.uniform(-half, half, size=(m, kern.dim))
            a = kern.evaluate(W1, W2)
            return (a.real**2 + a.imag**2).astype(complex)

    elif sampler == "pump":
        sig = kern.proposal_sigmas()
        scale = volume

        def lane(rng, m):
            W1 = rng.uniform(-half, half, size=(m, kern.dim))
            S = rng.normal(0.0, sig, size=(m, kern.dim))
            W2 = S - W1
            ok = _inside(W2, half)
            a = kern.evaluate(W1, W2)
            f = (a.real**2 + a.imag**2) / _gauss_density(S, sig)
            return np.where(ok, f, 0.0).astype(complex)

    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    mean, err, _, _, lanes = _mc_run(n_samples, seed, batch, lane)
    return McEstimate(
        value=scale * mean, stderr=scale * err, n_samples=int(n_samples),
        sampler=sampler, batch=int(batch), lanes=lanes,
    )


def mc_purity(filter: BandwidthFilter, crystal: CrystalConfig, pump: PumpConfig,
              n_samples, seed, sampler="pump", kernel=None,
              batch=DEFAULT_BATCH) -> McEstimate:
    """Monte Carlo estimate of the purity integral B over the filter box.

    The integrand is complex; its integral is real by exchange symmetry, so
    the real part is the estimate and the imaginary sample mean is kept as a
    consistency diagnostic (must vanish within errors).
    """
    if n_samples < MIN_PURITY_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_PURITY_SAMPLES}")
    kern = kernel if kernel is not None else build_kernel(filter, crystal, pump)
    half = filter.half_widths()
    if len(half) != kern.dim:
        raise ValueError("filter dimensionality does not match the kernel")
    volume = filter.box_volume()

    if sampler == "uniform":
        scale = volume**4

        def lane(rng, m):
            Ws = [rng.uniform(-half, half, size=(m, kern.dim)) for _ in range(4)]
            w1, w2, w3, w4 = Ws
            return (
                kern.evaluate(w1, w2)
                * kern.evaluate(w3, w4)
                * np.conj(kern.evaluate(w1, w4))
                * np.conj(kern.evaluate(w3, w2))
            )

    elif sampler == "pump":
        # sum-coordinate proposal: w2 = a - w1, w4 = b - w1, w3 = w1 - b + c
        # puts all four pump arguments (a, c, b, a - b + c) near the pump
        # peak; sqrt(2)-widened Gaussians keep the weight variance finite.
        sig = kern.proposal_sigmas() * math.sqrt(2.0)
        scale = volume

        def lane(rng, m):
            W1 = rng.uniform(-half, half, size=(m, kern.dim))
            A = rng.normal(0.0, sig, size=(m, kern.dim))
            B = rng.normal(0.0, sig, size=(m, kern.dim))
            C = rng.normal(0.0, sig, size=(m, kern.dim))
            W2 = A - W1
            W4 = B - W1
            W3 = W1 - B + C
            ok = _inside(W2, half) & _inside(W3, half) & _inside(W4, half)
            dens = (
                _gauss_density(A, sig)
                * _gauss_density(B, sig)
                * _gauss_density(C, sig)
            )
            g = (
                kern.evaluate(W1, W2)
                * kern.evaluate(W3, W4)
                * np.conj(kern.evaluate(W1, W4))
                * np.conj(kern.evaluate(W3, W2))
            ) / dens
            return np.where(ok, g, 0.0)

    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    mean, err, im_mean, im_err, lanes = _mc_run(n_samples, seed, batch, lane)
    return McEstimate(
        value=scale * mean, stderr=scale * err, n_samples=int(n_samples),
        sampler=sampler, batch=int(batch), lanes=lanes,
        imag_value=scale * im_mean, imag_stderr=scale * im_err,
    )


@dataclass(frozen=True)
class SchmidtEstimate:
    """K = N^2/B with first-order error propagation and run metadata."""

    n_value: float
    n_stderr: float
    b_value: float
    b_stderr: float
    k_value: float
    k_stderr: float
    n_samples_norm: int
    n_samples_purity: int
    sampler: str
    rng: str
    filter: BandwidthFilter
    ok: bool = True
    message: str = ""
    b_imag: float = 0.0
    b_imag_stderr: float = 0.0
    kernel_metadata: dict = field(default_factory=dict)


def schmidt_number(filter: BandwidthFilter, crystal: CrystalConfig,
                   pump: PumpConfig, n_samples, seed, sampler="pump",
                   kernel=None, batch=DEFAULT_BATCH) -> SchmidtEstimate:
    """Schmidt number from independently seeded norm and purity runs.

    n_samples is the purity sample count; the cheaper norm integral uses a
    tenth of it (floored at the norm minimum).  A tuple (n_norm, n_purity)
    overrides both.  A non-positive purity estimate flags the result as
    failed rather than raising: it means too few samples for this box.
    """
    if isinstance(n_samples, (tuple, list)):
        n_norm, n_purity = int(n_samples[0]), int(n_samples[1])
    else:
        n_purity = int(n_samples)
        n_norm = max(MIN_NORM_SAMPLES, n_purity // 10)
    kern = kernel if kernel is not None else build_kernel(filter, crystal, pump)
    root = _as_seed_sequence(seed)
    seed_n, seed_b = root.spawn(2)
    est_n = mc_norm(filter, crystal, pump, n_norm, seed_n, sampler=sampler,
                    kernel=kern, batch=batch)
    est_b = mc_purity(filter, crystal, pump, n_purity, seed_b, sampler=sampler,
                      kernel=kern, batch=batch)
    common = dict(
        n_value=est_n.value, n_stderr=est_n.stderr,
        b_value=est_b.value, b_stderr=est_b.stderr,
        n_samples_norm=n_norm, n_samples_purity=n_purity,
        sampler=sampler, rng=RNG_DESCRIPTION, filter=filter,
        b_imag=est_b.imag_value, b_imag_stderr=est_b.imag_stderr,
        kernel_metadata=dict(kern.metadata),
    )
    if not est_b.value > 0 or not est_n.value > 0:
        return SchmidtEstimate(
            k_value=math.nan, k_stderr=math.nan, ok=False,
            message="non-positive integral estimate; increase n_samples",
            **common,
        )
    k = est_n.value**2 / est_b.value
    k_err = k * math.sqrt(
        (2.0 * est_n.stderr / est_n.value) ** 2
        + (est_b.stderr / est_b.value) ** 2
    )
    return SchmidtEstimate(k_value=k, k_stderr=k_err, **common)


def schmidt_from_singular_values(sigma):
    """K = (sum s^2)^2 / sum s^4 from a singular-value spectrum."""
    s2 = np.asarray(sigma, dtype=float) ** 2
    total = s2.sum()
    if total <= 0:
        raise ValueError("all singular values vanish")
    return float(total**2 / (s2 * s2).sum())


_GRAM_BLOCK = 256


def _frobenius_schmidt(M):
    """(K, ||M||_F^2, ||M^H M||_F^2) of an amplitude matrix, no decomposition.

    With s the singular values of M, sum s^2 = ||M||_F^2 and
    sum s^4 = ||M^H M||_F^2, so K = (sum s^2)^2 / sum s^4 follows from two
    norms.  The Gram norm is summed over column blocks of the lower triangle
    of conj(M^H M) = M^T conj(M), which has the same norm: the diagonal block
    once, the rows below it twice.  Only one block of the Gram matrix and
    one conjugated column block of M are held at a time.
    """
    M = np.asarray(M)
    n = float(np.vdot(M, M).real)
    if not n > 0:
        raise ValueError("all singular values vanish")
    MT = M.T
    cols = M.shape[1]
    b = 0.0
    for j0 in range(0, cols, _GRAM_BLOCK):
        j1 = min(j0 + _GRAM_BLOCK, cols)
        Gb = MT[j0:] @ M[:, j0:j1].conj()
        diag, below = Gb[: j1 - j0], Gb[j1 - j0 :]
        b += float(np.vdot(diag, diag).real + 2.0 * np.vdot(below, below).real)
    return n * n / b, n, b


def schmidt_from_matrix(M):
    """Schmidt number of a discretized two-photon amplitude matrix."""
    return _frobenius_schmidt(M)[0]


@dataclass(frozen=True)
class SvdOracle:
    """Exact Schmidt data of the grid-discretized amplitude.

    singular_values is None unless the oracle was asked for the spectrum.
    """

    k_value: float
    n_grid: float
    b_grid: float
    cell_volume: float
    grid_sizes: tuple
    singular_values: Optional[np.ndarray] = None


def _midpoint_axes(half, sizes):
    axes = []
    for h, n in zip(half, sizes):
        step = 2.0 * h / n
        axes.append(-h + (np.arange(n) + 0.5) * step)
    return axes


def svd_oracle(filter: BandwidthFilter, crystal: CrystalConfig,
               pump: PumpConfig, grid_sizes, kernel=None,
               max_cells=4096, spectrum=False) -> SvdOracle:
    """Discretize the amplitude on a midpoint grid and take its exact K.

    grid_sizes is one int per model dimension (or a single int reused).
    K, n_grid and b_grid come from the Frobenius norms of the amplitude
    matrix and of its Gram matrix; spectrum=True also returns the singular
    values from a dense SVD.  The per-photon cell count is capped (the
    amplitude matrix is cells^2 complex entries, the norm cost is cells^3
    and the SVD holds a second copy of the matrix); exceeding it raises
    with a suggested grid.
    """
    kern = kernel if kernel is not None else build_kernel(filter, crystal, pump)
    half = filter.half_widths()
    if np.isscalar(grid_sizes):
        sizes = (int(grid_sizes),) * kern.dim
    else:
        sizes = tuple(int(s) for s in grid_sizes)
    if len(sizes) != kern.dim:
        raise ValueError(
            f"grid_sizes needs {kern.dim} entries for model "
            f"{getattr(kern, 'model', '?')!r}, got {len(sizes)}"
        )
    cells = int(np.prod(sizes))
    if cells > max_cells:
        per_dim = int(max_cells ** (1.0 / kern.dim))
        raise ValueError(
            f"{cells} cells per photon exceeds the {max_cells}-cell bound; "
            f"try grid_sizes={per_dim} per dimension"
        )
    axes = _midpoint_axes(half, sizes)
    mesh = np.meshgrid(*axes, indexing="ij")
    W = np.stack([m.ravel() for m in mesh], axis=1)
    cellvol = float(np.prod([2.0 * h / n for h, n in zip(half, sizes)]))

    M = np.empty((cells, cells), dtype=complex)
    block = max(1, int(2e6) // cells)
    for start in range(0, cells, block):
        stop = min(start + block, cells)
        W1 = np.repeat(W[start:stop], cells, axis=0)
        W2 = np.tile(W, (stop - start, 1))
        M[start:stop] = kern.evaluate(W1, W2).reshape(stop - start, cells)

    k, n, b = _frobenius_schmidt(M)
    return SvdOracle(
        k_value=k,
        n_grid=n * cellvol**2,
        b_grid=b * cellvol**4,
        cell_volume=cellvol,
        grid_sizes=sizes,
        singular_values=(
            np.linalg.svd(M, compute_uv=False) if spectrum else None
        ),
    )


@dataclass
class SweepResult:
    """K versus detected bandwidth for the three models plus the 2D x 1D
    product; NaN entries mark failed cells (kept, never fatal)."""

    omega_max: np.ndarray
    k3d: np.ndarray
    k3d_err: np.ndarray
    k2d: np.ndarray
    k2d_err: np.ndarray
    k1d: np.ndarray
    k1d_err: np.ndarray
    kprod: np.ndarray
    kprod_err: np.ndarray
    estimates: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    seed: object = None
    n_samples: object = None
    sampler: str = "pump"

    def to_csv(self) -> str:
        lines = [
            "omega_max_hz,k3d,k3d_err,k2d,k2d_err,k1d,k1d_err,kprod,kprod_err"
        ]
        for i in range(len(self.omega_max)):
            row = [
                self.omega_max[i], self.k3d[i], self.k3d_err[i],
                self.k2d[i], self.k2d_err[i], self.k1d[i], self.k1d_err[i],
                self.kprod[i], self.kprod_err[i],
            ]
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def bandwidth_sweep(omega_max_list: Sequence[float],
                    filter_template: BandwidthFilter, crystal: CrystalConfig,
                    pump: PumpConfig, n_samples, seed,
                    sampler="pump", batch=DEFAULT_BATCH) -> SweepResult:
    """Run schmidt_number for the three models across a bandwidth list.

    Cell sub-seeds are spawned from the root seed by cell index
    (i_omega * 3 + model_index), so any single cell can be reproduced by a
    direct schmidt_number call with the same derived seed.  The 2D-spatial
    model does not depend on omega_max; it is still run per cell so every
    cell carries an independent seed and error bar.
    """
    omegas = [float(o) for o in omega_max_list]
    if sorted(omegas) != omegas:
        raise ValueError("omega_max_list must be sorted ascending")
    root = _as_seed_sequence(seed)
    children = root.spawn(len(omegas) * len(MODELS))
    cols = {m: ([], []) for m in MODELS}
    estimates, failures = [], []
    for i, om in enumerate(omegas):
        for j, model in enumerate(MODELS):
            child = children[i * len(MODELS) + j]
            filt = replace(filter_template, model=model, omega_max=om)
            try:
                est = schmidt_number(
                    filt, crystal, pump, n_samples, child,
                    sampler=sampler, batch=batch,
                )
                if not est.ok:
                    failures.append((i, model, est.message))
            except ValueError as exc:  # domain error: record, keep sweeping
                failures.append((i, model, f"{type(exc).__name__}: {exc}"))
                est = None
            estimates.append(est)
            k, e = (math.nan, math.nan)
            if est is not None and est.ok:
                k, e = est.k_value, est.k_stderr
            cols[model][0].append(k)
            cols[model][1].append(e)

    k3d, k3e = (np.array(c) for c in cols["full3d"])
    k2d, k2e = (np.array(c) for c in cols["spatial2d"])
    k1d, k1e = (np.array(c) for c in cols["temporal1d"])
    kprod = k2d * k1d
    kprod_err = np.sqrt((k2e * k1d) ** 2 + (k2d * k1e) ** 2)
    return SweepResult(
        omega_max=np.array(omegas),
        k3d=k3d, k3d_err=k3e, k2d=k2d, k2d_err=k2e, k1d=k1d, k1d_err=k1e,
        kprod=kprod, kprod_err=kprod_err,
        estimates=estimates, failures=failures,
        seed=seed, n_samples=n_samples, sampler=sampler,
    )
