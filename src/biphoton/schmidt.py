"""Schmidt number of the two-photon state by Monte Carlo integration.

K = N^2 / B with

    N = int dw1 dw2 |psi(w1, w2)|^2
    B = int dw1..dw4 psi(w1,w2) psi(w3,w4) psi*(w1,w4) psi*(w3,w2)

evaluated over a rectangular detection box (|q_x|, |q_y| <= q_max,
|Omega| <= omega_max), in the full 3D spatio-temporal model or restricted
2D-spatial / 1D-temporal models.  A dense-grid oracle provides the exact
discretized K for cross-validation, from the Frobenius norms of the
amplitude matrix's mirror-symmetry blocks (their singular values on
request).

Two samplers are available.  "uniform" draws every coordinate uniformly in
the box; it is exact but useless when the kernel support is a vanishing
fraction of the box (broad pumps, wide filters).  "pump" keeps photon-1
coordinates uniform and draws the mode-sum coordinates from Gaussians
matched to the pump spectrum.  Those Gaussians are the pump's own factors,
so the kernel divides them out in closed form (pump_norm_weight,
pump_purity_weight) and evaluates only the pump factor no proposal covers;
the estimator is unbiased and its variance is set by the sinc ridge
occupancy alone.

Streams are numpy PCG64 generators derived through SeedSequence spawning:
one child per fixed-size lane of `batch` samples, and one grandchild per
block of _BLOCK_SAMPLES rows of a lane.  Children are derived by spawn key
without advancing the seed's spawn counter, so a seed object gives the same
streams on every call.  Each block draws its own proposals,
evaluates them and returns one row of sums; block rows are reduced in a
fixed pairwise tree per lane and the lane rows in another.  Blocks run on a
thread pool sized to the process's CPUs, and since no block touches another
block's data, results are bit-reproducible for a given (seed, batch) pair
whatever the worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .correlation import (
    TWO_PI,
    PumpConfig,
    biphoton_envelope_arrays,
    biphoton_fourier_arrays,
    sinc,
)
from .dispersion import CrystalConfig, pump_wavenumber_at, signal_wavenumber
from .phasematch import (
    delta0,
    pair_delta_arrays,
    photon_kz_arrays,
    solve_q_pm,
    taylor_coefficients,
)

# each model's per-photon axes, a transverse wavevector component "q" or the
# frequency offset "omega": box, proposal widths, mirrors and checks follow them
MODEL_AXES = {"full3d": ("q", "q", "omega"), "spatial2d": ("q", "q"), "temporal1d": ("omega",)}
MODELS = tuple(MODEL_AXES)
DEFAULT_BATCH = 1 << 19

MIN_NORM_SAMPLES = 1_000
MIN_PURITY_SAMPLES = 10_000

# samples (or oracle matrix entries) per evaluation block: small enough that
# a block's temporaries stay in cache, large enough to amortize numpy calls
_BLOCK_SAMPLES = 1 << 14

RNG_DESCRIPTION = (
    "numpy PCG64 v2: SeedSequence-spawned lane substreams, each spawning "
    f"one substream per {_BLOCK_SAMPLES}-sample block"
)


def _per_axis(axes, q_value, omega_value):
    """One value per model axis: q_value on each q axis, omega_value on Omega."""
    return np.array([q_value if a == "q" else omega_value for a in axes])


@dataclass(frozen=True)
class BandwidthFilter:
    """Detection box simulating spatial / temporal filters.

    model selects the integration space: full3d keeps (q_x, q_y, Omega) per
    photon, spatial2d keeps (q_x, q_y) with Omega frozen at 0, temporal1d
    keeps Omega with the transverse coordinate frozen at the solved
    |q| = q_pm(0), which is 0 for collinear tuning and the emission-ring
    radius otherwise.
    """

    q_max: float
    omega_max: float
    model: str = "full3d"

    def __post_init__(self):
        if not self.q_max > 0:
            raise ValueError(f"q_max must be > 0, got {self.q_max}")
        if not self.omega_max > 0:
            raise ValueError(f"omega_max must be > 0, got {self.omega_max}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")

    @property
    def dim(self):
        return len(MODEL_AXES[self.model])

    def half_widths(self):
        """Per-dimension half widths of the one-photon box."""
        return _per_axis(MODEL_AXES[self.model], self.q_max, self.omega_max)

    def box_volume(self):
        return float(np.prod(2.0 * self.half_widths()))


class PdcKernel:
    """Biphoton amplitude restricted to a model's coordinate slice.

    evaluate(W1, W2) takes (n, dim) arrays of one-photon coordinates and
    returns the complex amplitude, zero outside the propagating cone.
    intensity and purity_integrand give the Monte Carlo integrands |psi|^2
    and psi(1,2) psi(3,4) psi*(1,4) psi*(3,2) without the per-photon phases,
    which cancel exactly in both (K is invariant under local unitaries).
    pump_norm_weight and pump_purity_weight are those integrands divided by
    the pump sampler's proposal density, with the pump Gaussians the
    proposal matches cancelled in closed form.
    """

    def __init__(self, filter: BandwidthFilter, crystal: CrystalConfig,
                 pump: PumpConfig):
        self.filter = filter
        self.crystal = crystal
        self.pump = pump
        self.model = filter.model
        self.axes = MODEL_AXES[filter.model]
        self.dim = len(self.axes)
        self.metadata = {"model": self.model}
        self._validate_box()
        if self.model == "temporal1d":
            # a root is the height sqrt(k_s^2 - k_p^2 / 4) < k_s: propagating
            q_frozen = solve_q_pm(0.0, crystal)
            if math.isnan(q_frozen):
                q_frozen = 0.0
            d0 = delta0(crystal)
            t = taylor_coefficients(crystal)
            self.metadata["frozen_q"] = q_frozen
            self.metadata["frozen_q_taylor"] = (
                math.sqrt(t.k_s * d0 / crystal.length_lc) if d0 > 0 else 0.0
            )
            self._q_frozen = q_frozen
        elif self.model == "spatial2d":
            self.metadata["frozen_omega"] = 0.0
        # envelope = peak * exp(-|s / sigma|^2 / 4) * sinc, with s the pair's
        # sum coordinate over the model's axes and sigma = proposal_sigmas()
        peak = pump.coupling_g / TWO_PI**1.5 * pump.spectral_norm
        # N(0, sigma) gives |env|^2 / density = peak^2 prod(sqrt(2 pi) sigma)
        # sinc^2, and N(0, sqrt(2) sigma) gives env / density = peak
        # prod(sqrt(2 pi) sqrt(2) sigma) sinc for each of B's three draws
        self._norm_fold = peak**2 * _gauss_norm(self.proposal_sigmas())
        self._purity_fold = (peak * _gauss_norm(self.proposal_sigmas(True))) ** 3

    def _validate_box(self):
        f = self.filter
        # fail at construction rather than mid-sampling: the Omega values
        # the model samples must stay inside the dispersion window and the
        # q reach below the evanescent bound there
        has_omega = "omega" in self.axes
        oms = (-f.omega_max, 0.0, f.omega_max) if has_omega else (0.0,)
        ks_lo = min(float(signal_wavenumber(om, self.crystal)) for om in oms)
        if has_omega:
            for om in (-2 * f.omega_max, 2 * f.omega_max):
                pump_wavenumber_at(om, self.crystal)
        q_reach = f.q_max * math.sqrt(2.0)
        if "q" in self.axes and q_reach >= ks_lo:
            raise ValueError(
                f"filter q reach {q_reach:.4e} rad/m exceeds the propagating "
                f"bound k_s = {ks_lo:.4e} rad/m at the sampled Omega"
            )

    def _expand(self, W):
        """Map model coordinates (n, dim) to (qx, qy, Omega); frozen axes
        come back as 0-d arrays that broadcast against the others."""
        W = np.atleast_2d(np.asarray(W, dtype=float))
        if self.model == "full3d":
            return W[:, 0], W[:, 1], W[:, 2]
        if self.model == "spatial2d":
            return W[:, 0], W[:, 1], np.asarray(0.0)
        return np.asarray(self._q_frozen), np.asarray(0.0), W[:, 0]

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

    def _photon(self, W, second_slot=False):
        """(qx, qy, Omega, k_sz, propagating) of one photon."""
        qx, qy, om = self._expand(W)
        if second_slot and self.model == "temporal1d":
            qx = -qx  # opposite sides of the emission cone, as in evaluate
        kz, ok = photon_kz_arrays(qx, qy, om, self.crystal)
        return qx, qy, om, kz, ok

    def _delta(self, p1, p2):
        """(Delta, k_pz, propagating) of photon p1 in the first slot and p2
        in the second."""
        qx1, qy1, om1, kz1, ok1 = p1
        qx2, qy2, om2, kz2, ok2 = p2
        return pair_delta_arrays(
            qx1, qy1, om1, kz1, qx2, qy2, om2, kz2, ok1 & ok2, self.crystal
        )

    def _pair(self, p1, p2):
        """(real envelope, k_pz) of photon p1 in the first slot and p2 in
        the second."""
        delta, kpz, ok = self._delta(p1, p2)
        env = biphoton_envelope_arrays(*p1[:3], *p2[:3], delta, ok, self.pump)
        return env, kpz

    def _sinc(self, p1, p2):
        """(sinc(Delta/2), zero outside the cone; k_pz) of a pair."""
        delta, kpz, ok = self._delta(p1, p2)
        return np.where(ok, sinc(0.5 * delta), 0.0), kpz

    def intensity(self, W1, W2):
        """|evaluate(W1, W2)|^2: the real envelope squared."""
        env, _ = self._pair(self._photon(W1), self._photon(W2, True))
        return env * env

    def purity_integrand(self, W1, W2, W3, W4):
        """psi(1,2) psi(3,4) psi*(1,4) psi*(3,2) up to per-photon phases.

        The phase of psi(i,j) is (k_pz,ij + k_sz,i + k_sz,j) l_c / 2 plus
        the walk-off term rho (q_ix + q_jx) l_c / 2; every photon appears
        once conjugated and once not, so only the pump terms survive.
        """
        p1, p3 = self._photon(W1), self._photon(W3)
        p2, p4 = self._photon(W2, True), self._photon(W4, True)
        e12, k12 = self._pair(p1, p2)
        e34, k34 = self._pair(p3, p4)
        e14, k14 = self._pair(p1, p4)
        e32, k32 = self._pair(p3, p2)
        return (e12 * e34 * e14 * e32) * self._pump_phase(k12, k34, k14, k32)

    def _pump_phase(self, k12, k34, k14, k32):
        phase = 0.5 * self.crystal.length_lc * ((k12 + k34) - (k14 + k32))
        return np.exp(1j * phase)

    def pump_norm_weight(self, W1, W2, S):
        """intensity(W1, W2) over the density of S = W1 + W2 under
        N(0, proposal_sigmas()).  The squared pump Gaussian at S is that
        density up to a constant, so only sinc^2(Delta/2) is evaluated."""
        s, _ = self._sinc(self._photon(W1), self._photon(W2, True))
        return self._norm_fold * (s * s)

    def pump_purity_weight(self, W1, W2, W3, W4, A, B, C):
        """purity_integrand(W1, W2, W3, W4) over the density of the sums
        A = W1 + W2, B = W1 + W4, C = W3 + W4 under N(0,
        proposal_sigmas(True)) each.  The pumps of pairs (1,2), (1,4) and
        (3,4) are those densities up to a constant; pair (3,2), whose sum is
        A - B + C, keeps its pump."""
        p1, p3 = self._photon(W1), self._photon(W3)
        p2, p4 = self._photon(W2, True), self._photon(W4, True)
        s12, k12 = self._sinc(p1, p2)
        s34, k34 = self._sinc(p3, p4)
        s14, k14 = self._sinc(p1, p4)
        e32, k32 = self._pair(p3, p2)
        return (self._purity_fold * (s12 * s34 * s14 * e32)
                * self._pump_phase(k12, k34, k14, k32))

    @property
    def mirror_axes(self):
        """Model axes along which a joint sign flip of both photons leaves
        matrix_rows unchanged.  The pump, the sinc and k_pz see q only
        through |q_1|, |q_2| and |q_1 + q_2|, so q_x and q_y qualify unless
        the walk-off phase rho (q_1x + q_2x) l_c, odd in q_x (axis 0), is
        on.  Dispersion is not even in Omega, so no Omega axis qualifies."""
        walkoff = self.crystal.pump_walkoff_phase
        return tuple(d for d, a in enumerate(self.axes)
                     if a == "q" and not (walkoff and d == 0))

    def matrix_rows(self, W1, W2):
        """rows(i, j) -> the rows [i, j) of the amplitude matrix
        M[a, b] = psi(W1[a], W2[b]) up to local unitaries: each photon's
        k_sz and walk-off phases are left out, which moves neither K nor
        the singular values.  Per-photon terms are computed once per cell."""
        ph1 = self._photon(W1)
        ph2 = tuple(x[None] if np.ndim(x) else x for x in self._photon(W2, True))

        def rows(i, j):
            p1 = tuple(x[i:j, None] if np.ndim(x) else x for x in ph1)
            env, kpz = self._pair(p1, ph2)
            return env * np.exp(1j * (0.5 * self.crystal.length_lc * kpz))

        return rows

    def proposal_sigmas(self, purity=False):
        """Per-dimension widths of the pump-matched sum-coordinate proposal.

        The norm's sum is drawn with the pump's own Gaussian width; the
        purity's three sums get sqrt(2)-widened Gaussians, which keep the
        weight variance finite.
        """
        sig = _per_axis(self.axes, 1.0 / self.pump.waist, 1.0 / self.pump.duration)
        return sig * math.sqrt(2.0) if purity else sig


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

    def intensity(self, W1, W2):
        a = self.evaluate(W1, W2)
        return a.real**2 + a.imag**2

    def purity_integrand(self, W1, W2, W3, W4):
        return (
            self.evaluate(W1, W2)
            * self.evaluate(W3, W4)
            * np.conj(self.evaluate(W1, W4))
            * np.conj(self.evaluate(W3, W2))
        )

    def pump_norm_weight(self, W1, W2, S):
        return self.intensity(W1, W2) / _gauss_density(S, self.proposal_sigmas())

    def pump_purity_weight(self, W1, W2, W3, W4, A, B, C):
        sig = self.proposal_sigmas(True)
        dens = _gauss_density(A, sig) * _gauss_density(B, sig) * _gauss_density(C, sig)
        return self.purity_integrand(W1, W2, W3, W4) / dens

    # an arbitrary callable declares no symmetry
    mirror_axes = ()

    def matrix_rows(self, W1, W2):
        cols = len(W2)

        def rows(i, j):
            A = np.repeat(W1[i:j], cols, axis=0)
            B = np.tile(W2, (j - i, 1))
            return self.evaluate(A, B).reshape(j - i, cols)

        return rows

    def proposal_sigmas(self, purity=False):
        if self._sigmas is None:
            raise ValueError(
                "synthetic kernel has no pump widths; use sampler='uniform' "
                "or pass sigmas"
            )
        return self._sigmas * math.sqrt(2.0) if purity else self._sigmas


@dataclass(frozen=True)
class McEstimate:
    """One Monte Carlo integral with its standard error and diagnostics.

    accept_frac is the fraction of proposals that land inside the box and
    ess the Kish effective sample size (sum w)^2 / sum w^2 of the real
    sample weights.
    """

    value: float
    stderr: float
    imag_value: float = 0.0
    imag_stderr: float = 0.0
    accept_frac: float = 1.0
    ess: float = 0.0


def _as_seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _children(seq, n):
    """Children 0..n-1 of seq, the streams a first seq.spawn(n) returns,
    derived without advancing seq's spawn counter: one seed object gives
    the same streams on every call."""
    return [np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,),
                                   pool_size=seq.pool_size) for i in range(n)]


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


def _gauss_norm(sigmas):
    """Normalization prod(sqrt(2 pi) sigma) of an axis-aligned Gaussian."""
    return float(np.prod(np.sqrt(2.0 * math.pi) * sigmas))


def _gauss_density(S, sigmas):
    z = S / sigmas
    return np.exp(-0.5 * np.sum(z * z, axis=1)) / _gauss_norm(sigmas)


def _inside(W, half):
    # one compare per column: a reduction over the short inner axis is
    # an order of magnitude slower
    ok = np.abs(W[:, 0]) <= half[0]
    for k in range(1, W.shape[1]):
        ok &= np.abs(W[:, k]) <= half[k]
    return ok


def _worker_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOLS = {}  # worker count -> the process's ThreadPoolExecutor of that size


def _map(fn, items):
    """[fn(x) for x in items], in order.

    With at least two CPUs and two items the calls run on a thread pool
    (numpy releases the GIL inside its array loops), created on first use
    and reused by every later call.  Each call must write only its own
    outputs, so the result does not depend on scheduling.
    """
    items = list(items)
    workers = _worker_count()
    if min(workers, len(items)) < 2:
        return [fn(x) for x in items]
    pool = _POOLS.get(workers)
    if pool is None:
        # imported here: the import costs start-up time of every CLI call
        from concurrent.futures import ThreadPoolExecutor

        pool = _POOLS[workers] = ThreadPoolExecutor(max_workers=workers)
    return list(pool.map(fn, items))  # re-raises a call's exception


def _mc_run(n_samples, seed, batch, block_fn, scale):
    """Run lanes of blocks and reduce their stats in fixed pairwise trees.

    Lane l draws from child l of the seed, and block k of a lane from child
    k of the lane's stream, _BLOCK_SAMPLES rows per block.  block_fn(rng, m)
    draws m proposals from rng and returns their weights (real or complex)
    and how many of them landed inside the box.  Every block reduces its
    weights to one stats row; a lane's rows and then the lanes' rows are
    summed pairwise.
    """
    root = _as_seed_sequence(seed)
    sizes = _lane_sizes(int(n_samples), int(batch))
    blocks, counts = [], []
    for size, child in zip(sizes, _children(root, len(sizes))):
        ms = _lane_sizes(size, _BLOCK_SAMPLES)
        blocks += zip(ms, _children(child, len(ms)))
        counts.append(len(ms))

    def stats(block):
        m, stream = block
        vals, n_in = block_fn(np.random.Generator(np.random.PCG64(stream)), m)
        re = vals.real
        s_im = ss_im = 0.0
        if np.iscomplexobj(vals):
            im = vals.imag
            s_im, ss_im = im.sum(), (im * im).sum()
        return (m, re.sum(), (re * re).sum(), s_im, ss_im, n_in)

    rows = _map(stats, blocks)
    bounds = np.cumsum([0] + counts)
    lanes = [_pairwise_sum(rows[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]
    n, s_re, ss_re, s_im, ss_im, n_in = _pairwise_sum(lanes)
    var_re = max(ss_re - s_re * s_re / n, 0.0) / max(n - 1, 1)
    var_im = max(ss_im - s_im * s_im / n, 0.0) / max(n - 1, 1)
    return McEstimate(
        value=scale * (s_re / n), stderr=scale * math.sqrt(var_re / n),
        imag_value=scale * (s_im / n), imag_stderr=scale * math.sqrt(var_im / n),
        accept_frac=n_in / n, ess=s_re * s_re / ss_re if ss_re > 0 else 0.0,
    )


def mc_norm(filter: BandwidthFilter, crystal: CrystalConfig, pump: PumpConfig,
            n_samples, seed, sampler="pump", kernel=None,
            batch=DEFAULT_BATCH) -> McEstimate:
    """Monte Carlo estimate of N = int dw1 dw2 |psi|^2 over the filter box."""
    if n_samples < MIN_NORM_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_NORM_SAMPLES}")
    kern = kernel if kernel is not None else PdcKernel(filter, crystal, pump)
    half = filter.half_widths()
    if len(half) != kern.dim:
        raise ValueError("filter dimensionality does not match the kernel")
    volume = filter.box_volume()

    if sampler == "uniform":
        scale = volume**2

        def block(rng, m):
            W1 = rng.uniform(-half, half, size=(m, kern.dim))
            W2 = rng.uniform(-half, half, size=(m, kern.dim))
            return kern.intensity(W1, W2), m

    elif sampler == "pump":
        sig = kern.proposal_sigmas()
        scale = volume

        def block(rng, m):
            W1 = rng.uniform(-half, half, size=(m, kern.dim))
            S = rng.normal(0.0, sig, size=(m, kern.dim))
            W2 = S - W1
            ok = _inside(W2, half)
            w = np.where(ok, kern.pump_norm_weight(W1, W2, S), 0.0)
            return w, int(np.count_nonzero(ok))

    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    return _mc_run(n_samples, seed, batch, block, scale)


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
    kern = kernel if kernel is not None else PdcKernel(filter, crystal, pump)
    half = filter.half_widths()
    if len(half) != kern.dim:
        raise ValueError("filter dimensionality does not match the kernel")
    volume = filter.box_volume()

    if sampler == "uniform":
        scale = volume**4

        def block(rng, m):
            Ws = [rng.uniform(-half, half, size=(m, kern.dim)) for _ in range(4)]
            return kern.purity_integrand(*Ws), m

    elif sampler == "pump":
        # sum-coordinate proposal: w2 = a - w1, w4 = b - w1, w3 = w1 - b + c
        # puts all four pump arguments (a, c, b, a - b + c) near the pump peak
        sig = kern.proposal_sigmas(True)
        scale = volume

        def block(rng, m):
            W1 = rng.uniform(-half, half, size=(m, kern.dim))
            A = rng.normal(0.0, sig, size=(m, kern.dim))
            B = rng.normal(0.0, sig, size=(m, kern.dim))
            C = rng.normal(0.0, sig, size=(m, kern.dim))
            W2 = A - W1
            W4 = B - W1
            W3 = W1 - B + C
            ok = _inside(W2, half) & _inside(W3, half) & _inside(W4, half)
            g = kern.pump_purity_weight(W1, W2, W3, W4, A, B, C)
            return np.where(ok, g, 0.0), int(np.count_nonzero(ok))

    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    return _mc_run(n_samples, seed, batch, block, scale)


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
    filter: BandwidthFilter
    ok: bool = True
    message: str = ""
    b_imag: float = 0.0
    b_imag_stderr: float = 0.0
    kernel_metadata: dict = field(default_factory=dict)
    norm_estimate: Optional[McEstimate] = None
    purity_estimate: Optional[McEstimate] = None


def schmidt_number(filter: BandwidthFilter, crystal: CrystalConfig,
                   pump: PumpConfig, n_samples, seed, sampler="pump",
                   kernel=None, batch=DEFAULT_BATCH) -> SchmidtEstimate:
    """Schmidt number from independently seeded norm and purity runs.

    n_samples is the pair (n_norm, n_purity) of sample counts.  A
    non-positive purity estimate flags the result as failed rather than
    raising: it means too few samples for this box.
    """
    n_norm, n_purity = (int(n) for n in n_samples)
    kern = kernel if kernel is not None else PdcKernel(filter, crystal, pump)
    root = _as_seed_sequence(seed)
    seed_n, seed_b = _children(root, 2)
    est_n = mc_norm(filter, crystal, pump, n_norm, seed_n, sampler=sampler,
                    kernel=kern, batch=batch)
    est_b = mc_purity(filter, crystal, pump, n_purity, seed_b, sampler=sampler,
                      kernel=kern, batch=batch)
    common = dict(
        n_value=est_n.value, n_stderr=est_n.stderr,
        b_value=est_b.value, b_stderr=est_b.stderr,
        n_samples_norm=n_norm, n_samples_purity=n_purity, filter=filter,
        b_imag=est_b.imag_value, b_imag_stderr=est_b.imag_stderr,
        kernel_metadata=dict(kern.metadata),
        norm_estimate=est_n, purity_estimate=est_b,
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


_GRAM_BLOCK = 256


def _frobenius_schmidt(*blocks):
    """(K, ||M||_F^2, ||M^H M||_F^2) of an amplitude matrix given as the
    diagonal blocks of a unitarily equivalent block-diagonal form (a single
    block is M itself); no decomposition.

    With s the singular values of M, sum s^2 = ||M||_F^2 and
    sum s^4 = ||M^H M||_F^2, so K = (sum s^2)^2 / sum s^4 follows from two
    norms, each a sum over the blocks.  A block's Gram norm is summed over
    column blocks of the lower triangle of conj(B^H B) = B^T conj(B), which
    has the same norm: the diagonal block once, the rows below it twice.
    Only one block of the Gram matrix and one conjugated column block of B
    are held at a time.
    """
    blocks = [np.asarray(B) for B in blocks]
    n = sum(float(np.vdot(B, B).real) for B in blocks)
    if not n > 0:
        raise ValueError("all singular values vanish")
    b = 0.0
    for B in blocks:
        BT = B.T
        cols = B.shape[1]
        for j0 in range(0, cols, _GRAM_BLOCK):
            j1 = min(j0 + _GRAM_BLOCK, cols)
            Gb = BT[j0:] @ B[:, j0:j1].conj()
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
    """Cell midpoints (k + 1/2 - n/2) * step: exactly antisymmetric, so the
    mirror image of a cell is the bitwise negation of its coordinates."""
    return [(np.arange(n) + (0.5 - n / 2)) * (2.0 * h / n)
            for h, n in zip(half, sizes)]


def _walsh_hadamard(X):
    """X[:, c] -> sum_g (-1)^popcount(c & g) X[:, g] over axis 1 of a
    (rows, 2^r, cols) array, one butterfly level per bit of g."""
    n, size, m = X.shape
    h = 1
    while h < size:
        Y = X.reshape(n, size // (2 * h), 2, h, m)
        a, b = Y[:, :, 0], Y[:, :, 1]
        X = np.stack((a + b, a - b), axis=2).reshape(n, size, m)
        h *= 2
    return X


def svd_oracle(filter: BandwidthFilter, crystal: CrystalConfig,
               pump: PumpConfig, grid_sizes, kernel=None,
               max_cells=4096, spectrum=False) -> SvdOracle:
    """Discretize the amplitude on a midpoint grid and take its exact K.

    grid_sizes is one int per model dimension (or a single int reused).
    The amplitude matrix M[a, b] = psi(cell a, cell b) is never formed.
    The kernel's mirror_axes of even grid size (r of them) are reduced:
    the mirror group g of sign flips maps cells to cells with no fixed
    cell, and M[g a, g b] = M[a, b], so M is unitarily equivalent to 2^r
    blocks B_c[a, b] = sum_g (-1)^popcount(c & g) M[a, g b] over the orbit
    representatives a, b (the cells with negative coordinates on every
    reduced axis).  Only the representatives' rows of M are evaluated,
    against all cells, and turned into the blocks as they are filled.  K,
    n_grid and b_grid come from the blocks' Frobenius norms and those of
    their Gram matrices; spectrum=True also returns the sorted union of the
    blocks' singular values from dense SVDs.  At r = 2 the fill needs 4x
    fewer kernel points, the blocks 4x less memory and the Gram norms 16x
    fewer flops than r = 0, which is the plain dense matrix.  The
    per-photon cell count is capped (the blocks hold cells^2 / 2^r complex
    entries, the norm cost is cells^3 / 4^r and the SVD holds a second
    copy); exceeding it raises with a suggested grid.
    """
    kern = kernel if kernel is not None else PdcKernel(filter, crystal, pump)
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
        raise ValueError(
            f"{cells} cells per photon exceeds the {max_cells}-cell bound; "
            f"try grid_sizes={_largest_grid(max_cells, kern.dim)} per dimension"
        )
    # an odd axis has a cell on its mirror, so it stays unreduced
    mirrors = [d for d in kern.mirror_axes if sizes[d] % 2 == 0]
    axes = [ax[: len(ax) // 2] if d in mirrors else ax
            for d, ax in enumerate(_midpoint_axes(half, sizes))]
    mesh = np.meshgrid(*axes, indexing="ij")
    W = np.stack([m.ravel() for m in mesh], axis=1)
    reps, group = len(W), 1 << len(mirrors)
    # column g * reps + b is cell g b: bit k of g flips axis mirrors[k]
    cols = W
    for d in mirrors:
        flip = np.where(np.arange(kern.dim) == d, -1.0, 1.0)
        cols = np.concatenate((cols, cols * flip))
    cellvol = float(np.prod([2.0 * h / n for h, n in zip(half, sizes)]))

    blocks = np.empty((group, reps, reps), dtype=complex)
    rows = kern.matrix_rows(W, cols)
    step = max(1, _BLOCK_SAMPLES // cells)

    def fill(i):
        j = min(i + step, reps)
        X = _walsh_hadamard(rows(i, j).reshape(j - i, group, reps))
        blocks[:, i:j] = X.swapaxes(0, 1)

    _map(fill, range(0, reps, step))

    k, n, b = _frobenius_schmidt(*blocks)
    sv = None
    if spectrum:
        sv = np.sort(np.concatenate(
            [np.linalg.svd(B, compute_uv=False) for B in blocks]))[::-1]
    return SvdOracle(
        k_value=k,
        n_grid=n * cellvol**2,
        b_grid=b * cellvol**4,
        cell_volume=cellvol,
        grid_sizes=sizes,
        singular_values=sv,
    )


def _largest_grid(max_cells, dim):
    """Largest p with p**dim <= max_cells."""
    p = int(round(max_cells ** (1.0 / dim)))
    while p**dim > max_cells:
        p -= 1
    while (p + 1) ** dim <= max_cells:
        p += 1
    return p


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

    def cell_diagnostics(self) -> list:
        """One Monte Carlo diagnostics record per cell, in cell order
        (i_omega * 3 + model_index); a failed cell keeps only its model and
        omega_max.  b_imag_pull is Im B over its standard error (None when
        that error is 0).  The cells of a model with no Omega axis carry
        shared=True: they all report the one run of row 0."""
        records = []
        for idx, est in enumerate(self.estimates):
            i, j = divmod(idx, len(MODELS))
            rec = {"model": MODELS[j], "omega_max": float(self.omega_max[i])}
            if "omega" not in MODEL_AXES[MODELS[j]]:
                rec["shared"] = True
            if est is not None:
                n, b = est.norm_estimate, est.purity_estimate
                rec.update(
                    n_samples_norm=est.n_samples_norm,
                    n_samples_purity=est.n_samples_purity,
                    accept_frac_norm=n.accept_frac,
                    accept_frac_purity=b.accept_frac,
                    ess_norm=n.ess,
                    ess_purity=b.ess,
                    b_imag_pull=(est.b_imag / est.b_imag_stderr
                                 if est.b_imag_stderr > 0 else None),
                )
            records.append(rec)
        return records


def bandwidth_sweep(omega_max_list: Sequence[float],
                    filter_template: BandwidthFilter, crystal: CrystalConfig,
                    pump: PumpConfig, n_samples, seed,
                    sampler="pump", batch=DEFAULT_BATCH) -> SweepResult:
    """Run schmidt_number for the three models across a bandwidth list.

    Cell sub-seeds are spawned from the root seed by cell index
    (i_omega * 3 + model_index), so any single cell can be reproduced by a
    direct schmidt_number call with the same derived seed.  A model with no
    Omega axis (2D-spatial) does not depend on omega_max: it runs once, as
    row 0's cell, and every row repeats that estimate, error bar and any
    failure.
    """
    omegas = [float(o) for o in omega_max_list]
    if sorted(omegas) != omegas:
        raise ValueError("omega_max_list must be sorted ascending")
    root = _as_seed_sequence(seed)
    children = _children(root, len(omegas) * len(MODELS))
    cols = {m: ([], []) for m in MODELS}
    estimates, failures = [], []
    runs = {}  # (row, model) -> (estimate or None, failure message or None)
    for i in range(len(omegas)):
        for j, model in enumerate(MODELS):
            row = i if "omega" in MODEL_AXES[model] else 0
            if (row, model) not in runs:
                filt = replace(filter_template, model=model, omega_max=omegas[row])
                try:
                    est = schmidt_number(filt, crystal, pump, n_samples,
                                         children[row * len(MODELS) + j],
                                         sampler=sampler, batch=batch)
                    runs[row, model] = (est, None if est.ok else est.message)
                except ValueError as exc:  # domain error: record, keep sweeping
                    runs[row, model] = (None, f"{type(exc).__name__}: {exc}")
            est, message = runs[row, model]
            if message is not None:
                failures.append((i, model, message))
            estimates.append(est)
            # a failed estimate already holds NaN for K and its error
            cols[model][0].append(math.nan if est is None else est.k_value)
            cols[model][1].append(math.nan if est is None else est.k_stderr)

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
    )
