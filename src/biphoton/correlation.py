"""Biphoton amplitude in the Fourier domain and the direct-domain correlation.

The plane-wave-pump correlation is synthesized by a discrete Fourier
transform of the kernel g * sinc(Delta_pw/2) * exp(i Delta_pw/2) over
(q_x, Omega), with the sign convention w.xi = q.r - Omega*t, i.e.

    psi_pw(dx, dt) = (2 pi)^-d  integral  f(q, Omega) e^{i q dx} e^{-i Omega dt}

Grids are fftshift-centered with even n and the zero bin at index n/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .dispersion import CrystalConfig, signal_wavenumber
from .phasematch import (
    FourierCoord,
    delta_full_arrays,
    delta_pw_arrays,
    evanescent_error,
    solve_q_pm,
    taylor_coefficients,
)

TWO_PI = 2.0 * math.pi
#: default_q_extent sizes the direct window to span this many arm reaches.
MAP_WINDOW_REACHES = 2.2
#: ridge_fit needs at least this many ridge points per time branch.
RIDGE_MIN_POINTS = 8


@dataclass(frozen=True)
class PumpConfig:
    """Gaussian pump pulse driving the down-conversion.

    coupling_g is the dimensionless gain (susceptibility x peak amplitude x
    crystal length).  waist is the 1/e^2 intensity radius (m) and duration
    the matching half-width (s) of the field envelope
    exp(-r^2/waist^2 - t^2/duration^2), normalized to 1 at the origin, whose
    spectral amplitude is proportional to
    exp(-q^2 waist^2 / 4 - Omega^2 duration^2 / 4).
    """

    coupling_g: float = 1e-3
    waist: float = 600e-6
    duration: float = 1e-12

    def __post_init__(self):
        if not self.coupling_g > 0:
            raise ValueError(f"coupling_g must be > 0, got {self.coupling_g}")
        if not self.waist > 0:
            raise ValueError(f"waist must be > 0, got {self.waist}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")

    @property
    def spectral_norm(self):
        """Prefactor of the unit-peak pump's spectral amplitude, m^2 s."""
        return self.waist**2 * self.duration / 2**1.5


def sinc(x):
    """sin(x)/x with sinc(0) = 1; series below |x| = 1e-4 to dodge cancellation."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.sin(x) / x)
    small = np.abs(x) < 1e-4
    x2 = x[small] * x[small]
    out[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return float(out) if out.ndim == 0 else out


def pump_spectral_amplitude(q, omega, pump: PumpConfig):
    """Gaussian pump spectrum at transverse |q| and frequency offset Omega."""
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    out = pump.spectral_norm * np.exp(
        -(q**2) * pump.waist**2 / 4.0 - omega**2 * pump.duration**2 / 4.0
    )
    return float(out) if out.ndim == 0 else out


def biphoton_envelope_arrays(qx1, qy1, om1, qx2, qy2, om2, delta, ok,
                             pump: PumpConfig):
    """Real envelope of the biphoton amplitude,
    g / (2 pi)^1.5 * pump(|q1 + q2|, Omega1 + Omega2) * sinc(Delta/2),
    zero where ok is False.  The amplitude is this times the unit phase
    exp(i (k_pz l_c + Delta/2))."""
    qsum = np.hypot(np.asarray(qx1, float) + qx2, np.asarray(qy1, float) + qy2)
    omsum = np.asarray(om1, dtype=float) + om2
    env = (
        pump.coupling_g
        / TWO_PI**1.5
        * pump_spectral_amplitude(qsum, omsum, pump)
        * sinc(0.5 * delta)
    )
    return np.where(ok, env, 0.0)


def biphoton_fourier_arrays(qx1, qy1, om1, qx2, qy2, om2,
                            crystal: CrystalConfig, pump: PumpConfig):
    """Vectorized biphoton amplitude; returns (values, propagating_mask).

    Non-propagating coordinates carry value 0 rather than raising, matching
    the physical cutoff of the emission cone.
    """
    delta, kpz, ok = delta_full_arrays(qx1, qy1, om1, qx2, qy2, om2, crystal)
    env = biphoton_envelope_arrays(qx1, qy1, om1, qx2, qy2, om2, delta, ok, pump)
    return env * np.exp(1j * (kpz * crystal.length_lc + 0.5 * delta)), ok


def biphoton_fourier(w1: FourierCoord, w2: FourierCoord,
                     crystal: CrystalConfig, pump: PumpConfig):
    """Biphoton amplitude for one pair of Fourier modes.

    Scalar form of biphoton_fourier_arrays that raises EvanescentError,
    naming the mode (photon 1, photon 2 or pump) furthest past its
    propagating cone.
    """
    val, ok = biphoton_fourier_arrays(
        w1.qx, w1.qy, w1.omega_shift, w2.qx, w2.qy, w2.omega_shift, crystal, pump
    )
    if not ok:
        raise evanescent_error(w1, w2, crystal)
    return complex(val)


def pw_kernel_values(q, omega_shift, crystal: CrystalConfig, g):
    """Plane-wave-pump kernel g * sinc(Delta_pw/2) e^{i Delta_pw/2} on
    broadcast (|q|, Omega); returns (values, propagating_mask).

    Evanescent points carry 0: outside the propagating cone the kernel
    vanishes by physical cutoff.
    """
    delta, ok = delta_pw_arrays(q, omega_shift, crystal)
    # in place: each kernel-sized temporary adds to the map's peak memory
    vals = np.asarray(np.exp(1j * 0.5 * delta))
    vals *= g * sinc(0.5 * delta)
    vals[~ok] = 0.0
    return vals, ok


@dataclass(frozen=True)
class SpectralGrid:
    """Centered (q, Omega) sampling grid; optionally carries a q_y axis.

    Axes are fftshift-style: n even, spacing d, points (i - n/2) * d, so the
    zero bin sits at index n/2 and the conjugate axes follow the DFT
    reciprocity d_conj = 2 pi / (n * d).
    """

    qx: np.ndarray
    omega: np.ndarray
    qy: Optional[np.ndarray] = None

    def __post_init__(self):
        for name, ax in (("qx", self.qx), ("omega", self.omega), ("qy", self.qy)):
            if ax is None:
                continue
            ax = np.asarray(ax, dtype=float)
            object.__setattr__(self, name, ax)
            n = len(ax)
            if n < 2 or n % 2 != 0:
                raise ValueError(f"{name} axis must have even length >= 2, got {n}")
            d = ax[1] - ax[0]
            if not d > 0:
                raise ValueError(f"{name} spacing must be positive")
            if abs(ax[n // 2]) > 1e-9 * d:
                raise ValueError(f"{name} axis must have its zero bin at index n/2")

    @classmethod
    def centered(cls, n_q, q_extent, n_omega, omega_extent, with_qy=False):
        qx = (np.arange(n_q) - n_q // 2) * (2.0 * q_extent / n_q)
        om = (np.arange(n_omega) - n_omega // 2) * (2.0 * omega_extent / n_omega)
        return cls(qx=qx, omega=om, qy=qx.copy() if with_qy else None)

    @property
    def dq(self):
        return float(self.qx[1] - self.qx[0])

    @property
    def domega(self):
        return float(self.omega[1] - self.omega[0])

    @property
    def n_q(self):
        return len(self.qx)

    @property
    def n_omega(self):
        return len(self.omega)


def _curve_edge(crystal: CrystalConfig, omega_edge: float):
    """q_pm at the grid's Omega edge, falling back to the quadratic law."""
    q_edge = solve_q_pm(omega_edge, crystal)
    if math.isnan(q_edge) or q_edge <= 0:
        t = taylor_coefficients(crystal)
        q_edge = math.sqrt(
            max(t.delta0, 0.0) * t.k_s / crystal.length_lc
            + max(t.gvd, 0.0) * t.k_s * omega_edge**2
        )
    return q_edge


def arm_reach(crystal: CrystalConfig, omega_edge: float):
    """Largest transverse pair separation the crystal geometry allows.

    A pair born at the entrance face with offsets +/- omega_edge separates
    by l_c * q_pm * (1/k_sz(+) + 1/k_sz(-)) by the exit face; nothing in the
    direct-domain correlation extends beyond this, so it sets the useful
    map window and the ridge-fit range.
    """
    q = _curve_edge(crystal, omega_edge)
    if q <= 0:
        return 0.0
    ks_p = float(signal_wavenumber(omega_edge, crystal))
    ks_m = float(signal_wavenumber(-omega_edge, crystal))
    return crystal.length_lc * q * (
        1.0 / math.sqrt(ks_p**2 - q**2) + 1.0 / math.sqrt(ks_m**2 - q**2)
    )


def default_q_extent(crystal: CrystalConfig, omega_extent: float, n_q=1024):
    """q half-extent covering the ridge and sizing the direct window.

    The extent is the larger of twice the curve reach at the Omega edge
    (full ridge inside the grid) and the value that makes the conjugate
    window span MAP_WINDOW_REACHES arm reaches (so the physical correlation
    fills a useful fraction of the map instead of a few central columns).
    """
    q_edge = _curve_edge(crystal, omega_extent)
    if q_edge <= 0:
        raise ValueError("cannot infer a q extent: phase-matching curve is empty")
    reach = arm_reach(crystal, omega_extent)
    q_window = (n_q / 2) * math.pi / (MAP_WINDOW_REACHES * reach) if reach > 0 else 0.0
    return max(2.0 * q_edge, q_window)


@dataclass
class CorrelationMap:
    """Direct-domain correlation |psi_pw| sampled on (delta_x, delta_t)."""

    delta_x: np.ndarray  # m
    delta_t: np.ndarray  # s
    psi: np.ndarray  # complex, shape (n_q, n_omega)
    mode: str  # slice2d | full3d
    grid: SpectralGrid
    crystal: CrystalConfig
    warnings: list = field(default_factory=list)
    evanescent_cells: int = 0

    @cached_property
    def intensity(self):
        """|psi|^2, computed on first use and kept."""
        return np.abs(self.psi) ** 2


def synthesize_map(kernel_values, grid: SpectralGrid, mode, crystal,
                   warnings=None, evanescent_cells=0) -> CorrelationMap:
    """Fourier-synthesize a correlation map from kernel values on (q_x, Omega).

    kernel_values has shape (n_q, n_omega); the transform runs with e^{+i}
    along q_x and e^{-i} along Omega on the fftshift-centered axes.  mode
    (slice2d | full3d) only labels the map: correlation_map hands full3d in
    already summed over q_y.
    """
    if mode not in ("slice2d", "full3d"):
        raise ValueError(f"unknown mode {mode!r}")
    n_q, n_om = grid.n_q, grid.n_omega
    if np.shape(kernel_values) != (n_q, n_om):
        raise ValueError(
            f"kernel_values must have shape {(n_q, n_om)}, got {np.shape(kernel_values)}"
        )
    ddx = TWO_PI / (n_q * grid.dq)
    ddt = TWO_PI / (n_om * grid.domega)
    delta_x = (np.arange(n_q) - n_q // 2) * ddx
    delta_t = (np.arange(n_om) - n_om // 2) * ddt
    psi = np.fft.ifft(np.fft.ifftshift(kernel_values), axis=0)
    psi *= n_q
    psi = np.fft.fft(psi, axis=1)  # a statement of its own, so the ifft output
    psi = np.fft.fftshift(psi)     # is freed before fftshift copies
    psi *= grid.dq * grid.domega / TWO_PI**2
    return CorrelationMap(
        delta_x=delta_x,
        delta_t=delta_t,
        psi=psi,
        mode=mode,
        grid=grid,
        crystal=crystal,
        warnings=list(warnings or []),
        evanescent_cells=evanescent_cells,
    )


def _resolution_warning(grid: SpectralGrid, crystal: CrystalConfig):
    """>= 4 samples across the central sinc lobe at the Omega edge, else warn."""
    om_edge = float(np.max(np.abs(grid.omega)))
    q_edge = solve_q_pm(om_edge, crystal)
    if math.isnan(q_edge) or q_edge == 0.0:
        return None
    # d Delta_pw / dq at the root is the arm reach: l_c q (1/k_z+ + 1/k_z-)
    lobe = 4.0 * math.pi / arm_reach(crystal, om_edge)
    samples = lobe / grid.dq
    if samples < 4.0:
        return (
            f"sinc ridge under-resolved at the Omega edge: {samples:.2f} "
            f"samples across the central lobe (need >= 4); refine the q axis"
        )
    return None


def correlation_map(grid: SpectralGrid, crystal: CrystalConfig,
                    pump: PumpConfig, mode="slice2d") -> CorrelationMap:
    """Correlation map of the plane-wave-pump kernel over the given grid.

    slice2d transforms the (q_x, Omega) section at q_y = 0, which contains
    the full X / cigar geometry.  full3d returns the delta_y = 0 plane of
    the (q_x, q_y, Omega) transform: at delta_y = 0 the q_y integral acts on
    the kernel alone, so the kernel summed over q_y (times dq_y / 2 pi) goes
    through the same 2D transform, one q_y row at a time and never as a
    cube.  The kernel depends on q only through |q|, so both modes evaluate
    it once per distinct |q_x| and copy each row to its sign mirror; full3d
    also evaluates each distinct |q_y| once and weights it by its
    multiplicity.  Amplitudes approximate the continuous transform (kernel
    sums are scaled by dq dOmega / (2 pi)^d).
    """
    warn = _resolution_warning(grid, crystal)
    warnings = [warn] if warn else []
    g = pump.coupling_g
    om = grid.omega[None, :]
    # |q_x| rows: inv maps each signed q_x to its row, mult counts its mirrors
    qx_abs, inv, mult = np.unique(np.abs(grid.qx), return_inverse=True,
                                  return_counts=True)
    if mode == "slice2d":
        kern, ok = pw_kernel_values(qx_abs[:, None], om, crystal, g)
        n_evan = int(mult @ np.count_nonzero(~ok, axis=1))
    elif mode == "full3d":
        if grid.qy is None:
            raise ValueError("full3d mode needs a grid with a qy axis")
        kern = np.zeros((len(qx_abs), grid.n_omega), dtype=complex)
        n_evan = 0
        for qy, count in zip(*np.unique(np.abs(grid.qy), return_counts=True)):
            row, ok = pw_kernel_values(np.hypot(qx_abs, qy)[:, None], om, crystal, g)
            kern += count * row
            n_evan += int(count) * int(mult @ np.count_nonzero(~ok, axis=1))
        kern *= float(grid.qy[1] - grid.qy[0]) / TWO_PI
    else:
        raise ValueError(f"unknown mode {mode!r}")
    kern = kern[inv]  # rebinding frees the |q_x| rows before the transform
    return synthesize_map(
        kern, grid, mode, crystal, warnings=warnings, evanescent_cells=n_evan
    )


def factorized_correlation(xi_mean, xi_diff, cmap: CorrelationMap,
                           pump: PumpConfig):
    """Finite-pump correlation psi(xi, xi') = A_p(mean) * psi_pw(diff).

    xi_mean = (r_mean, t_mean) enters through the Gaussian pump envelope
    modulus (linear propagation phase dropped); xi_diff = (dx, dt) is
    bilinearly interpolated on the map.  Off-map xi_diff is a domain error.
    """
    r_mean, t_mean = xi_mean
    dx, dt = xi_diff
    x_ax, t_ax = cmap.delta_x, cmap.delta_t
    if not (x_ax[0] <= dx <= x_ax[-1]) or not (t_ax[0] <= dt <= t_ax[-1]):
        raise ValueError(
            f"xi_diff {(dx, dt)} outside map axes "
            f"[{x_ax[0]:.3e}, {x_ax[-1]:.3e}] x [{t_ax[0]:.3e}, {t_ax[-1]:.3e}]"
        )
    ix = min(int((dx - x_ax[0]) / (x_ax[1] - x_ax[0])), len(x_ax) - 2)
    it = min(int((dt - t_ax[0]) / (t_ax[1] - t_ax[0])), len(t_ax) - 2)
    fx = (dx - x_ax[ix]) / (x_ax[1] - x_ax[0])
    ft = (dt - t_ax[it]) / (t_ax[1] - t_ax[0])
    p = cmap.psi
    interp = (
        p[ix, it] * (1 - fx) * (1 - ft)
        + p[ix + 1, it] * fx * (1 - ft)
        + p[ix, it + 1] * (1 - fx) * ft
        + p[ix + 1, it + 1] * fx * ft
    )
    envelope = math.exp(
        -(r_mean**2) / pump.waist**2 - t_mean**2 / pump.duration**2
    )
    return envelope * interp


@dataclass(frozen=True)
class RidgeFit:
    """Least-squares slopes of the two intensity ridges of a correlation map.

    flat marks a sufficient fit whose locus moves by less than one delta_t
    step across the fit window: a map without X arms (the non-collinear
    cigar), not a slope to compare with the prediction.
    """

    slope_plus: float  # s/m
    slope_minus: float  # s/m
    residual: float  # rms of the fit, s
    n_plus: int
    n_minus: int
    sufficient: bool
    reason: str = ""
    flat: bool = False


def _refine_peak(intensity, axis, i):
    """Parabolic sub-bin refinement of an argmax position, saturated at
    half a bin (the three-point fit is only trusted within its own cell)."""
    if 0 < i < len(axis) - 1:
        a, b, c = intensity[i - 1], intensity[i], intensity[i + 1]
        denom = a - 2 * b + c
        if denom < 0:
            shift = min(0.5, max(-0.5, 0.5 * (a - c) / denom))
            return axis[i] + shift * (axis[1] - axis[0])
    return axis[i]


def ridge_window(cmap: CorrelationMap, core_exclusion=None, outer_limit=None):
    """(r_core, r_out]: the delta_x range whose columns ridge_fit uses.

    The defaults bracket the bright, straight part of the arms, [0.10, 0.42]
    of the geometric arm reach: beyond ~half the reach only entrance-face
    births contribute and the peak locus droops.
    """
    x_max = float(cmap.delta_x[-1])
    reach = arm_reach(cmap.crystal, float(np.max(np.abs(cmap.grid.omega))))
    if core_exclusion is None:
        core_exclusion = 0.10 * reach if reach > 0 else 0.05 * x_max
    if outer_limit is None:
        outer_limit = 0.42 * reach if reach > 0 else 0.45 * x_max
    return float(core_exclusion), min(float(outer_limit), 0.95 * x_max)


def ridge_fit(cmap: CorrelationMap, core_exclusion=None,
              outer_limit=None) -> RidgeFit:
    """Fit straight lines through the |psi_pw|^2 maxima of each time branch.

    Columns between the core-exclusion radius and the outer limit contribute
    one peak in delta_t > 0 and one in delta_t < 0; each branch gets an
    unweighted least-squares line whose intercept absorbs the constant
    diffraction offset of the arm profile (columns from ridge_window).  The
    map's reflection symmetry makes delta_x < 0 columns redundant, so only
    the positive side is used.
    """
    x = cmap.delta_x
    t = cmap.delta_t
    inten = cmap.intensity
    r_core, r_out = ridge_window(cmap, core_exclusion, outer_limit)
    cols = np.nonzero((x > r_core) & (x <= r_out))[0]
    pos = t > 0
    neg = t < 0
    pts_plus, pts_minus = [], []
    for ic in cols:
        col = inten[ic]
        ip = np.argmax(col[pos])
        im = np.argmax(col[neg])
        idx_p = np.nonzero(pos)[0][ip]
        idx_m = np.nonzero(neg)[0][im]
        if col[idx_p] > 0:
            pts_plus.append((x[ic], _refine_peak(col, t, idx_p)))
        if col[idx_m] > 0:
            pts_minus.append((x[ic], _refine_peak(col, t, idx_m)))
    if min(len(pts_plus), len(pts_minus)) < RIDGE_MIN_POINTS:
        return RidgeFit(
            math.nan, math.nan, math.nan, len(pts_plus), len(pts_minus),
            sufficient=False,
            reason=f"fewer than {RIDGE_MIN_POINTS} ridge points per branch",
        )
    out = []
    resid = 0.0
    for pts in (pts_plus, pts_minus):
        xa = np.array([p[0] for p in pts])
        ta = np.array([p[1] for p in pts])
        coef = np.polyfit(xa, ta, 1)
        out.append(coef[0])
        resid += float(np.mean((np.polyval(coef, xa) - ta) ** 2))
    drift = max(abs(out[0]), abs(out[1])) * (r_out - r_core)
    return RidgeFit(
        slope_plus=out[0],
        slope_minus=out[1],
        residual=math.sqrt(resid / 2.0),
        n_plus=len(pts_plus),
        n_minus=len(pts_minus),
        sufficient=True,
        flat=bool(drift < t[1] - t[0]),
    )
