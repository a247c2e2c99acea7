"""Plane-wave-pump phase matching: mismatch functions, the curve q_pm(Omega),
its Taylor coefficients, collinear tuning and the classical wave-packet
relation between temporal delay and transverse separation of a photon pair.

The dimensionless two-mode mismatch is

    Delta(w1, w2) = [k_sz(w1) + k_sz(w2) - k_pz(w1 + w2)] * l_c

and its symmetric restriction Delta_pw(q, Omega) = Delta(w, -w) defines the
phase-matching curve |q| = q_pm(Omega) as its root in q.  Both the root and
the collinear tuning angle have closed forms, so nothing here iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dispersion import (
    CrystalConfig,
    evaluate_sellmeier,
    group_quantities,
    index_ordinary,
    pump_walkoff_angle,
    pump_wavenumber,
    pump_wavenumber_at,
    signal_wavenumber,
)

#: a phase-matching root is kept only when |Delta_pw| there is at most this
#: (dimensionless).
PM_SOLVER_TOL = 1.0e-6
#: a collinear tuning angle is kept only when |Delta0| there is at most this.
TUNE_TOL = 1.0e-3
#: pm_slope re-solves at Omega -/+ this times |Omega| (at Omega = 0: at 0 and
#: at this times 1e14 rad/s).
PM_SLOPE_REL_STEP = 1e-5


class EvanescentError(ValueError):
    """Transverse wavevector too large for a propagating mode."""

    def __init__(self, q, omega_shift, k):
        self.q = q
        self.omega_shift = omega_shift
        self.k = k
        super().__init__(
            f"evanescent mode: |q| = {q:.6e} rad/m >= k = {k:.6e} rad/m "
            f"at omega_shift = {omega_shift:.6e} rad/s"
        )


class OffCurveError(ValueError):
    """No phase-matching root exists at the requested frequency offset."""


@dataclass(frozen=True)
class FourierCoord:
    """Spatio-temporal Fourier coordinate (qx, qy, Omega) of one photon."""

    qx: float = 0.0
    qy: float = 0.0
    omega_shift: float = 0.0

    @property
    def q2(self):
        return self.qx**2 + self.qy**2

    def __neg__(self):
        return FourierCoord(-self.qx, -self.qy, -self.omega_shift)


@dataclass(frozen=True)
class TaylorCoefficients:
    """Quadratic expansion data of Delta_pw around q = 0, Omega = 0.

    Delta_pw ~= delta0 - q^2 l_c / k_s + gvd * l_c * Omega^2, and the
    collinear correlation asymptote slope is sqrt(k_s * gvd) (only defined
    for gvd > 0; otherwise asymptote_slope is NaN and the raw gvd is kept).
    """

    delta0: float
    k_s: float
    gvd: float
    asymptote_slope: float
    slope_defined: bool


@dataclass(frozen=True)
class ClassicalSeparation:
    """Exit-face temporal delay and transverse separation of a photon pair
    born at depth birth_z with frequency offsets +/- omega_shift."""

    omega_shift: float
    birth_z: float
    delta_t: float  # s, signed
    delta_r: float  # m, >= 0


@dataclass
class PhaseMatchCurve:
    """Sampled phase-matching curve with slopes and regime classification.

    Gaps (no root at a given Omega) are NaN in q_pm and slope.  When the
    sampling hits Omega = 0 in a collinear-tuned configuration the slope is
    double-valued there; the sample is tagged NaN and the one-sided pair is
    stored in kink_slopes as (left, right).
    """

    omega: np.ndarray
    q_pm: np.ndarray
    slope: np.ndarray
    regime: str  # collinear | noncollinear | mixed
    delta0: float
    solver_tol: float = PM_SOLVER_TOL
    kink_slopes: Optional[tuple] = None

    def __len__(self):
        return len(self.omega)

    @property
    def gap_mask(self):
        return np.isnan(self.q_pm)


def delta_pw_arrays(q, omega_shift, config: CrystalConfig):
    """Vectorized Delta_pw(q, Omega); returns (delta, propagating).

    q and omega_shift broadcast against each other; the wavenumbers are
    evaluated on omega_shift's own shape, once per Omega.  Points
    non-propagating at +Omega or -Omega are flagged False and carry
    delta = 0 (the kernel vanishes outside the propagating cone).
    """
    q = np.asarray(q, dtype=float)
    om = np.asarray(omega_shift, dtype=float)
    ks_p = signal_wavenumber(om, config)
    ks_m = signal_wavenumber(-om, config)
    kz_p_sq = ks_p**2 - q**2
    kz_m_sq = ks_m**2 - q**2
    ok = (kz_p_sq > 0) & (kz_m_sq > 0)
    kp = pump_wavenumber(config)
    delta = np.where(
        ok,
        (np.sqrt(np.where(ok, kz_p_sq, 1.0)) + np.sqrt(np.where(ok, kz_m_sq, 1.0)) - kp)
        * config.length_lc,
        0.0,
    )
    return delta, ok


def delta_pw(q, omega_shift, config: CrystalConfig):
    """Symmetric plane-wave-pump mismatch Delta_pw(q, Omega), dimensionless.

    [sqrt(k_s(Omega)^2 - q^2) + sqrt(k_s(-Omega)^2 - q^2) - k_p] * l_c.
    Accepts scalars or arrays; raises EvanescentError if any point is
    non-propagating at either +Omega or -Omega (a NaN q counts as one).
    """
    delta, ok = delta_pw_arrays(q, omega_shift, config)
    if not np.all(ok):
        bad = np.argmax(~np.ravel(ok))
        qb = float(np.ravel(np.broadcast_to(q, ok.shape))[bad])
        om = float(np.ravel(np.broadcast_to(omega_shift, ok.shape))[bad])
        ks = min(signal_wavenumber(om, config), signal_wavenumber(-om, config))
        raise EvanescentError(qb, om, float(ks))
    return float(delta) if delta.ndim == 0 else delta


def delta_full(w1: FourierCoord, w2: FourierCoord, config: CrystalConfig):
    """Full two-mode mismatch Delta(w1, w2), dimensionless.

    Scalar form of delta_full_arrays that raises EvanescentError, naming the
    mode (photon 1, photon 2 or pump) furthest past its propagating cone.
    """
    delta, _, ok = delta_full_arrays(
        w1.qx, w1.qy, w1.omega_shift, w2.qx, w2.qy, w2.omega_shift, config
    )
    if not ok:
        raise evanescent_error(w1, w2, config)
    return float(delta)


def evanescent_error(w1: FourierCoord, w2: FourierCoord, config: CrystalConfig):
    """EvanescentError naming the mode of the pair (photon 1, photon 2 or
    the pump) furthest past its propagating cone."""
    om_p = w1.omega_shift + w2.omega_shift
    modes = [
        (math.sqrt(w.q2), w.omega_shift,
         float(signal_wavenumber(w.omega_shift, config)))
        for w in (w1, w2)
    ]
    modes.append((math.hypot(w1.qx + w2.qx, w1.qy + w2.qy), om_p,
                  float(pump_wavenumber_at(om_p, config))))
    return EvanescentError(*max(modes, key=lambda m: m[0] / m[2]))


def photon_kz_arrays(qx, qy, om, config: CrystalConfig):
    """Per-photon step of Delta: (k_sz, propagating) with
    k_sz = sqrt(k_s(Omega)^2 - q^2); non-propagating entries are flagged
    False and carry an arbitrary finite k_sz."""
    kzsq = signal_wavenumber(om, config) ** 2 - qx**2 - qy**2
    ok = kzsq > 0
    return np.sqrt(np.where(ok, kzsq, 1.0)), ok


def pair_delta_arrays(qx1, qy1, om1, kz1, qx2, qy2, om2, kz2, ok,
                      config: CrystalConfig):
    """Pair step of Delta from two photons' coordinates and k_sz.

    ok is the photons' joint propagating mask.  Returns (delta, kpz,
    propagating) as delta_full_arrays does, walk-off term included.
    """
    kp = pump_wavenumber_at(om1 + om2, config)
    qpx = qx1 + qx2
    qpy = qy1 + qy2
    kpzsq = kp**2 - qpx**2 - qpy**2
    ok = ok & (kpzsq > 0)
    kpz = np.sqrt(np.where(ok, kpzsq, 1.0))
    delta = np.where(ok, (kz1 + kz2 - kpz) * config.length_lc, 0.0)
    if config.pump_walkoff_phase:
        delta = delta + np.where(
            ok, pump_walkoff_angle(config) * qpx * config.length_lc, 0.0
        )
    return delta, np.where(ok, kpz, 0.0), ok


def delta_full_arrays(qx1, qy1, om1, qx2, qy2, om2, config: CrystalConfig):
    """Vectorized Delta(w1, w2) for kernel sampling.

    The pump longitudinal wavevector is evaluated for the extraordinary ray
    at the fixed tuning angle, k_pz = sqrt(k_p(Omega1+Omega2)^2 - |q1+q2|^2).
    With config.pump_walkoff_phase on, the first-order walk-off phase
    rho * (q1x + q2x) * l_c is added (optic axis in the x-z plane).
    Returns (delta, kpz, propagating) where non-propagating entries are
    flagged False and carry delta = 0 (the physical kernel vanishes outside
    the propagating cone, so callers zero them rather than raise).
    """
    qx1, qy1, om1, qx2, qy2, om2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (qx1, qy1, om1, qx2, qy2, om2))
    )
    kz1, ok1 = photon_kz_arrays(qx1, qy1, om1, config)
    kz2, ok2 = photon_kz_arrays(qx2, qy2, om2, config)
    return pair_delta_arrays(qx1, qy1, om1, kz1, qx2, qy2, om2, kz2, ok1 & ok2,
                             config)


def delta0(config: CrystalConfig):
    """Collinear mismatch at degeneracy, Delta_pw(0, 0) = (2 k_s - k_p) l_c."""
    return float(delta_pw(0.0, 0.0, config))


def solve_q_pm(omega_shift, config: CrystalConfig):
    """Root q_pm(Omega) of Delta_pw in closed form; NaN where no root exists.

    With a = k_s(Omega), b = k_s(-Omega) and c = k_p, Delta_pw = 0 reads
    sqrt(a^2 - q^2) + sqrt(b^2 - q^2) = c, so q_pm is the height onto side c
    of the triangle (a, b, c).  It is evaluated with Kahan's stable area
    formula on the sides sorted x >= y >= z.  A root exists when
    a + b >= c (Delta_pw(0, Omega) >= 0) and the foot of the height lies
    inside side c, c^2 > |a^2 - b^2| (at equality the root grazes the
    evanescent bound).  Postcondition: a root with |Delta_pw| >
    PM_SOLVER_TOL becomes NaN.  Accepts scalars or arrays; returns a float
    for scalar input.
    """
    om = np.asarray(omega_shift, dtype=float)
    a = signal_wavenumber(om, config)
    b = signal_wavenumber(-om, config)
    c = pump_wavenumber(config)
    x, y, z = np.sort(np.broadcast_arrays(a, b, c), axis=0)[::-1]
    area4_sq = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    exists = (a + b >= c) & (c * c > np.abs(a * a - b * b))
    # rounding may leave area4_sq slightly negative on a flat triangle
    q = np.where(exists, np.sqrt(np.maximum(area4_sq, 0.0)) / (2.0 * c), np.nan)
    found = ~np.isnan(q)
    resid = delta_pw(q[found], om[found], config)
    q[found] = np.where(np.abs(resid) <= PM_SOLVER_TOL, q[found], np.nan)
    return float(q) if q.ndim == 0 else q


def pm_slope(omega_shift, config: CrystalConfig):
    """dq_pm/dOmega by a symmetric re-solve around omega_shift.

    At omega_shift = 0 the collinear curve has a kink; the right-sided
    slope is returned there (sign convention of the Omega > 0 branch).
    """
    om = float(omega_shift)
    if om == 0.0:
        pts = np.array([0.0, PM_SLOPE_REL_STEP * 1e14])
    else:
        h = abs(om) * PM_SLOPE_REL_STEP
        pts = np.array([om - h, om + h])
    q_lo, q_hi = solve_q_pm(pts, config)
    return float((q_hi - q_lo) / (pts[1] - pts[0]))


def _curve_point_terms(omega_shift, config: CrystalConfig):
    """(q, rate_diff, spread) at a curve point, the building blocks of the
    wave-packet relation: rate_diff = d(Delta_pw)/dOmega / l_c and
    spread = -d(Delta_pw)/dq / l_c, both with the same finite-difference
    k_s' used everywhere else."""
    om = float(omega_shift)
    q = solve_q_pm(om, config)
    if math.isnan(q):
        raise OffCurveError(
            f"no phase-matching root at omega_shift = {om:.6e} rad/s"
        )
    rate = {}
    for sign in (+1, -1):
        s = group_quantities(sign * om, config)
        ksz = math.sqrt(s.k_signal**2 - q**2)
        # 1/(v_g cos(theta)) = k_s' * k_s / k_sz
        rate[sign] = ((1.0 / s.group_velocity) * s.k_signal / ksz, ksz)
    rate_diff = rate[+1][0] - rate[-1][0]
    spread = q * (1.0 / rate[+1][1] + 1.0 / rate[-1][1])
    return q, rate_diff, spread


def pm_slope_implicit(omega_shift, config: CrystalConfig):
    """dq_pm/dOmega from the vanishing total derivative of Delta_pw.

    Along the curve d(Delta_pw)/dOmega + d(Delta_pw)/dq * q_pm' = 0, so the
    slope is the ratio of the partial derivatives evaluated on the curve.
    NaN at omega_shift = 0 where the collinear branch is double-valued.
    """
    q, rate_diff, spread = _curve_point_terms(omega_shift, config)
    if spread == 0.0:
        return math.nan
    return rate_diff / spread


def taylor_coefficients(config: CrystalConfig) -> TaylorCoefficients:
    """Quadratic mismatch expansion data evaluated at degeneracy."""
    sample = group_quantities(0.0, config)
    d0 = delta0(config)
    gvd = sample.gvd
    defined = gvd > 0
    slope = math.sqrt(sample.k_signal * gvd) if defined else math.nan
    return TaylorCoefficients(
        delta0=d0,
        k_s=sample.k_signal,
        gvd=gvd,
        asymptote_slope=slope,
        slope_defined=defined,
    )


def tune_collinear(config: CrystalConfig):
    """Tuning angle where Delta_pw(0, 0) vanishes, or None if none exists.

    k_p(theta) = 2 k_s means n_e(theta, lambda_p) = n_o(lambda_s), and the
    index ellipse gives sin^2(theta) = (n_o(lambda_s)^-2 - n_o(lambda_p)^-2)
    / (n_e(lambda_p)^-2 - n_o(lambda_p)^-2) with principal indices at the
    pump.  None when the crystal has no birefringence at the pump or
    sin^2(theta) falls outside (0, 1); the angle is returned only if
    |Delta0| there is at most TUNE_TOL.
    """
    lam_p_um = config.pump_wavelength * 1e6
    n_s = float(index_ordinary(2 * config.pump_wavelength, config))
    n_o = float(evaluate_sellmeier(config.sellmeier_ordinary, lam_p_um))
    n_e = float(evaluate_sellmeier(config.sellmeier_extraordinary, lam_p_um))
    denom = n_e**-2 - n_o**-2
    if denom == 0.0:
        return None
    sin2 = (n_s**-2 - n_o**-2) / denom
    if not 0.0 < sin2 < 1.0:
        return None
    theta = math.asin(math.sqrt(sin2))
    if abs(delta0(config.replace(tuning_angle=theta))) > TUNE_TOL:
        return None
    return theta


def classical_separation(
    omega_shift, birth_z, config: CrystalConfig
) -> ClassicalSeparation:
    """Wave-packet picture: exit-face delay and transverse separation.

    A pair born at depth z with offsets +/- Omega propagates at the cone
    angles sin(theta(+/-Omega)) = q_pm / k_s with group velocities
    v_g(+/-Omega); the flight-time difference gives delta_t and the summed
    radial excursions give delta_r.  On the curve these satisfy
    delta_t = delta_r * dq_pm/dOmega identically.
    """
    om = float(omega_shift)
    z = float(birth_z)
    if not 0.0 <= z <= config.length_lc:
        raise ValueError(f"birth_z must lie in [0, l_c], got {z}")
    _, rate_diff, spread = _curve_point_terms(om, config)
    rest = config.length_lc - z
    return ClassicalSeparation(
        omega_shift=om,
        birth_z=z,
        delta_t=rest * rate_diff,
        delta_r=rest * spread,
    )


def solve_pm_curve(omega_range, n_samples, config: CrystalConfig) -> PhaseMatchCurve:
    """Sample q_pm over an Omega interval with central-difference slopes.

    Frequencies with no root are kept as NaN gaps.  The regime tag reads the
    quadratic criterion at the range edge: noncollinear when
    delta0 > 10 * gvd * l_c * Omega_edge^2, collinear when |delta0| is below
    a tenth of that scale, mixed otherwise.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    om_lo, om_hi = float(omega_range[0]), float(omega_range[1])
    if not om_lo < om_hi:
        raise ValueError(f"empty omega_range {omega_range}")
    omega = np.linspace(om_lo, om_hi, int(n_samples))
    q = solve_q_pm(omega, config)

    # central where both neighbours are roots, else one-sided, NaN in gaps
    valid = ~np.isnan(q)
    step = np.diff(q) / np.diff(omega)  # NaN across a gap
    left, right = np.r_[np.nan, step], np.r_[step, np.nan]
    central = np.r_[np.nan, (q[2:] - q[:-2]) / (omega[2:] - omega[:-2]), np.nan]
    slope = np.where(np.isnan(central), np.where(np.isnan(right), left, right), central)
    slope[~valid] = np.nan

    d0 = delta0(config)
    coeff = taylor_coefficients(config)
    om_edge = max(abs(om_lo), abs(om_hi))
    scale = coeff.gvd * config.length_lc * om_edge**2
    if d0 > 10.0 * scale:
        regime = "noncollinear"
    elif abs(d0) < 0.1 * scale:
        regime = "collinear"
    else:
        regime = "mixed"

    kink = None
    zero_hits = np.nonzero(omega == 0.0)[0]
    if regime == "collinear" and zero_hits.size:
        i0 = int(zero_hits[0])
        left_s = right_s = math.nan
        if i0 > 0 and valid[i0 - 1] and valid[i0]:
            left_s = (q[i0] - q[i0 - 1]) / (omega[i0] - omega[i0 - 1])
        if i0 < len(omega) - 1 and valid[i0 + 1] and valid[i0]:
            right_s = (q[i0 + 1] - q[i0]) / (omega[i0 + 1] - omega[i0])
        slope[i0] = np.nan
        kink = (left_s, right_s)

    return PhaseMatchCurve(
        omega=omega,
        q_pm=q,
        slope=slope,
        regime=regime,
        delta0=d0,
        kink_slopes=kink,
    )


def curve_to_csv(curve: PhaseMatchCurve) -> str:
    """CSV export `omega_rad_s,q_pm_rad_m,slope_s_m`; gaps as empty fields."""
    lines = ["omega_rad_s,q_pm_rad_m,slope_s_m"]
    for om, q, sl in zip(curve.omega, curve.q_pm, curve.slope):
        q_s = "" if math.isnan(q) else repr(float(q))
        sl_s = "" if math.isnan(sl) else repr(float(sl))
        lines.append(f"{float(om)!r},{q_s},{sl_s}")
    return "\n".join(lines) + "\n"
