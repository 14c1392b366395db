"""Self-check suite behind the `verify` subcommand.

Each check exercises one structural invariant of the dispersive updaters
against an independent reference and reports PASS / FAIL / SKIP with a
one-line detail.

Five checks run on the grid's own pole matrix (fdtd.pole_matrix of one
pole, its current at the bank's scale dt/(eps0 eps_inf)), stepped as
fdtd._PoleBank.advance steps it, each drive sequence a column of one
np.dot: recurrence-vs-direct-sum (`tgm`'s P, read through
greens.polarization_row), steady-state (the fixed point (I - A)^-1 b of
both methods), non-amplification (the spectral radius of both methods'
block A), ade-fixed-point (one `adem` step, current row included) and
temporal-convergence-order (`tgm`).  conjugacy and realness read the
build's gate: the branch residuals (greens.branch_residuals) that
greens.check_branch_symmetry vouches for before greens.tgm_block folds
each pole into real rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import greens, oracle
from .config import load_table1
from .constants import EPS0
from .fdtd import pole_matrix

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SKIP)


def _step(mat, drives):
    """Step the pole matrix `mat` as fdtd._PoleBank.advance does, one
    np.dot on an (m+1, S) buffer per sample: `drives` is (n, S), row k
    holding E^k of each of the S drive sequences.  Returns the (n, m, S)
    states after each sample."""
    m = len(mat) - 1
    x, y = np.zeros((2, m + 1, drives.shape[1]))
    states = np.empty((len(drives), m, drives.shape[1]))
    for k, e in enumerate(drives):
        x[m] = e
        np.dot(mat, x, out=y)
        states[k] = y[:m]
        x, y = y, x
    return states


def check_recurrence_vs_direct_sum(pole, dt, scale, n_sequences=5, seed=20240501):
    """P of the `tgm` matrix after N random samples vs the explicit O(N)
    sum, every sequence a column of one pass."""
    n_samples, rtol = 2000, 1e-10
    rng = np.random.default_rng(seed)
    e_hist = np.array([rng.uniform(-1.0, 1.0, n_samples) for _ in range(n_sequences)])
    states = _step(pole_matrix((pole,), "tgm", dt, scale), e_hist.T)
    p_rec = greens.polarization_row(pole, dt, 0.5 * dt) @ states[-1]
    t_eval = (n_samples - 1) * dt + 0.5 * dt
    p_sum = np.array([oracle.direct_convolution_sum(e, pole, dt, t_eval) for e in e_hist])
    worst = float(np.max(np.abs(p_rec - p_sum)
                         / np.maximum(np.maximum(abs(p_rec), abs(p_sum)), 1e-300)))
    status = PASS if worst < rtol else FAIL
    return CheckResult("recurrence-vs-direct-sum", status,
                       f"max relative difference {worst:.3e} (tol {rtol:.0e})")


def green_closed_and_rk4(pole, dt, times):
    """Closed-form response to the unit rectangle on [-dt/2, dt/2] and its
    RK4 integration at fine_step = dt/1000, at each of the ascending
    `times` (>= dt/2)."""
    trace = oracle.green_rk4(pole, 0.0, dt, times[-1], dt / 1000.0)
    return greens.green_function(pole, times, 0.0, dt), trace.at(times)


def check_green_closed_form(pole, dt):
    """Closed-form rectangle response vs RK4 every half step to t_end."""
    rtol, t_end = 1e-6, 20.5 * dt
    times = 0.5 * dt + np.arange(41) * 0.5 * dt
    closed, rk4 = green_closed_and_rk4(pole, dt, times[times <= t_end])
    worst = float(np.abs(closed - rk4).max() / max(np.abs(rk4).max(), 1e-300))
    status = PASS if worst < rtol else FAIL
    return CheckResult("green-closed-form-vs-rk4", status,
                       f"max relative error {worst:.3e} (tol {rtol:.0e})")


def check_steady_state(pole, dt, scale):
    """Under the constant drive E = 1 the fixed point (I - A)^-1 b of
    each method's matrix must read P = eps0*delta_eps."""
    tol = 1e-3
    if pole.delta_p <= 0.0:
        return CheckResult("steady-state", SKIP, "skipped (undamped pole never settles)")
    target = EPS0 * pole.delta_eps
    # P of the tgm state through its readout row; the adem state is (P, D)
    readout = {"tgm": greens.polarization_row(pole, dt, 0.5 * dt), "adem": np.array([1.0, 0.0])}
    err = 0.0
    for method, row in readout.items():
        mat = pole_matrix((pole,), method, dt, scale)
        # Cramer's rule: np.linalg would map LAPACK into verify's RSS
        (p, q), (r, s) = np.eye(2) - mat[:2, :2]
        b0, b1 = mat[:2, 2]
        x = np.array([s * b0 - q * b1, p * b1 - r * b0]) / (p * s - q * r)
        err = max(err, abs(row @ x - target) / target)
    status = PASS if err < tol else FAIL
    return CheckResult("steady-state", status,
                       f"worst relative offset {err:.3e} at the fixed point (tol {tol:.0e})")


def check_conjugacy(pole, dt):
    """prop and inject of the minus branch must be the conjugates of the
    plus branch's, as real drive then keeps f_minus == conj(f_plus);
    underdamped poles only."""
    if pole.overdamped:
        return CheckResult("conjugacy", SKIP, "skipped (overdamped)")
    rtol = 1e-12
    resid = greens.branch_residuals(pole, greens.make_coefficients(pole, dt))
    worst = max(r for what, r in resid.items() if not what.startswith("curr"))
    status = PASS if worst < rtol else FAIL
    return CheckResult("conjugacy", status,
                       f"max |minus - conj(plus)| / |plus| of prop, inject = {worst:.3e} "
                       f"(tol {rtol:.0e})")


def check_realness(pole, dt):
    """Every branch residual of greens.check_branch_symmetry, the gate
    that lets the grid read P and dP/dt as real, within its tolerance."""
    resid = greens.branch_residuals(pole, greens.make_coefficients(pole, dt))
    what, worst = max(resid.items(), key=lambda item: item[1])
    status = PASS if worst <= greens.IMAG_RESIDUAL_RTOL else FAIL
    return CheckResult("realness", status,
                       f"worst branch residual {worst:.3e} for {what} "
                       f"(tol {greens.IMAG_RESIDUAL_RTOL:.0e})")


def _spectral_radius(a):
    """Largest |eigenvalue| of the 2x2 block `a`: the eigenvalues are
    (a00 + a11)/2 +- sqrt(disc), disc = ((a00 - a11)/2)^2 + a01 a10, and
    a complex pair has modulus sqrt(det)."""
    half_diff = 0.5 * (a[0, 0] - a[1, 1])
    disc = half_diff * half_diff + a[0, 1] * a[1, 0]
    if disc >= 0.0:
        return 0.5 * abs(a[0, 0] + a[1, 1]) + math.sqrt(disc)
    return math.sqrt(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def check_non_amplification(pole, dt, scale):
    """The spectral radius of each method's block A must not exceed 1
    (and stay below 1 when damped), so no state grows under zero drive."""
    strict = pole.delta_p > 0.0
    radii = {method: _spectral_radius(pole_matrix((pole,), method, dt, scale)[:2, :2])
             for method in ("tgm", "adem")}
    ok = all(r < 1.0 if strict else r <= 1.0 + 1e-14 for r in radii.values())
    detail = ", ".join(f"{method} {r:.9f}" for method, r in radii.items())
    return CheckResult("non-amplification", PASS if ok else FAIL,
                       f"spectral radius {detail} (need {'< 1' if strict else '<= 1'})")


def check_ade_fixed_point(pole, dt, scale):
    """The exact steady state (P*, 0) under E = 1 must be a fixed point of
    the `adem` matrix, with a zero current row."""
    rtol = 1e-13
    p_star = EPS0 * pole.delta_eps * 1.0
    p_next, _, j = pole_matrix((pole,), "adem", dt, scale) @ [p_star, 0.0, 1.0]
    worst = max(abs(p_next - p_star), abs(j) * dt / scale) / p_star
    status = PASS if worst < rtol else FAIL
    return CheckResult("ade-fixed-point", status,
                       f"fixed-point drift {worst:.3e} (tol {rtol:.0e})")


def staircase_error(pole, drive, dt, t_end, settle):
    """Max |P - P_ref| of the `tgm` matrix fed the samples drive(k dt),
    k < round(t_end/dt), over the half steps k dt + dt/2 >= settle, where
    P_ref is the RK4 solution under the smooth drive at dt/400; `drive`
    takes an array of times."""
    n = int(round(t_end / dt))
    ref = oracle.smooth_drive_rk4(pole, drive, (n + 1) * dt, dt / 400.0)
    t = np.arange(n) * dt
    # only P is read, so the current's scale is immaterial
    states = _step(pole_matrix((pole,), "tgm", dt, 1.0), drive(t)[:, None])
    p = greens.polarization_row(pole, dt, 0.5 * dt) @ states[:, :, 0].T
    t_eval = t + 0.5 * dt
    keep = t_eval >= settle
    return float(np.abs(p[keep] - ref.at(t_eval[keep])).max(initial=0.0))


def check_temporal_order(pole):
    """Halving dt must shrink the error against the smooth-drive reference
    by at least `min_ratio` (second-order accuracy).  The max is taken
    over the final drive period, after the startup ring of the resonance
    has decayed."""
    min_ratio = 3.6
    omega_d = pole.omega_p / 12.0
    period = 2.0 * np.pi / omega_d
    # resolve the pole itself (about ten steps per resonance period) so the
    # study sits in the asymptotic regime
    dt_coarse = 0.6 / pole.omega_p
    settle = 3.0 * period
    if 0.0 < pole.delta_p < 0.02 * pole.omega_p:
        settle = min(max(settle, 5.0 / pole.delta_p), 40.0 * period)
    t_end = settle + period
    drive = lambda t: np.sin(omega_d * t)
    errs = [staircase_error(pole, drive, dt, t_end, settle)
            for dt in (dt_coarse, 0.5 * dt_coarse)]
    ratio = errs[0] / max(errs[1], 1e-300)
    status = PASS if ratio >= min_ratio else FAIL
    return CheckResult("temporal-convergence-order", status,
                       f"error ratio {ratio:.2f} on dt halving (need >= {min_ratio}, "
                       f"order {np.log2(max(ratio, 1e-300)):.2f})")


def run_checks(config) -> list:
    """Run the whole suite against every pole of the config medium, or the
    bundled table1 pole when the medium has none, at the config's dt and
    the grid bank's current scale dt/(eps0 eps_inf).  Each result's
    detail starts with the number of its pole."""
    poles = config.medium.poles or load_table1().medium.poles
    dt = config.dt
    scale = dt / (EPS0 * config.medium.eps_inf)
    results = []
    for k, pole in enumerate(poles, start=1):
        for res in (
            check_recurrence_vs_direct_sum(pole, dt, scale),
            check_green_closed_form(pole, dt),
            check_steady_state(pole, dt, scale),
            check_conjugacy(pole, dt),
            check_realness(pole, dt),
            check_non_amplification(pole, dt, scale),
            check_ade_fixed_point(pole, dt, scale),
            check_temporal_order(pole),
        ):
            res.detail = f"pole {k}: {res.detail}"
            results.append(res)
    return results
