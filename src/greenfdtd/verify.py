"""Self-check suite behind the `verify` subcommand.

Each check exercises one structural invariant of the dispersive updaters
against an independent reference and reports PASS / FAIL / SKIP with a
one-line detail.  The `corrupt_propagator` hook multiplies the plus-branch
step propagator before the recurrence runs; tests use it to prove the
recurrence check actually bites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from . import greens, oracle
from .ade import AdePoleState, ade_advance, ade_current_half_step
from .config import load_table1
from .constants import EPS0
from .dispersion import pole_roots

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SKIP)


def _corrupted(coeffs, factor):
    if factor == 1.0:
        return coeffs
    return _dc_replace(coeffs, prop_plus=coeffs.prop_plus * factor)


def check_recurrence_vs_direct_sum(pole, dt, corrupt_propagator=1.0, n_sequences=5,
                                   seed=20240501):
    """Recurrence state after N random samples vs the explicit O(N) sum."""
    n_samples, rtol = 2000, 1e-10
    rng = np.random.default_rng(seed)
    coeffs = _corrupted(greens.make_coefficients(pole, dt), corrupt_propagator)
    worst = 0.0
    try:
        for _ in range(n_sequences):
            e_hist = rng.uniform(-1.0, 1.0, n_samples)
            state = greens.PoleState()
            for e in e_hist:
                state = greens.advance_state(state, e, coeffs)
            p_rec = greens.polarization(state, pole, coeffs, 0.5 * dt)
            t_eval = (n_samples - 1) * dt + 0.5 * dt
            p_sum = oracle.direct_convolution_sum(e_hist, pole, dt, t_eval)
            worst = max(worst, abs(p_rec - p_sum) / max(abs(p_sum), abs(p_rec), 1e-300))
    except greens.RealnessError as exc:
        return CheckResult("recurrence-vs-direct-sum", FAIL, str(exc))
    status = PASS if worst < rtol else FAIL
    return CheckResult("recurrence-vs-direct-sum", status,
                       f"max relative difference {worst:.3e} (tol {rtol:.0e})")


def green_closed_and_rk4(pole, dt, times):
    """Closed-form response to the unit rectangle on [-dt/2, dt/2] and its
    RK4 integration at fine_step = dt/1000, at each of the ascending
    `times` (>= dt/2)."""
    trace = oracle.green_rk4(pole, 0.0, dt, times[-1], dt / 1000.0)
    closed = greens.green_function(pole, times, 0.0, dt)
    return closed, np.array([trace.at(float(t)) for t in times])


def check_green_closed_form(pole, dt):
    """Closed-form rectangle response vs RK4 every half step to t_end."""
    rtol, t_end = 1e-6, 20.5 * dt
    times = 0.5 * dt + np.arange(41) * 0.5 * dt
    closed, rk4 = green_closed_and_rk4(pole, dt, times[times <= t_end])
    worst = float(np.abs(closed - rk4).max() / max(np.abs(rk4).max(), 1e-300))
    status = PASS if worst < rtol else FAIL
    return CheckResult("green-closed-form-vs-rk4", status,
                       f"max relative error {worst:.3e} (tol {rtol:.0e})")


def check_steady_state(pole, dt):
    """Constant drive must settle to eps0*delta_eps*E0 for both updaters."""
    tol = 1e-3
    if pole.delta_p <= 0.0:
        return CheckResult("steady-state", SKIP, "skipped (undamped pole never settles)")
    e0 = 1.0
    target = EPS0 * pole.delta_eps * e0
    # slowest decay rate: delta_p when underdamped, the slow imaginary
    # root when overdamped
    gamma = min(z.imag for z in pole_roots(pole))
    n = int(np.ceil(10.0 / (gamma * dt))) + 1
    coeffs = greens.make_coefficients(pole, dt)
    state = greens.PoleState()
    for _ in range(n):
        state = greens.advance_state(state, e0, coeffs)
    p_tgm = greens.polarization(state, pole, coeffs, 0.5 * dt)
    astate = AdePoleState()
    for _ in range(n):
        astate, _ = ade_advance(astate, e0, pole, dt)
    p_ade = astate.p_now
    err = max(abs(p_tgm - target), abs(p_ade - target)) / target
    status = PASS if err < tol else FAIL
    return CheckResult("steady-state", status,
                       f"worst relative offset {err:.3e} after {n} steps (tol {tol:.0e})")


def check_conjugacy(pole, dt):
    """f_minus == conj(f_plus) under real drive, underdamped poles only."""
    if pole.overdamped:
        return CheckResult("conjugacy", SKIP, "skipped (overdamped)")
    rtol = 1e-12
    rng = np.random.default_rng(7)
    coeffs = greens.make_coefficients(pole, dt)
    state = greens.PoleState()
    worst = 0.0
    for e in rng.uniform(-1.0, 1.0, 400):
        state = greens.advance_state(state, e, coeffs)
        mag = max(abs(state.f_plus), 1e-300)
        worst = max(worst, abs(state.f_minus - np.conj(state.f_plus)) / mag)
    status = PASS if worst < rtol else FAIL
    return CheckResult("conjugacy", status,
                       f"max |f_minus - conj(f_plus)| / |f_plus| = {worst:.3e} (tol {rtol:.0e})")


def check_realness(pole, dt):
    """P and dP/dt evaluations must stay within the imaginary-residual
    tolerance (the accessors raise RealnessError otherwise)."""
    n_steps = 400
    rng = np.random.default_rng(11)
    coeffs = greens.make_coefficients(pole, dt)
    state = greens.PoleState()
    try:
        for e in rng.uniform(-1.0, 1.0, n_steps):
            state = greens.advance_state(state, e, coeffs)
            greens.polarization(state, pole, coeffs, 0.5 * dt)
            greens.polarization_current_half_step(state, coeffs)
    except greens.RealnessError as exc:
        return CheckResult("realness", FAIL, str(exc))
    return CheckResult("realness", PASS,
                       f"imaginary residuals below {greens.IMAG_RESIDUAL_RTOL:.0e} over {n_steps} steps")


def check_non_amplification(pole, dt):
    """|F+| must not grow under zero drive (strictly decay when damped)."""
    n_steps = 200
    rng = np.random.default_rng(13)
    coeffs = greens.make_coefficients(pole, dt)
    state = greens.PoleState()
    for e in rng.uniform(-1.0, 1.0, 50):
        state = greens.advance_state(state, e, coeffs)
    prev = abs(state.f_plus)
    strict = pole.delta_p > 0.0
    for _ in range(n_steps):
        state = greens.advance_state(state, 0.0, coeffs)
        mag = abs(state.f_plus)
        growing = mag > prev if strict else mag > prev * (1.0 + 1e-14)
        if growing:
            return CheckResult("non-amplification", FAIL,
                               f"|f_plus| grew from {prev:.6e} to {mag:.6e} under zero drive")
        prev = mag
    return CheckResult("non-amplification", PASS,
                       f"|f_plus| monotone under zero drive over {n_steps} steps")


def check_ade_fixed_point(pole, dt):
    """The exact steady state must be a fixed point of the ADE update."""
    rtol = 1e-13
    p_star = EPS0 * pole.delta_eps * 1.0
    state = AdePoleState(p_now=p_star, p_prev=p_star)
    new_state, p_next = ade_advance(state, 1.0, pole, dt)
    err = abs(p_next - p_star) / p_star
    curr = abs(ade_current_half_step(new_state, dt)) * dt / p_star
    worst = max(err, curr)
    status = PASS if worst < rtol else FAIL
    return CheckResult("ade-fixed-point", status,
                       f"fixed-point drift {worst:.3e} (tol {rtol:.0e})")


def staircase_error(pole, drive, dt, t_end, settle):
    """Max |P - P_ref| of the recurrence fed the samples drive(k dt),
    k < round(t_end/dt), over the half steps k dt + dt/2 >= settle, where
    P_ref is the RK4 solution under the smooth drive at dt/400."""
    n = int(round(t_end / dt))
    ref = oracle.smooth_drive_rk4(pole, drive, (n + 1) * dt, dt / 400.0)
    coeffs = greens.make_coefficients(pole, dt)
    state = greens.PoleState()
    worst = 0.0
    for k in range(n):
        state = greens.advance_state(state, drive(k * dt), coeffs)
        t_eval = k * dt + 0.5 * dt
        p = greens.polarization(state, pole, coeffs, 0.5 * dt)
        if t_eval >= settle:
            worst = max(worst, abs(p - ref.at(t_eval)))
    return worst


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


def run_checks(config, corrupt_propagator: float = 1.0) -> list:
    """Run the whole suite against every pole of the config medium, or the
    bundled table1 pole when the medium has none, at the config's dt.
    Each result's detail starts with the number of its pole."""
    poles = config.medium.poles or load_table1().medium.poles
    dt = config.dt
    results = []
    for k, pole in enumerate(poles, start=1):
        for res in (
            check_recurrence_vs_direct_sum(pole, dt, corrupt_propagator),
            check_green_closed_form(pole, dt),
            check_steady_state(pole, dt),
            check_conjugacy(pole, dt),
            check_realness(pole, dt),
            check_non_amplification(pole, dt),
            check_ade_fixed_point(pole, dt),
            check_temporal_order(pole),
        ):
            res.detail = f"pole {k}: {res.detail}"
            results.append(res)
    return results
