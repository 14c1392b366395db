"""Self-check suite behind the `verify` subcommand.

Each check exercises one structural invariant of the dispersive updaters
against an independent reference and reports PASS / FAIL / SKIP with a
one-line detail.

Five checks run on the grid's own pole matrix (bank.pole_matrix of one
pole, its current at the bank's scale dt/(eps0 eps_inf)).  Two step it
in the grid's own bank, a bank.PoleBank with one cell per drive
sequence, and read the states its advance has just written:
recurrence-vs-direct-sum (`tgm`'s P, read through
greens.polarization_row, under a SplitMix64 drive in numpy uint64: the
import of numpy.random costs more than the check) and
temporal-convergence-order (`tgm`, against oracle.smooth_drive_rk4
solved at the half steps it reads); neither builds a grid, so verify
imports neither fdtd nor analysis.  Three read the matrix: steady-state
(the fixed point (I - A)^-1 b of both methods), non-amplification (the
spectral radius of both methods' block A) and ade-fixed-point (one
`adem` step, current row included).  conjugacy and realness read the
build's gate: the branch residuals (greens.branch_residuals) that
greens.check_branch_symmetry vouches for before greens.tgm_block folds
each pole into real rows.  A check that raises a ValidationError, as
the gate does or green_closed_and_rk4 on an RK4 reference that is not
finite (the refusal `green` prints), is a FAIL with its message.  A NaN
never passes: every reduction keeps it, and no comparison with it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import greens, oracle
from .bank import PoleBank, pole_matrix
from .config import load_table1
from .constants import EPS0
from .errors import ValidationError

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
    """Yield the buffer a bank.PoleBank on the pole matrix `mat` writes
    after each row E^k of `drives`, (n, S), whose S sequences are its
    cells: the m states over the current row, (m+1, S), overwritten two
    steps later, so a caller copies only the states it reads."""
    drive = np.zeros(drives.shape[1])
    bank = PoleBank(mat, drive, np.zeros_like(drive))
    for row in drives:
        drive[...] = row
        yield bank.advance()


def _uniform_drive(seed, shape):
    """Uniform [-1, 1) draws, row-major: top 53 bits of SplitMix64's outputs."""
    z = np.uint64(seed) + np.arange(1, math.prod(shape) + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return ((z ^ (z >> 31)) >> 11).reshape(shape) * 2.0**-52 - 1.0


def check_recurrence_vs_direct_sum(pole, dt, scale, n_sequences=5, seed=20240501):
    """P of the `tgm` matrix after N random samples vs the explicit O(N)
    sum, every sequence a column of one pass, under _uniform_drive's
    SplitMix64 draws (numpy.random would be verify's costliest import)."""
    n_samples, rtol = 2000, 1e-10
    e_hist = _uniform_drive(seed, (n_sequences, n_samples))
    for states in _step(pole_matrix((pole,), "tgm", dt, scale), e_hist.T):
        pass  # only the states after the last sample are read
    p_rec = greens.polarization_row(pole, dt) @ states[:-1]
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
    `times` (>= dt/2).  ValidationError when the RK4 reference is not
    finite, as past RK4's stability limit omega_p*h = 2*sqrt(2)."""
    trace = oracle.green_rk4(pole, dt, times[-1], dt / 1000.0)
    closed, rk4 = greens.green_function(pole, times, dt), trace.at(times)
    if not np.isfinite(rk4).all():
        raise ValidationError(f"the RK4 reference at h = dt/1000 is not finite "
                              f"(omega_p*h = {pole.omega_p * dt / 1000:.3g})")
    return closed, rk4


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
    readout = {"tgm": greens.polarization_row(pole, dt), "adem": np.array([1.0, 0.0])}
    err = 0.0
    for method, row in readout.items():
        mat = pole_matrix((pole,), method, dt, scale)
        # Cramer's rule: np.linalg would map LAPACK into verify's RSS
        (p, q), (r, s) = np.eye(2) - mat[:2, :2]
        b0, b1 = mat[:2, 2]
        x = np.array([s * b0 - q * b1, p * b1 - r * b0]) / (p * s - q * r)
        err = float(np.maximum(err, abs(row @ x - target) / target))  # a NaN stays
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
    worst = float(np.max([r for what, r in resid.items() if not what.startswith("curr")]))
    status = PASS if worst < rtol else FAIL
    return CheckResult("conjugacy", status,
                       f"max |minus - conj(plus)| / |plus| of prop, inject = {worst:.3e} "
                       f"(tol {rtol:.0e})")


def check_realness(pole, dt):
    """Every branch residual of greens.check_branch_symmetry, the gate
    that lets the grid read P and dP/dt as real, within its tolerance."""
    resid = greens.branch_residuals(pole, greens.make_coefficients(pole, dt))
    what, worst = max(resid.items(), key=lambda item: (math.isnan(item[1]), item[1]))
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
    worst = float(np.max([abs(p_next - p_star), abs(j) * dt / scale]) / p_star)
    status = PASS if worst < rtol else FAIL
    return CheckResult("ade-fixed-point", status,
                       f"fixed-point drift {worst:.3e} (tol {rtol:.0e})")


def staircase_error(pole, omega, dt, t_end, settle):
    """Max |P - P_ref| of the `tgm` matrix fed the samples sin(omega k dt),
    k < round(t_end/dt), over the half steps k dt + dt/2 >= settle, where
    P_ref is the RK4 solution under the smooth drive sin(omega t) at dt/400,
    solved at those half steps only."""
    n = int(round(t_end / dt))
    t = np.arange(n) * dt
    # only P is read, so the current's scale is immaterial
    mat = pole_matrix((pole,), "tgm", dt, 1.0)
    states = np.empty((n, len(mat) - 1))
    for k, x in enumerate(_step(mat, np.sin(omega * t)[:, None])):
        states[k] = x[:-1, 0]
    p = greens.polarization_row(pole, dt) @ states.T
    t_eval = t + 0.5 * dt
    keep = t_eval >= settle
    ref = oracle.smooth_drive_rk4(pole, omega, (n + 1) * dt, dt / 400.0, t_eval[keep])[0]
    return float(np.abs(p[keep] - ref).max(initial=0.0))


def check_temporal_order(pole):
    """Halving dt must shrink the error against the smooth-drive reference
    by at least `min_ratio` (second-order accuracy).  The max is taken
    over the final drive period, after the startup ring of the resonance
    has decayed.  P is linear in delta_eps: at delta_eps = 1 no error underflows."""
    pole = replace(pole, delta_eps=1.0)
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
    errs = [staircase_error(pole, omega_d, dt, t_end, settle)
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
    detail starts with the number of its pole.  A check stopped by a
    ValidationError, as from the build's branch-symmetry gate
    (greens.check_branch_symmetry) or a non-finite RK4 reference, is a
    FAIL whose detail is the refusal's message."""
    poles = config.medium.poles or load_table1().medium.poles
    dt = config.dt
    # an eps0*eps_inf that underflows to 0 gives an inf scale, which FAILs
    scale = np.divide(dt, EPS0 * config.medium.eps_inf)
    results = []
    for k, pole in enumerate(poles, start=1):
        for name, check, args in (
            ("recurrence-vs-direct-sum", check_recurrence_vs_direct_sum, (pole, dt, scale)),
            ("green-closed-form-vs-rk4", check_green_closed_form, (pole, dt)),
            ("steady-state", check_steady_state, (pole, dt, scale)),
            ("conjugacy", check_conjugacy, (pole, dt)),
            ("realness", check_realness, (pole, dt)),
            ("non-amplification", check_non_amplification, (pole, dt, scale)),
            ("ade-fixed-point", check_ade_fixed_point, (pole, dt, scale)),
            ("temporal-convergence-order", check_temporal_order, (pole,)),
        ):
            try:
                res = check(*args)
            except ValidationError as exc:
                res = CheckResult(name, FAIL, str(exc))
            res.detail = f"pole {k}: {res.detail}"
            results.append(res)
    return results
