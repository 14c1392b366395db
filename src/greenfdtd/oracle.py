"""Brute-force references for the fast updaters.

Two independent routes validate the recursive update: summing the
closed-form rectangle responses term by term (no recurrence, each
response from `greens.green_function`), and classical fourth-order
integration of the oscillator ODE itself, driven with
`LorentzPole.strength`.  The integrators split the time axis at the
rectangle edges so every RK4 stage sees a smooth right-hand side and
the full order is retained.

RK4 applied to the linear ODE is itself an exact linear recurrence on
the state x = (y, y'): one step of size h is

    x_{k+1} = x_k + E x_k + S (f(t_k), f(t_k + h/2), f(t_k + h))

with a 2x2 E (R = I + E is the step matrix) and a 2x3 S read off by
pushing unit vectors once through the scalar stage formulas (nothing
from `greens`, no exponential), so the oracle stays independent of what
it checks.  E is kept apart from I because R - I is of order h: rounded
against 1 it would lose the digits of the per-step decay and rotation.
Under piecewise-constant drives (the rectangle response, the staircase)
the recurrence is solved over the whole mesh in blocks of CHUNK steps by
recursive doubling with the powers R^(2^j) = I + E_j, carrying the state
from one block into the next.  Under the smooth drive sin(omega t) it
has a closed form, evaluated only at the mesh points that are read.

These live in the shipped package, not in test code, so the `verify`
subcommand can regenerate every derived reference value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import LorentzPole
from .errors import ValidationError
from .greens import green_function

# Steps solved per block: the work arrays stay a few hundred KB whatever
# the mesh length, at log2(CHUNK) doubling rounds per block.
CHUNK = 2**14


@dataclass
class OdeTrace:
    """Solution samples on a uniform fine mesh: value and first derivative."""

    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    def at(self, t):
        """Value at the mesh point nearest t, a float or an array of times
        (the mesh is uniform)."""
        h = self.times[1] - self.times[0]
        i = np.rint((np.asarray(t) - self.times[0]) / h).astype(np.intp)
        if np.any((i < 0) | (i >= len(self.times))):
            raise ValidationError(f"t={t} outside trace [{self.times[0]}, {self.times[-1]}]")
        return self.values[i] if i.ndim else float(self.values[i])


def direct_convolution_sum(e_history, pole: LorentzPole, dt: float, t_eval: float) -> float:
    """Polarization at t_eval by explicit O(N) summation of the closed-form
    rectangle responses, one term per sample E^n at t_n = n*dt.

    Only rectangles that have ended by t_eval (t_n + dt/2 <= t_eval)
    contribute; this is the reference the recurrence must reproduce.
    """
    e = np.asarray(e_history, dtype=float)
    n = np.arange(len(e))
    tau = t_eval - n * dt
    mask = tau >= 0.5 * dt * (1.0 - 1e-12)
    if not np.any(mask):
        return 0.0
    g = green_function(pole, tau[mask], dt)
    return float(pole.strength * np.sum(e[mask] * g))


def _rk4_increment(y, v, f1, f2, f4, h, wp2, two_dp):
    """The change of (y, y') over one classical RK4 step of
    y'' + 2 dp y' + wp^2 y = f, with f1 = f(t), f2 = f(t + h/2) for both
    middle stages and f4 = f(t + h)."""
    k1v = f1 - two_dp * v - wp2 * y
    y2 = y + 0.5 * h * v
    v2 = v + 0.5 * h * k1v
    k2v = f2 - two_dp * v2 - wp2 * y2
    y3 = y + 0.5 * h * v2
    v3 = v + 0.5 * h * k2v
    k3v = f2 - two_dp * v3 - wp2 * y3
    y4 = y + h * v3
    v4 = v + h * k3v
    k4v = f4 - two_dp * v4 - wp2 * y4
    return (h / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4),
            h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def _rk4_matrices(pole: LorentzPole, h):
    """E (2x2) and S (2x3) of one RK4 step of size h,
    x_{k+1} = (I + E) x_k + S (f(t), f(t + h/2), f(t + h))."""
    # columns: the increments from y, y', f(t), f(t + h/2) and f(t + h)
    m = np.array(_rk4_increment(*np.eye(5), h, pole.omega_p**2, 2.0 * pole.delta_p))
    return m[:, :2], m[:, 2:]


def _doubling_powers(emat, count):
    """E_j = R^(2^j) - I for every 2^j < count (and at least E_0 = E),
    squared as (I + E)^2 = I + (2E + E^2)."""
    powers = [emat]
    while 2 ** len(powers) < count:
        powers.append(2.0 * powers[-1] + powers[-1] @ powers[-1])
    return powers


def _rk4_phases(pole: LorentzPole, h, phases, t0):
    """Integrate y'' + 2 dp y' + wp^2 y = f(t) from rest at t0 in steps of
    h through a list of phases.

    Each phase is (n_steps, forcing) with a constant `forcing`, so classical
    RK4 keeps full order across the phase edges.  All phases form one
    recurrence x_{k+1} = (I + E) x_k + u_k: the inputs u_k are written into
    the output rows first, then each block of CHUNK steps is solved in
    place by recursive doubling, its first input taking (I + E) times the
    state the block before ended in.  Returns the sampled mesh (times, y, y').
    """
    emat, smat = _rk4_matrices(pole, h)
    gain = smat.sum(axis=1, keepdims=True)
    n_total = sum(n for n, _ in phases)
    # built in place: an integer arange beside it would lift verify's peak RSS
    times = np.arange(n_total + 1, dtype=float)
    times *= h
    times += t0
    x = np.zeros((2, n_total + 1))
    start = 0
    for n, forcing in phases:
        x[:, start + 1:start + n + 1] = gain * forcing
        start += n
    powers = _doubling_powers(emat, CHUNK)
    for k0 in range(0, n_total, CHUNK):
        u = x[:, k0 + 1:k0 + 1 + CHUNK]
        u[:, 0] += x[:, k0] + emat @ x[:, k0]
        for j, e_j in enumerate(powers):
            s = 1 << j
            if s >= u.shape[1]:
                break
            w = u[:, :-s]
            u[:, s:] += w + e_j @ w
    return times, x[0], x[1]


def _substeps(dt, fine_step) -> int:
    """Sub-steps per dt at about `fine_step`, which must lie in (0, dt/100]
    with a finite dt / fine_step."""
    if not (0.0 < fine_step <= dt / 100.0 * (1.0 + 1e-12) and np.isfinite(dt / fine_step)):
        raise ValidationError(f"fine_step must lie in (0, dt/100], got {fine_step!r}")
    return int(round(dt / fine_step))


def green_rk4(pole: LorentzPole, dt: float, t_end: float, fine_step: float) -> OdeTrace:
    """High-resolution integration of the response to the unit rectangle
    on [-dt/2, dt/2] from rest.

    Integration starts at the rectangle's leading edge and continues
    force-free to t_end.  fine_step must lie in (0, dt/100] and is snapped
    so the rectangle edges land exactly on mesh points.
    """
    n_in = _substeps(dt, fine_step)
    if t_end <= 0.5 * dt:
        raise ValidationError("t_end must lie beyond the rectangle, dt/2")
    h = dt / n_in
    n_free = max(int(np.ceil((t_end - 0.5 * dt) / h)), 1)
    times, ys, vs = _rk4_phases(pole, h, [(n_in, 1.0), (n_free, 0.0)], t0=-0.5 * dt)
    return OdeTrace(times, ys, vs)


def polarization_rk4(e_samples, pole: LorentzPole, dt: float, fine_step: float) -> OdeTrace:
    """Integrate the polarization ODE driven by the zero-order-hold
    staircase of e_samples (value E^n held on [t_n - dt/2, t_n + dt/2)).

    This is the exact problem the recursive update solves, so agreement is
    limited only by the integrator's own error.  fine_step must lie in
    (0, dt/100].
    """
    n_in = _substeps(dt, fine_step)
    e = np.asarray(e_samples, dtype=float)
    phases = [(n_in, pole.strength * float(en)) for en in e]
    times, ys, vs = _rk4_phases(pole, dt / n_in, phases, t0=-0.5 * dt)
    return OdeTrace(times, ys, vs)


def smooth_drive_rk4(pole: LorentzPole, omega: float, t_end: float, fine_step: float,
                     times) -> np.ndarray:
    """RK4 solution of the polarization ODE under the smooth drive
    E(t) = sin(omega t) from rest at t = 0, on the uniform mesh of
    ceil(t_end/fine_step) steps over [0, t_end], read at the mesh point
    nearest each of `times`.  Returns the (2, len(times)) rows y and y'.
    Reference for temporal-order studies against the staircase solution.

    The inputs f = strength sin(omega t) of the recurrence are Im(z^k v)
    with z = e^(i omega h) and v = strength S (1, z^(1/2), z), so from
    x_0 = 0 it is solved in closed form at the read indices k alone:

        x_k = Im[((z^k - 1) I - E_k) w],   ((z - 1) I - E) w = v,

    with E_k = R^k - I built by binary powering over the E_j and
    z^k - 1 = 2i sin(k omega h/2) e^(i k omega h/2), which keeps its digits
    at small k.  ValidationError for a time outside [0, t_end].
    """
    t = np.asarray(times, dtype=float)
    if np.any((t < 0.0) | (t > t_end)):
        raise ValidationError(f"times outside [0, t_end = {t_end}]")
    n = max(int(np.ceil(t_end / fine_step)), 1)
    h = t_end / n
    k = np.rint(t / h).astype(np.int64)
    emat, smat = _rk4_matrices(pole, h)
    half = np.exp(0.5j * omega * h)
    v = pole.strength * (smat @ [1.0, half, half * half])
    # Cramer's rule on (z - 1) I - E: np.linalg would map LAPACK into verify's RSS
    z1 = 2j * np.sin(0.5 * omega * h) * half
    (a, b), (c, d) = z1 * np.eye(2) - emat
    w = np.array([d * v[0] - b * v[1], a * v[1] - c * v[0]]) / (a * d - b * c)
    e_k = np.zeros((len(k), 2, 2))
    for j, e_j in enumerate(_doubling_powers(emat, int(k.max(initial=0)) + 1)):
        # R^(k + 2^j) - I = E_k + E_j + E_k E_j where bit j of k is set
        e_k += ((k >> j) & 1)[:, None, None] * (e_j + e_k @ e_j)
    phase = 0.5 * omega * h * k
    zk1 = 2j * np.sin(phase) * np.exp(1j * phase)
    return (zk1[:, None] * w - e_k @ w).imag.T
