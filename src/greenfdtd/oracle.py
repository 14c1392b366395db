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
The recurrence is solved in blocks of CHUNK steps by recursive doubling
with the powers R^(2^j) = I + E_j, carrying the state from one block
into the next.  A drive is a constant or a callable taking an array of
times.

These live in the shipped package, not in test code, so the `verify`
subcommand can regenerate every derived reference value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import LorentzPole
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

    def at(self, t: float) -> float:
        """Value at the mesh point nearest t (the mesh is uniform)."""
        i = int(round((t - self.times[0]) / (self.times[1] - self.times[0])))
        if not 0 <= i < len(self.times):
            raise ValueError(f"t={t} outside trace [{self.times[0]}, {self.times[-1]}]")
        return float(self.values[i])


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
    g = green_function(pole, tau[mask], 0.0, dt)
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


def _rk4_phases(pole: LorentzPole, h, phases, t0):
    """Integrate y'' + 2 dp y' + wp^2 y = f(t) from rest at t0 in steps of
    h through a list of phases.

    Each phase is (n_steps, forcing) with `forcing` either a constant or
    a callable of an array of times; the right-hand side is smooth inside
    a phase, so classical RK4 keeps full order across rectangle edges.
    All phases form one recurrence x_{k+1} = (I + E) x_k + u_k: the
    inputs u_k are written into the output rows first, then each block of
    CHUNK steps is solved in place by recursive doubling, its first input
    taking (I + E) times the state the block before ended in.
    Returns the sampled mesh (times, y, y').
    """
    # columns: the increments from y, y', f(t), f(t + h/2) and f(t + h)
    m = np.array(_rk4_increment(*np.eye(5), h, pole.omega_p**2, 2.0 * pole.delta_p))
    emat, smat = m[:, :2], m[:, 2:]
    n_total = sum(n for n, _ in phases)
    # built in place: an integer arange beside it would lift verify's peak RSS
    times = np.arange(n_total + 1, dtype=float)
    times *= h
    times += t0
    x = np.zeros((2, n_total + 1))
    start = 0
    for n, forcing in phases:
        for lo in range(start, start + n, CHUNK):
            hi = min(lo + CHUNK, start + n)
            if callable(forcing):
                f_node = forcing(times[lo:hi + 1])
                f_mid = forcing(times[lo:hi] + 0.5 * h)
                x[:, lo + 1:hi + 1] = smat @ np.array([f_node[:-1], f_mid, f_node[1:]])
            else:
                x[:, lo + 1:hi + 1] = smat.sum(axis=1, keepdims=True) * forcing
        start += n
    # E_j = R^(2^j) - I, squared as (I + E)^2 = I + (2E + E^2)
    powers = [emat]
    while 2 ** len(powers) < CHUNK:
        powers.append(2.0 * powers[-1] + powers[-1] @ powers[-1])
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


def green_rk4(pole: LorentzPole, t_n: float, dt: float, t_end: float, fine_step: float) -> OdeTrace:
    """High-resolution integration of the rectangle response from rest.

    The unit rectangle spans [t_n - dt/2, t_n + dt/2]; integration starts
    at its leading edge and continues force-free to t_end.  fine_step must
    be <= dt/100 and is snapped so the rectangle edges land exactly on
    mesh points.
    """
    if fine_step > dt / 100.0 * (1.0 + 1e-12):
        raise ValueError("fine_step must be <= dt/100")
    if t_end <= t_n + 0.5 * dt:
        raise ValueError("t_end must lie beyond the rectangle, t_n + dt/2")
    n_in = max(int(round(dt / fine_step)), 100)
    h = dt / n_in
    t_free = t_end - (t_n + 0.5 * dt)
    n_free = max(int(np.ceil(t_free / h)), 1)
    times, ys, vs = _rk4_phases(pole, h, [(n_in, 1.0), (n_free, 0.0)], t0=t_n - 0.5 * dt)
    return OdeTrace(times, ys, vs)


def polarization_rk4(e_samples, pole: LorentzPole, dt: float, fine_step: float) -> OdeTrace:
    """Integrate the polarization ODE driven by the zero-order-hold
    staircase of e_samples (value E^n held on [t_n - dt/2, t_n + dt/2)).

    This is the exact problem the recursive update solves, so agreement is
    limited only by the integrator's own error.
    """
    if fine_step > dt / 100.0 * (1.0 + 1e-12):
        raise ValueError("fine_step must be <= dt/100")
    e = np.asarray(e_samples, dtype=float)
    n_in = max(int(round(dt / fine_step)), 100)
    phases = [(n_in, pole.strength * float(en)) for en in e]
    times, ys, vs = _rk4_phases(pole, dt / n_in, phases, t0=-0.5 * dt)
    return OdeTrace(times, ys, vs)


def smooth_drive_rk4(pole: LorentzPole, drive, t_end: float, fine_step: float) -> OdeTrace:
    """Integrate the polarization ODE under a smooth drive E(t) from rest
    at t = 0.  Reference for temporal-order studies against the staircase
    solution; `drive` takes an array of times."""
    n = max(int(np.ceil(t_end / fine_step)), 1)
    strength = pole.strength
    times, ys, vs = _rk4_phases(pole, t_end / n, [(n, lambda t: strength * drive(t))], t0=0.0)
    return OdeTrace(times, ys, vs)
