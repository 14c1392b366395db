"""Brute-force references for the fast updaters.

Two independent routes validate the recursive update: summing the
closed-form rectangle responses term by term (no recurrence, each
response from `greens.green_function`), and classical fourth-order
integration of the oscillator ODE itself, driven with
`LorentzPole.strength`.  The integrators split the time axis at the
rectangle edges so every RK4 stage sees a smooth right-hand side and
the full order is retained.

These live in the shipped package, not in test code, so the `verify`
subcommand can regenerate every derived reference value.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .dispersion import LorentzPole
from .greens import green_function


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


def _rk4_phases(pole: LorentzPole, phases, t0):
    """Integrate y'' + 2 dp y' + wp^2 y = f(t) from rest at t0 through a
    list of phases.

    Each phase is (duration, n_steps, forcing) with `forcing` either a
    constant or a callable of t; the right-hand side is smooth inside a
    phase, so classical RK4 keeps full order across rectangle edges.
    Returns the sampled mesh (times, y, y'), kept in 8-byte array("d") slots.
    """
    wp2 = pole.omega_p**2
    two_dp = 2.0 * pole.delta_p
    times = array("d", [t0])
    ys = array("d", [0.0])
    vs = array("d", [0.0])
    t, y, v = t0, 0.0, 0.0
    for duration, n_steps, forcing in phases:
        h = duration / n_steps
        const = not callable(forcing)
        for _ in range(n_steps):
            if const:
                f1 = f2 = f3 = f4 = forcing
            else:
                f1 = forcing(t)
                f2 = f3 = forcing(t + 0.5 * h)
                f4 = forcing(t + h)
            k1y = v
            k1v = f1 - two_dp * v - wp2 * y
            y2 = y + 0.5 * h * k1y
            v2 = v + 0.5 * h * k1v
            k2y = v2
            k2v = f2 - two_dp * v2 - wp2 * y2
            y3 = y + 0.5 * h * k2y
            v3 = v + 0.5 * h * k2v
            k3y = v3
            k3v = f3 - two_dp * v3 - wp2 * y3
            y4 = y + h * k3y
            v4 = v + h * k3v
            k4y = v4
            k4v = f4 - two_dp * v4 - wp2 * y4
            y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            t += h
            times.append(t)
            ys.append(y)
            vs.append(v)
    return np.asarray(times), np.asarray(ys), np.asarray(vs)


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
    times, ys, vs = _rk4_phases(
        pole,
        phases=[(dt, n_in, 1.0), (n_free * h, n_free, 0.0)],
        t0=t_n - 0.5 * dt,
    )
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
    phases = [(dt, n_in, pole.strength * float(en)) for en in e]
    times, ys, vs = _rk4_phases(pole, phases, t0=-0.5 * dt)
    return OdeTrace(times, ys, vs)


def smooth_drive_rk4(pole: LorentzPole, drive, t_end: float, fine_step: float) -> OdeTrace:
    """Integrate the polarization ODE under a smooth drive E(t) from rest
    at t = 0.  Reference for temporal-order studies against the staircase
    solution."""
    n = max(int(np.ceil(t_end / fine_step)), 1)
    strength = pole.strength
    # float(): the same double, so RK4 runs on Python floats, not numpy scalars
    times, ys, vs = _rk4_phases(
        pole, phases=[(t_end, n, lambda t: float(strength * drive(t)))], t0=0.0
    )
    return OdeTrace(times, ys, vs)
