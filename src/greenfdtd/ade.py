"""Auxiliary-differential-equation polarization update ("adem" method).

Comparison baseline: the oscillator ODE

    wp^2 P + 2 dp dP/dt + d2P/dt2 = eps0 deps wp^2 E

is stepped with central differences for both derivatives, E sampled at
integer steps, solved explicitly for P^{N+1}:

    P^{N+1} = [ (2 - wp^2 dt^2) P^N - (1 - dp dt) P^{N-1}
                + eps0 deps wp^2 dt^2 E^N ] / (1 + dp dt)

A two-level history per cell replaces the complex accumulators.  The
half-step current the leapfrog consumes is the central difference
(P^{N+1} - P^N)/dt.  Explicit and second order like the recursive
Green-function update, so the two methods are structurally comparable.
Stability requires wp*dt well below 2; no hard check is made.

`ade_advance` and `ade_current_half_step` are the scalar (or one-pole
ndarray) form; the grid solver steps all poles of a medium in one matrix
product, with each pole's state kept as (P^N, P^N - P^{N-1}) and the
constants of `ade_coefficients` divided by d (`adem_block`), so the
current needs no difference of two polarizations and the two forms
agree to rounding (see the fdtd module).  The update is real
throughout, so unlike the "tgm" path there is no realness check, at
build time or per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import POSITIVE, SQUARABLE, LorentzPole, check_value


@dataclass
class AdePoleState:
    """Two-level polarization history (p_now = P^N, p_prev = P^{N-1}).

    Fields may be scalars or ndarrays (one per cell); fresh states are zero.
    """

    p_now: float | np.ndarray = 0.0
    p_prev: float | np.ndarray = 0.0


def ade_coefficients(pole: LorentzPole, dt: float):
    """Constants (a, b, k, d) of P^{N+1} = (a P^N - b P^{N-1} + k E^N) / d."""
    check_value("dt", dt, POSITIVE)
    check_value("omega_p * dt", pole.omega_p * dt, SQUARABLE)
    wp2dt2 = (pole.omega_p * dt) ** 2
    return (
        2.0 - wp2dt2,
        1.0 - pole.delta_p * dt,
        pole.strength * dt * dt,
        1.0 + pole.delta_p * dt,
    )


def adem_block(pole: LorentzPole, dt: float, scale: float):
    """(A, inject, curr, curr_e) of one pole in the grid's state-space
    bank (bank.pole_matrix).  The state is (P^N, D^N = P^N - P^{N-1}), so
    ade_advance reads D^{N+1} = (-c P^N + b D^N + k E^N)/d,
    P^{N+1} = P^N + D^{N+1}, and the scaled current is scale*D^{N+1}/dt,
    with no difference of two polarizations; c = (d - a) + b is exact
    while wp dt and dp dt are small (Sterbenz), so it is the scalar
    update's own wp^2 dt^2."""
    a, b, k, d = ade_coefficients(pole, dt)
    c, b, k, s = ((d - a) + b) / d, b / d, k / d, scale / dt
    return [[1.0 - c, b], [-c, b]], (k, k), (-s * c, s * b), s * k


def ade_advance(state: AdePoleState, e_now, pole: LorentzPole, dt: float):
    """One explicit step; returns (new_state, p_next) with p_next = P^{N+1}."""
    a, b, k, d = ade_coefficients(pole, dt)
    p_next = (a * state.p_now - b * state.p_prev + k * e_now) / d
    return AdePoleState(p_now=p_next, p_prev=state.p_now), p_next


def ade_current_half_step(state_after_advance: AdePoleState, dt: float):
    """dP/dt at t_N + dt/2: central difference of the advanced state,
    (P^{N+1} - P^N)/dt."""
    return (state_after_advance.p_now - state_after_advance.p_prev) / dt
