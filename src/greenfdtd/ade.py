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
ndarray) form, on the plain pair (P^N, P^{N-1}), each a scalar or an
ndarray with one entry per cell; a fresh state is (0.0, 0.0).  The grid
solver steps all poles of a medium in one matrix product, with each
pole's state kept as (P^N, P^N - P^{N-1}) and the constants of
`ade_coefficients` divided by d (`adem_block`), so the current needs no
difference of two polarizations and the two forms agree to rounding
(see the fdtd module).  The update is real throughout, so unlike the
"tgm" path there is no realness check, at build time or per step.
"""

from __future__ import annotations

from .dispersion import POSITIVE, SQUARABLE, LorentzPole, check_value


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


def ade_advance(state, e_now, pole: LorentzPole, dt: float):
    """One explicit step from state = (P^N, P^{N-1}); returns the new
    state (P^{N+1}, P^N)."""
    a, b, k, d = ade_coefficients(pole, dt)
    p_now, p_prev = state
    return (a * p_now - b * p_prev + k * e_now) / d, p_now


def ade_current_half_step(state_after_advance, dt: float):
    """dP/dt at t_N + dt/2: central difference of the advanced state
    (P^{N+1}, P^N), (P^{N+1} - P^N)/dt."""
    p_next, p_now = state_after_advance
    return (p_next - p_now) / dt
