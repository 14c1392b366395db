"""Recursive Green-function polarization update ("tgm" method).

The polarization of one Lorentz pole driven by a sampled field E^n is the
superposition of closed-form responses to unit rectangles of width dt
centered on the sample times.  Because each response is a pair of complex
exponentials exp(i*z+/-*(t - t_n)), the whole history collapses into two
complex accumulators per cell,

    F+/-(N) = F+/-(N-1) * exp(i*z+/- dt) + w+/- * E^N,

with w+/- = (e^{i z dt/2} - e^{-i z dt/2}) / (z (z_opp - z)).  One complex
multiply-add per accumulator per step replaces the O(N) convolution sum,
and both P and dP/dt are then available at any offset within the step by
multiplying with precomputed phase factors.  dP/dt at the half step
t_N + dt/2 is what the leapfrog field update consumes.

Only `make_coefficients` computes w+/- (the strength eps0 deps wp^2 is
`LorentzPole.strength`).  The scheme assumes a uniform dt: PoleCoefficients
are baked for one step size and must be rebuilt if dt changes.  All
functions accept scalar or ndarray-valued states (one entry per cell).

Under real drive the minus branch mirrors the plus branch: F- == conj(F+)
for an underdamped pole, and both accumulators are real for an
overdamped one.  The grid solver relies on this to step an underdamped
pole as the real and imaginary parts of F+ alone (current
2 Re(curr+ F+)) and an overdamped pole as the real F+ and F-, all as
rows of one real state-space bank (`tgm_block`, assembled by
bank.pole_matrix), so it checks the coefficients once per pole with
`check_branch_symmetry` when the block is built, not at every step, and
`verify` reports the same `branch_residuals`.  Complex +, * and exp
commute with conjugation, so those residuals are exactly 0.0 for
`make_coefficients`.  The scalar form below (`PoleState` to
`polarization_current_half_step`, each value checked for an imaginary
residual) is not stepped by the package: it is the tests' bit-pinned
reference, and perfbench's tracer wraps `advance_state`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import POSITIVE, LorentzPole, check_value, pole_roots
from .errors import ValidationError

# Relative imaginary residual above which a nominally real output is
# treated as evidence of a coefficient bug rather than silently truncated.
IMAG_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class PoleCoefficients:
    """Per-pole, per-dt constants of the recurrence.

    prop_+/-    step propagators exp(i z+/- dt), |prop| <= 1 for delta_p >= 0
    inject_+/-  injection weights w+/- multiplying E^N, units s^2
    curr_+/-    half-step current weights i strength z exp(i z dt/2)
    """

    z_plus: complex
    z_minus: complex
    prop_plus: complex
    prop_minus: complex
    inject_plus: complex
    inject_minus: complex
    curr_plus: complex
    curr_minus: complex
    dt: float


@dataclass
class PoleState:
    """Complex accumulators F+ and F- for one pole.

    Fields may be complex scalars or complex ndarrays (one per cell).
    Fresh states are zero: there is no field history before t0.
    """

    f_plus: complex | np.ndarray = 0j
    f_minus: complex | np.ndarray = 0j


def make_coefficients(pole: LorentzPole, dt: float) -> PoleCoefficients:
    """Bake the recurrence constants for one pole at a fixed step dt."""
    check_value("dt", dt, POSITIVE)
    zp, zm = pole_roots(pole)
    half_p = np.exp(0.5j * zp * dt)
    half_m = np.exp(0.5j * zm * dt)
    inj_p = (half_p - 1.0 / half_p) / (zp * (zm - zp))
    inj_m = (half_m - 1.0 / half_m) / (zm * (zp - zm))
    return PoleCoefficients(
        z_plus=zp,
        z_minus=zm,
        prop_plus=complex(np.exp(1j * zp * dt)),
        prop_minus=complex(np.exp(1j * zm * dt)),
        inject_plus=complex(inj_p),
        inject_minus=complex(inj_m),
        curr_plus=complex(1j * pole.strength * zp * half_p),
        curr_minus=complex(1j * pole.strength * zm * half_m),
        dt=dt,
    )


def green_function(pole: LorentzPole, t, dt: float):
    """Closed-form response at time(s) t to the unit rectangle on
    [-dt/2, dt/2]: a float, or an array for array-valued t.  The response
    to the rectangle centered at t_n is this one at t - t_n.

    Valid only after the rectangle has ended, t >= dt/2 for every
    element.  The two residue terms are conjugate (underdamped) or
    individually real (overdamped); the imaginary residual of their sum
    is asserted small and discarded.
    """
    tau = np.asarray(t, dtype=float)
    if np.any(tau < 0.5 * dt * (1.0 - 1e-12)):
        raise ValidationError(
            f"green_function is the post-impulse branch: need t >= dt/2, "
            f"got t={float(np.min(tau))!r} with dt={dt!r}"
        )
    c = make_coefficients(pole, dt)
    term_p = c.inject_plus * np.exp(1j * c.z_plus * tau)
    term_m = c.inject_minus * np.exp(1j * c.z_minus * tau)
    return _real_part(term_p, term_m, "green_function")


def advance_state(state: PoleState, e_now, coeffs: PoleCoefficients) -> PoleState:
    """One recurrence step: fold the sample E^N into the accumulators.

    Exactly one multiply-add per accumulator; no history is retained.
    """
    return PoleState(
        f_plus=state.f_plus * coeffs.prop_plus + coeffs.inject_plus * e_now,
        f_minus=state.f_minus * coeffs.prop_minus + coeffs.inject_minus * e_now,
    )


def polarization(state: PoleState, pole: LorentzPole, coeffs: PoleCoefficients, tau: float):
    """Polarization P at time t_N + tau, 0 <= tau <= dt, from the current
    accumulators (last injected sample was E^N)."""
    if not 0.0 <= tau <= coeffs.dt * (1.0 + 1e-12):
        raise ValidationError(f"tau must lie within one step [0, dt], got {tau!r}")
    term_p = pole.strength * np.exp(1j * coeffs.z_plus * tau) * state.f_plus
    term_m = pole.strength * np.exp(1j * coeffs.z_minus * tau) * state.f_minus
    return _real_part(term_p, term_m, "polarization")


def polarization_current_half_step(state: PoleState, coeffs: PoleCoefficients):
    """dP/dt at t_N + dt/2, the value the leapfrog field update consumes.

    Ordering contract: E^N must already have been injected via
    advance_state before asking for this step's half-step current.
    """
    term_p = coeffs.curr_plus * state.f_plus
    term_m = coeffs.curr_minus * state.f_minus
    return _real_part(term_p, term_m, "polarization_current_half_step")


def branch_residuals(pole: LorentzPole, coeffs: PoleCoefficients) -> dict:
    """{requirement: relative residual} of the branch symmetry that keeps
    F- == conj(F+) (underdamped pole) or both accumulators real
    (overdamped pole) under real drive: the minus-branch prop, inject and
    curr against the conjugates of the plus branch, or the imaginary part
    of each of the six values.  Exactly 0.0 for make_coefficients."""
    resid = {}
    for name in ("prop", "inject", "curr"):
        plus, minus = getattr(coeffs, f"{name}_plus"), getattr(coeffs, f"{name}_minus")
        if pole.overdamped:
            pairs = {f"{name}_plus real": (plus.imag, plus),
                     f"{name}_minus real": (minus.imag, minus)}
        else:
            pairs = {f"{name}_minus == conj({name}_plus)": (minus - plus.conjugate(), plus)}
        resid.update((what, abs(r) / max(abs(s), 1e-300)) for what, (r, s) in pairs.items())
    return resid


def check_branch_symmetry(pole: LorentzPole, coeffs: PoleCoefficients) -> None:
    """Raise ValidationError naming the first branch residual above
    IMAG_RESIDUAL_RTOL."""
    for what, resid in branch_residuals(pole, coeffs).items():
        if not resid <= IMAG_RESIDUAL_RTOL:
            raise ValidationError(f"{pole}: needs {what}, relative residual {resid:.3e} "
                                  f"exceeds {IMAG_RESIDUAL_RTOL:.0e}")


def tgm_block(pole: LorentzPole, dt: float, scale: float):
    """(A, inject, curr, curr_e) of one pole in the grid's state-space
    bank (bank.pole_matrix).  The state is G = F/inject, so
    F <- F*prop + inject*E^N is G <- G*prop + E^N and the scaled current
    scale*Re(curr*F) is Re(w*G), w = curr*inject*scale: (Re G+, Im G+)
    with curr = 2 curr+ for an underdamped pole (real drive keeps
    F- == conj(F+)), the real G+ and G- for an overdamped one, as
    check_branch_symmetry vouches."""
    c = make_coefficients(pole, dt)
    check_branch_symmetry(pole, c)
    if pole.overdamped:
        prop = np.array([c.prop_plus.real, c.prop_minus.real])
        w = np.array([(c.curr_plus * c.inject_plus).real,
                      (c.curr_minus * c.inject_minus).real]) * scale
        return np.diag(prop), (1.0, 1.0), w * prop, w.sum()
    a, b = c.prop_plus.real, c.prop_plus.imag
    w = 2.0 * c.curr_plus * c.inject_plus * scale
    return ([[a, -b], [b, a]], (1.0, 0.0),
            (w.real * a - w.imag * b, -w.real * b - w.imag * a), w.real)


def polarization_row(pole: LorentzPole, dt: float):
    """Row r with P(t_N + dt/2) = r . G over the two states G of
    tgm_block (after E^N is injected), the half step at which the grid
    reads the current: P = strength sum e^{i z dt/2} inject G, so
    r = 2 (Re w, -Im w) with w = strength e^{i z+ dt/2} inject+ for an
    underdamped pole, and the real w+ and w- for an overdamped one."""
    c, tau = make_coefficients(pole, dt), 0.5 * dt
    w_plus = pole.strength * np.exp(1j * c.z_plus * tau) * c.inject_plus
    if pole.overdamped:
        w_minus = pole.strength * np.exp(1j * c.z_minus * tau) * c.inject_minus
        return np.array([w_plus.real, w_minus.real])
    return 2.0 * np.array([w_plus.real, -w_plus.imag])


def _real_part(term_p, term_m, what: str):
    total = term_p + term_m
    scale = np.abs(term_p) + np.abs(term_m)
    resid = np.abs(np.imag(total))
    if not np.all(resid <= IMAG_RESIDUAL_RTOL * scale):
        worst = float(np.max(resid / np.where(scale > 0, scale, 1.0)))
        raise ValidationError(f"{what}: imaginary residual {worst:.3e} exceeds "
                              f"{IMAG_RESIDUAL_RTOL:.0e} of the magnitude scale")
    return float(np.real(total)) if np.ndim(total) == 0 else np.real(total)
