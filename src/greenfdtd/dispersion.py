"""Frequency-domain Lorentz material model.

A medium is a high-frequency permittivity eps_inf, a conductivity sigma,
and a set of damped-oscillator poles.  Each pole contributes

    delta_eps * omega_p^2 / (omega_p^2 + 2i*omega*delta_p - omega^2)

to the relative permittivity.  This module also provides the complex
oscillator roots z+/z- used by the time-domain updaters and the analytic
normal-incidence reflection coefficient used as the oracle for the
half-space experiment.

Everything here is a pure function over immutable values and is safe to
call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .constants import EPS0
from .errors import ValidationError


POSITIVE = (numbers.Real, lambda x: 0.0 < x < math.inf, "positive and finite")
NON_NEGATIVE = (numbers.Real, lambda x: 0.0 <= x < math.inf, "non-negative and finite")
FINITE = (numbers.Real, math.isfinite, "finite")
COUNT = (numbers.Integral, lambda n: n >= 0, "a non-negative integer")
# a pole's rates: below 1e154 their squares are finite floats, and from
# 1e-300 up so are the spans of resonance periods that verify steps
SQUARABLE = (numbers.Real, lambda x: 0.0 <= x < 1e154, "non-negative and below 1e154")
RATE = (numbers.Real, lambda x: 1e-300 <= x < 1e154, "at least 1e-300 and below 1e154")


def check_value(name, x, domain, *note):
    """ValidationError "<name> must be <phrase>, got <x!r><note>" when x is
    a bool, not of the domain (type, test, phrase)'s type or fails its
    test: a bool is never in a domain."""
    kind, test, phrase = domain
    if isinstance(x, bool) or not isinstance(x, kind) or not test(x):
        raise ValidationError(f"{name} must be {phrase}, got {x!r}{''.join(note)}")


def check_fields(value, rows):
    """check_value of each row (attribute, name, domain[, note]), in order,
    on that attribute of `value`."""
    for attr, name, domain, *note in rows:
        check_value(name, getattr(value, attr), domain, *note)


@dataclass(frozen=True)
class LorentzPole:
    """One damped-oscillator resonance.

    delta_eps : dimensionless oscillator strength (> 0)
    omega_p   : resonance angular frequency, rad/s (in [1e-300, 1e154))
    delta_p   : damping rate, rad/s (in [0, 1e154), not within 1e-9 of omega_p)
    """

    delta_eps: float
    omega_p: float
    delta_p: float

    DOMAINS = (("delta_eps", "delta_eps", POSITIVE,
                ": a zero pole does nothing and a negative one is a gain medium"),
               ("omega_p", "omega_p", RATE), ("delta_p", "delta_p", SQUARABLE))
    def __post_init__(self):
        check_fields(self, self.DOMAINS)
        if abs(self.delta_p - self.omega_p) <= 1e-9 * self.omega_p:
            raise ValidationError(
                f"delta_p == omega_p ({self.omega_p}): critically damped pole "
                "has a double root and is not supported"
            )

    @property
    def overdamped(self) -> bool:
        return self.delta_p > self.omega_p

    @property
    def strength(self) -> float:
        """eps0 delta_eps omega_p^2, the E coefficient of the oscillator ODE for P."""
        return EPS0 * self.delta_eps * self.omega_p**2


@dataclass(frozen=True)
class Medium:
    """Material description: eps_inf, conductivity and Lorentz poles.

    Vacuum is Medium(eps_inf=1.0, sigma=0.0, poles=()).
    """

    eps_inf: float = 1.0
    sigma: float = 0.0
    poles: tuple = field(default_factory=tuple)

    # like SimConfig's source and medium rows, poles has no section: no key reads it
    DOMAINS = (("eps_inf", "medium.eps_inf", POSITIVE), ("sigma", "medium.sigma", NON_NEGATIVE),
               ("poles", "poles", ((tuple, list), lambda ps: all(
                   isinstance(p, LorentzPole) for p in ps), "a tuple or list of LorentzPoles")))
    def __post_init__(self):
        check_fields(self, self.DOMAINS)
        object.__setattr__(self, "poles", tuple(self.poles))

    @classmethod
    def vacuum(cls) -> "Medium":
        return cls(eps_inf=1.0, sigma=0.0, poles=())

    @property
    def eps_static(self) -> float:
        """Zero-frequency relative permittivity eps_inf + sum(delta_eps)."""
        return self.eps_inf + sum(p.delta_eps for p in self.poles)

    @property
    def dispersive(self) -> bool:
        return len(self.poles) > 0


def permittivity(medium: Medium, omega):
    """Complex relative permittivity at angular frequency omega (rad/s).

    omega may be a scalar or an ndarray; it may be zero or negative.
    ValidationError if an undamped pole is evaluated at +/-omega_p.
    """
    w = np.asarray(omega, dtype=float)
    eps = np.full(w.shape, medium.eps_inf, dtype=complex)
    for p in medium.poles:
        denom = p.omega_p**2 + 2j * w * p.delta_p - w * w
        if np.any(denom == 0):
            raise ValidationError(
                f"permittivity diverges: undamped pole omega_p={p.omega_p} "
                "evaluated at its resonance"
            )
        eps += p.delta_eps * p.omega_p**2 / denom
    if w.ndim == 0:
        return complex(eps[()])
    return eps


def pole_roots(pole: LorentzPole):
    """Complex angular frequencies z+ and z- of the oscillator.

    z+/- = i*delta_p +/- sqrt(omega_p^2 - delta_p^2), principal branch.
    Underdamped poles give a conjugate-like pair (z- == -conj(z+));
    overdamped poles give two distinct purely imaginary roots.
    """
    s = np.sqrt(complex(pole.omega_p**2 - pole.delta_p**2, 0.0))
    z_plus = 1j * pole.delta_p + s
    z_minus = 1j * pole.delta_p - s
    return complex(z_plus), complex(z_minus)


def reflection_coefficient(medium: Medium, omega):
    """Normal-incidence reflection coefficient of a half-space of `medium`
    against vacuum, (sqrt(eps) - 1) / (sqrt(eps) + 1), principal sqrt.

    Valid for non-magnetic media only.  omega must be >= 0.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValidationError("reflection_coefficient requires omega >= 0")
    n = np.sqrt(np.asarray(permittivity(medium, w), dtype=complex))
    r = (n - 1.0) / (n + 1.0)
    if w.ndim == 0:
        return complex(r[()])
    return r
