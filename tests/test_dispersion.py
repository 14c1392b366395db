"""Frequency-domain material model: types, operations, invariants."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenfdtd.dispersion import (
    LorentzPole,
    Medium,
    permittivity,
    pole_roots,
    reflection_coefficient,
)
from greenfdtd.errors import ValidationError

WP = 2 * math.pi * 20e9
TABLE1_POLE = LorentzPole(delta_eps=3.0, omega_p=WP, delta_p=0.1 * WP)
TABLE1_MEDIUM = Medium(eps_inf=1.5, sigma=0.0, poles=(TABLE1_POLE,))


def poles(min_ratio=0.0, max_ratio=3.0):
    """Valid LorentzPole strategy; damping ratio kept away from 1."""
    return st.builds(
        LorentzPole,
        delta_eps=st.floats(0.01, 10.0),
        omega_p=st.floats(1e6, 1e13),
        delta_p=st.just(0.0),
    ).flatmap(
        lambda p: st.floats(min_ratio, max_ratio).filter(
            lambda r: abs(r - 1.0) > 1e-2
        ).map(lambda r: LorentzPole(p.delta_eps, p.omega_p, r * p.omega_p))
    )


class TestTypes:
    def test_pole_invariants(self):
        with pytest.raises(ValueError):
            LorentzPole(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            LorentzPole(1.0, 1.0, -0.1)
        with pytest.raises(ValidationError, match="critically damped"):
            LorentzPole(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("delta_eps", [0.0, -2.0, math.nan])
    def test_pole_strength_must_be_positive(self, delta_eps):
        # zero does nothing and a negative strength is a gain medium, whose
        # static permittivity may not even be positive
        with pytest.raises(ValueError, match="delta_eps must be positive"):
            LorentzPole(delta_eps, 1.0, 0.1)

    def test_medium_invariants(self):
        with pytest.raises(ValueError):
            Medium(eps_inf=0.0)
        with pytest.raises(ValueError):
            Medium(eps_inf=1.0, sigma=-1.0)
        # eps_inf below 1 is allowed, only positivity is required
        Medium(eps_inf=0.5)

    def test_vacuum_representation(self):
        v = Medium.vacuum()
        assert v.eps_inf == 1.0 and v.sigma == 0.0 and v.poles == ()
        assert not v.dispersive
        assert v.eps_static == 1.0

    def test_eps_static(self):
        assert TABLE1_MEDIUM.eps_static == pytest.approx(4.5)


class TestPermittivity:
    def test_vacuum_any_omega(self):
        for w in (0.0, 1e9, -3e11):
            assert permittivity(Medium.vacuum(), w) == 1.0 + 0.0j

    def test_static_limit(self):
        assert permittivity(TABLE1_MEDIUM, 0.0) == pytest.approx(4.5 + 0.0j)

    def test_at_resonance(self):
        # resonant term collapses to delta_eps / (0.2i) = -15i
        expected = 1.5 + 3.0 / 0.2j
        got = permittivity(TABLE1_MEDIUM, WP)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.5 - 15.0j, rel=1e-12)

    def test_independent_rational_evaluation(self):
        # cross-check against a literal cmath evaluation of the same rational
        for f in (1e9, 7e9, 23e9, 180e9):
            w = 2 * math.pi * f
            denom = WP**2 + 2j * w * (0.1 * WP) - w**2
            expected = 1.5 + 3.0 * WP**2 / denom
            assert permittivity(TABLE1_MEDIUM, w) == pytest.approx(expected, rel=1e-13)

    def test_undamped_resonance_error(self):
        m = Medium(eps_inf=1.0, poles=(LorentzPole(1.0, 1e10, 0.0),))
        with pytest.raises(ValidationError, match="permittivity diverges"):
            permittivity(m, 1e10)
        with pytest.raises(ValidationError, match="permittivity diverges"):
            permittivity(m, -1e10)
        # off resonance is fine
        assert permittivity(m, 0.5e10) == pytest.approx(1.0 + 1.0 / (1 - 0.25))

    def test_vectorized_matches_scalar(self):
        w = np.array([0.0, 1e10, -1e10, 3e11])
        vec = permittivity(TABLE1_MEDIUM, w)
        for wi, ei in zip(w, vec):
            assert permittivity(TABLE1_MEDIUM, float(wi)) == pytest.approx(ei)

    @settings(max_examples=50, deadline=None)
    @given(poles(), st.floats(-5.0, 5.0))
    @example(LorentzPole(1.0, 1e10, 0.0), 1.0)
    @example(LorentzPole(1.0, 1e10, 0.0), -1.0)
    def test_conjugate_symmetry(self, pole, wr):
        m = Medium(eps_inf=2.0, poles=(pole,))
        w = wr * pole.omega_p
        if pole.delta_p == 0.0 and w * w == pole.omega_p**2:
            # undamped pole exactly at resonance: the documented divergence
            for sign in (1.0, -1.0):
                with pytest.raises(ValidationError, match="permittivity diverges"):
                    permittivity(m, sign * w)
            return
        assert permittivity(m, -w) == pytest.approx(
            permittivity(m, w).conjugate(), rel=1e-12, abs=1e-12
        )

    def test_high_frequency_limit(self):
        eps = permittivity(TABLE1_MEDIUM, 100 * WP)
        assert abs(eps - 1.5) < 1e-3 * 3.0


class TestPoleRoots:
    def test_undamped(self):
        zp, zm = pole_roots(LorentzPole(1.0, 1.0, 0.0))
        assert zp == pytest.approx(1.0)
        assert zm == pytest.approx(-1.0)

    def test_table1(self):
        zp, zm = pole_roots(TABLE1_POLE)
        assert zp.imag == pytest.approx(0.1 * WP, rel=1e-12)
        assert zm.imag == pytest.approx(0.1 * WP, rel=1e-12)
        assert abs(zp) ** 2 == pytest.approx(WP**2, rel=1e-12)
        assert zp.real == pytest.approx(WP * math.sqrt(0.99), rel=1e-12)
        assert zm == pytest.approx(-zp.conjugate())

    def test_overdamped(self):
        zp, zm = pole_roots(LorentzPole(1.0, 1.0, 2.0))
        assert zp == pytest.approx(1j * (2 + math.sqrt(3.0)))
        assert zm == pytest.approx(1j * (2 - math.sqrt(3.0)))
        assert zp != zm

    @settings(max_examples=60, deadline=None)
    @given(poles())
    def test_roots_satisfy_characteristic_equation(self, pole):
        for z in pole_roots(pole):
            resid = pole.omega_p**2 + 2j * z * pole.delta_p - z * z
            assert abs(resid) < 1e-12 * pole.omega_p**2


class TestReflectionCoefficient:
    def test_vacuum(self):
        for w in (0.0, 1e10, 5e11):
            assert reflection_coefficient(Medium.vacuum(), w) == 0.0 + 0.0j

    def test_static(self):
        expected = (math.sqrt(4.5) - 1) / (math.sqrt(4.5) + 1)
        assert abs(reflection_coefficient(TABLE1_MEDIUM, 0.0)) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(0.3592, abs=5e-5)

    def test_at_resonance(self):
        # independent route: cmath on the frozen permittivity value
        n = cmath.sqrt(1.5 - 15.0j)
        expected = abs((n - 1) / (n + 1))
        got = abs(reflection_coefficient(TABLE1_MEDIUM, WP))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.6874, abs=5e-4)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            reflection_coefficient(TABLE1_MEDIUM, -1.0)

    def test_passivity_over_band(self):
        w = 2 * np.pi * np.linspace(0.0, 200e9, 4001)
        r = np.abs(reflection_coefficient(TABLE1_MEDIUM, w))
        assert np.all(r <= 1.0)
        assert np.all(r >= 0.0)

    def test_principal_branch_decaying_transmission(self):
        # principal sqrt puts Im(n) <= 0 with this sign convention for
        # passive media: exp(-i w n x / c) then decays going into the slab
        w = 2 * np.pi * np.linspace(1e9, 200e9, 101)
        n = np.sqrt(permittivity(TABLE1_MEDIUM, w))
        assert np.all(n.imag <= 1e-15)
