"""ADE baseline updater: fixed point, steady state, O(dt^2) agreement."""

import math

import numpy as np
import pytest

from greenfdtd.ade import ade_advance, ade_coefficients, ade_current_half_step
from greenfdtd.constants import C0, EPS0
from greenfdtd.dispersion import LorentzPole
from greenfdtd.errors import ValidationError
from greenfdtd.greens import advance_state, make_coefficients, polarization

WP = 2 * math.pi * 20e9
TABLE1_POLE = LorentzPole(delta_eps=3.0, omega_p=WP, delta_p=0.1 * WP)
TABLE1_DT = 0.9 * (0.05 / 2999) / C0


def run_ade(pole, dt, e_history):
    state = (0.0, 0.0)
    ps = []
    for e in e_history:
        state = ade_advance(state, e, pole, dt)
        ps.append(state[0])
    return state, np.array(ps)


class TestAdeUpdate:
    def test_zero_in_zero_out(self):
        state, ps = run_ade(TABLE1_POLE, TABLE1_DT, [0.0] * 5)
        assert np.all(ps == 0.0)
        assert ade_current_half_step(state, TABLE1_DT) == 0.0

    def test_steady_state(self):
        e0 = 1.0
        n = int(math.ceil(10.0 / (TABLE1_POLE.delta_p * TABLE1_DT)))
        state, ps = run_ade(TABLE1_POLE, TABLE1_DT, np.full(n, e0))
        target = EPS0 * 3.0 * e0
        assert ps[-1] == pytest.approx(target, rel=1e-3)
        assert abs(ade_current_half_step(state, TABLE1_DT)) < 1e-3 * target / TABLE1_DT * (
            TABLE1_POLE.delta_p * TABLE1_DT
        )

    def test_fixed_point_exact(self):
        p_star = EPS0 * TABLE1_POLE.delta_eps * 1.0
        state = (p_star, p_star)
        new_state = ade_advance(state, 1.0, TABLE1_POLE, TABLE1_DT)
        p_next = new_state[0]
        assert p_next == pytest.approx(p_star, rel=5e-15)
        assert abs(ade_current_half_step(new_state, TABLE1_DT)) < 5e-15 * p_star / TABLE1_DT

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            ade_advance((0.0, 0.0), 1.0, TABLE1_POLE, -1.0)

    def test_coefficients_reject_infinite_step(self):
        # they were (-inf, -inf, inf, inf), without a warning
        with pytest.raises(ValueError, match="^dt must be positive and finite, got inf$"):
            ade_coefficients(TABLE1_POLE, math.inf)

    def test_coefficients_reject_bool_step(self):
        # True was read as dt = 1 s
        with pytest.raises(ValidationError, match="^dt must be positive and finite, got True$"):
            ade_coefficients(TABLE1_POLE, True)

    def test_bounded_under_pulsed_drive(self):
        # damped pole driven by a compact pulse must ring down, not grow;
        # record spans ~12 damping times
        n = 20000
        ts = np.arange(n) * TABLE1_DT
        drive = np.exp(-((ts - 30 * TABLE1_DT) / (8 * TABLE1_DT)) ** 2)
        _, ps = run_ade(TABLE1_POLE, TABLE1_DT, drive)
        peak = np.abs(ps).max()
        assert np.abs(ps[-500:]).max() < 1e-4 * peak


class TestMethodAgreement:
    def run_tgm(self, pole, dt, e_history):
        coeffs = make_coefficients(pole, dt)
        state = (0j, 0j)
        ps = []
        for e in e_history:
            state = advance_state(state, e, coeffs)
            ps.append(polarization(state, pole, coeffs, 0.0))
        return np.array(ps)

    def sinusoid_discrepancy(self, dt, n_periods=4):
        w_drive = 2 * math.pi * 10e9
        n = int(round(n_periods * 2 * math.pi / w_drive / dt))
        e = np.sin(w_drive * np.arange(n) * dt)
        ps_ade = run_ade(TABLE1_POLE, dt, e)[1]
        ps_tgm = self.run_tgm(TABLE1_POLE, dt, e)
        # ADE's p_next is P^{N+1}; TGM evaluated at tau=0 is P^N: compare
        # aligned levels
        return np.abs(ps_ade[:-1] - ps_tgm[1:]).max()

    def test_sinusoid_agreement_second_order(self):
        dt = TABLE1_DT * 8
        d1 = self.sinusoid_discrepancy(dt)
        d2 = self.sinusoid_discrepancy(dt / 2)
        assert d1 / d2 == pytest.approx(4.0, rel=0.35)

    def test_ramp_current_agreement_second_order(self):
        t_total = 400 * TABLE1_DT * 8

        def discrepancy(dt):
            n = int(round(t_total / dt))
            ts = np.arange(n) * dt
            ramp = ts / t_total
            astate = (0.0, 0.0)
            coeffs = make_coefficients(TABLE1_POLE, dt)
            tstate = (0j, 0j)
            worst = 0.0
            from greenfdtd.greens import polarization_current_half_step
            for e in ramp:
                astate = ade_advance(astate, e, TABLE1_POLE, dt)
                tstate = advance_state(tstate, e, coeffs)
                ja = ade_current_half_step(astate, dt)
                jt = polarization_current_half_step(tstate, coeffs)
                worst = max(worst, abs(ja - jt))
            return worst

        dt = TABLE1_DT * 8
        d1 = discrepancy(dt)
        d2 = discrepancy(dt / 2)
        assert d1 / d2 > 3.0
