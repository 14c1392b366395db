"""Recursive Green-function update against its independent oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfdtd.constants import C0, EPS0
from greenfdtd.dispersion import LorentzPole, pole_roots
from greenfdtd.errors import ValidationError
from greenfdtd.greens import (
    IMAG_RESIDUAL_RTOL,
    PoleCoefficients,
    advance_state,
    branch_residuals,
    check_branch_symmetry,
    green_function,
    make_coefficients,
    polarization,
    polarization_current_half_step,
)
from greenfdtd.oracle import direct_convolution_sum, green_rk4, polarization_rk4

WP = 2 * math.pi * 20e9
TABLE1_POLE = LorentzPole(delta_eps=3.0, omega_p=WP, delta_p=0.1 * WP)
TABLE1_DT = 0.9 * (0.05 / 2999) / C0


def drive_states(pole, dt, e_history):
    coeffs = make_coefficients(pole, dt)
    state = (0j, 0j)
    for e in e_history:
        state = advance_state(state, e, coeffs)
    return state, coeffs


class TestCoefficients:
    def test_lossless_propagator_on_unit_circle(self):
        pole = LorentzPole(1.0, 1.0, 0.0)
        co = make_coefficients(pole, 0.3)
        assert abs(co.prop_plus) == pytest.approx(1.0, abs=1e-15)
        assert abs(co.prop_minus) == pytest.approx(1.0, abs=1e-15)

    def test_infinite_step_rejected(self):
        # it gave NaN coefficients and four RuntimeWarnings
        with pytest.raises(ValueError, match="^dt must be positive and finite, got inf$"):
            make_coefficients(TABLE1_POLE, math.inf)

    def test_bool_step_rejected(self):
        # True was read as dt = 1 s
        with pytest.raises(ValidationError, match="^dt must be positive and finite, got True$"):
            make_coefficients(TABLE1_POLE, True)

    def test_damped_propagator_magnitude(self):
        co = make_coefficients(TABLE1_POLE, TABLE1_DT)
        expected = math.exp(-0.1 * WP * TABLE1_DT)
        assert abs(co.prop_plus) == pytest.approx(expected, rel=1e-12)
        assert abs(co.prop_minus) == pytest.approx(expected, rel=1e-12)
        assert abs(co.prop_plus) < 1.0

    def test_underdamped_conjugate_pairs(self):
        co = make_coefficients(TABLE1_POLE, TABLE1_DT)
        assert co.prop_minus == pytest.approx(co.prop_plus.conjugate(), rel=1e-14)
        assert co.inject_minus == pytest.approx(co.inject_plus.conjugate(), rel=1e-14)
        assert co.curr_minus == pytest.approx(co.curr_plus.conjugate(), rel=1e-14)
        check_branch_symmetry(TABLE1_POLE, co)

    def test_branch_symmetry_check(self):
        # overdamped coefficients are real and pass; a skewed minus branch
        # of either kind is rejected with the pole named
        over = LorentzPole(1.0, 1.0, 2.0)
        check_branch_symmetry(over, make_coefficients(over, 0.3))
        for pole, dt in ((TABLE1_POLE, TABLE1_DT), (over, 0.3)):
            co = make_coefficients(pole, dt)
            broken = dataclasses.replace(co, inject_minus=co.inject_minus * (1.0 + 1e-6j))
            with pytest.raises(ValidationError, match=r"LorentzPole\(.*inject_minus"):
                check_branch_symmetry(pole, broken)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1.5),
           st.one_of(st.just(0.0), st.floats(1e-3, 0.99), st.floats(1.01, 20.0)),
           st.floats(0.1, 10.0))
    def test_branch_residuals_exactly_zero(self, wp_dt, damping, delta_eps):
        # complex +, * and exp commute with conjugation, so the minus branch
        # is the exact conjugate of the plus branch (undamped and
        # underdamped) or every value exactly real (overdamped)
        pole = LorentzPole(delta_eps, WP, damping * WP)
        resid = branch_residuals(pole, make_coefficients(pole, wp_dt / WP))
        assert len(resid) == (6 if pole.overdamped else 3)
        assert all(r == 0.0 for r in resid.values()), resid

    def test_injection_sum_matches_half_step_response(self):
        # w+ e^{iz+ dt/2} + w- e^{iz- dt/2} is the rectangle response right
        # at its trailing edge; compare with the fine ODE integration
        for pole in (TABLE1_POLE, LorentzPole(2.0, 1.0, 0.0), LorentzPole(1.0, 1.0, 2.5)):
            dt = TABLE1_DT if pole.omega_p > 1e6 else 0.2
            co = make_coefficients(pole, dt)
            val = (co.inject_plus * np.exp(0.5j * co.z_plus * dt)
                   + co.inject_minus * np.exp(0.5j * co.z_minus * dt))
            assert abs(val.imag) < 1e-12 * abs(val)
            trace = green_rk4(pole, dt, 1.5 * dt, dt / 1000.0)
            assert val.real == pytest.approx(trace.at(0.5 * dt), rel=1e-7)

    def test_undamped_injection_sum_formula(self):
        # for delta_p = 0 the response at the trailing edge reduces to
        # (2/wp^2) sin^2(wp dt / 2), real
        pole = LorentzPole(1.0, 1.0, 0.0)
        dt = 0.4
        co = make_coefficients(pole, dt)
        val = (co.inject_plus * np.exp(0.5j * co.z_plus * dt)
               + co.inject_minus * np.exp(0.5j * co.z_minus * dt))
        assert val.real == pytest.approx(2.0 * math.sin(0.5 * dt) ** 2, rel=1e-12)
        assert abs(val.imag) < 1e-15

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            make_coefficients(TABLE1_POLE, 0.0)


class TestGreenFunction:
    def test_domain_error_inside_impulse(self):
        with pytest.raises(ValueError):
            green_function(TABLE1_POLE, 0.49 * TABLE1_DT, TABLE1_DT)

    def test_array_of_times(self):
        # one call over an array gives the scalar values bit for bit, and
        # one time inside the impulse rejects the whole array
        taus = (0.5 + 0.37 * np.arange(30)) * TABLE1_DT
        scalar = [green_function(TABLE1_POLE, float(t), TABLE1_DT) for t in taus]
        assert np.array_equal(green_function(TABLE1_POLE, taus, TABLE1_DT), scalar)
        with pytest.raises(ValueError, match="post-impulse"):
            green_function(TABLE1_POLE, np.append(taus, 0.49 * TABLE1_DT), TABLE1_DT)

    def test_against_rk4_at_leading_edge(self):
        trace = green_rk4(TABLE1_POLE, TABLE1_DT, 1.0 * TABLE1_DT, TABLE1_DT / 1000.0)
        got = green_function(TABLE1_POLE, 0.5 * TABLE1_DT, TABLE1_DT)
        assert got == pytest.approx(trace.at(0.5 * TABLE1_DT), rel=1e-6)

    def test_against_rk4_along_tail(self):
        t_end = 15.5 * TABLE1_DT
        trace = green_rk4(TABLE1_POLE, TABLE1_DT, t_end, TABLE1_DT / 1000.0)
        gmax = np.abs(trace.values).max()
        for k in range(30):
            t = 0.5 * TABLE1_DT + 0.5 * k * TABLE1_DT
            rel = abs(green_function(TABLE1_POLE, t, TABLE1_DT) - trace.at(t)) / gmax
            assert rel < 1e-6

    def test_closed_form_from_roots(self):
        """green_function and direct_convolution_sum against the rectangle
        response written out from pole_roots, weights in the exp(+) - exp(-)
        form.  Both take the recurrence's weights (half - 1/half), which
        round differently; where G itself nearly cancels (the rectangle's
        end, an undamped pole a whole period on) that reads up to ~1e-11 of
        G, so the bound is 1e-12 of the response's scale: peak |G| over two
        periods, times eps0 deps wp^2 sum|E_n| for the sum."""
        rng = np.random.default_rng(3)
        for pole, dt in ((TABLE1_POLE, TABLE1_DT), (LorentzPole(1.0, WP, 2.5 * WP), TABLE1_DT),
                         (LorentzPole(2.0, WP, 0.0), TABLE1_DT), (TABLE1_POLE, 0.5 / WP)):
            zp, zm = pole_roots(pole)
            w_p = (np.exp(0.5j * zp * dt) - np.exp(-0.5j * zp * dt)) / (zp * (zm - zp))
            w_m = (np.exp(0.5j * zm * dt) - np.exp(-0.5j * zm * dt)) / (zm * (zp - zm))

            def closed_form(tau):
                return (w_p * np.exp(1j * zp * tau) + w_m * np.exp(1j * zm * tau)).real

            taus = 0.5 * dt + np.linspace(0.0, 4 * math.pi / pole.omega_p, 401)
            ref = closed_form(taus)
            gmax = np.abs(ref).max()
            got = np.array([green_function(pole, t, dt) for t in taus])
            assert np.abs(got - ref).max() <= 1e-12 * gmax
            for n in (1, 11, 2000):
                e = rng.uniform(-1.0, 1.0, n)
                t_eval = (n - 1) * dt + 0.5 * dt
                strength = EPS0 * pole.delta_eps * pole.omega_p**2
                expected = strength * np.sum(e * closed_form(t_eval - dt * np.arange(n)))
                got_sum = direct_convolution_sum(e, pole, dt, t_eval)
                assert abs(got_sum - expected) <= 1e-12 * strength * gmax * np.abs(e).sum()

    def test_damped_response_vanishes(self):
        late = green_function(TABLE1_POLE, 200.0 / (0.1 * WP), TABLE1_DT)
        early = green_function(TABLE1_POLE, 0.5 * TABLE1_DT, TABLE1_DT)
        assert abs(late) < 1e-30 * max(abs(early), 1e-300) + 1e-60

    def test_static_sum_rule(self):
        # unit-high rectangles tile a constant drive: the running sum of
        # responses converges to the ODE's static gain 1/wp^2
        pole = TABLE1_POLE
        dt = TABLE1_DT
        n = int(math.ceil(10.0 / (pole.delta_p * dt)))
        t_eval = n * dt + 0.5 * dt
        ks = np.arange(n + 1)
        taus = t_eval - ks * dt
        total = sum(green_function(pole, float(tau), dt) for tau in taus[taus >= 0.5 * dt])
        assert total == pytest.approx(1.0 / pole.omega_p**2, rel=1e-3)


class TestRecurrence:
    def test_zero_in_zero_out(self):
        state, coeffs = drive_states(TABLE1_POLE, TABLE1_DT, [0.0, 0.0, 0.0])
        assert state[0] == 0.0 and state[1] == 0.0
        assert polarization(state, TABLE1_POLE, coeffs, 0.0) == 0.0
        assert polarization_current_half_step(state, coeffs) == 0.0

    def test_matches_direct_convolution_2000(self):
        rng = np.random.default_rng(42)
        e_hist = rng.uniform(-1.0, 1.0, 2000)
        state, coeffs = drive_states(TABLE1_POLE, TABLE1_DT, e_hist)
        p_rec = polarization(state, TABLE1_POLE, coeffs, 0.5 * TABLE1_DT)
        p_sum = direct_convolution_sum(e_hist, TABLE1_POLE, TABLE1_DT, 1999 * TABLE1_DT + 0.5 * TABLE1_DT)
        assert abs(p_rec - p_sum) <= 1e-10 * max(abs(p_rec), abs(p_sum))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=64),
        st.floats(1e-3, 1.2),
        st.floats(0.0, 2.5).filter(lambda r: abs(r - 1.0) > 1e-2),
    )
    def test_matches_direct_convolution_property(self, e_hist, wpdt, ratio):
        pole = LorentzPole(1.7, 1.0, ratio)
        dt = wpdt
        state, coeffs = drive_states(pole, dt, e_hist)
        n = len(e_hist)
        p_rec = polarization(state, pole, coeffs, 0.5 * dt)
        p_sum = direct_convolution_sum(e_hist, pole, dt, (n - 1) * dt + 0.5 * dt)
        scale = max(abs(p_rec), abs(p_sum), EPS0 * 1e-6)
        assert abs(p_rec - p_sum) <= 1e-9 * scale

    def test_constant_drive_steady_state(self):
        e0 = 2.5
        n = int(math.ceil(10.0 / (TABLE1_POLE.delta_p * TABLE1_DT)))
        state, coeffs = drive_states(TABLE1_POLE, TABLE1_DT, np.full(n, e0))
        target = EPS0 * 3.0 * e0
        for tau in (0.0, 0.5 * TABLE1_DT, TABLE1_DT):
            assert polarization(state, TABLE1_POLE, coeffs, tau) == pytest.approx(target, rel=1e-3)
        # steady state has zero time derivative
        curr = polarization_current_half_step(state, coeffs)
        assert abs(curr) < 1e-3 * target * TABLE1_POLE.omega_p

    def test_linearity(self):
        rng = np.random.default_rng(3)
        e1 = rng.uniform(-1, 1, 300)
        e2 = rng.uniform(-1, 1, 300)
        a, b = 2.5, -1.25
        sa, coeffs = drive_states(TABLE1_POLE, TABLE1_DT, e1)
        sb, _ = drive_states(TABLE1_POLE, TABLE1_DT, e2)
        sab, _ = drive_states(TABLE1_POLE, TABLE1_DT, a * e1 + b * e2)
        combo = a * sa[0] + b * sb[0]
        assert abs(sab[0] - combo) <= 1e-12 * abs(combo)

    def test_conjugacy_underdamped(self):
        rng = np.random.default_rng(5)
        state, _ = drive_states(TABLE1_POLE, TABLE1_DT, rng.uniform(-1, 1, 500))
        assert abs(state[1] - state[0].conjugate()) <= 1e-12 * abs(state[0])

    def test_non_amplification_zero_drive(self):
        rng = np.random.default_rng(6)
        state, coeffs = drive_states(TABLE1_POLE, TABLE1_DT, rng.uniform(-1, 1, 100))
        prev = abs(state[0])
        for _ in range(200):
            state = advance_state(state, 0.0, coeffs)
            mag = abs(state[0])
            assert mag < prev  # strict decay, delta_p > 0
            prev = mag

    def test_array_states_match_scalar(self):
        rng = np.random.default_rng(9)
        e_cols = rng.uniform(-1, 1, (40, 3))
        coeffs = make_coefficients(TABLE1_POLE, TABLE1_DT)
        state = (np.zeros(3, dtype=complex), np.zeros(3, dtype=complex))
        for row in e_cols:
            state = advance_state(state, row, coeffs)
        for c in range(3):
            s_scalar, _ = drive_states(TABLE1_POLE, TABLE1_DT, e_cols[:, c])
            assert state[0][c] == pytest.approx(s_scalar[0], rel=1e-14)

    def test_overdamped_states_real(self):
        pole = LorentzPole(1.0, 1.0, 2.0)
        state, coeffs = drive_states(pole, 0.3, [1.0, -0.5, 2.0])
        assert state[0].imag == pytest.approx(0.0, abs=1e-18)
        assert state[1].imag == pytest.approx(0.0, abs=1e-18)


class TestEvaluators:
    def test_tau_domain(self):
        state, coeffs = drive_states(TABLE1_POLE, TABLE1_DT, [1.0])
        with pytest.raises(ValueError):
            polarization(state, TABLE1_POLE, coeffs, -0.1 * TABLE1_DT)
        with pytest.raises(ValueError):
            polarization(state, TABLE1_POLE, coeffs, 1.5 * TABLE1_DT)

    def test_half_step_polarization_matches_direct_sum(self):
        rng = np.random.default_rng(12)
        e_hist = rng.uniform(-1, 1, 64)
        for pole, dt in ((TABLE1_POLE, TABLE1_DT), (LorentzPole(1.0, 1.0, 2.0), 0.3)):
            state, coeffs = drive_states(pole, dt, e_hist)
            assert polarization(state, pole, coeffs, 0.5 * dt) == pytest.approx(
                direct_convolution_sum(e_hist, pole, dt, 63.5 * dt), rel=1e-12
            )

    def test_low_frequency_response_matches_susceptibility(self):
        # drive far below resonance: P/E amplitude approaches the real part
        # of the pole's susceptibility
        pole = TABLE1_POLE
        dt = TABLE1_DT
        w_drive = pole.omega_p / 40.0
        n = int(math.ceil(14.0 / (pole.delta_p * dt)))
        ts = np.arange(n) * dt
        e_hist = np.sin(w_drive * ts)
        state, coeffs = drive_states(pole, dt, e_hist)
        # sample one full drive period of the settled response
        period = int(round(2 * math.pi / w_drive / dt))
        ps, es = [], []
        for k in range(period):
            t = (n + k) * dt
            e_now = math.sin(w_drive * t)
            state = advance_state(state, e_now, coeffs)
            ps.append(polarization(state, pole, coeffs, 0.5 * dt))
            es.append(e_now)
        chi = pole.delta_eps * pole.omega_p**2 / (
            pole.omega_p**2 + 2j * w_drive * pole.delta_p - w_drive**2
        )
        expected = EPS0 * abs(chi)
        assert max(np.abs(ps)) == pytest.approx(expected, rel=2e-3)

    def test_half_step_current_is_centered_difference(self):
        # (P(tau=dt) - P(tau=0))/dt is the centered difference around the
        # half step; it must converge to the half-step current at order 2
        pole = TABLE1_POLE
        t_total = 600 * TABLE1_DT

        def mismatch(dt):
            n = int(round(t_total / dt))
            ts = np.arange(n) * dt
            drive = np.sin(pole.omega_p / 15.0 * ts)
            state, coeffs = drive_states(pole, dt, drive)
            fd = (
                polarization(state, pole, coeffs, dt)
                - polarization(state, pole, coeffs, 0.0)
            ) / dt
            return abs(fd - polarization_current_half_step(state, coeffs))

        d1 = mismatch(8 * TABLE1_DT)
        d2 = mismatch(4 * TABLE1_DT)
        assert d1 / d2 >= 2 ** 1.9

    def test_realness_guard_trips_on_corruption(self):
        rng = np.random.default_rng(17)
        state, coeffs = drive_states(TABLE1_POLE, TABLE1_DT, rng.uniform(-1, 1, 50))
        broken = dataclasses.replace(coeffs, curr_plus=coeffs.curr_plus * (1.0 + 1e-6))
        with pytest.raises(ValidationError, match="imaginary residual"):
            polarization_current_half_step(state, broken)

    def test_residual_tolerance_is_pinned(self):
        assert IMAG_RESIDUAL_RTOL == 1e-10
