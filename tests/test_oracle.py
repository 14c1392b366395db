"""Brute-force reference implementations: self-consistency checks."""

import math

import numpy as np
import pytest

from greenfdtd import verify
from greenfdtd.constants import C0, EPS0
from greenfdtd.dispersion import LorentzPole
from greenfdtd.errors import ValidationError
from greenfdtd.greens import PoleState, advance_state, make_coefficients, polarization
from greenfdtd.oracle import (
    direct_convolution_sum,
    green_rk4,
    polarization_rk4,
    smooth_drive_rk4,
)

WP = 2 * math.pi * 20e9
TABLE1_POLE = LorentzPole(delta_eps=3.0, omega_p=WP, delta_p=0.1 * WP)
TABLE1_DT = 0.9 * (0.05 / 2999) / C0


def scalar_rk4(pole, h, phases, t0):
    """Reference for the vectorized oracle: classical RK4 on
    y'' + 2 dp y' + wp^2 y = f(t) from rest at t0, one Python step at a
    time, through phases of (n_steps, forcing) with `forcing` a constant
    or a callable of one float time.  Returns (times, y, y')."""
    wp2 = pole.omega_p**2
    two_dp = 2.0 * pole.delta_p
    t, y, v = t0, 0.0, 0.0
    times, ys, vs = [t], [y], [v]
    for n_steps, forcing in phases:
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
    return np.array(times), np.array(ys), np.array(vs)


class TestGreenRk4:
    def test_fine_step_precondition(self):
        with pytest.raises(ValueError):
            green_rk4(TABLE1_POLE, TABLE1_DT, 5 * TABLE1_DT, TABLE1_DT / 50)

    @pytest.mark.parametrize("fine_step", [0.0, -1.0, math.nan, 5e-324], ids=str)
    @pytest.mark.parametrize("integrate", [
        lambda h: green_rk4(TABLE1_POLE, TABLE1_DT, 5 * TABLE1_DT, h),
        lambda h: polarization_rk4(np.zeros(8), TABLE1_POLE, TABLE1_DT, h),
    ], ids=["green_rk4", "polarization_rk4"])
    def test_fine_step_must_be_positive(self, integrate, fine_step):
        # 0 divided by zero, -1 stepped at dt/100, NaN failed to convert and
        # the subnormal's dt / fine_step overflowed to inf
        with pytest.raises(ValidationError,
                           match=rf"^fine_step must lie in \(0, dt/100\], got {fine_step}$"):
            integrate(fine_step)

    @pytest.mark.parametrize("t_end", [0.5 * TABLE1_DT, 0.2 * TABLE1_DT],
                             ids=["at-trailing-edge", "inside"])
    def test_t_end_precondition(self, t_end):
        with pytest.raises(ValueError, match="t_end must lie beyond the rectangle"):
            green_rk4(TABLE1_POLE, TABLE1_DT, t_end, TABLE1_DT / 200)

    @pytest.mark.parametrize("t", [-0.6 * TABLE1_DT, 5.6 * TABLE1_DT], ids=["before", "after"])
    def test_trace_lookup_out_of_range(self, t):
        trace = green_rk4(TABLE1_POLE, TABLE1_DT, 5 * TABLE1_DT, TABLE1_DT / 200)
        with pytest.raises(ValueError, match="outside trace"):
            trace.at(t)
        with pytest.raises(ValueError, match="outside trace"):
            trace.at(np.array([TABLE1_DT, t]))

    def test_damped_decay_to_zero(self):
        pole = LorentzPole(1.0, 1.0, 0.8)
        trace = green_rk4(pole, 1.0, 40.0, 1e-2)
        assert abs(trace.values[-1]) < 1e-10 * np.abs(trace.values).max()

    def test_derivative_consistency(self):
        trace = green_rk4(TABLE1_POLE, TABLE1_DT, 5 * TABLE1_DT, TABLE1_DT / 200)
        h = trace.times[1] - trace.times[0]
        fd = (trace.values[2:] - trace.values[:-2]) / (2 * h)
        # start past the trailing forcing edge (index 200) where G'' jumps
        # and the central difference loses an order locally
        inner = slice(210, len(fd) - 10)
        err = np.abs(fd[inner] - trace.derivs[1:-1][inner]).max()
        scale = np.abs(trace.derivs).max()
        assert err < 5.0 * (h * WP) ** 2 * scale

    def test_undamped_amplitude_drift(self):
        pole = LorentzPole(1.0, 1.0, 0.0)
        dt = 1.0
        n_periods = 100
        t_end = 0.5 * dt + n_periods * 2 * math.pi
        trace = green_rk4(pole, dt, t_end, dt / 1000.0)
        free = trace.values[trace.times > 0.5 * dt]
        cells = np.array_split(free, n_periods // 2)
        amps = np.array([np.abs(c).max() for c in cells])
        assert np.abs(amps - amps[0]).max() < 1e-6 * amps[0]


class TestPolarizationRk4:
    def test_fine_step_precondition(self):
        with pytest.raises(ValueError, match=r"fine_step must lie in \(0, dt/100\]"):
            polarization_rk4(np.zeros(8), TABLE1_POLE, TABLE1_DT, TABLE1_DT / 50)

    def test_zero_drive(self):
        trace = polarization_rk4(np.zeros(8), TABLE1_POLE, TABLE1_DT, TABLE1_DT / 100)
        assert np.all(trace.values == 0.0)

    def test_constant_drive_steady_state(self):
        n = int(math.ceil(10.0 / (TABLE1_POLE.delta_p * TABLE1_DT)))
        trace = polarization_rk4(np.ones(n), TABLE1_POLE, TABLE1_DT, TABLE1_DT / 100)
        assert trace.values[-1] == pytest.approx(EPS0 * 3.0, rel=1e-3)

    def test_staircase_exactness_of_recurrence(self):
        # the recursive update solves the staircase problem exactly; the
        # fine integration of the same staircase must agree at the cell
        # boundaries to integrator accuracy
        rng = np.random.default_rng(21)
        e = rng.uniform(-1.0, 1.0, 60)
        trace = polarization_rk4(e, TABLE1_POLE, TABLE1_DT, TABLE1_DT / 400)
        coeffs = make_coefficients(TABLE1_POLE, TABLE1_DT)
        state = PoleState()
        pmax = np.abs(trace.values).max()
        for k, ek in enumerate(e):
            state = advance_state(state, ek, coeffs)
            p_rec = polarization(state, TABLE1_POLE, coeffs, 0.5 * TABLE1_DT)
            p_ode = trace.at(k * TABLE1_DT + 0.5 * TABLE1_DT)
            assert abs(p_rec - p_ode) < 1e-8 * pmax

    def test_gaussian_drive_matches_recurrence(self):
        n = 250
        ts = np.arange(n) * TABLE1_DT
        e = np.exp(-(((ts - 40 * TABLE1_DT) / (10 * TABLE1_DT)) ** 2))
        trace = polarization_rk4(e, TABLE1_POLE, TABLE1_DT, TABLE1_DT / 400)
        coeffs = make_coefficients(TABLE1_POLE, TABLE1_DT)
        state = PoleState()
        pmax = np.abs(trace.values).max()
        worst = 0.0
        for k, ek in enumerate(e):
            state = advance_state(state, ek, coeffs)
            p_rec = polarization(state, TABLE1_POLE, coeffs, 0.5 * TABLE1_DT)
            worst = max(worst, abs(p_rec - trace.at(k * TABLE1_DT + 0.5 * TABLE1_DT)))
        assert worst < 1e-8 * pmax


class TestDirectConvolutionSum:
    def test_all_zero(self):
        assert direct_convolution_sum(np.zeros(10), TABLE1_POLE, TABLE1_DT, 9.5 * TABLE1_DT) == 0.0

    def test_single_sample_is_one_green_term(self):
        from greenfdtd.greens import green_function

        e = np.array([1.0])
        for k in range(1, 6):
            t_eval = 0.5 * TABLE1_DT + k * TABLE1_DT
            expected = EPS0 * 3.0 * WP**2 * green_function(TABLE1_POLE, t_eval, TABLE1_DT)
            assert direct_convolution_sum(e, TABLE1_POLE, TABLE1_DT, t_eval) == pytest.approx(
                expected, rel=1e-12
            )

    def test_linearity(self):
        rng = np.random.default_rng(31)
        e1 = rng.uniform(-1, 1, 100)
        e2 = rng.uniform(-1, 1, 100)
        t_eval = 99.5 * TABLE1_DT
        p1 = direct_convolution_sum(e1, TABLE1_POLE, TABLE1_DT, t_eval)
        p2 = direct_convolution_sum(e2, TABLE1_POLE, TABLE1_DT, t_eval)
        p12 = direct_convolution_sum(3.0 * e1 - 0.5 * e2, TABLE1_POLE, TABLE1_DT, t_eval)
        assert p12 == pytest.approx(3.0 * p1 - 0.5 * p2, rel=1e-12, abs=1e-30)

    def test_excludes_unfinished_rectangles(self):
        e = np.array([1.0, 1.0])
        # at t = dt/2 only the first rectangle has completed
        only_first = direct_convolution_sum(e, TABLE1_POLE, TABLE1_DT, 0.5 * TABLE1_DT)
        single = direct_convolution_sum(e[:1], TABLE1_POLE, TABLE1_DT, 0.5 * TABLE1_DT)
        assert only_first == single


    def test_nothing_ended_before_half_step(self):
        # the first rectangle ends at dt/2: before it, no term contributes
        e = np.ones(3)
        for t_eval in (0.0, 0.49 * TABLE1_DT):
            assert direct_convolution_sum(e, TABLE1_POLE, TABLE1_DT, t_eval) == 0.0
        assert direct_convolution_sum(e, TABLE1_POLE, TABLE1_DT, 0.5 * TABLE1_DT) != 0.0


class TestSmoothDriveRk4:
    def test_fine_mesh_memory(self):
        # only the read mesh points are solved, so the traced peak does not
        # grow with the mesh: a dense 2e6-step mesh would take 48 MB
        import tracemalloc

        n = 2_000_000
        t_end = n * TABLE1_DT / 400
        times = np.linspace(0.0, t_end, 1000)
        tracemalloc.start()
        try:
            values = smooth_drive_rk4(TABLE1_POLE, WP / 12.0, t_end, TABLE1_DT / 400, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (2, 1000)
        assert peak < 1e6

    @pytest.mark.parametrize("t", [-0.1 * TABLE1_DT, 5.1 * TABLE1_DT], ids=["before", "after"])
    def test_time_outside_mesh(self, t):
        for times in ([t], [TABLE1_DT, t]):
            with pytest.raises(ValueError, match="outside"):
                smooth_drive_rk4(TABLE1_POLE, WP / 12.0, 5 * TABLE1_DT, TABLE1_DT / 400, times)

    def test_matches_staircase_in_limit(self):
        # staircase with midpoint sampling converges to the smooth solution
        w_drive = WP / 15.0
        t_end = 2 * math.pi / w_drive
        errs = []
        for dt in (8 * TABLE1_DT, 4 * TABLE1_DT):
            n = int(t_end / dt) - 1
            ref = smooth_drive_rk4(TABLE1_POLE, w_drive, t_end, TABLE1_DT / 200,
                                   np.arange(n) * dt + 0.5 * dt)[0]
            coeffs = make_coefficients(TABLE1_POLE, dt)
            state = PoleState()
            worst = 0.0
            for k in range(n):
                state = advance_state(state, math.sin(w_drive * k * dt), coeffs)
                p = polarization(state, TABLE1_POLE, coeffs, 0.5 * dt)
                worst = max(worst, abs(p - ref[k]))
            errs.append(worst)
        assert errs[0] / errs[1] > 3.0


class TestScalarReference:
    """The vectorized recurrence against the step-by-step RK4 loop: the
    two round differently, so they agree to 1e-9 of the peak, not bit for
    bit."""

    @staticmethod
    def assert_agrees(trace, h, ref):
        times, ys, vs = ref
        assert len(trace.times) == len(times)
        assert np.abs(trace.times - times).max() < 1e-6 * h
        for got, want in ((trace.values, ys), (trace.derivs, vs)):
            assert np.isfinite(got).all()
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @staticmethod
    def assert_smooth_drive_agrees(pole, n, t_end):
        # the closed form read at 1200 spread mesh points, the first and
        # last included, against the loop's whole mesh
        w_drive = WP / 12.0
        idx = np.unique(np.linspace(0, n, 1200).astype(np.int64))
        assert len(idx) >= 1000 and idx[0] == 0 and idx[-1] == n
        # a fine step a hair above t_end/n, so the mesh has n steps whatever the rounding
        got = smooth_drive_rk4(pole, w_drive, t_end, t_end / n * (1.0 + 1e-12), t_end * idx / n)
        _, ys, vs = scalar_rk4(pole, t_end / n,
                               [(n, lambda t: pole.strength * math.sin(w_drive * t))], 0.0)
        for values, want in zip(got, (ys, vs)):
            assert np.isfinite(values).all()
            assert np.abs(values - want[idx]).max() <= 1e-9 * np.abs(want).max()

    def test_smooth_drive_200k_steps(self):
        n = 200_000
        self.assert_smooth_drive_agrees(TABLE1_POLE, n, n * TABLE1_DT / 400)

    @pytest.mark.parametrize("damping", [0.01, 2.5, 0.0])
    def test_smooth_drive_20k_steps(self, damping):
        # two drive periods: the ring of a lightly damped, an overdamped
        # and an undamped pole
        self.assert_smooth_drive_agrees(LorentzPole(3.0, WP, damping * WP), 20_000,
                                        2 * 2 * math.pi / (WP / 12.0))

    def test_2000_constant_phases(self):
        e = np.random.default_rng(41).uniform(-1.0, 1.0, 2000)
        trace = polarization_rk4(e, TABLE1_POLE, TABLE1_DT, TABLE1_DT / 100)
        h = TABLE1_DT / 100
        phases = [(100, TABLE1_POLE.strength * float(en)) for en in e]
        self.assert_agrees(trace, h, scalar_rk4(TABLE1_POLE, h, phases, -0.5 * TABLE1_DT))

    @pytest.mark.parametrize("wp_dt", [0.0063, 1.0])
    @pytest.mark.parametrize("damping", [0.0, 0.1, 20.0, 50.0])
    def test_green_rk4_two_phases(self, wp_dt, damping):
        pole = LorentzPole(1.0, WP, damping * WP)
        dt = wp_dt / WP
        trace = green_rk4(pole, dt, 20.5 * dt, dt / 1000.0)
        h = dt / 1000
        phases = [(1000, 1.0), (len(trace.times) - 1001, 0.0)]
        self.assert_agrees(trace, h, scalar_rk4(pole, h, phases, -0.5 * dt))


def test_closed_form_residual_stays_at_rounding():
    # table1's pole, an overdamped and an undamped one; the scalar loop
    # read 4.1e-13, 4.5e-14 and 1.7e-14 here
    for pole in (TABLE1_POLE, LorentzPole(2.0, WP, 2.5 * WP), LorentzPole(1.0, 3 * WP, 0.0)):
        res = verify.check_green_closed_form(pole, TABLE1_DT)
        assert float(res.detail.split()[3]) <= 1e-12, res.detail
