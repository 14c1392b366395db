"""Spectral post-processing: transform properties and |R| extraction."""

import dataclasses
import math

import numpy as np
import pytest

from greenfdtd import analysis
from greenfdtd.analysis import (
    finite_run,
    reflection_experiment,
    reflection_magnitude,
    spectrum,
    _padded_length,
)
from greenfdtd.config import SimConfig, load_table1
from greenfdtd.dispersion import LorentzPole, Medium
from greenfdtd.errors import ValidationError
from greenfdtd.fdtd import (
    GaussianSource,
    ProbeSeries,
    Simulation,
    interface_node,
    probe_nodes_from_fractions,
    source_value,
)


def make_series(samples, dt=1e-12, node=7):
    return ProbeSeries(node_index=node, samples=np.asarray(samples, float), dt=dt)


class TestSpectrum:
    def test_padding_rule(self):
        assert _padded_length(1000) == 2048
        assert _padded_length(1024) == 2048
        assert _padded_length(1025) == 4096

    def test_axis_layout(self):
        s = spectrum(make_series(np.ones(100), dt=2e-12))
        m = 256
        assert len(s.freqs) == m // 2 + 1
        assert s.freqs[0] == 0.0
        df = 1.0 / (m * 2e-12)
        assert np.allclose(np.diff(s.freqs), df)
        assert np.all(np.diff(s.freqs) > 0)

    def test_zero_series(self):
        s = spectrum(make_series(np.zeros(64)))
        assert np.all(s.amps == 0.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            spectrum(make_series(np.empty(0)))

    def test_bin_aligned_sinusoid_orthogonality(self):
        # sinusoid aligned to the unpadded record length: on the original
        # frequency grid (every second padded bin) every other bin is an
        # exact zero of the DFT, so leakage there is pure round-off
        n = 1024
        dt = 1e-12
        k = 37
        f0 = k / (n * dt)
        x = np.sin(2 * np.pi * f0 * dt * np.arange(n))
        s = spectrum(make_series(x, dt=dt))
        mag = np.abs(s.amps)
        peak_bin = 2 * k  # padded grid is twice as fine
        assert mag.argmax() == peak_bin
        original_grid = np.arange(0, len(mag), 2)
        others = np.setdiff1d(original_grid, [peak_bin])
        assert mag[others].max() < 1e-10 * mag[peak_bin]

    def test_parseval(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=777)
        dt = 3e-13
        m = _padded_length(len(x))
        amps = np.fft.fft(x, m) * dt
        df = 1.0 / (m * dt)
        lhs = np.sum(np.abs(x) ** 2) * dt
        rhs = np.sum(np.abs(amps) ** 2) * df
        assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_table1_pulse_matches_analytic_spectrum(self):
        # probe record of the experiment's pulse: compare against the
        # closed-form transform of a Gaussian-enveloped cosine
        src = GaussianSource(t0=1e-11, delta_t=1e-12, omega0=2 * math.pi * 100e9)
        dt = 5e-14
        n = 4096
        x = np.array([source_value(src, k * dt) for k in range(n)])
        s = spectrum(make_series(x, dt=dt))
        w = 2 * np.pi * s.freqs
        envelope = (
            math.sqrt(2 * math.pi) * src.delta_t / 2.0
            * (np.exp(-0.5 * ((w - src.omega0) * src.delta_t) ** 2)
               + np.exp(-0.5 * ((w + src.omega0) * src.delta_t) ** 2))
        )
        mag = np.abs(s.amps)
        sel = envelope > 1e-4 * envelope.max()
        assert np.allclose(mag[sel], envelope[sel], rtol=1e-3, atol=1e-6 * envelope.max())


class TestReflectionMagnitude:
    def test_identical_runs_reflect_nothing(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=256)
        inc = make_series(x)
        tot = make_series(x.copy())
        for _, mag in reflection_magnitude(inc, tot, band_threshold=0.01):
            assert mag < 1e-3

    def test_known_ratio_recovered(self):
        # total = incident + r * delayed copy: |R| equals |r| at every
        # reported bin up to the delay-independent magnitude
        rng = np.random.default_rng(6)
        n = 512
        pulse = np.exp(-((np.arange(n) - 60.0) / 8.0) ** 2)
        r = 0.37
        delayed = np.roll(pulse, 140) * r
        inc = make_series(pulse)
        tot = make_series(pulse + delayed)
        out = reflection_magnitude(inc, tot, band_threshold=0.05)
        mags = np.array([m for _, m in out])
        assert np.allclose(mags, r, rtol=1e-10)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(7)
        n = 256
        inc = rng.normal(size=n)
        refl = np.roll(inc, 50) * 0.2
        a = 3.7
        out1 = reflection_magnitude(make_series(inc), make_series(inc + refl), 0.02)
        out2 = reflection_magnitude(make_series(a * inc), make_series(a * (inc + refl)), 0.02)
        for (f1, m1), (f2, m2) in zip(out1, out2):
            assert f1 == f2
            assert m1 == pytest.approx(m2, rel=1e-12)

    def test_threshold_one_keeps_single_peak_bin(self):
        x = np.sin(2 * np.pi * 0.125 * np.arange(64))
        out = reflection_magnitude(make_series(x), make_series(x), band_threshold=1.0)
        assert len(out) == 1

    def test_mismatched_series_rejected(self):
        x = np.ones(32)
        with pytest.raises(ValidationError, match="must share node, dt and length"):
            reflection_magnitude(make_series(x, node=1), make_series(x, node=2), 0.01)
        with pytest.raises(ValidationError, match="must share node, dt and length"):
            reflection_magnitude(make_series(x, dt=1e-12), make_series(x, dt=2e-12), 0.01)
        with pytest.raises(ValidationError, match="must share node, dt and length"):
            reflection_magnitude(make_series(x), make_series(np.ones(33)), 0.01)

    def test_band_threshold_semantics(self):
        # with a broadband record plus one strong tone, a high threshold
        # must keep only bins near the tone
        n = 512
        t = np.arange(n)
        x = np.sin(2 * np.pi * t * 32 / n) * np.hanning(n)
        inc = make_series(x)
        wide = reflection_magnitude(inc, inc, band_threshold=1e-6)
        narrow = reflection_magnitude(inc, inc, band_threshold=0.5)
        assert len(narrow) < len(wide)

    def test_empty_band_error(self):
        x = np.zeros(32)
        with pytest.raises(ValidationError, match="incident spectrum is identically zero"):
            reflection_magnitude(make_series(x), make_series(x), band_threshold=0.5)

    @pytest.mark.parametrize("threshold, match", [
        (2.0, "^band_threshold=2.0 excluded every frequency bin$"),
        (float("nan"), "^band_threshold must be positive and finite, got nan$"),
    ], ids=["2.0", "nan"])
    def test_threshold_outside_unit_interval_empties_band(self, threshold, match):
        # no bin reaches twice the peak, and NaN is outside the threshold's
        # domain; SimConfig keeps its threshold in (0, 1], so only direct
        # callers get here
        x = np.sin(2 * np.pi * np.arange(64) * 4 / 64)
        with pytest.raises(ValidationError, match=match):
            reflection_magnitude(make_series(x), make_series(x), band_threshold=threshold)

    def test_band_skips_zero_bins_when_threshold_product_underflows(self):
        # [c, c] padded to 4 points has an exactly zero bin at Nyquist, and
        # 5e-324 times its peak 2e-300 underflows to 0: that bin kept a NaN
        c = 1e-300
        inc = make_series([c, c], dt=1.0)
        tot = make_series([1.5 * c, 1.5 * c], dt=1.0)
        out = reflection_magnitude(inc, tot, band_threshold=5e-324)
        assert out[:, 0].tolist() == [0.0, 0.25]
        assert out[:, 1] == pytest.approx([0.5, 0.5], rel=1e-15)

    @pytest.mark.parametrize("threshold", [0.0, -0.5])
    def test_threshold_at_or_below_zero_rejected(self, threshold):
        # it kept bins where the incident spectrum is exactly zero, and
        # returned non-finite |R| rows with only a RuntimeWarning
        inc = make_series(np.ones(8), dt=1.0)
        tot = make_series(np.r_[np.ones(4), np.zeros(4)], dt=1.0)
        match = f"^band_threshold must be positive and finite, got {threshold}$"
        with pytest.raises(ValidationError, match=match):
            reflection_magnitude(inc, tot, band_threshold=threshold)

    def test_experiment_pulse_band_coverage(self):
        # the 1 ps pulse is extremely broadband: at threshold 0.01 the
        # reported band must cover at least [40, 160] GHz, and at 1e-4 it
        # must reach down to 20 GHz and below
        src = GaussianSource(t0=1e-11, delta_t=1e-12, omega0=2 * math.pi * 100e9)
        dt = 5.0055e-14
        x = np.array([source_value(src, (k + 1) * dt) for k in range(4096)])
        inc = make_series(x, dt=dt)
        for threshold, f_lo, f_hi in ((0.01, 40e9, 160e9), (1e-4, 20e9, 160e9)):
            freqs = np.array([f for f, _ in reflection_magnitude(inc, inc, threshold)])
            assert freqs.min() <= f_lo
            assert freqs.max() >= f_hi

    def test_one_spectrum_alive_at_a_time(self):
        # an impulse and its echo at half height: every one of the 32769
        # bins is in the band.  Holding both spectra at once peaked at 3.2 MB
        import tracemalloc

        x = np.zeros(32768)
        x[100] = 1.0
        inc, tot = make_series(x), make_series(x + 0.5 * np.roll(x, 3000))
        tracemalloc.start()
        try:
            out = reflection_magnitude(inc, tot, band_threshold=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (32769, 2)
        assert np.allclose(out[:, 1], 0.5, rtol=1e-12)
        assert peak <= 2.4e6


def test_diverging_run_reported_at_its_first_non_finite_step():
    # table1's vacuum at 300 nodes with a 66-cell, 10 S/m taper diverges
    # long after its pulse has let go of the source: the quiet exit of
    # Simulation.run must not flush it, so the report names the same step
    # and probe node as stepping every step does
    cfg = dataclasses.replace(load_table1(), n_grid=300, absorber_cells=66)
    cfg = cfg.with_medium(Medium.vacuum())
    assert cfg.absorber_sigma == 10.0
    nodes = probe_nodes_from_fractions(cfg.probes, cfg.n_grid)
    with pytest.raises(ValidationError, match="^vacuum reference run is non-finite from step "
                                              "4693 at probe node 224: "):
        finite_run(cfg, "tgm", nodes, "vacuum reference")


def experiment_probe(cfg):
    """The probe node reflection_experiment records."""
    return [max(i for i in probe_nodes_from_fractions(cfg.probes, cfg.n_grid)
                if i < interface_node(cfg.n_grid))]


def test_experiment_steps_its_runs_as_lanes_of_one_call(monkeypatch):
    # one Simulation.run call steps all three runs, and each |R| is bit for
    # bit the one from separate runs
    base = load_table1()
    cfg = dataclasses.replace(base, n_grid=300, system_length=299 * base.dx,
                              absorber_cells=66, n_steps=2048)
    node = experiment_probe(cfg)
    [incident] = finite_run(cfg.with_medium(Medium.vacuum()), "tgm", node, "vacuum reference")
    want = {m: reflection_magnitude(incident, finite_run(cfg, m, node, m)[0],
                                    cfg.band_threshold)[:, 1] for m in ("tgm", "adem")}
    calls, run = [], Simulation.run
    monkeypatch.setattr(Simulation, "run", lambda sim, *args: calls.append(
        (sim.media[1:], sim.method)) or run(sim, *args))
    _, _, mags = reflection_experiment(cfg, ("tgm", "adem"))
    assert calls == [((cfg.medium, cfg.medium, Medium.vacuum()), "tgm+adem+tgm")]
    for m in ("tgm", "adem"):
        assert mags[m].tobytes() == want[m].tobytes()


def test_experiment_without_methods_builds_no_grid(monkeypatch):
    def no_build(*lanes):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(analysis, "build_simulation", no_build)
    with pytest.raises(ValidationError, match="^methods is empty"):
        reflection_experiment(load_table1(), ())


def only_adem_unstable():
    """One table1-like pole at omega_p*dt = 0.9 on a 400-node grid: above
    adem's coupled stability limit (0.865), below tgm's (0.925)."""
    cfg = SimConfig(system_length=0.01, n_grid=400, n_steps=4096, medium=Medium.vacuum(),
                    source=GaussianSource(t0=1.0e-11, delta_t=1.0e-12,
                                          omega0=2 * math.pi * 100e9))
    wp = 0.9 / cfg.dt
    return cfg.with_medium(Medium(eps_inf=1.5, sigma=0.0,
                                  poles=(LorentzPole(3.0, wp, 0.1 * wp),)))


def vacuum_unstable():
    """table1 at 300 nodes over its 0.05 m: the 66-cell 10 S/m taper
    diverges in vacuum; matched to the medium's eps_static it holds."""
    return dataclasses.replace(load_table1(), n_grid=300, absorber_cells=66, n_steps=8192)


@pytest.mark.parametrize("make, run", [(only_adem_unstable, "adem"),
                                       (vacuum_unstable, "vacuum reference")])
def test_experiment_reports_the_run_finite_run_reports(make, run):
    # the lanes' records are checked in the order of the runs one by one:
    # the same run, first bad step and probe node as its run alone
    cfg = make()
    node = experiment_probe(cfg)
    alone_cfg, method = ((cfg.with_medium(Medium.vacuum()), "tgm") if run == "vacuum reference"
                         else (cfg, run))
    with pytest.raises(ValidationError) as alone:
        finite_run(alone_cfg, method, node, run)
    with pytest.raises(ValidationError) as lanes:
        reflection_experiment(cfg, ("tgm", "adem"))
    assert str(lanes.value) == str(alone.value)
    assert str(lanes.value).startswith(f"{run} run is non-finite from step ")
    for other in ("tgm", "vacuum reference"):
        if other != run:
            [series] = finite_run(cfg if other == "tgm" else cfg.with_medium(Medium.vacuum()),
                                  "tgm", node, other)
            assert series.samples.any()
