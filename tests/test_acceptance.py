"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criteria 1 and 2 share one execution of the bundled half-space
reflection experiment.
"""

import math
import time

import numpy as np
import pytest

from greenfdtd import cli, verify
from greenfdtd.config import load_table1
from greenfdtd.constants import C0
from greenfdtd.dispersion import LorentzPole, Medium
from greenfdtd.fdtd import build_simulation
from greenfdtd.greens import green_function
from greenfdtd.oracle import green_rk4

WP = 2 * math.pi * 20e9
TABLE1_POLE = LorentzPole(delta_eps=3.0, omega_p=WP, delta_p=0.1 * WP)
TABLE1_DT = 0.9 * (0.05 / 2999) / C0


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def reflection_experiment(tmp_path_factory):
    """One full cmd_reflection run of the bundled config, timed."""
    out = tmp_path_factory.mktemp("acc") / "reflection.csv"
    cfg = load_table1()
    t0 = time.perf_counter()
    rc = cli.cmd_reflection(cfg, str(out))
    elapsed = time.perf_counter() - t0
    assert rc == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    return {"data": data, "elapsed": elapsed, "config": cfg}


class TestCriterion1FigureReproduction:
    def test_reflection_figure(self, reflection_experiment):
        d = reflection_experiment["data"]
        elapsed = reflection_experiment["elapsed"]
        f = d["freq_hz"]
        err_tgm = np.abs(d["r_tgm"] - d["r_analytic"])
        err_ade = np.abs(d["r_adem"] - d["r_analytic"])

        i20 = np.abs(f - 20e9).argmin()
        r20 = d["r_tgm"][i20]
        r_low = d["r_tgm"][0]

        ok = (
            err_tgm.max() <= 0.02
            and err_ade.max() <= 0.02
            # the analytic curve has no local maximum at 20 GHz (it keeps
            # rising into the stop band and peaks near 25 GHz at ~0.78);
            # the 0.69 figure is |R| at the 20 GHz resonance itself
            and 0.67 <= r20 <= 0.71
            and 0.34 <= r_low <= 0.38
            and elapsed <= 60.0
        )
        report(
            1, ok,
            f"max|r_tgm-r_analytic|={err_tgm.max():.4f}, "
            f"max|r_adem-r_analytic|={err_ade.max():.4f} (tol 0.02) over "
            f"[{f[0] / 1e9:.1f}, {f[-1] / 1e9:.1f}] GHz at threshold 1e-3; "
            f"|R|(20 GHz)={r20:.4f} (0.69+/-0.02), "
            f"|R|(low f)={r_low:.4f} (0.36+/-0.02); runtime {elapsed:.1f}s <= 60s",
        )


class TestCriterion2Competitiveness:
    def test_rms_within_factor(self, reflection_experiment):
        d = reflection_experiment["data"]
        rms_tgm = float(np.sqrt(np.mean((d["r_tgm"] - d["r_analytic"]) ** 2)))
        rms_ade = float(np.sqrt(np.mean((d["r_adem"] - d["r_analytic"]) ** 2)))
        ok = rms_tgm <= 1.5 * rms_ade
        report(2, ok, f"rms_tgm={rms_tgm:.5f} <= 1.5 * rms_adem={1.5 * rms_ade:.5f}")


class TestCriterion3RecurrenceCorrectness:
    def test_hundred_random_sequences(self):
        t_start = time.perf_counter()
        # 2000 samples per sequence, rtol 1e-10: the check's own constants
        res = verify.check_recurrence_vs_direct_sum(
            TABLE1_POLE, TABLE1_DT, n_sequences=100, seed=2024)
        elapsed = time.perf_counter() - t_start
        ok = res.status == verify.PASS and elapsed <= 10.0
        report(3, ok, f"100 sequences of 2000: {res.detail}, runtime {elapsed:.1f}s <= 10s")


class TestCriterion4GreenClosedForm:
    def test_twenty_pole_parameterizations(self):
        rng = np.random.default_rng(7)
        poles = [TABLE1_POLE, LorentzPole(1.0, WP, 2.5 * WP)]  # incl. overdamped
        while len(poles) < 20:
            wp = 10 ** rng.uniform(9.5, 11.5)
            ratio = rng.uniform(0.0, 0.9)
            poles.append(LorentzPole(rng.uniform(0.1, 5.0), wp, ratio * wp))
        t_start = time.perf_counter()
        worst = 0.0
        for pole in poles:
            dt = 0.3 / pole.omega_p if pole.omega_p * TABLE1_DT > 1.0 else TABLE1_DT
            t_end = 15.5 * dt
            trace = green_rk4(pole, 0.0, dt, t_end, dt / 1000.0)
            gmax = np.abs(trace.values).max()
            for k in range(30):
                t = 0.5 * dt + 0.5 * k * dt
                rel = abs(green_function(pole, t, 0.0, dt) - trace.at(t)) / gmax
                worst = max(worst, rel)
        elapsed = time.perf_counter() - t_start
        ok = worst < 1e-6 and elapsed <= 10.0
        report(4, ok,
               f"20 poles (1 overdamped): max relative error {worst:.3e} < 1e-6 "
               f"vs RK4 at dt/1000, runtime {elapsed:.1f}s <= 10s")


class TestCriterion5SteadyState:
    def test_constant_drive_settles(self):
        # both updaters, after 10 decay times of the slowest root
        # tol 1e-3 is the check's own constant
        res = verify.check_steady_state(TABLE1_POLE, TABLE1_DT)
        report(5, res.status == verify.PASS, f"tgm and ade: {res.detail}")


class TestCriterion6TemporalAccuracy:
    def test_order_two_against_smooth_drive(self):
        omega_d = 2 * math.pi * 10e9
        period = 2 * math.pi / omega_d
        drive = lambda t: np.sin(omega_d * t)
        # max over the settled window: the startup ring of the resonance
        # (itself O(dt^2) but phase-wandering) has decayed, leaving the
        # clean quadrature error
        errs = [verify.staircase_error(TABLE1_POLE, drive, dt, 4.0 * period, 3.0 * period)
                for dt in (TABLE1_DT * 10, TABLE1_DT * 5)]
        ratio = errs[0] / errs[1]
        order = math.log2(ratio)
        ok = ratio >= 3.6 and order >= 1.85
        report(6, ok,
               f"halving dt shrinks max error by {ratio:.2f}x "
               f"(needs >= 3.6), observed order {order:.2f} (needs >= 1.85)")


class TestCriterion7NullTests:
    def test_vacuum_reflection_and_mur_residual(self):
        import dataclasses

        from greenfdtd.analysis import reflection_magnitude
        from greenfdtd.config import SimConfig
        from greenfdtd.fdtd import GaussianSource, probe_nodes_from_fractions

        cfg = SimConfig(
            system_length=0.02,
            n_grid=1000,
            cfl_factor=0.9,
            source=GaussianSource(1.0e-11, 1.0e-12, 2 * math.pi * 100e9),
            medium=Medium.vacuum(),
            n_steps=4096,
        )
        nodes = probe_nodes_from_fractions(cfg.probes, cfg.n_grid)
        ref = build_simulation(cfg).run(cfg.n_steps, nodes)
        tot = build_simulation(cfg, method="tgm").run(cfg.n_steps, nodes)
        worst_r = 0.0
        for _, mag in reflection_magnitude(ref[1], tot[1], band_threshold=1e-3):
            worst_r = max(worst_r, mag)

        sim = build_simulation(cfg)
        # enough steps for the pulse to exit both ends (grid crossing plus
        # the source window)
        for _ in range(2500):
            sim.step()
        residual = float(np.abs(sim.grid.e).max())
        ok = worst_r < 1e-3 and residual < 0.01
        report(7, ok,
               f"vacuum-vs-vacuum max|R|={worst_r:.2e} < 1e-3; "
               f"Mur residual {residual:.2e} of unit peak < 1e-2")


class TestCriterion8InvariantSuite:
    def test_verify_suite_passes(self):
        cfg = load_table1()
        results = verify.run_checks(cfg)
        by_name = {r.name: r for r in results}
        required = (
            "recurrence-vs-direct-sum",
            "conjugacy",
            "realness",
            "non-amplification",
            "ade-fixed-point",
        )
        ok = all(r.status in (verify.PASS, verify.SKIP) for r in results) and all(
            by_name[name].status == verify.PASS for name in required
        )
        detail = "; ".join(f"{r.name}={r.status}" for r in results)
        report(8, ok, detail)
