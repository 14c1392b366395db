"""CLI contracts: CSV formats, exit codes, determinism, verify hooks."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from greenfdtd import ade, analysis, bank, cli, fdtd, greens, verify
from greenfdtd.analysis import reflection_experiment
from greenfdtd.config import load_config, load_table1, parse_config, table1_path
from greenfdtd.constants import EPS0
from greenfdtd.dispersion import LorentzPole, Medium
from greenfdtd.fdtd import build_simulation
from greenfdtd.verify import FAIL, PASS, SKIP, run_checks

CHECK_NAMES = ["recurrence-vs-direct-sum", "green-closed-form-vs-rk4", "steady-state",
               "conjugacy", "realness", "non-amplification", "ade-fixed-point",
               "temporal-convergence-order"]

WP = 2 * math.pi * 20e9
OVERDAMPED_POLE = LorentzPole(1.0, 1.5 * WP, 2.5 * 1.5 * WP)

SMALL = """
[grid]
length = 0.01
nodes = 400
[source]
t0 = 1.0e-11
width = 1.0e-12
omega0 = 6.283185307179586e11
[medium]
eps_inf = 1.5
[medium.pole.1]
delta_eps = 3.0
omega_p = 1.2566370614359172e11
delta_p = 1.2566370614359172e10
[run]
steps = 600
"""

VACUUM = """
[grid]
length = 0.01
nodes = 400
[source]
t0 = 1.0e-11
width = 1.0e-12
omega0 = 6.283185307179586e11
[run]
steps = 500
"""

# table1 at 300 nodes with a 66-cell absorber and no medium: the
# absorber's explicit loss overflows the vacuum fields
UNSTABLE = """
[grid]
length = 0.05
nodes = 300
cfl = 0.9
absorber_cells = 66
absorber_sigma = 10.0
[source]
t0 = 1.0e-11
width = 1.0e-12
omega0 = 6.283185307179586e11
[run]
steps = 8192
"""


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(SMALL)
    return p


@pytest.fixture
def vacuum_cfg(tmp_path):
    p = tmp_path / "vacuum.cfg"
    p.write_text(VACUUM)
    return p


class TestRunCommand:
    def test_csv_contract(self, small_cfg, tmp_path):
        out = tmp_path / "run.csv"
        assert cli.main(["run", "--config", str(small_cfg), "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = out.read_text().splitlines()
        assert lines[0] == "time_s,probe1,probe2,probe3"
        assert len(lines) == 601
        # locale-independent scientific notation with 12+ significant digits
        first = lines[1].split(",")
        assert all("e" in v and "." in v for v in first)
        assert len(first[0].split("e")[0].replace("-", "").replace(".", "")) >= 12

    def test_stdout_equals_out_file(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert cli.main(["run", "--config", str(small_cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(["run", "--config", str(small_cfg)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_zero_steps_header_only(self, tmp_path):
        p = tmp_path / "zero.cfg"
        p.write_text(VACUUM.replace("steps = 500", "steps = 0"))
        out = tmp_path / "zero.csv"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 0
        assert out.read_text() == "time_s,probe1,probe2,probe3\n"

    def test_byte_identical_reruns(self, small_cfg, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli.main(["run", "--config", str(small_cfg), "--out", str(out1)])
        cli.main(["run", "--config", str(small_cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_early_window_is_delayed_source(self, small_cfg, tmp_path):
        out = tmp_path / "run.csv"
        cli.main(["run", "--config", str(small_cfg), "--out", str(out)])
        data = np.genfromtxt(out, delimiter=",", names=True)
        cfg = parse_config(SMALL)
        t_probe = data["time_s"][np.abs(data["probe1"]).argmax()]
        expected = cfg.source.t0 + round(0.25 * (cfg.n_grid - 1)) * cfg.dx / 2.99792458e8
        assert abs(t_probe - expected) < 2 * cfg.dt


class TestReflectionCommand:
    def test_vacuum_medium_reflects_nothing(self, vacuum_cfg, tmp_path, capsys):
        out = tmp_path / "refl.csv"
        assert cli.main(["reflection", "--config", str(vacuum_cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "freq_hz,r_analytic,r_tgm,r_adem"
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(data["r_analytic"] == 0.0)
        assert np.all(data["r_tgm"] < 1e-3)
        assert np.all(data["r_adem"] < 1e-3)
        summary = capsys.readouterr().out
        assert "tgm:" in summary and "adem:" in summary

    def test_stdout_equals_out_file(self, vacuum_cfg, tmp_path, capsys):
        # without --out the CSV goes to stdout and the summary to stderr,
        # so that stdout is the CSV alone
        out = tmp_path / "refl.csv"
        assert cli.main(["reflection", "--config", str(vacuum_cfg), "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert cli.main(["reflection", "--config", str(vacuum_cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == out.read_bytes()
        assert captured.err == summary and summary.startswith("tgm: max abs error ")

    def test_single_bin_band(self, tmp_path):
        p = tmp_path / "one.cfg"
        p.write_text(VACUUM + "\n[run]\nband_threshold = 1.0\n")
        out = tmp_path / "one.csv"
        assert cli.main(["reflection", "--config", str(p), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    def test_multipole_medium_matches_analytic(self, tmp_path):
        # table1 with two underdamped poles and one overdamped pole, held to
        # acceptance criterion 1's bound on the max |R| error
        poles = (LorentzPole(3.0, WP, 0.1 * WP),
                 LorentzPole(0.5, 2.3 * WP, 0.05 * 2.3 * WP),
                 OVERDAMPED_POLE)
        cfg = load_table1().with_medium(Medium(eps_inf=1.5, sigma=0.0, poles=poles))
        out = tmp_path / "multipole.csv"
        assert cli.cmd_reflection(cfg, str(out)) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        for method in ("tgm", "adem"):
            err = np.abs(data[f"r_{method}"] - data["r_analytic"]).max()
            assert err <= 0.02, f"{method}: max |R| error {err:.4f}"


class TestGreenCommand:
    def test_closed_form_tracks_rk4(self, small_cfg, tmp_path):
        out = tmp_path / "green.csv"
        assert cli.main(["green", "--config", str(small_cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pole,t_s,g_closed_form,g_rk4,abs_diff"
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data["abs_diff"].max() < 1e-6 * np.abs(data["g_closed_form"]).max()

    def test_undamped_pole_bounded_oscillation(self, tmp_path):
        # resonance fast enough that the sampled window spans two periods
        p = tmp_path / "undamped.cfg"
        text = SMALL.replace("omega_p = 1.2566370614359172e11", "omega_p = 6.0e12")
        text = text.replace("delta_p = 1.2566370614359172e10", "delta_p = 0.0")
        p.write_text(text)
        out = tmp_path / "g.csv"
        assert cli.main(["green", "--config", str(p), "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        g = data["g_closed_form"]
        assert np.abs(g).max() < 10.0 / 6.0e12**2
        assert g.min() < 0 < g.max()

    def test_needs_a_pole(self, vacuum_cfg):
        assert cli.main(["green", "--config", str(vacuum_cfg)]) == 1

    def test_every_pole_compared(self, tmp_path):
        out = tmp_path / "green.csv"
        assert cli.cmd_green(two_pole_config(), str(out)) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        rows = [data[data["pole"] == k] for k in (1, 2)]
        assert set(data["pole"]) == {1.0, 2.0}
        assert np.array_equal(rows[0]["t_s"], rows[1]["t_s"])
        assert not np.array_equal(rows[0]["g_closed_form"], rows[1]["g_closed_form"])
        assert not np.array_equal(rows[0]["g_rk4"], rows[1]["g_rk4"])
        for r in rows:
            assert r["abs_diff"].max() < 1e-6 * np.abs(r["g_closed_form"]).max()


class TestVerifyCommand:
    def test_default_config_all_pass(self, small_cfg, capsys):
        assert cli.main(["verify", "--config", str(small_cfg)]) == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out
        assert "FAIL" not in out

    def test_vacuum_config_checks_bundled_pole(self):
        # a medium without poles is checked on the table1 pole, which is
        # damped and underdamped, so no check may skip
        cfg = parse_config(VACUUM)
        assert not cfg.medium.poles
        assert [r.status for r in run_checks(cfg)] == [PASS] * 8

    def test_every_pole_checked(self):
        cfg = two_pole_config()
        results = run_checks(cfg)
        assert len(results) == 16
        assert [r.name for r in results[:8]] == [r.name for r in results[8:]]
        assert all(r.detail.startswith("pole 1: ") for r in results[:8])
        assert all(r.detail.startswith("pole 2: ") for r in results[8:])
        # the overdamped pole has no conjugate pair; every other check runs
        assert [(k, r.name) for k, r in enumerate(results) if r.status == SKIP] == \
            [(11, "conjugacy")]
        assert all(r.status == PASS for r in results if r.status != SKIP)

    def test_uniform_drive(self):
        # the recurrence check's drive: SplitMix64 (published first output
        # under seed 1234567: 6457827717110365317), mapped to [-1, 1)
        first = verify._uniform_drive(1234567, (1, 1))[0, 0]
        assert first == (6457827717110365317 >> 11) * 2.0**-52 - 1.0
        drive = verify._uniform_drive(20240501, (5, 2000))
        assert drive.shape == (5, 2000) and drive.dtype == np.float64
        assert np.array_equal(drive, verify._uniform_drive(20240501, (5, 2000)))
        assert not np.array_equal(drive, verify._uniform_drive(20240502, (5, 2000)))
        assert not np.array_equal(drive[0], drive[1])
        assert ((-1.0 <= drive) & (drive < 1.0)).all()
        assert abs(drive.mean()) < 0.02 and abs(drive.var() - 1.0 / 3.0) < 0.02

    def test_checks_never_step_the_scalar_form(self, monkeypatch):
        # every check reads the coefficients or the matrix the grid uses,
        # never the scalar two-accumulator or ADE form
        def scalar_form(*args, **kwargs):
            raise AssertionError("verify stepped the scalar pole form")

        for module, name in ((greens, "advance_state"), (greens, "polarization"),
                             (greens, "polarization_current_half_step"),
                             (ade, "ade_advance"), (ade, "ade_current_half_step")):
            monkeypatch.setattr(module, name, scalar_form)
        results = run_checks(two_pole_config())
        assert len(results) == 16
        assert [(k, r.name) for k, r in enumerate(results) if r.status == SKIP] == \
            [(11, "conjugacy")]
        assert all(r.status == PASS for r in results if r.status != SKIP)

    def test_corrupted_propagator_fails_recurrence(self, monkeypatch):
        corrupt_block(monkeypatch, greens, "tgm_block", scaled_propagator)
        results = run_checks(two_pole_config())
        recurrence = [r for r in results if r.name == "recurrence-vs-direct-sum"]
        assert [r.detail.split(":")[0] for r in recurrence] == ["pole 1", "pole 2"]
        assert all(r.status == FAIL for r in recurrence)

    @pytest.mark.parametrize("method", ["tgm", "adem"])
    def test_checks_step_the_grid_matrix(self, monkeypatch, method):
        # every matrix the checks build at the config's dt is the table1
        # grid's bank matrix, bit for bit, current scale included
        cfg = load_table1()
        real, built = verify.pole_matrix, []

        def spy(poles, kind, dt, scale):
            mat = real(poles, kind, dt, scale)
            if kind == method and dt == cfg.dt:
                built.append(mat)
            return mat

        monkeypatch.setattr(verify, "pole_matrix", spy)
        assert all(r.ok for r in run_checks(cfg))
        bank = build_simulation(cfg, method=method)._lanes[0].bank.matrix
        assert len(built) == 3
        assert all(np.array_equal(mat, bank) for mat in built)

    def test_overdamped_conjugacy_skipped(self, tmp_path):
        text = SMALL.replace("delta_p = 1.2566370614359172e10",
                             "delta_p = 3.0e11")
        cfg = parse_config(text)
        results = run_checks(cfg)
        by_name = {r.name: r for r in results}
        assert by_name["conjugacy"].status == SKIP
        assert "overdamped" in by_name["conjugacy"].detail
        assert all(r.status in (PASS, SKIP) for r in results)

    def test_undamped_steady_state_skipped(self):
        pole = LorentzPole(3.0, WP, 0.0)
        cfg = load_table1()
        res = verify.check_steady_state(pole, cfg.dt, cfg.dt / (EPS0 * cfg.medium.eps_inf))
        assert (res.status, res.detail) == (SKIP, "skipped (undamped pole never settles)")

    @pytest.mark.parametrize("field, skew, conjugacy", [
        ("prop_minus", 1.0 + 1e-9, FAIL),
        ("inject_minus", 1.0 + 1e-9, FAIL),
        ("curr_minus", 1.0 + 1e-6, PASS),
    ], ids=["prop_minus", "inject_minus", "curr_minus"])
    def test_skewed_coefficients_fail_realness(self, monkeypatch, capsys, field, skew,
                                               conjugacy):
        # any skewed minus branch fails realness; F- == conj(F+) needs only
        # prop and inject, so conjugacy passes a skewed current
        make = greens.make_coefficients

        def skewed(pole, dt):
            c = make(pole, dt)
            return dataclasses.replace(c, **{field: getattr(c, field) * skew})

        cfg = load_table1()
        pole = cfg.medium.poles[0]
        assert verify.check_conjugacy(pole, cfg.dt).status == PASS
        assert verify.check_realness(pole, cfg.dt).status == PASS
        monkeypatch.setattr(greens, "make_coefficients", skewed)
        assert verify.check_conjugacy(pole, cfg.dt).status == conjugacy
        assert verify.check_realness(pole, cfg.dt).status == FAIL
        # the CLI prints every check: those the tgm block's build gate stops
        # FAIL with the gate's message, and the exit code is 2
        assert cli.main(["verify", "--config", str(table1_path())]) == 2
        lines = capsys.readouterr().out.splitlines()
        status = {line.split()[1].rstrip(":"): line.split()[0] for line in lines[:-1]}
        assert list(status) == CHECK_NAMES
        gated = [line.split()[1].rstrip(":") for line in lines
                 if line.startswith("FAIL ") and f"needs {field} == conj(" in line]
        assert gated == ["recurrence-vs-direct-sum", "steady-state", "non-amplification",
                         "temporal-convergence-order"]
        assert (status["conjugacy"], status["realness"]) == (conjugacy, FAIL)
        assert status["ade-fixed-point"] == PASS
        # the closed form reads inject_minus, through its own realness check
        assert status["green-closed-form-vs-rk4"] == (FAIL if field == "inject_minus" else PASS)
        assert lines[-1].endswith("/8 checks passed")

    def test_lightly_damped_pole_settles_longer(self):
        # 0 < delta_p < 0.02 omega_p: the settle window grows to 5/delta_p
        res = verify.check_temporal_order(LorentzPole(3.0, WP, 0.01 * WP))
        assert res.status == PASS, res.detail

    def test_checks_fit_in_two_mb(self):
        # the smooth-drive reference is solved only at the times it reads:
        # a dense mesh took 10.6 MB on table1 and 100 MB at the settle cap
        import tracemalloc

        tracemalloc.start()
        try:
            results = run_checks(load_table1())
            table1_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            # delta_p = 0.001 omega_p: the settle window sits at its 40-period cap
            res = verify.check_temporal_order(LorentzPole(3.0, WP, 0.001 * WP))
            capped_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.status for r in results] == [PASS] * 8
        assert res.status == PASS, res.detail
        assert table1_peak <= 2e6
        assert capped_peak <= 2e6

    def test_exit_code_two_on_failure(self, small_cfg, capsys, monkeypatch):
        corrupt_block(monkeypatch, greens, "tgm_block", scaled_propagator)
        assert cli.main(["verify", "--config", str(small_cfg)]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestVerifyCatchesCorruptBlocks:
    """verify steps the blocks the grid steps, so a fault in either
    method's block fails it on table1."""

    def test_conjugated_tgm_block(self, monkeypatch, capsys):
        # [[a, -b], [b, a]] -> [[a, b], [-b, a]]: the accumulator turns
        # the wrong way
        corrupt_block(monkeypatch, greens, "tgm_block",
                      lambda a, inject, curr, curr_e: (np.transpose(a), inject, curr, curr_e))
        assert cli.main(["verify", "--config", str(table1_path())]) == 2
        assert "FAIL recurrence-vs-direct-sum" in capsys.readouterr().out

    def test_adem_block_with_scaled_k(self, monkeypatch, capsys):
        # k enters the injection column and the current's E entry
        corrupt_block(monkeypatch, ade, "adem_block",
                      lambda a, inject, curr, curr_e: (a, np.multiply(inject, 1.01), curr,
                                                        1.01 * curr_e))
        assert cli.main(["verify", "--config", str(table1_path())]) == 2
        out = capsys.readouterr().out
        assert "FAIL steady-state" in out and "FAIL ade-fixed-point" in out

    def test_adem_block_with_k_off_by_half_a_percent(self, monkeypatch, capsys):
        # the fixed point moves by 5e-3, between the steady-state check's
        # tolerance 1e-3 and 1e-2
        corrupt_block(monkeypatch, ade, "adem_block",
                      lambda a, inject, curr, curr_e: (a, np.multiply(inject, 1.005), curr,
                                                        1.005 * curr_e))
        assert cli.main(["verify", "--config", str(table1_path())]) == 2
        out = capsys.readouterr().out
        assert "FAIL steady-state: pole 1: worst relative offset 5.000e-03" in out

    def test_bank_stepping_a_stale_field(self, monkeypatch, capsys):
        # the stepping checks read the states of the grid's own bank, so a
        # bank that steps from the previous sample's E fails both of them
        class StaleBank(bank.PoleBank):
            def __init__(self, matrix, e_run, rhs_run):
                super().__init__(matrix, e_run, rhs_run)
                fresh, last = self.advance, np.zeros(len(e_run))

                def advance():
                    now = e_run.copy()
                    e_run[...], last[...] = last, now
                    return fresh()

                self.advance = advance

        monkeypatch.setattr(verify, "PoleBank", StaleBank)
        assert cli.main(["verify", "--config", str(table1_path())]) == 2
        out = capsys.readouterr().out
        assert "FAIL recurrence-vs-direct-sum" in out
        assert "FAIL temporal-convergence-order" in out
        assert "6/8 checks passed" in out

    def test_block_with_radius_above_one(self, monkeypatch, capsys):
        # each method's 2x2 block scaled to spectral radius 1 + 1e-3: the
        # states grow by 0.1 % a step under zero drive
        real = verify.pole_matrix

        def grown(*args):
            mat = real(*args)
            mat[:2, :2] *= (1.0 + 1e-3) / np.abs(np.linalg.eigvals(mat[:2, :2])).max()
            return mat

        monkeypatch.setattr(verify, "pole_matrix", grown)
        assert cli.main(["verify", "--config", str(table1_path())]) == 2
        assert ("FAIL non-amplification: pole 1: spectral radius tgm 1.001000000, "
                "adem 1.001000000") in capsys.readouterr().out


def corrupt_block(monkeypatch, module, name, fault):
    """Replace the block builder `module.name` by one that passes its
    (A, inject, curr, curr_e) through `fault`."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda pole, dt, scale: fault(*real(pole, dt, scale)))


def scaled_propagator(a, inject, curr, curr_e):
    """Every state of the block grows by 1e-4 a step more than it should."""
    return np.multiply(a, 1.0 + 1e-4), inject, curr, curr_e


def two_pole_config():
    """table1 with the overdamped pole added as pole 2."""
    cfg = load_table1()
    return cfg.with_medium(dataclasses.replace(
        cfg.medium, poles=cfg.medium.poles + (OVERDAMPED_POLE,)))


class TestRefinementMonotonicity:
    def test_summary_errors_non_increasing_on_doubling(self):
        from greenfdtd.config import SimConfig
        from greenfdtd.fdtd import GaussianSource

        medium = Medium(eps_inf=1.5, sigma=0.0, poles=(LorentzPole(3.0, WP, 0.1 * WP),))

        def summary_errors(n_grid, steps, absorber_cells):
            cfg = SimConfig(
                system_length=0.02,
                n_grid=n_grid,
                cfl_factor=0.9,
                source=GaussianSource(1e-11, 1e-12, 2 * math.pi * 100e9),
                medium=medium,
                n_steps=steps,
                band_threshold=1e-3,
                absorber_cells=absorber_cells,
                absorber_sigma=10.0,
            )
            _, analytic, mags = reflection_experiment(cfg, ("tgm", "adem"))
            out = {}
            for method, mag in mags.items():
                err = np.abs(mag - analytic)
                out[method] = (err.max(), float(np.sqrt(np.mean(err**2))))
            return out

        coarse = summary_errors(600, 8192, 132)
        fine = summary_errors(1200, 16384, 264)
        for method in ("tgm", "adem"):
            assert fine[method][0] <= coarse[method][0]
            assert fine[method][1] <= coarse[method][1]


class TestReflectionProbe:
    """The experiment reads |R| at the vacuum-side probe nearest the
    interface, whatever the order of the configured probes."""

    def test_probe_order_does_not_matter(self):
        cfg = small_table1()
        (fa, ra, ma), (fb, rb, mb) = (
            reflection_experiment(dataclasses.replace(cfg, probes=probes), ("tgm",))
            for probes in ((0.25, 0.75, 0.499), (0.25, 0.499, 0.75)))
        assert np.array_equal(fa, fb) and np.array_equal(ra, rb)
        assert np.array_equal(ma["tgm"], mb["tgm"])

    def test_no_vacuum_side_probe(self, tmp_path, capsys):
        p = table1_variant(tmp_path, "probes = 0.25, 0.499, 0.75", "probes = 0.75")
        assert cli.main(["reflection", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "run.probes" in err

    @pytest.mark.parametrize("steps", [0, 100])
    def test_short_record_exits_cleanly(self, tmp_path, capfd, steps):
        # after 100 steps the pulse has not yet reached the probe at node 1497
        p = table1_variant(tmp_path, "steps = 32768", f"steps = {steps}")
        assert cli.main(["reflection", "--config", str(p)]) == 1
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("config error: run.steps")


NON_FINITE = pytest.mark.parametrize("command, message", [
    ("run", "tgm run is non-finite from step 4683 at probe node 224"),
    ("reflection", "vacuum reference run is non-finite from step 4758 at probe node 149"),
])


class TestNonFiniteRun:
    @NON_FINITE
    def test_exits_with_config_error(self, tmp_path, capfd, command, message):
        p = tmp_path / "unstable.cfg"
        p.write_text(UNSTABLE)
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", str(p), "--out", str(out)]) == 1
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith(f"config error: {message}: ")
        assert not out.exists()

    @NON_FINITE
    def test_stderr_is_the_one_error_line(self, tmp_path, command, message):
        # in a fresh interpreter, so numpy's RuntimeWarnings would reach
        # stderr as they do for a user
        p = tmp_path / "unstable.cfg"
        p.write_text(UNSTABLE)
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "greenfdtd", command, "--config", str(p),
             "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"config error: {message}: ")


# table1 at 300 nodes, 66 absorber cells and 3000 steps, each with one medium
# or grid constant at an extreme: the line replacements, and the exit status
# of run, reflection, green and verify
_WP, _DP = "omega_p = 1.2566370614359172e11", "delta_p = 1.2566370614359172e10"
EXTREME_MEDIA = {
    # the branch-symmetry gate refuses the pole in the build and in green
    "omega_p=1e-300": ({_WP: "omega_p = 1e-300", _DP: "delta_p = 0.0"}, (1, 1, 1, 2)),
    "delta_p=1e18": ({_WP: "omega_p = 1e10", _DP: "delta_p = 1e18"}, (1, 1, 1, 2)),
    "delta_eps=1e300": ({"delta_eps = 3.0": "delta_eps = 1e300"}, (1, 1, 0, 2)),
    # a medium that reflects like vacuum, whose errors must not underflow
    "delta_eps=1e-300": ({"delta_eps = 3.0": "delta_eps = 1e-300"}, (0, 0, 0, 0)),
    # the run goes non-finite at step 1 and the adem current row is not
    # finite, so verify's ade-fixed-point reads NaN and fails (ROADMAP item 5)
    "eps_inf=1e-300": ({"eps_inf = 1.5": "eps_inf = 1e-300"}, (1, 1, 0, 2)),
    # at table1's dx, an undamped pole at bin 100 of the 8192-point padded
    # transform: the analytic |R| of reflection would divide by zero
    "resonance": ({"length = 0.05": "length = 0.004984994998332777",
                   _WP: "omega_p = 1532408596560.1267", _DP: "delta_p = 0.0"}, (0, 1, 0, 0)),
    # omega_p*h = 5 at green's RK4 step h = dt/1000, past RK4's stability limit
    "omega_p=1e16": ({_WP: "omega_p = 1e16", _DP: "delta_p = 1e12"}, (1, 1, 1, 2)),
    # a derived dt below the smallest normal float (1.0e-311, 1.0e-321 and
    # 0.0): the loader refuses it, where each command ended in a traceback
    # or stepped a subnormal grid
    "length=1e-300": ({"length = 0.05": "length = 1e-300"}, (1, 1, 1, 1)),
    "length=1e-310": ({"length = 0.05": "length = 1e-310"}, (1, 1, 1, 1)),
    "length=1e-320": ({"length = 0.05": "length = 1e-320"}, (1, 1, 1, 1)),
}
TABLE1_AT_300_NODES = {"nodes = 3000": "nodes = 300", "absorber_cells = 660": "absorber_cells = 66",
                "steps = 32768": "steps = 3000"}


def extreme_config(tmp_path, medium):
    """The EXTREME_MEDIA config `medium`, written to tmp_path."""
    text = table1_path().read_text(encoding="utf-8")
    for old, new in {**TABLE1_AT_300_NODES, **EXTREME_MEDIA[medium][0]}.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text)
    return cfg


@pytest.mark.parametrize("command", ["run", "reflection", "green", "verify"])
@pytest.mark.parametrize("medium", EXTREME_MEDIA)
def test_extreme_medium_exits_cleanly(tmp_path, capsys, medium, command):
    statuses = EXTREME_MEDIA[medium][1]
    cfg = extreme_config(tmp_path, medium)
    out = [] if command == "verify" else ["--out", str(tmp_path / "out.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = cli.main([command, "--config", str(cfg), *out])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert status == statuses[["run", "reflection", "green", "verify"].index(command)]
    if status == 1:
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("medium, command, message", [
    ("delta_p=1e18", "run", "LorentzPole("),
    ("omega_p=1e-300", "green", "[medium.pole.1]: green_function: imaginary residual nan"),
    ("omega_p=1e16", "green", "[medium.pole.1]: the RK4 reference at h = dt/1000 is not finite"),
    ("resonance", "reflection", "permittivity diverges: undamped pole"),
])
def test_refusal_is_the_one_stderr_line(tmp_path, medium, command, message):
    # in a fresh interpreter, so numpy's RuntimeWarnings and a traceback
    # would reach stderr as they do for a user
    cfg = extreme_config(tmp_path, medium)
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "greenfdtd", command, "--config", str(cfg),
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"config error: {message}")


@pytest.mark.parametrize("medium, names", [
    ("omega_p=1e-300", ("conjugacy", "realness")),
    ("eps_inf=1e-300", ("ade-fixed-point",)),
])
def test_nan_residual_fails(tmp_path, medium, names):
    # Python's max drops a NaN that does not come first: each of these
    # checks printed PASS with a residual of 0
    with np.errstate(all="ignore"):
        results = {r.name: r for r in run_checks(load_config(extreme_config(tmp_path, medium)))}
    for name in names:
        assert results[name].status == FAIL and " nan " in results[name].detail


def test_steady_state_nan_fails(monkeypatch):
    # no config reaches it: a NaN fixed point from either method's matrix
    monkeypatch.setattr(verify, "pole_matrix", lambda *args: np.full((3, 3), np.nan))
    assert verify.check_steady_state(load_table1().medium.poles[0], 1e-13, 1.0).status == FAIL


def test_rk4_blow_up_names_the_reference(tmp_path, capsys):
    # past RK4's stability limit the closed-form check reads the text
    # green refuses with, not a relative error of nan
    assert cli.main(["verify", "--config", str(extreme_config(tmp_path, "omega_p=1e16"))]) == 2
    assert ("FAIL green-closed-form-vs-rk4: pole 1: the RK4 reference at h = dt/1000 is not "
            "finite (omega_p*h = 5.02)\n") in capsys.readouterr().out


def test_resonance_refused_before_any_run(tmp_path, capsys, monkeypatch):
    # an undamped pole on a bin of the padded transform is refused before
    # any lane steps, not after every lane has run
    runs = []
    monkeypatch.setattr(fdtd.Simulation, "run", lambda *args: runs.append(args))
    out = tmp_path / "out.csv"
    assert cli.main(["reflection", "--config", str(extreme_config(tmp_path, "resonance")),
                     "--out", str(out)]) == 1
    assert not runs and not out.exists()
    assert capsys.readouterr().err.startswith("config error: permittivity diverges: ")


def test_damped_medium_skips_the_resonance_test(small_cfg, monkeypatch):
    # only an undamped pole can sit on a bin, so a damped medium evaluates
    # no permittivity before its runs
    tested = []
    monkeypatch.setattr(analysis, "permittivity", lambda *args: tested.append(args))
    reflection_experiment(load_config(small_cfg), ("tgm",))
    assert not tested


def small_table1():
    """A tenth of the table1 grid at table1's dx."""
    base = load_table1()
    return dataclasses.replace(base, n_grid=300, system_length=299 * base.dx,
                               absorber_cells=66, n_steps=2048)


def table1_variant(tmp_path, old, new):
    """table1.cfg with the line `old` replaced by `new`, written to tmp_path."""
    text = table1_path().read_text(encoding="utf-8")
    assert old in text
    p = tmp_path / "table1_variant.cfg"
    p.write_text(text.replace(old, new))
    return p


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_unwritable_out_path(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "missing" / "run.csv"
        assert cli.main(["run", "--config", str(small_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_error_exit(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[grid]\nlength = 0.01\nnodes = 400\ncfl = 2.0\n"
                     "[source]\nt0 = 1e-11\nwidth = 1e-12\nomega0 = 6e11\n")
        assert cli.main(["run", "--config", str(p)]) == 1

    def test_usage_error(self):
        assert cli.main(["frobnicate"]) == 1


def test_cli_import_loads_no_verify_layer():
    # `run` and `reflection` need no oracle: cli imports verify only in
    # the commands that use it, in a fresh interpreter
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = "import sys, greenfdtd.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "greenfdtd.cli" in loaded
    for name in ("verify", "oracle"):
        assert f"greenfdtd.{name}" not in loaded


@pytest.mark.parametrize("command", ["run", "reflection", "green", "verify"])
def test_command_loads_only_its_layers(small_cfg, tmp_path, command):
    # each command imports the layers it uses inside it: verify and green
    # step the pole bank and build no grid, run and reflection need no
    # oracle; in a fresh interpreter, after the command has run
    unloaded = ("fdtd", "analysis") if command in ("green", "verify") else ("verify", "oracle")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = [] if command == "verify" else ["--out", str(tmp_path / "out.csv")]
    code = ("import sys, greenfdtd.cli; "
            f"assert greenfdtd.cli.main({[command, '--config', str(small_cfg), *out]!r}) == 0; "
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert "greenfdtd.bank" in loaded
    for name in unloaded:
        assert f"greenfdtd.{name}" not in loaded


def test_verify_loads_no_numpy_random():
    # the recurrence check draws its drive without numpy.random, whose
    # import would cost more than the check, in a fresh interpreter
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = ("import sys, greenfdtd.cli; "
            f"assert greenfdtd.cli.main(['verify', '--config', {str(table1_path())!r}]) == 0; "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
