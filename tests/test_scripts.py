"""The scripts under scripts/ load against the current package API."""

import dataclasses
import hashlib
import importlib.util
import pathlib

import numpy as np
import pytest

import greenfdtd
from greenfdtd import ade, analysis, cli, config, dispersion, fdtd, greens, oracle, verify
from greenfdtd.config import load_table1, table1_path

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_path(name, path):
    """Import the file at `path` as module `name` without running a main."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_script(name):
    return load_path(f"script_{name}", SCRIPTS / f"{name}.py")


def small_table1():
    # a tenth of the table1 grid, table1's dx
    base = load_table1()
    return dataclasses.replace(base, n_grid=300, system_length=299 * base.dx,
                               absorber_cells=66, n_steps=2048)


@pytest.mark.parametrize("name", ["absorber_study", "mutation_matrix", "output_digests",
                                  "own_peak", "reflection_figure"])
def test_script_loads(name):
    assert callable(load_script(name).main)


@pytest.mark.parametrize("name", list(load_script("mutation_matrix").MUTATIONS))
def test_mutation_applies_once(name):
    # the matrix itself stays out of tier-1; this keeps its list from
    # rotting as the code it mutates changes
    file, old, new = load_script("mutation_matrix").MUTATIONS[name]
    assert old != new
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1


def test_verify_and_green_outputs_pinned(tmp_path, capsys):
    # three of scripts/output_digests.py's lines, the cheap ones: a change
    # to verify or to the closed form must keep these outputs byte-identical
    three_pole = tmp_path / "three_pole.cfg"
    three_pole.write_text(load_script("output_digests").three_pole_config(), encoding="utf-8")
    got = {}
    for label, cfg in (("verify stdout", table1_path()), ("three-pole verify stdout", three_pole)):
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        got[label] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    csv = tmp_path / "green.csv"
    assert cli.main(["green", "--config", str(table1_path()), "--out", str(csv)]) == 0
    got["green csv"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    assert got == {
        "verify stdout": "bfa6ecb968a69fcd901180d3e2568d6b32f1fb03b3195dff666574bcb8522cb3",
        "three-pole verify stdout":
            "1d71abf13af45947cdc7e61dfd3c053f64ade85f8381a6dff54273b44d2d5175",
        "green csv": "25df6661b7c99486d7b2002c3625ab63966c13c3c930a4b0251f0d7425119330",
    }


def test_absorber_study_band_errors():
    # the study's per-row measurement on a tenth of the table1 grid
    study = load_script("absorber_study")
    max_err, rms_err, f_worst = study.band_errors(small_table1())
    assert np.isfinite([max_err, rms_err, f_worst]).all()
    assert 0.0 <= rms_err <= max_err


def test_benchmark_tracer_fits_the_package():
    # perfbench/run.py --trace 1 wraps these entry points by name and
    # labels each run from the Simulation's attributes
    spans = load_path("perfbench_spans", ROOT / "perfbench" / "spans.py")
    namespaces = (greenfdtd, ade, analysis, cli, config, dispersion, fdtd, greens,
                  oracle, verify, fdtd.Simulation)
    before = [dict(vars(ns)) for ns in namespaces]
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises on a wrapped name the package lacks
        checks = {attr for ns, attr, _ in tracer._patched
                  if ns is verify and attr.startswith("check_")}
        assert len(checks) == len(spans.VERIFY_CHECK_NAMES)
        # the scalar pole updaters through their wrappers, on the plain
        # state pairs: the hook labels a call by its drive, the second
        # positional argument
        table1 = load_table1()
        pole, dt = table1.medium.poles[0], table1.dt
        coeffs = greens.make_coefficients(pole, dt)
        for e_now in (1.0, np.ones(3)):
            f_plus, f_minus = greens.advance_state((0j, 0j), e_now, coeffs)
            p_next, p_now = ade.ade_advance((0.0, 0.0), e_now, pole, dt)
            assert np.shape(f_plus) == np.shape(f_minus) == np.shape(p_next) == np.shape(e_now)
            assert p_now == 0.0
        scalar_spans = [(name, info) for _, name, *_, info in tracer.spans
                        if name in ("greens.advance_state", "ade.ade_advance")]
        assert scalar_spans == [("greens.advance_state", True), ("ade.ade_advance", True),
                                ("greens.advance_state", False), ("ade.ade_advance", False)]
    finally:
        tracer.uninstall()
    for ns, snapshot in zip(namespaces, before):
        assert all(vars(ns)[key] is value for key, value in snapshot.items())

    cfg = small_table1()
    builds = {"vacuum": (cfg.with_medium(dispersion.Medium.vacuum()), "tgm"),
              "tgm": (cfg, "tgm"), "adem": (cfg, "adem")}
    for label, (c, method) in builds.items():
        info = spans._run_info(fdtd.build_simulation(c, method=method), c.n_steps, [1])
        assert info["label"] == label
    # the reflection experiment's lanes: its medium runs, then the vacuum
    # reference, in one Simulation
    lanes = [dataclasses.replace(c, method=method) for c, method in builds.values()]
    sim = fdtd.Simulation(*lanes[1:], lanes[0])
    info = spans._run_info(sim, cfg.n_steps, [1])
    assert info["nodes"] == 3 * cfg.n_grid and info["steps"] == cfg.n_steps
