"""The scripts under scripts/ load against the current package API."""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest

import greenfdtd
from greenfdtd import ade, analysis, cli, config, dispersion, fdtd, greens, oracle, verify
from greenfdtd.config import load_table1

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


@pytest.mark.parametrize("name", ["absorber_study", "output_digests", "reflection_figure"])
def test_script_loads(name):
    assert callable(load_script(name).main)


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
