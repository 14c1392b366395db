"""The scripts under scripts/ load against the current package API."""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest

from greenfdtd.config import load_table1

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """Import scripts/<name>.py as a module without running its main."""
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["absorber_study", "reflection_figure"])
def test_script_loads(name):
    assert callable(load_script(name).main)


def test_absorber_study_band_errors():
    # the study's per-row measurement on a tenth of the table1 grid
    study = load_script("absorber_study")
    base = load_table1()
    cfg = dataclasses.replace(base, n_grid=300, system_length=299 * base.dx,
                              absorber_cells=66, n_steps=2048)
    max_err, rms_err, f_worst = study.band_errors(cfg)
    assert np.isfinite([max_err, rms_err, f_worst]).all()
    assert 0.0 <= rms_err <= max_err
