"""Config grammar, defaults, validation and the bundled experiment file."""

import dataclasses
import math

import pytest

from greenfdtd.config import load_table1, parse_config, table1_path
from greenfdtd.constants import C0
from greenfdtd.errors import ConfigError, ValidationError

MINIMAL = """
[grid]
length = 0.05
nodes = 3000
[source]
t0 = 1.0e-11
width = 1.0e-12
omega0 = 6.283185307179586e11
[run]
steps = 100
"""


class TestBundledConfig:
    def test_derived_steps(self):
        cfg = load_table1()
        assert cfg.dx == 0.05 / 2999
        assert cfg.dt == 0.9 * (0.05 / 2999) / C0

    def test_table1_values(self):
        cfg = load_table1()
        assert cfg.system_length == 0.05
        assert cfg.n_grid == 3000
        assert cfg.cfl_factor == 0.9
        assert cfg.source.omega0 == pytest.approx(2 * math.pi * 100e9, rel=1e-12)
        assert cfg.source.delta_t == 1.0e-12
        assert cfg.source.t0 == 1.0e-11
        assert cfg.medium.eps_inf == 1.5
        assert cfg.medium.sigma == 0.0
        assert len(cfg.medium.poles) == 1
        pole = cfg.medium.poles[0]
        assert pole.delta_eps == 3.0
        assert pole.omega_p == pytest.approx(2 * math.pi * 20e9, rel=1e-12)
        assert pole.delta_p == pytest.approx(0.1 * pole.omega_p, rel=1e-12)

    def test_bundled_file_exists(self):
        assert table1_path().is_file()


class TestParsing:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.cfl_factor == 0.9
        assert cfg.band_threshold == 0.001
        assert cfg.probes == (0.25, 0.499, 0.75)
        assert cfg.method == "tgm"
        assert cfg.n_steps == 100
        assert cfg.absorber_cells == 0

    def test_empty_medium_is_vacuum(self):
        cfg = parse_config(MINIMAL)
        assert cfg.medium.eps_inf == 1.0
        assert cfg.medium.sigma == 0.0
        assert cfg.medium.poles == ()

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# leading comment\n" + MINIMAL.replace(
            "nodes = 3000", "nodes = 3000   # inline comment"))
        assert cfg.n_grid == 3000

    def test_multiple_poles(self):
        text = MINIMAL + """
[medium]
eps_inf = 2.0
[medium.pole.1]
delta_eps = 1.0
omega_p = 1.0e10
delta_p = 1.0e9
[medium.pole.2]
delta_eps = 0.5
omega_p = 5.0e10
delta_p = 0.0
"""
        cfg = parse_config(text)
        assert len(cfg.medium.poles) == 2
        assert cfg.medium.poles[1].omega_p == 5.0e10

    def test_probes_list(self):
        # sections may be reopened; later block adds the probes key
        cfg = parse_config(MINIMAL + "\n[run]\nprobes = 0.1, 0.2, 0.9\n")
        assert cfg.probes == (0.1, 0.2, 0.9)


class TestParseErrors:
    def test_unknown_section_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("\n[nonsense]\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("length = 0.05\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[grid]\nlength 0.05\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[grid]\nlength = 0.05\nlength = 0.06\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\n[grid]\nwibble = 3\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(MINIMAL.replace("nodes = 3000", "nodes = many"))

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="omega0"):
            parse_config(MINIMAL.replace("omega0 = 6.283185307179586e11", ""))


class TestValidation:
    def test_cfl_named_in_error(self):
        with pytest.raises(ValidationError, match="CFL"):
            parse_config(MINIMAL + "\n[grid]\ncfl = 1.1\n")

    def test_probe_fraction_range(self):
        with pytest.raises(ValidationError, match="probes"):
            parse_config(MINIMAL + "\n[run]\nprobes = 0.0, 0.5\n")

    def test_absorber_width_checked_at_load(self):
        # nodes = 3000 allows at most 1000 absorber cells
        parse_config(MINIMAL + "\n[grid]\nabsorber_cells = 1000\n")
        with pytest.raises(ValidationError, match="absorber_cells"):
            parse_config(MINIMAL + "\n[grid]\nabsorber_cells = 1001\n")

    def test_replaced_config_is_checked(self):
        cfg = load_table1()
        with pytest.raises(ValidationError, match="nodes must be >= 16"):
            dataclasses.replace(cfg, n_grid=10)
        with pytest.raises(ValidationError, match="CFL"):
            dataclasses.replace(cfg, cfl_factor=1.1)

    def test_small_grid_rejected(self):
        with pytest.raises(ValidationError, match="nodes"):
            parse_config(MINIMAL.replace("nodes = 3000", "nodes = 4"))

    def test_bad_method(self):
        with pytest.raises(ValidationError, match="method"):
            parse_config(MINIMAL + "\n[run]\nmethod = fancy\n")

    def test_medium_invariants_reported(self):
        with pytest.raises(ValidationError, match="eps_inf"):
            parse_config(MINIMAL + "\n[medium]\neps_inf = 0.0\n")

    def test_degenerate_pole_reported(self):
        text = MINIMAL + """
[medium.pole.1]
delta_eps = 1.0
omega_p = 1.0e10
delta_p = 1.0e10
"""
        with pytest.raises(ValidationError, match="critically damped"):
            parse_config(text)
