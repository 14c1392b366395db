"""Config grammar, defaults, validation and the bundled experiment file."""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from greenfdtd import cli, config
from greenfdtd.config import SimConfig, load_table1, parse_config, table1_path
from greenfdtd.constants import C0
from greenfdtd.dispersion import LorentzPole, Medium
from greenfdtd.errors import ValidationError
from greenfdtd.fdtd import GaussianSource, build_simulation

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

# every key of the grammar, each optional one away from its default
FULL = """
[grid]
length = 0.05
nodes = 3000
cfl = 0.8
absorber_cells = 100
absorber_sigma = 5.0
[source]
t0 = 1.0e-11
width = 1.0e-12
omega0 = 6.283185307179586e11
[medium]
eps_inf = 1.5
sigma = 0.1
[medium.pole.1]
delta_eps = 3.0
omega_p = 1.2566370614359172e11
delta_p = 1.2566370614359172e10
[run]
steps = 100
probes = 0.25, 0.75
method = adem
band_threshold = 0.01
"""
REQUIRED = ("length", "nodes", "t0", "width", "omega0", "delta_eps", "omega_p", "delta_p")
OPTIONAL = ("cfl", "absorber_cells", "absorber_sigma", "eps_inf", "sigma", "steps", "probes",
            "method", "band_threshold")
# every key with a real value, the probes list included
FLOAT_KEYS = ("length", "cfl", "absorber_sigma", "t0", "width", "omega0", "eps_inf", "sigma",
              "delta_eps", "omega_p", "delta_p", "probes", "band_threshold")
ROOT = pathlib.Path(__file__).resolve().parent.parent


def without(key):
    return "\n".join(line for line in FULL.splitlines() if line.partition("=")[0].strip() != key)


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

    def test_readme_example_is_table1(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(block) == load_table1()


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
        with pytest.raises(ValidationError, match="line 2"):
            parse_config("\n[nonsense]\n")

    def test_key_outside_section(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config("length = 0.05\n")

    def test_missing_equals(self):
        with pytest.raises(ValidationError, match="key = value"):
            parse_config("[grid]\nlength 0.05\n")

    @pytest.mark.parametrize("line", ["length =", "= 0.05"])
    def test_malformed_pair(self, line):
        with pytest.raises(ValidationError, match="line 2: malformed 'key = value' pair"):
            parse_config(f"[grid]\n{line}\n")

    def test_duplicate_key(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config("[grid]\nlength = 0.05\nlength = 0.06\n")

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(MINIMAL + "\n[grid]\nwibble = 3\n")

    def test_output_path_is_not_a_key(self):
        # the output path is the CLI's --out alone
        lineno = MINIMAL.count("\n") + 1
        with pytest.raises(ValidationError,
                           match=f"^line {lineno}: unknown key 'out' in section \\[run\\]$"):
            parse_config(MINIMAL + "out = out.csv\n")

    def test_bad_number(self):
        with pytest.raises(ValidationError, match="bad value"):
            parse_config(MINIMAL.replace("nodes = 3000", "nodes = many"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_value_named(self, key, value):
        # sign checks pass NaN through, and an inf makes runs and verify
        # report nan or pass: no real value may be non-finite
        line = re.search(rf"^{key} = .*$", FULL, re.MULTILINE)
        lineno = FULL.count("\n", 0, line.start()) + 1
        with pytest.raises(ValidationError, match=rf"^line {lineno}: bad value for '{key}': "
                                              rf"'{value}' is not finite$"):
            parse_config(FULL.replace(line[0], f"{key} = {value}"))

    def test_missing_required(self):
        with pytest.raises(ValidationError, match="omega0"):
            parse_config(MINIMAL.replace("omega0 = 6.283185307179586e11", ""))

    @pytest.mark.parametrize("key", REQUIRED)
    def test_every_required_key_named_when_missing(self, key):
        with pytest.raises(ValidationError, match=f"missing required key '{key}'"):
            parse_config(without(key))

    @pytest.mark.parametrize("key", OPTIONAL)
    def test_every_optional_key_may_be_omitted(self, key):
        # the key is read when present: omitting it restores a default
        assert parse_config(without(key)) != parse_config(FULL)


POLE = "delta_eps = 1.0\nomega_p = 1.0e10\ndelta_p = 1.0e9\n"


class TestPoleSections:
    """Pole sections are [medium.pole.1] .. [medium.pole.P]; each header
    counts, whether or not keys follow it."""

    def test_empty_pole_section_reports_first_missing_key(self):
        with pytest.raises(ValidationError, match=r"missing required key 'delta_eps' "
                                              r"in section \[medium\.pole\.1\]"):
            parse_config(MINIMAL + "[medium.pole.1]\n")

    def test_first_pole_section_missing(self):
        with pytest.raises(ValidationError, match=r"missing section \[medium\.pole\.1\]"):
            parse_config(MINIMAL + "[medium.pole.2]\n" + POLE)

    def test_gap_names_first_missing_section(self):
        text = MINIMAL + "[medium.pole.1]\n" + POLE + "[medium.pole.3]\n" + POLE
        with pytest.raises(ValidationError, match=r"missing section \[medium\.pole\.2\]"):
            parse_config(text)

    @pytest.mark.parametrize("number", ["01", "x", "", "0", "1.0", "+1"])
    def test_pole_number_not_a_positive_decimal(self, number):
        lineno = len(MINIMAL.splitlines()) + 1
        with pytest.raises(ValidationError, match=rf"line {lineno}: unknown section "
                                              rf"\[medium\.pole\.{re.escape(number)}\]"):
            parse_config(MINIMAL + f"[medium.pole.{number}]\n" + POLE)

    def test_reopened_pole_section(self):
        # the keys of one pole may be split over two headers
        split = parse_config(MINIMAL + "[medium.pole.1]\ndelta_eps = 1.0\n[run]\n"
                             "[medium.pole.1]\nomega_p = 1.0e10\ndelta_p = 1.0e9\n")
        assert split == parse_config(MINIMAL + "[medium.pole.1]\n" + POLE)

# every real field of the value types, built directly with one value
# replaced: test id -> (the name its messages use, the build)
BUILT_FIELDS = {
    "grid.length": ("grid.length", lambda v: dataclasses.replace(load_table1(), system_length=v)),
    "grid.absorber_sigma": ("grid.absorber_sigma",
                            lambda v: dataclasses.replace(load_table1(), absorber_sigma=v)),
    "eps_inf": ("medium.eps_inf", lambda v: Medium(eps_inf=v)),
    "sigma": ("medium.sigma", lambda v: Medium(sigma=v)),
    "delta_eps": ("delta_eps", lambda v: LorentzPole(v, 1.0e10, 1.0e9)),
    "omega_p": ("omega_p", lambda v: LorentzPole(3.0, v, 1.0e9)),
    "delta_p": ("delta_p", lambda v: LorentzPole(3.0, 1.0e10, v)),
    "t0": ("source.t0", lambda v: GaussianSource(v, 1.0e-12, 1.0)),
    "delta_t": ("source.width", lambda v: GaussianSource(1.0e-11, v, 1.0)),
    "omega0": ("source.omega0", lambda v: GaussianSource(1.0e-11, 1.0e-12, v)),
}


class TestValidation:
    def test_cfl_named_in_error(self):
        with pytest.raises(ValidationError, match=r"^grid\.cfl must be in \(0, 1\], got 1\.1$"):
            parse_config(MINIMAL + "\n[grid]\ncfl = 1.1\n")

    def test_probe_fraction_range(self):
        with pytest.raises(ValidationError, match="probes"):
            parse_config(MINIMAL + "\n[run]\nprobes = 0.0, 0.5\n")

    def test_absorber_width_checked_at_load(self):
        # nodes = 3000 allows at most 1000 absorber cells
        parse_config(MINIMAL + "\n[grid]\nabsorber_cells = 1000\n")
        with pytest.raises(ValidationError, match="absorber_cells"):
            parse_config(MINIMAL + "\n[grid]\nabsorber_cells = 1001\n")

    def test_one_absorber_cell_rejected(self):
        # the cubic grading puts zero loss on the first absorber cell, so
        # one cell would silently add no absorber
        with pytest.raises(ValidationError, match="absorber_cells = 1"):
            parse_config(MINIMAL + "\n[grid]\nabsorber_cells = 1\nabsorber_sigma = 10.0\n")
        parse_config(MINIMAL + "\n[grid]\nabsorber_cells = 2\nabsorber_sigma = 10.0\n")

    def test_replaced_config_is_checked(self):
        cfg = load_table1()
        with pytest.raises(ValidationError, match="nodes must be an integer >= 16"):
            dataclasses.replace(cfg, n_grid=10)
        with pytest.raises(ValidationError, match=r"^grid\.cfl must be in \(0, 1\]"):
            dataclasses.replace(cfg, cfl_factor=1.1)

    @pytest.mark.parametrize("changes, key", [
        ({"absorber_cells": 2.5}, "grid.absorber_cells"),
        ({"n_steps": 10.5}, "run.steps"),
        ({"n_steps": 100.0}, "run.steps"),
        ({"n_grid": 300.5, "absorber_cells": 0}, "grid.nodes"),
        ({"n_grid": True, "absorber_cells": 0}, "grid.nodes"),
        ({"absorber_cells": False}, "grid.absorber_cells"),
    ], ids=["absorber_cells=2.5", "steps=10.5", "steps=100.0", "nodes=300.5", "nodes=True",
            "absorber_cells=False"])
    def test_replaced_count_must_be_an_integer(self, changes, key):
        # a float count failed only later, deep in the build or the run
        bound = "an integer >= 16" if key == "grid.nodes" else "a non-negative integer"
        with pytest.raises(ValidationError, match=rf"^{re.escape(key)} must be {bound}, got"):
            dataclasses.replace(load_table1(), **changes)

    @pytest.mark.parametrize("build, match", [
        (lambda: dataclasses.replace(load_table1(), source=None),
         r"^source must be a GaussianSource, got None$"),
        (lambda: dataclasses.replace(load_table1(), medium=None),
         r"^medium must be a Medium, got None$"),
        (lambda: Medium(eps_inf=1.5, poles=((3.0, 1e11, 1e10),)),
         r"^poles must be a tuple or list of LorentzPoles, got \(\(3\.0, "),
        (lambda: Medium(poles=(LorentzPole(3.0, 1e11, 1e10), "abc")),
         r"^poles must be a tuple or list of LorentzPoles, got \(LorentzPole\(.*\), 'abc'\)$"),
        (lambda: Medium(poles="abc"),
         r"^poles must be a tuple or list of LorentzPoles, got 'abc'$"),
    ], ids=["source=None", "medium=None", "pole-tuple", "second-pole-str", "poles=str"])
    def test_built_value_of_wrong_type_rejected(self, build, match):
        # each built, and failed only later in the build or in eps_static
        # with an AttributeError that named no field
        with pytest.raises(ValidationError, match=match):
            build()

    def test_numpy_integer_counts_accepted(self):
        cfg = dataclasses.replace(load_table1(), n_grid=np.int64(300), n_steps=np.int32(5),
                                  absorber_cells=np.int64(66))
        series = build_simulation(cfg).run(cfg.n_steps, [100])
        assert len(series[0].samples) == 5

    def test_probes_stored_as_tuple(self):
        cfg = load_table1()
        listed = dataclasses.replace(cfg, probes=[0.3])
        assert listed.probes == (0.3,)
        assert listed == dataclasses.replace(cfg, probes=(0.3,))
        assert hash(listed) == hash(dataclasses.replace(cfg, probes=(0.3,)))

    def test_small_grid_rejected(self):
        with pytest.raises(ValidationError, match="nodes"):
            parse_config(MINIMAL.replace("nodes = 3000", "nodes = 4"))

    def test_bad_method(self):
        with pytest.raises(ValidationError, match="method"):
            parse_config(MINIMAL + "\n[run]\nmethod = fancy\n")

    def test_medium_invariants_reported(self):
        with pytest.raises(ValidationError, match="eps_inf"):
            parse_config(MINIMAL + "\n[medium]\neps_inf = 0.0\n")

    @pytest.mark.parametrize("old, new, match", [
        ("length = 0.05", "length = 0.0", "grid.length must be positive"),
        ("length = 0.05", "length = -0.05", "grid.length must be positive"),
        ("absorber_sigma = 5.0", "absorber_sigma = -1.0",
         "grid.absorber_sigma must be non-negative"),
        ("steps = 100", "steps = -1", "run.steps must be a non-negative integer"),
        ("band_threshold = 0.01", "band_threshold = 0.0",
         r"run.band_threshold must be in \(0, 1\]"),
        ("band_threshold = 0.01", "band_threshold = 1.5",
         r"run.band_threshold must be in \(0, 1\]"),
    ], ids=["length=0", "length<0", "absorber_sigma<0", "steps<0", "band_threshold=0",
            "band_threshold>1"])
    def test_invariant_named(self, old, new, match):
        assert old in FULL
        with pytest.raises(ValidationError, match=match):
            parse_config(FULL.replace(old, new))

    @pytest.mark.parametrize("value", ["0.0", "-1.0e-11"])
    def test_source_t0_must_be_positive(self, value):
        # with t0 <= 0 the source is dead from t = 0 on and the run is all zero
        with pytest.raises(ValidationError, match=r"^source\.t0 must be positive.*live at t = 0"):
            parse_config(FULL.replace("t0 = 1.0e-11", f"t0 = {value}"))

    @pytest.mark.parametrize("value", ["0", "-2.0"])
    def test_pole_delta_eps_must_be_positive(self, value):
        # a negative pole is a gain medium: the grid goes non-finite while
        # verify's checks, relative to eps0*delta_eps, cannot fail
        with pytest.raises(ValidationError,
                           match=r"^\[medium\.pole\.1\]: delta_eps must be positive.*gain medium"):
            parse_config(FULL.replace("delta_eps = 3.0", f"delta_eps = {value}"))

    def test_sign_checks_reject_nan(self):
        # configs built directly skip the loader's finiteness check
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            Medium(sigma=math.nan)
        with pytest.raises(ValueError, match="delta_p must be non-negative"):
            LorentzPole(3.0, 1.0e10, math.nan)
        with pytest.raises(ValidationError, match="grid.absorber_sigma must be non-negative"):
            dataclasses.replace(load_table1(), absorber_sigma=math.nan)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("name", BUILT_FIELDS)
    def test_built_value_rejects_non_finite(self, name, value):
        # values built directly skip the loader's check; a sign check
        # names NaN and -inf first where the field has one
        message_name, build = BUILT_FIELDS[name]
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(message_name)} must be [^,]+, got {value}\b"):
            build(value)

    def test_degenerate_pole_reported(self):
        text = MINIMAL + """
[medium.pole.1]
delta_eps = 1.0
omega_p = 1.0e10
delta_p = 1.0e10
"""
        with pytest.raises(ValidationError, match="critically damped"):
            parse_config(text)


# Generated inputs from the value types' DOMAINS tables.  The bases are
# table1's values, with no absorber so that any node count fits.  Each
# domain phrase maps to (a strategy of values inside it, values outside
# it besides OUTSIDE_EVERY_DOMAIN); a new row of a known domain is covered
# with no edit here, and a new domain fails with a KeyError until it is
# added.
TABLE1 = load_table1()
BASES = {SimConfig: dataclasses.replace(TABLE1, absorber_cells=0), Medium: TABLE1.medium,
         LorentzPole: TABLE1.medium.poles[0], GaussianSource: TABLE1.source}
DOMAIN_CASES = {
    "positive and finite": (st.floats(0.0, exclude_min=True, allow_infinity=False),
                            [0.0, -1e-300]),
    "non-negative and finite": (st.floats(0.0, allow_infinity=False), [-1e-300, -1.0]),
    "finite": (st.floats(allow_nan=False, allow_infinity=False), []),
    "non-negative and below 1e154": (st.floats(0.0, 1e154, exclude_max=True),
                                     [-1e-300, -1.0, 1e154]),
    "at least 1e-300 and below 1e154": (st.floats(1e-300, 1e154, exclude_max=True),
                                        [0.0, 9.9e-301, -1.0, 1e154]),
    "in (0, 1]": (st.floats(0.0, 1.0, exclude_min=True), [0.0, -1e-300, 1 + 1e-12]),
    # 0 or 2..nodes/3 of the base grid: absorber_cells' cross-field checks
    "a non-negative integer": (st.just(0) | st.integers(2, 1000) | st.just(np.int64(7)),
                               [-1, 2.0, np.float64(3.0)]),
    "an integer >= 16": (st.integers(16, 10**7), [15, 0, 300.0]),
    "'tgm' or 'adem'": (st.sampled_from(["tgm", "adem"]), ["fdtd", "TGM", b"tgm"]),
    "a GaussianSource": (st.just(TABLE1.source), [(1e-11, 1e-12, 1.0)]),
    "a Medium": (st.sampled_from([TABLE1.medium, Medium.vacuum()]), [TABLE1.medium.poles[0]]),
    # tuples only, so that the value stored is the one drawn
    "a tuple or list of LorentzPoles": (
        st.lists(st.sampled_from([TABLE1.medium.poles[0], LorentzPole(1.0, 1e10, 0.0)]),
                 max_size=3).map(tuple),
        [5, "abc", [(3.0, 1e11, 1e10)], (TABLE1.medium.poles[0], "abc"), TABLE1.medium.poles[0]]),
    # tuples only, so that the value read back is the one drawn
    "a non-empty tuple or list of reals in (0, 1)": (
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1,
                 max_size=4).map(tuple),
        [("a",), (0.5, True), (), 5, (0.0, 0.5), (0.5, 1.0), (math.nan,), [0.5, None], "0.5"]),
}
OUTSIDE_EVERY_DOMAIN = [math.nan, math.inf, -math.inf, True, False, "1.0", None]
DOMAIN_ROWS = [(kind, row) for kind in BASES for row in kind.DOMAINS]
ROW_IDS = [f"{kind.__name__}.{row[0]}" for kind, row in DOMAIN_ROWS]


class TestDomainTables:
    @pytest.mark.parametrize("kind, row", DOMAIN_ROWS, ids=ROW_IDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_value_inside_domain_builds(self, kind, row, data):
        attr, _, (_, _, phrase), *_ = row
        value = data.draw(DOMAIN_CASES[phrase][0])
        try:
            built = dataclasses.replace(BASES[kind], **{attr: value})
        except ValidationError as exc:  # the pole's and the grid's cross-field checks
            if not re.search("critically damped|smallest normal float", str(exc)):
                raise
            reject()
        assert getattr(built, attr) is value

    @pytest.mark.parametrize("kind, row", DOMAIN_ROWS, ids=ROW_IDS)
    def test_value_outside_domain_named(self, kind, row):
        attr, name, (_, _, phrase), *_ = row
        for value in OUTSIDE_EVERY_DOMAIN + DOMAIN_CASES[phrase][1]:
            with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be "
                               f"{re.escape(phrase)}, got {re.escape(repr(value))}"):
                dataclasses.replace(BASES[kind], **{attr: value})

    @pytest.mark.parametrize("kind", BASES, ids=lambda kind: kind.__name__)
    def test_first_row_reported_first(self, kind):
        # a value with a fault in every row reports the table's first row
        bad = {attr: None for attr, *_ in kind.DOMAINS}
        with pytest.raises(ValidationError, match=f"^{re.escape(kind.DOMAINS[0][1])} must be"):
            dataclasses.replace(BASES[kind], **bad)


def render(cfg):
    """The config document of `cfg`, written from the value types' DOMAINS
    rows: each row named `<section>.<key>` (a pole's by its key alone) is
    one `key = value` line, a value in str (a float's is its repr), a list
    comma-separated."""
    def lines(header, value, section):
        yield f"[{header}]"
        for attr, name, *_ in type(value).DOMAINS:
            row_section, _, key = name.rpartition(".")
            x = getattr(value, attr)
            if row_section == section:
                yield f"{key} = {', '.join(map(str, x)) if isinstance(x, tuple) else x}"

    parts = [lines("grid", cfg, "grid"), lines("source", cfg.source, "source"),
             lines("medium", cfg.medium, "medium"), lines("run", cfg, "run")]
    parts += [lines(f"medium.pole.{k}", pole, "") for k, pole in enumerate(cfg.medium.poles, 1)]
    return "\n".join(line for part in parts for line in part) + "\n"


@st.composite
def built_values(draw, kind, **fixed):
    """A value of `kind` whose every DOMAINS row is drawn from inside its
    domain; a draw that fails a cross-field check is rejected."""
    drawn = {attr: draw(DOMAIN_CASES[phrase][0])
             for attr, _, (_, _, phrase), *_ in kind.DOMAINS if attr not in fixed}
    try:
        return dataclasses.replace(BASES[kind], **drawn, **fixed)
    except ValidationError:
        reject()


@st.composite
def configs(draw, max_poles, **fixed):
    """A SimConfig drawn from the inside strategies, with 0 to `max_poles`
    poles and the fields `fixed`."""
    poles = draw(st.lists(built_values(LorentzPole), max_size=max_poles))
    medium = draw(built_values(Medium, poles=tuple(poles)))
    return draw(built_values(SimConfig, source=draw(built_values(GaussianSource)), medium=medium,
                             **fixed))


@settings(max_examples=60, deadline=None)
@given(configs(3))
def test_rendered_config_parses_back(cfg):
    # the rows' names are the grammar: a document written from them reads
    # back to the config it was written from
    assert parse_config(render(cfg)) == cfg


# table1's document at 32 nodes and 64 steps, with each of the lengths
# whose derived dt is subnormal (1.0e-311, 1.0e-321) or zero
SMALL_TABLE1 = render(dataclasses.replace(TABLE1, n_grid=32, n_steps=64, absorber_cells=0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 2, 10]).flatmap(
    lambda cells: configs(2, n_grid=32, n_steps=64, absorber_cells=cells)).map(render))
@example(SMALL_TABLE1.replace("length = 0.05", "length = 1e-300"))
@example(SMALL_TABLE1.replace("length = 0.05", "length = 1e-310"))
@example(SMALL_TABLE1.replace("length = 0.05", "length = 1e-320"))
def test_every_command_exits_cleanly(text):
    # each command on a document drawn from the domains either succeeds,
    # fails verification or refuses with one `config error:` line
    for command in ("run", "reflection", "green", "verify"):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp, "drawn.cfg")
            cfg.write_text(text, encoding="utf-8")
            out = [] if command == "verify" else ["--out", str(pathlib.Path(tmp, "out.csv"))]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = cli.main([command, "--config", str(cfg), *out])
        assert status in (0, 1, 2)
        if status == 1:
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().startswith("config error: ")


def test_config_import_loads_no_analysis_layer():
    # the config path (the benchmark's set-up) imports only what a
    # SimConfig needs, in a fresh interpreter
    src = pathlib.Path(config.__file__).resolve().parents[1]
    code = "import sys, json, greenfdtd.config; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "greenfdtd.config" in loaded
    for name in ("fdtd", "bank", "analysis", "oracle", "verify", "cli"):
        assert f"greenfdtd.{name}" not in loaded
