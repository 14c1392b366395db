"""Line-oriented config files for the half-space reflection experiment.

Grammar: `[section]` headers, `key = value` lines, `#` comments, blank
lines ignored.  The value types' DOMAINS rows are the grammar: `_SECTIONS`
maps each section (grid, source, medium, medium.pole.<k>, run) to
SimConfig, GaussianSource, Medium or LorentzPole, and each row of that
type named `<section>.<key>` is a key of the section (a pole's row is
named by its key alone, as its section carries its number).  The row's
domain type picks the converter; a key is required when its field has no
default.  All values are SI:

    [grid]    length (m), nodes, cfl, absorber_cells, absorber_sigma (S/m)
    [source]  t0 (s, > 0), width (s), omega0 (rad/s)
    [medium]  eps_inf, sigma (S/m)
    [medium.pole.<k>]  delta_eps (> 0), omega_p (rad/s), delta_p (rad/s)
    [run]     steps, probes (fractions of L), method (tgm|adem),
              band_threshold

An empty or absent [medium] section means vacuum.  Pole sections are
numbered 1..P, each k a decimal without leading zeros.  NaN and +-inf
are an error naming the line and key.  Every invariant is one row of a
value type's DOMAINS table (dispersion.check_fields) or one named
cross-field check, so a value built directly or by `dataclasses.replace`
obeys a parsed one's rules; each refusal is a ValidationError naming it.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources

from .constants import C0
from .dispersion import COUNT, FINITE, NON_NEGATIVE, POSITIVE, LorentzPole, Medium, check_fields
from .errors import ValidationError

_UNIT = (numbers.Real, lambda x: 0.0 < x <= 1.0, "in (0, 1]")
_PROBES = ((tuple, list), lambda ps: len(ps) > 0 and all(
    not isinstance(p, bool) and isinstance(p, numbers.Real) and 0.0 < p < 1.0 for p in ps),
    "a non-empty tuple or list of reals in (0, 1)")


@dataclass(frozen=True)
class GaussianSource:
    """Gaussian-enveloped carrier pinned at the left boundary
    (fdtd.source_value):

    value(t) = exp(-(t-t0)^2 / (2 delta_t^2)) * cos(omega0 (t-t0))
    """

    t0: float
    delta_t: float
    omega0: float

    DOMAINS = (("t0", "source.t0", POSITIVE,
                ": the hard source pins node 0 while t < 2*t0, so it must be live at t = 0"),
               ("delta_t", "source.width", POSITIVE), ("omega0", "source.omega0", FINITE))
    def __post_init__(self):
        check_fields(self, self.DOMAINS)


@dataclass(frozen=True)
class SimConfig:
    """Validated experiment description (see module docstring for units)."""

    system_length: float
    n_grid: int
    source: GaussianSource
    medium: Medium
    cfl_factor: float = 0.9
    n_steps: int = 32768
    probes: tuple = (0.25, 0.499, 0.75)
    method: str = "tgm"
    band_threshold: float = 0.001
    absorber_cells: int = 0
    absorber_sigma: float = 0.0

    DOMAINS = (
        ("source", "source", (GaussianSource, lambda _: True, "a GaussianSource")),
        ("medium", "medium", (Medium, lambda _: True, "a Medium")),
        ("system_length", "grid.length", POSITIVE),
        ("n_grid", "grid.nodes", (numbers.Integral, lambda n: n >= 16, "an integer >= 16")),
        ("cfl_factor", "grid.cfl", _UNIT),
        ("absorber_cells", "grid.absorber_cells", COUNT),
        ("absorber_sigma", "grid.absorber_sigma", NON_NEGATIVE),
        ("n_steps", "run.steps", COUNT),
        ("probes", "run.probes", _PROBES),
        ("method", "run.method", (str, lambda m: m in ("tgm", "adem"), "'tgm' or 'adem'")),
        ("band_threshold", "run.band_threshold", _UNIT),
    )
    def __post_init__(self):
        check_fields(self, self.DOMAINS)
        if self.absorber_cells > self.n_grid // 3:
            raise ValidationError(f"grid.absorber_cells must lie in [0, nodes/3 = "
                                  f"{self.n_grid // 3}], got {self.absorber_cells}")
        if self.absorber_cells == 1:
            raise ValidationError("grid.absorber_cells = 1 adds no absorber: the cubic grading "
                                  "puts zero loss on the first absorber cell; use 0 or >= 2")
        if self.dt < sys.float_info.min:
            raise ValidationError(f"grid.length, grid.nodes and grid.cfl give dt = {self.dt!r} s, "
                                  "below the smallest normal float")
        object.__setattr__(self, "probes", tuple(self.probes))

    @property
    def dx(self) -> float:
        """Node spacing, m: length / (nodes - 1)."""
        return self.system_length / (self.n_grid - 1)

    @property
    def dt(self) -> float:
        """Time step, s: cfl * dx / c."""
        return self.cfl_factor * self.dx / C0

    def with_medium(self, medium: Medium) -> "SimConfig":
        return replace(self, medium=medium)


def _float(raw: str) -> float:
    """float(raw), rejecting NaN and +-inf, which no key accepts."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _float_list(raw: str):
    return tuple(_float(part) for part in raw.split(","))


# section (a pole's without its number) -> the value type whose DOMAINS
# rows are its keys; row order is parse order, so that a document with
# several faults reports the same first one
_SECTIONS = {"grid": SimConfig, "source": GaussianSource, "medium": Medium,
             "medium.pole.": LorentzPole, "run": SimConfig}
_CONVERTERS = {numbers.Integral: int, numbers.Real: _float, _PROBES[0]: _float_list}
_REQUIRED = {f.name for cls in _SECTIONS.values()
             for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}


def _parse_lines(text: str):
    """Raw pass with line-number diagnostics: {(section, key): (value,
    lineno)} and the set of numbers k of the [medium.pole.<k>] headers."""
    values, pole_numbers = {}, set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            pole = re.fullmatch(r"medium\.pole\.([1-9][0-9]*)", section)
            if pole:
                pole_numbers.add(int(pole[1]))
            elif section not in _SECTIONS or section.startswith("medium.pole."):
                raise ValidationError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ValidationError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValidationError(f"line {lineno}: malformed 'key = value' pair")
        if (section, key) in values:
            raise ValidationError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        values[(section, key)] = (value, lineno)
    return values, pole_numbers


def _section(values, section):
    """{field: value} of the keys of `section` that the document sets,
    popped from `values`; ValidationError for a bad value or a missing
    required key.  Every [medium.pole.<k>] reads LorentzPole's rows."""
    out, base = {}, section.rstrip("0123456789")
    for attr, name, (kind, _, _), *_ in _SECTIONS[base].DOMAINS:
        row_section, _, key = name.rpartition(".")
        if (row_section or "medium.pole.") != base:  # a row without a section is a pole's
            continue
        if (section, key) in values:
            raw, lineno = values.pop((section, key))
            try:
                out[attr] = _CONVERTERS.get(kind, str)(raw)
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        elif attr in _REQUIRED:
            raise ValidationError(f"missing required key {key!r} in section [{section}]")
    return out


def parse_config(text: str) -> SimConfig:
    """Parse and validate a config document.

    ValidationError naming the line of a syntax problem, or the violated
    invariant (from the value types).
    """
    values, pole_numbers = _parse_lines(text)
    grid = _section(values, "grid")
    source = _section(values, "source")
    medium = _section(values, "medium")
    poles = []
    for k in range(1, max(pole_numbers, default=0) + 1):
        sec = f"medium.pole.{k}"
        if k not in pole_numbers:
            raise ValidationError(f"missing section [{sec}]: pole sections are numbered 1..P")
        keys = _section(values, sec)
        try:
            poles.append(LorentzPole(**keys))
        except ValidationError as exc:
            raise ValidationError(f"[{sec}]: {exc}") from None
    run = _section(values, "run")

    if values:
        (sec, key), (_, lineno) = next(iter(values.items()))
        raise ValidationError(f"line {lineno}: unknown key {key!r} in section [{sec}]")

    return SimConfig(source=GaussianSource(**source), medium=Medium(**medium, poles=tuple(poles)),
                     **grid, **run)


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def table1_path():
    """Filesystem path of the bundled half-space experiment config."""
    return resources.files("greenfdtd").joinpath("data/table1.cfg")


def load_table1() -> SimConfig:
    return parse_config(table1_path().read_text(encoding="utf-8"))
