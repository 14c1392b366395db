"""Line-oriented config files for the half-space reflection experiment.

Grammar: `[section]` headers, `key = value` lines, `#` comments, blank
lines ignored.  Sections: grid, source, medium, medium.pole.<k>, run.
All values are SI.  Keys:

    [grid]    length (m), nodes, cfl (default 0.9),
              absorber_cells (default 0), absorber_sigma (S/m, default 0)
    [source]  t0 (s), width (s), omega0 (rad/s)
    [medium]  eps_inf (default 1.0), sigma (default 0.0)
    [medium.pole.<k>]  delta_eps, omega_p (rad/s), delta_p (rad/s)
    [run]     steps (default 32768),
              probes (fractions of L, default 0.25, 0.499, 0.75),
              method (tgm|adem, default tgm),
              band_threshold (default 0.001), out (optional path)

An empty or absent [medium] section means vacuum.  Pole sections must be
numbered 1..P.

Every invariant is checked in `SimConfig.__post_init__`, so a config built
directly or by `dataclasses.replace` obeys the same rules as a parsed one;
the properties `SimConfig.dx` and `SimConfig.dt` derive the grid steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

from .constants import C0
from .dispersion import LorentzPole, Medium
from .errors import ConfigError, ValidationError
from .fdtd import GaussianSource

_SECTIONS = ("grid", "source", "medium", "run")


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
    out: str | None = None

    def __post_init__(self):
        # each check names the invariant it guards
        if not self.system_length > 0.0:
            raise ValidationError(f"grid.length must be positive, got {self.system_length}")
        if self.n_grid < 16:
            raise ValidationError(f"grid.nodes must be >= 16, got {self.n_grid}")
        if not 0.0 < self.cfl_factor <= 1.0:
            raise ValidationError(f"CFL factor must satisfy 0 < cfl <= 1, got {self.cfl_factor}")
        if not 0 <= self.absorber_cells <= self.n_grid // 3:
            raise ValidationError(f"grid.absorber_cells must lie in [0, nodes/3 = "
                                  f"{self.n_grid // 3}], got {self.absorber_cells}")
        if self.absorber_sigma < 0.0:
            raise ValidationError(f"grid.absorber_sigma must be >= 0, got {self.absorber_sigma}")
        if self.n_steps < 0:
            raise ValidationError(f"run.steps must be >= 0, got {self.n_steps}")
        if not self.probes or not all(0.0 < p < 1.0 for p in self.probes):
            raise ValidationError(f"run.probes must be fractions in (0, 1), got {self.probes}")
        if self.method not in ("tgm", "adem"):
            raise ValidationError(f"run.method must be 'tgm' or 'adem', got {self.method!r}")
        if not 0.0 < self.band_threshold <= 1.0:
            raise ValidationError(
                f"run.band_threshold must lie in (0, 1], got {self.band_threshold}")

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


def _parse_lines(text: str):
    """Raw pass: {(section, key): value} with line-number diagnostics."""
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not (section in _SECTIONS or section.startswith("medium.pole.")):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: malformed 'key = value' pair")
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        values[(section, key)] = (value, lineno)
    return values


def _take(values, section, key, conv, required=False):
    """The converted value of `key`, or None when the document does not set it."""
    if (section, key) in values:
        raw, lineno = values.pop((section, key))
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    if required:
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return None


def _set(**kwargs):
    """The keyword arguments the document set; the rest keep their defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _float_list(raw: str):
    return tuple(float(part) for part in raw.split(","))


def parse_config(text: str) -> SimConfig:
    """Parse and validate a config document.

    Raises ConfigError for syntax problems (with line numbers) and
    ValidationError naming the violated invariant (from SimConfig).
    """
    values = _parse_lines(text)

    grid = _set(
        system_length=_take(values, "grid", "length", float, required=True),
        n_grid=_take(values, "grid", "nodes", int, required=True),
        cfl_factor=_take(values, "grid", "cfl", float),
        absorber_cells=_take(values, "grid", "absorber_cells", int),
        absorber_sigma=_take(values, "grid", "absorber_sigma", float),
    )

    t0 = _take(values, "source", "t0", float, required=True)
    width = _take(values, "source", "width", float, required=True)
    omega0 = _take(values, "source", "omega0", float, required=True)

    medium = _set(
        eps_inf=_take(values, "medium", "eps_inf", float),
        sigma=_take(values, "medium", "sigma", float),
    )

    poles = []
    k = 1
    while any(sec == f"medium.pole.{k}" for sec, _ in values):
        sec = f"medium.pole.{k}"
        fields = dict(
            delta_eps=_take(values, sec, "delta_eps", float, required=True),
            omega_p=_take(values, sec, "omega_p", float, required=True),
            delta_p=_take(values, sec, "delta_p", float, required=True),
        )
        try:
            poles.append(LorentzPole(**fields))
        except ValueError as exc:
            raise ValidationError(f"[{sec}]: {exc}") from None
        k += 1

    run = _set(
        n_steps=_take(values, "run", "steps", int),
        probes=_take(values, "run", "probes", _float_list),
        method=_take(values, "run", "method", str),
        band_threshold=_take(values, "run", "band_threshold", float),
        out=_take(values, "run", "out", str),
    )

    if values:
        (sec, key), (_, lineno) = next(iter(values.items()))
        raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{sec}]")

    try:
        source = GaussianSource(t0=t0, delta_t=width, omega0=omega0)
        medium = Medium(**medium, poles=tuple(poles))
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    return SimConfig(source=source, medium=medium, **grid, **run)


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def table1_path():
    """Filesystem path of the bundled half-space experiment config."""
    return resources.files("greenfdtd").joinpath("data/table1.cfg")


def load_table1() -> SimConfig:
    return parse_config(table1_path().read_text(encoding="utf-8"))
