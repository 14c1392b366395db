"""1D staggered-grid leapfrog Maxwell solver with dispersive media.

E_y lives on the N integer nodes x_i = i*dx at integer time steps; B_z
lives on the N-1 half nodes at half time steps (stored as magnetic
induction, tesla).  SI form of the update, with both curls negative so
vacuum reduces to the standard wave equation:

    dB/dt = -dE/dx
    dE/dt = [ -(1/mu0) dB/dx - sigma E - sum_p dP_p/dt ] / (eps0 eps_inf)

The dispersive current dP/dt is evaluated at t_N + dt/2 by the selected
updater ("tgm" recursive Green-function accumulators or "adem" two-level
ADE history) after injecting E^N, and enters the E update like a current
density; the leapfrog itself is unmodified.  Nodes with x < L/2 are
vacuum and nodes with x >= L/2 carry the configured medium, whose poles
are stacked into one bank over those nodes.  A "tgm" bank keeps one
complex accumulator per underdamped pole and two real-valued ones per
overdamped pole; the branch symmetry this relies on
(greens.check_branch_symmetry) is checked per pole when the Simulation
is built, so the step itself carries no realness check.

A Gaussian hard source pins node 0 while t < 2*t0; both end nodes then
follow first-order Mur absorbing updates.  Optionally the last cells of
the grid carry a graded absorber: an electric conductivity ramp paired
with a magnetic-loss ramp impedance-matched to the local static
permittivity, so even quasi-static content is absorbed instead of
reflected (a bare conductivity taper turns into a mirror at low
frequency).  The absorber is part of the boundary treatment and leaves
the medium's own eps_inf and sigma untouched.

A Simulation must be exclusively owned while stepping; distinct
Simulations are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ade as _ade
from . import greens as _greens
from .constants import C0, EPS0, MU0
from .dispersion import Medium


@dataclass(frozen=True)
class GaussianSource:
    """Gaussian-enveloped carrier pinned at the left boundary.

    value(t) = exp(-(t-t0)^2 / (2 delta_t^2)) * cos(omega0 (t-t0))
    """

    t0: float
    delta_t: float
    omega0: float

    def __post_init__(self):
        if not self.delta_t > 0.0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")


def source_value(src: GaussianSource, t: float) -> float:
    """Boundary field value at time t >= 0."""
    arg = (t - src.t0) / src.delta_t
    return float(np.exp(-0.5 * arg * arg) * np.cos(src.omega0 * (t - src.t0)))


def mur_update(e_boundary_old, e_neighbor_old, e_neighbor_new, dx, dt):
    """First-order Mur absorbing update for an end node (vacuum speed)."""
    k = (C0 * dt - dx) / (C0 * dt + dx)
    return e_neighbor_old + k * (e_neighbor_new - e_boundary_old)


@dataclass
class ProbeSeries:
    """E samples at one node, one per executed step (first sample at t=dt)."""

    node_index: int
    samples: np.ndarray
    dt: float

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, len(self.samples) + 1)


@dataclass
class Grid1D:
    """Staggered field arrays."""

    e: np.ndarray  # N values, V/m
    b: np.ndarray  # N-1 values, T
    dx: float
    dt: float


class _TgmBank:
    """`tgm` accumulators of all poles of a medium on the node run `nodes`,
    one complex row per accumulator: F <- F*prop + inject*E^N, then the
    half-step current j = sum over rows of Re(curr*F).

    An underdamped pole has one row, F+ with curr = 2 curr+, since real
    drive keeps F- == conj(F+); an overdamped pole has two, F+ and F-,
    whose coefficients and values are real.  greens.check_branch_symmetry
    vouches for both when the bank is built.
    """

    def __init__(self, nodes, poles, dt):
        rows = []
        for pole in poles:
            c = _greens.make_coefficients(pole, dt)
            _greens.check_branch_symmetry(pole, c)
            if pole.overdamped:
                rows += [(c.prop_plus, c.inject_plus, c.curr_plus),
                         (c.prop_minus, c.inject_minus, c.curr_minus)]
            else:
                rows.append((c.prop_plus, c.inject_plus, 2.0 * c.curr_plus))
        self.nodes = nodes
        self.rhs = slice(nodes.start - 1, nodes.stop - 1)
        self._prop, self._inject, self._curr = (np.array(col)[:, None] for col in zip(*rows))
        self._f = np.zeros((len(rows), nodes.stop - nodes.start), dtype=complex)
        self._t = np.empty_like(self._f)
        self.j = np.empty(self._f.shape[1])

    def advance(self, e):
        # operand order as in greens.advance_state and
        # polarization_current_half_step: complex products round
        # differently when their operands are swapped
        f, t = self._f, self._t
        f *= self._prop
        np.multiply(self._inject, e[self.nodes], out=t)
        f += t
        np.multiply(self._curr, f, out=t)
        np.add.reduce(t.real, axis=0, out=self.j)


class _AdeBank:
    """`adem` two-level histories of all poles of a medium on the node run
    `nodes`, one row per pole, stepped as in ade.ade_advance; the
    half-step current j is the sum over poles of (P^{N+1} - P^N)/dt."""

    def __init__(self, nodes, poles, dt):
        self.nodes = nodes
        self.rhs = slice(nodes.start - 1, nodes.stop - 1)
        self._dt = dt
        self._a, self._b, self._k, self._d = (
            np.array(col)[:, None] for col in zip(*(_ade.ade_coefficients(p, dt) for p in poles)))
        shape = (len(poles), nodes.stop - nodes.start)
        self._p_now, self._p_prev, self._p_next = (np.zeros(shape) for _ in range(3))
        self.j = np.empty(shape[1])

    def advance(self, e):
        # P^{N-1} is spent after its product, so its array is the scratch
        p_now, p_prev, p_next = self._p_now, self._p_prev, self._p_next
        np.multiply(self._a, p_now, out=p_next)
        p_prev *= self._b
        p_next -= p_prev
        np.multiply(self._k, e[self.nodes], out=p_prev)
        p_next += p_prev
        p_next /= self._d
        np.subtract(p_next, p_now, out=p_prev)
        p_prev /= self._dt
        np.add.reduce(p_prev, axis=0, out=self.j)
        self._p_prev, self._p_now, self._p_next = p_now, p_next, p_prev


class Simulation:
    """The half-space experiment of one SimConfig, which has already
    checked every invariant and derives dx and dt.

    Nodes with x < L/2 are vacuum; nodes from interface_node(n) on carry
    the config medium.  Pole coefficients are baked once; all fields start
    at zero.  An absorber taper over the last `absorber_cells` nodes is
    added when configured, matched per node to the local static
    permittivity.
    """

    boundary = "mur"

    def __init__(self, config):
        n, dt = config.n_grid, config.dt
        i0 = interface_node(n)
        medium = config.medium
        self.grid = Grid1D(e=np.zeros(n), b=np.zeros(n - 1), dx=config.dx, dt=dt)
        self.media = (Medium.vacuum(), medium)
        self.source = config.source
        self.method = config.method
        self.step_index = 0

        self.eps_inf_node = np.ones(n)
        self.eps_inf_node[i0:] = medium.eps_inf
        self.sigma_node = np.zeros(n)
        self.sigma_node[i0:] = medium.sigma
        # magnetic absorber loss on B nodes; a zero taper gives factors of
        # exactly 1, so the lossless update stays bit-identical to plain Yee
        w = config.absorber_cells
        taper = np.zeros(n)
        u = np.arange(w) / max(w - 1, 1)
        taper[n - w:] = config.absorber_sigma * u**3
        self.sigma_node += taper
        eps_static = np.ones(n)
        eps_static[i0:] = medium.eps_static
        sig_b = 0.5 * (taper[:-1] + taper[1:])
        eps_b = 0.5 * (eps_static[:-1] + eps_static[1:])
        beta_m = sig_b * dt / (EPS0 * eps_b)
        self._bm_lo = 1.0 - 0.5 * beta_m
        self._bm_hi = 1.0 / (1.0 + 0.5 * beta_m)
        self._dt_over_eps = dt / (EPS0 * self.eps_inf_node[1:-1])
        self._de = np.empty(n - 1)
        self._rhs = np.empty(n - 2)

        # at most one stacked bank, on the medium's interior nodes; the
        # Mur node n-1 consumes no current
        self._bank = None
        if medium.dispersive:
            bank = _TgmBank if self.method == "tgm" else _AdeBank
            self._bank = bank(slice(i0, n - 1), medium.poles, dt)

    @property
    def time(self) -> float:
        return self.step_index * self.grid.dt

    @property
    def n_nodes(self) -> int:
        return len(self.grid.e)

    def _pin_source(self, t) -> None:
        # hard source: overwrite node 0 while the envelope is alive
        if t < 2.0 * self.source.t0:
            self.grid.e[0] = source_value(self.source, t)

    def step(self) -> None:
        """Advance the grid by one dt (one full leapfrog cycle).

        In place, in the operation order of
            b = (b*bm_lo - (dt/dx)*(e[1:] - e[:-1])) * bm_hi
            e[1:-1] += dt/(eps0 eps_inf) * (-(b[1:] - b[:-1])/(mu0 dx)
                                            - sigma e[1:-1] - J)
        so that a run without poles is bit-identical to plain Yee.
        """
        g = self.grid
        e, b, dt, dx = g.e, g.b, g.dt, g.dx
        de, rhs, bank = self._de, self._rhs, self._bank
        self._pin_source(self.time)
        if bank is not None:
            bank.advance(e)
        e0_old, e1_old = e[0], e[1]
        en_old, enn_old = e[-1], e[-2]
        np.subtract(e[1:], e[:-1], out=de)
        de *= dt / dx
        b *= self._bm_lo
        b -= de
        b *= self._bm_hi
        np.subtract(b[1:], b[:-1], out=rhs)
        rhs /= -(MU0 * dx)  # (-x)/c == x/(-c) exactly
        sigma_e = de[:-1]  # de is spent once b is updated
        np.multiply(self.sigma_node[1:-1], e[1:-1], out=sigma_e)
        rhs -= sigma_e
        if bank is not None:
            rhs[bank.rhs] -= bank.j
        rhs *= self._dt_over_eps
        e[1:-1] += rhs
        e[0] = mur_update(e0_old, e1_old, e[1], dx, dt)
        e[-1] = mur_update(en_old, enn_old, e[-2], dx, dt)
        self.step_index += 1
        self._pin_source(self.time)

    def run(self, n_steps: int, probe_nodes) -> list:
        """Execute n_steps, recording E at each probe node after every step.

        Deterministic: identical configuration gives bit-identical series.
        """
        nodes = np.array([int(i) for i in probe_nodes], dtype=np.intp)
        for i in nodes:
            if not 0 <= i < self.n_nodes:
                raise ValueError(f"probe node {i} outside grid of {self.n_nodes} nodes")
        rec = np.empty((n_steps, len(nodes)))
        e = self.grid.e
        for row in rec:
            self.step()
            row[:] = e[nodes]
        return [ProbeSeries(int(i), rec[:, c].copy(), self.grid.dt) for c, i in enumerate(nodes)]


def probe_nodes_from_fractions(fractions, n_nodes: int) -> list:
    """Grid node indices for probe positions given as fractions of L."""
    return [int(round(f * (n_nodes - 1))) for f in fractions]


def interface_node(n_nodes: int) -> int:
    """First node with x >= L/2 (the medium starts here)."""
    return int(np.ceil((n_nodes - 1) / 2))


def build_simulation(config, *, method=None) -> Simulation:
    """Simulation of `config`, with its method replaced by `method` when
    given (SimConfig checks the name)."""
    if method is not None:
        config = replace(config, method=method)
    return Simulation(config)
