"""Spectral post-processing: probe spectra, |R|(f) extraction and
`reflection_experiment`, the one copy of the half-space reflection
experiment that the CLI, the absorber study and the tests share, with
`reflection_errors`, its error summary against the analytic |R|.

The reflected wave is isolated by subtracting an all-vacuum reference run
from the medium run at the same probe node, sample by sample; |R|(f) is
the one-sided DFT magnitude ratio, reported only where the incident
spectrum carries meaningful energy.  No window is applied: the records
are quiet at both ends by construction, and propagation from probe to
interface and back in lossless vacuum leaves magnitudes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import Medium, reflection_coefficient
from .errors import EmptyBandError, SeriesMismatchError, ValidationError
from .fdtd import ProbeSeries, build_simulation, interface_node, probe_nodes_from_fractions


@dataclass
class Spectrum:
    """One-sided spectrum: freqs from 0 to Nyquist, spacing 1/(M*dt);
    amps are complex spectral amplitudes in (V/m)*s."""

    freqs: np.ndarray
    amps: np.ndarray


def _padded_length(n: int) -> int:
    m = 1
    while m < 2 * n:
        m *= 2
    return m


def spectrum(series: ProbeSeries) -> Spectrum:
    """One-sided DFT of a probe series, zero-padded to the next power of
    two >= twice the record length, scaled by dt."""
    x = np.asarray(series.samples, dtype=float)
    if len(x) == 0:
        raise ValueError("cannot transform an empty series")
    m = _padded_length(len(x))
    amps = np.fft.rfft(x, m) * series.dt
    freqs = np.fft.rfftfreq(m, series.dt)
    return Spectrum(freqs=freqs, amps=amps)


def reflection_magnitude(incident: ProbeSeries, total: ProbeSeries,
                         band_threshold: float) -> np.ndarray:
    """|R|(f) from a vacuum-reference incident series and a medium-run
    total series at the same node.

    reflected = total - incident sample-wise; |R| = |DFT(reflected)| /
    |DFT(incident)| at bins where |DFT(incident)| >= band_threshold times
    its maximum.  Returns an (n, 2) array of (freq_hz, magnitude) rows.
    """
    if (incident.node_index != total.node_index
            or incident.dt != total.dt
            or len(incident.samples) != len(total.samples)):
        raise SeriesMismatchError(
            "incident and total series must share node, dt and length: "
            f"nodes {incident.node_index}/{total.node_index}, "
            f"dt {incident.dt}/{total.dt}, "
            f"lengths {len(incident.samples)}/{len(total.samples)}"
        )
    reflected = ProbeSeries(
        node_index=total.node_index,
        samples=np.asarray(total.samples) - np.asarray(incident.samples),
        dt=total.dt,
    )
    inc = spectrum(incident)
    ref = spectrum(reflected)
    inc_mag = np.abs(inc.amps)
    if inc_mag.max() == 0.0:
        raise EmptyBandError("incident spectrum is identically zero")
    mask = inc_mag >= band_threshold * inc_mag.max()
    if not np.any(mask):
        raise EmptyBandError(
            f"band_threshold={band_threshold} excluded every frequency bin"
        )
    ratio = np.abs(ref.amps[mask]) / inc_mag[mask]
    return np.column_stack((inc.freqs[mask], ratio))


def reflection_errors(freqs, analytic, mag):
    """(max, rms, frequency of the max) of |mag - analytic| over the band."""
    err = np.abs(mag - analytic)
    return err.max(), float(np.sqrt(np.mean(err**2))), freqs[err.argmax()]


def finite_run(config, method, nodes, run):
    """Probe series at `nodes` of `config` stepped with `method`, or
    ValidationError naming `run`, the first step whose recorded sample is
    not finite and its probe node.  numpy's overflow warnings are silenced
    during the run: this error is the report of an unstable run."""
    with np.errstate(over="ignore", invalid="ignore"):
        series = build_simulation(config, method=method).run(config.n_steps, nodes)
    bad = [(int(np.argmin(np.isfinite(s.samples))), s.node_index)
           for s in series if not np.isfinite(s.samples).all()]
    if bad:
        row, node = min(bad)
        raise ValidationError(f"{run} run is non-finite from step {row + 1} at probe node "
                              f"{node}: the update is unstable for this config")
    return series


def reflection_experiment(config, methods):
    """(freqs, analytic |R|, {method: |R|}) over the band of `config`'s
    half-space, one medium run per updater in `methods`.

    Every run records only the vacuum-side probe nearest the interface,
    the largest probe node below interface_node(n).  ValidationError when
    no probe is in the vacuum half, the pulse never reaches the probe or a
    run's record is not finite.
    """
    n = config.n_grid
    vacuum_side = [i for i in probe_nodes_from_fractions(config.probes, n)
                   if i < interface_node(n)]
    if not vacuum_side:
        raise ValidationError(
            f"run.probes must include a probe in the vacuum half x < L/2, got {config.probes}")
    node = [max(vacuum_side)]
    [incident] = finite_run(config.with_medium(Medium.vacuum()), "tgm", node, "vacuum reference")
    if not incident.samples.any():
        raise ValidationError(f"run.steps = {config.n_steps} ends before the pulse "
                              f"reaches the probe at node {node[0]}")
    mags = {}
    for method in methods:
        [total] = finite_run(config, method, node, method)
        freqs, mags[method] = reflection_magnitude(incident, total, config.band_threshold).T
    return freqs, np.abs(reflection_coefficient(config.medium, 2.0 * np.pi * freqs)), mags
