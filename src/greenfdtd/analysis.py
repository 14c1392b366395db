"""Spectral post-processing: probe spectra, |R|(f) extraction and
`reflection_experiment`, the one copy of the half-space reflection
experiment that the CLI, the absorber study and the tests share, with
`reflection_errors`, its error summary against the analytic |R|.

The experiment steps one Simulation with one lane per run: each medium
run, then the all-vacuum reference (fdtd module docstring, "Step
layout"); each lane's record is that of its run alone.  The reflected
wave is isolated by subtracting the vacuum reference run from the medium
run at the same probe node, sample by sample; |R|(f) is
the one-sided DFT magnitude ratio, reported only where the incident
spectrum carries meaningful energy.  No window is applied: the records
are quiet at both ends by construction, and propagation from probe to
interface and back in lossless vacuum leaves magnitudes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dispersion import POSITIVE, Medium, check_value, permittivity, reflection_coefficient
from .errors import ValidationError
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
        raise ValidationError("cannot transform an empty series")
    m = _padded_length(len(x))
    amps = np.fft.rfft(x, m)
    amps *= series.dt
    freqs = np.fft.rfftfreq(m, series.dt)
    return Spectrum(freqs=freqs, amps=amps)


def reflection_magnitude(incident: ProbeSeries, total: ProbeSeries,
                         band_threshold: float) -> np.ndarray:
    """|R|(f) from a vacuum-reference incident series and a medium-run
    total series at the same node.

    reflected = total - incident sample-wise; |R| = |DFT(reflected)| /
    |DFT(incident)| at bins where |DFT(incident)| is positive and at least
    band_threshold times its maximum, a product that may underflow to 0;
    band_threshold <= 0 is a ValidationError, as are mismatched series and
    an empty band.
    Returns an (n, 2) array of (freq_hz, magnitude) rows.
    The incident spectrum is cut to its magnitude before the reflected one
    is taken, so one spectrum is alive at a time.
    """
    if (incident.node_index != total.node_index
            or incident.dt != total.dt
            or len(incident.samples) != len(total.samples)):
        raise ValidationError(
            "incident and total series must share node, dt and length: "
            f"nodes {incident.node_index}/{total.node_index}, "
            f"dt {incident.dt}/{total.dt}, "
            f"lengths {len(incident.samples)}/{len(total.samples)}"
        )
    check_value("band_threshold", band_threshold, POSITIVE)
    inc_mag = np.abs(spectrum(incident).amps)
    if inc_mag.max() == 0.0:
        raise ValidationError("incident spectrum is identically zero")
    mask = (inc_mag >= band_threshold * inc_mag.max()) & (inc_mag > 0.0)
    if not np.any(mask):
        raise ValidationError(f"band_threshold={band_threshold} excluded every frequency bin")
    ref = spectrum(ProbeSeries(total.node_index, np.subtract(total.samples, incident.samples),
                               total.dt))
    return np.column_stack((ref.freqs[mask], np.abs(ref.amps[mask]) / inc_mag[mask]))


def reflection_errors(freqs, analytic, mag):
    """(max, rms, frequency of the max) of |mag - analytic| over the band."""
    err = np.abs(mag - analytic)
    return err.max(), float(np.sqrt(np.mean(err**2))), freqs[err.argmax()]


def _check_finite(series, run):
    """`series`, or ValidationError naming `run`, the first step whose
    recorded sample is not finite and its probe node."""
    bad = [(int(np.argmin(np.isfinite(s.samples))), s.node_index)
           for s in series if not np.isfinite(s.samples).all()]
    if bad:
        row, node = min(bad)
        raise ValidationError(f"{run} run is non-finite from step {row + 1} at probe node "
                              f"{node}: the update is unstable for this config")
    return series


def finite_run(config, method, nodes, run):
    """Probe series at `nodes` of `config` stepped with `method`, or
    ValidationError naming `run`, the first step whose recorded sample is
    not finite and its probe node.  numpy's overflow warnings are silenced
    during the run: this error is the report of an unstable run."""
    with np.errstate(over="ignore", invalid="ignore"):
        series = build_simulation(config, method=method).run(config.n_steps, nodes)
    return _check_finite(series, run)


def reflection_experiment(config, methods):
    """(freqs, analytic |R|, {method: |R|}) over the band of `config`'s
    half-space, one medium run per updater in `methods`.

    The runs are the lanes of one Simulation, stepped in one `run` call:
    the medium runs in the order of `methods`, then the vacuum reference,
    last so that the kernel drops it once it is quiet.  Every run records
    only the vacuum-side probe nearest the interface, the largest probe
    node below interface_node(n).  ValidationError when `methods` is
    empty, no probe is in the vacuum half, the pulse never reaches the
    probe or a run's record is not finite; the records are checked as
    finite_run would check the runs one by one: the vacuum reference
    first, then `methods` in order.  An undamped pole on a bin of the
    padded transform, where the analytic |R| diverges, is a
    ValidationError before any lane is built.
    """
    if not methods:
        raise ValidationError("methods is empty: reflection_experiment needs at least one updater")
    n = config.n_grid
    vacuum_side = [i for i in probe_nodes_from_fractions(config.probes, n)
                   if i < interface_node(n)]
    if not vacuum_side:
        raise ValidationError(
            f"run.probes must include a probe in the vacuum half x < L/2, got {config.probes}")
    node = [max(vacuum_side)]
    if any(p.delta_p == 0.0 for p in config.medium.poles):
        # every bin of `spectrum`'s transform of the n_steps-sample records
        permittivity(config.medium, 2.0 * np.pi * np.fft.rfftfreq(
            _padded_length(config.n_steps), config.dt))
    lanes = [replace(config, method=method) for method in methods]
    lanes.append(replace(config.with_medium(Medium.vacuum()), method="tgm"))
    with np.errstate(over="ignore", invalid="ignore"):
        *totals, incident = build_simulation(*lanes).run(config.n_steps, node)
    _check_finite([incident], "vacuum reference")
    if not incident.samples.any():
        raise ValidationError(f"run.steps = {config.n_steps} ends before the pulse "
                              f"reaches the probe at node {node[0]}")
    mags = {}
    for method, total in zip(methods, totals):
        _check_finite([total], method)
        freqs, mags[method] = reflection_magnitude(incident, total, config.band_threshold).T
    return freqs, np.abs(reflection_coefficient(config.medium, 2.0 * np.pi * freqs)), mags
