"""Spectral post-processing: probe spectra and |R|(f) extraction.

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

from .errors import EmptyBandError, SeriesMismatchError
from .fdtd import ProbeSeries


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
                         band_threshold: float) -> list:
    """|R|(f) from a vacuum-reference incident series and a medium-run
    total series at the same node.

    reflected = total - incident sample-wise; |R| = |DFT(reflected)| /
    |DFT(incident)| at bins where |DFT(incident)| >= band_threshold times
    its maximum.  Returns a list of (freq_hz, magnitude) pairs.
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
    return list(zip(inc.freqs[mask].tolist(), ratio.tolist()))
