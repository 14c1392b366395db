"""Exception types shared across the package."""


class RealnessError(ArithmeticError):
    """A quantity that must be real carried an imaginary residual above
    tolerance; indicates corrupted coefficients or state."""


class ConfigError(ValueError):
    """Config file could not be parsed; message carries the line number."""


class ValidationError(ValueError):
    """A config or one of its values violates an invariant: a field outside
    its domain (dispersion.check_fields) or a cross-field check.  A field's
    message starts with its name as the config names it."""


class ResonanceError(ValidationError):
    """Undamped pole evaluated exactly at its resonance frequency, where
    the config's pole and grid put it (a bin of `reflection`'s padded
    transform)."""


class DegeneratePoleError(ValidationError):
    """Critically damped oscillator (delta_p == omega_p): the two complex
    roots coalesce and the simple-pole residue formula does not apply."""


class SeriesMismatchError(ValueError):
    """Two probe series that must share node, dt and length do not."""


class EmptyBandError(ValueError):
    """Band threshold excluded every frequency bin."""
