"""The package's one exception type."""


class ValidationError(ValueError):
    """An input the package refuses, whose message names the problem: a
    config line, a value or argument outside its domain
    (dispersion.check_value), a failed cross-field check, a pole the
    build's gate refuses or a run whose record is not finite."""
