"""Suite-wide settings: hypothesis draws the same examples on every run,
so tier-1 is deterministic.  Each test keeps its own max_examples and
deadline."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
