"""Suite-wide settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("seed-fixed", derandomize=True, database=None)
settings.load_profile("seed-fixed")
