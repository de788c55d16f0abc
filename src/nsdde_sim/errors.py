"""Exception types raised by the library.

Everything derives from :class:`NsddeError` so callers can catch the whole
family with a single except clause.  Input validation errors are raised as
early as possible (at grid/model construction).  A simulation that blows up
raises nothing: a non-finite path is marked in
:attr:`nsdde_sim.euler.PathGrid.finite`, and the studies count a path past
their truncation radius, too, in their ``diverged_count``.
"""


class NsddeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRange(NsddeError):
    """A parameter is outside its admissible range."""


class NonDivisibleStep(NsddeError):
    """Step size does not divide the delay or the horizon."""


class IncompatibleGrids(NsddeError):
    """Two grids that must be nested/equal are not."""


class DimensionMismatch(NsddeError):
    """State or noise dimensions of model, segment and noise disagree."""


class DegenerateSampling(NsddeError):
    """A sampling-based estimate had no usable samples."""


class ConfigError(NsddeError):
    """A run configuration is malformed, inconsistent, or names an unusable output directory."""
