"""Exception types shared across the package."""

from __future__ import annotations


class SpinStarError(Exception):
    """Base class for errors raised by this package."""


class SymmetryError(SpinStarError):
    """A construction required equal potentials on a set of nodes and got
    values differing beyond tolerance."""


class ResourceLimitError(SpinStarError):
    """The requested problem size exceeds what this code is prepared to
    materialize (it would allocate an impractically large dense matrix)."""


class EnvelopeError(SpinStarError):
    """A request lies beyond the supported envelope (``M_MAX``, ``ETA_MAX``
    in :mod:`spinstar.designer`, ``STEPS_MAX`` in :mod:`spinstar.dynamics`);
    raised before any work that grows with the request."""


class NoRealDesignError(SpinStarError):
    """No real design follows in floating point: the design cubic's roots
    exist but cannot be resolved, a candidate ``e`` is not a root, or the
    designed matrix misses its spectrum."""


class InfeasibleDesignError(SpinStarError):
    """No admissible root exists for the requested bystander count and
    spectrum ratio.  Carries the :class:`FeasibilityReport` that explains why
    in ``report``."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report
