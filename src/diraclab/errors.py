"""Exception types shared across the toolkit.

Everything raised on purpose derives from :class:`DiracLabError` so callers can
catch toolkit failures without swallowing genuine bugs. Six names cover every
failure: a search that comes back empty raises :class:`NotFound`, a broken
precondition (an enumeration too large to run included) :class:`SizeError`,
a malformed structured argument such as an edge list :class:`ShapeError`, an
unreadable file or string :class:`FormatError`, and a failed pipeline stage
:class:`StageFailure`, which the pipeline turns into its report. A search that
spends its node budget reports that itself: the exact-cover kernel returns a
"partial" result, and the rooted-absorber walk raises ``NotFound("budget")``
from its node charge. No private exception carries a budget stop.
"""

from __future__ import annotations

__all__ = [
    "DiracLabError",
    "SizeError",
    "ShapeError",
    "FormatError",
    "NotFound",
    "StageFailure",
]


class DiracLabError(Exception):
    """Base class for all toolkit errors."""


class SizeError(DiracLabError, ValueError):
    """An argument violates a size or divisibility precondition, or asks for
    an exact computation beyond its enumeration cap."""


class ShapeError(DiracLabError, ValueError):
    """A structured argument, such as an edge list, is malformed, or the
    parts of a composite object do not fit together as required."""


class FormatError(DiracLabError, ValueError):
    """A file or string does not conform to its declared format."""


class NotFound(DiracLabError):
    """A search finished without producing the requested object.

    ``reason`` distinguishes a completed search over the whole space
    (``"exhausted"``) from one cut short by a node budget (``"budget"``) or by a
    trial limit (``"trials"``). ``details`` is a dict of diagnostics keyed by
    name, or None.
    """

    def __init__(self, message: str, reason: str = "exhausted", details: dict | None = None):
        super().__init__(message)
        if reason not in ("exhausted", "budget", "trials"):
            raise ValueError(f"unknown NotFound reason: {reason!r}")
        self.reason = reason
        self.details = details


class StageFailure(DiracLabError):
    """A pipeline stage failed; ``stage`` names it for the report."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
