"""Exception types shared across the package."""

from __future__ import annotations


class ModelError(ValueError):
    """Malformed model descriptor or curve data violating a model invariant."""


class GridError(ValueError):
    """Radial grid or contour parameters outside their allowed ranges."""


class ConvergenceError(RuntimeError):
    """Iterative solve (root search, Newton refinement) failed to converge;
    the message carries the values that explain it."""


class ContinuationError(RuntimeError):
    """Branch tracking lost the resonance; carries the partial trajectory."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial
