"""Minimal dense numeric primitives shared by every other module.

Everything is a row-major float64 ndarray.  The helpers here exist so the
rest of the package has one place that owns dtype policy, shape checking,
and the tie-breaking / stabilization conventions:

* 64-bit reals everywhere, no mixed precision,
* argmax ties resolve to the lowest index,
* softmax is log-sum-exp stabilized (subtract the row max);
  both act on the last axis of an (..., R) array, as `maso.select` uses them.
"""

from __future__ import annotations

import numpy as np

# Alias used in signatures throughout the package.  A Tensor is a float64
# ndarray; shape/rank contracts are enforced by the consuming operation.
Tensor = np.ndarray


class MasonetError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(MasonetError):
    """Operand dimensions do not chain or do not match a contract."""


class DomainError(MasonetError):
    """A value is outside its documented domain (bad kind, bad range)."""


class PreconditionError(MasonetError):
    """A documented operation precondition does not hold."""


class AmbiguityError(MasonetError):
    """The input sits too close to a region boundary to give one answer."""


class StructureError(MasonetError):
    """A network does not have the layer structure the operation needs."""


class DegeneracyError(MasonetError):
    """Numerical rank collapsed below what the algorithm can tolerate."""


class WindowError(MasonetError):
    """An apodization window does not give unit coverage on the interior."""


class DivergenceError(MasonetError):
    """Training loss left the reals; the run is aborted."""


class ValidationError(MasonetError):
    """Bad user-supplied input (files, CLI arguments); exit code 2."""


def as_tensor(x) -> Tensor:
    """Coerce to a float64 array, rejecting non-finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError("non-finite entries are not allowed here")
    return a


def row_softmax(m: Tensor) -> Tensor:
    """Softmax of m over the last axis, stabilized by subtracting its max."""
    m = _rows(m, "row_softmax")
    s = m - m.max(axis=-1, keepdims=True)  # a fresh array, so the steps below work in place
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def row_argmax(m: Tensor) -> np.ndarray:
    """Index of the maximum along the last axis; ties go to the lowest index."""
    # np.argmax already returns the first (lowest) index on ties.
    return np.argmax(_rows(m, "row_argmax"), axis=-1)


def _rows(m, name: str) -> Tensor:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] == 0:
        raise ShapeError(f"{name} expects an (..., R) array with R >= 1, got shape {m.shape}")
    return m
