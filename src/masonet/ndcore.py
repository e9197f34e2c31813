"""Minimal dense numeric primitives shared by every other module.

Everything is a row-major float64 ndarray.  The helpers here exist so the
rest of the package has one place that owns dtype policy, shape checking,
and the tie-breaking / stabilization conventions:

* 64-bit reals everywhere, no mixed precision,
* argmax ties resolve to the lowest index,
* softmax is log-sum-exp stabilized (subtract the row max);
  both act on the last axis of an (..., R) array, as `maso.select` uses them.

Region layout: score arrays have the logical shape (..., K, R), but the
region axis R is outermost in memory.  Each region's (..., K) slab is one
contiguous block, in C order, or in F order when the whole array is
F-contiguous (the max-pool gather builds those).  Reductions over R (max,
sum) then combine whole slabs elementwise instead of running one short
reduction per unit, many times faster for R = 2 or 4.  `region_major`
brings any (..., R) array into this layout, without a copy when it
already is; the functions here and `maso.select` work in it and return
results in it.  Slab-wise sums add the regions in index order, as numpy's
sum over a trailing axis does up to seven terms; from eight on, that sum
is pairwise and rounds differently in the last bits.
"""

from __future__ import annotations

import itertools

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


def _rectangular(x, what: str) -> np.ndarray:
    """np.asarray(x); a ragged list, or one nested past numpy's dimension
    limit, raises ShapeError naming what (with no dtype to convert to,
    numpy raises ValueError only for the nesting)."""
    try:
        return np.asarray(x)
    except ValueError as exc:
        raise ShapeError(f"{what} is not a rectangular array: {exc}") from None


def as_tensor(x, field: str) -> Tensor:
    """x as a float64 array of finite real numbers.

    A bool, a string, a non-finite value or any other entry that is not a
    finite real number raises DomainError naming field and the entry; a
    ragged or over-deep nesting raises ShapeError naming field.  An
    ndarray is judged by its dtype, with no walk over its entries.
    """
    a = _rectangular(x, field)
    bad = [*itertools.islice(_non_reals(x), 1)]
    if bad:
        raise DomainError(f"{field} must be a real number, got {bad[0]}")
    a = a.astype(np.float64, copy=False)
    if a.size and not np.isfinite(a).all():
        raise DomainError(f"{field} must be finite, got {a[~np.isfinite(a)][0]}")
    return a


def as_ints(x, field: str) -> np.ndarray:
    """x as an int64 array (a scalar gives a 0-d one).

    Integers and integral floats such as 3.0 pass; a fractional or
    non-finite value, a bool, a string or anything else raises DomainError
    naming field and the first bad value, instead of being cut down; a
    ragged or over-deep nesting raises ShapeError naming field.
    """
    a = _rectangular(x, field)
    bad = [*itertools.islice(_non_reals(x), 1)]
    if not bad and a.dtype.kind == "f":
        bad = a[~((np.abs(a) < 2.0**63) & (a == np.trunc(a)))][:1].tolist()
    if bad:
        raise DomainError(f"{field} must be an integer, got {bad[0]}")
    return a.astype(np.int64, copy=False)


def as_int(x, field: str) -> int:
    """x as one Python int, checked as `as_ints` checks it; an array
    raises ShapeError naming field."""
    a = as_ints(x, field)
    if a.ndim:
        raise ShapeError(f"{field} must be one integer, got shape {a.shape}")
    return int(a)


def as_seed(seed, field: str = "seed") -> int:
    """seed as a Python int that numpy's generators take.

    A bool, a value that is not an integer (3.0 included) or a negative
    integer raises DomainError naming field.
    """
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"{field} must be a non-negative integer, got {seed!r}")
    return int(seed)


_PLAIN_NUMBERS = frozenset((int, float))


def _non_reals(x):
    """Yield, in order, the entries of x that are not real numbers.

    A bool is not one, though numpy would read it among numbers as 0 or 1.
    An ndarray counts by its dtype (all of its entries, or none), so a
    numeric array costs no walk.  Nested lists are walked with an explicit
    stack, since they may nest deeper than Python recurses, and a list of
    plain ints and floats is passed over whole.
    """
    stack = [x]
    while stack:
        top = stack.pop()
        if isinstance(top, (list, tuple)):
            if not _PLAIN_NUMBERS.issuperset(map(type, top)):
                stack.extend(reversed(top))
        elif isinstance(top, np.ndarray):
            if top.dtype.kind not in "iuf":
                yield from top.flat
        elif isinstance(top, (bool, np.bool_)) or not isinstance(top, (int, float, np.integer, np.floating)):
            yield top


def region_major(m: Tensor) -> Tensor:
    """m (..., R) with its last axis outermost in memory; no copy if it already is."""
    if m.flags.f_contiguous:
        return m
    r = np.ascontiguousarray(m.transpose((m.ndim - 1, *range(m.ndim - 1))))  # (R, ...)
    return r.transpose((*range(1, r.ndim), 0))


def row_softmax(m: Tensor) -> Tensor:
    """Softmax of m over the last axis, stabilized by subtracting its max;
    region-major."""
    m = _rows(m, "row_softmax")
    s = m - m.max(axis=-1, keepdims=True)  # a fresh array, so the steps below work in place
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def row_argmax(m: Tensor) -> np.ndarray:
    """Index of the maximum along the last axis; ties go to the lowest index,
    and a row holding NaN gives its first NaN, as np.argmax does."""
    m = _rows(m, "row_argmax")
    top = m.max(axis=-1, keepdims=True)
    # np.argmax over a short axis is slow; instead each region slab that ties
    # the maximum gets the weight R-1-r, so the largest one marks the lowest r
    weights = np.arange(m.shape[-1] - 1, -1, -1, dtype=np.intp)
    return (m.shape[-1] - 1) - (((m == top) | np.isnan(m)) * weights).max(axis=-1)


def _rows(m, name: str) -> Tensor:
    """m as a float64 (..., R) array, R >= 1, in region-major layout."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] == 0:
        raise ShapeError(f"{name} expects an (..., R) array with R >= 1, got shape {m.shape}")
    return region_major(m)
