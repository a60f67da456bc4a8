"""Dense float64 vector kernels, the Euclidean projection operators and a paired solve.

Everything here is a pure function of its inputs: arrays are never mutated,
and any NaN/Inf encountered on input or produced on output raises
:class:`NonFiniteError` at once (``solve_pair`` leaves that to its callers).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from glob import glob
from typing import Optional

import numpy as np

_F64 = np.dtype(np.float64)

try:
    from numpy._core import _multiarray_umath as _C
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _C
# The C functions that np.count_nonzero, ndarray.clip (both bounds given), np.where and
# np.concatenate end in, without their Python wrappers (same bits); the public ones if absent
_count_nonzero, _clip, _where, _concatenate = (
    getattr(_C, n, getattr(np, n)) for n in ("count_nonzero", "clip", "where", "concatenate"))


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible with each other or with a ProjectionSpec."""


class NonFiniteError(ArithmeticError):
    """A kernel was fed, or would produce, NaN or Inf."""


def all_finite(arr: np.ndarray) -> bool:
    if arr.size == 1 and arr.dtype is _F64:  # item() rounds wider floats, raises on size 0
        return math.isfinite(arr.item())
    return _count_nonzero(np.isfinite(arr)) == arr.size  # .all() adds a Python-level call


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not all_finite(arr):
        raise NonFiniteError(f"{what} contains NaN or Inf")
    return arr


@functools.cache
def _lapack():
    """dgesv and dgetrs (64-bit ints) of the OpenBLAS in numpy's wheels, or None without it."""
    try:
        lib = ctypes.CDLL(glob(np.__path__[0] + "/../numpy.libs/libscipy_openblas64_*")[0])
        gesv, getrs = lib.scipy_dgesv_64_, lib.scipy_dgetrs_64_
    except (IndexError, OSError, AttributeError):  # numpy built from source, macOS, ...
        return None
    gesv.argtypes, getrs.argtypes = [ctypes.c_void_p] * 8, [ctypes.c_char_p] + [ctypes.c_void_p] * 8
    gesv.restype = getrs.restype = None
    return gesv, getrs


def solve_pair(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """(a^-1 b, a^-T c) for square ``a``, b (n,) or (n, k): np.linalg.solve's own dgesv (same
    bits), then dgetrs on its LU factors; LinAlgError if singular. Else: two np.linalg.solve."""
    n, lapack = len(a), _lapack()
    if not (lapack and n and a.shape == (n, n) == (*b.shape[:1], *c.shape) and b.ndim <= 2):
        return np.linalg.solve(a, b), np.linalg.solve(a.T, c)
    lu, x, y = (np.array(v, np.float64, order="F") for v in (a, b, c))  # copies, overwritten
    ints = np.zeros(n + 4, np.int64)  # n, k, 1, info, then the pivots
    ints[:3] = n, b.size // n, 1
    n_, k_, one_, info_, piv = range(p := ints.ctypes.data, p + 40, 8)
    lu_, x_, y_ = (v.ctypes.data for v in (lu, x, y))  # each .ctypes costs about 1.4 us
    lapack[0](n_, k_, lu_, n_, piv, x_, n_, info_)
    if ints[3] > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    lapack[1](b"T", n_, one_, lu_, n_, piv, y_, n_, info_)
    return np.ascontiguousarray(x), y


def _float64(v, name: str) -> np.ndarray:
    """``v`` as float64, itself if it is; TypeError for complex values, which the cast
    would turn into their real parts with a ComplexWarning."""
    if type(v) is np.ndarray and v.dtype is _F64:
        return v
    if np.asarray(v).dtype.kind == "c":
        raise TypeError(f"{name} must be real, got complex values")
    return np.asarray(v, dtype=np.float64)


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a finite 1-d float64 array."""
    arr = _float64(v, name)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-d, got shape {arr.shape}")
    require_finite(arr, name)
    return arr


def check_length(v: np.ndarray, n: int, name: str) -> np.ndarray:
    if v.size != n:
        raise DimensionMismatchError(f"{name} must have length {n}")
    return v


@dataclass(frozen=True)
class ProjectionSpec:
    """Description of one of the five supported feasible sets.

    Kinds: ``identity`` (all of R^d), ``box`` (componentwise bounds),
    ``ball`` (Euclidean ball), ``nonnegative`` (orthant), and ``simplex``
    (probability simplex per contiguous block of coordinates).
    Build instances through the factory methods, which validate parameters.
    """

    kind: str
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: float = 0.0
    block_size: int = 0

    @staticmethod
    def identity() -> "ProjectionSpec":
        return ProjectionSpec(kind="identity")

    @staticmethod
    def box(lower, upper) -> "ProjectionSpec":
        lo = as_vector(lower, "lower")
        hi = as_vector(upper, "upper")
        if lo.shape != hi.shape:
            raise DimensionMismatchError("box bounds must have equal length")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        return ProjectionSpec(kind="box", lower=lo, upper=hi)

    @staticmethod
    def ball(center, radius: float) -> "ProjectionSpec":
        c = as_vector(center, "center")
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        return ProjectionSpec(kind="ball", center=c, radius=float(radius))

    @staticmethod
    def nonnegative() -> "ProjectionSpec":
        return ProjectionSpec(kind="nonnegative")

    @staticmethod
    def simplex_blocks(block_size: int) -> "ProjectionSpec":
        if block_size < 1:
            raise ValueError("simplex block size must be >= 1")
        return ProjectionSpec(kind="simplex", block_size=int(block_size))

    def check_dim(self, d: int) -> None:
        """Raise if a vector of length ``d`` is incompatible with this set."""
        if self.kind == "box" and self.lower.size != d:
            raise DimensionMismatchError(
                f"box is {self.lower.size}-dimensional, vector is {d}-dimensional")
        if self.kind == "ball" and self.center.size != d:
            raise DimensionMismatchError(
                f"ball is {self.center.size}-dimensional, vector is {d}-dimensional")
        if self.kind == "simplex" and d % self.block_size != 0:
            raise DimensionMismatchError(
                f"simplex blocks of size {self.block_size} do not partition dimension {d}")


def _project_simplex_block(v: np.ndarray) -> np.ndarray:
    # Sort-and-threshold projection onto {x >= 0, sum x = 1}. The strict
    # inequality in the scan keeps ties deterministic (equal elements are
    # included together).
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    hits = np.flatnonzero(u - (css - 1.0) / j > 0.0)
    if hits.size == 0:  # NaN/Inf (the caller's finiteness check fires), or entries too large
        # for the scan: a common shift leaves the projection, and after v - max(v) index 0 passes
        return _project_simplex_block(v - u[0]) if all_finite(u) else np.full_like(v, np.nan)
    k = int(hits[-1]) + 1
    theta = (css[k - 1] - 1.0) / k
    return np.maximum(v - theta, 0.0)


def _project_raw(spec: ProjectionSpec, x: np.ndarray) -> np.ndarray:
    # Trusted-input dispatch shared by the public wrapper and the solver hot
    # loop (which validates shapes once up front and finiteness afterwards).
    kind = spec.kind
    if kind == "identity":
        return x
    if kind == "box":
        return _clip(x, spec.lower, spec.upper)
    if kind == "ball":
        with np.errstate(over="ignore", invalid="ignore"):  # a far point's norm overflows
            diff = x - spec.center
            nrm = float(np.linalg.norm(diff))
            if nrm == np.inf and spec.radius < np.inf:  # that of diff / max|diff| does not
                if not all_finite(diff):  # so did x - center: subtract at the pair's scale
                    scale = np.maximum.reduce(np.abs(np.r_[x, spec.center]))
                    diff = x / scale - spec.center / scale
                diff = diff / np.maximum.reduce(np.abs(diff))
                return spec.center + diff * (spec.radius / float(np.linalg.norm(diff)))
        if nrm <= spec.radius:
            return x
        return spec.center + diff * (spec.radius / nrm)
    if kind == "nonnegative":
        return np.maximum(x, 0.0)
    if kind == "simplex":
        b = spec.block_size
        with np.errstate(over="ignore", invalid="ignore"):  # a huge block's scan overflows
            return np.concatenate([
                _project_simplex_block(x[i:i + b]) for i in range(0, x.size, b)
            ])
    raise ValueError(f"unknown projection kind {kind!r}")  # pragma: no cover


def project(spec: ProjectionSpec, v) -> np.ndarray:
    """Euclidean projection of ``v`` onto the set described by ``spec``.

    Idempotent: ``project(spec, project(spec, v)) == project(spec, v)`` up to
    floating-point roundoff.
    """
    x = as_vector(v, "v")
    spec.check_dim(x.size)
    return require_finite(_project_raw(spec, x), "projection output")


def positive_part(v) -> np.ndarray:
    """Componentwise max(v_i, 0)."""
    x = as_vector(v, "v")
    return np.maximum(x, 0.0)
