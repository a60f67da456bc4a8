"""Dense float64 vector kernels and the Euclidean projection operators.

Everything here is a pure function of its inputs: arrays are never mutated,
and any NaN/Inf encountered on input or produced on output raises
:class:`NonFiniteError` immediately instead of propagating silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible with each other or with a ProjectionSpec."""


class NonFiniteError(ArithmeticError):
    """A kernel was fed, or would produce, NaN or Inf."""


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains NaN or Inf")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a finite 1-d float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-d, got shape {arr.shape}")
    require_finite(arr, name)
    return arr


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
    if hits.size == 0:  # NaN/Inf or overflow: the caller's finiteness check fires
        return np.full_like(v, np.nan)
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
        return np.clip(x, spec.lower, spec.upper)
    if kind == "ball":
        diff = x - spec.center
        nrm = float(np.linalg.norm(diff))
        if nrm <= spec.radius:
            return x
        return spec.center + diff * (spec.radius / nrm)
    if kind == "nonnegative":
        return np.maximum(x, 0.0)
    if kind == "simplex":
        b = spec.block_size
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
