"""Labeled feature datasets for the classification-style problems.

Synthetic data replaces the image corpus the original experiments used:
seeded Gaussian clusters around class means drawn on a sphere, at desk scale.
A CSV loader provides the path to real data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..vec import all_finite


class DatasetError(ValueError):
    """Malformed or unusable dataset input."""


@dataclass
class MnpcDataset:
    """Features (n, d_in), integer labels (n,) in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DatasetError("features must be a 2-d array")
        if not all_finite(self.features):
            raise DatasetError("features must be finite")
        if self.labels.shape != (self.features.shape[0],):
            raise DatasetError("labels must align with feature rows")
        if self.num_classes < 2:
            raise DatasetError("need at least two classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DatasetError("class ids out of range")

    @property
    def d_in(self) -> int:
        return self.features.shape[1]

    def class_blocks(self) -> list[np.ndarray]:
        """The feature rows of each class in class order (file order within a
        class), split from one stable sort; every class needs a sample."""
        # sorted, so present[i] == i up to the first gap; sized by n, not num_classes
        present, counts = np.unique(self.labels, return_counts=True)
        first_empty = np.count_nonzero(present == np.arange(present.size))
        if first_empty < self.num_classes:  # checked before any block is built
            raise ValueError(f"class {first_empty} has no samples")
        order = np.argsort(self.labels, kind="stable")
        return np.split(self.features[order], np.cumsum(counts)[:-1])


def generate_synthetic_mnpc(
    seed: int,
    num_classes: int,
    d_in: int,
    per_class: int,
    noise_std: float,
) -> MnpcDataset:
    """Seeded Gaussian clusters: class means on a sphere of radius 2, samples
    mean + N(0, noise_std^2) per coordinate. Bit-reproducible given the seed."""
    if num_classes < 2 or d_in < 1 or per_class < 1:
        raise DatasetError("num_classes >= 2, d_in >= 1, per_class >= 1 required")
    if noise_std < 0:
        raise DatasetError("noise_std must be nonnegative")
    rng = np.random.default_rng(seed)
    feats = []
    labels = []
    for cls in range(num_classes):
        direction = rng.standard_normal(d_in)
        mean = 2.0 * direction / np.linalg.norm(direction)
        feats.append(mean + noise_std * rng.standard_normal((per_class, d_in)))
        labels.append(np.full(per_class, cls, dtype=np.int64))
    return MnpcDataset(np.vstack(feats), np.concatenate(labels), num_classes)


def load_csv_dataset(path) -> MnpcDataset:
    """Parse ``class_id,feat1,...,featD`` rows (one header line required)."""
    p = Path(path)
    if not p.exists():
        raise DatasetError(f"dataset file not found: {p}")
    with p.open() as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError(f"{p}: empty file (missing header)")
    rows = [(i + 2, line) for i, line in enumerate(lines[1:]) if line.strip()]
    if not rows:
        raise DatasetError(f"{p}: no data rows after the header")
    feats, labels = [], []
    width = None
    for lineno, line in rows:
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width < 2:
                raise DatasetError(f"{p}: line {lineno}: need a class id and at least one feature")
        elif len(parts) != width:
            raise DatasetError(
                f"{p}: line {lineno}: expected {width - 1} features, got {len(parts) - 1}")
        try:
            labels.append(int(parts[0]))
            feats.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise DatasetError(f"{p}: line {lineno}: {exc}") from exc
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0:
        raise DatasetError(f"{p}: negative class id")
    return MnpcDataset(np.asarray(feats), labels, int(labels.max()) + 1)
