import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gdpa.vec import (
    DimensionMismatchError,
    NonFiniteError,
    ProjectionSpec,
    positive_part,
    project,
)

finite_vectors = arrays(
    np.float64, st.integers(1, 8),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def all_specs(d):
    return {
        "identity": ProjectionSpec.identity(),
        "box": ProjectionSpec.box(-np.ones(d), np.ones(d)),
        "ball": ProjectionSpec.ball(np.zeros(d), 1.5),
        "nonnegative": ProjectionSpec.nonnegative(),
        "simplex": ProjectionSpec.simplex_blocks(d // 2),
    }


class TestProject:
    def test_identity_passthrough(self):
        np.testing.assert_array_equal(
            project(ProjectionSpec.identity(), [2.0, -3.0]), [2.0, -3.0])

    def test_box_clamp(self):
        spec = ProjectionSpec.box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(project(spec, [2.0, -3.0]), [1.0, -1.0])

    def test_simplex_pair(self):
        # Two-point simplex: shift both coordinates by theta = (sum-1)/2.
        spec = ProjectionSpec.simplex_blocks(2)
        np.testing.assert_allclose(project(spec, [0.8, 0.8]), [0.5, 0.5], atol=1e-15)

    def test_simplex_blocks_sum_to_one(self, rng):
        spec = ProjectionSpec.simplex_blocks(3)
        out = project(spec, rng.standard_normal(9))
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.reshape(3, 3).sum(axis=1), 1.0, atol=1e-12)

    def test_ball_shrinks_to_radius(self):
        spec = ProjectionSpec.ball([0.0, 0.0], 1.0)
        out = project(spec, [3.0, 4.0])
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_nonnegative(self):
        spec = ProjectionSpec.nonnegative()
        np.testing.assert_array_equal(project(spec, [-1.0, 0.5]), [0.0, 0.5])

    def test_dimension_mismatch(self):
        spec = ProjectionSpec.box([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            project(spec, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            project(ProjectionSpec.simplex_blocks(2), [1.0, 2.0, 3.0])

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ProjectionSpec.ball([0.0], 0.0)
        with pytest.raises(ValueError):
            ProjectionSpec.box([1.0], [0.0])
        with pytest.raises(ValueError):
            ProjectionSpec.simplex_blocks(0)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            project(ProjectionSpec.identity(), [np.nan, 0.0])

    @pytest.mark.parametrize("kind", ["identity", "box", "ball", "nonnegative", "simplex"])
    def test_nonexpansive_10k_pairs(self, kind):
        d = 4
        spec = all_specs(d)[kind]
        rng = np.random.default_rng(sum(map(ord, kind)))
        us = rng.standard_normal((10_000, d)) * 3.0
        vs = rng.standard_normal((10_000, d)) * 3.0
        for u, v in zip(us, vs):
            pu, pv = project(spec, u), project(spec, v)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    @pytest.mark.parametrize("kind", ["identity", "box", "ball", "nonnegative", "simplex"])
    def test_idempotent(self, kind, rng):
        spec = all_specs(4)[kind]
        for _ in range(100):
            once = project(spec, rng.standard_normal(4) * 3.0)
            twice = project(spec, once)
            np.testing.assert_allclose(twice, once, atol=1e-12)


class TestKernels:
    def test_positive_part_examples(self):
        np.testing.assert_array_equal(positive_part([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(positive_part([-3.0, -0.1]), [0.0, 0.0])
        np.testing.assert_array_equal(positive_part([0.15]), [0.15])

    @given(finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_positive_part_properties(self, v):
        out = positive_part(v)
        assert np.all(out >= 0)
        np.testing.assert_array_equal(positive_part(out), out)
