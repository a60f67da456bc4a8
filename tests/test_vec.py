import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gdpa.vec import (
    DimensionMismatchError,
    NonFiniteError,
    ProjectionSpec,
    _float64,
    _project_raw,
    all_finite,
    as_vector,
    positive_part,
    project,
    solve_pair,
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

    def test_ball_shrinks_to_radius(self):
        spec = ProjectionSpec.ball([0.0, 0.0], 1.0)
        out = project(spec, [3.0, 4.0])
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_simplex_pair(self):
        # Two-point simplex: shift both coordinates by theta = (sum-1)/2.
        spec = ProjectionSpec.simplex_blocks(2)
        np.testing.assert_allclose(project(spec, [0.8, 0.8]), [0.5, 0.5], atol=1e-15)

    def test_simplex_blocks_sum_to_one(self, rng):
        spec = ProjectionSpec.simplex_blocks(3)
        out = project(spec, rng.standard_normal(9))
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.reshape(3, 3).sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("center, radius, point, want", [
        ([0.0, 0.0], 1.0, [3e154, 4e154], [0.6, 0.8]),
        ([0.0, 0.0], 1.0, [-3e300, 4e300], [-0.6, 0.8]),
        ([1.0, -1.0], 1.0, [1.0, 1.7e308], [1.0, 0.0]),
        ([-1e308, 0.0], 1e308, [1.7e308, 0.0], [0.0, 0.0]),
        ([-1e308, -1e308], 1.0, [1.7e308, 1.7e308], [-1e308, -1e308]),
    ], ids=["1e154", "1e300", "off-center", "diff-overflows", "diff-overflows-unit"])
    def test_ball_far_point_whose_norm_overflows_lands_on_the_sphere(self, center, radius, point,
                                                                     want):
        # np.linalg.norm(diff) overflowed to inf, and diff * (r / inf) put the
        # point at the center, with an "overflow encountered in dot" warning; where
        # x - center itself overflowed, the rescale divided inf by inf, and the NaN
        # output raised NonFiniteError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(ProjectionSpec.ball(center, radius), point)
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_ball_of_infinite_radius_keeps_a_far_point(self):
        out = project(ProjectionSpec.ball([0.0, 0.0], np.inf), [3e154, 4e154])
        np.testing.assert_array_equal(out, [3e154, 4e154])

    def test_ball_keeps_its_bits_below_the_overflow(self, rng):
        center = rng.standard_normal(5)
        spec = ProjectionSpec.ball(center, 0.5)
        for scale in (1.0, 1e100, 1e153):
            diff = rng.standard_normal(5) * scale
            want = center + diff * (0.5 / float(np.linalg.norm(diff)))
            assert project(spec, center + diff).tobytes() == want.tobytes()

    @pytest.mark.parametrize("v, want", [
        ([1e16, 0.0], [1.0, 0.0]), ([0.0, 1e16], [0.0, 1.0]), ([1e308, 1e308], [0.5, 0.5]),
        ([-1.7e308, 1.7e308, 0.0], [0.0, 1.0, 0.0]), ([1e17, 1e17 + 16.0, 0.0], [0.0, 1.0, 0.0]),
    ], ids=["1e16", "1e16-second", "1e308-pair", "spread-overflows", "16-apart"])
    def test_simplex_block_with_huge_entries_projects_without_a_warning(self, v, want):
        # the scan's u - (css - 1)/j > 0 held at no index, so the block came back
        # NaN (NonFiniteError), and [1e308, 1e308] overflowed in the cumsum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(ProjectionSpec.simplex_blocks(len(v)), v)
        np.testing.assert_array_equal(out, want)

    def test_simplex_block_with_nan_still_comes_back_non_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _project_raw(ProjectionSpec.simplex_blocks(2), np.array([1e16, 0.0, np.nan, 0.0]))
        np.testing.assert_array_equal(out[:2], [1.0, 0.0])
        assert np.isnan(out[2:]).all()

    def test_nonnegative(self):
        # -0.0 projects to +0.0, as every negative entry does
        out = project(ProjectionSpec.nonnegative(), [-1.0, 0.5, -0.0])
        assert out.tobytes() == np.array([0.0, 0.5, 0.0]).tobytes()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ProjectionSpec.ball([0.0], 0.0)
        with pytest.raises(ValueError):
            ProjectionSpec.box([1.0], [0.0])
        with pytest.raises(ValueError):
            ProjectionSpec.simplex_blocks(0)

    @pytest.mark.parametrize("check, says", [
        (lambda: ProjectionSpec.box([0.0, 0.0], [1.0]), "box bounds must have equal length"),
        (lambda: ProjectionSpec.ball([0.0, 0.0], 1.0).check_dim(3),
         "ball is 2-dimensional, vector is 3-dimensional"),
        (lambda: project(ProjectionSpec.box([-1.0, -1.0], [1.0, 1.0]), [1.0, 2.0, 3.0]),
         "box is 2-dimensional, vector is 3-dimensional"),
        (lambda: project(ProjectionSpec.simplex_blocks(2), [1.0, 2.0, 3.0]),
         "simplex blocks of size 2 do not partition dimension 3"),
    ], ids=["box-bounds", "ball-dim", "box-dim", "simplex-dim"])
    def test_mismatched_lengths_are_refused(self, check, says):
        with pytest.raises(DimensionMismatchError) as exc:
            check()
        assert exc.type is DimensionMismatchError and str(exc.value) == says

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

    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
                  elements=st.floats()),
           st.sampled_from(["whole", "strided", "transposed"]))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_all_finite_agrees_with_isfinite_all(self, a, view):
        # NaN, +-Inf, empty, 0-d, 2-d and non-contiguous arrays, as float64, bool and int64,
        # against the public count that the C count_nonzero stands in for
        for b in (a, a > 0, (a > 0).astype(np.int64)):
            v = {"whole": b, "strided": b[::2] if b.ndim else b, "transposed": b.T}[view]
            assert all_finite(v) == np.isfinite(v).all() == (
                np.count_nonzero(np.isfinite(v)) == v.size)

    @pytest.mark.parametrize("dtype", [np.float64, ">f8", np.float32, np.bool_, np.int64])
    def test_all_finite_of_one_entry(self, dtype):
        # float64 takes the math.isfinite path; the rest, and big-endian float64, the count
        for shape in ((), (1,), (1, 1)):
            for value in (0.0, -0.0, 5e-324, 1.8e308, np.nan, np.inf, -np.inf):
                with np.errstate(over="ignore", invalid="ignore"):  # float32 and int64 casts
                    v = np.full(shape, value).astype(dtype)
                assert all_finite(v) == np.isfinite(v).all(), (shape, value)

    def test_all_finite_of_a_wide_float_and_of_nothing(self):
        # 1e4000 is finite in an 80-bit or 128-bit long double and rounds to inf as a Python
        # float; an empty array (an m = 0 problem's g) has no item() to take
        big = np.full((1,), np.longdouble("1e4000"))
        assert all_finite(big) == np.isfinite(big).all()
        if np.finfo(np.longdouble).maxexp > 1024:
            assert all_finite(big)
        assert all_finite(np.zeros(0)) and all_finite(np.zeros((0, 3)))

    @pytest.mark.parametrize("n", [6, 64, 100, 256])
    def test_solve_pair_against_two_solves(self, n):
        # a^-1 b comes from the dgesv np.linalg.solve calls, a^-T c from its LU factors
        rng = np.random.default_rng(n)
        p = rng.uniform(size=(n, n))
        a = np.eye(n) - 0.9 * p / p.sum(axis=1, keepdims=True)
        b, c = rng.uniform(size=(n, 4)), np.full(n, 1.0 / n)
        for rhs in (b, b[:, 0]):
            x, y = solve_pair(a, rhs, c)
            assert x.flags.c_contiguous and np.array_equal(x, np.linalg.solve(a, rhs))
            np.testing.assert_allclose(y, np.linalg.solve(a.T, c), rtol=1e-14, atol=0)
        singular = a.copy()
        singular[:, -1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve_pair(singular, b, c)


def coerced(fn, v):
    """The array a coercion gives, with its dtype and shape, or its error's type and message."""
    try:
        out = fn(v)
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


class TestFloat64Coercion:
    @pytest.mark.parametrize("value", [
        np.array([1 + 0j]), np.array([1.5 - 2j], dtype=np.complex64), np.complex128(1.0),
        [np.complex128(1 + 2j)], [1 + 0j],
    ], ids=["complex128-array", "complex64-array", "complex-scalar", "list-of-numpy-complex",
            "complex-list"])
    def test_complex_input_raises_type_error_without_a_warning(self, value):
        # all but the complex list were cast to their real parts with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match="^v must be real, got complex values$"):
                as_vector(value, "v")

    @pytest.mark.parametrize("value", [
        [1, 2], [True, False], [None], ["1.5"], ["x"], [10 ** 20], [[1], [1, 2]], [],
        [1.5, None], np.array([1.5, -2.25, 1e30], dtype=np.float32), np.array([3, 4]),
        np.array(2.5), np.arange(6.0)[::2], iter([1.0]),
    ], ids=["ints", "bools", "none", "string", "bad-string", "big-int", "ragged", "empty",
            "float-and-none", "float32", "int-array", "0-d", "strided", "iterator"])
    def test_same_result_or_error_as_np_asarray(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert coerced(lambda v: _float64(v, "v"), value) == coerced(
                lambda v: np.asarray(v, dtype=np.float64), value)

    def test_a_float64_array_is_returned_as_it_is(self):
        v = np.arange(4.0)[::2]
        assert _float64(v, "v") is v
