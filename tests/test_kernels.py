"""The hot loops' read-only 0-d constant and the box projection against ``np.clip``.

The step and trace-row kernels' bits are pinned by whole runs in ``golden.json``
(``tests/test_golden.py``); the box projection's NaN, Inf and signed-zero inputs
are ones no golden run reaches, so they are compared here, on the bytes.
"""

import numpy as np
import pytest

import gdpa.metrics
from gdpa.vec import ProjectionSpec, _project_raw


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("const", [gdpa.metrics._ZERO])
def test_module_constants_are_read_only_0d_float64(const):
    assert const.shape == () and const.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        const[...] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.add(const, 1.0, out=const)


@pytest.mark.parametrize("lower, upper", [
    (-1.0, 1.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), ([-0.0, 0.0] * 5, [0.0, -0.0] * 5)])
def test_box_projection_equals_np_clip(lower, upper):
    # the projection calls the clip ufunc that np.clip and ndarray.clip end in
    x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.5, -0.5, 3.0, -3.0, 5e-324])
    rng = np.random.default_rng(0)
    for v in (x, rng.permutation(x), np.repeat(x, 2)[::2], 10.0 * rng.standard_normal(10)):
        spec = ProjectionSpec.box(np.resize(lower, 10), np.resize(upper, 10))
        got = _project_raw(spec, v)
        assert same(got, np.clip(v, spec.lower, spec.upper))
        assert same(got, v.clip(spec.lower, spec.upper))
