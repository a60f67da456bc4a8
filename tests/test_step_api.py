"""The public step functions against their checked-first form.

``active_set`` and ``dual_step`` take float64 vectors of one 1-d shape (and, in
``dual_step``, a bool mask of that shape) on a path that makes one finiteness
check, on the vector derived from both inputs, and check each input in the old
order only when that check fails. The reference below is the form in which each
input passes ``as_vector`` first and the step formula runs after. For every drawn
input the two must raise the same exception type with the same message, or return
the same bytes, dtype and shape. The one intended difference: ``dual_step`` now
refuses a mask that is not 1-d, which the reference broadcast.
"""

import math
import warnings

import numpy as np
import pytest

from gdpa import active_set, dual_step
from gdpa.vec import DimensionMismatchError, NonFiniteError


def old_as_vector(v, name):
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-d, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return arr


def old_check_steps(beta_r, tau):
    if not 0 < beta_r < math.inf:
        raise ValueError("beta_r must be positive and finite")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly between 0 and 1")


def reference_active_set(g_x, lam, beta_r, tau):
    old_check_steps(beta_r, tau)
    gv = old_as_vector(g_x, "g_x")
    lv = old_as_vector(lam, "lambda")
    if lv.size != gv.size:
        raise DimensionMismatchError(f"lambda must have length {gv.size}")
    return (1.0 - tau) * lv + beta_r * gv > 0.0


def reference_dual_step(g_next, lam, mask, beta_r, tau, one_d_mask=True):
    old_check_steps(beta_r, tau)
    gv = old_as_vector(g_next, "g_next")
    lv = old_as_vector(lam, "lambda")
    m = np.asarray(mask, dtype=bool)
    if not (gv.size == lv.size == m.size):
        raise ValueError("g_next, lambda, and mask must have equal length")
    if one_d_mask and m.ndim != 1:
        raise DimensionMismatchError(f"mask must be 1-d, got shape {m.shape}")
    return np.where(m, np.maximum((1.0 - tau) * lv + beta_r * gv, 0.0), 0.0)


def outcome(fn, *args, **kwargs):
    """What a call gives: its exception's type and message, or its array's bytes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow raises, in both forms
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


# entries placed in one input or both; 1e300 with a large beta_r overflows the
# sum (1-tau)*lam + beta_r*g of both steps
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300]
VECTOR_FORMS = ["float64"] * 6 + ["list", "int", "float32", "0-d", "2-d", "strided",
                                  "long", "short"]
MASK_FORMS = ["bool"] * 6 + ["list", "int", "long", "2-d", "row", "0-d"]
BETAS = [0.7, 0.7, 3.0, 1e-300, 1e300, 0.0, -1.0, math.inf, math.nan]
TAUS = [0.25, 0.25, 0.9, 0.0, 1.0, -0.5, math.nan]


def vector_form(v, form):
    with np.errstate(over="ignore", invalid="ignore"):  # float32 and int casts of 1e300
        if form == "list":
            return v.tolist()
        if form == "int":
            return np.nan_to_num(np.clip(v, -3, 3)).astype(np.int64)
        if form == "float32":
            return v.astype(np.float32)
        if form == "0-d":
            return np.array(v[0] if v.size else 1.0)
        if form == "2-d":
            return v[:, None]
        if form == "strided":
            w = np.zeros(2 * v.size)
            w[::2] = v
            return w[::2]
        if form == "long":
            return np.append(v, 0.5)
        if form == "short":
            return v[:-1]
    return v


def mask_form(bits, form):
    if form == "list":
        return bits.tolist()
    if form == "int":
        return bits.astype(np.int64) * 2
    if form == "long":
        return np.append(bits, True)
    if form == "2-d":
        return bits[:, None]
    if form == "row":
        return bits[None, :]
    if form == "0-d":
        return np.array(bits[0] if bits.size else True)
    return bits


def draw(rng):
    """One call's inputs: vectors of every sign and a wide range of magnitudes,
    special entries in g, lambda or both, and every input form."""
    n = int(rng.integers(1, 4))
    scale = 10.0 ** rng.uniform(-3, 3)
    g, lam = scale * rng.standard_normal(n), scale * rng.standard_normal(n)
    for v in [(), (g,), (lam,), (g, lam)][rng.integers(4)]:
        v[rng.integers(n)] = SPECIAL[rng.integers(len(SPECIAL))]
    g_form, lam_form = (VECTOR_FORMS[i] for i in rng.integers(len(VECTOR_FORMS), size=2))
    bits = rng.random(n) < 0.5
    return (vector_form(g, g_form), vector_form(lam, lam_form),
            mask_form(bits, MASK_FORMS[rng.integers(len(MASK_FORMS))]),
            BETAS[rng.integers(len(BETAS))], TAUS[rng.integers(len(TAUS))])


SEEDS = range(8)


@pytest.mark.parametrize("seed", SEEDS)
def test_step_functions_match_the_checked_first_form(seed):
    rng = np.random.default_rng(seed)
    mask_refusals = 0
    for _ in range(800):
        g, lam, mask, beta, tau = draw(rng)
        case = f"g={g!r}, lam={lam!r}, mask={mask!r}, beta_r={beta!r}, tau={tau!r}"
        got, want = outcome(active_set, g, lam, beta, tau), outcome(reference_active_set,
                                                                       g, lam, beta, tau)
        assert got == want, case
        got = outcome(dual_step, g, lam, mask, beta, tau)
        assert got == outcome(reference_dual_step, g, lam, mask, beta, tau), case
        if got != outcome(reference_dual_step, g, lam, mask, beta, tau, one_d_mask=False):
            assert np.ndim(mask) != 1 and got[0] is DimensionMismatchError, case
            mask_refusals += 1
    assert mask_refusals > 0


def test_the_seeds_draw_every_kind_of_outcome():
    # results, each check and an overflow; an overflow needs a large beta_r and a
    # huge entry in g, which not every seed's 800 draws combine
    seen = set()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(800):
            g, lam, mask, beta, tau = draw(rng)
            for want in (outcome(reference_active_set, g, lam, beta, tau),
                         outcome(reference_dual_step, g, lam, mask, beta, tau)):
                seen.add(want[0] if isinstance(want[0], type) else "array")
    assert seen == {"array", ValueError, DimensionMismatchError, NonFiniteError, RuntimeWarning}


@pytest.mark.parametrize("step", ["active_set", "dual_step"])
def test_finite_inputs_that_overflow_warn_once_as_before(step):
    # the derived vector overflows: the checks pass, and its mask or clamp is returned
    # without computing it again
    g, lam, mask = np.array([1e300, 1.0]), np.array([1e300, 0.0]), np.array([True, False])
    calls = {"active_set": ((active_set, reference_active_set), (g, lam, 1e300, 0.25)),
             "dual_step": ((dual_step, reference_dual_step), (g, lam, mask, 1e300, 0.25))}
    (new, old), args = calls[step]
    results, messages = [], []
    for fn in (new, old):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append(fn(*args))
        messages.append([str(w.message) for w in caught])
    assert messages[0] == messages[1] and len(messages[0]) == 1
    a, b = results
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_active_set_overflows_where_the_dual_step_does():
    # the mask came from g + (1-tau)*lam/beta_r, whose divide overflowed at a tiny
    # beta_r; the sum (1-tau)*lam + beta_r*g of both steps does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = active_set(np.array([1e300, 1.0]), np.array([1e300, 0.0]), 1e-300, 0.25)
    assert got.tolist() == [True, True]

