"""Independent reference model of Algorithm 1 and of the two baselines.

A literal transcription of the README's "The solver in one screen" and of its
baseline paragraph, written against numpy alone: nothing here comes from
``gdpa.solver`` or ``gdpa.vec``. Tests compare the library with it.
"""

import math

import numpy as np


def project(kind, x, lower=None, upper=None, center=None, radius=None, block=None):
    """P_X(x) for the five feasible sets."""
    if kind == "identity":
        return x
    if kind == "box":
        return np.minimum(np.maximum(x, lower), upper)
    if kind == "ball":
        dist = math.sqrt(float((x - center) @ (x - center)))
        return x if dist <= radius else center + (x - center) * (radius / dist)
    if kind == "nonnegative":
        return np.maximum(x, 0.0)
    if kind == "simplex":  # sort-and-threshold, one block at a time
        out = []
        for v in np.split(x, x.size // block):
            u = np.sort(v)[::-1]
            k = max(j for j in range(1, v.size + 1) if u[j - 1] > (u[:j].sum() - 1.0) / j)
            out.append(np.maximum(v - (u[:k].sum() - 1.0) / k, 0.0))
        return np.concatenate(out)
    raise ValueError(kind)


def weighted_averages(pairs, weights):
    """sum w_r*x_r / sum w_r and sum w_r*lam_r / sum w_r over (x_r, lam_r) pairs."""
    total = sum(weights)
    return tuple(sum(w * pair[i] for w, pair in zip(weights, pairs)) / total for i in (0, 1))


def gdpa(grad_f, g, jac, proj, x0, tau, beta0, a01, a02, a03, iters):
    """(x_r, lam_r) for r = 1..iters, then (x_{R+1}, lam_{R+1}), then the
    1/beta_r-weighted averages of x_r and lam_r over r = 1..iters."""
    x, lam, pairs, weights = proj(x0), np.zeros(g(x0).size), [], []
    for r in range(1, iters + 1):
        pairs.append((x, lam))
        beta = beta0 * r ** (1.0 / 3.0)
        weights.append(1.0 / beta)
        alpha = a01 / (a02 + a03 * r ** (1.0 / 3.0))
        active = g(x) + (1.0 - tau) * lam / beta > 0.0
        x = proj(x - alpha * (grad_f(x) + jac(x).T @ np.maximum(
            (1.0 - tau) * lam + beta * g(x), 0.0)))
        lam = np.where(active, np.maximum((1.0 - tau) * lam + beta * g(x), 0.0), 0.0)
    return (pairs, x, lam, *weighted_averages(pairs, weights))


def inner_outer(grad_f, g, jac, proj, x0, rho0, growth, inner, outer, step, feas_tol,
                max_steps, alm):
    """Final (x, lam), the step count and the 1/rho-weighted averages of the
    (x, lam) each step starts from, of the penalty method (``alm`` False, lam
    stays 0, rho grows every round) or ALM (lam <- [lam + rho*g]_+ after a
    round, rho grows when the violation is not cut by the factor 0.9)."""
    x, lam, rho, prev, steps = proj(x0), np.zeros(g(x0).size), rho0, math.inf, 0
    pairs, weights = [], []
    for _ in range(outer):
        for _ in range(inner):
            if steps == max_steps:
                return (x, lam, steps, *weighted_averages(pairs, weights))
            steps += 1
            pairs.append((x, lam))
            weights.append(1.0 / rho)
            x = proj(x - step * (grad_f(x) + jac(x).T @ np.maximum(lam + rho * g(x), 0.0)))
        if alm:
            lam = np.maximum(lam + rho * g(x), 0.0)
        viol = float(np.linalg.norm(np.maximum(g(x), 0.0)))
        if viol <= feas_tol:
            break
        if not alm or viol > 0.9 * prev:
            rho *= growth
        prev = viol
    return (x, lam, steps, *weighted_averages(pairs, weights))
