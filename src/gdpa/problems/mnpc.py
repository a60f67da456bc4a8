"""Multi-class prioritized classification with per-class loss budgets.

One linear classifier per class; the objective is the prioritized class's
sigmoid margin loss (plus a smooth quadratic-norm regularizer), and each
remaining class contributes one budget constraint on its own loss. For a
sample xi of class j, the margin loss against classifier i != j is
``logistic((w_i - w_j) @ xi)``: it shrinks as the true class outscores the
competitor. Losses are averaged over the samples of the class.
"""

from __future__ import annotations

import numpy as np

from ..problem import ConstrainedProblem
from ..vec import ProjectionSpec, as_vector
from .datasets import MnpcDataset


def _logistic(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _class_loss_and_grad(weights: np.ndarray, samples: np.ndarray, cls: int):
    """Mean over ``samples`` (of class ``cls``) of the summed margin losses
    against every other classifier, plus its gradient w.r.t. all weights."""
    num_classes, d_in = weights.shape
    n = samples.shape[0]
    scores = weights @ samples.T                      # (C, n)
    margins = scores - scores[cls]                    # (w_i - w_cls) @ xi
    s = _logistic(margins)
    s[cls] = 0.0
    loss = float(s.sum()) / n
    sprime = s * (1.0 - s)                            # logistic derivative
    sprime[cls] = 0.0
    grad = (sprime @ samples) / n                     # rows i != cls
    grad[cls] = -sprime.sum(axis=0) @ samples / n
    return loss, grad


def build_mnpc(data: MnpcDataset, reg_lambda: float, thresholds) -> ConstrainedProblem:
    """Decision variable: the (num_classes * d_in) stacked classifier weights.

    f = (reg_lambda/2)*||w||^2 + loss of class 0 (the prioritized one);
    g_j = loss of class j - thresholds[j-1] for j = 1..num_classes-1.
    """
    r = as_vector(thresholds, "thresholds")
    m = data.num_classes - 1
    if r.size != m:
        raise ValueError(f"thresholds must have length {m}")
    if not 0 <= reg_lambda < np.inf:
        raise ValueError("reg_lambda must be finite and nonnegative")
    splits = data.class_blocks()
    d_in = data.d_in
    dim = data.num_classes * d_in
    shape = (data.num_classes, d_in)

    def eval_f(x):
        w = x.reshape(shape)
        loss, _ = _class_loss_and_grad(w, splits[0], 0)
        return 0.5 * reg_lambda * float(x @ x) + loss

    def eval_grad_f(x):
        w = x.reshape(shape)
        _, grad = _class_loss_and_grad(w, splits[0], 0)
        return reg_lambda * x + grad.ravel()

    def eval_g(x):
        w = x.reshape(shape)
        vals = np.empty(m)
        for j in range(1, data.num_classes):
            loss, _ = _class_loss_and_grad(w, splits[j], j)
            vals[j - 1] = loss - r[j - 1]
        return vals

    def eval_jacobian(x):
        w = x.reshape(shape)
        jac = np.empty((m, dim))
        for j in range(1, data.num_classes):
            _, grad = _class_loss_and_grad(w, splits[j], j)
            jac[j - 1] = grad.ravel()
        return jac

    return ConstrainedProblem(
        dim=dim,
        num_constraints=m,
        eval_f=eval_f,
        eval_grad_f=eval_grad_f,
        eval_g=eval_g,
        eval_jacobian=eval_jacobian,
        projection=ProjectionSpec.identity(),
        name="mnpc",
    )
