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
from ..vec import as_vector, check_length
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


def _class_budget_problem(data: MnpcDataset, dim: int, bounds, what: str, name: str,
                          eval_f, eval_grad_f, loss, loss_grad) -> ConstrainedProblem:
    """Minimize ``eval_f`` (class 0's loss) subject to ``loss(x, j) <= bounds[j-1]``
    for each class j = 1..num_classes-1; ``loss_grad(x, j)`` is that loss's gradient."""
    m = data.num_classes - 1
    b = check_length(as_vector(bounds, what), m, what)
    classes = range(1, data.num_classes)
    return ConstrainedProblem(
        dim=dim,
        num_constraints=m,
        eval_f=eval_f,
        eval_grad_f=eval_grad_f,
        eval_g=lambda x: np.array([loss(x, j) - b[j - 1] for j in classes]),
        eval_jacobian=lambda x: np.vstack([loss_grad(x, j) for j in classes]),
        name=name,
    )


def build_mnpc(data: MnpcDataset, reg_lambda: float, thresholds) -> ConstrainedProblem:
    """Decision variable: the (num_classes * d_in) stacked classifier weights.

    f = (reg_lambda/2)*||w||^2 + loss of class 0 (the prioritized one);
    g_j = loss of class j - thresholds[j-1] for j = 1..num_classes-1.
    """
    if not 0 <= reg_lambda < np.inf:
        raise ValueError("reg_lambda must be finite and nonnegative")
    splits = data.class_blocks()
    shape = (data.num_classes, data.d_in)

    def loss(x, j):
        return _class_loss_and_grad(x.reshape(shape), splits[j], j)[0]

    def loss_grad(x, j):
        return _class_loss_and_grad(x.reshape(shape), splits[j], j)[1].ravel()

    return _class_budget_problem(
        data, data.num_classes * data.d_in, thresholds, "thresholds", "mnpc",
        lambda x: 0.5 * reg_lambda * float(x @ x) + loss(x, 0),
        lambda x: reg_lambda * x + loss_grad(x, 0), loss, loss_grad)
