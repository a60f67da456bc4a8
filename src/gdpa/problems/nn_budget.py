"""Two-layer network training with accuracy budgets on secondary classes.

Fixed architecture: input -> sigmoid hidden layer -> sigmoid output layer, no
biases, mean squared error against one-hot targets. The objective is the loss
on the prioritized class split; every other class split contributes one
budget constraint. Gradients are hand-coded backpropagation for this exact
architecture.
"""

from __future__ import annotations

import numpy as np

from ..problem import ConstrainedProblem
from .datasets import MnpcDataset
from .mnpc import _class_budget_problem, _logistic


def _split_weights(x: np.ndarray, d_in: int, hidden: int, num_out: int):
    w1 = x[: d_in * hidden].reshape(d_in, hidden)
    w2 = x[d_in * hidden:].reshape(hidden, num_out)
    return w1, w2


def _forward(w1, w2, samples):
    h = _logistic(samples @ w1)
    o = _logistic(h @ w2)
    return h, o


def _residual(o, cls):
    diff = o.copy()  # o minus class cls's one-hot target: o - 0.0 == o, bit for bit
    diff[:, cls] -= 1.0
    return diff


def _loss(w1, w2, samples, cls):
    diff = _residual(_forward(w1, w2, samples)[1], cls)
    return float((diff * diff).mean())


def _loss_grad(w1, w2, samples, cls):
    h, o = _forward(w1, w2, samples)
    n, k = o.shape
    d_o = (2.0 / (n * k)) * _residual(o, cls)
    d_z2 = d_o * o * (1.0 - o)
    g_w2 = h.T @ d_z2
    d_h = d_z2 @ w2.T
    d_z1 = d_h * h * (1.0 - h)
    g_w1 = samples.T @ d_z1
    return np.concatenate([g_w1.ravel(), g_w2.ravel()])


def build_nn_budget(data: MnpcDataset, hidden: int, budgets) -> ConstrainedProblem:
    """Decision variable: flattened (d_in x hidden) + (hidden x num_classes)
    weights. f = MSE loss on class 0; g_i = loss on class i - budgets[i-1]."""
    if hidden < 1:
        raise ValueError("hidden must be positive")
    splits = data.class_blocks()
    d_in, num_out = data.d_in, data.num_classes

    def loss(x, j):
        return _loss(*_split_weights(x, d_in, hidden, num_out), splits[j], j)

    def loss_grad(x, j):
        return _loss_grad(*_split_weights(x, d_in, hidden, num_out), splits[j], j)

    return _class_budget_problem(
        data, d_in * hidden + hidden * num_out, budgets, "budgets", "nn-budget",
        lambda x: loss(x, 0), lambda x: loss_grad(x, 0), loss, loss_grad)
