"""Tabular constrained MDP with an exactly-evaluated softmax policy.

The decision variable is a logit table theta in R^(S*A) parametrizing one
softmax distribution per state. Returns are computed exactly: the policy's
value function solves the (S x S) linear system (I - discount * P_pi) v =
r_pi, which is nonsingular for any discount < 1. Sign convention at the API
boundary: the underlying task is maximize-return subject to
return-at-least-threshold, negated here into min f(theta) subject to
g(theta) <= 0 with

    f(theta)   = -(1 - discount) * E_{s0~uniform}[ v_R(s0) ],
    g_i(theta) = thresholds[i] - (1 - discount) * E_{s0~uniform}[ v_{G_i}(s0) ].

Gradients use the exact policy-gradient formula with exact Q-values and the
softmax Jacobian.

Each callback evaluates all of its reward tables (one for f, m for g) under
one policy: one softmax, one P_pi and one multi-RHS solve for the value
functions. ``eval_f`` and ``eval_g`` stop there. ``eval_grad_f`` and
``eval_jacobian`` add one occupancy solve on its LU factors, shared by every
table, and one (S*A, S) @ (S, k) product for the Q-values of all k tables.
``eval_first_order`` makes that pass once over all 1 + m tables and returns
f, g, grad f and J from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..problem import ConstrainedProblem
from ..vec import all_finite, solve_pair

_ROW_SUM_TOL = 1e-12


@dataclass
class TabularCmdp:
    """transitions[s, a, s'], rewards[s, a], constraint_rewards[i, s, a]."""

    transitions: np.ndarray
    rewards: np.ndarray
    constraint_rewards: np.ndarray
    discount: float
    thresholds: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.constraint_rewards = np.asarray(self.constraint_rewards, dtype=np.float64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        s, a = self.rewards.shape
        if self.transitions.shape != (s, a, s):
            raise ValueError("transitions must have shape (S, A, S)")
        if self.constraint_rewards.ndim != 3 or self.constraint_rewards.shape[1:] != (s, a):
            raise ValueError("constraint_rewards must have shape (m, S, A)")
        if np.any(self.transitions < 0):
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = self.transitions.sum(axis=2)
        if not np.max(np.abs(row_sums - 1.0)) <= _ROW_SUM_TOL:  # NaN fails too
            raise ValueError("each transitions[s, a, :] must sum to 1")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie strictly between 0 and 1")
        if self.thresholds.shape != (self.constraint_rewards.shape[0],):
            raise ValueError("thresholds must have one entry per constraint reward")
        for name in ("rewards", "constraint_rewards", "thresholds"):
            if not all_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def num_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_actions(self) -> int:
        return self.rewards.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.constraint_rewards.shape[0]


def random_cmdp(seed: int, num_states: int, num_actions: int, num_constraints: int,
                discount: float, thresholds=None) -> TabularCmdp:
    """Seeded instance with uniform-random transition kernels and rewards in [0, 1]."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=(num_states, num_actions, num_states))
    p /= p.sum(axis=2, keepdims=True)
    rewards = rng.uniform(size=(num_states, num_actions))
    constraint_rewards = rng.uniform(size=(num_constraints, num_states, num_actions))
    if thresholds is None:
        thresholds = np.zeros(num_constraints)
    return TabularCmdp(p, rewards, constraint_rewards, discount, thresholds)


def softmax_policy(theta: np.ndarray, num_states: int, num_actions: int) -> np.ndarray:
    """Row-stochastic (S, A) policy from the flat logit table."""
    z = theta.reshape(num_states, num_actions)
    z = z - np.maximum.reduce(z, axis=1, keepdims=True)  # .max, .sum without their wrappers
    e = np.exp(z)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def policy_evaluation(model: TabularCmdp, policy: np.ndarray, table: np.ndarray):
    """Exact v, q, and the induced state kernel P_pi for a reward table (S, A)."""
    p_pi = np.einsum("sa,sat->st", policy, model.transitions)
    r_pi = (policy * table).sum(axis=1)
    v = np.linalg.solve(np.eye(model.num_states) - model.discount * p_pi, r_pi)
    q = table + model.discount * np.einsum("sat,t->sa", model.transitions, v)
    return v, q, p_pi


def discounted_return(model: TabularCmdp, theta: np.ndarray, table: np.ndarray) -> float:
    """Normalized return (1 - discount) * E_{s0~uniform}[v(s0)] under ``table``."""
    rho = np.full(model.num_states, 1.0 / model.num_states)
    policy = softmax_policy(np.asarray(theta, dtype=np.float64),
                            model.num_states, model.num_actions)
    v, _, _ = policy_evaluation(model, policy, table)
    return (1.0 - model.discount) * float(rho @ v)


def optimal_return(model: TabularCmdp, table: np.ndarray) -> float:
    """Normalized optimal return for ``table`` by value iteration (oracle use): at
    most 100,000 sweeps, stopped once a sweep moves no value by 1e-13 or more."""
    v = np.zeros(model.num_states)
    for _ in range(100_000):
        q = table + model.discount * np.einsum("sat,t->sa", model.transitions, v)
        v_new = q.max(axis=1)
        if float(np.max(np.abs(v_new - v))) < 1e-13:
            v = v_new
            break
        v = v_new
    rho = np.full(model.num_states, 1.0 / model.num_states)
    return (1.0 - model.discount) * float(rho @ v)


def build_cmdp(model: TabularCmdp) -> ConstrainedProblem:
    """Wrap the model as a smooth constrained problem over policy logits."""
    s, a, discount = model.num_states, model.num_actions, model.discount
    rho = np.full(s, 1.0 / s)
    occupancy_rhs = (discount - 1.0) * rho  # -(1 - discount) rho, see loss_grads
    dim = s * a
    thresholds = model.thresholds.copy()
    rewards = model.rewards[None]
    all_tables = np.concatenate([rewards, model.constraint_rewards])
    flat_transitions = model.transitions.reshape(dim, s)

    def values(theta, tables):
        # One softmax, one P_pi, and the system and right-hand sides of the (S, k)
        # value functions of all k stacked reward tables (k, S, A).
        policy = softmax_policy(theta, s, a)
        system = (policy[:, None, :] @ model.transitions)[:, 0]
        system *= -discount  # I - discount * P_pi, in place
        system.flat[::s + 1] += 1.0
        return policy, system, np.einsum("sa,ksa->sk", policy, tables)

    def returns(theta, tables):
        return (1.0 - discount) * (rho @ np.linalg.solve(*values(theta, tables)[1:]))

    def loss_grads(theta, tables):  # v and the gradients of the negated returns
        policy, system, r_pi = values(theta, tables)
        # v and minus the normalized discounted state-visitation measure, shared by every
        # table; its minus sign goes into the product, so the gradients need no pass of their own.
        v, d = solve_pair(system, r_pi, occupancy_rhs)
        q = tables + discount * (flat_transitions @ v).T.reshape(tables.shape)
        return v, (d[:, None] * policy * (q - v.T[:, :, None])).reshape(len(tables), dim)

    def eval_f(theta):
        return -float(returns(theta, rewards)[0])

    def eval_grad_f(theta):
        return loss_grads(theta, rewards)[1][0]

    def eval_g(theta):
        return thresholds - returns(theta, model.constraint_rewards)

    def eval_jacobian(theta):
        return loss_grads(theta, model.constraint_rewards)[1]

    def eval_first_order(theta):
        v, grads = loss_grads(theta, all_tables)
        return (-(1.0 - discount) * float(rho @ v[:, 0]),
                thresholds - (1.0 - discount) * (rho @ v[:, 1:]), grads[0], grads[1:])

    return ConstrainedProblem(
        dim=dim,
        num_constraints=model.num_constraints,
        eval_f=eval_f,
        eval_grad_f=eval_grad_f,
        eval_g=eval_g,
        eval_jacobian=eval_jacobian,
        name="cmdp",
        eval_first_order=eval_first_order,
    )
