"""Bundled problem zoo: analytic oracles, classification with loss budgets,
budgeted network training, and a tabular constrained MDP."""

from .analytic import ANALYTIC_IDS, AnalyticInstance, build_analytic
from .cmdp import (
    TabularCmdp,
    build_cmdp,
    discounted_return,
    optimal_return,
    policy_evaluation,
    random_cmdp,
    softmax_policy,
)
from .datasets import DatasetError, MnpcDataset, generate_synthetic_mnpc, load_csv_dataset
from .mnpc import build_mnpc
from .nn_budget import build_nn_budget
