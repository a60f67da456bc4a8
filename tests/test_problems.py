import tracemalloc

import numpy as np
import pytest

from gdpa import GdpaConfig, check_gradients, kkt_residual, solve
from gdpa.problem import seeded_check_points
from gdpa.problems import (
    ANALYTIC_IDS,
    DatasetError,
    build_analytic,
    build_cmdp,
    build_mnpc,
    build_nn_budget,
    discounted_return,
    generate_synthetic_mnpc,
    load_csv_dataset,
    policy_evaluation,
    random_cmdp,
    softmax_policy,
    TabularCmdp,
)
from gdpa import vec
from gdpa.problems import mnpc, nn_budget
from gdpa.problems.datasets import MnpcDataset


class TestAnalytic:
    def test_known_kkt_pairs(self):
        expected = {
            "scaled-1d": ([1.0], [2.0]),
            "halfspace-quadratic": ([0.5, 0.5], [1.0]),
            "circle-exterior": ([1.0, 0.0], [0.5]),
        }
        for aid in ANALYTIC_IDS:
            inst = build_analytic(aid)
            xs, ls = expected[aid]
            np.testing.assert_allclose(inst.x_star, xs)
            np.testing.assert_allclose(inst.lambda_star, ls)
            res = kkt_residual(inst.problem, inst.x_star, inst.lambda_star)
            assert res.max() <= 1e-10, aid


class TestSyntheticDataset:
    def test_deterministic(self):
        a = generate_synthetic_mnpc(3, 3, 5, 10, 0.5)
        b = generate_synthetic_mnpc(3, 3, 5, 10, 0.5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_noise_collapses_to_means(self):
        d = generate_synthetic_mnpc(1, 2, 4, 5, 0.0)
        for block in d.class_blocks():
            assert np.allclose(block, block[0])
            np.testing.assert_allclose(np.linalg.norm(block[0]), 2.0, atol=1e-12)

    def test_counts(self):
        d = generate_synthetic_mnpc(2, 3, 7, 10, 0.1)
        assert d.features.shape == (30, 7)
        assert [int((d.labels == c).sum()) for c in range(3)] == [10, 10, 10]

    @pytest.mark.parametrize("seed", range(4))
    def test_class_blocks_equal_the_masked_rows_for_shuffled_labels(self, seed):
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.arange(5), rng.integers(0, 5, 40)])
        rng.shuffle(labels)
        data = MnpcDataset(rng.standard_normal((labels.size, 3)), labels, 5)
        blocks = data.class_blocks()
        assert len(blocks) == 5
        for cls, block in enumerate(blocks):  # each class's rows, in file order
            np.testing.assert_array_equal(block, data.features[data.labels == cls])

    @pytest.mark.parametrize("labels, first_empty", [
        ([0, 2, 5], 1), ([0, 1, 1], 2), ([1, 1, 2], 0), ([0, 1, 2], 3)])
    def test_first_empty_class_is_named(self, labels, first_empty):
        data = MnpcDataset(np.zeros((3, 1)), labels, 6)
        with pytest.raises(ValueError, match=f"class {first_empty} has no samples"):
            data.class_blocks()


class TestCsvLoader:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("class,f1,f2\n0,1.0,2.0\n1,3.0,4.0\n")
        d = load_csv_dataset(path)
        assert d.num_classes == 2
        np.testing.assert_array_equal(d.features, [[1.0, 2.0], [3.0, 4.0]])


class TestMnpc:
    def setup_method(self):
        self.data = generate_synthetic_mnpc(7, 3, 5, 10, 0.5)

    def test_zero_weights_values(self):
        # All margins are zero, every sigmoid is 0.5; two cross terms per class.
        r = np.array([0.1, 0.2])
        p = build_mnpc(self.data, reg_lambda=1.0, thresholds=r)
        x = np.zeros(p.dim)
        assert p.f(x) == pytest.approx(0.5 * 2)
        np.testing.assert_allclose(p.g(x), 0.5 * 2 - r, atol=1e-15)

    @pytest.mark.parametrize("reg_lambda", [np.inf, np.nan, -1.0])
    def test_reg_lambda_must_be_finite_and_nonnegative(self, reg_lambda):
        with pytest.raises(ValueError, match="reg_lambda must be finite and nonnegative"):
            build_mnpc(self.data, reg_lambda, [0.1, 0.1])


def net_reference(x, samples, cls, num_classes, hidden):
    """The net's loss and gradient on one class split, against an explicit
    one-hot target matrix."""
    w1, w2 = nn_budget._split_weights(x, samples.shape[1], hidden, num_classes)
    target = np.tile(np.eye(num_classes)[cls], (samples.shape[0], 1))
    h, o = nn_budget._forward(w1, w2, samples)
    diff = o - target
    n, k = target.shape
    d_z2 = (2.0 / (n * k)) * diff * o * (1.0 - o)
    d_z1 = d_z2 @ w2.T * h * (1.0 - h)
    grad = np.concatenate([(samples.T @ d_z1).ravel(), (h.T @ d_z2).ravel()])
    return float((diff * diff).mean()), grad


class TestNnBudget:
    def setup_method(self):
        self.data = generate_synthetic_mnpc(8, 3, 6, 8, 0.5)

    @pytest.mark.parametrize("num_classes", [2, 5, 9])
    def test_callbacks_equal_the_one_hot_reference(self, num_classes):
        # the builder subtracts 1.0 from the class's output column in place of
        # a one-hot target matrix; o - 0.0 == o, so every bit agrees
        data = generate_synthetic_mnpc(num_classes, num_classes, 3, 4, 0.5)
        budgets = 0.1 * np.arange(1, num_classes)
        p = build_nn_budget(data, 3, budgets)
        blocks = data.class_blocks()
        for x in np.random.default_rng(num_classes).standard_normal((3, p.dim)):
            losses, grads = zip(*(net_reference(x, block, cls, num_classes, 3)
                                  for cls, block in enumerate(blocks)))
            assert p.eval_f(x) == losses[0]
            np.testing.assert_array_equal(p.eval_grad_f(x), grads[0])
            np.testing.assert_array_equal(p.eval_g(x), np.array(losses[1:]) - budgets)
            np.testing.assert_array_equal(p.eval_jacobian(x), np.vstack(grads[1:]))

    def test_build_holds_no_class_by_class_array(self):
        # a C x C identity per class made a 1,500-class build take 1.5 s and
        # peak at 36 MiB; one such array is 18 MB
        num_classes = 1500
        data = MnpcDataset(np.random.default_rng(0).standard_normal((num_classes, 2)),
                           np.arange(num_classes), num_classes)
        tracemalloc.start()
        try:
            build_nn_budget(data, 2, np.ones(num_classes - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < num_classes * num_classes * 8

    def test_infinite_budgets_keep_dual_zero(self):
        p = build_nn_budget(self.data, hidden=4, budgets=[1e9, 1e9])
        cfg = GdpaConfig(alpha01=0.5, max_iters=300, eps_feas=1e-30, eps_stat=1e-30)
        res = solve(p, cfg, 0.1 * np.random.default_rng(0).standard_normal(p.dim))
        assert np.all(res.lambda_final == 0.0)
        assert all(rec.lambda_norm == 0.0 for rec in res.trace)

    def test_zero_weights_loss_is_quarter(self):
        p = build_nn_budget(self.data, hidden=4, budgets=[1.0, 1.0])
        x = np.zeros(p.dim)
        assert p.f(x) == pytest.approx(0.25)
        np.testing.assert_allclose(p.g(x), 0.25 - 1.0, atol=1e-15)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("kind", ["mnpc", "nn"])
def test_each_constraint_row_belongs_to_its_class(kind, m):
    # at zero weights every class has the same loss, so a permuted row passes
    # the value tests above; at random weights it does not
    data = generate_synthetic_mnpc(11, m + 1, 4, 6, 0.5)
    blocks = data.class_blocks()
    bounds = 0.1 * np.arange(1, m + 1)
    if kind == "mnpc":
        reg = 0.3
        p = build_mnpc(data, reg, bounds)

        def expected(x, j):
            loss, grad = mnpc._class_loss_and_grad(x.reshape(m + 1, data.d_in), blocks[j], j)
            return loss, grad.ravel()
    else:
        reg = 0.0  # the net has no regularizer
        p = build_nn_budget(data, 3, bounds)

        def expected(x, j):
            return net_reference(x, blocks[j], j, m + 1, 3)
    x = np.random.default_rng(m).standard_normal(p.dim)
    losses, grads = zip(*(expected(x, j) for j in range(m + 1)))
    assert len(set(losses)) == m + 1
    g, jac = p.eval_g(x), p.eval_jacobian(x)
    for j in range(m):
        assert g[j] == losses[j + 1] - bounds[j]
        np.testing.assert_array_equal(jac[j], grads[j + 1])
    assert p.eval_f(x) == 0.5 * reg * float(x @ x) + losses[0]
    np.testing.assert_array_equal(p.eval_grad_f(x), reg * x + grads[0])


# (problem, check points) for each bundled family; finite differences use h = 1e-6
_GRADIENT_CASES = {
    **{aid: (lambda aid=aid: build_analytic(aid).problem, 20, 1) for aid in ANALYTIC_IDS},
    # far from the data's influence the regularizer dominates grad f
    "mnpc-regularizer": (lambda: build_mnpc(generate_synthetic_mnpc(7, 3, 5, 10, 0.5), 0.7,
                                            [10.0, 10.0]), None, None),
    "mnpc": (lambda: build_mnpc(generate_synthetic_mnpc(7, 3, 5, 10, 0.5), 1.0, [0.6, 0.6]),
             10, 5),
    "nn": (lambda: build_nn_budget(generate_synthetic_mnpc(8, 3, 6, 8, 0.5), hidden=4,
                                   budgets=[0.3, 0.3]), 10, 6),
    "cmdp": (lambda: build_cmdp(random_cmdp(9, 10, 4, 2, 0.9, thresholds=[0.3, 0.3])), 10, 7),
}


@pytest.mark.parametrize("case", list(_GRADIENT_CASES))
def test_bundled_gradients_match_finite_differences(case):
    build, count, seed = _GRADIENT_CASES[case]
    p = build()
    points = ([np.full(p.dim, 0.3)] if count is None
              else seeded_check_points(p, count, seed))
    assert check_gradients(p, points, h=1e-6).passed(1e-5)


class TestCmdp:
    def test_hand_solved_two_state_value(self):
        # P[0,0]->s0, P[0,1]->s1, P[1,0]->(.5,.5), P[1,1]->s1; R only at (0,0);
        # uniform policy, discount 0.5: v = (5/7, 1/7) by solving the 2x2 system.
        p = np.array([
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [0.0, 1.0]],
        ])
        rewards = np.array([[1.0, 0.0], [0.0, 0.0]])
        model = TabularCmdp(p, rewards, np.zeros((0, 2, 2)), 0.5, np.zeros(0))
        policy = np.full((2, 2), 0.5)
        v, q, _ = policy_evaluation(model, policy, rewards)
        np.testing.assert_allclose(v, [5.0 / 7.0, 1.0 / 7.0], atol=1e-12)
        np.testing.assert_allclose(q[0, 0], 1.0 + 0.5 * 5.0 / 7.0, atol=1e-12)

    def test_bellman_residual(self):
        model = random_cmdp(11, 6, 3, 1, 0.9, thresholds=[0.2])
        theta = np.random.default_rng(1).standard_normal(18)
        policy = softmax_policy(theta, 6, 3)
        v, _, p_pi = policy_evaluation(model, policy, model.rewards)
        r_pi = (policy * model.rewards).sum(axis=1)
        residual = v - (r_pi + model.discount * p_pi @ v)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_softmax_rows_sum_to_one(self):
        theta = np.random.default_rng(2).standard_normal(40) * 50.0
        policy = softmax_policy(theta, 10, 4)
        np.testing.assert_allclose(policy.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(policy >= 0)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_batched_oracles_match_per_table_reference(self, m, monkeypatch):
        # Each oracle evaluates all of its reward tables in one pass; the
        # reference evaluates one table at a time with policy_evaluation and
        # the occupancy measure (1 - discount) (I - discount P_pi^T)^-1 rho.
        s, a, discount = 12, 5, 0.9
        model = random_cmdp(30 + m, s, a, m, discount, thresholds=np.full(m, 0.4))
        problem = build_cmdp(model)
        theta = 2.0 * np.random.default_rng(m).standard_normal(s * a)
        policy = softmax_policy(theta, s, a)
        rho = np.full(s, 1.0 / s)

        def reference(table):
            v, q, p_pi = policy_evaluation(model, policy, table)
            d = (1.0 - discount) * np.linalg.solve(np.eye(s) - discount * p_pi.T, rho)
            grad = (d[:, None] * policy * (q - v[:, None])).ravel()
            return (1.0 - discount) * float(rho @ v), grad

        value, grad = reference(model.rewards)
        refs = [reference(table) for table in model.constraint_rewards]
        assert abs(problem.eval_f(theta) + value) <= 1e-12
        np.testing.assert_allclose(problem.eval_grad_f(theta), -grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(problem.eval_g(theta),
                                   [t - v for t, (v, _) in zip(model.thresholds, refs)],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(problem.eval_jacobian(theta),
                                   np.reshape([-g for _, g in refs], (m, s * a)),
                                   rtol=0, atol=1e-12)
        # the fused oracle's one pass over all 1 + m tables gives the same four
        fused = problem.eval_first_order(theta)
        separate = (problem.eval_f(theta), problem.eval_g(theta), problem.eval_grad_f(theta),
                    problem.eval_jacobian(theta))
        assert len(fused) == 4 and isinstance(fused[0], float)
        for got, want in zip(fused, separate):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # without numpy's bundled LAPACK the occupancy takes a solve of its own: f and g
        # keep their bits, grad f and J move in the last bits
        monkeypatch.setattr(vec, "_lapack", lambda: None)
        for fast, slow in ((fused, problem.eval_first_order(theta)),
                           (separate, (problem.eval_f(theta), problem.eval_g(theta),
                                       problem.eval_grad_f(theta), problem.eval_jacobian(theta)))):
            assert fast[0] == slow[0] and np.array_equal(fast[1], slow[1])
            for got, want in zip(fast[2:], slow[2:]):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_gamma_near_zero_reduces_to_immediate_reward(self):
        model = random_cmdp(12, 4, 3, 1, 1e-9, thresholds=[0.0])
        theta = np.random.default_rng(3).standard_normal(12)
        policy = softmax_policy(theta, 4, 3)
        value = discounted_return(model, theta, model.rewards)
        immediate = float(np.mean((policy * model.rewards).sum(axis=1)))
        assert value == pytest.approx(immediate, abs=1e-7)

    @pytest.mark.parametrize("field, index, says", [
        ("transitions", (0, 1, 0), "must sum to 1"),
        ("rewards", (1, 0), "rewards must be finite"),
        ("constraint_rewards", (0, 1, 1), "constraint_rewards must be finite"),
        ("thresholds", (0,), "thresholds must be finite"),
    ], ids=["transitions", "rewards", "constraint_rewards", "thresholds"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, field, index, says, bad):
        # a NaN transition row passed the row-sum test (NaN > tol is False)
        model = random_cmdp(1, 2, 2, 1, 0.9)
        arrays = {name: getattr(model, name).copy()
                  for name in ("transitions", "rewards", "constraint_rewards", "thresholds")}
        arrays[field][index] = bad
        with pytest.raises(ValueError, match=says):
            TabularCmdp(arrays["transitions"], arrays["rewards"],
                        arrays["constraint_rewards"], 0.9, arrays["thresholds"])


HALVES = np.full((2, 2, 2), 0.5)  # a valid 2-state, 2-action transition tensor


def _without_class(seed, label, into):
    data = generate_synthetic_mnpc(seed, 3, 6, 8, 0.5)
    data.labels[data.labels == label] = into
    return data


def _csv(text):
    def load(path):
        path.write_text(text)
        return load_csv_dataset(path)
    return load


@pytest.mark.parametrize("build, error, says", [
    (lambda _: TabularCmdp(np.full((2, 2, 3), 1 / 3), np.zeros((2, 2)), np.zeros((0, 2, 2)),
                           0.9), ValueError, "transitions must have shape (S, A, S)"),
    (lambda _: TabularCmdp(HALVES, np.zeros((2, 2)), np.zeros((1, 2, 3)), 0.9, np.zeros(1)),
     ValueError, "constraint_rewards must have shape (m, S, A)"),
    (lambda _: TabularCmdp(np.array([[[1.5, -0.5]] * 2] * 2), np.zeros((2, 2)),
                           np.zeros((0, 2, 2)), 0.9), ValueError,
     "transition probabilities must be nonnegative"),
    (lambda _: TabularCmdp(HALVES, np.zeros((2, 2)), np.zeros((1, 2, 2)), 0.9, np.zeros(2)),
     ValueError, "thresholds must have one entry per constraint reward"),
    (lambda _: MnpcDataset(np.zeros(3), np.zeros(3), 2), DatasetError,
     "features must be a 2-d array"),
    (lambda _: MnpcDataset(np.zeros((3, 1)), [0, 1], 2), DatasetError,
     "labels must align with feature rows"),
    (lambda _: MnpcDataset(np.zeros((2, 1)), [0, 0], 1), DatasetError,
     "need at least two classes"),
    (lambda _: MnpcDataset(np.zeros((2, 1)), [0, 2], 2), DatasetError,
     "class ids out of range"),
    (lambda _: generate_synthetic_mnpc(0, 2, 0, 5, 0.5), DatasetError,
     "num_classes >= 2, d_in >= 1, per_class >= 1 required"),
    (_csv(""), DatasetError, "{}: empty file (missing header)"),
    (_csv("class,f1\n0\n"), DatasetError,
     "{}: line 2: need a class id and at least one feature"),
    (_csv("class,f1\n-1,0.5\n0,0.2\n"), DatasetError, "{}: negative class id"),
    (lambda _: build_nn_budget(generate_synthetic_mnpc(0, 2, 2, 3, 0.5), 0, [1.0]),
     ValueError, "hidden must be positive"),
    (lambda _: build_analytic("nope"), ValueError, "unknown analytic instance 'nope'; choose "
     "one of ('scaled-1d', 'halfspace-quadratic', 'circle-exterior')"),
    (lambda _: build_mnpc(generate_synthetic_mnpc(7, 3, 5, 10, 0.5), 1.0, [0.1]),
     vec.DimensionMismatchError, "thresholds must have length 2"),
    (lambda _: TabularCmdp(np.ones((2, 2, 2)), np.zeros((2, 2)), np.zeros((0, 2, 2)), 0.9),
     ValueError, "each transitions[s, a, :] must sum to 1"),
    (lambda _: TabularCmdp(HALVES, np.zeros((2, 2)), np.zeros((0, 2, 2)), 1.0), ValueError,
     "discount must lie strictly between 0 and 1"),
    (_csv("class,f1,f2\n0,1.0,2.0\n1,3.0\n"), DatasetError,
     "{}: line 3: expected 2 features, got 1"),
    (_csv("class,f1\n"), DatasetError, "{}: no data rows after the header"),
    (_csv("class,f1\n0,abc\n"), DatasetError,
     "{}: line 2: could not convert string to float: 'abc'"),
    (_csv("class,f1\n0,1.0\n1,nan\n"), DatasetError, "features must be finite"),
    (load_csv_dataset, DatasetError, "dataset file not found: {}"),
    (lambda _: build_mnpc(_without_class(7, 2, 1), 1.0, [0.1, 0.1]), ValueError,
     "class 2 has no samples"),
    (lambda _: build_nn_budget(_without_class(8, 1, 2), hidden=4, budgets=[1.0, 1.0]),
     ValueError, "class 1 has no samples"),
], ids=["cmdp-transitions-shape", "cmdp-constraint-shape", "cmdp-negative-probability",
        "cmdp-threshold-length", "mnpc-1d-features", "mnpc-misaligned-labels",
        "mnpc-one-class", "mnpc-class-id-out-of-range", "synthetic-d_in-0", "csv-empty-file",
        "csv-one-column", "csv-negative-class", "nn-hidden-0", "analytic-unknown-id",
        "mnpc-threshold-length", "cmdp-row-sum", "cmdp-discount", "csv-ragged-row",
        "csv-header-only", "csv-non-numeric", "csv-non-finite", "csv-missing-file",
        "mnpc-empty-class", "nn-empty-class"])
def test_bad_problem_data_is_refused(tmp_path, build, error, says):
    path = tmp_path / "data.csv"
    with pytest.raises(error) as exc:
        build(path)
    assert exc.type is error and str(exc.value) == says.format(path)
