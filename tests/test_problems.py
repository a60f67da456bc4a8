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

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            build_analytic("nope")

    def test_gradients(self):
        for aid in ANALYTIC_IDS:
            inst = build_analytic(aid)
            rep = check_gradients(inst.problem, seeded_check_points(inst.problem, 20, 1))
            assert rep.passed(1e-5), aid


class TestSyntheticDataset:
    def test_deterministic(self):
        a = generate_synthetic_mnpc(3, 3, 5, 10, 0.5)
        b = generate_synthetic_mnpc(3, 3, 5, 10, 0.5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_noise_collapses_to_means(self):
        d = generate_synthetic_mnpc(1, 2, 4, 5, 0.0)
        for cls in range(2):
            block = d.class_features(cls)
            assert np.allclose(block, block[0])
            np.testing.assert_allclose(np.linalg.norm(block[0]), 2.0, atol=1e-12)

    def test_counts(self):
        d = generate_synthetic_mnpc(2, 3, 7, 10, 0.1)
        assert d.features.shape == (30, 7)
        assert [int((d.labels == c).sum()) for c in range(3)] == [10, 10, 10]

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

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("class,f1,f2\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_csv_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("class,f1\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_csv_dataset(tmp_path / "absent.csv")

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("class,f1\n0,abc\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_csv_dataset(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("class,f1\n0,1.0\n1,nan\n")
        with pytest.raises(DatasetError, match="features must be finite"):
            load_csv_dataset(path)


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

    def test_regularizer_gradient(self):
        p = build_mnpc(self.data, reg_lambda=0.7, thresholds=[10.0, 10.0])
        # far from data influence: huge thresholds don't matter for grad f;
        # compare against reg part + sample part via finite differences instead
        rep = check_gradients(p, [np.full(p.dim, 0.3)], h=1e-6)
        assert rep.passed(1e-5)

    def test_gradcheck_synthetic(self):
        p = build_mnpc(self.data, reg_lambda=1.0, thresholds=[0.6, 0.6])
        rep = check_gradients(p, seeded_check_points(p, 10, 5), h=1e-6)
        assert rep.passed(1e-5)

    def test_empty_class_rejected(self):
        bad = generate_synthetic_mnpc(7, 3, 5, 10, 0.5)
        bad.labels[bad.labels == 2] = 1  # class 2 now empty
        with pytest.raises(ValueError, match="class 2"):
            build_mnpc(bad, 1.0, [0.1, 0.1])

    def test_threshold_length_checked(self):
        with pytest.raises(ValueError):
            build_mnpc(self.data, 1.0, [0.1])

    @pytest.mark.parametrize("reg_lambda", [np.inf, np.nan, -1.0])
    def test_reg_lambda_must_be_finite_and_nonnegative(self, reg_lambda):
        with pytest.raises(ValueError, match="reg_lambda must be finite and nonnegative"):
            build_mnpc(self.data, reg_lambda, [0.1, 0.1])


class TestNnBudget:
    def setup_method(self):
        self.data = generate_synthetic_mnpc(8, 3, 6, 8, 0.5)

    def test_zero_weights_loss_is_quarter(self):
        p = build_nn_budget(self.data, hidden=4, budgets=[1.0, 1.0])
        x = np.zeros(p.dim)
        assert p.f(x) == pytest.approx(0.25)
        np.testing.assert_allclose(p.g(x), 0.25 - 1.0, atol=1e-15)

    def test_gradcheck(self):
        p = build_nn_budget(self.data, hidden=4, budgets=[0.3, 0.3])
        rep = check_gradients(p, seeded_check_points(p, 10, 6), h=1e-6)
        assert rep.passed(1e-5)

    def test_empty_class_rejected(self):
        bad = generate_synthetic_mnpc(8, 3, 6, 8, 0.5)
        bad.labels[bad.labels == 1] = 2  # class 1 now empty
        with pytest.raises(ValueError, match="class 1 has no samples"):
            build_nn_budget(bad, hidden=4, budgets=[1.0, 1.0])

    def test_infinite_budgets_keep_dual_zero(self):
        p = build_nn_budget(self.data, hidden=4, budgets=[1e9, 1e9])
        cfg = GdpaConfig(alpha01=0.5, max_iters=300, eps_feas=1e-30, eps_stat=1e-30)
        res = solve(p, cfg, 0.1 * np.random.default_rng(0).standard_normal(p.dim))
        assert np.all(res.lambda_final == 0.0)
        assert all(rec.lambda_norm == 0.0 for rec in res.trace)


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
            weights = nn_budget._split_weights(x, data.d_in, 3, m + 1)
            target = np.tile(np.eye(m + 1)[j], (blocks[j].shape[0], 1))
            return (nn_budget._loss(*weights, blocks[j], target),
                    nn_budget._loss_grad(*weights, blocks[j], target))
    x = np.random.default_rng(m).standard_normal(p.dim)
    losses, grads = zip(*(expected(x, j) for j in range(m + 1)))
    assert len(set(losses)) == m + 1
    g, jac = p.eval_g(x), p.eval_jacobian(x)
    for j in range(m):
        assert g[j] == losses[j + 1] - bounds[j]
        np.testing.assert_array_equal(jac[j], grads[j + 1])
    assert p.eval_f(x) == 0.5 * reg * float(x @ x) + losses[0]
    np.testing.assert_array_equal(p.eval_grad_f(x), reg * x + grads[0])


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

    def test_gradcheck(self):
        model = random_cmdp(9, 10, 4, 2, 0.9, thresholds=[0.3, 0.3])
        problem = build_cmdp(model)
        rep = check_gradients(problem, seeded_check_points(problem, 10, 7), h=1e-6)
        assert rep.passed(1e-5)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_batched_oracles_match_per_table_reference(self, m):
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

    def test_gamma_near_zero_reduces_to_immediate_reward(self):
        model = random_cmdp(12, 4, 3, 1, 1e-9, thresholds=[0.0])
        theta = np.random.default_rng(3).standard_normal(12)
        policy = softmax_policy(theta, 4, 3)
        value = discounted_return(model, theta, model.rewards)
        immediate = float(np.mean((policy * model.rewards).sum(axis=1)))
        assert value == pytest.approx(immediate, abs=1e-7)

    def test_invalid_transitions_rejected(self):
        p = np.ones((2, 2, 2))  # rows sum to 2
        with pytest.raises(ValueError):
            TabularCmdp(p, np.zeros((2, 2)), np.zeros((0, 2, 2)), 0.9, np.zeros(0))

    def test_invalid_discount_rejected(self):
        model = random_cmdp(1, 2, 2, 0, 0.9)
        with pytest.raises(ValueError):
            TabularCmdp(model.transitions, model.rewards,
                        model.constraint_rewards, 1.0, model.thresholds)

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
