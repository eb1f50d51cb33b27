"""Optimization core: GAE, clipped objectives, KL control, exact gradients."""

import math

import numpy as np
import pytest

from flsolve import (
    PpoConfig,
    ToyPolicy,
    Trajectory,
    adaptive_kl_update,
    compute_gae,
    kl_divergence,
    policy_logprob_and_grad,
    ppo_objective,
    softmax,
    value_loss,
)
from flsolve.ppo import ppo_gradients

import oracles


def make_traj(rewards, values, logprobs=None, ref_logprobs=None) -> Trajectory:
    steps = len(rewards)
    if logprobs is None:
        logprobs = np.full(steps, math.log(0.5))
    if ref_logprobs is None:
        ref_logprobs = np.array(logprobs, dtype=float)
    return Trajectory(
        tokens=np.zeros(steps, dtype=int),
        state_features=np.zeros((steps, 3)),
        logprobs_policy=logprobs,
        logprobs_ref=ref_logprobs,
        rewards=rewards,
        values=values,
    )


class TestConfigs:
    def test_ppo_defaults(self):
        cfg = PpoConfig()
        assert cfg.beta == 0.03
        assert cfg.kl_target == 6.0
        assert cfg.kl_horizon == 10_000
        assert cfg.clip_range == 0.2
        assert cfg.clip_range_value == 0.2
        assert cfg.epochs == 4
        assert cfg.learning_rate == 1.41e-6
        assert cfg.gamma == 0.99
        assert cfg.lam == 0.95
        assert cfg.ratio_anchor == "old"

    @pytest.mark.parametrize("kwargs", [{"gamma": 0.0}, {"gamma": 1.5}, {"lam": 0.0}, {"lam": 1.1}])
    def test_gae_config_rejects_out_of_range(self, kwargs):
        # GAE's gamma and lambda are PpoConfig fields, checked on construction.
        (name,) = kwargs
        with pytest.raises(ValueError, match=rf"{name} must be in \(0, 1\]"):
            PpoConfig(**{"gamma": 0.9, "lam": 0.9, **kwargs})

    def test_gae_config_accepts_boundaries(self):
        cfg = PpoConfig(gamma=1.0, lam=1.0)
        assert (cfg.gamma, cfg.lam) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -0.1},
            {"kl_target": 0.0},
            {"kl_horizon": 0},
            {"clip_range": 0.0},
            {"clip_range_value": -1.0},
            {"epochs": 0},
            {"gamma": 0.0},
            {"ratio_anchor": "frozen"},
        ],
    )
    def test_ppo_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            PpoConfig(**kwargs)


class TestTrajectory:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            make_traj(rewards=[], values=[0.0])
        with pytest.raises(ValueError):
            make_traj(rewards=[1.0, 2.0], values=[0.0, 0.0])  # missing bootstrap
        with pytest.raises(ValueError):
            Trajectory(
                tokens=[0, 1],
                state_features=np.zeros((2, 3)),
                logprobs_policy=[0.0],
                logprobs_ref=[0.0, 0.0],
                rewards=[1.0, 1.0],
                values=[0.0, 0.0, 0.0],
            )

    def test_steps_and_bootstrap(self):
        traj = make_traj(rewards=[1.0, 0.0, 2.0], values=[0.1, 0.2, 0.3, 0.0])
        assert traj.steps == 3
        assert traj.values.shape == (4,)


class TestComputeGae:
    def test_hand_case(self):
        traj = make_traj(rewards=[1.0, 0.0], values=[0.5, 0.2, 0.0])
        adv = compute_gae(traj, PpoConfig(gamma=0.5, lam=0.5))
        # delta_1 = 0 + 0.5*0 - 0.2 = -0.2
        # delta_0 = 1 + 0.5*0.2 - 0.5 = 0.6; A_0 = 0.6 + 0.25*(-0.2)
        assert adv == pytest.approx([0.55, -0.2], abs=1e-15)

    def test_single_step(self):
        traj = make_traj(rewards=[3.0], values=[1.0, 0.5])
        adv = compute_gae(traj, PpoConfig(gamma=0.9, lam=0.8))
        assert adv == pytest.approx([3.0 + 0.9 * 0.5 - 1.0])

    def test_gamma_lam_one_telescopes_to_monte_carlo(self):
        rng = np.random.default_rng(5)
        rewards = rng.normal(size=9)
        values = np.append(rng.normal(size=9), 0.0)
        traj = make_traj(rewards=rewards, values=values)
        adv = compute_gae(traj, PpoConfig(gamma=1.0, lam=1.0))
        suffix = np.cumsum(rewards[::-1])[::-1]
        assert adv == pytest.approx(suffix - values[:-1], abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            steps = int(rng.integers(1, 17))
            rewards = rng.normal(size=steps)
            values = rng.normal(size=steps + 1)
            traj = make_traj(rewards=rewards, values=values)
            gamma = float(rng.choice([0.5, 0.9, 0.95, 0.99, 1.0]))
            lam = float(rng.choice([0.5, 0.9, 0.95, 0.99, 1.0]))
            fast = compute_gae(traj, PpoConfig(gamma=gamma, lam=lam))
            slow = oracles.gae_direct(list(rewards), list(values), gamma, lam)
            assert np.abs(fast - np.array(slow)).max() <= 1e-12


class TestKlDivergence:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_case(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected)

    def test_zero_mass_terms_drop_out(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(math.log(2.0))

    def test_batched_rows(self):
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        q = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = kl_divergence(p, q)
        assert out.shape == (2,)
        assert out == pytest.approx([0.0, math.log(2.0)])

    def test_non_negative_on_random_distributions(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = softmax(rng.normal(size=6))
            q = softmax(rng.normal(size=6))
            assert kl_divergence(p, q) >= -1e-15


class TestPpoObjective:
    def test_unit_ratio_recovers_mean_advantage(self):
        traj = make_traj(rewards=[0.0, 0.0, 0.0], values=[0.0] * 4)
        adv = np.array([1.0, -2.0, 4.0])
        obj = ppo_objective(traj, adv, traj.logprobs_policy, PpoConfig())
        assert obj.policy_loss == pytest.approx(-adv.mean())
        assert obj.kl_penalty == 0.0
        assert obj.clip_fraction == 0.0

    def test_positive_advantage_is_clipped(self):
        traj = make_traj(rewards=[0.0], values=[0.0, 0.0], logprobs=[math.log(0.5)])
        obj = ppo_objective(traj, [2.0], [math.log(0.75)], PpoConfig())
        # ratio 1.5 clips to 1.2: min(1.5*2, 1.2*2) = 2.4
        assert obj.policy_loss == pytest.approx(-2.4)
        assert obj.clip_fraction == 1.0

    def test_negative_advantage_stays_pessimistic(self):
        traj = make_traj(rewards=[0.0], values=[0.0, 0.0], logprobs=[math.log(0.5)])
        obj = ppo_objective(traj, [-2.0], [math.log(0.75)], PpoConfig())
        # min(1.5*(-2), 1.2*(-2)) keeps the unclipped, worse value
        assert obj.policy_loss == pytest.approx(3.0)

    def test_ratio_anchor_selects_baseline(self):
        traj = make_traj(
            rewards=[0.0],
            values=[0.0, 0.0],
            logprobs=[math.log(0.5)],
            ref_logprobs=[math.log(0.25)],
        )
        new_logprobs = [math.log(0.25)]
        via_ref = ppo_objective(traj, [1.0], new_logprobs, PpoConfig(ratio_anchor="ref"))
        assert via_ref.policy_loss == pytest.approx(-1.0)  # ratio 1 against ref
        via_old = ppo_objective(traj, [1.0], new_logprobs, PpoConfig(ratio_anchor="old"))
        # ratio 0.5 against the behaviour policy, clipped to 0.8 but min picks 0.5
        assert via_old.policy_loss == pytest.approx(-0.5)

    def test_kl_penalty_added(self):
        traj = make_traj(rewards=[0.0, 0.0], values=[0.0] * 3)
        adv = np.array([1.0, 1.0])
        ref_dists = np.array([[0.5, 0.5], [0.5, 0.5]])
        new_dists = np.array([[0.25, 0.75], [0.5, 0.5]])
        cfg = PpoConfig(beta=0.5)
        plain = ppo_objective(traj, adv, traj.logprobs_policy, cfg)
        with_kl = ppo_objective(
            traj, adv, traj.logprobs_policy, cfg, ref_dists=ref_dists, new_dists=new_dists
        )
        expected_kl = 0.5 * float(np.mean(kl_divergence(ref_dists, new_dists)))
        assert with_kl.kl_penalty == pytest.approx(expected_kl)
        assert with_kl.policy_loss == pytest.approx(plain.policy_loss + expected_kl)

    def test_non_finite_logprobs_rejected(self):
        traj = make_traj(rewards=[0.0], values=[0.0, 0.0])
        with pytest.raises(ValueError):
            ppo_objective(traj, [1.0], [np.inf], PpoConfig())


class TestValueLoss:
    def test_raw_error_dominates_outside_band(self):
        traj = make_traj(rewards=[0.0], values=[0.0, 0.0])
        loss = value_loss(traj, returns=[0.0], new_values=[1.0], cfg=PpoConfig())
        assert loss == pytest.approx(1.0)  # max((1-0)^2, (0.2-0)^2)

    def test_clip_punishes_fast_moves_toward_target(self):
        traj = make_traj(rewards=[0.0], values=[0.0, 0.0])
        loss = value_loss(traj, returns=[1.0], new_values=[0.9], cfg=PpoConfig())
        # clipped prediction 0.2 keeps the old, larger error
        assert loss == pytest.approx(0.64)

    def test_zero_when_within_band_and_exact(self):
        traj = make_traj(rewards=[0.0], values=[0.0, 0.0])
        assert value_loss(traj, [0.1], [0.1], PpoConfig()) == pytest.approx(0.0)

    def test_mean_over_steps(self):
        traj = make_traj(rewards=[0.0, 0.0], values=[0.0, 0.0, 0.0])
        loss = value_loss(traj, [0.0, 0.0], [1.0, 0.0], PpoConfig())
        assert loss == pytest.approx(0.5)


class TestAdaptiveKl:
    def test_increase_above_target(self):
        cfg = PpoConfig()
        updated = adaptive_kl_update(0.03, observed_kl=12.0, cfg=cfg, batch_size=100)
        assert updated == pytest.approx(0.03 * (1 + 0.2 * 100 / 10_000))
        assert updated > 0.03

    def test_decrease_below_target(self):
        cfg = PpoConfig()
        updated = adaptive_kl_update(0.03, observed_kl=3.0, cfg=cfg, batch_size=100)
        assert updated == pytest.approx(0.03 * (1 - 0.2 * 100 / 10_000))
        assert updated < 0.03

    def test_on_target_is_a_fixed_point(self):
        cfg = PpoConfig()
        assert adaptive_kl_update(0.03, cfg.kl_target, cfg, 100) == pytest.approx(0.03)

    def test_error_saturates(self):
        cfg = PpoConfig()
        mild = adaptive_kl_update(0.03, 1.2 * cfg.kl_target + 1.0, cfg, 128)
        wild = adaptive_kl_update(0.03, 1e9, cfg, 128)
        assert mild == wild

    def test_stays_positive_under_extreme_shrink(self):
        cfg = PpoConfig(kl_horizon=1)
        updated = adaptive_kl_update(0.03, observed_kl=0.001, cfg=cfg, batch_size=10_000)
        assert updated > 0.0
        assert updated == pytest.approx(0.03 * 1e-6)


class TestSoftmax:
    def test_extreme_logits_stay_normalized(self):
        probs = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert probs[0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0])
        assert softmax(logits) == pytest.approx(softmax(logits + 123.0))

    def test_batched(self):
        out = softmax(np.zeros((4, 3)))
        assert out.shape == (4, 3)
        assert out == pytest.approx(np.full((4, 3), 1.0 / 3.0))


class TestToyPolicy:
    def test_zeros_is_uniform(self):
        policy = ToyPolicy.zeros(4, 6)
        phi = np.arange(6.0)
        assert policy.action_probs(phi) == pytest.approx(np.full(4, 0.25))
        assert policy.value(phi) == 0.0

    def test_logprob_consistency(self):
        rng = np.random.default_rng(0)
        policy = ToyPolicy(rng.normal(size=(5, 7)), rng.normal(size=7))
        phi = rng.normal(size=7)
        for action in range(5):
            assert policy.logprob(phi, action) == pytest.approx(
                math.log(policy.action_probs(phi)[action])
            )

    def test_copy_is_independent(self):
        policy = ToyPolicy.zeros(3, 4)
        clone = policy.copy()
        policy.weights[0, 0] = 5.0
        assert clone.weights[0, 0] == 0.0

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        policy = ToyPolicy(rng.normal(size=(5, 9)), rng.normal(size=9))
        path = str(tmp_path / "policy.npz")
        policy.save(path)
        loaded = ToyPolicy.load(path)
        assert np.array_equal(loaded.weights, policy.weights)
        assert np.array_equal(loaded.value_weights, policy.value_weights)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ToyPolicy(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            ToyPolicy(np.zeros((3, 4)), np.zeros(3))


class TestPolicyGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            policy = ToyPolicy(rng.normal(size=(5, 8)), np.zeros(8))
            phi = rng.normal(size=8)
            action = int(rng.integers(5))
            logprob, grad = policy_logprob_and_grad(policy, phi, action)
            assert logprob == pytest.approx(policy.logprob(phi, action))
            fd = oracles.central_fd_logprob_grad(policy, phi, action)
            scale = max(1.0, float(np.abs(fd).max()))
            worst = max(worst, float(np.abs(grad - fd).max()) / scale)
        assert worst <= 1e-5

    def test_gradient_columns_sum_to_zero(self):
        rng = np.random.default_rng(8)
        policy = ToyPolicy(rng.normal(size=(6, 5)), np.zeros(5))
        phi = rng.normal(size=5)
        _, grad = policy_logprob_and_grad(policy, phi, 2)
        assert grad.sum(axis=0) == pytest.approx(np.zeros(5), abs=1e-12)

    def test_input_validation(self):
        policy = ToyPolicy.zeros(3, 4)
        with pytest.raises(ValueError):
            policy_logprob_and_grad(policy, np.zeros(5), 0)
        with pytest.raises(ValueError):
            policy_logprob_and_grad(policy, np.zeros(4), 3)


class TestPpoGradients:
    """``ppo_gradients`` is the step training applies; the losses are the spec."""

    @staticmethod
    def random_case(rng, anchor):
        n, n_actions, n_features = int(rng.integers(1, 12)), 5, 6
        policy = ToyPolicy(rng.normal(size=(n_actions, n_features)), rng.normal(size=n_features))
        phi = rng.normal(size=(n, n_features))
        tokens = rng.integers(n_actions, size=n)
        rows = np.arange(n)

        def logprobs_under(weights):
            return np.log(softmax(phi @ weights.T)[rows, tokens])

        # Perturbations sized so that a third of the ratios and half of the
        # value predictions fall outside their clip bands.
        old = policy.weights + rng.normal(scale=0.1, size=policy.weights.shape)
        ref = policy.weights + rng.normal(scale=0.1, size=policy.weights.shape)
        old_values = phi @ policy.value_weights + rng.normal(scale=0.3, size=n)
        batch = Trajectory(
            tokens=tokens,
            state_features=phi,
            logprobs_policy=logprobs_under(old),
            logprobs_ref=logprobs_under(ref),
            rewards=rng.normal(size=n),
            values=np.append(old_values, 0.0),
        )
        cfg = PpoConfig(beta=float(rng.uniform(0.05, 1.0)), ratio_anchor=anchor)
        advantages = rng.normal(size=n)
        returns = old_values + rng.normal(scale=0.5, size=n)
        return policy, batch, advantages, returns, softmax(phi @ ref.T), cfg

    @pytest.mark.parametrize("anchor", ["old", "ref"])
    def test_matches_central_differences_of_the_losses(self, anchor):
        rng = np.random.default_rng(2024 if anchor == "old" else 2025)
        for _ in range(100):
            policy, batch, advantages, returns, ref_probs, cfg = self.random_case(rng, anchor)
            phi, rows = batch.state_features, np.arange(batch.steps)

            def objective(weights):
                probs = softmax(phi @ weights.T)
                new_logprobs = np.log(probs[rows, batch.tokens])
                loss = ppo_objective(
                    batch, advantages, new_logprobs, cfg, ref_dists=ref_probs, new_dists=probs
                ).policy_loss
                return -loss

            def vloss(value_weights):
                return value_loss(batch, returns, phi @ value_weights, cfg)

            weights_step, value_step = ppo_gradients(
                batch, advantages, returns, policy, ref_probs, cfg
            )
            for step, fd in (
                (weights_step, oracles.central_fd(objective, policy.weights)),
                (value_step, oracles.central_fd(vloss, policy.value_weights)),
            ):
                np.testing.assert_allclose(step, fd, rtol=0, atol=1e-6 * np.abs(fd).max())
