"""Optimization core: GAE, clipped objectives, KL control, exact gradients."""

import math
import os
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    ACTION_NAMES,
    N_FEATURES,
    PpoConfig,
    ToyPolicy,
    Trajectory,
    adaptive_kl_update,
    compute_gae,
    generate_toy_tasks,
    kl_divergence,
    ppo_objective,
    softmax,
    train_ppo_demo,
    value_loss,
)
from flsolve.ppo import _mean, _normalized, _PreparedBatch, ppo_gradients

import oracles


def make_traj(rewards, values, logprobs=None) -> Trajectory:
    steps = len(rewards)
    if logprobs is None:
        logprobs = np.full(steps, math.log(0.5))
    return Trajectory(
        tokens=np.zeros(steps, dtype=int),
        state_features=np.zeros((steps, 3)),
        logprobs_policy=logprobs,
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
        ],
    )
    def test_ppo_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            PpoConfig(**kwargs)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("beta", math.nan),
            ("beta", math.inf),
            ("kl_target", math.nan),
            ("kl_target", math.inf),
            ("clip_range", math.nan),
            ("clip_range_value", math.nan),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("learning_rate", -math.inf),
        ],
    )
    def test_non_finite_float_fields_are_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            PpoConfig(**{name: value})

    @pytest.mark.parametrize("name", ["gamma", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_gamma_and_lam_are_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be in"):
            PpoConfig(**{name: value})

    @pytest.mark.parametrize("name", ["epochs", "kl_horizon"])
    @pytest.mark.parametrize("value", [2.5, 4.0, "4", None, True, False])
    def test_count_fields_reject_non_integers_by_name(self, name, value):
        # 2.5 epochs would otherwise fail only inside training, in range().
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            PpoConfig(**{name: value})
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            replace(PpoConfig(), **{name: value})

    FLOAT_FIELDS = ["beta", "kl_target", "clip_range", "clip_range_value", "learning_rate", "gamma", "lam"]

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", ["x", None, True, 1j])
    def test_float_fields_reject_non_numbers_by_name(self, name, value):
        # The range checks would otherwise raise TypeError, without the field's name.
        with pytest.raises(ValueError, match=rf"^{name} must be a number, got {value!r}$"):
            PpoConfig(**{name: value})
        with pytest.raises(ValueError, match=rf"^{name} must be a number"):
            replace(PpoConfig(), **{name: value})

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), 10**5000, Fraction(10**400, 3)], ids=["401", "-401", "5001", "fraction"]
    )
    def test_numbers_past_float_range_are_not_finite(self, name, value):
        # An int past CPython's 4300-digit str limit must not break the message.
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got a number past float range$"):
            PpoConfig(**{name: value})

    def test_float_fields_are_stored_as_floats(self):
        # A Fraction learning rate or beta would otherwise fail inside the float64 update.
        cfg = PpoConfig(
            beta=Fraction(3, 100), kl_target=6, learning_rate=Fraction(1, 10), gamma=1, lam=Fraction(1, 2)
        )
        assert [type(getattr(cfg, name)) for name in self.FLOAT_FIELDS] == [float] * 7
        assert (cfg.beta, cfg.kl_target, cfg.learning_rate, cfg.gamma, cfg.lam) == (0.03, 6.0, 0.1, 1.0, 0.5)
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        assert len(train_ppo_demo(policy, generate_toy_tasks(0, 4), ppo_cfg=cfg, iterations=2)) == 2

    def test_learning_rate_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^learning_rate must be non-negative"):
            PpoConfig(learning_rate=-1.0)
        assert PpoConfig(learning_rate=0.0).learning_rate == 0.0


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
        assert obj.mean_kl == 0.0
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
        # The mean KL behind the penalty, bit for bit.
        assert with_kl.mean_kl == float(np.mean(kl_divergence(ref_dists, new_dists)))
        assert with_kl.kl_penalty == cfg.beta * with_kl.mean_kl

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


    @settings(max_examples=300, deadline=None)
    @given(
        beta=st.floats(0.0, 10.0),
        kl_target=st.floats(1e-6, 1e6),
        kl_horizon=st.integers(1, 10**6),
        batch_size=st.integers(1, 10**6),
        observed=st.floats(),
        edge=st.sampled_from(
            [None, 0.8, 1.2, math.nextafter(0.8, 0.0), math.nextafter(1.2, 2.0), 1.0]
        ),
        as_numpy=st.booleans(),
    )
    @example(0.03, 5.0, 10_000, 100, 6.0, None, False)  # error exactly 0.2
    @example(0.03, 5.0, 10_000, 100, 4.0, None, True)  # error exactly -0.2
    @example(0.03, 6.0, 10_000, 100, math.nan, None, True)
    @example(0.03, 6.0, 10_000, 100, -math.inf, None, False)
    def test_matches_np_clip_bit_for_bit(
        self, beta, kl_target, kl_horizon, batch_size, observed, edge, as_numpy
    ):
        # ``edge`` puts the observed KL at that multiple of the target, on
        # or next to the saturation bounds.
        kl = observed if edge is None else edge * kl_target
        kl = np.float64(kl) if as_numpy else kl
        cfg = PpoConfig(kl_target=kl_target, kl_horizon=kl_horizon)
        error = float(np.clip((kl - cfg.kl_target) / cfg.kl_target, -0.2, 0.2))
        expected = float(beta * max(1.0 + error * batch_size / cfg.kl_horizon, 1e-6))
        updated = adaptive_kl_update(beta, kl, cfg, batch_size)
        assert type(updated) is float
        assert (math.isnan(updated) and math.isnan(expected)) or bits(updated) == bits(expected)


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

    def test_save_writes_the_path_it_is_given(self, tmp_path):
        policy = ToyPolicy(np.arange(6.0).reshape(2, 3), np.ones(3))
        path = str(tmp_path / "weights")
        policy.save(path)
        assert os.listdir(tmp_path) == ["weights"]  # no ".npz" added
        loaded = ToyPolicy.load(path)
        assert np.array_equal(loaded.weights, policy.weights)
        assert np.array_equal(loaded.value_weights, policy.value_weights)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ToyPolicy(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            ToyPolicy(np.zeros((3, 4)), np.zeros(3))


class TestPpoGradients:
    """``ppo_gradients`` is the step training applies; the losses are the spec."""

    def test_matches_central_differences_of_the_losses(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            case = oracles.random_ppo_case(rng)
            for step, fd in zip(ppo_gradients(*case), oracles.central_fd_ppo_gradients(*case)):
                np.testing.assert_allclose(step, fd, rtol=0, atol=1e-6 * np.abs(fd).max())


def bits(*arrays) -> list[bytes]:
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def step_or_error(step, *args):
    try:
        return bits(*step(*args))
    except ValueError as exc:
        return str(exc)


class TestPreparedBatch:
    """An update prepares its batch once; every epoch and the stats after them
    match the step and the losses computed afresh per call."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        clip_range=st.sampled_from([0.2, math.inf]),
        clip_range_value=st.sampled_from([0.2, math.inf]),
        anchor_poison=st.lists(
            st.tuples(st.integers(0, 10), st.sampled_from([np.nan, np.inf, -np.inf])), max_size=2
        ),
        weight_poison=st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 5),
                st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]),
            ),
            max_size=2,
        ),
        epochs=st.integers(1, 4),
    )
    def test_epochs_and_stats_match_the_reference(
        self, seed, clip_range, clip_range_value, anchor_poison, weight_poison, epochs
    ):
        rng = np.random.default_rng(seed)
        batch, advantages, returns, policy, ref_probs, cfg = oracles.random_ppo_case(rng)
        cfg = replace(cfg, clip_range=clip_range, clip_range_value=clip_range_value)
        for index, value in anchor_poison:
            batch.logprobs_policy[index % batch.steps] = value
        for action, feature, value in weight_poison:
            policy.weights[action, feature] = value
        phi = batch.state_features
        with np.errstate(all="ignore"):
            prepared = _PreparedBatch(batch, cfg, policy.n_actions)
            for _ in range(epochs):
                args = (advantages, returns, policy, ref_probs)
                expected = step_or_error(oracles.reference_ppo_gradients, batch, *args, cfg)
                assert step_or_error(prepared.gradients, *args) == expected
                assert step_or_error(ppo_gradients, batch, *args, cfg) == expected
                if isinstance(expected, str):
                    assert expected == "log-probabilities must be finite"
                    return
                weights_step, value_step = prepared.gradients(*args)
                policy.weights += 0.5 * weights_step
                policy.value_weights -= 0.05 * value_step

            probs = softmax(phi @ policy.weights.T)
            new_logprobs = np.log(probs[np.arange(batch.steps), batch.tokens])
            stats = (
                lambda: astuple(oracles.reference_ppo_objective(
                    batch, advantages, new_logprobs, cfg, ref_dists=ref_probs, new_dists=probs
                )),
                lambda: astuple(prepared.objective(
                    advantages, prepared.logprobs(probs), ref_probs, probs
                )),
                lambda: astuple(ppo_objective(
                    batch, advantages, new_logprobs, cfg, ref_dists=ref_probs, new_dists=probs
                )),
            )
            expected = step_or_error(stats[0])
            assert [step_or_error(f) for f in stats[1:]] == [expected, expected]
            predicted = phi @ policy.value_weights
            expected = bits(oracles.reference_value_loss(batch, returns, predicted, cfg))
            assert bits(prepared.value_loss(returns, predicted)) == expected
            assert bits(value_loss(batch, returns, predicted, cfg)) == expected

    @pytest.mark.parametrize("clip_range, clip_range_value", [(0.2, 0.2), (1.0, 0.5)])
    def test_band_edges_match_the_reference(self, clip_range, clip_range_value):
        """Ratios exactly on ``1 ± clip_range`` and new values exactly on
        ``old ± clip_range_value``, with zeros of both signs at a zero band
        edge: where min/max and ``np.clip`` could part, on the sign of a
        zero. No band edge is -0.0: ``old ± clip_range_value`` is -0.0 for
        no ``old``, and ``1 - clip_range`` is +0.0 at ``clip_range = 1``,
        which a ratio ``exp(-800)`` (+0.0, never -0.0) lands on."""
        cfg = PpoConfig(clip_range=clip_range, clip_range_value=clip_range_value)
        low, high = 1.0 - clip_range, 1.0 + clip_range
        log_low = math.log(low) if low > 0 else -800.0
        log_ratios = np.array([math.log(high), log_low, 0.0, -800.0, math.log(high), log_low])
        assert np.exp(log_ratios)[:2].tolist() == [high, low]
        crv = clip_range_value
        old_values = np.array([0.3, 0.3, crv, -crv, -0.0, 0.0])
        edges = np.array([0.3 + crv, 0.3 - crv, crv - crv, -crv + crv, -0.0 - crv, 0.0 + crv])
        advantages = np.array([1.0, -1.0, -0.0, 0.0, -2.0, 2.0])
        returns = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -0.0])

        # The policy puts all its mass on action 0, so every new log-prob is
        # 0.0 and the ratio is exp(-anchor); the value head reads feature 1.
        policy = ToyPolicy(np.zeros((5, 2)), np.array([0.0, 1.0]))
        policy.weights[0, 0] = 1000.0
        batch = Trajectory(
            tokens=np.zeros(6, dtype=int),
            state_features=np.column_stack([np.ones(6), edges]),
            logprobs_policy=-log_ratios,
            rewards=np.zeros(6),
            values=np.append(old_values, 0.0),
        )
        prepared = _PreparedBatch(batch, cfg, policy.n_actions)
        probs = softmax(batch.state_features @ policy.weights.T)
        new_logprobs = prepared.logprobs(probs)
        predicted = batch.state_features @ policy.value_weights
        assert new_logprobs.tolist() == [0.0] * 6 and bits(predicted) == bits(edges + 0.0)
        ref_probs = probs.copy()

        for new_values in (predicted, np.array([0.5, -0.0, -0.0, 0.0, -0.0, 0.0])):
            assert bits(*prepared.value_errors(returns, new_values)) == bits(
                *oracles._reference_value_errors(batch, returns, new_values, cfg)
            )
            assert bits(prepared.value_loss(returns, new_values)) == bits(
                oracles.reference_value_loss(batch, returns, new_values, cfg)
            )
        assert bits(*prepared.surrogate_terms(advantages, new_logprobs)) == bits(
            *oracles._reference_surrogate_terms(batch, advantages, new_logprobs, cfg)
        )
        assert bits(*astuple(prepared.objective(advantages, new_logprobs, ref_probs, probs))) == (
            bits(*astuple(oracles.reference_ppo_objective(
                batch, advantages, new_logprobs, cfg, ref_dists=ref_probs, new_dists=probs
            )))
        )
        args = (advantages, returns, policy, ref_probs)
        assert bits(*prepared.gradients(*args)) == bits(
            *oracles.reference_ppo_gradients(batch, *args, cfg)
        )


class TestPreparedBatchBeta:
    @pytest.mark.parametrize("seed", range(5))
    def test_a_given_beta_acts_as_that_config_beta(self, seed):
        rng = np.random.default_rng(seed)
        batch, advantages, returns, policy, ref_probs, cfg = oracles.random_ppo_case(rng)
        beta = float(rng.uniform(0.0, 2.0))
        given = _PreparedBatch(batch, cfg, policy.n_actions, beta)
        configured = _PreparedBatch(batch, replace(cfg, beta=beta), policy.n_actions)
        assert given.beta == configured.beta == beta
        args = (advantages, returns, policy, ref_probs)
        assert bits(*given.gradients(*args)) == bits(*configured.gradients(*args))
        probs = softmax(batch.state_features @ policy.weights.T)
        new_logprobs = given.logprobs(probs)
        assert astuple(given.objective(advantages, new_logprobs, ref_probs, probs)) == astuple(
            configured.objective(advantages, new_logprobs, ref_probs, probs)
        )


# Normal values, zeros of both signs, subnormals, values near the float64
# limit, infinities and NaN, so a sum can round, overflow or turn NaN.
REDUCED_ELEMENTS = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(width=64),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan]
    ),
)
REDUCED_ARRAYS = st.lists(REDUCED_ELEMENTS, min_size=1, max_size=300).map(np.array)
REDUCED_EXAMPLES = [
    np.array([math.nan]),
    np.array([-0.0, -0.0]),
    np.array([1e308, 1e308, -1e308]),
    np.array([math.inf, -math.inf, 1.0]),
    np.array([5e-324] * 299 + [-math.nan]),
    np.linspace(-3.0, 7.0, 300) ** 3,
]


def with_examples(arrays):
    def decorate(test):
        for x in arrays:
            test = example(x=x)(test)
        return test

    return decorate


class TestReductionBits:
    """The update's reductions through their ufuncs give numpy's own bits,
    NaN and the sign of zero included."""

    @settings(max_examples=300, deadline=None)
    @given(x=REDUCED_ARRAYS)
    @with_examples(REDUCED_EXAMPLES)
    def test_mean_is_the_method_bit_for_bit(self, x):
        with np.errstate(all="ignore"):
            assert bits(_mean(x)) == bits(x.mean())

    @settings(max_examples=300, deadline=None)
    @given(x=REDUCED_ARRAYS)
    @with_examples(REDUCED_EXAMPLES)
    def test_normalized_is_the_method_form_bit_for_bit(self, x):
        with np.errstate(all="ignore"):
            assert bits(_normalized(x)) == bits((x - x.mean()) / (x.std() + 1e-8))

    @settings(max_examples=300, deadline=None)
    @given(x=REDUCED_ARRAYS)
    @with_examples(REDUCED_EXAMPLES)
    def test_old_finite_is_np_all_isfinite(self, x):
        n = len(x)
        prepared = _PreparedBatch(make_traj(np.zeros(n), np.zeros(n + 1), x), PpoConfig())
        assert prepared.old_finite is bool(np.all(np.isfinite(x)))
