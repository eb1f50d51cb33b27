"""Policy-optimization core on plain numpy.

Implements generalized advantage estimation, the clipped and KL-penalized
policy objective, the clipped value loss, an adaptive KL-coefficient
controller, and a small linear-softmax policy with analytic gradients. All
math is float64 on dense arrays; trajectories here are short action
sequences, not language-model token streams.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .values import _brief_repr


@dataclass(frozen=True)
class PpoConfig:
    """Optimization hyperparameters.

    Defaults follow the published fine-tuning recipe; note the learning rate
    is sized for a large language model and is far too small for the toy
    linear policy (the demo passes its own).

    The importance ratio is taken against the behaviour policy's log-probs
    recorded at sampling time (the standard proximal update, refreshed every
    batch); the KL penalty targets the frozen reference. Set ``beta = 0`` to
    disable the KL penalty and ``clip_range = math.inf`` to disable ratio
    clipping.
    """

    beta: float = 0.03
    kl_target: float = 6.0
    kl_horizon: int = 10_000
    clip_range: float = 0.2
    clip_range_value: float = 0.2
    epochs: int = 4
    learning_rate: float = 1.41e-6
    gamma: float = 0.99
    lam: float = 0.95

    def __post_init__(self) -> None:
        for name in ("epochs", "kl_horizon"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {_brief_repr(value)}")
        for name in ("beta", "kl_target", "clip_range", "clip_range_value", "learning_rate", "gamma", "lam"):
            value, clip = getattr(self, name), name.startswith("clip")
            if type(value) is bool or not isinstance(value, (float, numbers.Real)):  # float: fast path
                raise ValueError(f"{name} must be a number, got {_brief_repr(value)}")
            try:  # the math is float64; an int past float range may have no repr either
                value = float(value)
            except OverflowError:
                raise ValueError(f"{name} must be finite, got a number past float range") from None
            object.__setattr__(self, name, value)
            # gamma and lam have a range check below; inf is a clip range's "no clipping".
            if name not in ("gamma", "lam") and (math.isnan(value) or (math.isinf(value) and not clip)):
                raise ValueError(f"{name} must be finite{' or inf' if clip else ''}, got {value!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.kl_target <= 0:
            raise ValueError("kl_target must be positive")
        if self.kl_horizon <= 0:
            raise ValueError("kl_horizon must be positive")
        if self.clip_range <= 0 or self.clip_range_value <= 0:
            raise ValueError("clip ranges must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if not 0 < self.lam <= 1:
            raise ValueError("lam must be in (0, 1]")


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _mean(x: np.ndarray) -> np.float64:
    """``x.mean()`` of a float64 array, bit for bit: the same pairwise sum
    over the whole array divided by its size, without the Python-level
    wrapper around them."""
    return np.add.reduce(x, axis=None) / x.size


def _normalized(x: np.ndarray) -> np.ndarray:
    """``(x - x.mean()) / (x.std() + 1e-8)`` of a float64 array, bit for bit,
    in the operations numpy's std runs: the mean, the squared deviations from
    it, their mean and its square root."""
    centered = x - _mean(x)
    return centered / (np.sqrt(_mean(centered * centered)) + 1e-8)


@dataclass
class Trajectory:
    """Steps t = 0..T, one per action: one episode, or a batch of episodes
    laid end to end, as ``train_ppo_demo`` passes them to the update.

    ``values`` carries one extra bootstrap entry V(s_{T+1}), zero for a
    terminal state. ``compute_gae`` reads the steps as one episode, so a
    batch takes its advantages per episode. ``tokens`` are action indices and
    ``logprobs_policy`` their log-probs under the policy that sampled them,
    the importance ratio's anchor.
    """

    tokens: np.ndarray
    state_features: np.ndarray
    logprobs_policy: np.ndarray
    rewards: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens)
        self.state_features = _as_float_array(self.state_features)
        self.logprobs_policy = _as_float_array(self.logprobs_policy)
        self.rewards = _as_float_array(self.rewards)
        self.values = _as_float_array(self.values)
        steps = len(self.tokens)
        if steps < 1:
            raise ValueError("a trajectory needs at least one step")
        for name in ("logprobs_policy", "rewards"):
            if len(getattr(self, name)) != steps:
                raise ValueError(f"{name} must have {steps} entries")
        if len(self.state_features) != steps:
            raise ValueError(f"state_features must have {steps} rows")
        if len(self.values) != steps + 1:
            raise ValueError("values must have one bootstrap entry beyond the steps")

    @property
    def steps(self) -> int:
        return len(self.tokens)


def compute_gae(traj: Trajectory, cfg: PpoConfig) -> np.ndarray:
    """Generalized advantage estimates, one per step.

    Computed by the backward recursion A_t = delta_t + gamma*lam*A_{t+1}
    with delta_t = r_t + gamma*V(s_{t+1}) - V(s_t), which equals the
    forward discounted sum of deltas.
    """
    return np.array(_gae(traj.rewards.tolist(), traj.values.tolist(), cfg), dtype=np.float64)


def _gae(rewards: list[float], values: list[float], cfg: PpoConfig) -> list[float]:
    """``compute_gae`` on plain floats; ``values`` has the bootstrap entry."""
    advantages = [0.0] * len(rewards)
    decay = cfg.gamma * cfg.lam
    carry = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + cfg.gamma * values[t + 1] - values[t]
        carry = delta + decay * carry
        advantages[t] = carry
    return advantages


@dataclass(frozen=True)
class PpoObjective:
    policy_loss: float
    kl_penalty: float
    clip_fraction: float
    mean_kl: float  # the mean KL behind kl_penalty, before beta scales it


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p || q) for strictly positive q; zero p entries drop out."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    safe_ratio = np.divide(p, q, out=np.ones_like(p), where=p > 0)
    return (p * np.log(safe_ratio)).sum(axis=-1)


class _PreparedBatch:
    """A batch and a config, with what no gradient step changes built once:
    row indices, whether the behaviour log-probs are all finite, the ratio's
    clip bounds, the value band ``old ± clip_range_value`` and, given
    ``n_actions``, the one-hot actions. The KL coefficient is ``beta``, by
    default ``cfg.beta``. Training prepares each iteration's batch once, with
    that iteration's adapted beta, and takes every epoch and the stats after
    them from it; ``ppo_gradients``, ``ppo_objective`` and ``value_loss``
    prepare the batch they are given.
    """

    __slots__ = (
        "batch", "cfg", "beta", "rows", "old_finite", "ratio_band", "value_band", "onehot"
    )

    def __init__(
        self,
        batch: Trajectory,
        cfg: PpoConfig,
        n_actions: int | None = None,
        beta: float | None = None,
    ):
        self.batch = batch
        self.cfg = cfg
        self.beta = cfg.beta if beta is None else beta
        self.rows = np.arange(batch.steps)
        self.old_finite = bool(np.logical_and.reduce(np.isfinite(batch.logprobs_policy), axis=None))
        self.ratio_band = (1.0 - cfg.clip_range, 1.0 + cfg.clip_range)
        old_values = batch.values[:-1]
        self.value_band = (old_values - cfg.clip_range_value, old_values + cfg.clip_range_value)
        self.onehot = None if n_actions is None else np.eye(n_actions)[batch.tokens]

    def logprobs(self, probs: np.ndarray) -> np.ndarray:
        """Log-probs of the batch's actions under per-step distributions ``probs``."""
        return np.log(probs[self.rows, self.batch.tokens])

    def surrogate_terms(self, advantages, new_logprobs) -> tuple:
        """The importance ratio against the behaviour log-probs, and the two
        branches of the clipped surrogate, ratio*A and clip(ratio)*A."""
        if not (self.old_finite and np.isfinite(new_logprobs).all()):
            raise ValueError("log-probabilities must be finite")
        ratio = np.exp(new_logprobs - self.batch.logprobs_policy)
        low, high = self.ratio_band
        clipped = np.minimum(np.maximum(ratio, low), high) * advantages
        return ratio, ratio * advantages, clipped

    def value_errors(self, returns, new_values) -> tuple:
        """Squared errors of the new values and of their copy clipped to the
        value band."""
        low, high = self.value_band
        banded = np.minimum(np.maximum(new_values, low), high)
        return (new_values - returns) ** 2, (banded - returns) ** 2

    def objective(self, advantages, new_logprobs, ref_dists=None, new_dists=None) -> PpoObjective:
        ratio, unclipped, clipped = self.surrogate_terms(advantages, new_logprobs)
        surrogate = float(_mean(np.minimum(unclipped, clipped)))
        clip_fraction = np.count_nonzero(np.abs(ratio - 1.0) > self.cfg.clip_range) / ratio.size
        mean_kl = kl_penalty = 0.0
        if ref_dists is not None and new_dists is not None:
            mean_kl = float(_mean(kl_divergence(ref_dists, new_dists)))
            kl_penalty = self.beta * mean_kl
        return PpoObjective(-(surrogate - kl_penalty), kl_penalty, clip_fraction, mean_kl)

    def value_loss(self, returns, new_values) -> float:
        raw, clipped = self.value_errors(returns, new_values)
        return float(_mean(np.maximum(raw, clipped)))

    def gradients(self, advantages, returns, policy: ToyPolicy, ref_probs) -> tuple:
        """``ppo_gradients`` on the prepared batch; needs ``onehot``."""
        phi = self.batch.state_features
        n = self.batch.steps
        probs = softmax(phi @ policy.weights.T)
        _, unclipped, clipped = self.surrogate_terms(advantages, self.logprobs(probs))
        coeff = np.where(unclipped <= clipped, unclipped, 0.0)
        grad_surrogate = ((self.onehot - probs) * coeff[:, None]).T @ phi / n
        grad_kl = (probs - ref_probs).T @ phi / n

        predicted = phi @ policy.value_weights
        raw, banded = self.value_errors(returns, predicted)
        grad_value = (2.0 * (predicted - returns) * (raw >= banded)) @ phi / n
        return grad_surrogate - self.beta * grad_kl, grad_value


def ppo_objective(
    traj: Trajectory,
    advantages: np.ndarray,
    new_logprobs: np.ndarray,
    cfg: PpoConfig,
    *,
    ref_dists: np.ndarray | None = None,
    new_dists: np.ndarray | None = None,
) -> PpoObjective:
    """Clipped-surrogate policy loss with a KL penalty toward the reference.

    ``policy_loss = -(surrogate - kl_penalty)`` where the surrogate averages
    min(ratio*A, clip(ratio)*A). The KL penalty is exact, computed over full
    action distributions when both are supplied, and zero otherwise.
    """
    return _PreparedBatch(traj, cfg).objective(
        _as_float_array(advantages), _as_float_array(new_logprobs), ref_dists, new_dists
    )


def value_loss(
    traj: Trajectory,
    returns: np.ndarray,
    new_values: np.ndarray,
    cfg: PpoConfig,
) -> float:
    """Clipped value loss: mean max of raw and clipped squared errors.

    New predictions are clipped to within ``clip_range_value`` of the values
    recorded at sampling time.
    """
    return _PreparedBatch(traj, cfg).value_loss(_as_float_array(returns), _as_float_array(new_values))


def ppo_gradients(
    batch: Trajectory,
    advantages: np.ndarray,
    returns: np.ndarray,
    policy: ToyPolicy,
    ref_probs: np.ndarray,
    cfg: PpoConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the losses for a linear-softmax ``policy``.

    Returns the ascent direction for ``policy.weights``, the gradient of
    ``-ppo_objective(...).policy_loss`` with the KL penalty against
    ``ref_probs``, and the descent direction for ``policy.value_weights``,
    the gradient of ``value_loss``. Where the branches of min() or max() tie,
    the gradient follows the unclipped one.
    """
    return _PreparedBatch(batch, cfg, policy.n_actions).gradients(
        advantages, returns, policy, ref_probs
    )


def adaptive_kl_update(beta: float, observed_kl: float, cfg: PpoConfig, batch_size: int) -> float:
    """Proportional controller nudging beta toward the KL target.

    The error is clipped to +/-20% so a single wild batch cannot swing the
    coefficient; the returned beta stays strictly positive.
    """
    error = min(max((observed_kl - cfg.kl_target) / cfg.kl_target, -0.2), 0.2)
    multiplier = 1.0 + error * batch_size / cfg.kl_horizon
    return float(beta * max(multiplier, 1e-6))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ToyPolicy:
    """Linear-softmax policy with a linear value head.

    ``weights`` maps feature vectors to action logits (actions x features);
    ``value_weights`` maps features to a scalar state value.
    """

    weights: np.ndarray
    value_weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.value_weights = np.asarray(self.value_weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-d array")
        if self.value_weights.shape != (self.weights.shape[1],):
            raise ValueError("value_weights must match the feature dimension")

    @classmethod
    def zeros(cls, n_actions: int, n_features: int) -> "ToyPolicy":
        return cls(np.zeros((n_actions, n_features)), np.zeros(n_features))

    @property
    def n_actions(self) -> int:
        return self.weights.shape[0]

    def logits(self, features: np.ndarray) -> np.ndarray:
        return self.weights @ np.asarray(features, dtype=np.float64)

    def action_probs(self, features: np.ndarray) -> np.ndarray:
        return softmax(self.logits(features))

    def logprob(self, features: np.ndarray, action: int) -> float:
        return float(np.log(self.action_probs(features)[action]))

    def value(self, features: np.ndarray) -> float:
        return float(self.value_weights @ np.asarray(features, dtype=np.float64))

    def copy(self) -> "ToyPolicy":
        return ToyPolicy(self.weights.copy(), self.value_weights.copy())

    def save(self, path: str) -> None:
        """Write the weights to ``path``; ``np.savez(path)`` would add ``.npz``."""
        with open(path, "wb") as file:
            np.savez(file, weights=self.weights, value_weights=self.value_weights)

    @classmethod
    def load(cls, path: str | BinaryIO) -> "ToyPolicy":
        with np.load(path) as data:
            return cls(data["weights"], data["value_weights"])

