"""Policy-optimization core on plain numpy.

Implements generalized advantage estimation, the clipped and KL-penalized
policy objective, the clipped value loss, an adaptive KL-coefficient
controller, and a small linear-softmax policy with analytic gradients. All
math is float64 on dense arrays; trajectories here are short action
sequences, not language-model token streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np


@dataclass(frozen=True)
class PpoConfig:
    """Optimization hyperparameters.

    Defaults follow the published fine-tuning recipe; note the learning rate
    is sized for a large language model and is far too small for the toy
    linear policy (the demo passes its own).

    ``ratio_anchor`` selects the baseline for the importance ratio:
    ``"old"`` uses the behaviour policy's log-probs recorded at sampling
    time (the standard proximal update, refreshed every batch), ``"ref"``
    uses the frozen reference policy. The KL penalty always targets the
    reference. Set ``beta = 0`` to disable the KL penalty and
    ``clip_range = math.inf`` to disable ratio clipping.
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
    ratio_anchor: str = "old"

    def __post_init__(self) -> None:
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
        if self.ratio_anchor not in ("old", "ref"):
            raise ValueError("ratio_anchor must be 'old' or 'ref'")


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


@dataclass
class Trajectory:
    """One episode of T+1 steps (t = 0..T).

    ``values`` carries one extra bootstrap entry V(s_{T+1}), zero for a
    terminal state. ``tokens`` are action indices.
    """

    tokens: np.ndarray
    state_features: np.ndarray
    logprobs_policy: np.ndarray
    logprobs_ref: np.ndarray
    rewards: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens)
        self.state_features = _as_float_array(self.state_features)
        self.logprobs_policy = _as_float_array(self.logprobs_policy)
        self.logprobs_ref = _as_float_array(self.logprobs_ref)
        self.rewards = _as_float_array(self.rewards)
        self.values = _as_float_array(self.values)
        steps = len(self.tokens)
        if steps < 1:
            raise ValueError("a trajectory needs at least one step")
        for name in ("logprobs_policy", "logprobs_ref", "rewards"):
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


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p || q) for strictly positive q; zero p entries drop out."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    safe_ratio = np.divide(p, q, out=np.ones_like(p), where=p > 0)
    return (p * np.log(safe_ratio)).sum(axis=-1)


def _surrogate_terms(traj: Trajectory, advantages, new_logprobs, cfg: PpoConfig) -> tuple:
    """The importance ratio against the configured anchor, and the two
    branches of the clipped surrogate, ratio*A and clip(ratio)*A."""
    anchor = traj.logprobs_policy if cfg.ratio_anchor == "old" else traj.logprobs_ref
    if not (np.all(np.isfinite(new_logprobs)) and np.all(np.isfinite(anchor))):
        raise ValueError("log-probabilities must be finite")
    ratio = np.exp(new_logprobs - anchor)
    clipped = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * advantages
    return ratio, ratio * advantages, clipped


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
    ratio, unclipped, clipped = _surrogate_terms(
        traj, _as_float_array(advantages), _as_float_array(new_logprobs), cfg
    )
    surrogate = float(np.minimum(unclipped, clipped).mean())
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range))
    kl_penalty = 0.0
    if ref_dists is not None and new_dists is not None:
        kl_penalty = cfg.beta * float(np.mean(kl_divergence(ref_dists, new_dists)))
    return PpoObjective(-(surrogate - kl_penalty), kl_penalty, clip_fraction)


def _value_errors(traj: Trajectory, returns, new_values, cfg: PpoConfig) -> tuple:
    """Squared errors of the new values and of their copy clipped to within
    ``clip_range_value`` of the values recorded at sampling time."""
    old_values = traj.values[:-1]
    low, high = old_values - cfg.clip_range_value, old_values + cfg.clip_range_value
    return (new_values - returns) ** 2, (np.clip(new_values, low, high) - returns) ** 2


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
    raw, clipped = _value_errors(traj, _as_float_array(returns), _as_float_array(new_values), cfg)
    return float(np.maximum(raw, clipped).mean())


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
    phi = batch.state_features
    n = batch.steps
    probs = softmax(phi @ policy.weights.T)
    new_logprobs = np.log(probs[np.arange(n), batch.tokens])
    _, unclipped, clipped = _surrogate_terms(batch, advantages, new_logprobs, cfg)
    coeff = np.where(unclipped <= clipped, unclipped, 0.0)
    onehot = np.eye(policy.n_actions)[batch.tokens]
    grad_surrogate = ((onehot - probs) * coeff[:, None]).T @ phi / n
    grad_kl = (probs - ref_probs).T @ phi / n

    predicted = phi @ policy.value_weights
    raw, banded = _value_errors(batch, returns, predicted, cfg)
    grad_value = (2.0 * (predicted - returns) * (raw >= banded)) @ phi / n
    return grad_surrogate - cfg.beta * grad_kl, grad_value


def adaptive_kl_update(beta: float, observed_kl: float, cfg: PpoConfig, batch_size: int) -> float:
    """Proportional controller nudging beta toward the KL target.

    The error is clipped to +/-20% so a single wild batch cannot swing the
    coefficient; the returned beta stays strictly positive.
    """
    error = float(np.clip((observed_kl - cfg.kl_target) / cfg.kl_target, -0.2, 0.2))
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

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

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
        np.savez(path, weights=self.weights, value_weights=self.value_weights)

    @classmethod
    def load(cls, path: str | BinaryIO) -> "ToyPolicy":
        with np.load(path) as data:
            return cls(data["weights"], data["value_weights"])


def policy_logprob_and_grad(
    policy: ToyPolicy, state_features: np.ndarray, action: int
) -> tuple[float, np.ndarray]:
    """Log-probability of ``action`` and its exact gradient in the weights.

    For logits W @ phi the gradient of log softmax(W @ phi)[a] is
    (onehot(a) - softmax(W @ phi)) outer phi.
    """
    phi = np.asarray(state_features, dtype=np.float64)
    if phi.shape != (policy.n_features,):
        raise ValueError(f"expected {policy.n_features} features, got shape {phi.shape}")
    if not 0 <= action < policy.n_actions:
        raise ValueError(f"action {action} out of range")
    probs = policy.action_probs(phi)
    onehot = np.zeros(policy.n_actions)
    onehot[action] = 1.0
    return float(np.log(probs[action])), np.outer(onehot - probs, phi)
