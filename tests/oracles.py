"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written on plain big-int pairs, python loops
and straightforward per-call recomputation, trading speed for obviousness.
The policy step, the reward scorer and the training loop are the package's
earlier, unoptimized versions, kept as the differential tests' references.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np

from flsolve import (
    BASIC_OPERATORS,
    DEFAULT_REWARD_CONFIG,
    RewardBreakdown,
    RewardConfig,
    RewardDiagnostics,
    ToyPolicy,
    basic_operation_counts,
    count_finds,
    evaluate,
    has_return,
)
from flsolve import toy
from flsolve.ppo import (
    Trajectory,
    adaptive_kl_update,
    compute_gae,
    kl_divergence,
    ppo_gradients,
    ppo_objective,
    softmax,
    value_loss,
)
from flsolve.toy import VALUE_LR_SCALE, IterationStats, PolicySession, state_feature_vector


def norm_pair(n: int, d: int) -> tuple[int, int]:
    if d == 0:
        raise ZeroDivisionError
    if d < 0:
        n, d = -n, -d
    g = math.gcd(n, d)
    return n // g, d // g


def pair_apply(op: str, operands: list[tuple[int, int]]):
    """Returns ("ok", (n, d)) or ("error", kind)."""
    if op in ("mod", "lcm", "gcd"):
        for n, d in operands:
            if d != 1:
                return ("error", "non-integer-operand")
    if op == "add":
        (a, b), (c, d) = operands
        return ("ok", norm_pair(a * d + c * b, b * d))
    if op == "subtract":
        (a, b), (c, d) = operands
        return ("ok", norm_pair(a * d - c * b, b * d))
    if op == "multiply":
        (a, b), (c, d) = operands
        return ("ok", norm_pair(a * c, b * d))
    if op == "divide":
        (a, b), (c, d) = operands
        if c == 0:
            return ("error", "division-by-zero")
        return ("ok", norm_pair(a * d, b * c))
    if op == "mod":
        (a, _), (c, _) = operands
        if c == 0:
            return ("error", "division-by-zero")
        return ("ok", (a % c, 1))
    if op == "lcm":
        (a, _), (c, _) = operands
        return ("ok", (abs(a * c) // math.gcd(a, c) if a and c else 0, 1))
    if op == "gcd":
        (a, _), (c, _) = operands
        return ("ok", (math.gcd(a, c), 1))
    if op == "round":
        (n, d) = operands[0]
        sign = -1 if n < 0 else 1
        q, r = divmod(abs(n), d)
        return ("ok", (sign * (q + (1 if 2 * r >= d else 0)), 1))
    if op == "floor":
        (n, d) = operands[0]
        return ("ok", (n // d, 1))
    raise ValueError(f"unexpected op {op}")


def pair_text(pair: tuple[int, int]) -> str:
    n, d = pair
    return str(n) if d == 1 else f"{n}/{d}"


BINARY_OPS = ("add", "subtract", "multiply", "divide", "mod", "lcm", "gcd")
UNARY_OPS = ("round", "floor")


def random_program(rng: random.Random, max_ops: int = 6):
    """A guaranteed-valid random program and its expected exact answer.

    Returns (source, (numerator, denominator)).
    """
    values: list[tuple[int, int]] = []
    lines: list[str] = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            pair = (rng.randint(-50, 50), 1)
        else:
            pair = norm_pair(rng.randint(-50, 50), rng.randint(1, 12))
        values.append(pair)
        lines.append(f"var{len(values)} = [find](quantity {len(values)}) # {pair_text(pair)}")
    for _ in range(rng.randint(1, max_ops)):
        for _attempt in range(20):
            op = rng.choice(BINARY_OPS + UNARY_OPS)
            arity = 1 if op in UNARY_OPS else 2
            picks = [rng.randrange(len(values)) for _ in range(arity)]
            outcome = pair_apply(op, [values[i] for i in picks])
            if outcome[0] == "ok":
                break
        else:
            continue
        values.append(outcome[1])
        args = ", ".join(f"var{i + 1}" for i in picks)
        lines.append(f"var{len(values)} = [{op}]({args})")
    result = values[-1]
    lines.append(f"[return](var{len(values)}) # {pair_text(result)}")
    return "\n".join(lines), result


def gae_direct(rewards, values, gamma: float, lam: float) -> list[float]:
    """Advantages as the literal discounted sum of one-step errors."""
    steps = len(rewards)
    deltas = [rewards[t] + gamma * values[t + 1] - values[t] for t in range(steps)]
    return [
        sum((gamma * lam) ** offset * deltas[t + offset] for offset in range(steps - t))
        for t in range(steps)
    ]


def central_fd_logprob_grad(
    policy: ToyPolicy, phi: np.ndarray, action: int, h: float = 1e-6
) -> np.ndarray:
    """Central finite differences of log pi(action | phi) in the weights."""
    grad = np.zeros_like(policy.weights)
    for i in range(policy.weights.shape[0]):
        for j in range(policy.weights.shape[1]):
            up = policy.weights.copy()
            up[i, j] += h
            down = policy.weights.copy()
            down[i, j] -= h
            grad[i, j] = (
                ToyPolicy(up, policy.value_weights).logprob(phi, action)
                - ToyPolicy(down, policy.value_weights).logprob(phi, action)
            ) / (2 * h)
    return grad


def central_fd(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the scalar ``f`` at the array ``x``."""
    grad = np.zeros_like(x)
    for index in np.ndindex(x.shape):
        up = x.copy()
        up[index] += h
        down = x.copy()
        down[index] -= h
        grad[index] = (f(up) - f(down)) / (2 * h)
    return grad


class ReferencePolicySession(PolicySession):
    """The policy step computed afresh at every step, with ``Generator.choice``.

    Reads the policy and reference through the session's step table but none
    of its cached rows.
    """

    def next_chunk(self, context: str) -> str:
        if self._pending is not None:
            chunk, self._pending = self._pending, None
            return chunk
        if self._done:
            return ""
        policy, ref = self.table.policy, self.table.ref
        phi = state_feature_vector(
            self.record.question, len(self.actions), self._finds, self._ops
        )
        probs = policy.action_probs(phi)
        self.prob_sum_err = max(self.prob_sum_err, abs(float(probs.sum()) - 1.0))
        if self.rng is None:
            action = int(np.argmax(probs))
        else:
            action = int(self.rng.choice(len(probs), p=probs))
        self.features.append(phi)
        self.actions.append(action)
        self.logprobs.append(float(np.log(probs[action])))
        self.ref_logprobs.append(ref.logprob(phi, action))
        self.values.append(policy.value(phi))
        return self._emit(action)


def _reference_r2(v_gen: int, v_gold: int, cfg: RewardConfig) -> Fraction:
    if v_gold < 1:
        raise ValueError("gold program declares no [find] variables")
    score = cfg.r_max * (1 - Fraction(abs(v_gen - v_gold), v_gold))
    if cfg.clamp_components:
        score = max(score, cfg.floor)
    return score


def _reference_r3(gen_counts: Counter, gold_counts: Counter, cfg: RewardConfig) -> Fraction:
    matched = sum(min(gen_counts[op], gold_counts[op]) for op in BASIC_OPERATORS)
    missing = sum(max(0, gold_counts[op] - gen_counts[op]) for op in BASIC_OPERATORS)
    extra = sum(max(0, gen_counts[op] - gold_counts[op]) for op in BASIC_OPERATORS)
    score = cfg.r_max * (matched - missing) - cfg.r_max * Fraction(extra, 2)
    if cfg.clamp_components:
        score = max(score, -cfg.r_max * sum(gold_counts.values()))
    return score


def _reference_r4(answer, y_gold: Fraction, cfg: RewardConfig) -> Fraction:
    if answer is None:
        return Fraction(0)
    if y_gold == 0:
        return cfg.r_max if answer == 0 else cfg.floor
    score = cfg.r_max * (1 - abs(answer - y_gold) / abs(y_gold))
    if cfg.clamp_components:
        score = max(score, cfg.floor)
    return score


def reference_score_program(gen, gold, cfg: RewardConfig = DEFAULT_REWARD_CONFIG):
    """``score_program`` in Fraction arithmetic over ``Counter``s, gold recounted per call."""
    gold_program = gold.parsed_gold()
    compiled = gen is not None and has_return(gen)
    v_gen = 0 if gen is None else count_finds(gen)
    v_gold = count_finds(gold_program)
    gen_counts = Counter() if gen is None else basic_operation_counts(gen)
    gold_counts = basic_operation_counts(gold_program)

    r1 = cfg.r_max if compiled else Fraction(0)
    r2 = _reference_r2(v_gen, v_gold, cfg)
    r3 = _reference_r3(gen_counts, gold_counts, cfg)
    outcome = evaluate(gen) if gen is not None else None
    r4 = _reference_r4(None if outcome is None else outcome.answer, gold.gold_answer, cfg)

    diagnostics = RewardDiagnostics(
        compiled=compiled,
        v_gen=v_gen,
        v_gold=v_gold,
        op_counts_gen=dict(gen_counts),
        op_counts_gold=dict(gold_counts),
        y_gen=None if outcome is None else outcome.answer,
    )
    return RewardBreakdown(r1, r2, r3, r4, r1 + r2 + r3 + r4, diagnostics)


def reference_train_ppo_demo(
    policy, tasks, reward_cfg=DEFAULT_REWARD_CONFIG, ppo_cfg=None, iterations=300, *,
    seed=0, batch_size=None,
):
    """``train_ppo_demo`` without the episode memo: every episode goes through
    ``toy._rollout``, with a fresh ``run_session`` each time."""
    if ppo_cfg is None:
        ppo_cfg = toy.demo_config()
    if not tasks:
        raise ValueError("no training tasks")
    ref = policy.copy()
    rng = np.random.default_rng(seed)
    beta = ppo_cfg.beta
    lr = ppo_cfg.learning_rate
    history = []
    for iteration in range(iterations):
        if batch_size is None:
            batch = list(tasks)
        else:
            order = rng.permutation(len(tasks))[:batch_size]
            batch = [tasks[i] for i in order]
        table = toy._StepTable(policy, ref)
        results = [toy._rollout(table, rec, reward_cfg, rng) for rec in batch]
        trajectories = [r.trajectory for r in results]
        flat = Trajectory(
            tokens=np.concatenate([t.tokens for t in trajectories]),
            state_features=np.concatenate([t.state_features for t in trajectories]),
            logprobs_policy=np.concatenate([t.logprobs_policy for t in trajectories]),
            logprobs_ref=np.concatenate([t.logprobs_ref for t in trajectories]),
            rewards=np.concatenate([t.rewards for t in trajectories]),
            values=np.append(np.concatenate([t.values[:-1] for t in trajectories]), 0.0),
        )
        advantages = np.concatenate([compute_gae(t, ppo_cfg) for t in trajectories])
        returns = advantages + flat.values[:-1]
        norm_adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        phi = flat.state_features
        ref_probs = softmax(phi @ ref.weights.T)
        iter_cfg = replace(ppo_cfg, beta=beta)
        for _ in range(ppo_cfg.epochs):
            weights_step, value_step = ppo_gradients(
                flat, norm_adv, returns, policy, ref_probs, iter_cfg
            )
            policy.weights += lr * weights_step
            policy.value_weights -= lr * VALUE_LR_SCALE * value_step

        probs = softmax(phi @ policy.weights.T)
        new_logprobs = np.log(probs[np.arange(flat.steps), flat.tokens])
        objective = ppo_objective(
            flat, advantages, new_logprobs, iter_cfg, ref_dists=ref_probs, new_dists=probs
        )
        vloss = value_loss(flat, returns, phi @ policy.value_weights, iter_cfg)
        observed_kl = float(np.mean(kl_divergence(ref_probs, probs)))
        beta = adaptive_kl_update(beta, observed_kl, ppo_cfg, len(trajectories))
        history.append(
            IterationStats(
                iteration=iteration,
                mean_total_reward=float(np.mean([float(r.breakdown.total) for r in results])),
                mean_kl=observed_kl,
                clip_fraction=objective.clip_fraction,
                beta=beta,
                policy_loss=objective.policy_loss,
                value_loss=vloss,
                prob_sum_err=max(r.session.prob_sum_err for r in results),
            )
        )
    return history
