"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch on plain big-int pairs
and python loops, trading speed for obviousness.
"""

from __future__ import annotations

import math
import random

import numpy as np

from flsolve import ToyPolicy


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
