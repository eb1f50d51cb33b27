"""Tiny word-problem environment for exercising the training loop end to end.

A linear-softmax policy writes pseudocode one line per action, driven through
the same halting session runtime used for replay: arithmetic lines go out
without comments and come back with solver-injected results. Episodes earn
the full reward stack as a terminal reward, so the optimizer sees exactly the
signal a language model would.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .interpreter import answers_match
from .ppo import (
    PpoConfig,
    ToyPolicy,
    Trajectory,
    _gae,
    _mean,
    _normalized,
    _PreparedBatch,
    adaptive_kl_update,
    softmax,
)
from .program import ADD, DIVIDE, SUBTRACT, Operator, ProblemRecord
from .rewards import DEFAULT_REWARD_CONFIG, RewardConfig, _score_transcript
from .runtime import ScriptedGenerator, SessionBudget, run_session
from .values import UNSIGNED_NUMBER_PATTERN, _brief_repr, format_number, parse_number

ACTION_NAMES = (
    "find-first",
    "find-second",
    "op-add",
    "op-subtract",
    "op-multiply",
    "op-divide",
    "emit-return",
)

# Cue index c pairs with action 2 + c.
CUE_OPERATORS = (Operator.ADD, Operator.SUBTRACT, Operator.MULTIPLY, Operator.DIVIDE)

OP_ACTIONS = {2 + c: op for c, op in enumerate(CUE_OPERATORS)}

CUE_KEYWORDS = {
    "altogether": Operator.ADD,
    "left": Operator.SUBTRACT,
    "in all": Operator.MULTIPLY,
    "shared equally": Operator.DIVIDE,
}

# cue one-hot (4) + step one-hot (6) + find count + op count + bias
N_FEATURES = 13


@dataclass(frozen=True)
class TaskTemplate:
    """Question text with {0}/{1}/... slots, one description per quantity."""

    name: str
    question: str
    descriptions: tuple[str, ...]
    ops: tuple[Operator, ...]


# Each question carries exactly one cue keyword so a linear policy can read
# the operation off the features.
SINGLE_OP_TEMPLATES = (
    TaskTemplate(
        name="sum",
        question=(
            "Maya picked {0} apples and her brother picked {1} apples. "
            "How many apples did they pick altogether?"
        ),
        descriptions=(
            "the number of apples Maya picked",
            "the number of apples her brother picked",
        ),
        ops=(Operator.ADD,),
    ),
    TaskTemplate(
        name="difference",
        question=(
            "A baker made {0} bread rolls and sold {1} of them. "
            "How many rolls are left?"
        ),
        descriptions=(
            "the number of rolls the baker made",
            "the number of rolls sold",
        ),
        ops=(Operator.SUBTRACT,),
    ),
    TaskTemplate(
        name="product",
        question=(
            "A shelf holds {0} boxes and each box contains {1} pencils. "
            "How many pencils are there in all?"
        ),
        descriptions=(
            "the number of boxes on the shelf",
            "the number of pencils in each box",
        ),
        ops=(Operator.MULTIPLY,),
    ),
    TaskTemplate(
        name="quotient",
        question=(
            "{0} stickers are shared equally among {1} students. "
            "How many stickers does each student receive?"
        ),
        descriptions=(
            "the total number of stickers",
            "the number of students",
        ),
        ops=(Operator.DIVIDE,),
    ),
)

CHAIN_TEMPLATES = (
    TaskTemplate(
        name="gain-then-spend",
        question=(
            "Tom had {0} marbles, won {1} more in a game, and then gave {2} "
            "to his sister. How many marbles does Tom have left?"
        ),
        descriptions=(
            "the number of marbles Tom started with",
            "the number of marbles Tom won",
            "the number of marbles Tom gave away",
        ),
        ops=(Operator.ADD, Operator.SUBTRACT),
    ),
)

DEFAULT_TEMPLATES = SINGLE_OP_TEMPLATES + CHAIN_TEMPLATES

# Sessions are four lines when played perfectly; eight leaves room to wander.
DEMO_BUDGET = SessionBudget(max_lines=8, max_chars=2048)

# The published learning rate targets a billion-parameter model and moves the
# 7x13 linear policy by nothing; this one is tuned for the demo.
DEMO_LEARNING_RATE = 0.8

# Plain-SGD stabilizer: the value regression diverges at the step size the
# policy wants, so the value head trains at this fraction of it.
VALUE_LR_SCALE = 0.1


def demo_config() -> PpoConfig:
    return PpoConfig(learning_rate=DEMO_LEARNING_RATE)


def _cue_index(question: str) -> int | None:
    """Position of the question's cue in ``CUE_OPERATORS``; None without a cue."""
    text = question.lower()
    for keyword, op in CUE_KEYWORDS.items():
        if keyword in text:
            return CUE_OPERATORS.index(op)
    return None


_QUANTITY_RE = re.compile(UNSIGNED_NUMBER_PATTERN)


@lru_cache(maxsize=1024)
def _read_question(question: str) -> tuple[int | None, tuple[str, ...]]:
    """The question's cue index, and for its i-th number (a '-' in prose is
    no sign) the tail of its [find] line, `` = [find](quantity i) # value``.
    Cached, so every episode of a task after its first reads it for free."""
    values = [parse_number(text) for text in _QUANTITY_RE.findall(question)]
    if not values or None in values:
        problem = "a number that does not parse" if values else "no quantities"
        raise ValueError(f"question {_brief_repr(question)} holds {problem}")
    finds = tuple(
        f" = [find](quantity {i}) # {format_number(v)}\n" for i, v in enumerate(values, 1)
    )
    return _cue_index(question), finds


@lru_cache(maxsize=1024)
def _features(cue: int | None, lines: int, finds: int, ops: int) -> np.ndarray:
    """A state's feature vector, cached and read-only, so that tables and
    trajectories share one array per state."""
    phi = np.zeros(N_FEATURES)
    if cue is not None:
        phi[cue] = 1.0
    phi[4 + min(lines, 5)] = 1.0
    phi[10] = finds / 3.0
    phi[11] = ops / 2.0
    phi[12] = 1.0
    phi.flags.writeable = False
    return phi


def _sample_values(template: TaskTemplate, rng: random.Random) -> tuple[int, ...]:
    if template.ops == (SUBTRACT,):
        sold = rng.randint(2, 20)
        return (sold + rng.randint(1, 20), sold)
    if template.ops == (DIVIDE,):
        share = rng.randint(2, 12)
        groups = rng.randint(2, 9)
        return (share * groups, groups)
    if template.ops == (ADD, SUBTRACT):
        start = rng.randint(5, 30)
        won = rng.randint(2, 20)
        return (start, won, rng.randint(1, start + won - 1))
    return tuple(rng.randint(2, 12) for _ in template.descriptions)


def _gold_program(
    template: TaskTemplate, values: Sequence[int], question: str
) -> tuple[str, Fraction]:
    """Gold text and answer: the template's [find] and operator lines, run
    through the session runtime, which writes the computed comments."""
    lines = [
        f"var{i} = [find]({desc}) # {val}"
        for i, (desc, val) in enumerate(zip(template.descriptions, values), start=1)
    ]
    left = "var1"
    for j, op in enumerate(template.ops):
        target = f"var{len(template.descriptions) + j + 1}"
        lines.append(f"{target} = [{op.value}]({left}, var{j + 2})")
        left = target
    lines.append(f"[return]({left})")
    transcript = run_session(ScriptedGenerator("\n".join(lines)), question)
    outcome = transcript.outcome
    if outcome.error is not None:
        raise ValueError(f"template '{template.name}' does not run: {outcome.error}")
    return f"{transcript.generated_source} # {format_number(outcome.answer)}", outcome.answer


def generate_toy_tasks(
    seed: int, count: int, templates: Sequence[TaskTemplate] = DEFAULT_TEMPLATES
) -> list[ProblemRecord]:
    """Deterministic batch of word problems, templates taken round-robin."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not templates:
        raise ValueError("at least one template is required")
    rng = random.Random(seed)
    records: list[ProblemRecord] = []
    for i in range(count):
        template = templates[i % len(templates)]
        values = _sample_values(template, rng)
        question = template.question.format(*values)
        gold, answer = _gold_program(template, values, question)
        records.append(ProblemRecord(f"toy-{seed}-{i:04d}", question, gold, answer))
    return records


# Generator.choice rejects probabilities whose sum is further than this from 1.
_P_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


class _StepRow:
    """The policy's output at one state.

    ``draw`` is ``Generator.choice(len(probs), p=probs)`` taken apart: the
    same checks on ``probs``, made once when the row is built and raised on
    the first draw, then the same inverse-CDF lookup of one
    ``rng.random()``, as ``bisect_right`` over ``cdf``, the normalized
    cumulative sum held as a list of floats, where ``choice`` takes
    ``searchsorted(side="right")``. Actions and generator state match
    ``choice``. ``logprobs`` maps an action to its log-prob, filled on first
    use.
    """

    __slots__ = ("phi", "probs", "value", "prob_sum_err", "argmax", "cdf", "p_error", "logprobs")

    @classmethod
    def batch(cls, phis, probs: np.ndarray, values) -> list[_StepRow]:
        """One row per row of ``probs``, an (n, actions) block. Each row's
        sum, minimum, argmax, cumsum and division are those of the row on its
        own, bit for bit; only the calls are shared."""
        rows = [cls() for _ in phis]
        cdfs = probs.cumsum(axis=1)
        cdfs = cdfs / cdfs[:, -1:]
        for row, phi, p, value, total, least, argmax, cdf in zip(
            rows, phis, probs, values, probs.sum(axis=1).tolist(), probs.min(axis=1).tolist(),
            probs.argmax(axis=1).tolist(), cdfs.tolist(),
        ):
            row.phi, row.probs, row.value, row.argmax, row.cdf = phi, p, value, argmax, cdf
            row.prob_sum_err = abs(total - 1.0)
            if math.isnan(total):
                row.p_error = "Probabilities contain NaN"
            elif least < 0:
                row.p_error = "Probabilities are not non-negative"
            elif row.prob_sum_err > _P_SUM_ATOL:
                row.p_error = "Probabilities do not sum to 1"
            else:
                row.p_error = None
            row.logprobs = {}
        return rows

    def draw(self, rng: np.random.Generator) -> int:
        if self.p_error is not None:
            raise ValueError(self.p_error)
        return bisect_right(self.cdf, rng.random())


class _StepTable:
    """Rows of policy output by state, for weights that do not change.

    A state's features depend only on (cue index, ``min(lines, 5)``, finds,
    ops), so every episode that reaches a state reads the same row. The
    states in ``fill`` are built in one batch up front, any other state
    alone on its first read; ``_rows`` holds the rows read so far, in the
    order first read. Per-action log-probs are filled on first use. The
    table keeps no copy of the weights: build a new one after an update.
    Features come from ``_features``' cache, shared by every table.
    """

    def __init__(self, policy: ToyPolicy, fill: Sequence[tuple] = ()):
        self.policy = policy
        self._rows: dict[tuple, _StepRow] = {}
        self._filled = dict(zip(fill, self._build(fill))) if fill else {}

    def row(self, cue: int | None, lines: int, finds: int, ops: int) -> _StepRow:
        key = (cue, min(lines, 5), finds, ops)
        row = self._rows.get(key)
        if row is None:
            row = self._filled.pop(key, None)
            if row is None:
                (row,) = self._build([key])
            self._rows[key] = row
        return row

    def _build(self, keys: Sequence[tuple]) -> list[_StepRow]:
        """Rows for ``keys``: ``W`` and ``V`` times the stacked features as
        columns, one broadcast matmul each, whose C loop runs ``ToyPolicy``'s
        gemv and dot per row; one ``Phi @ W.T`` gemm would change some bits."""
        phis = [_features(*key) for key in keys]
        columns = np.array(phis)[:, :, None]
        W, V = self.policy.weights, self.policy.value_weights
        return _StepRow.batch(
            phis, softmax((W @ columns)[:, :, 0]), (V @ columns)[:, 0].tolist()
        )

    def logprob(self, row: _StepRow, action: int) -> float:
        """log pi(action) at ``row``'s state."""
        logprob = row.logprobs.get(action)
        if logprob is None:
            logprob = row.logprobs[action] = float(np.log(row.probs[action]))
        return logprob


class PolicySession:
    """Generator that turns policy actions into pseudocode lines.

    Quantities come from the question, structure from the policy; the gold
    program is only the scorer's label. Each pull returns one whole line,
    newline included; the runtime reads an arithmetic line to its end and
    injects the computed comment whatever the chunking.

    ``_step`` reads the current state's row and picks an action, argmax with
    ``rng=None``, else a draw; the session keeps each step's features,
    action, log-prob and value. ``_advance`` moves the state past an action.
    Line ``n`` depends only on ``n`` and action ``n``, since every action
    before a return defines a variable. A pull writes the line of the next
    action not yet written and steps first only when every action taken is
    written, so a session that took steps before it reached the runtime
    writes their lines first.

    Each step reads the policy from a step table, one row per state, since
    the weights stay fixed while episodes run. A session builds its own
    table unless given one built on ``policy``:
    ``greedy_accuracy`` shares one across its episodes, ``train_ppo_demo``
    one across an iteration's episodes. The cue and the ``[find]`` tails
    come from ``_read_question``'s cache.
    """

    def __init__(
        self,
        policy: ToyPolicy,
        record: ProblemRecord,
        rng: np.random.Generator | None = None,
        *,
        table: _StepTable | None = None,
    ):
        self._cue, self._find_tails = _read_question(record.question)
        self.table = _StepTable(policy) if table is None else table
        self.record = record
        self.rng = rng
        self.features: list[np.ndarray] = []
        self.actions: list[int] = []
        self.logprobs: list[float] = []
        self.values: list[float] = []
        self._finds = self._ops = self._written = 0
        self._done = False

    def _step(self) -> int:
        row = self.table.row(self._cue, len(self.actions), self._finds, self._ops)
        action = row.argmax if self.rng is None else row.draw(self.rng)
        self.features.append(row.phi)
        self.actions.append(action)
        self.logprobs.append(self.table.logprob(row, action))
        self.values.append(row.value)
        return action

    def _advance(self, action: int) -> None:
        if action in (0, 1):
            self._finds += 1
        elif action in OP_ACTIONS:
            self._ops += 1
        else:
            self._done = True

    def next_chunk(self, context: str) -> str:
        n = self._written
        if n == len(self.actions):
            if self._done:
                return ""
            self._advance(self._step())
        self._written = n + 1
        return self._line(n)

    def _line(self, n: int) -> str:
        action = self.actions[n]
        if action in (0, 1):
            return f"var{n + 1}" + self._find_tails[min(action, len(self._find_tails) - 1)]
        if action in OP_ACTIONS:
            return f"var{n + 1} = [{OP_ACTIONS[action].value}](var1, var2)\n"
        return f"[return](var{max(n, 1)})\n"


def _trajectory(episodes: Sequence[tuple[PolicySession, float]], cfg: PpoConfig) -> tuple:
    """Episodes end to end, each with its whole reward on its last step, the
    values with one bootstrap zero after the last; and their advantages, taken
    per episode."""
    tokens, features, logprobs, rewards, values, advantages = [], [], [], [], [], []
    for session, total in episodes:
        episode_rewards = [0.0] * (len(session.actions) - 1) + [total]
        tokens += session.actions
        features += session.features
        logprobs += session.logprobs
        rewards += episode_rewards
        values += session.values
        advantages += _gae(episode_rewards, session.values + [0.0], cfg)
    return Trajectory(
        tokens=np.array(tokens, dtype=int),
        state_features=np.array(features),
        logprobs_policy=np.array(logprobs),
        rewards=np.array(rewards),
        values=np.array(values + [0.0]),
    ), np.array(advantages)


def _play(
    memo: dict,
    table: _StepTable,
    position: int,
    record: ProblemRecord,
    reward_cfg: RewardConfig,
    rng: np.random.Generator,
) -> tuple[PolicySession, float]:
    """One training episode, a session, and its total reward, through ``memo``.

    ``memo`` maps a task position to a tree of the action sequences played
    on it: a dict of the next actions where the runtime went on to ask for
    another action, else the episode's total reward. The position's first
    episode makes its entry. While the episode's prefix is in the tree the
    session only takes steps: one row read and one draw per action. At the
    first unknown prefix the runtime runs that same session, which writes
    the lines of the actions taken so far, then draws on. The episode is
    scored and recorded.
    """
    tree = memo.setdefault(position, {})
    session = PolicySession(table.policy, record, rng, table=table)
    node = tree
    while type(node) is dict:
        action = session._step()
        session._advance(action)
        node = node.get(action)
    if node is not None:
        return session, node
    transcript = run_session(session, record.question, budget=DEMO_BUDGET)
    total = float(_score_transcript(transcript, record, reward_cfg).total)
    *prefix, last = session.actions
    node = tree
    for action in prefix:
        node = node.setdefault(action, {})
    node[last] = total
    return session, total


def greedy_accuracy(policy: ToyPolicy, records: Sequence[ProblemRecord]) -> float:
    """Fraction of records the argmax policy answers correctly."""
    if not records:
        raise ValueError("no records to evaluate")
    table = _StepTable(policy)
    hits = 0
    for record in records:
        session = PolicySession(policy, record, table=table)
        outcome = run_session(session, record.question, budget=DEMO_BUDGET).outcome
        if answers_match(outcome.answer, record.gold_answer):
            hits += 1
    return hits / len(records)


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    mean_total_reward: float
    mean_kl: float
    clip_fraction: float
    beta: float
    policy_loss: float
    value_loss: float
    prob_sum_err: float

    def to_json(self) -> dict:
        return asdict(self)


def train_ppo_demo(
    policy: ToyPolicy,
    tasks: Sequence[ProblemRecord],
    reward_cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
    ppo_cfg: PpoConfig | None = None,
    iterations: int = 300,
    *,
    seed: int = 0,
    batch_size: int | None = None,
    on_iteration: Callable[[IterationStats], object] | None = None,
) -> list[IterationStats]:
    """Optimize ``policy`` in place against the frozen copy taken on entry.

    Each iteration samples a batch of episodes (all tasks unless
    ``batch_size`` says otherwise), computes advantages once, prepares the
    batch as one flat trajectory once, then takes the configured number of
    gradient epochs of ``ppo_gradients``' step on it and the stats after
    them. Advantages are normalized per batch for the policy step only. The
    recorded ``beta`` is the adapted coefficient entering the next
    iteration, and ``prob_sum_err`` the largest over the states the
    iteration read. An update that raises ``ValueError`` or leaves a
    ``policy_loss``, ``value_loss`` or ``mean_kl`` that is not finite stops
    the run with ``ValueError`` naming the iteration; numpy's floating-point
    warnings are silenced in the update, since it checks for itself.

    Each episode is one ``PolicySession``. Each (task, action sequence) is
    played through the session runtime and scored once per call; an episode
    that repeats one only draws its actions from the iteration's step table,
    writes no line text and runs no session, and reads the total reward from
    a memo that lives for this call. That is exact: ``PolicySession`` ignores
    its context, so its chunks are a function of its actions and the record,
    and the budget and ``reward_cfg`` are fixed for the call. A state's
    features and a task's cue and quantities come from the caches of
    ``_features`` and ``_read_question``, so each is computed on first use
    and read back after, in this call and later ones. The frozen copy enters
    only the KL penalty, through its action distributions at the batch's
    states. Draws, stats and weights match playing every episode afresh.

    ``on_iteration``, when given, is called with each iteration's stats as
    soon as they are recorded, so a run that stops early has reported every
    iteration before the one that failed.
    """
    if ppo_cfg is None:
        ppo_cfg = demo_config()
    if not tasks:
        raise ValueError("no training tasks")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    ref = policy.copy()
    rng = np.random.default_rng(seed)
    beta = ppo_cfg.beta
    lr = ppo_cfg.learning_rate
    history: list[IterationStats] = []
    memo: dict = {}
    table = None
    for iteration in range(iterations):
        if batch_size is None:
            batch = list(tasks)
            positions = range(len(batch))
        else:
            positions = rng.permutation(len(tasks))[:batch_size].tolist()
            batch = [tasks[i] for i in positions]
        # The states the last iteration read are filled in one batch.
        table = _StepTable(policy, [] if table is None else list(table._rows))
        episodes = [
            _play(memo, table, position, rec, reward_cfg, rng)
            for position, rec in zip(positions, batch)
        ]
        flat, advantages = _trajectory(episodes, ppo_cfg)
        returns = advantages + flat.values[:-1]
        norm_adv = _normalized(advantages)
        phi = flat.state_features
        ref_probs = softmax(phi @ ref.weights.T)
        update = _PreparedBatch(flat, ppo_cfg, policy.n_actions, beta)
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for _ in range(ppo_cfg.epochs):
                    weights_step, value_step = update.gradients(
                        norm_adv, returns, policy, ref_probs
                    )
                    policy.weights += lr * weights_step
                    policy.value_weights -= lr * VALUE_LR_SCALE * value_step

                probs = softmax(phi @ policy.weights.T)
                objective = update.objective(advantages, update.logprobs(probs), ref_probs, probs)
                vloss = update.value_loss(returns, phi @ policy.value_weights)
        except ValueError as error:
            raise ValueError(f"training diverged at iteration {iteration}: {error}") from error
        for name, value in (
            ("policy_loss", objective.policy_loss), ("value_loss", vloss),
            ("mean_kl", objective.mean_kl),
        ):
            if not math.isfinite(value):
                raise ValueError(f"training diverged at iteration {iteration}: {name} is {value}")
        beta = adaptive_kl_update(beta, objective.mean_kl, ppo_cfg, len(episodes))
        history.append(
            IterationStats(
                iteration=iteration,
                mean_total_reward=float(_mean(np.array([total for _, total in episodes]))),
                mean_kl=objective.mean_kl,
                clip_fraction=objective.clip_fraction,
                beta=beta,
                policy_loss=objective.policy_loss,
                value_loss=vloss,
                prob_sum_err=max(0.0, *(row.prob_sum_err for row in table._rows.values())),
            )
        )
        if on_iteration is not None:
            on_iteration(history[-1])
    return history
