"""Tiny word-problem environment for exercising the training loop end to end.

A linear-softmax policy writes pseudocode one line per action, driven through
the same halting session runtime used for replay: arithmetic lines go out
without comments and come back with solver-injected results. Episodes earn
the full reward stack as a terminal reward, so the optimizer sees exactly the
signal a language model would.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .interpreter import (
    Environment,
    annotation_text,
    answers_match,
    apply_operator,
    evaluate_statement,
    resolve_operands,
)
from .ppo import (
    PpoConfig,
    ToyPolicy,
    Trajectory,
    _gae,
    adaptive_kl_update,
    kl_divergence,
    ppo_gradients,
    ppo_objective,
    softmax,
    value_loss,
)
from .program import (
    CommentAnnotation,
    Operator,
    Program,
    ProblemRecord,
    Statement,
    VarRef,
    render_program,
)
from .rewards import (
    DEFAULT_REWARD_CONFIG,
    RewardBreakdown,
    RewardConfig,
    _score_transcript,
    score_program,
)
from .runtime import SessionBudget, SessionTranscript, run_session
from .values import format_number

ACTION_NAMES = (
    "find-first",
    "find-second",
    "op-add",
    "op-subtract",
    "op-multiply",
    "op-divide",
    "emit-return",
)

OP_ACTIONS = {
    2: Operator.ADD,
    3: Operator.SUBTRACT,
    4: Operator.MULTIPLY,
    5: Operator.DIVIDE,
}

# Cue order matches the op-action order: cue index c pairs with action 2 + c.
CUE_OPERATORS = (Operator.ADD, Operator.SUBTRACT, Operator.MULTIPLY, Operator.DIVIDE)

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


def demo_config(learning_rate: float = DEMO_LEARNING_RATE) -> PpoConfig:
    return PpoConfig(learning_rate=learning_rate)


def question_cue(question: str) -> Operator | None:
    text = question.lower()
    for keyword, op in CUE_KEYWORDS.items():
        if keyword in text:
            return op
    return None


def _cue_index(question: str) -> int | None:
    """Position of the question's cue in ``CUE_OPERATORS``; None without a cue."""
    cue = question_cue(question)
    return None if cue is None else CUE_OPERATORS.index(cue)


def state_feature_vector(question: str, lines: int, finds: int, ops: int) -> np.ndarray:
    return _features(_cue_index(question), lines, finds, ops)


def _features(cue: int | None, lines: int, finds: int, ops: int) -> np.ndarray:
    phi = np.zeros(N_FEATURES)
    if cue is not None:
        phi[cue] = 1.0
    phi[4 + min(lines, 5)] = 1.0
    phi[10] = finds / 3.0
    phi[11] = ops / 2.0
    phi[12] = 1.0
    return phi


def _sample_values(template: TaskTemplate, rng: random.Random) -> tuple[int, ...]:
    if template.ops == (Operator.SUBTRACT,):
        sold = rng.randint(2, 20)
        return (sold + rng.randint(1, 20), sold)
    if template.ops == (Operator.DIVIDE,):
        share = rng.randint(2, 12)
        groups = rng.randint(2, 9)
        return (share * groups, groups)
    if template.ops == (Operator.ADD, Operator.SUBTRACT):
        start = rng.randint(5, 30)
        won = rng.randint(2, 20)
        return (start, won, rng.randint(1, start + won - 1))
    return tuple(rng.randint(2, 12) for _ in template.descriptions)


def _gold_program(template: TaskTemplate, values: Sequence[int]) -> tuple[Program, Fraction]:
    statements: list[Statement] = []
    env = Environment()
    for i, (desc, val) in enumerate(zip(template.descriptions, values), start=1):
        quantity = Fraction(val)
        stmt = Statement(
            Operator.FIND,
            (desc,),
            target=f"var{i}",
            annotation=CommentAnnotation(format_number(quantity), quantity),
        )
        _, env = evaluate_statement(stmt, env)
        statements.append(stmt)
    left = VarRef("var1")
    result = Fraction(0)
    for j, op in enumerate(template.ops):
        target = f"var{len(template.descriptions) + j + 1}"
        stmt = Statement(op, (left, VarRef(f"var{j + 2}")), target=target)
        operands = resolve_operands(stmt, env)
        result = apply_operator(op, operands)
        env = env.bind(target, result)
        stmt = replace(
            stmt, annotation=CommentAnnotation(annotation_text(stmt, operands, result), result)
        )
        statements.append(stmt)
        left = VarRef(target)
    statements.append(
        Statement(
            Operator.RETURN,
            (left,),
            annotation=CommentAnnotation(format_number(result), result),
        )
    )
    return Program(tuple(statements)), result


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
        program, answer = _gold_program(template, values)
        records.append(
            ProblemRecord(
                id=f"toy-{seed}-{i:04d}",
                question=template.question.format(*values),
                gold_program=render_program(program),
                gold_answer=answer,
            )
        )
    return records


# Generator.choice rejects probabilities whose sum is further than this from 1.
_P_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


class _StepRow:
    """The policy's output at one state.

    ``draw`` is ``Generator.choice(len(probs), p=probs)`` taken apart: the
    same checks on ``probs``, made once when the row is built and raised on
    the first draw, then the same inverse-CDF lookup of one
    ``rng.random()``. Actions and generator state match ``choice``.
    ``logprobs`` maps an action to its policy and reference log-probs,
    ``ref_logprobs`` to its reference log-prob only; rows of one state in
    tables on the same reference may share the latter.
    """

    __slots__ = ("phi", "probs", "value", "prob_sum_err", "argmax", "cdf", "p_error", "logprobs",
                 "ref_logprobs")

    def __init__(self, phi: np.ndarray, probs: np.ndarray, value: float, ref_logprobs=None):
        total = float(probs.sum())
        self.phi = phi
        self.probs = probs
        self.value = value
        self.prob_sum_err = abs(total - 1.0)
        self.argmax = int(np.argmax(probs))
        if np.isnan(total):
            self.p_error = "Probabilities contain NaN"
        elif (probs < 0).any():
            self.p_error = "Probabilities are not non-negative"
        elif abs(total - 1.0) > _P_SUM_ATOL:
            self.p_error = "Probabilities do not sum to 1"
        else:
            self.p_error = None
        self.cdf = probs.cumsum()
        self.cdf /= self.cdf[-1]
        self.logprobs: dict[int, tuple[float, float]] = {}
        self.ref_logprobs = {} if ref_logprobs is None else ref_logprobs

    def draw(self, rng: np.random.Generator) -> int:
        if self.p_error is not None:
            raise ValueError(self.p_error)
        return int(self.cdf.searchsorted(rng.random(), side="right"))


class _StepTable:
    """Rows of policy output by state, for weights that do not change.

    A state's features depend only on (cue index, ``min(lines, 5)``, finds,
    ops), so every episode that reaches a state reads the same row. Rows and
    their per-action log-probs are filled on first use. The table keeps no
    copy of the weights: build a new one after an update.

    ``ref_logprobs`` maps a state to its reference log-probs by action.
    Tables on the same unchanged ``ref`` may share it, so that each is
    computed once for all of them.
    """

    def __init__(self, policy: ToyPolicy, ref: ToyPolicy, ref_logprobs: dict | None = None):
        self.policy = policy
        self.ref = ref
        self.ref_logprobs = {} if ref_logprobs is None else ref_logprobs
        self._rows: dict[tuple, _StepRow] = {}

    def row(self, cue: int | None, lines: int, finds: int, ops: int) -> _StepRow:
        key = (cue, min(lines, 5), finds, ops)
        row = self._rows.get(key)
        if row is None:
            phi = _features(cue, lines, finds, ops)
            row = self._rows[key] = _StepRow(
                phi, self.policy.action_probs(phi), self.policy.value(phi),
                self.ref_logprobs.setdefault(key, {}),
            )
        return row

    def logprobs(self, row: _StepRow, action: int) -> tuple[float, float]:
        """log pi(action) and log pi_ref(action) at ``row``'s state."""
        pair = row.logprobs.get(action)
        if pair is None:
            ref_logprob = row.ref_logprobs.get(action)
            if ref_logprob is None:
                ref_logprob = row.ref_logprobs[action] = self.ref.logprob(row.phi, action)
            pair = row.logprobs[action] = (float(np.log(row.probs[action])), ref_logprob)
        return pair


class _Steps:
    """The policy's side of one episode: the state it has reached and, per
    step, the features, action, log-probs and value of the row it read.

    ``_step`` reads the current state's row and picks an action: the next
    one of ``_forced`` while any are left, else argmax with ``rng=None``,
    else a draw. A forced step reads its row and log-probs as any other
    step does but leaves ``rng`` alone. ``_advance`` moves the state past
    an action. A training episode whose outcome is already known takes only
    these steps.
    """

    def __init__(self, table: _StepTable, cue: int | None, rng: np.random.Generator | None):
        self.table = table
        self.rng = rng
        self.features: list[np.ndarray] = []
        self.actions: list[int] = []
        self.logprobs: list[float] = []
        self.ref_logprobs: list[float] = []
        self.values: list[float] = []
        self.prob_sum_err = 0.0
        self._forced: Sequence[int] = ()
        self._cue = cue
        self._finds = 0
        self._ops = 0
        self._done = False

    def _step(self) -> int:
        row = self.table.row(self._cue, len(self.actions), self._finds, self._ops)
        self.prob_sum_err = max(self.prob_sum_err, row.prob_sum_err)
        if len(self.actions) < len(self._forced):
            action = self._forced[len(self.actions)]
        else:
            action = row.argmax if self.rng is None else row.draw(self.rng)
        logprob, ref_logprob = self.table.logprobs(row, action)
        self.features.append(row.phi)
        self.actions.append(action)
        self.logprobs.append(logprob)
        self.ref_logprobs.append(ref_logprob)
        self.values.append(row.value)
        return action

    def _advance(self, action: int) -> None:
        if action in (0, 1):
            self._finds += 1
        elif action in OP_ACTIONS:
            self._ops += 1
        else:
            self._done = True


class PolicySession(_Steps):
    """Generator that turns policy actions into pseudocode lines.

    Quantities come from the reference program's [find] comments; structure
    comes from the policy. An arithmetic line is emitted up to its ')', and
    its newline on the next pull: the split stands for a model that is
    stopped at ')' while the session injects the computed comment.
    With ``rng=None`` actions are greedy argmax.

    Each step reads the policy from a step table, one row per state, since
    the weights stay fixed while episodes run. A session builds its own
    table unless given one built on ``policy`` and ``ref``: ``rollout`` and
    ``greedy_accuracy`` share one across their episodes, ``train_ppo_demo``
    one across an iteration's episodes. ``_play`` sets the inherited
    ``_forced`` prefix to hand the session actions already drawn.
    """

    def __init__(
        self,
        policy: ToyPolicy,
        ref: ToyPolicy,
        record: ProblemRecord,
        rng: np.random.Generator | None = None,
        *,
        table: _StepTable | None = None,
    ):
        self.gold_finds = [
            (s.args[0], s.annotation.declared_value if s.annotation else None)
            for s in record.parsed_gold().statements
            if s.is_find
        ]
        if not self.gold_finds:
            raise ValueError(f"reference program for '{record.id}' declares no quantities")
        if table is None:
            table = _StepTable(policy, ref)
        super().__init__(table, _cue_index(record.question), rng)
        self.record = record
        self._pending: str | None = None

    def next_chunk(self, context: str) -> str:
        if self._pending is not None:
            chunk, self._pending = self._pending, None
            return chunk
        if self._done:
            return ""
        return self._emit(self._step())

    def _emit(self, action: int) -> str:
        self._advance(action)
        var = self._finds + self._ops
        if action in (0, 1):
            index = min(action, len(self.gold_finds) - 1)
            desc, quantity = self.gold_finds[index]
            line = f"var{var} = [find]({desc})"
            if quantity is not None:
                line += f" # {format_number(quantity)}"
            return line + "\n"
        if action in OP_ACTIONS:
            self._pending = "\n"
            return f"var{var} = [{OP_ACTIONS[action].value}](var1, var2)"
        return f"[return](var{max(var, 1)})\n"


@dataclass
class RolloutResult:
    trajectory: Trajectory
    breakdown: RewardBreakdown
    session: PolicySession
    transcript: SessionTranscript


def rollout(
    policy: ToyPolicy,
    ref: ToyPolicy,
    record: ProblemRecord,
    reward_cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
    *,
    rng: np.random.Generator | None = None,
    greedy: bool = False,
    budget: SessionBudget = DEMO_BUDGET,
) -> RolloutResult:
    """Play one episode and package it as a trajectory.

    The whole reward lands on the final step; earlier steps earn zero.
    """
    if not greedy and rng is None:
        raise ValueError("stochastic rollout needs an rng; pass greedy=True for argmax")
    return _rollout(
        _StepTable(policy, ref), record, reward_cfg, None if greedy else rng, budget
    )


def _rollout(
    table: _StepTable,
    record: ProblemRecord,
    reward_cfg: RewardConfig,
    rng: np.random.Generator | None,
    budget: SessionBudget = DEMO_BUDGET,
) -> RolloutResult:
    session = PolicySession(table.policy, table.ref, record, rng, table=table)
    transcript = run_session(session, record.question, budget=budget)
    breakdown = score_program(transcript.program, record, reward_cfg)
    trajectory = _trajectory([(session, float(breakdown.total))])
    return RolloutResult(trajectory, breakdown, session, transcript)


def _trajectory(episodes: Sequence[tuple[_Steps, float]]) -> Trajectory:
    """Episodes end to end, each with its whole reward on its last step.

    The values carry one bootstrap entry, zero, after the last step.
    """
    steps = [s for s, _ in episodes]
    rewards = [r for s, total in episodes for r in [0.0] * (len(s.actions) - 1) + [total]]
    return Trajectory(
        tokens=np.array([a for s in steps for a in s.actions], dtype=int),
        state_features=np.array([phi for s in steps for phi in s.features]),
        logprobs_policy=np.array([lp for s in steps for lp in s.logprobs]),
        logprobs_ref=np.array([lp for s in steps for lp in s.ref_logprobs]),
        rewards=np.array(rewards),
        values=np.array([v for s in steps for v in s.values] + [0.0]),
    )


def _play(
    memo: dict,
    table: _StepTable,
    position: int,
    cue: int | None,
    record: ProblemRecord,
    reward_cfg: RewardConfig,
    rng: np.random.Generator,
) -> tuple[_Steps, float]:
    """One training episode and its total reward, through ``memo``.

    ``memo`` maps a task position to a tree of the action sequences played
    on it: a dict of the next actions where the runtime went on to ask for
    another action, else the episode's total reward. While the episode's
    prefix is in the tree it only takes steps: one row read and one draw per
    action. At the first unknown prefix the runtime runs a session whose
    forced prefix is the actions drawn so far: it steps through them again
    on table reads alone, then draws on. The episode is scored and recorded.
    """
    steps = _Steps(table, cue, rng)
    node = memo.get(position)
    while type(node) is dict:
        action = steps._step()
        steps._advance(action)
        node = node.get(action)
    if node is not None:
        return steps, node
    session = PolicySession(table.policy, table.ref, record, rng, table=table)
    session._forced = steps.actions
    transcript = run_session(session, record.question, budget=DEMO_BUDGET)
    total = float(_score_transcript(transcript, record, reward_cfg).total)
    *prefix, last = session.actions
    node = memo.setdefault(position, {})
    for action in prefix:
        node = node.setdefault(action, {})
    node[last] = total
    return session, total


def greedy_accuracy(
    policy: ToyPolicy,
    records: Sequence[ProblemRecord],
    reward_cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> float:
    """Fraction of records the argmax policy answers correctly."""
    if not records:
        raise ValueError("no records to evaluate")
    table = _StepTable(policy, policy)
    hits = 0
    for record in records:
        result = _rollout(table, record, reward_cfg, None)
        if answers_match(result.transcript.outcome.answer, record.gold_answer):
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
) -> list[IterationStats]:
    """Optimize ``policy`` in place against the frozen copy taken on entry.

    Each iteration samples a batch of episodes (all tasks unless
    ``batch_size`` says otherwise), computes advantages once, then takes the
    configured number of gradient epochs with ``ppo_gradients`` on the
    batch as one flat trajectory. Advantages are normalized per batch for
    the policy step only. The recorded ``beta`` is the adapted coefficient
    entering the next iteration.

    Each (task, action sequence) is played through the session runtime and
    scored once per call; an episode that repeats one only draws its actions
    from the iteration's step table, builds no session and no text, and
    reads the total reward from a memo that lives for this call. That is
    exact: ``PolicySession`` ignores its context, so its chunks are a function
    of its actions and the record, and the budget and ``reward_cfg`` are fixed
    for the call. The reference is frozen too, so its log-prob of each
    (state, action) is computed once per call. Draws, stats and weights
    match playing every episode afresh.
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
    # Indexed, not iterated: iterating ``tasks`` counts as taking a batch.
    cues = [_cue_index(tasks[i].question) for i in range(len(tasks))]
    ref_logprobs: dict = {}
    memo: dict = {}
    for iteration in range(iterations):
        if batch_size is None:
            batch = list(tasks)
            positions = range(len(batch))
        else:
            positions = rng.permutation(len(tasks))[:batch_size].tolist()
            batch = [tasks[i] for i in positions]
        table = _StepTable(policy, ref, ref_logprobs)
        episodes = [
            _play(memo, table, position, cues[position], rec, reward_cfg, rng)
            for position, rec in zip(positions, batch)
        ]
        flat = _trajectory(episodes)
        episode_advantages: list[float] = []
        for steps, total in episodes:
            rewards = [0.0] * (len(steps.actions) - 1) + [total]
            episode_advantages += _gae(rewards, steps.values + [0.0], ppo_cfg)
        advantages = np.array(episode_advantages)
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
        beta = adaptive_kl_update(beta, observed_kl, ppo_cfg, len(episodes))
        history.append(
            IterationStats(
                iteration=iteration,
                mean_total_reward=float(np.mean([total for _, total in episodes])),
                mean_kl=observed_kl,
                clip_fraction=objective.clip_fraction,
                beta=beta,
                policy_loss=objective.policy_loss,
                value_loss=vloss,
                prob_sum_err=max(steps.prob_sum_err for steps, _ in episodes),
            )
        )
    return history
