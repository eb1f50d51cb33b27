"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written on plain big-int pairs, python loops
and straightforward per-call recomputation, trading speed for obviousness.
The policy step, the reward scorer and the training loop are the package's
earlier, unoptimized versions, kept as the differential tests' references.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from flsolve import (
    BASIC_OPERATORS,
    DEFAULT_REWARD_CONFIG,
    RewardBreakdown,
    RewardConfig,
    RewardDiagnostics,
    ToyPolicy,
    evaluate,
)
from flsolve import toy
from flsolve.interpreter import (
    Environment,
    EvalError,
    EvalOutcome,
    _annotation,
    _operand_text,
    _step,
    annotation_text,
)
from flsolve.parser import ParseError, _split_line, _static_check, parse_comment_value, parse_line
from flsolve.program import (
    OPERATOR_ARITY,
    OPERATOR_BY_NAME,
    CommentAnnotation,
    Operator,
    Program,
    Statement,
    VarRef,
)
from flsolve.runtime import (
    DEFAULT_INSTRUCTIONS,
    EmittedLine,
    GeneratorInterface,
    ScriptedGenerator,
    SessionBudget,
    SessionTranscript,
    _arithmetic_prefix,
    _SessionFeed,
    assemble_prompt,
)
from flsolve.values import NUMBER_PATTERN, format_number, parse_number
from flsolve.ppo import (
    PpoConfig,
    Trajectory,
    adaptive_kl_update,
    compute_gae,
    PpoObjective,
    kl_divergence,
    ppo_objective,
    softmax,
    value_loss,
)
from flsolve.toy import VALUE_LR_SCALE, IterationStats, PolicySession, _cue_index, _features


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


def render_argument(arg) -> str:
    if isinstance(arg, VarRef):
        return arg.name
    if isinstance(arg, Fraction):
        return format_number(arg)
    return str(arg)


def render_statement(stmt: Statement) -> str:
    """A statement as program text, its comment kept as written."""
    args = ", ".join(render_argument(a) for a in stmt.args)
    text = f"[{stmt.op.value}]({args})"
    if stmt.target is not None:
        text = f"{stmt.target} = {text}"
    if stmt.annotation is not None:
        text = f"{text} # {stmt.annotation.raw_text}"
    return text


def render_program(program) -> str:
    return "\n".join(render_statement(s) for s in program.statements)


def gae_direct(rewards, values, gamma: float, lam: float) -> list[float]:
    """Advantages as the literal discounted sum of one-step errors."""
    steps = len(rewards)
    deltas = [rewards[t] + gamma * values[t + 1] - values[t] for t in range(steps)]
    return [
        sum((gamma * lam) ** offset * deltas[t + offset] for offset in range(steps - t))
        for t in range(steps)
    ]


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


def random_ppo_case(rng: np.random.Generator) -> tuple:
    """Random ``ppo_gradients`` arguments: a batch, its advantages and
    returns, a linear-softmax policy, the reference's action distributions
    and a config. Perturbations are sized so that a third of the ratios and
    half of the value predictions fall outside their clip bands."""
    n, n_actions, n_features = int(rng.integers(1, 12)), 5, 6
    policy = ToyPolicy(rng.normal(size=(n_actions, n_features)), rng.normal(size=n_features))
    phi = rng.normal(size=(n, n_features))
    tokens = rng.integers(n_actions, size=n)
    rows = np.arange(n)

    def logprobs_under(weights):
        return np.log(softmax(phi @ weights.T)[rows, tokens])

    old = policy.weights + rng.normal(scale=0.1, size=policy.weights.shape)
    ref = policy.weights + rng.normal(scale=0.1, size=policy.weights.shape)
    old_values = phi @ policy.value_weights + rng.normal(scale=0.3, size=n)
    batch = Trajectory(
        tokens=tokens,
        state_features=phi,
        logprobs_policy=logprobs_under(old),
        rewards=rng.normal(size=n),
        values=np.append(old_values, 0.0),
    )
    cfg = PpoConfig(beta=float(rng.uniform(0.05, 1.0)))
    advantages = rng.normal(size=n)
    returns = old_values + rng.normal(scale=0.5, size=n)
    return batch, advantages, returns, policy, softmax(phi @ ref.T), cfg


def central_fd_ppo_gradients(batch, advantages, returns, policy, ref_probs, cfg) -> tuple:
    """``ppo_gradients`` by central differences of the losses it
    differentiates: ``-policy_loss`` in the policy weights, ``value_loss``
    in the value weights."""
    phi, rows = batch.state_features, np.arange(batch.steps)

    def objective(weights):
        probs = softmax(phi @ weights.T)
        new_logprobs = np.log(probs[rows, batch.tokens])
        return -ppo_objective(
            batch, advantages, new_logprobs, cfg, ref_dists=ref_probs, new_dists=probs
        ).policy_loss

    def vloss(value_weights):
        return value_loss(batch, returns, phi @ value_weights, cfg)

    return central_fd(objective, policy.weights), central_fd(vloss, policy.value_weights)


def _reference_surrogate_terms(traj, advantages, new_logprobs, cfg) -> tuple:
    anchor = traj.logprobs_policy
    if not (np.all(np.isfinite(new_logprobs)) and np.all(np.isfinite(anchor))):
        raise ValueError("log-probabilities must be finite")
    ratio = np.exp(new_logprobs - anchor)
    clipped = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * advantages
    return ratio, ratio * advantages, clipped


def _reference_value_errors(traj, returns, new_values, cfg) -> tuple:
    old_values = traj.values[:-1]
    low, high = old_values - cfg.clip_range_value, old_values + cfg.clip_range_value
    return (new_values - returns) ** 2, (np.clip(new_values, low, high) - returns) ** 2


def reference_ppo_objective(traj, advantages, new_logprobs, cfg, *, ref_dists=None, new_dists=None):
    """``ppo_objective`` with the anchor, its check and the clip bounds taken per call."""
    ratio, unclipped, clipped = _reference_surrogate_terms(
        traj, np.asarray(advantages, dtype=np.float64), np.asarray(new_logprobs, dtype=np.float64),
        cfg,
    )
    surrogate = float(np.minimum(unclipped, clipped).mean())
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range))
    mean_kl = kl_penalty = 0.0
    if ref_dists is not None and new_dists is not None:
        mean_kl = float(np.mean(kl_divergence(ref_dists, new_dists)))
        kl_penalty = cfg.beta * mean_kl
    return PpoObjective(-(surrogate - kl_penalty), kl_penalty, clip_fraction, mean_kl)


def reference_value_loss(traj, returns, new_values, cfg) -> float:
    """``value_loss`` with the value band taken per call."""
    raw, clipped = _reference_value_errors(
        traj, np.asarray(returns, dtype=np.float64), np.asarray(new_values, dtype=np.float64), cfg
    )
    return float(np.maximum(raw, clipped).mean())


def reference_ppo_gradients(batch, advantages, returns, policy, ref_probs, cfg) -> tuple:
    """``ppo_gradients`` with row indices, one-hot actions, the anchor's check
    and both clip bands built afresh on every call: the step as it was before
    an update prepared its batch once."""
    phi = batch.state_features
    n = batch.steps
    probs = softmax(phi @ policy.weights.T)
    new_logprobs = np.log(probs[np.arange(n), batch.tokens])
    _, unclipped, clipped = _reference_surrogate_terms(batch, advantages, new_logprobs, cfg)
    coeff = np.where(unclipped <= clipped, unclipped, 0.0)
    onehot = np.eye(policy.n_actions)[batch.tokens]
    grad_surrogate = ((onehot - probs) * coeff[:, None]).T @ phi / n
    grad_kl = (probs - ref_probs).T @ phi / n

    predicted = phi @ policy.value_weights
    raw, banded = _reference_value_errors(batch, returns, predicted, cfg)
    grad_value = (2.0 * (predicted - returns) * (raw >= banded)) @ phi / n
    return grad_surrogate - cfg.beta * grad_kl, grad_value


_NUMBER_RE = re.compile(rf"^{NUMBER_PATTERN}$")


def reference_parse_number(text: str) -> Fraction | None:
    """parse_number as one body: strip, match, convert."""
    text = text.strip()
    if not _NUMBER_RE.match(text):
        return None
    try:
        if "." in text or "/" in text:
            return Fraction(text)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        return None


def reference_parse_comment_value(comment: str) -> CommentAnnotation:
    """parse_comment_value read in two tries: the whole comment as a number,
    then the text after its last '='."""
    text = comment.strip()
    if text.endswith(","):
        text = text[:-1].rstrip()
    if text == "?":
        return CommentAnnotation(text, None, True)
    value = reference_parse_number(text)
    if value is not None:
        return CommentAnnotation(text, value, False)
    if "=" in text:
        value = reference_parse_number(text.rsplit("=", 1)[1])
        if value is not None:
            return CommentAnnotation(text, value, False)
    return CommentAnnotation(text, None, False)


# The parser's former tokenizer and token walk. parse_line must equal
# reference_parse_line on every line: kind, line number, message and
# annotation.

@dataclass(frozen=True)
class Token:
    kind: str  # ident | op | number | punct | description | comment | error
    text: str
    line: int = 1
    value: object = None


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A leading minus is part of the literal only in argument position; nothing
# else in statement bodies uses '-'.
_NUMBER_BODY = r"-?(?:\d+\.\d+|\d+(?:/\d+)?)"
_BRACKET_OP_RE = re.compile(rf"\[({_IDENT})\]")
_IDENT_RE = re.compile(_IDENT)
_NUMBER_BODY_RE = re.compile(_NUMBER_BODY)


def tokenize(source: str) -> list[Token]:
    """Tokenize every line of ``source``; empty input yields no tokens."""
    tokens: list[Token] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        tokens.extend(tokenize_line(raw, line_no))
    return tokens


def tokenize_line(raw: str, line_no: int = 1) -> list[Token]:
    body, hash_mark, comment = _split_line(raw)
    tokens = _scan_body(body, line_no)
    if hash_mark:
        tokens.append(Token("comment", comment.strip(), line_no))
    return tokens


def _scan_body(body: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(body)
    while i < n:
        ch = body[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "[":
            match = _BRACKET_OP_RE.match(body, i)
            if match is None:
                tokens.append(Token("error", ch, line_no))
                i += 1
                continue
            name = match.group(1)
            op = OPERATOR_BY_NAME.get(name)
            tokens.append(Token("op", name, line_no, op))
            i = match.end()
            if op is Operator.FIND:
                i = _capture_description(body, i, line_no, tokens)
            continue
        if ch in "(),=":
            tokens.append(Token("punct", ch, line_no))
            i += 1
            continue
        match = _NUMBER_BODY_RE.match(body, i)
        if match is not None:
            text = match.group()
            tokens.append(Token("number", text, line_no, parse_number(text)))
            i = match.end()
            continue
        match = _IDENT_RE.match(body, i)
        if match is not None:
            tokens.append(Token("ident", match.group(), line_no))
            i = match.end()
            continue
        tokens.append(Token("error", ch, line_no))
        i += 1
    return tokens


def _capture_description(body: str, i: int, line_no: int, tokens: list[Token]) -> int:
    """Capture a [find] argument as one free-text token.

    Descriptions may contain spaces and inner parentheses, so the argument
    runs from the opening parenthesis to the last ')' on the line body.
    """
    n = len(body)
    while i < n and body[i].isspace():
        i += 1
    if i >= n or body[i] != "(":
        return i
    tokens.append(Token("punct", "(", line_no))
    close = body.rfind(")")
    if close <= i:
        tokens.append(Token("description", body[i + 1 :].strip(), line_no))
        return n
    tokens.append(Token("description", body[i + 1 : close].strip(), line_no))
    tokens.append(Token("punct", ")", line_no))
    return close + 1


def reference_parse_line(raw: str, line_no: int = 1) -> Statement | ParseError | None:
    """parse_line by tokens: the token walk that classified every line
    before the scanning regex, kept unedited as the reference."""
    tokens = tokenize_line(raw, line_no)
    annotation = None
    if tokens and tokens[-1].kind == "comment":
        annotation = parse_comment_value(tokens[-1].text)
        tokens = tokens[:-1]
    if not tokens:
        return None

    def err(kind: str, message: str) -> ParseError:
        return ParseError(line_no, kind, message)

    for tok in tokens:
        if tok.kind == "error":
            return err("malformed-line", f"unexpected character {tok.text!r}")

    target: str | None = None
    pos = 0
    if tokens[0].kind == "ident":
        if len(tokens) < 2 or tokens[1].text != "=":
            return err("malformed-line", "expected '=' after the target variable")
        target = tokens[0].text
        pos = 2
    if pos >= len(tokens) or tokens[pos].kind != "op":
        return err("malformed-line", "expected a bracketed operator")
    op_token = tokens[pos]
    if op_token.value is None:
        return err("unknown-operator", f"unknown operator [{op_token.text}]")
    op: Operator = op_token.value
    pos += 1

    if op is Operator.RETURN and target is not None:
        return err("malformed-line", "[return] does not take a target variable")
    if op is not Operator.RETURN and target is None:
        return err("malformed-line", f"[{op.value}] requires a target variable")

    if pos >= len(tokens) or tokens[pos].text != "(":
        return err("malformed-line", "expected '(' after the operator")
    pos += 1

    args: list = []
    if op is Operator.FIND:
        if pos < len(tokens) and tokens[pos].kind == "description" and tokens[pos].text:
            args.append(tokens[pos].text)
            pos += 1
        else:
            return err("malformed-line", "[find] requires a quantity description")
    else:
        expect_arg = True
        while pos < len(tokens) and tokens[pos].text != ")":
            tok = tokens[pos]
            if expect_arg:
                if tok.kind == "ident":
                    args.append(VarRef(tok.text))
                elif tok.kind == "number":
                    if tok.value is None:
                        return err("malformed-line", f"invalid numeric literal {tok.text!r}")
                    args.append(tok.value)
                else:
                    return err("malformed-line", f"unexpected token {tok.text!r} in argument list")
                expect_arg = False
            else:
                if tok.text != ",":
                    return err("malformed-line", f"expected ',' before {tok.text!r}")
                expect_arg = True
            pos += 1
        if expect_arg and args:
            return err("malformed-line", "dangling ',' in argument list")

    if pos >= len(tokens) or tokens[pos].text != ")":
        return err("malformed-line", "expected ')' to close the argument list")
    pos += 1
    if pos < len(tokens):
        extra = " ".join(t.text for t in tokens[pos:])
        return err("trailing-garbage", f"unexpected text after ')': {extra!r}")

    arity = OPERATOR_ARITY[op]
    if len(args) != arity:
        return err(
            "bad-arity",
            f"[{op.value}] takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
        )
    if op is Operator.RETURN and not isinstance(args[0], VarRef):
        return err("malformed-line", "[return] takes a variable reference")

    return Statement(op, tuple(args), target=target, annotation=annotation)


class ReferenceSessionFeed(_SessionFeed):
    """The session feed whose line reader scans the whole buffer for a newline
    after every pull."""

    def read_line(self, context: str) -> str | None:
        while "\n" not in self.buffer:
            if len(self.buffer) > self.max_chars - self.consumed:
                break
            chunk = self.pull(context)
            if not chunk:
                break
            self.buffer += chunk
        line, newline, self.buffer = self.buffer.partition("\n")
        self.consumed += len(line) + len(newline)
        if self.consumed > self.max_chars:
            raise EvalError(
                "budget-exhausted", f"generator output exceeded {self.max_chars} characters"
            )
        return line if newline else line or None


def reference_session_program(
    text: str, chunk_size: int, budget: SessionBudget = SessionBudget()
) -> Program | None:
    """The program of a session that reads ``text`` in ``chunk_size`` chunks,
    annotated eagerly: each computed statement gets its ``annotation_text``
    comment and value as it is evaluated, and an arithmetic statement that
    fails keeps no comment. None when a line fails to parse or the statements
    fail the parser's static check, as ``parse_program`` gives."""
    feed = _SessionFeed(ScriptedGenerator(text, chunk_size), budget.max_chars)
    env = Environment()
    entries: list[tuple[int, Statement]] = []
    while len(entries) < budget.max_lines:
        try:
            line = feed.read_line("")
        except EvalError:  # past the character budget
            break
        if line is None:
            break
        stmt = parse_line(line, len(entries) + 1)
        if stmt is None:
            continue
        if isinstance(stmt, ParseError):
            stmt = _arithmetic_prefix(line)
            if stmt is None:
                return None
        if stmt.is_arithmetic:
            stmt = Statement(stmt.op, stmt.args, stmt.target)
        try:
            operands, value = _step(stmt, env)
        except EvalError:
            entries.append((len(entries) + 1, stmt))
            break
        if operands is not None:
            comment = annotation_text(stmt, operands, value)
            stmt = Statement(stmt.op, stmt.args, stmt.target, CommentAnnotation(comment, value))
        entries.append((len(entries) + 1, stmt))
        if stmt.is_return:
            break
    if _static_check(entries):
        return None
    return Program(tuple(stmt for _, stmt in entries))


@dataclass(frozen=True)
class ReferenceTranscript:
    """A transcript holding an ``EmittedLine`` built for each line as the
    session handled it. Its ``generated_source`` is a plain str."""

    prompt: str
    emitted_lines: tuple[EmittedLine, ...]
    outcome: EvalOutcome
    halted_count: int
    entries: tuple[tuple[int, Statement], ...] = field(compare=False, repr=False)
    # The solver's (comment, value) for each computed line, in order.
    _solved: tuple[tuple[str, Fraction], ...] = field(compare=False, repr=False)

    @property
    def generated_source(self) -> str:
        return "\n".join(line.text for line in self.emitted_lines)

    @property
    def program(self) -> Program | None:
        error = self.outcome.error
        if error is not None and (error.kind == "parse-error" or _static_check(self.entries)):
            return None
        solved = iter(self._solved)
        statements = []
        for _, stmt in self.entries:
            if stmt.is_arithmetic:
                pair = next(solved, None)
                annotation = None if pair is None else CommentAnnotation(*pair)
                stmt = Statement(stmt.op, stmt.args, stmt.target, annotation)
            statements.append(stmt)
        return Program(tuple(statements))


def reference_run_session(
    gen: GeneratorInterface,
    question: str,
    instructions: str = DEFAULT_INSTRUCTIONS,
    *,
    budget: SessionBudget = SessionBudget(),
) -> ReferenceTranscript:
    """The session loop that renders each line as it is handled: each
    computed comment, ``EmittedLine`` and context line is made at once."""
    prompt = assemble_prompt(question, instructions)
    context = prompt
    env = Environment()
    emitted: list[EmittedLine] = []
    entries: list[tuple[int, Statement]] = []
    solved: list[tuple[str, Fraction]] = []  # one per halt
    # Operand text of each variable rendered so far, by name.
    rendered: dict[str, str] = {}
    feed = _SessionFeed(gen, budget.max_chars)
    max_lines = budget.max_lines

    try:
        while True:
            line_no = len(emitted) + 1
            if line_no > max_lines:
                raise EvalError("budget-exhausted", f"line budget of {max_lines} exhausted")

            line = feed.read_line(context)
            if line is None:
                raise EvalError(
                    "generator-stalled", "generator ended before a [return] statement"
                )
            stmt = parse_line(line, line_no)
            if stmt is None:  # a blank or comment-only line; parse_program skips it too
                continue
            if isinstance(stmt, ParseError):
                prefix = _arithmetic_prefix(line)
                if prefix is None:
                    emitted.append(EmittedLine("generator", line.strip()))
                    raise EvalError("parse-error", f"{stmt.kind}: {stmt.message}")
                stmt = prefix

            if stmt.is_arithmetic:
                # The statement ends at its first ')'. The emitted line drops
                # the rest, the generator's comment included, and on success
                # carries the solver's.
                stmt_text = line[: line.index(")") + 1].strip()
            else:
                stmt_text = line.strip()
            entries.append((line_no, stmt))
            try:
                operands, value = _step(stmt, env)
            except EvalError as err:
                if err.statement_index is None:
                    err.statement_index = len(entries) - 1  # this statement, counted from 0
                emitted.append(EmittedLine("generator", stmt_text))
                raise
            if operands is None:
                emitted.append(EmittedLine("generator", stmt_text))
                context += stmt_text + "\n"
                if stmt.is_return:
                    return ReferenceTranscript(
                        prompt, tuple(emitted), EvalOutcome(value, env, None), len(solved),
                        tuple(entries), tuple(solved),
                    )
                continue
            # The comment is annotation_text(stmt, operands, value), with
            # each variable operand's text rendered once per session. It
            # ends in "= format_number(value)", so parse_comment_value
            # would read back this annotation.
            texts = []
            for arg, operand in zip(stmt.args, operands):
                if isinstance(arg, VarRef):
                    text = rendered.get(arg.name)
                    if text is None:  # a [find] value, on its first use
                        text = rendered[arg.name] = _operand_text(operand)
                else:
                    text = _operand_text(operand)
                texts.append(text)
            value_text = format_number(value)
            rendered[stmt.target] = _operand_text(value, value_text)
            comment = _annotation(stmt.op, texts, value_text)
            annotated = f"{stmt_text} # {comment}"
            emitted.append(EmittedLine("solver-injected", annotated))
            solved.append((comment, value))
            context += annotated + "\n"
    except EvalError as err:
        # Kept as data: its traceback would hold this call's frames alive.
        err.__traceback__ = None
        return ReferenceTranscript(
            prompt, tuple(emitted), EvalOutcome(None, env, err), len(solved),
            tuple(entries), tuple(solved),
        )


class ReferencePolicySession(PolicySession):
    """The policy step computed afresh at every step, with ``Generator.choice``.

    Reads the policy through the session's step table but none of its cached
    rows, and builds each state's features past ``_features``' cache. An
    operation line goes out in two chunks, the line without its newline and
    then the newline alone, so every comparison with this session also shows
    that where a line is cut changes nothing.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending: str | None = None

    def next_chunk(self, context: str) -> str:
        if self._pending is not None:
            chunk, self._pending = self._pending, None
            return chunk
        if self._done:
            return ""
        policy = self.table.policy
        phi = _features.__wrapped__(
            _cue_index(self.record.question), len(self.actions), self._finds, self._ops
        )
        probs = policy.action_probs(phi)
        if self.rng is None:
            action = int(np.argmax(probs))
        else:
            action = int(self.rng.choice(len(probs), p=probs))
        self.features.append(phi)
        self.actions.append(action)
        self.logprobs.append(float(np.log(probs[action])))
        self.values.append(policy.value(phi))
        self._advance(action)
        self._written += 1
        line = self._line(self._written - 1)
        if action in toy.OP_ACTIONS:
            line, self._pending = line[:-1], "\n"
        return line


def reference_step_row(probs: np.ndarray) -> dict:
    """A step row's fields from one state's probabilities, computed alone:
    the policy step as it was before rows were built in batches."""
    total = float(probs.sum())
    if np.isnan(total):
        p_error = "Probabilities contain NaN"
    elif (probs < 0).any():
        p_error = "Probabilities are not non-negative"
    elif abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        p_error = "Probabilities do not sum to 1"
    else:
        p_error = None
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return {
        "prob_sum_err": abs(total - 1.0),
        "argmax": int(np.argmax(probs)),
        "cdf": cdf,
        "p_error": p_error,
    }


def _reference_r2(v_gen: int, v_gold: int, cfg: RewardConfig) -> Fraction:
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
    gold_ops = Counter(s.op for s in gold.parsed_gold().statements)
    gen_ops = Counter() if gen is None else Counter(s.op for s in gen.statements)
    compiled = gen_ops[Operator.RETURN] > 0
    v_gen = gen_ops[Operator.FIND]
    v_gold = gold_ops[Operator.FIND]
    if v_gold < 1:
        raise ValueError(f"gold program for '{gold.id}' declares no [find] variables")
    # Counters keep first-occurrence order, which reaches the JSON.
    gen_counts = Counter({op: n for op, n in gen_ops.items() if op in BASIC_OPERATORS})
    gold_counts = Counter({op: n for op, n in gold_ops.items() if op in BASIC_OPERATORS})

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


@dataclass
class ReferenceEpisode:
    trajectory: Trajectory
    breakdown: RewardBreakdown
    session: PolicySession
    transcript: SessionTranscript


def reference_episode(table, record, reward_cfg=DEFAULT_REWARD_CONFIG, rng=None):
    """One episode played afresh on ``table``: a session through the runtime,
    scored, and packaged as a trajectory with the whole reward on its last
    step. Argmax with ``rng=None``. The session class, the runtime and the
    scorer are read off ``toy`` at each call, so a test that swaps one there
    swaps it here too."""
    session = toy.PolicySession(table.policy, record, rng, table=table)
    transcript = toy.run_session(session, record.question, budget=toy.DEMO_BUDGET)
    breakdown = toy._score_transcript(transcript, record, reward_cfg)
    trajectory = Trajectory(
        tokens=np.array(session.actions, dtype=int),
        state_features=np.array(session.features),
        logprobs_policy=np.array(session.logprobs),
        rewards=np.array([0.0] * (len(session.actions) - 1) + [float(breakdown.total)]),
        values=np.array(session.values + [0.0]),
    )
    return ReferenceEpisode(trajectory, breakdown, session, transcript)


def reference_train_ppo_demo(
    policy, tasks, reward_cfg=DEFAULT_REWARD_CONFIG, ppo_cfg=None, iterations=300, *,
    seed=0, batch_size=None,
):
    """``train_ppo_demo`` without the episode memo: every episode goes through
    ``reference_episode``, with a fresh ``run_session`` each time, and every epoch
    and the stats take the reference step on the unprepared batch."""
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
        table = toy._StepTable(policy)
        results = [reference_episode(table, rec, reward_cfg, rng) for rec in batch]
        trajectories = [r.trajectory for r in results]
        flat = Trajectory(
            tokens=np.concatenate([t.tokens for t in trajectories]),
            state_features=np.concatenate([t.state_features for t in trajectories]),
            logprobs_policy=np.concatenate([t.logprobs_policy for t in trajectories]),
            rewards=np.concatenate([t.rewards for t in trajectories]),
            values=np.append(np.concatenate([t.values[:-1] for t in trajectories]), 0.0),
        )
        advantages = np.concatenate([compute_gae(t, ppo_cfg) for t in trajectories])
        returns = advantages + flat.values[:-1]
        norm_adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        phi = flat.state_features
        # Sampling ran on the policy as it was before this update.
        prob_sum_err = max(0.0, *(abs(float(policy.action_probs(f).sum()) - 1.0) for f in phi))
        ref_probs = softmax(phi @ ref.weights.T)
        iter_cfg = replace(ppo_cfg, beta=beta)
        for _ in range(ppo_cfg.epochs):
            weights_step, value_step = reference_ppo_gradients(
                flat, norm_adv, returns, policy, ref_probs, iter_cfg
            )
            policy.weights += lr * weights_step
            policy.value_weights -= lr * VALUE_LR_SCALE * value_step

        probs = softmax(phi @ policy.weights.T)
        new_logprobs = np.log(probs[np.arange(flat.steps), flat.tokens])
        objective = reference_ppo_objective(
            flat, advantages, new_logprobs, iter_cfg, ref_dists=ref_probs, new_dists=probs
        )
        vloss = reference_value_loss(flat, returns, phi @ policy.value_weights, iter_cfg)
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
                prob_sum_err=prob_sum_err,
            )
        )
    return history
