"""Benchmark inputs: the record corpus, stream texts and op schedules.

Every input is derived from the workload seed through ``random.Random``, so
one seed always yields the same inputs. Gold answers of the synthesized chain
programs are computed here with plain ``fractions.Fraction`` arithmetic and
never with flsolve's interpreter; bundled and toy records keep their stored
answers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import flsolve as fl
from flsolve.toy import DEFAULT_TEMPLATES

# One synthesized chain program per length: program length is the input
# property parser and interpreter cost scale with, so every seed gets the
# same length mix and only the content varies. The chains outnumber the
# short bundled and toy records, so the median op falls among the evenly
# spread chain lengths rather than on the edge between two clusters of cost.
CHAIN_LENGTHS = tuple(range(8, 49))
TOY_RECORDS = 20

# Stream mix: every corpus record once as a gold replay (about two thirds of
# the pool) and PERTURBED_PER_KIND perturbed texts per kind.
PERTURBATION_KINDS = (
    "wrong-operator",
    "generator-comment",
    "prose-line",
    "missing-return",
    "division-by-zero",
)
PERTURBED_PER_KIND = 6
# The ROADMAP B defects: text after ``)`` gives other outcomes chunked than
# whole, and the program that squares a variable 14 times raises. They fail
# on every seed, so they form a pool of their own (``defect_pool``) that is
# checked, not timed.
# 0 feeds the whole text at once; 1..13 are chunk sizes in characters.
CHUNK_SIZES = (0,) + tuple(range(1, 14))

_NOUNS = (
    "apples", "marbles", "pages", "litres of juice", "metres of rope",
    "tickets", "coins", "boxes", "stickers", "minutes", "bricks", "seeds",
)
_QUALIFIERS = (
    "at the start", "bought on Monday", "sold", "given away", "in each bag",
    "left over", "added later", "shared out", "per shelf", "lost", "found",
    "used for the project",
)
_PROSE = (
    "Now combine the two amounts.",
    "Let me think step by step",
    "First we find what is left, then we share it",
    "The answer follows from the last step.",
)
_TRAILERS = (" extra", " so that is the total", " and then")
_BASIC = {"add": "+", "subtract": "-", "multiply": "*", "divide": "/"}


@dataclass(frozen=True)
class StreamText:
    """One generator text of the stream pool and what it is checked against."""

    record: fl.ProblemRecord
    text: str
    kind: str  # "gold", one of PERTURBATION_KINDS, "text-after-paren" or "square-14"

    @property
    def has_gold_answer(self) -> bool:
        return self.kind in ("gold", "square-14")


def _rng(purpose: str, seed: int) -> random.Random:
    return random.Random(f"{purpose}:{seed}")


def _round_half_away(x: Fraction) -> Fraction:
    sign = -1 if x < 0 else 1
    return sign * Fraction(math.floor(abs(x) + Fraction(1, 2)))


def _literal(rng: random.Random) -> tuple[str, Fraction]:
    if rng.random() < 0.3:
        text = f"{rng.randint(1, 99)}.{rng.randint(1, 99):02d}"
    else:
        text = str(rng.randint(1, 99))
    return text, Fraction(text)


def _small(value: Fraction) -> bool:
    return abs(value.numerator) < 10**7 and value.denominator < 10**4


def _apply(op: str, a: Fraction, b: Fraction) -> Fraction | None:
    """Reference semantics of the language's operators; None if not applicable."""
    if op == "add":
        return a + b
    if op == "subtract":
        return a - b
    if op == "multiply":
        return a * b
    if op == "divide":
        return a / b if b != 0 else None
    ints = a.denominator == 1 and b.denominator == 1 and a > 0 and b > 0
    if not ints:
        return None
    x, y = int(a), int(b)
    if op == "mod":
        return Fraction(x % y)
    if op == "gcd":
        return Fraction(math.gcd(x, y))
    return Fraction(math.lcm(x, y))


def chain_record(rng: random.Random, statements: int, ident: str) -> fl.ProblemRecord:
    """A straight-line program of ``statements`` lines with its exact answer."""
    lines: list[str] = []
    values: dict[str, Fraction] = {}
    finds: list[str] = []
    computed: list[str] = []

    def define(value: Fraction) -> str:
        name = f"var{len(values) + 1}"
        values[name] = value
        return name

    def add_find() -> None:
        text, value = _literal(rng)
        name = define(value)
        finds.append(name)
        desc = f"{rng.choice(_NOUNS)} {rng.choice(_QUALIFIERS)}"
        lines.append(f"{name} = [find]({desc}) # {text}")

    add_find()
    add_find()
    while len(lines) < statements - 1:
        if len(lines) < statements - 2 and rng.random() < 0.25:
            add_find()
            continue
        left = computed[-1] if computed else rng.choice(finds)
        a = values[left]
        roll = rng.random()
        if roll < 0.08 and a.denominator != 1:
            op = rng.choice(("round", "floor"))
            result = _round_half_away(a) if op == "round" else Fraction(math.floor(a))
            name = define(result)
            lines.append(f"{name} = [{op}]({left}) # {op}({a}) = {result}")
            computed.append(name)
            continue
        if rng.random() < 0.15:
            right, b = _literal(rng)
        else:
            right = rng.choice([v for v in values if v != left])
            b = values[right]
        if roll < 0.16:
            candidates = [rng.choice(("mod", "gcd", "lcm"))]
        else:
            candidates = rng.sample(list(_BASIC), 4)
        for op in candidates + ["add"]:
            result = _apply(op, a, b)
            if result is not None and _small(result):
                break
        else:
            op, result = "subtract", a - b
        name = define(result)
        if op in _BASIC:
            comment = f"{a} {_BASIC[op]} {b} = {result}"
        else:
            comment = f"{op}({a}, {b}) = {result}"
        lines.append(f"{name} = [{op}]({left}, {right}) # {comment}")
        computed.append(name)
    answer = computed[-1]
    lines.append(f"[return]({answer}) # {values[answer]}")
    question = (
        f"Start from the {lines[0].split('(', 1)[1].split(')')[0]} and work through "
        f"{statements - 1} steps. What is the final amount?"
    )
    return fl.ProblemRecord(ident, question, "\n".join(lines), values[answer])


def square_record() -> fl.ProblemRecord:
    """ROADMAP B: a 16-line program squaring a variable 14 times."""
    lines = ["var1 = [find](side length) # 10"]
    for i in range(2, 16):
        lines.append(f"var{i} = [multiply](var{i - 1}, var{i - 1})")
    lines.append("[return](var15)")
    question = "A number starts at 10 and is squared 14 times. What is the result?"
    return fl.ProblemRecord("square-14", question, "\n".join(lines), Fraction(10) ** (2**14))


def build_corpus(seed: int) -> list[fl.ProblemRecord]:
    """Bundled examples, toy tasks and synthesized chains, in that order."""
    rng = _rng("chains", seed)
    records = list(fl.bundled_examples().records)
    records += fl.generate_toy_tasks(seed, TOY_RECORDS, DEFAULT_TEMPLATES)
    records += [
        chain_record(rng, n, f"chain-{seed}-{n:02d}") for n in CHAIN_LENGTHS
    ]
    return records


def replay_text(record: fl.ProblemRecord) -> list[str]:
    """Gold program lines as a generator would write them: no computed comments."""
    out = []
    for line in record.gold_program.splitlines():
        if "[find]" not in line:
            line = line.split("#", 1)[0].rstrip()
        out.append(line)
    return out


def _arithmetic_lines(lines: list[str]) -> list[int]:
    return [
        i for i, line in enumerate(lines)
        if "=" in line and "[find]" not in line and "[return]" not in line
    ]


def perturb(kind: str, lines: list[str], rng: random.Random) -> list[str] | None:
    """One language-model mistake applied to a replay text; None if inapplicable."""
    lines = list(lines)
    arith = _arithmetic_lines(lines)
    if kind == "wrong-operator":
        basic = [i for i in arith if any(f"[{op}]" in lines[i] for op in _BASIC)]
        if not basic:
            return None
        i = rng.choice(basic)
        old = next(op for op in _BASIC if f"[{op}]" in lines[i])
        new = rng.choice([op for op in _BASIC if op != old])
        lines[i] = lines[i].replace(f"[{old}]", f"[{new}]", 1)
    elif kind == "generator-comment":
        i = rng.choice(arith)
        lines[i] += f" # {rng.randint(1, 99)}"
    elif kind == "text-after-paren":
        i = rng.choice(arith)
        lines[i] += rng.choice(_TRAILERS)
    elif kind == "prose-line":
        lines.insert(rng.randint(1, len(lines) - 1), rng.choice(_PROSE))
    elif kind == "missing-return":
        lines.pop()
    elif kind == "division-by-zero":
        target = lines[rng.choice(arith)].split("=", 1)[0].strip()
        lines[-1:-1] = [
            "var90 = [find](an empty amount) # 0",
            f"var91 = [divide]({target}, var90)",
        ]
    else:
        raise ValueError(f"unknown perturbation {kind!r}")
    return lines


def _perturbed(seed: int, kind: str, corpus: list[fl.ProblemRecord]) -> list[StreamText]:
    """PERTURBED_PER_KIND texts of one kind, one per length stratum of the corpus.

    Every seed thus perturbs the same mix of short and long programs.
    """
    rng = _rng(f"stream-{kind}", seed)
    by_length = sorted(corpus, key=lambda r: len(r.gold_program))
    stratum = len(by_length) / PERTURBED_PER_KIND
    texts = []
    for j in range(PERTURBED_PER_KIND):
        pos = int((j + rng.random()) * stratum)
        for record in by_length[pos:] + by_length[:pos]:
            lines = perturb(kind, replay_text(record), rng)
            if lines is not None:
                texts.append(StreamText(record, "\n".join(lines), kind))
                break
    return texts


def stream_pool(seed: int, corpus: list[fl.ProblemRecord]) -> list[StreamText]:
    """Gold replays of the whole corpus and perturbed texts of every kind."""
    pool = [StreamText(r, "\n".join(replay_text(r)), "gold") for r in corpus]
    for kind in PERTURBATION_KINDS:
        pool += _perturbed(seed, kind, corpus)
    return pool


def defect_pool(seed: int, corpus: list[fl.ProblemRecord]) -> list[StreamText]:
    """Texts that hit the ROADMAP B defects: text after ``)``, then the squaring."""
    square = square_record()
    return _perturbed(seed, "text-after-paren", corpus) + [
        StreamText(square, "\n".join(replay_text(square)), "square-14")
    ]


def replay_schedule(seed: int, size: int) -> Iterator[int]:
    """Corpus indices, one seeded shuffled pass after another."""
    rng = _rng("replay-order", seed)
    order = list(range(size))
    while True:
        rng.shuffle(order)
        yield from order


def stream_schedule(seed: int, size: int) -> Iterator[tuple[int, int]]:
    """Every (pool index, chunk size) pair once per seeded shuffled pass."""
    rng = _rng("stream-order", seed)
    pairs = [(i, c) for i in range(size) for c in CHUNK_SIZES]
    while True:
        rng.shuffle(pairs)
        yield from pairs
