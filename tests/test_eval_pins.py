"""Whole ``flsolve eval`` reports, pinned by sha256.

Each case runs ``evaluate_corpus`` on one dataset with one generator spec
and hashes the report's JSON. The datasets are the bundled fixtures, 60 toy
tasks and three hand-built chains of 30 or more statements; the generators
are gold replays, fed whole and in 3-character chunks, and two fixed
scripts, one of which ends in division by zero. The digests were taken
before sessions queued the comments that no pull needs, so a change to
where or when comments are rendered, or to how a replay is fed, cannot
move a report.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from flsolve import (
    DatasetFile,
    GeneratorSpec,
    ProblemRecord,
    bundled_examples,
    evaluate,
    evaluate_corpus,
    generate_toy_tasks,
    parse_program,
)


def chain_record(name: str, finds: list[str], steps: list[str]) -> ProblemRecord:
    """A left-deep chain: the finds, then each step applied to the value
    before it (``"add var2"``, ``"divide 4"``, ``"round"``), then [return].
    Every third computed line carries a comment that a replay strips."""
    lines = [f"var{i} = [find](quantity {i}) # {value}" for i, value in enumerate(finds, 1)]
    left = "var1"
    for j, step in enumerate(steps):
        target = f"var{len(finds) + j + 1}"
        op, _, right = step.partition(" ")
        args = f"{left}, {right}" if right else left
        comment = " # stale" if j % 3 == 0 else ""
        lines.append(f"{target} = [{op}]({args}){comment}")
        if j % 10 == 9:
            lines.append("")
        left = target
    lines.append(f"[return]({left})")
    program = "\n".join(lines)
    answer = evaluate(parse_program(program)).answer
    return ProblemRecord(name, f"A chain of {len(steps)} steps from {finds[0]}.", program, answer)


CHAINS = DatasetFile(
    (
        chain_record(
            "four-operator-cycle",
            ["12", "7", "3", "2.5"],
            ["add var2", "multiply var3", "subtract var4", "divide var2"] * 7 + ["add 1", "divide 9"],
        ),
        chain_record(
            "integer-operators",
            ["360", "84", "15", "9"],
            ["add var4", "lcm var3", "mod var2", "multiply var4", "gcd var1", "add var3",
             "floor", "subtract 2"] * 4,
        ),
        chain_record(
            "fractions-and-rounding",
            ["-4.5", "1.25", "3", "?"],
            ["subtract var2", "divide var3", "multiply var2", "round", "divide 7", "add var1",
             "floor", "multiply 0.5", "subtract var3", "divide 3"] * 3 + ["round"],
        ),
    ),
    "chains",
)

SCRIPT_ANSWERS = (
    "var1 = [find](first quantity) # 12\n"
    "var2 = [find](second quantity) # 7\n"
    "var3 = [multiply](var1, var2) # 80\n"
    "var4 = [divide](var3, 3)\n"
    "\n"
    "var5 = [subtract](var4, var2) # a guess\n"
    "[return](var5)\n"
)
SCRIPT_DIVIDES_BY_ZERO = (
    "var1 = [find](a) # 3\n"
    "var2 = [subtract](var1, 3)\n"
    "var3 = [add](var1, var1)\n"
    "var4 = [divide](var3, var2)\n"
    "[return](var4)"
)

DATASETS = {
    "fixtures": lambda: bundled_examples(),
    "toy-5-60": lambda: DatasetFile(tuple(generate_toy_tasks(5, 60)), "toy"),
    "chains": lambda: CHAINS,
}
SPECS = {
    "gold-replay-0": GeneratorSpec("gold-replay"),
    "gold-replay-3": GeneratorSpec("gold-replay", chunk_size=3),
    "answers-0": GeneratorSpec("scripted", SCRIPT_ANSWERS),
    "answers-3": GeneratorSpec("scripted", SCRIPT_ANSWERS, 3),
    "divides-by-zero-0": GeneratorSpec("scripted", SCRIPT_DIVIDES_BY_ZERO),
    "divides-by-zero-3": GeneratorSpec("scripted", SCRIPT_DIVIDES_BY_ZERO, 3),
}


def report_digest(dataset: str, spec: str) -> str:
    report = evaluate_corpus(DATASETS[dataset](), SPECS[spec])
    text = json.dumps(report.to_json())  # as `flsolve eval` prints it
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    ("fixtures", "gold-replay-0"): "f0ac35d0e7369d435e8043d422005e88d9037ab04951d9c8d7b5ad226b8f818e",
    ("fixtures", "gold-replay-3"): "f0ac35d0e7369d435e8043d422005e88d9037ab04951d9c8d7b5ad226b8f818e",
    ("fixtures", "answers-0"): "a0e8e3c8b6c733d48c7a06d35c4d8ea3d7d22689653087249865bcd8b1417ee2",
    ("fixtures", "answers-3"): "a0e8e3c8b6c733d48c7a06d35c4d8ea3d7d22689653087249865bcd8b1417ee2",
    ("fixtures", "divides-by-zero-0"): "f92cbb33255d7e0843dde6af54e75256f2d0058ef2f5246b5c59a5921d0ba8cd",
    ("fixtures", "divides-by-zero-3"): "f92cbb33255d7e0843dde6af54e75256f2d0058ef2f5246b5c59a5921d0ba8cd",
    ("toy-5-60", "gold-replay-0"): "d5d46d1397a04018ed85883e9582fa81b610d1d0e1b820ada53ae945d4ef6527",
    ("toy-5-60", "gold-replay-3"): "d5d46d1397a04018ed85883e9582fa81b610d1d0e1b820ada53ae945d4ef6527",
    ("toy-5-60", "answers-0"): "acd3aed394c1525821538a4add0fe71cd56efdbdf653262ec1ec2c9847422cd6",
    ("toy-5-60", "answers-3"): "acd3aed394c1525821538a4add0fe71cd56efdbdf653262ec1ec2c9847422cd6",
    ("toy-5-60", "divides-by-zero-0"): "7054917cb7789840e13e019031d22cdff50185f2ab1497a5deccbf082bf9eb3c",
    ("toy-5-60", "divides-by-zero-3"): "7054917cb7789840e13e019031d22cdff50185f2ab1497a5deccbf082bf9eb3c",
    ("chains", "gold-replay-0"): "88d9a6273ee85b1707edc47d6e156f123fa39cb32dd00849e9cd852843508bd2",
    ("chains", "gold-replay-3"): "88d9a6273ee85b1707edc47d6e156f123fa39cb32dd00849e9cd852843508bd2",
    ("chains", "answers-0"): "c6def32e9131820da66b4aa1e96a066a9ab695cad34cd7516419b9b24b3abc90",
    ("chains", "answers-3"): "c6def32e9131820da66b4aa1e96a066a9ab695cad34cd7516419b9b24b3abc90",
    ("chains", "divides-by-zero-0"): "b0979a5127f57678a07c0d04d969d878a7d9df28f1cbe8abd413a897564e24a2",
    ("chains", "divides-by-zero-3"): "b0979a5127f57678a07c0d04d969d878a7d9df28f1cbe8abd413a897564e24a2",
}


@pytest.mark.parametrize("dataset, spec", sorted(DIGESTS))
def test_report_is_pinned(dataset, spec):
    assert report_digest(dataset, spec) == DIGESTS[dataset, spec]


def test_every_case_is_pinned():
    assert set(DIGESTS) == {(d, s) for d in DATASETS for s in SPECS}


def test_the_chains_are_long_and_answer():
    for record in CHAINS.records:
        assert len(record.parsed_gold().statements) >= 30
        assert isinstance(record.gold_answer, Fraction)
    report = evaluate_corpus(CHAINS, SPECS["gold-replay-0"])
    assert report.correct == len(CHAINS)


def test_one_script_ends_in_division_by_zero():
    report = evaluate_corpus(CHAINS, SPECS["divides-by-zero-3"]).to_json()
    assert report["error_kinds"] == {"division-by-zero": len(CHAINS)}
