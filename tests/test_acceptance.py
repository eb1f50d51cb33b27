"""End-to-end acceptance checks.

Each test prints one ``criterion N [label]: PASS|FAIL`` line (visible with
``pytest -s``) and then asserts, so a red run names exactly which bar was
missed. Run just this file for a release gate:

    pytest tests/test_acceptance.py -s
"""

import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from flsolve import (
    DatasetFile,
    GeneratorSpec,
    PpoConfig,
    ProblemRecord,
    Program,
    ScriptedGenerator,
    SINGLE_OP_TEMPLATES,
    ToyPolicy,
    bundled_examples,
    compute_gae,
    evaluate,
    evaluate_corpus,
    generate_toy_tasks,
    greedy_accuracy,
    load_dataset,
    operator_stats,
    ordered_stats,
    parse_program,
    policy_logprob_and_grad,
    run_session,
    strip_computed_comments,
    total_reward,
    train_ppo_demo,
    validate_dataset,
)
from flsolve.parser import PARSE_ERROR_KINDS, parse_line
from flsolve.ppo import Trajectory
from flsolve.program import Statement
from flsolve.toy import ACTION_NAMES, N_FEATURES, demo_config

import oracles

GOLDEN_ANSWERS = {
    "action-figures": Fraction(11),
    "goal-count": Fraction(54),
    "wire-length": Fraction(1285, 100),
    "rope-skipping": Fraction(120),
    "road-repair": Fraction(40),
}

GOLD_VS_GOLD_TOTALS = {
    "action-figures": Fraction(5),
    "goal-count": Fraction(5),
    "wire-length": Fraction(5),
    "rope-skipping": Fraction(6),
    "road-repair": Fraction(5),
}

FULL_DATASET_ENV = "FLSOLVE_FULL_DATASET"

FULL_DATASET_FREQUENCY = {
    "multiply": 3950,
    "divide": 2931,
    "add": 3171,
    "subtract": 3125,
    "lcm": 104,
    "gcd": 90,
    "round": 74,
    "floor": 12,
    "mod": 9,
}


def report(number: int, label: str, ok: bool) -> bool:
    print(f"criterion {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="session")
def demo_run():
    """One full training run shared by the gradient and convergence checks."""
    tasks = generate_toy_tasks(seed=0, count=16, templates=SINGLE_OP_TEMPLATES)
    heldout = generate_toy_tasks(seed=1, count=32, templates=SINGLE_OP_TEMPLATES)
    policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
    start = time.perf_counter()
    history = train_ppo_demo(policy, tasks, ppo_cfg=demo_config(), iterations=300, seed=0)
    accuracy = greedy_accuracy(policy, heldout)
    elapsed = time.perf_counter() - start
    return history, accuracy, elapsed


def test_criterion_1_golden_answers():
    records = bundled_examples().records
    start = time.perf_counter()
    answers = {}
    for record in records:
        program = parse_program(record.gold_program)
        assert isinstance(program, Program)
        answers[record.id] = evaluate(program).answer
    elapsed = time.perf_counter() - start
    exact = all(answers[rid] == GOLDEN_ANSWERS[rid] for rid in GOLDEN_ANSWERS)
    ok = exact and set(answers) == set(GOLDEN_ANSWERS) and elapsed < 1.0
    assert report(1, "golden-answers", ok), (answers, elapsed)


def test_criterion_2_replay_reconstructs_annotations():
    records = bundled_examples().records
    all_injected: list[str] = []
    fidelity = True
    for record in records:
        stripped = strip_computed_comments(record.gold_program)
        transcript = run_session(ScriptedGenerator(stripped), record.question)
        original_arithmetic = [
            line
            for line in record.gold_program.splitlines()
            if (parsed := parse_line(line, 1)) is not None
            and isinstance(parsed, Statement)
            and parsed.is_arithmetic
        ]
        injected = [
            l.text for l in transcript.emitted_lines if l.source == "solver-injected"
        ]
        all_injected.extend(injected)
        fidelity &= injected == original_arithmetic
        fidelity &= transcript.outcome.answer == record.gold_answer

    joined = "\n".join(all_injected)
    named = all(
        comment in joined
        for comment in (
            "# 7 - 10 = -3",
            "# 8 - (-3) = 11",
            "# 570 - 250 = 320",
            "# 320 / 8 = 40",
        )
    )
    accuracy = evaluate_corpus(bundled_examples(), GeneratorSpec("gold-replay")).accuracy
    ok = fidelity and named and accuracy == 100.0
    assert report(2, "replay-annotations", ok), (fidelity, named, accuracy)


def test_criterion_3_reward_golden_values():
    records = {r.id: r for r in bundled_examples().records}
    ok = True
    for record_id, expected_total in GOLD_VS_GOLD_TOTALS.items():
        record = records[record_id]
        b = total_reward(record.gold_program, record)
        ok &= (b.r1, b.r2, b.r4) == (1, 1, 1)
        ok &= b.total == expected_total

    jerry = records["action-figures"]
    swapped = total_reward(
        jerry.gold_program.replace("[subtract](var1, var3)", "[add](var1, var3)", 1), jerry
    )
    ok &= swapped.r3 == Fraction(-1, 2)
    ok &= swapped.r4 == Fraction(-9, 11)
    ok &= swapped.total == Fraction(15, 22)

    padded = total_reward(
        jerry.gold_program.replace(
            "[return]", "var7 = [find](unused extra quantity) # 1\n[return]", 1
        ),
        jerry,
    )
    ok &= padded.r2 == Fraction(3, 4)
    ok &= padded.total == Fraction(19, 4)

    road = records["road-repair"]
    edited = total_reward(road.gold_program.replace("# 250", "# 330", 1), road)
    ok &= edited.r4 == Fraction(3, 4)
    ok &= edited.total == Fraction(19, 4)

    assert report(3, "reward-golden", ok)


def test_criterion_4_gae_against_direct_summation():
    rng = np.random.default_rng(2024)
    grid = [(g, l) for g in (0.5, 0.9, 0.95, 0.99, 1.0) for l in (0.5, 0.9, 0.95, 0.99, 1.0)]
    worst = 0.0
    start = time.perf_counter()
    for i in range(1000):
        gamma, lam = grid[i % len(grid)]
        steps = int(rng.integers(1, 17))
        rewards = rng.normal(size=steps)
        values = rng.normal(size=steps + 1)
        traj = Trajectory(
            tokens=np.zeros(steps, dtype=int),
            state_features=np.zeros((steps, 1)),
            logprobs_policy=np.zeros(steps),
            logprobs_ref=np.zeros(steps),
            rewards=rewards,
            values=values,
        )
        fast = compute_gae(traj, PpoConfig(gamma=gamma, lam=lam))
        slow = oracles.gae_direct(list(rewards), list(values), gamma, lam)
        worst = max(worst, float(np.abs(fast - np.array(slow)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report(4, "gae-oracle", ok), (worst, elapsed)


def test_criterion_5_gradients_and_probabilities(demo_run):
    rng = np.random.default_rng(1999)
    worst_rel = 0.0
    for _ in range(100):
        policy = ToyPolicy(rng.normal(size=(5, 8)), np.zeros(8))
        phi = rng.normal(size=8)
        action = int(rng.integers(5))
        _, grad = policy_logprob_and_grad(policy, phi, action)
        fd = oracles.central_fd_logprob_grad(policy, phi, action)
        scale = max(1.0, float(np.abs(fd).max()))
        worst_rel = max(worst_rel, float(np.abs(grad - fd).max()) / scale)

    history, _, _ = demo_run
    prob_sum_err = max(s.prob_sum_err for s in history)
    ok = worst_rel <= 1e-5 and prob_sum_err <= 1e-12
    assert report(5, "gradient-exactness", ok), (worst_rel, prob_sum_err)


def test_criterion_6_demo_learns(demo_run):
    history, accuracy, elapsed = demo_run
    gain = history[-1].mean_total_reward - history[0].mean_total_reward
    ok = gain >= 2.0 and accuracy >= 0.9 and elapsed < 300.0
    assert report(6, "ppo-demo-gain", ok), (gain, accuracy, elapsed)


def test_criterion_7_validation_flags_planted_corruptions(tmp_path):
    clean = bundled_examples().records
    wrong_answer = ProblemRecord(
        id="planted-answer",
        question=clean[0].question,
        gold_program=clean[0].gold_program,
        gold_answer=clean[0].gold_answer + 1,
    )
    typo = ProblemRecord(
        id="planted-operator",
        question=clean[0].question,
        gold_program=clean[0].gold_program.replace("[subtract]", "[substract]", 1),
        gold_answer=clean[0].gold_answer,
    )
    dangling = ProblemRecord(
        id="planted-variable",
        question=clean[1].question,
        gold_program=clean[1].gold_program.replace("(var1, var2)", "(var1, var9)", 1),
        gold_answer=clean[1].gold_answer,
    )
    report_obj = validate_dataset(
        DatasetFile(tuple(clean) + (wrong_answer, typo, dangling), "inline")
    )
    flagged = {f.record_id: f.reason for f in report_obj.failures}
    ok = report_obj.passed == len(clean) and flagged == {
        "planted-answer": "answer-mismatch",
        "planted-operator": "parse-error",
        "planted-variable": "parse-error",
    }

    full_path = os.environ.get(FULL_DATASET_ENV)
    if full_path:
        full = load_dataset(full_path)
        frequency = ordered_stats(operator_stats(full))
        ok &= frequency == FULL_DATASET_FREQUENCY
        full_report = validate_dataset(full, workers=os.cpu_count() or 1)
        ok &= full_report.failed == 0

    assert report(7, "dataset-validation", ok), flagged


def test_criterion_8_parser_survives_random_bytes():
    rng = random.Random(0xF422)
    crashes = 0
    stray_kinds: set[str] = set()
    for _ in range(100_000):
        blob = rng.randbytes(rng.randint(0, 64))
        text = blob.decode("utf-8", errors="replace")
        try:
            result = parse_program(text)
        except Exception:
            crashes += 1
            continue
        if isinstance(result, Program):
            continue
        for error in result:
            if error.kind not in PARSE_ERROR_KINDS:
                stray_kinds.add(error.kind)
    ok = crashes == 0 and not stray_kinds
    assert report(8, "parser-fuzz", ok), (crashes, stray_kinds)
