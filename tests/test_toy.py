"""Toy environment: task generation, the action protocol, demo training."""

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsolve import (
    ACTION_NAMES,
    DEFAULT_REWARD_CONFIG,
    N_FEATURES,
    SINGLE_OP_TEMPLATES,
    Operator,
    PpoConfig,
    ProblemRecord,
    Program,
    ToyPolicy,
    answers_match,
    demo_config,
    evaluate,
    format_number,
    generate_toy_tasks,
    greedy_accuracy,
    parse_line,
    parse_program,
    run_session,
    total_reward,
    train_ppo_demo,
)
from flsolve import toy
from flsolve.ppo import softmax
from flsolve.toy import (
    CUE_KEYWORDS,
    CUE_OPERATORS,
    DEMO_BUDGET,
    DEMO_LEARNING_RATE,
    DEFAULT_TEMPLATES,
    PolicySession,
    _StepRow,
    _StepTable,
    _cue_index,
    _features,
    _read_question,
)

import oracles


def play(policy: ToyPolicy, record, rng=None):
    """One episode of ``policy`` on ``record``: its session and transcript."""
    session = PolicySession(policy, record, rng)
    return session, run_session(session, record.question, budget=DEMO_BUDGET)


def reference_episode(policy: ToyPolicy, record, rng=None):
    """One episode of ``policy`` on ``record`` with its score and trajectory."""
    return oracles.reference_episode(_StepTable(policy), record, rng=rng)


def optimal_policy() -> ToyPolicy:
    """Weights that play every single-operation task perfectly."""
    policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
    W = policy.weights
    W[0, 4] = 100.0  # step 0: declare the first quantity
    W[1, 5] = 100.0  # step 1: declare the second
    for c in range(4):
        W[2 + c, 6] = 100.0  # step 2: take an operation...
        W[2 + c, c] = 50.0  # ...and let the cue pick which one
    W[6, 7] = 100.0  # step 3: declare the answer
    return policy


@pytest.fixture(scope="module")
def single_op_tasks():
    return generate_toy_tasks(seed=7, count=16, templates=SINGLE_OP_TEMPLATES)


class TestTaskGeneration:
    def test_deterministic_for_a_seed(self):
        assert generate_toy_tasks(3, 10) == generate_toy_tasks(3, 10)
        assert generate_toy_tasks(3, 10) != generate_toy_tasks(4, 10)

    def test_round_robin_templates(self):
        tasks = generate_toy_tasks(0, 10)
        markers = ["altogether", "left", "in all", "shared equally", "marbles"]
        for i, task in enumerate(tasks):
            assert markers[i % 5] in task.question

    def test_gold_programs_parse_evaluate_and_self_verify(self):
        for task in generate_toy_tasks(11, 20):
            program = parse_program(task.gold_program)
            assert isinstance(program, Program), task.id
            outcome = evaluate(program, strict_annotations=True)
            assert outcome.error is None, task.id
            assert outcome.answer == task.gold_answer, task.id

    @pytest.mark.parametrize(
        "seed, templates, digest",
        [
            (0, "DEFAULT", "c80a441545f10e9584dfad14d106a037aa26db908db8698cdcc5885128199cbc"),
            (0, "SINGLE_OP", "24add3e3182ef3e5748b3ff2114be6a39591209ed72d4c90e4b5a770f54a3737"),
            (7, "DEFAULT", "3329cf23130a4a0ead9b1ca3c486e1972949c21763b954bb9454f6e1ff7145fb"),
            (7, "SINGLE_OP", "a596b216bebeb582a630a66a110f5ebd63d3d69c7dc6c04eff0839a8ec1137a3"),
            (41, "DEFAULT", "bd509a8aa14843354df4567129f060ac7aaf399090960e9c2ac02f32c733cfd2"),
            (41, "SINGLE_OP", "a5134d4f126182eb500cb6d65a0b1d31911768f34e34206684873c5bef740522"),
        ],
    )
    def test_task_bytes_are_pinned(self, seed, templates, digest):
        tasks = generate_toy_tasks(seed, 60, getattr(toy, f"{templates}_TEMPLATES"))
        rows = [[t.id, t.question, t.gold_program, format_number(t.gold_answer)] for t in tasks]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    def test_gold_program_carries_solver_comments(self):
        (task,) = generate_toy_tasks(0, 1, toy.CHAIN_TEMPLATES)
        assert task.gold_program == (
            "var1 = [find](the number of marbles Tom started with) # 17\n"
            "var2 = [find](the number of marbles Tom won) # 15\n"
            "var3 = [find](the number of marbles Tom gave away) # 2\n"
            "var4 = [add](var1, var2) # 17 + 15 = 32\n"
            "var5 = [subtract](var4, var3) # 32 - 2 = 30\n"
            "[return](var5) # 30"
        )
        assert task.gold_answer == 30

    def test_template_that_does_not_run_is_named(self):
        rounding = toy.TaskTemplate(
            name="rounding",
            question="Round {0} and {1}.",
            descriptions=("the first number", "the second number"),
            ops=(Operator.ROUND,),
        )
        with pytest.raises(ValueError, match="template 'rounding' does not run: parse-error"):
            generate_toy_tasks(0, 1, [rounding])

    def test_division_tasks_come_out_whole(self):
        quotient = [t for t in SINGLE_OP_TEMPLATES if t.ops == (Operator.DIVIDE,)]
        for task in generate_toy_tasks(5, 12, templates=quotient):
            assert task.gold_answer.denominator == 1
            assert task.gold_answer >= 2

    def test_subtraction_tasks_stay_positive(self):
        difference = [t for t in SINGLE_OP_TEMPLATES if t.ops == (Operator.SUBTRACT,)]
        for task in generate_toy_tasks(5, 12, templates=difference):
            assert task.gold_answer > 0

    def test_ids_encode_seed_and_index(self):
        tasks = generate_toy_tasks(9, 3)
        assert [t.id for t in tasks] == ["toy-9-0000", "toy-9-0001", "toy-9-0002"]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_toy_tasks(0, -1)
        with pytest.raises(ValueError):
            generate_toy_tasks(0, 4, templates=())
        assert generate_toy_tasks(0, 0) == []


class TestReadQuestion:
    """The policy's quantities are the question's numbers, in order."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=0)
    def test_question_numbers_are_the_gold_quantities(self, seed):
        # Templates are taken round-robin: one task of each, the chain too.
        for task in generate_toy_tasks(seed, len(DEFAULT_TEMPLATES), DEFAULT_TEMPLATES):
            gold = [s.annotation.declared_value for s in task.parsed_gold().statements if s.is_find]
            cue, tails = _read_question(task.question)
            assert cue == _cue_index(task.question)
            assert type(tails) is tuple
            assert len(tails) == len(gold) > 0, task.id
            for i, (tail, value) in enumerate(zip(tails, gold), start=1):
                assert tail.endswith("\n")
                stmt = parse_line(f"var{i}" + tail[:-1])
                assert stmt.is_find and stmt.target == f"var{i}", (task.id, tail)
                assert stmt.args == (f"quantity {i}",)
                assert stmt.annotation.declared_value == value, (task.id, tail)

    @pytest.mark.parametrize(
        "question, values",
        [
            ("Children of ages 3-5 may join.", [3, 5]),  # a hyphen, not a sign
            ("It is -3 degrees outside.", [3]),  # a dash: the toy writes no negative
            ("Apples are $2.50 each.", [Fraction(5, 2)]),
            ("Take 1/4 of 12 cakes.", [Fraction(1, 4), 12]),
            ("Sold 12. Kept 3.", [12, 3]),
        ],
    )
    def test_reads_unsigned_literals_in_order(self, question, values):
        cue, tails = _read_question(question)
        assert cue is None
        assert type(tails) is tuple
        declared = [parse_line("var1" + tail[:-1]).annotation.declared_value for tail in tails]
        assert declared == values

    def test_renders_the_shortest_value(self):
        assert _read_question("Apples are $2.50 each.")[1] == (" = [find](quantity 1) # 2.5\n",)

    @pytest.mark.parametrize(
        "question, message",
        [
            ("How many apples altogether?", r"'How many apples altogether\?' holds no quantities"),
            ("", "'' holds no quantities"),
            ("Share 3/0 of it", "holds a number that does not parse"),
        ],
    )
    def test_rejects_a_question_without_readable_quantities(self, question, message):
        # A failed read is not cached: every call raises.
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                _read_question(question)


class TestCuesAndFeatures:
    def test_each_single_op_question_has_exactly_one_cue(self):
        for template in SINGLE_OP_TEMPLATES:
            question = template.question.format(3, 4)
            present = [k for k in CUE_KEYWORDS if k in question.lower()]
            assert len(present) == 1, template.name
            assert CUE_KEYWORDS[present[0]] == template.ops[0]

    def test_question_cue_reads_the_operator(self):
        for template in SINGLE_OP_TEMPLATES:
            cue = _cue_index(template.question.format(3, 4))
            assert CUE_OPERATORS[cue] is template.ops[0]
        assert _cue_index("What is seven plus three?") is None

    def test_feature_vector_layout(self):
        phi = _features(_cue_index("How many apples altogether?"), lines=2, finds=2, ops=0)
        assert phi.shape == (N_FEATURES,)
        assert phi[CUE_OPERATORS.index(Operator.ADD)] == 1.0
        assert phi[1:4].sum() == 0.0  # only one cue slot set
        assert phi[4 + 2] == 1.0  # step one-hot
        assert phi[10] == pytest.approx(2 / 3)
        assert phi[11] == 0.0
        assert phi[12] == 1.0

    def test_step_one_hot_saturates(self):
        phi = _features(_cue_index("no cue here"), lines=40, finds=0, ops=0)
        assert phi[4 + 5] == 1.0
        assert phi[:4].sum() == 0.0


class TestRollout:
    def test_optimal_policy_plays_single_op_tasks_perfectly(self, single_op_tasks):
        policy = optimal_policy()
        for task in single_op_tasks:
            session, transcript = play(policy, task)
            assert session.actions == [0, 1, 2 + _cue_index(task.question), 6], task.id
            assert total_reward(transcript.generated_source, task).total == Fraction(4), task.id
            assert transcript.outcome.answer == task.gold_answer, task.id
            injected = [l for l in transcript.emitted_lines if l.source == "solver-injected"]
            assert len(injected) == 1, task.id
            assert injected[0].text.endswith(f"= {task.gold_answer}"), task.id

    def test_trajectory_packaging(self, single_op_tasks):
        traj = reference_episode(optimal_policy(), single_op_tasks[0]).trajectory
        assert traj.steps == 4
        assert np.all(traj.rewards[:-1] == 0.0)
        assert traj.rewards[-1] == pytest.approx(4.0)
        assert traj.values.shape == (5,)
        assert traj.values[-1] == 0.0
        assert np.all(traj.logprobs_policy <= 0.0)
        assert traj.state_features.shape == (4, N_FEATURES)

    def test_stochastic_rollout_is_seed_reproducible(self, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        first, first_transcript = play(policy, single_op_tasks[0], np.random.default_rng(4))
        second, second_transcript = play(policy, single_op_tasks[0], np.random.default_rng(4))
        assert first.actions == second.actions
        assert first_transcript == second_transcript

    # Scale 1 plays perfectly, 0.03 wanders, 0 fills the budget greedily.
    @settings(max_examples=80, deadline=None)
    @given(
        scale=st.sampled_from([1.0, 0.03, 0.0]),
        seed=st.none() | st.integers(0, 2**32 - 1),
        task=st.integers(0, 15),
        sizes=st.lists(st.integers(1, 13), min_size=1, max_size=6),
    )
    @example(scale=1.0, seed=None, task=0, sizes=[1])
    @example(scale=0.03, seed=3, task=5, sizes=[13])
    def test_cut_chunks_change_nothing(self, scale, seed, task, sizes, single_op_tasks):
        # Where the runtime's chunks end does not matter: cutting each line
        # into pieces gives the same transcript, steps and generator state.
        policy = optimal_policy()
        policy.weights *= scale
        record = single_op_tasks[task]
        results = []
        for cut in (False, True):
            rng = None if seed is None else np.random.default_rng(seed)
            session = PolicySession(policy, record, rng)
            generator = CutChunks(session, sizes) if cut else session
            transcript = run_session(generator, record.question, budget=DEMO_BUDGET)
            results.append((
                transcript, transcript.generated_source, session.actions, session.logprobs,
                session.values, None if rng is None else rng.bit_generator.state,
            ))
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "plan, source",
        [
            ([6], "[return](var1)"),
            ([0, 6], "var1 = [find](quantity 1) # 16\n[return](var1)"),
            (
                [0, 1, 3, 6],
                "var1 = [find](quantity 1) # 16\n"
                "var2 = [find](quantity 2) # 14\n"
                "var3 = [subtract](var1, var2) # 16 - 14 = 2\n[return](var3)",
            ),
        ],
    )
    def test_line_text_follows_index_and_action(self, plan, source, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        for step, action in enumerate(plan):
            policy.weights[action, 4 + step] = 100.0  # the step one-hot picks the action
        session, transcript = play(policy, single_op_tasks[1])
        assert session.actions == plan
        assert transcript.generated_source == source

    def test_zero_policy_wanders_and_scores_nothing(self, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        assert greedy_accuracy(policy, single_op_tasks) == 0.0

    def test_session_rejects_question_without_quantities(self):
        # The gold program declares two quantities; the question holds none.
        numberless = ProblemRecord(
            id="no-numbers",
            question="Maya picked some apples and her brother picked a few. How many altogether?",
            gold_program="var1 = [find](a) # 1\nvar2 = [find](b) # 2\nvar3 = [add](var1, var2)\n"
            "[return](var3)",
            gold_answer=Fraction(3),
        )
        assert numberless.parsed_gold().statements[0].is_find
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        with pytest.raises(ValueError, match="'Maya picked some.* holds no quantities"):
            PolicySession(policy, numberless)

    def test_session_plays_a_record_whose_gold_does_not_parse(self):
        # Only the scorer reads the gold program.
        broken = ProblemRecord(
            id="broken",
            question="A baker made 16 bread rolls and sold 14 of them. How many rolls are left?",
            gold_program="var1 = [oops](a)",
            gold_answer=Fraction(2),
        )
        session, transcript = play(optimal_policy(), broken)
        assert session.actions == [0, 1, 3, 6]
        assert transcript.generated_source.endswith("[return](var3)")
        assert transcript.outcome.answer == Fraction(2)
        assert greedy_accuracy(optimal_policy(), [broken]) == 1.0
        with pytest.raises(ValueError, match="'broken' does not parse"):
            total_reward(transcript.generated_source, broken)
        with pytest.raises(ValueError, match="'broken' does not parse"):
            toy._score_transcript(transcript, broken, DEFAULT_REWARD_CONFIG)

    def test_greedy_accuracy_requires_records(self):
        with pytest.raises(ValueError):
            greedy_accuracy(optimal_policy(), [])


class CutChunks:
    """Cuts each of ``session``'s chunks into pieces of ``sizes[0]``,
    ``sizes[1]``, ... characters, cycling, and pulls from the session only
    when its pieces run out."""

    def __init__(self, session, sizes):
        self.session, self.sizes, self.turn, self.pieces = session, sizes, 0, []

    def next_chunk(self, context: str) -> str:
        if not self.pieces:
            chunk = self.session.next_chunk(context)
            while chunk:
                size = self.sizes[self.turn % len(self.sizes)]
                self.turn += 1
                self.pieces.append(chunk[:size])
                chunk = chunk[size:]
        return self.pieces.pop(0) if self.pieces else ""


class TestWalkedSession:
    """A session that takes steps before the runtime reads it writes their
    lines first, so the runtime sees what a fresh session would give it."""

    @staticmethod
    def episode(policy, record, seed, walk=0):
        rng = None if seed is None else np.random.default_rng(seed)
        session = PolicySession(policy, record, rng)
        for _ in range(walk):
            session._advance(session._step())
        transcript = run_session(session, record.question, budget=DEMO_BUDGET)
        return session, transcript, None if rng is None else rng.bit_generator.state

    # Scale 1 plays perfectly, 0.03 wanders into every ending: a return, an
    # unbound variable, the line budget. Greedy at scale 0 fills the budget.
    @pytest.mark.parametrize("scale", [1.0, 0.03, 0.0])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_walked_session_runs_like_a_fresh_one(self, scale, seed, single_op_tasks):
        policy = optimal_policy()
        policy.weights *= scale
        lengths = set()
        for i, record in enumerate(single_op_tasks[:6]):
            record_seed = None if seed is None else seed + i
            fresh, transcript, state = self.episode(policy, record, record_seed)
            lengths.add(len(fresh.actions))
            for k in range(len(fresh.actions) + 1):
                walked, walked_transcript, walked_state = self.episode(
                    policy, record, record_seed, k
                )
                assert walked_transcript == transcript, (record.id, k)
                assert walked_transcript.generated_source == transcript.generated_source
                assert walked.actions == fresh.actions
                assert np.array_equal(walked.features, fresh.features)
                assert walked.logprobs == fresh.logprobs
                assert walked.values == fresh.values
                assert walked_state == state
        assert max(lengths) > 1


class TestGreedyAccuracy:
    """``greedy_accuracy`` against the share of records whose reference
    episode, played with the reference policy step, answers correctly."""

    @staticmethod
    def reference_accuracy(policy, records, monkeypatch) -> float:
        monkeypatch.setattr(toy, "PolicySession", oracles.ReferencePolicySession)
        table = _StepTable(policy)
        hits = [
            answers_match(
                oracles.reference_episode(table, record).transcript.outcome.answer,
                record.gold_answer,
            )
            for record in records
        ]
        return sum(hits) / len(records)

    @pytest.mark.parametrize("seed, expected", [(0, 1.0), (31337, 0.25)])
    def test_trained_policy(self, seed, expected, monkeypatch):
        # The benchmark's train shape: 16 tasks, 300 iterations, 32 held out.
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        train_ppo_demo(policy, generate_toy_tasks(seed, 16, SINGLE_OP_TEMPLATES), seed=seed)
        heldout = generate_toy_tasks(seed + 1, 32, SINGLE_OP_TEMPLATES)
        accuracy = greedy_accuracy(policy, heldout)
        assert accuracy == expected
        assert accuracy == self.reference_accuracy(policy, heldout, monkeypatch)

    def test_nan_weight_policy(self, single_op_tasks, monkeypatch):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        policy.weights[:] = np.nan
        accuracy = greedy_accuracy(policy, single_op_tasks)
        assert accuracy == self.reference_accuracy(policy, single_op_tasks, monkeypatch) == 0.0


class TestTraining:
    def test_zero_learning_rate_freezes_weights(self, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        before_w = policy.weights.copy()
        before_v = policy.value_weights.copy()
        stats = train_ppo_demo(
            policy,
            single_op_tasks[:4],
            ppo_cfg=replace(demo_config(), learning_rate=0.0),
            iterations=2,
            seed=0,
        )
        assert np.array_equal(policy.weights, before_w)
        assert np.array_equal(policy.value_weights, before_v)
        assert len(stats) == 2
        assert all(s.prob_sum_err <= 1e-12 for s in stats)

    def test_short_training_improves_mean_reward(self, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        stats = train_ppo_demo(policy, single_op_tasks[:8], iterations=40, seed=1)
        assert stats[-1].mean_total_reward > stats[0].mean_total_reward

    def test_training_is_seed_deterministic(self, single_op_tasks):
        runs = []
        for _ in range(2):
            policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
            runs.append(
                (
                    train_ppo_demo(policy, single_op_tasks[:4], iterations=3, seed=5),
                    policy.weights.copy(),
                )
            )
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_each_iteration_is_reported_as_it_finishes(self, single_op_tasks):
        reported = []
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        stats = train_ppo_demo(
            policy, single_op_tasks[:4], iterations=3, seed=5,
            on_iteration=lambda s: reported.append((s, policy.weights.copy())),
        )
        plain = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        assert [s for s, _ in reported] == stats == train_ppo_demo(
            plain, single_op_tasks[:4], iterations=3, seed=5
        )
        # Called before the next iteration's update moves the weights.
        assert not np.array_equal(reported[0][1], reported[2][1])
        assert np.array_equal(reported[2][1], policy.weights)

    def test_batch_subsampling(self, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        stats = train_ppo_demo(policy, single_op_tasks, iterations=2, seed=0, batch_size=3)
        assert len(stats) == 2

    def test_stats_stay_sane(self, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        stats = train_ppo_demo(policy, single_op_tasks[:4], iterations=5, seed=2)
        for s in stats:
            assert s.beta > 0.0
            assert s.mean_kl >= 0.0
            assert 0.0 <= s.clip_fraction <= 1.0
            assert np.isfinite(s.policy_loss)
            assert np.isfinite(s.value_loss)

    def test_stats_serialize(self, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        (stats,) = train_ppo_demo(policy, single_op_tasks[:2], iterations=1, seed=0)
        payload = stats.to_json()
        assert payload["iteration"] == 0
        assert set(payload) == {
            "iteration",
            "mean_total_reward",
            "mean_kl",
            "clip_fraction",
            "beta",
            "policy_loss",
            "value_loss",
            "prob_sum_err",
        }

    @pytest.mark.parametrize("learning_rate, batch_size", [(1e3, None), (100.0, 5)])
    def test_diverging_run_stops_at_the_first_non_finite_stat(
        self, single_op_tasks, learning_rate, batch_size
    ):
        # The reference trains on through the overflow; the first stat it
        # reports non-finite is the one the error names.
        watched = ("policy_loss", "value_loss", "mean_kl")

        def run(train, iterations):
            policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
            with np.errstate(over="ignore", invalid="ignore"):
                return train(
                    policy, single_op_tasks,
                    ppo_cfg=replace(demo_config(), learning_rate=learning_rate),
                    iterations=iterations, seed=0, batch_size=batch_size,
                )

        with pytest.raises(ValueError, match=r"^training diverged at iteration \d+: ") as raised:
            run(train_ppo_demo, 300)
        iteration = int(str(raised.value).split()[4].rstrip(":"))
        *finite, last = run(oracles.reference_train_ppo_demo, iteration + 1)
        assert all(math.isfinite(getattr(s, name)) for s in finite for name in watched)
        name = next(name for name in watched if not math.isfinite(getattr(last, name)))
        assert str(raised.value) == (
            f"training diverged at iteration {iteration}: {name} is {getattr(last, name)}"
        )

    def test_empty_task_list_rejected(self):
        with pytest.raises(ValueError):
            train_ppo_demo(ToyPolicy.zeros(7, N_FEATURES), [])

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, single_op_tasks, batch_size):
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            train_ppo_demo(
                ToyPolicy.zeros(7, N_FEATURES), single_op_tasks, iterations=1, batch_size=batch_size
            )

    def test_demo_config_overrides_only_the_learning_rate(self):
        assert demo_config() == replace(PpoConfig(), learning_rate=DEMO_LEARNING_RATE)


def one_row(probs: np.ndarray) -> _StepRow:
    """The step row of one state with these probabilities, built as a 1-row batch."""
    (row,) = _StepRow.batch([np.zeros(N_FEATURES)], probs[None], [0.0])
    return row


def random_distribution(rng: np.random.Generator, trial: int) -> np.ndarray:
    """Probabilities of one of four shapes, two of them near-degenerate."""
    n = int(rng.integers(1, 12))
    kind = trial % 4
    if kind == 0:
        return rng.dirichlet(np.ones(n))
    if kind == 1:  # entries down to ~1e-300, some exactly 0
        return softmax(rng.normal(scale=300.0, size=n))
    if kind == 2:  # exact zeros, including at both ends
        p = rng.dirichlet(np.full(n, 0.3))
        p[rng.random(n) < 0.4] = 0.0
        if p.sum() == 0.0:
            p[-1] = 1.0
        return p / p.sum()
    return softmax(rng.normal(scale=5.0, size=n))  # mass piled on one entry


class TestStepTable:
    """The per-iteration table against ``Generator.choice`` and the old step."""

    def test_draw_matches_generator_choice(self):
        # The table's draw reproduces numpy's implementation of choice; a
        # numpy release that changes it fails here first.
        shapes = np.random.default_rng(2024)
        for trial in range(4000):
            probs = random_distribution(shapes, trial)
            row = one_row(probs)
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(3):
                assert row.draw(ours) == int(theirs.choice(len(probs), p=probs)), (trial, probs)
            assert ours.bit_generator.state == theirs.bit_generator.state, trial

    def test_draw_on_a_cdf_boundary_matches_generator_choice(self):
        # Put a CDF step exactly on the next uniform, where the side of the
        # search and the normalization by the last CDF entry decide the action.
        for trial in range(2000):
            u = np.random.default_rng(trial).random()
            shape = trial % 3
            if shape == 0:
                probs = np.array([u, 1.0 - u])
            elif shape == 1:
                probs = np.array([0.0, u / 2, u / 2, 0.0, 1.0 - u, 0.0])
            else:
                probs = np.array([u, 1.0 - u]) * (1.0 - 1e-9)  # inside choice's tolerance
            row = one_row(probs)
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            assert row.draw(ours) == int(theirs.choice(len(probs), p=probs)), (trial, probs)
            assert ours.bit_generator.state == theirs.bit_generator.state, trial

    def test_table_rows_draw_like_choice(self):
        weights = np.random.default_rng(5)
        for trial in range(200):
            scale = (0.1, 3.0, 60.0)[trial % 3]
            policy = ToyPolicy(
                weights.normal(scale=scale, size=(len(ACTION_NAMES), N_FEATURES)),
                weights.normal(size=N_FEATURES),
            )
            table = _StepTable(policy)
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            for cue in (None,) + tuple(range(len(CUE_OPERATORS))):
                for lines in range(7):
                    row = table.row(cue, lines, lines // 2, lines - lines // 2)
                    probs = policy.action_probs(row.phi)
                    assert np.array_equal(row.probs, probs)
                    assert row.draw(ours) == int(theirs.choice(len(probs), p=probs))
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "probs",
        [[0.5, np.nan, 0.5], [1.2, -0.2], [0.5, 0.4], [0.3, 0.3, 0.3], [0.5, 0.5 - 1e-6]],
        ids=["nan", "negative", "short-sum", "short-sum-3", "just-outside-tolerance"],
    )
    def test_draw_checks_probabilities_like_choice(self, probs):
        probs = np.array(probs)
        row = one_row(probs)
        ours, theirs = np.random.default_rng(1), np.random.default_rng(1)
        with pytest.raises(ValueError) as expected:
            theirs.choice(len(probs), p=probs)
        with pytest.raises(ValueError) as raised:
            row.draw(ours)
        # numpy's sum message adds a pointer to its own docstring.
        assert str(raised.value) == str(expected.value).split(". See Notes")[0]
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_nan_weights_fail_a_stochastic_rollout(self, single_op_tasks):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        policy.weights[:] = np.nan
        with pytest.raises(ValueError, match="Probabilities contain NaN"):
            play(policy, single_op_tasks[0], np.random.default_rng(0))
        with pytest.raises(ValueError, match="Probabilities contain NaN"):
            train_ppo_demo(policy, single_op_tasks[:2], iterations=1)

    def test_nan_weights_greedy_rollout_matches_reference(self, single_op_tasks, monkeypatch):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        policy.weights[:] = np.nan
        ours = reference_episode(policy, single_op_tasks[0])
        monkeypatch.setattr(toy, "PolicySession", oracles.ReferencePolicySession)
        theirs = reference_episode(policy, single_op_tasks[0])
        for field in ("tokens", "state_features", "logprobs_policy", "rewards", "values"):
            assert np.array_equal(
                getattr(ours.trajectory, field), getattr(theirs.trajectory, field), equal_nan=True
            ), field
        assert ours.breakdown == theirs.breakdown
        assert ours.transcript.emitted_lines == theirs.transcript.emitted_lines
        assert greedy_accuracy(policy, single_op_tasks) == 0.0

    def test_rows_are_built_once_per_state(self):
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        table = _StepTable(policy)
        add = CUE_OPERATORS.index(Operator.ADD)
        first = table.row(add, 7, 3, 4)
        assert table.row(add, 5, 3, 4) is first  # lines saturate at 5
        assert table.row(add, 5, 4, 3) is not first
        assert table.logprob(first, 2) is table.logprob(first, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    @pytest.mark.parametrize("batch_size", [None, 5])
    def test_training_matches_reference(self, seed, batch_size, monkeypatch):
        # The reference plays every episode afresh, with the old policy step
        # and the old scorer.
        def run(train):
            tasks = generate_toy_tasks(seed, 8)
            policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
            stats = train(policy, tasks, iterations=25, seed=seed, batch_size=batch_size)
            return stats, policy, greedy_accuracy(policy, generate_toy_tasks(seed + 1, 16))

        stats, policy, accuracy = run(train_ppo_demo)
        monkeypatch.setattr(toy, "PolicySession", oracles.ReferencePolicySession)
        monkeypatch.setattr(
            toy, "_score_transcript",
            lambda t, rec, cfg: oracles.reference_score_program(t.program, rec, cfg),
        )
        ref_stats, ref_policy, ref_accuracy = run(oracles.reference_train_ppo_demo)
        assert stats == ref_stats
        assert np.array_equal(policy.weights, ref_policy.weights)
        assert np.array_equal(policy.value_weights, ref_policy.value_weights)
        assert accuracy == ref_accuracy

    def test_reference_logprobs_match_reference_from_random_starts(self, monkeypatch):
        # From a zero policy the reference is uniform over the 7 actions.
        # Random starts tell states and actions apart, so the KL penalty
        # against the frozen copy differs by state, and two calls in a row
        # show nothing carries over.
        tasks = generate_toy_tasks(5, 8, SINGLE_OP_TEMPLATES)

        def run(train):
            results = []
            for start in (1, 2):
                weights = np.random.default_rng(start)
                policy = ToyPolicy(
                    weights.normal(size=(len(ACTION_NAMES), N_FEATURES)),
                    weights.normal(size=N_FEATURES),
                )
                stats = train(policy, tasks, iterations=15, seed=start)
                results.append((stats, policy.weights, policy.value_weights))
            return results

        ours = run(train_ppo_demo)
        monkeypatch.setattr(toy, "PolicySession", oracles.ReferencePolicySession)
        monkeypatch.setattr(
            toy, "_score_transcript",
            lambda t, rec, cfg: oracles.reference_score_program(t.program, rec, cfg),
        )
        for (stats, weights, values), (ref_stats, ref_weights, ref_values) in zip(
            ours, run(oracles.reference_train_ppo_demo)
        ):
            assert stats == ref_stats
            assert np.array_equal(weights, ref_weights)
            assert np.array_equal(values, ref_values)


# Every state a table can be asked for: cue, saturated line count, finds, ops.
ALL_STATES = [
    (cue, lines, finds, ops)
    for cue in (None,) + tuple(range(len(CUE_OPERATORS)))
    for lines in range(6)
    for finds in range(9)
    for ops in range(9)
]


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestRowBatch:
    """Rows built in one batch against the policy and the row built alone."""

    # Weight poison: (action, feature, value). NaN and inf reach every row
    # (0 * inf is NaN); +-1e308 on a count feature overflows to an infinite
    # logit only on rows with enough finds or ops, so failing rows sit in a
    # batch with good ones.
    poison = st.lists(
        st.tuples(
            st.integers(0, len(ACTION_NAMES) - 1),
            st.integers(0, N_FEATURES - 1) | st.sampled_from([10, 11]),
            st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]),
        ),
        max_size=3,
    )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 270),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        poison=poison,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=270, scale=1.0, poison=[(2, 10, 1e308)], seed=0)
    @example(n=270, scale=30.0, poison=[(0, 11, -1e308), (0, 12, -1e308)], seed=1)
    def test_batch_matches_rows_one_at_a_time(self, n, scale, poison, seed):
        draws = np.random.default_rng(seed)
        policy = ToyPolicy(
            draws.normal(scale=scale, size=(len(ACTION_NAMES), N_FEATURES)),
            draws.normal(scale=scale, size=N_FEATURES),
        )
        for action, feature, value in poison:
            policy.weights[action, feature] = value
        keys = [ALL_STATES[i] for i in draws.choice(len(ALL_STATES), n, replace=False)]
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            table = _StepTable(policy, fill=keys)  # builds, never raises
            alone = _StepTable(policy)
            for i, key in enumerate(keys):
                row = table.row(*key)
                assert table.row(*key) is row
                probs = policy.action_probs(row.phi)
                expected = oracles.reference_step_row(probs)
                assert same_bits(row.phi, toy._features(*key))
                assert same_bits(row.probs, probs)
                assert same_bits(row.value, policy.value(row.phi))
                assert same_bits(row.cdf, expected["cdf"])
                assert same_bits(row.prob_sum_err, expected["prob_sum_err"])
                assert row.argmax == expected["argmax"]
                assert row.p_error == expected["p_error"]
                if i < 8:  # a row built alone is the same row
                    lone = alone.row(*key)
                    for field in ("phi", "probs", "value", "prob_sum_err", "cdf"):
                        assert same_bits(getattr(lone, field), getattr(row, field)), field
                    assert (lone.argmax, lone.p_error) == (row.argmax, row.p_error)
                if expected["p_error"] is None:
                    assert row.draw(ours) == int(theirs.choice(len(probs), p=probs))
                else:
                    with pytest.raises(ValueError, match=expected["p_error"]):
                        theirs.choice(len(probs), p=probs)
                    with pytest.raises(ValueError, match=expected["p_error"]):
                        row.draw(ours)
                assert ours.bit_generator.state == theirs.bit_generator.state


class PoisonedTasks(list):
    """Tasks that set the policy's weights to NaN when iterated the ``at``-th time."""

    def __init__(self, tasks, policy, at):
        super().__init__(tasks)
        self.policy, self.at, self.passes = policy, at, 0

    def __iter__(self):
        self.passes += 1
        if self.passes == self.at:
            self.policy.weights[:] = np.nan
        return super().__iter__()


class TestEpisodeMemo:
    """``train_ppo_demo`` plays each (task, actions) pair through the runtime once."""

    @staticmethod
    def train(train, seed, batch_size=None, tasks=16, iterations=300):
        tasks = generate_toy_tasks(seed, tasks, SINGLE_OP_TEMPLATES)
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        stats = train(policy, tasks, iterations=iterations, seed=seed, batch_size=batch_size)
        return stats, policy, tasks

    @pytest.mark.parametrize("seed", [0, 3, 31337])
    def test_bench_shape_matches_reference(self, seed):
        # The benchmark's train op: 16 single-operation tasks, 300 iterations.
        heldout = generate_toy_tasks(seed + 1, 32, SINGLE_OP_TEMPLATES)
        stats, policy, _ = self.train(train_ppo_demo, seed)
        ref_stats, ref_policy, _ = self.train(oracles.reference_train_ppo_demo, seed)
        assert stats == ref_stats
        assert np.array_equal(policy.weights, ref_policy.weights)
        assert np.array_equal(policy.value_weights, ref_policy.value_weights)
        assert greedy_accuracy(policy, heldout) == greedy_accuracy(ref_policy, heldout)

    @staticmethod
    def spy_sessions(monkeypatch):
        """Record, per ``run_session`` call, the question and the chunks pulled."""
        calls = []
        real = toy.run_session

        def spy(gen, question, *args, **kwargs):
            if not isinstance(gen, PolicySession):  # writing a task's gold program
                return real(gen, question, *args, **kwargs)
            chunks = []

            class Recorder:
                def next_chunk(self, context):
                    chunk = gen.next_chunk(context)
                    chunks.append(chunk)
                    return chunk

            transcript = real(Recorder(), question, *args, **kwargs)
            calls.append((question, tuple(chunks)))
            return transcript

        monkeypatch.setattr(toy, "run_session", spy)
        return calls

    @pytest.mark.parametrize("batch_size", [None, 5])
    def test_runtime_runs_once_per_distinct_episode(self, batch_size, monkeypatch):
        calls = self.spy_sessions(monkeypatch)
        self.train(train_ppo_demo, 1, batch_size, iterations=120)
        memo_calls = list(calls)
        calls.clear()
        episodes = []
        real_episode = oracles.reference_episode

        def episode_spy(table, record, *args):
            result = real_episode(table, record, *args)
            episodes.append((id(record), tuple(result.session.actions)))
            return result

        monkeypatch.setattr(oracles, "reference_episode", episode_spy)
        _, _, tasks = self.train(oracles.reference_train_ppo_demo, 1, batch_size, iterations=120)
        assert len(episodes) == 120 * (batch_size or len(tasks))
        assert len(memo_calls) == len(set(episodes)) < len(episodes)
        # Each call saw the chunks a fresh session yields, one by one.
        assert set(memo_calls) <= set(calls)
        assert len(set(memo_calls)) == len(memo_calls)

    def test_memo_lives_for_one_call(self, monkeypatch):
        calls = self.spy_sessions(monkeypatch)
        tasks = generate_toy_tasks(2, 8, SINGLE_OP_TEMPLATES)
        counts = []
        for _ in range(2):
            policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
            train_ppo_demo(policy, tasks, iterations=20, seed=2)
            counts.append(len(calls))
            calls.clear()
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("at", [1, 2, 9])
    def test_nan_weights_raise_like_reference(self, at, monkeypatch):
        generators = []
        default_rng = np.random.default_rng

        def capture(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", capture)
        outcomes = []
        for train in (train_ppo_demo, oracles.reference_train_ppo_demo):
            policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
            tasks = PoisonedTasks(generate_toy_tasks(4, 8, SINGLE_OP_TEMPLATES), policy, at)
            with pytest.raises(ValueError) as raised:
                train(policy, tasks, iterations=20, seed=4)
            outcomes.append((str(raised.value), generators[-1].bit_generator.state))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "Probabilities contain NaN"


class TestWorkCounts:
    """Work ``train_ppo_demo`` does once per iteration, call or episode."""

    @staticmethod
    def count_instances(monkeypatch, name):
        """Replace ``toy.<name>`` by a subclass that records each instance."""
        built = []
        base = getattr(toy, name)

        class Counted(base):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(toy, name, Counted)
        return built

    def test_one_step_table_per_iteration_and_per_evaluation(self, single_op_tasks, monkeypatch):
        tables = self.count_instances(monkeypatch, "_StepTable")
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        train_ppo_demo(policy, single_op_tasks, iterations=7, seed=0)
        assert len(tables) == 7
        train_ppo_demo(policy, single_op_tasks, iterations=3, seed=0, batch_size=5)
        assert len(tables) == 10
        greedy_accuracy(policy, single_op_tasks)
        assert len(tables) == 11

    def test_one_session_per_episode(self, single_op_tasks, monkeypatch):
        sessions = self.count_instances(monkeypatch, "PolicySession")
        runs = []
        real = toy.run_session

        def spy(gen, *args, **kwargs):
            runs.append(gen)
            return real(gen, *args, **kwargs)

        monkeypatch.setattr(toy, "run_session", spy)
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        train_ppo_demo(policy, single_op_tasks, iterations=60, seed=1)
        # A memo miss hands the episode's own session to the runtime.
        assert len(sessions) == 60 * len(single_op_tasks)
        built = {id(session) for session in sessions}
        assert {id(run) for run in runs} <= built
        assert len({id(run) for run in runs}) == len(runs)
        assert 0 < len(runs) < len(sessions)
        sessions.clear()
        runs.clear()
        greedy_accuracy(policy, single_op_tasks)
        assert len(sessions) == len(single_op_tasks)
        assert runs == sessions
        reference_episode(policy, single_op_tasks[0], np.random.default_rng(0))
        assert len(sessions) == len(single_op_tasks) + 1
        assert runs == sessions

    @pytest.mark.parametrize("batch_size", [None, 5])
    def test_features_and_questions_once_per_state_and_question(
        self, single_op_tasks, batch_size, monkeypatch
    ):
        tables = self.count_instances(monkeypatch, "_StepTable")
        sessions = self.count_instances(monkeypatch, "PolicySession")

        def train():
            policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
            train_ppo_demo(policy, single_op_tasks, iterations=60, seed=1, batch_size=batch_size)
            return toy._features.cache_info().misses, _read_question.cache_info().misses

        toy._features.cache_clear()
        _read_question.cache_clear()
        misses = train()
        states = {key for table in tables for key in table._rows}
        questions = {session.record.question for session in sessions}
        assert misses == (len(states), len(questions))
        assert toy._features.cache_info().currsize == len(states) > 0
        assert train() == misses  # a second identical call reads only the caches

    def test_cached_features_are_read_only(self):
        for key in ALL_STATES[::97]:
            phi = toy._features(*key)
            assert toy._features(*key) is phi
            assert same_bits(phi, toy._features.__wrapped__(*key))
            with pytest.raises(ValueError, match="read-only"):
                phi[12] = 2.0

    def test_one_prepared_batch_per_iteration(self, single_op_tasks, monkeypatch):
        prepared = self.count_instances(monkeypatch, "_PreparedBatch")
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        cfg = replace(demo_config(), epochs=3)
        train_ppo_demo(policy, single_op_tasks, ppo_cfg=cfg, iterations=7, seed=0)
        assert len(prepared) == 7
        train_ppo_demo(policy, single_op_tasks, ppo_cfg=cfg, iterations=4, seed=0, batch_size=5)
        assert len(prepared) == 11

    def test_no_config_is_checked_per_iteration(self, single_op_tasks, monkeypatch):
        # The adapted beta goes to the prepared batch as it is, not through a
        # new PpoConfig, whose checks would run again each iteration.
        checks = []
        real = PpoConfig.__post_init__

        def spy(cfg):
            checks.append(cfg)
            real(cfg)

        cfg = replace(demo_config(), epochs=2)
        monkeypatch.setattr(PpoConfig, "__post_init__", spy)
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        history = train_ppo_demo(policy, single_op_tasks, ppo_cfg=cfg, iterations=6, seed=0)
        assert checks == []
        assert len({stats.beta for stats in history}) == 6

    def test_training_sessions_read_each_question_once(self, monkeypatch):
        # Fresh records, so that their gold programs are not parsed yet.
        tasks = generate_toy_tasks(seed=7, count=16, templates=SINGLE_OP_TEMPLATES)
        sessions, inside, scoring, calls = [], [], [], []

        class Watched(PolicySession):
            def __init__(self, *args, **kwargs):
                sessions.append(self)
                inside.append(True)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    inside.pop()

        def gold(record):
            calls.append((bool(inside), bool(scoring)))
            return real_gold(record)

        def score(*args):
            scoring.append(True)
            try:
                return real_score(*args)
            finally:
                scoring.pop()

        real_score, real_gold = toy._score_transcript, toy.ProblemRecord.parsed_gold
        monkeypatch.setattr(toy, "PolicySession", Watched)
        monkeypatch.setattr(toy, "_score_transcript", score)
        monkeypatch.setattr(toy.ProblemRecord, "parsed_gold", gold)
        _read_question.cache_clear()
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        train_ppo_demo(policy, tasks, iterations=30, seed=1)
        assert len(sessions) == 30 * len(tasks)
        assert _read_question.cache_info().misses == len({task.question for task in tasks})
        assert calls and all(call == (False, True) for call in calls)  # only while scoring
        calls.clear()
        greedy_accuracy(policy, tasks[:1])
        assert calls == []  # no scoring
        assert _read_question.cache_info().misses == len({task.question for task in tasks})

    @pytest.mark.parametrize("batch_size", [None, 5])
    def test_each_iteration_fills_the_states_the_last_one_read(self, batch_size, monkeypatch):
        tables = []

        class Spy(toy._StepTable):
            def __init__(self, *args, **kwargs):
                self.reads, self.builds = [], []
                tables.append(self)
                super().__init__(*args, **kwargs)

            def _build(self, keys):
                self.builds.append((len(self.reads), list(keys)))
                return super()._build(keys)

            def row(self, cue, lines, finds, ops):
                key = (cue, min(lines, 5), finds, ops)
                if key not in self.reads:
                    self.reads.append(key)
                return super().row(cue, lines, finds, ops)

        monkeypatch.setattr(toy, "_StepTable", Spy)
        tasks = generate_toy_tasks(3, 16, SINGLE_OP_TEMPLATES)
        policy = ToyPolicy.zeros(len(ACTION_NAMES), N_FEATURES)
        train_ppo_demo(policy, tasks, iterations=60, seed=3, batch_size=batch_size)
        assert len(tables) == 60
        built = read = 0
        for previous, table in zip([None] + tables, tables):
            filled = [keys for reads, keys in table.builds if reads == 0]
            lazy = [keys for reads, keys in table.builds if reads > 0]
            assert filled == ([] if previous is None else [previous.reads])
            assert all(len(keys) == 1 for keys in lazy)
            keys = [key for _, keys in table.builds for key in keys]
            assert len(keys) == len(set(keys))  # no state built twice
            assert set(table.reads) <= set(keys)
            built += len(keys)
            read += len(table.reads)
        # Rows built exceed rows read by 26% with every task and by 40% with
        # five at a time. A fill that grew toward every state the call has
        # seen would build 3-4 times the rows read.
        assert read <= built <= 1.5 * read
