"""Formalize-then-solve toolkit for arithmetic word problems.

A generator (a language model, or any stand-in speaking the same
interface) writes short pseudocode programs; an exact rational solver
executes the arithmetic mid-generation and feeds results back as
comments. The package bundles the parser and interpreter for that
pseudocode, the halting session runtime, the reward stack used for
fine-tuning, a small PPO implementation with a self-contained demo, and
dataset tooling.
"""

from .config import (
    CONFIG_ENV_VAR,
    ToolkitConfig,
    config_from_json,
    config_to_json,
    default_config,
    load_config,
    save_config,
)
from .data import (
    FAILURE_REASONS,
    STATS_ORDER,
    DatasetError,
    DatasetFile,
    ValidationFailure,
    ValidationReport,
    load_dataset,
    operator_stats,
    ordered_stats,
    reasoning_step_count,
    shuffled,
    validate_dataset,
    write_dataset,
)
from .evaluation import (
    EvalReport,
    GeneratorSpec,
    ProblemResult,
    evaluate_corpus,
)
from .fixtures import bundled_examples, bundled_examples_path
from .interpreter import (
    EVAL_ERROR_KINDS,
    AnnotationMismatch,
    Environment,
    EvalError,
    EvalOutcome,
    annotation_text,
    answers_match,
    apply_operator,
    evaluate,
    evaluate_statement,
    resolve_operands,
    verify_annotations,
)
from .parser import (
    PARSE_ERROR_KINDS,
    ParseError,
    parse_line,
    parse_program,
    tokenize,
)
from .ppo import (
    PpoConfig,
    PpoObjective,
    ToyPolicy,
    Trajectory,
    adaptive_kl_update,
    compute_gae,
    kl_divergence,
    policy_logprob_and_grad,
    ppo_objective,
    softmax,
    value_loss,
)
from .program import (
    ARITHMETIC_OPERATORS,
    BASIC_OPERATORS,
    BASIC_SYMBOLS,
    OPERATOR_ARITY,
    CommentAnnotation,
    Operator,
    ProblemRecord,
    Program,
    Statement,
    VarRef,
    basic_operation_counts,
    count_finds,
    has_return,
    operation_counts,
    render_program,
    render_statement,
)
from .rewards import (
    DEFAULT_REWARD_CONFIG,
    RewardBreakdown,
    RewardConfig,
    RewardDiagnostics,
    reward_r1,
    reward_r2,
    reward_r3,
    reward_r4,
    score_program,
    total_reward,
)
from .runtime import (
    DEFAULT_INSTRUCTIONS,
    EmittedLine,
    GeneratorInterface,
    ScriptedGenerator,
    SessionBudget,
    SessionTranscript,
    assemble_prompt,
    run_session,
    strip_computed_comments,
)
from .toy import (
    ACTION_NAMES,
    DEMO_LEARNING_RATE,
    N_FEATURES,
    SINGLE_OP_TEMPLATES,
    IterationStats,
    PolicySession,
    RolloutResult,
    TaskTemplate,
    demo_config,
    generate_toy_tasks,
    greedy_accuracy,
    rollout,
    train_ppo_demo,
)
from .values import (
    NUMBER_PATTERN,
    UNKNOWN,
    NumericValue,
    Unknown,
    format_number,
    is_terminating_decimal,
    parse_number,
)

__version__ = "0.1.0"
