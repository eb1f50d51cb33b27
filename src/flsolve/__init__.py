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
    default_config,
    load_config,
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
    Environment,
    EvalError,
    EvalOutcome,
    annotation_text,
    answers_match,
    apply_operator,
    evaluate,
)
from .parser import (
    PARSE_ERROR_KINDS,
    ParseError,
    parse_line,
    parse_program,
)
from .ppo import (
    PpoConfig,
    PpoObjective,
    ToyPolicy,
    Trajectory,
    adaptive_kl_update,
    compute_gae,
    kl_divergence,
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
    operation_counts,
    tally,
)
from .rewards import (
    DEFAULT_REWARD_CONFIG,
    RewardBreakdown,
    RewardConfig,
    RewardDiagnostics,
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
    TaskTemplate,
    demo_config,
    generate_toy_tasks,
    greedy_accuracy,
    train_ppo_demo,
)
from .values import (
    MAX_VALUE_BITS,
    NUMBER_PATTERN,
    UNKNOWN,
    Unknown,
    format_number,
    is_terminating_decimal,
    parse_number,
)

__version__ = "0.1.0"
