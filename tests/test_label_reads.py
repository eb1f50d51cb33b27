"""The toy's generator never reads its label.

``PolicySession`` writes its ``[find]`` lines from the question alone; the
gold program is what the reward scores a transcript against, and the scorer
(``rewards._score_transcript``) reads it. So ``toy.py`` reads none of a
record's gold-program attributes: ``parsed_gold``, ``gold_tally`` or
``gold_program``. ``gold_answer``, which ``greedy_accuracy`` compares an
outcome with, is a score, not an input.
"""

import ast
from pathlib import Path

TOY = Path(__file__).resolve().parent.parent / "src" / "flsolve" / "toy.py"
LABEL_ATTRIBUTES = frozenset({"parsed_gold", "gold_tally", "gold_program"})


def label_reads(tree: ast.AST) -> list[int]:
    """Lines that read one of ``LABEL_ATTRIBUTES`` off any object."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in LABEL_ATTRIBUTES
    )


def test_toy_reads_no_gold_program():
    assert label_reads(ast.parse(TOY.read_text(encoding="utf-8"))) == []


def test_a_read_is_found_and_a_name_is_not():
    tree = ast.parse(
        "def _gold_program(template):\n"
        "    return template\n"
        "def play(record):\n"
        "    statements = record.parsed_gold().statements\n"
        "    tally = (record).gold_tally\n"
        "    return record.gold_answer, record.question\n"
        "gold_program = lambda r: r.gold_program\n"
    )
    assert label_reads(tree) == [4, 5, 7]
