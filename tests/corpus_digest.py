"""Digest of the translator's output over a fixed corpus of goals.

For every goal of the corpus, in each translation mode and each of the four
combinations of eliminate_choices and inline_definitions (expansion budget
20000), this writes one line: the sha256 and length of the emitted SMT-LIB
and the TranslateStats, or the TranslateError text. The lines are sorted, so
a `diff` of the digests of two versions of the translator lists exactly the
(goal, mode, flags) whose output changed.

The corpus:
  - the goals of the recorded result tables (conftest.recorded_goals);
  - every theorem of every `*_SRC` model text in tests/ but templates;
  - perfbench/fuzztext seeds 1 and 2, 2000 goals each;
  - fdl.randgen.random_goal seeds 0-999.

The translator is the `fdl` on the import path, so one copy of this script
digests any version:

    PYTHONPATH=src python tests/corpus_digest.py > change.txt
    PYTHONPATH=../parent/src python tests/corpus_digest.py > parent.txt
    diff parent.txt change.txt

pytest does not collect this file (its name does not start with test_).
"""

import ast
import dataclasses
import hashlib
import pathlib
import sys

TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / 'perfbench')]

import fuzztext  # noqa: E402
from conftest import recorded_goals  # noqa: E402
from fdl.core import resolve_model  # noqa: E402
from fdl.parser import parse_model  # noqa: E402
from fdl.randgen import random_goal  # noqa: E402
from fdl.translate import (MODES, SmtOptions, TranslateError,  # noqa: E402
                           emit_smtlib, translate)

FLAGS = {'default': {},
         'flags': {'eliminate_choices': True, 'inline_definitions': True},
         'eliminate': {'eliminate_choices': True},
         'inline': {'inline_definitions': True}}
BUDGET = 20000
FUZZ_SEEDS = (1, 2)
FUZZ_COUNT = 2000
RANDGEN_SEEDS = range(1000)


def model_sources():
    """(key, text) of every module-level `*_SRC` string in tests/*.py,
    except the templates (texts with a % placeholder)."""
    for path in sorted(TESTS.glob('*.py')):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id.endswith('_SRC')
                    and isinstance(node.value, ast.Constant)
                    and '%' not in node.value.value):
                yield '%s/%s' % (path.name, node.targets[0].id), node.value.value


def model_goals(key, text):
    m = resolve_model(parse_model(text))
    for name, goal in m.theorems.items():
        yield '%s/%s' % (key, name), goal, m.funcs


def corpus():
    """(key, goal, funcs) of every goal of the corpus."""
    yield from recorded_goals()
    for key, text in model_sources():
        yield from model_goals('tests/' + key, text)
    for seed in FUZZ_SEEDS:
        for i, text in enumerate(fuzztext.generate(seed, FUZZ_COUNT)):
            yield from model_goals('fuzztext/%d/%d' % (seed, i), text)
    for seed in RANDGEN_SEEDS:
        yield 'randgen/%d' % seed, random_goal(seed), None


def digest_line(key, goal, funcs, mode, label):
    opts = SmtOptions(mode=mode, expansion_budget=BUDGET, **FLAGS[label])
    try:
        script = translate(goal, funcs, opts)
    except TranslateError as e:
        return '%s %s %s error %s' % (key, mode, label, e)
    text = emit_smtlib(script)
    return '%s %s %s %s %d %s' % (
        key, mode, label, hashlib.sha256(text.encode()).hexdigest(),
        len(text), dataclasses.astuple(script.stats))


def main():
    lines = []
    for key, goal, funcs in corpus():
        for mode in MODES:
            for label in FLAGS:
                lines.append(digest_line(key, goal, funcs, mode, label))
    sys.stdout.write(''.join(line + '\n' for line in sorted(lines)))


if __name__ == '__main__':
    main()
