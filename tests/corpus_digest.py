"""Digests of the translator's output and of the parser's trees over fixed
corpora.

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

With the argument `parse`, it digests the parser instead: one line per
model text of parse_corpus(), the sha256 of dump() of the parsed Model (every
node's class, fields and pos) or `rejected`. The texts are models/*.fdl,
every `*_SRC` text, fuzztext seeds 1 and 2, randgen seeds 0-999 printed as
one-theorem models, and seeded token mutants of the first three groups, so
a diff also lists every text that moved between accepted and rejected:

    PYTHONPATH=src python tests/corpus_digest.py parse > change.txt

pytest does not collect this file (its name does not start with test_).
tests/test_parse_table.py pins dump() on a smaller parse corpus.
"""

import ast
import dataclasses
import hashlib
import pathlib
import random
import sys

TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / 'perfbench')]

import fuzztext  # noqa: E402
from conftest import recorded_goals  # noqa: E402
from fdl.core import resolve_model  # noqa: E402
from fdl.parser import (KEYWORDS, SYMBOLS, ParseError,  # noqa: E402
                        parse_model, print_formula, tokenize)
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


def dump(node) -> str:
    """Canonical text of a parsed Model or node: each node's class, every
    field in order, pos included."""
    if dataclasses.is_dataclass(node):
        return '%s(%s)' % (type(node).__name__, ', '.join(
            dump(getattr(node, f.name)) for f in dataclasses.fields(node)))
    if isinstance(node, dict):
        return '{%s}' % ', '.join('%r: %s' % (k, dump(v))
                                  for k, v in node.items())
    if isinstance(node, (list, tuple)):
        inner = ', '.join(dump(v) for v in node)
        return '[%s]' % inner if isinstance(node, list) else '(%s)' % inner
    return repr(node)


def parse_digest(text) -> str:
    try:
        model = parse_model(text)
    except ParseError:
        return 'rejected'
    return hashlib.sha256(dump(model).encode()).hexdigest()


_POOL = sorted(KEYWORDS) + SYMBOLS + ['0', '1', 'x']


def mutants(key, text, count):
    """count seeded one-token edits of text (delete, repeat, swap with the
    next token or insert one), tokens joined by spaces."""
    toks = [t.text for t in tokenize(text)[:-1]]
    for i in range(count):
        rng = random.Random('%s/%d' % (key, i))
        edit, at = list(toks), rng.randrange(len(toks))
        op = rng.randrange(4)
        if op == 0:
            del edit[at]
        elif op == 1:
            edit.insert(at, edit[at])
        elif op == 2:
            edit[at:at + 2] = reversed(edit[at:at + 2])
        else:
            edit.insert(at, rng.choice(_POOL))
        yield '%s/mutant%d' % (key, i), ' '.join(edit)


def parse_corpus(fuzz_seeds=FUZZ_SEEDS, fuzz_count=FUZZ_COUNT,
                 randgen_seeds=RANDGEN_SEEDS, mutate=0):
    """(key, text) of every model text of the parse corpus; with mutate,
    also that many mutants of each text but the randgen goals."""
    texts = [('models/' + path.name, path.read_text())
             for path in sorted((TESTS.parent / 'models').glob('*.fdl'))]
    texts += [('tests/' + key, text) for key, text in model_sources()]
    for seed in fuzz_seeds:
        generated = fuzztext.generate(seed, fuzz_count)
        texts += [('fuzztext/%d/%d' % (seed, i), text)
                  for i, text in enumerate(generated)]
    for key, text in texts:
        yield key, text
        yield from mutants(key, text, mutate)
    for seed in randgen_seeds:
        yield 'randgen/%d' % seed, 'theorem g <=> %s;' % print_formula(
            random_goal(seed))


def main(argv):
    if argv == ['parse']:
        lines = ['%s %s' % (key, parse_digest(text))
                 for key, text in parse_corpus(mutate=5)]
    elif not argv:
        lines = [digest_line(key, goal, funcs, mode, label)
                 for key, goal, funcs in corpus()
                 for mode in MODES for label in FLAGS]
    else:
        sys.exit('usage: corpus_digest.py [parse]')
    sys.stdout.write(''.join(line + '\n' for line in sorted(lines)))


if __name__ == '__main__':
    main(sys.argv[1:])
