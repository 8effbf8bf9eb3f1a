import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from fdl.bench import FAMILIES, PATTERNS
from fdl.core import resolve_model, typecheck_model
from fdl.evaluator import check_validity
from fdl.oracle import oracle_check
from fdl.parser import parse_model

import expected
import fuzztext
import run
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

# The two goals on which refsolve answers unsat in all three translation
# modes while the oracle says invalid: a choice that no value satisfies but
# that evaluation never reaches, and a contract applied more than once.
SHORT_CIRCUIT = """type D = nat[1];
theorem t <=> false /\\ (choose y: D with y < 0) = 0;
"""
PER_CALL = """type D = nat[1];
fun h(p: D): D ensures result <= p;
theorem t <=> (forall x: D. x <= h(x)) \\/ (forall x: D. h(x) < x \\/ x = 0);
"""


def _load(text):
    model = resolve_model(parse_model(text))
    assert typecheck_model(model) == []
    return model.theorems['t'], model.funcs


@pytest.fixture
def bench_env(monkeypatch):
    """Let run.prepare_environment change PATH and friends for one test."""
    for var in ('PATH', 'PYTHONPATH', 'TMPDIR', 'PERFBENCH_PYTHON'):
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, 'path', list(sys.path))
    run.prepare_environment()


def test_generator_gives_the_same_texts_for_the_same_seed():
    first = fuzztext.generate(7, 300)
    assert first == fuzztext.generate(7, 300)
    assert first != fuzztext.generate(8, 300)
    with_choice = [t for t in first if 'choose' in t or 'ensures' in t]
    assert 0.15 < len(with_choice) / len(first) < 0.35
    for text in first:
        _load(text)


def test_expected_table_slice_matches_the_oracle():
    table = expected.load()
    assert len(table) == len(FAMILIES) * len(PATTERNS) * len(expected.SIZES)
    for family in FAMILIES:
        for pattern in PATTERNS[::3]:
            assert table[expected.key(family, pattern, 2)] == \
                expected.oracle_verdict(family, pattern, 2), (family, pattern)


def test_determinize_reads_choices_as_deterministic_mode_does():
    goal, funcs = _load("""type D = nat[2];
fun pick(x: D): D = choose y: D with x <= y;
theorem t <=> forall x: D. pick(x) = x;
""")
    det_goal, det_funcs, changed = fuzztext.determinize(goal, funcs)
    assert changed
    assert oracle_check(goal, funcs) == 'invalid'
    assert oracle_check(det_goal, det_funcs) == 'valid'
    assert check_validity(goal, funcs, 'deterministic')[0].status == 'valid'


def test_known_choice_gap_goals_count_as_wrong_valid(capsys):
    wl = _fuzz_text(SHORT_CIRCUIT, PER_CALL)
    tally, _ = run.run_passes(wl, tracing.NullTracer(), 1, random.Random(0))
    counts = run.check(wl, tally)
    wrong = [r for r in tally.failed if run.is_wrong(r)]
    assert sorted((r.goal, r.mechanism) for r in wrong) == sorted(
        (goal, 'refsolve/' + mode) for goal in (0, 1)
        for mode in ('eliminate', 'preserve', 'expand-all'))
    assert all(r.status == 'valid' and r.expected == 'invalid' for r in wrong)
    assert counts['wrong_valid'] == 6
    assert counts['excused_goals'] == 2
    assert counts['failed'] == 6
    assert counts['incorrect'] == 0
    assert 'refsolve/eliminate said valid, reference invalid' in \
        capsys.readouterr().out


def _fuzz_text(*texts):
    wl = workloads.FuzzText(0, count=0)
    wl.items = [workloads.fuzz_item(i, text) for i, text in enumerate(texts)]
    return wl


def test_a_growing_choice_gap_makes_the_run_incorrect(capsys):
    wl = _fuzz_text(*[SHORT_CIRCUIT] * 6)
    tally, _ = run.run_passes(wl, tracing.NullTracer(), 1, random.Random(0))
    counts = run.check(wl, tally)
    assert counts['excused_goals'] == 6
    # 20% of 6 goals with a choice, plus a slack of 2
    assert counts['incorrect'] == 6 - 3
    assert 'choice gap grew' in capsys.readouterr().out


def test_an_undecided_verdict_makes_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.setattr(workloads, 'check_script', lambda text: 'unknown')
    wl = _fuzz_text(SHORT_CIRCUIT)
    tally, _ = run.run_passes(wl, tracing.NullTracer(), 1, random.Random(0))
    assert {r.status for r in tally.failed} == {'undecided'}
    result = run._result(run.check(wl, tally), {}, {})
    assert result['failed'] == 3 and not result['correct']


@pytest.mark.parametrize('solver, status', [
    ('#!/bin/sh\nexit 1\n', 'error'),
    (None, 'unavailable'),
])
def test_a_solver_without_an_answer_makes_the_run_incorrect(
        bench_env, tmp_path, capsys, solver, status):
    if solver:
        broken = tmp_path / 'fdl-refsolve'
        broken.write_text(solver)
        broken.chmod(0o755)
    os.environ['PATH'] = str(tmp_path)
    wl = workloads.SmtGrid(0)
    tally = run.Tally(1)
    tally.add(0, wl.run(wl.items[0], tracing.NullTracer()), 0.0)
    result = run._result(run.check(wl, tally), {}, {})
    assert [r.status for r in tally.failed] == [status]
    assert result['failed'] == 1 and not result['correct']


def test_wrong_verdict_on_a_grid_makes_the_run_incorrect(capsys):
    wl = workloads.EvalGrid(0)
    label, goal, funcs, mode, want = next(
        item for item in wl.items if item[0].startswith('cycle4-valid/e4a0'))
    flipped = 'valid' if want == 'invalid' else 'invalid'
    tally = run.Tally(1)
    tally.add(0, wl.run((label, goal, funcs, mode, flipped),
                        tracing.NullTracer()), 0.0)
    counts = run.check(wl, tally)
    assert counts['failed'] == 1 and counts['incorrect'] == 1


def _benchmark_json():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as fh:
        return json.load(fh)


def test_end_to_end_metric_names_match_benchmark_json(bench_env, capsys):
    wl = workloads.FuzzText(3, count=4)
    result = run.end_to_end(wl, 3, seconds=0)
    want = {m['name']: m['unit'] for m in _benchmark_json()['end_to_end']}
    assert {k: v['unit'] for k, v in result['metrics'].items()} == want
    assert all(v['value'] > 0 for v in result['metrics'].values())
    assert result['attempted'] == run.pass_count(wl, 0) * 4 * 5
    assert json.loads(json.dumps(result)) == result


def test_per_layer_metric_names_match_benchmark_json(bench_env, capsys):
    wl = workloads.FuzzText(3, count=4)
    result = run.traced(wl, 3)
    want = {m['name']: m['unit'] for m in _benchmark_json()['per_layer']}
    assert {k: v['unit'] for k, v in result['metrics'].items()} == want
    metrics = {k: v['value'] for k, v in result['metrics'].items()}
    assert metrics['parser.calls'] == 4
    assert metrics['evaluator.calls'] == 8
    assert metrics['translate.calls'] == metrics['refsolver.calls'] == 12
    assert result['attempted'] == 2 * 4 * 5


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), tmp_path)
    shutil.copytree(BENCH, tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('out', '__pycache__'))
    proc = subprocess.run(
        [sys.executable, 'perfbench/run.py', '--workload', 'fuzz-text',
         '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != 'PYTHONPATH'})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
