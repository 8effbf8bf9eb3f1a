"""Benchmark harness: case construction, frozen verdicts, CSV, charts."""

import csv
import math
import pathlib
import re

import pytest

from fdl.bench import (
    CSV_COLUMNS, FAMILIES, PATTERNS, BenchCase, default_n, emit_report,
    make_cases, mechanism_labels, render_chart, run_case, run_suite,
    write_csv,
)
from fdl.core import Exists, Forall, Not, nat
from fdl.solvers import SolverConfig, load_solver_configs


# Verdicts below were computed with fdl.oracle.oracle_check and frozen.
VERDICTS = {
    ('cycle4-valid', 1): dict.fromkeys(PATTERNS, 'valid'),
    ('cycle4-valid', 2): dict.fromkeys(PATTERNS, 'valid'),
    ('cycle4-unsat', 1): dict.fromkeys(PATTERNS, 'invalid'),
    ('cycle4-unsat', 2): dict.fromkeys(PATTERNS, 'invalid'),
    ('cycle4-sat1', 1): dict.fromkeys(PATTERNS, 'valid'),
    ('cycle4-sat1', 2): {**dict.fromkeys(PATTERNS, 'valid'), 'a4e0': 'invalid'},
    ('cycle4-sat2', 1): dict.fromkeys(PATTERNS, 'invalid'),
    ('cycle4-sat2', 2): {**dict.fromkeys(PATTERNS, 'invalid'), 'a4e0': 'valid'},
    ('contract-f-eq1', 1): dict.fromkeys(PATTERNS, 'valid'),
    ('contract-f-eq0', 1): dict.fromkeys(PATTERNS, 'invalid'),
    ('contract-g-eq1', 1): {**dict.fromkeys(PATTERNS, 'valid'),
                            'e1a3': 'invalid', 'a4e0': 'invalid'},
    ('contract-g-eq0', 1): {**dict.fromkeys(PATTERNS, 'invalid'),
                            'e4a0': 'valid', 'a1e3': 'valid'},
}

# Innermost-body evaluations for cycle4-valid, in PATTERNS order.
BODY_EVALS = {1: [1, 2, 4, 8, 16, 8, 4, 2],
              2: [1, 4, 16, 64, 256, 64, 16, 4]}


# -- case construction -----------------------------------------------------------


def test_grid_constants():
    assert len(PATTERNS) == 8 and len(FAMILIES) == 8
    assert default_n('cycle4-valid') == 6
    assert default_n('contract-f-eq1') == 5


def test_make_cases_covers_grid():
    cases = make_cases()
    assert len(cases) == 64
    assert make_cases(n=2)[0].n == 2
    assert {c.family for c in cases} == set(FAMILIES)


@pytest.mark.parametrize('pattern, prefix', [
    ('e4a0', [Exists] * 4), ('e2a2', [Exists, Exists, Forall, Forall]),
    ('a4e0', [Forall] * 4), ('a1e3', [Forall, Exists, Exists, Exists]),
])
def test_pattern_controls_quantifier_prefix(pattern, prefix):
    goal, _ = BenchCase('cycle4-valid', pattern, 2).build()
    for cls in prefix:
        assert isinstance(goal, cls)
        assert goal.ty == nat(3)
        goal = goal.body


def test_unsat_families_negate_the_quantified_goal():
    goal, _ = BenchCase('cycle4-unsat', 'a4e0', 1).build()
    assert isinstance(goal, Not)
    goal2, _ = BenchCase('cycle4-sat2', 'e4a0', 1).build()
    assert isinstance(goal2, Not)


def test_contract_cases_carry_contract_functions():
    goal, funcs = BenchCase('contract-g-eq1', 'a4e0', 1).build()
    assert set(funcs) == {'f', 'g'}
    for fd in funcs.values():
        assert fd.is_contract()
        assert [t for _, t in fd.params] == [nat(1)] * 4
        assert fd.result == nat(1)


def test_mechanism_labels_riscal_first():
    labels = mechanism_labels({'refsolve': None, 'z3': None})
    assert labels == ['RISCAL', 'refsolve-S', 'refsolve-Q', 'refsolve-E',
                      'z3-S', 'z3-Q', 'z3-E']


# -- frozen ground truth ------------------------------------------------------------


@pytest.mark.parametrize('family, n', sorted(VERDICTS))
def test_evaluator_matches_frozen_verdicts(family, n):
    for pattern in PATTERNS:
        rec = run_case(BenchCase(family, pattern, n), 'RISCAL', {})
        assert rec['outcome'] == 'ok'
        assert rec['verdict'] == VERDICTS[family, n][pattern], pattern


@pytest.mark.parametrize('family', [f for f in FAMILIES if 'cycle4' in f])
def test_solver_matches_frozen_verdicts_at_n1(family):
    cfgs = load_solver_configs()
    for pattern in PATTERNS:
        rec = run_case(BenchCase(family, pattern, 1), 'refsolve-S', cfgs)
        assert rec['outcome'] == 'ok'
        assert rec['verdict'] == VERDICTS[family, 1][pattern], pattern


@pytest.mark.parametrize('n', [1, 2])
def test_lazy_evaluation_body_counts(n):
    from fdl.evaluator import check_validity
    for pattern, want in zip(PATTERNS, BODY_EVALS[n]):
        goal, funcs = BenchCase('cycle4-valid', pattern, n).build()
        _, stats = check_validity(goal, funcs)
        assert stats.body_evals == want, pattern


# -- running ------------------------------------------------------------------------


def test_run_case_riscal_timeout():
    rec = run_case(BenchCase('cycle4-valid', 'a4e0', 6), 'RISCAL', {},
                   limit_ms=5)
    assert rec['outcome'] == 'timeout'
    assert rec['timed_out'] is True
    assert rec['verdict'] == ''


def test_run_case_unavailable_backend_is_skipped():
    ghost = {'ghost': SolverConfig('ghost', ['no-such-solver', '{file}'])}
    rec = run_case(BenchCase('cycle4-valid', 'e4a0', 1), 'ghost-S', ghost)
    assert rec['outcome'] == 'skipped'
    assert rec['verdict'] == ''


def test_run_case_rejects_unknown_mechanism():
    with pytest.raises(ValueError):
        run_case(BenchCase('cycle4-valid', 'e4a0', 1), 'mystery-X', {})


def test_quantifier_mechanism_falls_back_without_support():
    cfgs = {'qf': SolverConfig('qf', ['no-such-solver', '{file}'],
                               quantifiers=False)}
    rec = run_case(BenchCase('cycle4-valid', 'e4a0', 1), 'qf-Q', cfgs)
    assert rec['outcome'] == 'skipped'


@pytest.mark.parametrize('budget', [0, 1])
def test_run_case_honours_any_expansion_budget(budget):
    # e4a0 negates to four universals over 4 elements: 256 instances
    rec = run_case(BenchCase('cycle4-valid', 'e4a0', 2), 'refsolve-S',
                   load_solver_configs(), expansion_budget=budget)
    assert rec['outcome'] == 'error'
    assert rec['verdict'] == 'error'


def test_run_suite_appends_median_rows():
    cases = [BenchCase('cycle4-valid', 'e4a0', 1)]
    records = run_suite(cases, ['RISCAL'], configs={}, repeats=3)
    assert len(records) == 4
    med = records[-1]
    assert med['repeat'] == 'median'
    walls = sorted(r['wall_ms'] for r in records[:3])
    assert med['wall_ms'] == walls[1]


def test_run_suite_reports_each_run_to_progress():
    seen = []
    records = run_suite([BenchCase('cycle4-valid', 'e4a0', 1)], ['RISCAL'],
                        configs={}, repeats=2, progress=seen.append)
    # every run, as it is made; the median row is not a run
    assert seen == records[:2]
    assert [r['repeat'] for r in seen] == [1, 2]


def test_run_suite_single_repeat_has_no_median():
    records = run_suite([BenchCase('cycle4-valid', 'e4a0', 1)], ['RISCAL'],
                        configs={})
    assert [r['repeat'] for r in records] == [1]


# -- CSV ----------------------------------------------------------------------------


def test_csv_schema_and_round_trip(tmp_path):
    records = run_suite([BenchCase('cycle4-valid', 'e4a0', 1)],
                        ['RISCAL', 'refsolve-S'], repeats=2)
    path = tmp_path / 'bench.csv'
    write_csv(records, str(path))
    with open(path, newline='') as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert len(rows) == 6
    assert {r['mechanism'] for r in rows} == {'RISCAL', 'refsolve-S'}
    assert all(r['verdict'] == 'valid' for r in rows)
    assert {r['repeat'] for r in rows} == {'1', '2', 'median'}


# -- charts -------------------------------------------------------------------------


def _rec(pattern, mechanism, wall_ms, outcome='ok', repeat=1):
    return {'family': 'cycle4-valid', 'pattern': pattern, 'N': 1,
            'mechanism': mechanism, 'repeat': repeat, 'outcome': outcome,
            'verdict': 'valid', 'wall_ms': wall_ms, 'translate_ms': 0.0,
            'timed_out': outcome == 'timeout'}


def _circles(svg):
    return [(float(a), float(b)) for a, b in
            re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)]


def test_chart_log_scale_and_cap_line():
    records = ([_rec(p, 'A', 10.0) for p in PATTERNS]
               + [_rec(p, 'B', 100.0) for p in PATTERNS])
    svg = render_chart(records, 'cycle4-valid', 1, limit_ms=1000)
    ys = sorted({y for _, y in _circles(svg)})
    assert len(ys) == 2
    # equal ratios are equally spaced on a log axis
    cap_y = min(y for y in ys)
    assert 'stroke-dasharray' in svg


def test_chart_timeouts_sit_on_the_top_line():
    records = [_rec('e4a0', 'A', 3.0),
               _rec('e3a1', 'A', 123456.0, outcome='timeout'),
               _rec('e2a2', 'A', 7.0, outcome='unknown')]
    svg = render_chart(records, 'cycle4-valid', 1, limit_ms=1000)
    dashed = re.search(r'y1="([\d.]+)" x2="\d+" y2="[\d.]+" stroke="#888"', svg)
    top_y = float(dashed.group(1))
    ys = [y for _, y in _circles(svg)]
    assert ys.count(top_y) == 2


def test_chart_wall_times_clamp_to_one_ms():
    records = [_rec('e4a0', 'A', 0.01), _rec('e3a1', 'A', 1.0)]
    svg = render_chart(records, 'cycle4-valid', 1, limit_ms=1000)
    ys = {y for _, y in _circles(svg)}
    assert len(ys) == 1


def test_chart_skipped_cells_split_the_polyline():
    records = [_rec(p, 'A', 10.0) for p in PATTERNS]
    records[3] = _rec(PATTERNS[3], 'A', 0.0, outcome='skipped')
    svg = render_chart(records, 'cycle4-valid', 1)
    assert svg.count('<polyline') == 2
    assert len(_circles(svg)) == 7


def test_chart_prefers_median_rows():
    records = [_rec('e4a0', 'A', 5.0, repeat=1),
               _rec('e4a0', 'A', 50.0, repeat=2),
               _rec('e4a0', 'A', 5000.0, repeat='median')]
    svg = render_chart(records, 'cycle4-valid', 1, limit_ms=10 ** 6)
    assert len(_circles(svg)) == 1


def test_chart_has_axes_and_legend():
    svg = render_chart([_rec(p, 'RISCAL', 10.0) for p in PATTERNS],
                       'cycle4-valid', 1)
    for pat in PATTERNS:
        assert '>%s</text>' % pat in svg
    assert 'wall ms' in svg
    assert '>RISCAL</text>' in svg


# -- report -------------------------------------------------------------------------


def test_emit_report_writes_csv_and_one_svg_per_cell(tmp_path):
    records = [_rec('e4a0', 'A', 5.0)]
    records.append(dict(records[0], family='cycle4-unsat'))
    records.append(dict(records[0], N=2))
    paths = emit_report(records, str(tmp_path))
    names = sorted(p.rsplit('/', 1)[1] for p in paths)
    assert names == ['bench.csv', 'cycle4-unsat-N1.svg',
                     'cycle4-valid-N1.svg', 'cycle4-valid-N2.svg']
    for p in paths:
        assert pathlib.Path(p).read_text()
