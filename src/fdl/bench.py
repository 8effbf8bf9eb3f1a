"""Benchmark harness comparing the evaluator against solver backends.

Eight goal families over four variables x1..x4 of type nat[2^N - 1]:

  cycle4-valid    no <-cycle of length 4 exists (valid)
  cycle4-unsat    its negation (invalid)
  cycle4-sat1     like cycle4-valid but the closing edge is x4 < x1 + 4
                  (satisfiable, not valid for interesting N)
  cycle4-sat2     negation of cycle4-sat1
  contract-f-eq1  f(x1..x4) = 1 for the contract function whose ensures
                  forces 0 on a cycle and 1 otherwise (the cycle is
                  impossible, so f is constantly 1)
  contract-f-eq0  f(x1..x4) = 0
  contract-g-eq1  g(x1..x4) = 1 where g is 0 iff x1 = x2 and x3 = x4
  contract-g-eq0  g(x1..x4) = 0

Each family is quantified by one of eight patterns: e.g. e3a1 binds x1..x3
existentially and x4 universally, a2e2 binds x1, x2 universally and x3, x4
existentially. Mechanisms: RISCAL (the evaluator), and per backend <s>-S
(eliminate), <s>-Q (preserve, or expand-all if the backend cannot do
quantifiers), <s>-E (expand-all).
"""

import csv
import math
import os
import time
from dataclasses import dataclass

from .core import (And, Apply, Atom, AddConst, Exists, Forall, FuncDecl, Ite,
                   Lit, Not, Var, nat)
from .evaluator import EvalTimeout, check_validity
from .solvers import (DEFAULT_TIMEOUT_MS, SolverOutcome, decide,
                      load_solver_configs)
from .translate import SmtOptions

PATTERNS = ('e4a0', 'e3a1', 'e2a2', 'e1a3', 'a4e0', 'a3e1', 'a2e2', 'a1e3')
FAMILIES = ('cycle4-valid', 'cycle4-unsat', 'cycle4-sat1', 'cycle4-sat2',
            'contract-f-eq1', 'contract-f-eq0',
            'contract-g-eq1', 'contract-g-eq0')
CSV_COLUMNS = ('family', 'pattern', 'N', 'mechanism', 'repeat', 'outcome',
               'verdict', 'wall_ms', 'translate_ms', 'timed_out')

VARS = ('x1', 'x2', 'x3', 'x4')


def default_n(family: str) -> int:
    return 5 if family.startswith('contract') else 6


def _conj(parts):
    f = parts[0]
    for p in parts[1:]:
        f = And(f, p)
    return f


def _cycle(names, last_slack=0):
    edges = [Atom('<', Var(a), Var(b))
             for a, b in zip(names, names[1:])]
    closing = Var(names[0])
    if last_slack:
        closing = AddConst(closing, last_slack)
    edges.append(Atom('<', Var(names[-1]), closing))
    return _conj(edges)


def _quantify(pattern: str, ty, matrix):
    kinds = []
    for k, cnt in ((pattern[0], int(pattern[1])), (pattern[2], int(pattern[3]))):
        kinds += [k] * cnt
    f = matrix
    for name, k in reversed(list(zip(VARS, kinds))):
        cls = Exists if k == 'e' else Forall
        f = cls(name, ty, f)
    return f


def _contract_funcs(n: int) -> dict:
    ty = nat(2 ** n - 1)
    params = [(v, ty) for v in VARS]
    f = FuncDecl('f', params, nat(1), ensures=Atom(
        '=', Var('result'), Ite(_cycle(VARS), Lit(0), Lit(1))))
    g = FuncDecl('g', params, nat(1), ensures=Atom(
        '=', Var('result'),
        Ite(And(Atom('=', Var('x1'), Var('x2')),
                Atom('=', Var('x3'), Var('x4'))), Lit(0), Lit(1))))
    return {'f': f, 'g': g}


@dataclass
class BenchCase:
    family: str
    pattern: str
    n: int

    def build(self):
        """Returns (goal formula, function declarations)."""
        ty = nat(2 ** self.n - 1)
        fam = self.family
        if fam.startswith('cycle4'):
            slack = 4 if fam in ('cycle4-sat1', 'cycle4-sat2') else 0
            goal = _quantify(self.pattern, ty, Not(_cycle(VARS, slack)))
            if fam in ('cycle4-unsat', 'cycle4-sat2'):
                goal = Not(goal)
            return goal, {}
        funcs = _contract_funcs(self.n)
        fn = 'f' if '-f-' in fam else 'g'
        value = 1 if fam.endswith('eq1') else 0
        matrix = Atom('=', Apply(fn, [Var(v) for v in VARS]), Lit(value))
        return _quantify(self.pattern, ty, matrix), funcs


def make_cases(families=FAMILIES, patterns=PATTERNS, n=None) -> list:
    return [BenchCase(f, p, n if n is not None else default_n(f))
            for f in families for p in patterns]


def mechanism_labels(configs) -> list:
    out = ['RISCAL']
    for name in configs:
        out += ['%s-S' % name, '%s-Q' % name, '%s-E' % name]
    return out


def run_case(case: BenchCase, mechanism: str, configs,
             limit_ms: int = DEFAULT_TIMEOUT_MS, repeat: int = 1,
             expansion_budget=None) -> dict:
    goal, funcs = case.build()
    rec = {'family': case.family, 'pattern': case.pattern, 'N': case.n,
           'mechanism': mechanism, 'repeat': repeat, 'outcome': 'ok',
           'verdict': '', 'wall_ms': 0.0, 'translate_ms': 0.0,
           'timed_out': False}
    if mechanism == 'RISCAL':
        t0 = time.monotonic()
        try:
            verdict, _ = check_validity(goal, funcs, 'nondeterministic',
                                        limit_ms=limit_ms)
            rec['verdict'] = verdict.status
            if verdict.status == 'error':
                rec['outcome'] = 'error'
        except EvalTimeout:
            rec['outcome'] = 'timeout'
            rec['timed_out'] = True
        rec['wall_ms'] = round((time.monotonic() - t0) * 1000.0, 3)
        return rec

    name, _, suffix = mechanism.rpartition('-')
    cfg = configs.get(name)
    if cfg is None or suffix not in ('S', 'Q', 'E'):
        raise ValueError('unknown mechanism %r' % mechanism)
    if suffix == 'S':
        mode = 'eliminate'
    elif suffix == 'E':
        mode = 'expand-all'
    else:
        mode = 'preserve' if cfg.quantifiers else 'expand-all'
    opts = SmtOptions(mode=mode)
    if expansion_budget is not None:
        opts.expansion_budget = expansion_budget
    verdict, outcome, translate_ms = decide(goal, funcs, cfg, opts, limit_ms)
    rec['verdict'] = verdict.status
    rec['wall_ms'] = round(outcome.wall_ms + translate_ms, 3)
    rec['translate_ms'] = round(translate_ms, 3)
    if outcome.answer in ('sat', 'unsat'):
        rec['outcome'] = 'ok'
    elif outcome.answer == 'unavailable':
        rec['outcome'] = 'skipped'
        rec['verdict'] = ''
    else:
        rec['outcome'] = outcome.answer
        rec['timed_out'] = outcome.answer == 'timeout'
    return rec


def run_suite(cases, mechanisms, configs=None, limit_ms=DEFAULT_TIMEOUT_MS,
              repeats: int = 1, expansion_budget=None, progress=None) -> list:
    """Run every (case, mechanism) cell; with repeats > 1 a median row
    (repeat='median', by wall time) is appended per cell, and charts plot
    only the medians. progress, when given, is called with each run's
    record as soon as it is made."""
    configs = configs if configs is not None else load_solver_configs()
    records = []
    for case in cases:
        for mech in mechanisms:
            cell = []
            for r in range(1, repeats + 1):
                rec = run_case(case, mech, configs, limit_ms, r,
                               expansion_budget)
                cell.append(rec)
                records.append(rec)
                if progress is not None:
                    progress(rec)
            if repeats > 1:
                mid = sorted(cell, key=lambda x: x['wall_ms'])[(len(cell) - 1) // 2]
                med = dict(mid)
                med['repeat'] = 'median'
                records.append(med)
    return records


def write_csv(records, path):
    with open(path, 'w', newline='') as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for rec in records:
            w.writerow({k: rec[k] for k in CSV_COLUMNS})


# ---------------------------------------------------------------------------
# charts


PALETTE = ('#1f77b4', '#d62728', '#2ca02c', '#9467bd',
           '#ff7f0e', '#8c564b', '#e377c2', '#17becf')

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 36, 46


def _plot_rows(records, family, n):
    rows = [r for r in records if r['family'] == family and r['N'] == n]
    if any(r['repeat'] == 'median' for r in rows):
        rows = [r for r in rows if r['repeat'] == 'median']
    else:
        rows = [r for r in rows if r['repeat'] == 1]
    return rows


def render_chart(records, family, n, limit_ms=DEFAULT_TIMEOUT_MS) -> str:
    """One SVG: wall time (log scale, clamped to [1, limit]) across the
    eight patterns, one polyline per mechanism. Cells that timed out or
    stayed undecided sit on the top line; unavailable cells leave gaps."""
    rows = _plot_rows(records, family, n)
    mechs = []
    for r in rows:
        if r['mechanism'] not in mechs:
            mechs.append(r['mechanism'])
    top = math.log10(limit_ms)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def x_at(i):
        return _ML + plot_w * (i + 0.5) / len(PATTERNS)

    def y_at(ms):
        v = min(max(ms, 1.0), limit_ms)
        return _MT + plot_h * (1 - math.log10(v) / top)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
           % (_W, _H),
           '<rect width="%d" height="%d" fill="white"/>' % (_W, _H),
           '<text x="%d" y="20" font-size="14" font-family="sans-serif">'
           '%s (N=%d, timeout %d ms)</text>' % (_ML, family, n, limit_ms)]
    decade = 1
    while decade <= limit_ms:
        y = y_at(decade)
        out.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                   'stroke="#ddd"/>' % (_ML, y, _W - _MR, y))
        out.append('<text x="%d" y="%.1f" font-size="10" text-anchor="end" '
                   'font-family="sans-serif">%d</text>'
                   % (_ML - 6, y + 3, decade))
        decade *= 10
    y = y_at(limit_ms)
    out.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#888" '
               'stroke-dasharray="4 3"/>' % (_ML, y, _W - _MR, y))
    for i, pat in enumerate(PATTERNS):
        out.append('<text x="%.1f" y="%d" font-size="10" text-anchor="middle" '
                   'font-family="sans-serif">%s</text>'
                   % (x_at(i), _H - _MB + 16, pat))
    mid_y = _MT + plot_h / 2
    out.append('<text x="14" y="%.1f" font-size="10" font-family="sans-serif" '
               'transform="rotate(-90 14 %.1f)">wall ms</text>'
               % (mid_y, mid_y))
    for mi, mech in enumerate(mechs):
        color = PALETTE[mi % len(PALETTE)]
        pts = []
        for i, pat in enumerate(PATTERNS):
            cell = [r for r in rows
                    if r['mechanism'] == mech and r['pattern'] == pat]
            if not cell or cell[0]['outcome'] == 'skipped':
                pts.append(None)
                continue
            r = cell[0]
            ms = limit_ms if r['outcome'] in ('timeout', 'unknown', 'error') \
                else r['wall_ms']
            pts.append((x_at(i), y_at(ms)))
        runs, cur = [], []
        for p in pts:
            if p is None:
                if cur:
                    runs.append(cur)
                cur = []
            else:
                cur.append(p)
        if cur:
            runs.append(cur)
        for run in runs:
            if len(run) > 1:
                path = ' '.join('%.1f,%.1f' % p for p in run)
                out.append('<polyline points="%s" fill="none" stroke="%s" '
                           'stroke-width="1.5"/>' % (path, color))
            for px, py in run:
                out.append('<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>'
                           % (px, py, color))
        ly = _MT + 14 * mi
        out.append('<rect x="%d" y="%d" width="10" height="10" fill="%s"/>'
                   % (_W - _MR - 110, ly, color))
        out.append('<text x="%d" y="%d" font-size="10" '
                   'font-family="sans-serif">%s</text>'
                   % (_W - _MR - 96, ly + 9, mech))
    out.append('</svg>')
    return '\n'.join(out) + '\n'


def emit_report(records, outdir, limit_ms=DEFAULT_TIMEOUT_MS) -> list:
    """Write bench.csv plus one SVG per (family, N); returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, 'bench.csv')]
    write_csv(records, paths[0])
    seen = []
    for r in records:
        key = (r['family'], r['N'])
        if key not in seen:
            seen.append(key)
    for family, n in seen:
        p = os.path.join(outdir, '%s-N%d.svg' % (family, n))
        with open(p, 'w') as fh:
            fh.write(render_chart(records, family, n, limit_ms))
        paths.append(p)
    return paths
