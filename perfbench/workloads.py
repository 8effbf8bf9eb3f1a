"""The three workloads: their inputs, how they call fdl, and their checks.

Each workload is a closed loop with one client: the benchmark process
decides one goal at a time and starts the next only when the previous one
has its verdicts, as `fdl check`, `fdl bench` and `fdl fuzz` do. At most one
solver child process runs at a time.

A verdict is one (goal, mechanism) decision, timed from the call into the
mechanism's entry point until it returns. Each verdict is compared with an
independent reference: the committed oracle table for the grids, the live
oracle for fuzz-text. Why each workload exists, and which layer metric
should move which end-to-end metric on it, is in perfbench/README.md.
"""

import time
from collections import namedtuple

from fdl import bench
from fdl.core import resolve_model, typecheck_model
from fdl.evaluator import EvalTimeout, check_validity
from fdl.oracle import oracle_check
from fdl.parser import parse_model
from fdl.refsolver import Script, Solver, check_script
from fdl.solvers import DEFAULT_TIMEOUT_MS, load_solver_configs, run_solver
from fdl.translate import (MODES, SmtOptions, TranslateError, emit_smtlib,
                           translate)

import expected
import fuzztext

EVAL_MODES = ('nondeterministic', 'deterministic')
ANSWER_VERDICT = {'unsat': 'valid', 'sat': 'invalid', 'unknown': 'undecided'}
FUZZ_GOALS = 2000
# determinize adds a quantifier to every choice. The oracle's static size
# estimate multiplies it into every enclosing binder, although it only
# multiplies the work of its own choice by the carrier size, so the default
# cap would refuse goals the oracle decides in milliseconds.
DETERMINIZED_CAP = 2 ** 62

# `choice` marks a fuzz-text goal that applies a choice. On such goals a
# refsolve `valid` that the oracle contradicts is the known difference in
# choice semantics described in fuzztext.py: it is counted as failed and in
# wrong_valid, and printed, but does not make the run incorrect.
Result = namedtuple('Result', 'goal mechanism status expected ms choice')


def _timed(fn, *args):
    """(fn's verdict status, its wall time in ms)."""
    t0 = time.perf_counter()
    status = fn(*args)
    return status, (time.perf_counter() - t0) * 1000.0


def _evaluate(tr, goal, funcs, mode) -> str:
    with tr.span('evaluator'):
        try:
            verdict, stats = check_validity(goal, funcs, mode,
                                            limit_ms=DEFAULT_TIMEOUT_MS)
        except EvalTimeout:
            return 'timeout'
    tr.count('evaluator.body_evals', stats.body_evals)
    tr.count('evaluator.choose_yields', stats.choose_yields)
    return verdict.status


# Each workload's `pass_seconds` is about the length of one pass on the
# machine the benchmark was written on; a run makes as many passes as fit in
# --seconds at that length (see run.pass_count).


class EvalGrid:
    """bench.FAMILIES x bench.PATTERNS at N=4, by the evaluator in both
    modes: 128 verdicts per pass, no translation and no solver."""

    name = 'eval-grid'
    tail_pct = 90
    pass_seconds = 10
    N = 4

    def __init__(self, seed):
        table = expected.load()
        self.items = []
        for case in bench.make_cases(n=self.N):
            goal, funcs = case.build()
            want = table[expected.key(case.family, case.pattern, case.n)]
            for mode in EVAL_MODES:
                self.items.append((expected.key(case.family, case.pattern,
                                                case.n), goal, funcs, mode,
                                   want))

    def run(self, item, tr):
        label, goal, funcs, mode, want = item
        tr.goal = label
        with tr.span('goal'):
            status, ms = _timed(_evaluate, tr, goal, funcs, mode)
        return [Result(label, 'evaluator/' + mode, status, want, ms, False)]

    def describe(self, goal):
        return goal


class SmtGrid:
    """The same 64 cells at N=2, each decided as `fdl bench --mechanisms
    refsolve-S` does, through the built-in refsolve backend in a child
    process."""

    name = 'smt-grid'
    tail_pct = 84
    pass_seconds = 10
    N = 2
    MECHANISM = 'refsolve-S'

    def __init__(self, seed):
        table = expected.load()
        self.configs = load_solver_configs()
        self.solver = self.configs['refsolve']
        self.items = [(case, table[expected.key(case.family, case.pattern,
                                                case.n)])
                      for case in bench.make_cases(n=self.N)]

    def run(self, item, tr):
        case, want = item
        label = expected.key(case.family, case.pattern, case.n)
        if tr.enabled:
            return self._run_traced(case, label, want, tr)

        def decide():
            rec = bench.run_case(case, self.MECHANISM, self.configs)
            if rec['outcome'] == 'skipped':
                return 'unavailable'
            if rec['outcome'] in ('timeout', 'error'):
                return rec['outcome']
            return rec['verdict']

        status, ms = _timed(decide)
        return [Result(label, self.MECHANISM, status, want, ms, False)]

    def describe(self, goal):
        return goal

    def _run_traced(self, case, label, want, tr):
        """The steps `solvers.decide` takes, one span each, then the script
        replayed in process (outside the verdict's time) to split the
        solver's wall time into refsolve work and process start-up."""
        tr.goal = label
        text = None

        def decide():
            nonlocal text
            goal, funcs = case.build()
            try:
                with tr.span('translate'):
                    script = translate(goal, funcs,
                                       SmtOptions(mode='eliminate'))
                with tr.span('translate.emit'):
                    text = emit_smtlib(script)
            except TranslateError:
                return 'error'
            _count_script(tr, script, text)
            with tr.span('solvers'):
                outcome = run_solver(self.solver, text, DEFAULT_TIMEOUT_MS)
            if outcome.answer == 'error':
                tr.count('solvers.errors')
            if outcome.answer in ('timeout', 'error', 'unavailable'):
                return outcome.answer
            return ANSWER_VERDICT[outcome.answer]

        with tr.span('goal'):
            with tr.span('verdict'):
                status, ms = _timed(decide)
            if text is not None:
                with tr.span('replay'):
                    _refsolve_traced(tr, text)
        return [Result(label, self.MECHANISM, status, want, ms, False)]


class FuzzText:
    """Seeded random goals given as model text, loaded, checked by the
    oracle, and decided by the evaluator in both modes and by refsolve in
    process in every translation mode: the in-process part of `fdl fuzz`."""

    name = 'fuzz-text'
    tail_pct = 90
    pass_seconds = 7.5

    def __init__(self, seed, count=FUZZ_GOALS):
        self.items = [fuzz_item(index, text) for index, text in
                      enumerate(fuzztext.generate(seed, count))]

    def run(self, item, tr):
        index, text, det = item
        tr.goal = index
        with tr.span('goal'):
            return self._decide_all(index, text, det, tr)

    def _decide_all(self, index, text, det, tr):
        with tr.span('parser'):
            model = parse_model(text)
        with tr.span('core.resolve'):
            model = resolve_model(model)
        with tr.span('core.typecheck'):
            diags = typecheck_model(model)
        if diags:
            raise RuntimeError('generated goal %d does not typecheck: '
                               '%s\n%s' % (index, diags[0], text))
        goal, funcs = model.theorems['t'], model.funcs
        choice = det is not None
        with tr.span('oracle'):
            want = oracle_check(goal, funcs)
            want_det = (oracle_check(*det, DETERMINIZED_CAP) if choice
                        else want)

        results = []
        for mode in EVAL_MODES:
            with tr.span('verdict'):
                status, ms = _timed(_evaluate, tr, goal, funcs, mode)
            results.append(Result(index, 'evaluator/' + mode, status,
                                  want if mode == 'nondeterministic'
                                  else want_det, ms, choice))

        for mode in MODES:
            with tr.span('verdict'):
                status, ms = _timed(_refsolve_in_process, tr, goal, funcs,
                                    mode)
            results.append(Result(index, 'refsolve/' + mode, status, want, ms,
                                  choice))
        return results

    def describe(self, goal):
        return self.items[goal][1]


def fuzz_item(index, text):
    """(index, text, det): `det` is the goal and functions of `text` as
    `fuzztext.determinize` rewrites them, the reference for deterministic
    evaluation, or None if the goal has no choice. The rewrite is the
    benchmark's own work, so it is done here, at set-up, and is not timed
    as the oracle's work or the goal's."""
    if 'choose' not in text and 'ensures' not in text:
        return index, text, None
    model = resolve_model(parse_model(text))
    det_goal, det_funcs, changed = fuzztext.determinize(
        model.theorems['t'], model.funcs)
    return index, text, (det_goal, det_funcs) if changed else None


def _refsolve_in_process(tr, goal, funcs, mode) -> str:
    """translate, emit_smtlib and refsolver.check_script, as `fdl fuzz`
    runs them."""
    try:
        with tr.span('translate'):
            script = translate(goal, funcs, SmtOptions(mode=mode))
        with tr.span('translate.emit'):
            text = emit_smtlib(script)
    except TranslateError:
        return 'error'
    if not tr.enabled:
        return ANSWER_VERDICT[check_script(text)]
    _count_script(tr, script, text)
    return ANSWER_VERDICT[_refsolve_traced(tr, text)]


def _count_script(tr, script, text):
    st = script.stats
    tr.count('translate.instances', st.expanded_instances)
    tr.count('translate.conjuncts',
             st.goal_conjuncts + st.skolem_range_conjuncts
             + st.choose_axiom_conjuncts + st.type_constraint_conjuncts)
    tr.count('translate.script_bytes', len(text))


def _refsolve_traced(tr, text) -> str:
    """`refsolver.check_script`, split into its parse and search steps."""
    with tr.span('refsolver.parse'):
        script = Script.parse(text)
    solver = Solver(script)
    with tr.span('refsolver.search'):
        answer = solver.check()
    tr.count('refsolver.nodes', solver.nodes)
    if answer == 'unknown':
        tr.count('refsolver.unknown')
    return answer


WORKLOADS = {w.name: w for w in (EvalGrid, SmtGrid, FuzzText)}
