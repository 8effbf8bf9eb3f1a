"""Command line interface.

Exit codes: 0 valid, 1 invalid, 2 undecided, evaluation failure or an
internal error, 3 parse/type diagnostics or usage errors.
"""

import argparse
import random
import sys

from . import bench as benchmod
from .core import FdlError, TypeError_, resolve_model, typecheck_model
from .evaluator import EvalTimeout, Verdict, check_validity
from .oracle import DEFAULT_CAP, oracle_check
from .parser import ParseError, parse_model, print_formula
from .randgen import GoalGen, differential
from .solvers import DEFAULT_TIMEOUT_MS, decide, load_solver_configs
from .translate import (MODES, SmtOptions, TranslateError, emit_smtlib,
                        translate)


class CliError(Exception):
    """Carries the process exit code."""

    def __init__(self, msg, code=3):
        super().__init__(msg)
        self.code = code


def _parse_params(pairs) -> dict:
    out = {}
    for p in pairs or ():
        name, sep, value = p.partition('=')
        if not sep or not name:
            raise CliError('bad --param %r, expected NAME=VALUE' % p)
        try:
            out[name] = int(value)
        except ValueError:
            raise CliError('bad --param value %r, expected an integer' % value)
    return out


def _load_model(path, params):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(str(e))
    try:
        model = parse_model(text)
        model = resolve_model(model, _parse_params(params))
        diags = typecheck_model(model)
    except ParseError as e:
        raise CliError('\n'.join(str(d) for d in e.diagnostics))
    except TypeError_ as e:
        raise CliError(str(e))
    except RecursionError:  # as in Parser.guarded: a diagnostic, exit 3
        raise CliError('model nested too deeply') from None
    if diags:
        raise CliError('\n'.join(str(d) for d in diags))
    return model


def _pick_goal(model, name):
    if not model.theorems:
        raise CliError('model declares no theorem')
    if name is None:
        name = next(iter(model.theorems))
    if name not in model.theorems:
        raise CliError('no theorem named %r (have: %s)'
                       % (name, ', '.join(model.theorems)))
    return name, model.theorems[name]


def _smt_options(args, goal_name='') -> SmtOptions:
    return SmtOptions(mode=args.mode,
                      heuristic_factor=args.heuristic_factor,
                      eliminate_choices=args.eliminate_choices,
                      inline_definitions=args.inline_definitions,
                      expansion_budget=args.expansion_budget,
                      goal_name=goal_name)


def _translate_flags(p):
    p.add_argument('--mode', choices=MODES, default='eliminate',
                   help='quantifier handling in the emitted script')
    p.add_argument('--heuristic-factor', type=float, default=2.0,
                   help='expand an existential when instantiating it costs '
                        'more than factor * domain size')
    p.add_argument('--eliminate-choices', action='store_true',
                   help='rewrite choose terms to quantifiers where possible')
    p.add_argument('--inline-definitions', action='store_true',
                   help='substitute function bodies instead of define-fun')
    p.add_argument('--expansion-budget', type=int, default=2 ** 20,
                   help='abort translation past this many instantiations')


def _goal_flags(p):
    p.add_argument('model', help='model file to load')
    p.add_argument('--goal', help='theorem name (default: first declared)')
    p.add_argument('--param', action='append', metavar='NAME=VALUE',
                   help='override a model parameter')


def _report(verdict: Verdict, stats_lines=()) -> int:
    print(str(verdict))
    for line in stats_lines:
        print(line, file=sys.stderr)
    return {'valid': 0, 'invalid': 1}.get(verdict.status, 2)


def _cmd_check(args) -> int:
    model = _load_model(args.model, args.param)
    name, goal = _pick_goal(model, args.goal)
    if args.mechanism == 'evaluator':
        try:
            verdict, st = check_validity(goal, model.funcs, args.eval_mode,
                                         limit_ms=args.timeout_ms)
        except EvalTimeout:
            return _report(Verdict('undecided', reason='timeout'))
        lines = []
        if args.stats:
            lines = ['bodyEvals=%d chooseYields=%d'
                     % (st.body_evals, st.choose_yields)]
        return _report(verdict, lines)
    configs = load_solver_configs(args.solvers_config)
    if args.mechanism not in configs:
        raise CliError('unknown mechanism %r (have: evaluator, %s)'
                       % (args.mechanism, ', '.join(configs)))
    verdict, outcome, translate_ms = decide(
        goal, model.funcs, configs[args.mechanism], _smt_options(args, name),
        args.timeout_ms)
    lines = []
    if args.stats:
        lines = ['translate_ms=%.1f solver_ms=%.1f answer=%s'
                 % (translate_ms, outcome.wall_ms, outcome.answer)]
    return _report(verdict, lines)


def _cmd_translate(args) -> int:
    model = _load_model(args.model, args.param)
    name, goal = _pick_goal(model, args.goal)
    try:
        script = translate(goal, model.funcs, _smt_options(args, name))
    except TranslateError as e:
        print('translation failed: %s' % e, file=sys.stderr)
        return 3
    text = emit_smtlib(script)
    if args.out:
        with open(args.out, 'w') as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.stats:
        st = script.stats
        print('goal=%d skolem-range=%d choose=%d type-constraint=%d '
              'instances=%d est-skolem=%d est-expansion=%d '
              'contracts-as-definitions=%d'
              % (st.goal_conjuncts, st.skolem_range_conjuncts,
                 st.choose_axiom_conjuncts, st.type_constraint_conjuncts,
                 st.expanded_instances, st.estimate_skolem,
                 st.estimate_expansion, st.contracts_as_definitions),
              file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    if args.repeats < 1:
        raise CliError('--repeats must be at least 1, got %d' % args.repeats)
    configs = load_solver_configs(args.solvers_config)
    if args.mechanisms:
        mechs = args.mechanisms
    else:
        avail = {n: c for n, c in configs.items() if c.available()}
        mechs = benchmod.mechanism_labels(avail)
    cases = benchmod.make_cases(args.families, args.patterns, args.size)

    def progress(rec):
        print('%s %s N=%d %s: %s %s %.1fms'
              % (rec['family'], rec['pattern'], rec['N'], rec['mechanism'],
                 rec['outcome'], rec['verdict'], rec['wall_ms']),
              file=sys.stderr)

    records = benchmod.run_suite(cases, mechs, configs, args.timeout_ms,
                                 args.repeats, args.expansion_budget, progress)
    paths = benchmod.emit_report(records, args.out, args.timeout_ms)
    for p in paths:
        print(p)
    return 0


def _cmd_oracle(args) -> int:
    model = _load_model(args.model, args.param)
    name, goal = _pick_goal(model, args.goal)
    try:
        status = oracle_check(goal, model.funcs, cap=args.cap)
    except FdlError as e:
        raise CliError(str(e), code=2)
    return _report(Verdict(status))


def _cmd_fuzz(args) -> int:
    rng = random.Random(args.seed)
    gen = GoalGen(rng, args.max_depth, args.max_bound)
    for i in range(args.count):
        goal = gen.goal()
        got = differential(goal)
        want = got.pop('oracle')
        bad = {k: v for k, v in got.items() if v != want}
        if bad:
            print('mismatch on goal %d (oracle: %s):' % (i, want))
            print('  %s' % print_formula(goal))
            for k, v in bad.items():
                print('  %s: %s' % (k, v))
            return 1
    print('ok: %d goals agree across evaluator, oracle and refsolve'
          % args.count)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog='fdl',
        description='check validity of first-order formulas over finite '
                    'domains, by direct evaluation or via SMT backends')
    sub = ap.add_subparsers(dest='cmd', required=True)

    p = sub.add_parser('check', help='decide a goal')
    _goal_flags(p)
    p.add_argument('--mechanism', default='evaluator',
                   help="'evaluator' or a configured solver name")
    p.add_argument('--eval-mode',
                   choices=('nondeterministic', 'deterministic'),
                   default='nondeterministic')
    p.add_argument('--timeout-ms', type=int, default=DEFAULT_TIMEOUT_MS)
    p.add_argument('--solvers-config', help='INI file overriding backends')
    p.add_argument('--stats', action='store_true',
                   help='print counters to stderr')
    _translate_flags(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser('translate', help='emit an SMT-LIB script')
    _goal_flags(p)
    _translate_flags(p)
    p.add_argument('--out', help='write the script here instead of stdout')
    p.add_argument('--stats', action='store_true',
                   help='print conjunct counts to stderr')
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser('bench', help='run the benchmark suite')
    p.add_argument('--families', nargs='+', default=list(benchmod.FAMILIES),
                   choices=list(benchmod.FAMILIES), metavar='FAMILY')
    p.add_argument('--patterns', nargs='+', default=list(benchmod.PATTERNS),
                   choices=list(benchmod.PATTERNS), metavar='PATTERN')
    p.add_argument('-N', '--size', type=int, default=None,
                   help='domain bound exponent (default per family)')
    p.add_argument('--mechanisms', nargs='+', metavar='MECH',
                   help='default: RISCAL plus -S/-Q/-E per available backend')
    p.add_argument('--timeout-ms', type=int, default=DEFAULT_TIMEOUT_MS)
    p.add_argument('--repeats', type=int, default=1)
    p.add_argument('--expansion-budget', type=int, default=None)
    p.add_argument('--solvers-config', help='INI file overriding backends')
    p.add_argument('--out', default='bench-out',
                   help='directory for bench.csv and the charts')
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser('oracle',
                       help='decide a goal by exhaustive truth sets')
    _goal_flags(p)
    p.add_argument('--cap', type=int, default=DEFAULT_CAP,
                   help='refuse assignment spaces larger than this')
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser('fuzz',
                       help='differential-test random goals in process')
    p.add_argument('--count', type=int, default=100)
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--max-depth', type=int, default=4)
    p.add_argument('--max-bound', type=int, default=3)
    p.set_defaults(fn=_cmd_fuzz)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print('error: %s' % e, file=sys.stderr)
        return e.code
    except Exception as e:  # an internal failure, never a traceback
        print('error: %s: %s' % (type(e).__name__, e), file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
