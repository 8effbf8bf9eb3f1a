"""Validity checking for first-order formulas over finite domains.

Two decision mechanisms share one AST: a lazy evaluator with support for
nondeterministic choice and contract functions, and a translator to
bit-vector SMT-LIB discharged by external solvers (a small reference
solver, fdl.refsolver, ships with the package and needs no install).

The names below are imported from their modules on first use (PEP 562),
so that importing one module of the package loads no other.
"""

import importlib
import sys

__version__ = '0.1.0'

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ('core', 'FdlError FiniteType FuncDecl Model TypeError_ nat '
             'typecheck_formula typecheck_model'),
    ('evaluator', 'EvalTimeout Verdict check_validity'),
    ('oracle', 'oracle_check'),
    ('parser', 'ParseError parse_formula parse_model print_formula'),
    ('solvers', 'decide load_solver_configs run_solver'),
    ('translate', 'SmtOptions TranslateError emit_smtlib translate'),
) for name in names.split()}

__all__ = [*_EXPORTS, '__version__']


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError('module %r has no attribute %r'
                             % (__name__, name))
    value = getattr(importlib.import_module('.' + module, __name__), name)
    globals()[name] = value
    return value


class _Package(type(sys)):
    """The package's module type. Importing the submodule translate binds
    it on the package in place of the exported function translate; the
    function is kept, as when the package imported its exports eagerly."""

    def __setattr__(self, name, value):
        if name in _EXPORTS and isinstance(value, type(sys)):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
