r"""Concrete syntax for models and formulas.

    val N: nat = 6;
    type D = nat[2^N - 1];
    fun f(x: D): nat[1] ensures result = if x < 2 then 0 else 1;
    theorem goal <=> forall x: D, y: D. exists z: D. x < z \/ z <= y;

Operators, loosest first: <=>, => (right-associative), \/, /\, prefix !,
the comparisons = < <= > >= (they do not chain; > and >= are flipped < and
<=), +, *. Quantifier and choose bodies extend as far right as possible.
Terms: literals, variables, if/then/else, choose x: T with F, function
application. Comments run from # or // to end of line. A chain of /\, \/
or => is one node that holds its parts; a chain of <=> nests to the left.
Every + is an Add: x + 2 is Add(x, Lit(2)), whose Lit has the position of
the literal's token and whose Add has that of the +.

Formulas and terms are parsed by precedence climbing over PREC, the table
the printer reads too, and type bounds the same way over _BOUND_PREC.
Nesting deeper than Python's recursion limit is a parse error.
"""

import re

from .core import (Add, And, Apply, Atom, Choose, Diagnostic,
                   Exists, FalseF, FdlError, FiniteType, Forall, Formula,
                   FuncDecl, Iff, Implies, Ite, Lit, Model, Mul, Not, Or,
                   Term, TrueF, TypeExpr, Var, _children, resolve_node,
                   typecheck_formula)

KEYWORDS = {'val', 'type', 'fun', 'theorem', 'nat', 'bool', 'forall', 'exists',
            'choose', 'with', 'if', 'then', 'else', 'true', 'false', 'ensures'}

SYMBOLS = ['<=>', '=>', '<=', '>=', '/\\', '\\/',
           ';', ':', ',', '.', '(', ')', '[', ']',
           '=', '<', '>', '+', '-', '*', '^', '!']


# Binding strength of each construct, loosest first. The parser climbs it and
# the printer reads it.
PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6, Add: 7, Mul: 8}
_TERM = PREC[Add]  # the loosest strength at which only terms are parsed
_BOUND_PREC = {'+': 1, '-': 1, '*': 2, '^': 3}  # the operators of type bounds

_CONNECTIVES = {'<=>': Iff, '=>': Implies, '\\/': Or, '/\\': And}
_SYMBOL = {cls: sym for sym, cls in _CONNECTIVES.items()}
_INFIX = {**_CONNECTIVES, **dict.fromkeys(('=', '<', '<=', '>', '>='), Atom),
          '+': Add, '*': Mul}


def _infix_term(op, lhs, rhs, pos):
    """The node of a comparison or an arithmetic operator: > and >= flip."""
    if op in ('+', '*'):
        return _INFIX[op](lhs, rhs, pos=pos)
    if op in ('>', '>='):
        return Atom(op.replace('>', '<'), rhs, lhs, pos=pos)
    return Atom(op, lhs, rhs, pos=pos)


class ParseError(FdlError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__('; '.join(str(d) for d in diagnostics))


class Token:
    __slots__ = ('kind', 'text', 'pos')

    def __init__(self, kind: str, text: str, pos: tuple):
        # kind: 'ident' | 'number' | 'keyword' | symbol text | 'eof'
        self.kind, self.text, self.pos = kind, text, pos


# One alternative per token kind, tried in this order at each position: a
# symbol's longer spellings come first, and the last group catches any other
# character. \w is a character for which str.isalnum() holds, or _.
_TOKEN = re.compile('|'.join([
    r'(?P<newline>\n)',
    r'(?P<space>[ \t\r]+|(?:#|//)[^\n]*)',
    r'(?P<number>\d+)',
    r"(?P<word>[^\W\d][\w']*)",
    '(?P<symbol>%s)' % '|'.join(map(re.escape, SYMBOLS)),
    r'(?P<other>.)',
]))


def tokenize(text: str) -> list:
    toks = []
    line, start = 1, 0  # start: the offset of the line's first character
    m = None
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == 'space':
            continue
        if kind == 'newline':
            line += 1
            start = m.end()
            continue
        tok = m.group()
        pos = (line, m.start() - start + 1)
        if kind == 'word':
            if tok in KEYWORDS:
                kind = 'keyword'
            elif tok[0] == '_' or tok[0].isalpha():
                kind = 'ident'
            else:  # a digit or numeric character that is not a decimal
                raise ParseError([Diagnostic('unexpected character %r'
                                             % tok[0], pos)])
        elif kind == 'symbol':
            kind = tok
        elif kind == 'other':
            raise ParseError([Diagnostic('unexpected character %r' % tok,
                                         pos)])
        toks.append(Token(kind, tok, pos))
    end = 0
    if m is not None:  # the columns count no comment, which ends the text
        comment = m.lastgroup == 'space' and m.group()[0] in '#/'
        end = m.start() if comment else m.end()
    toks.append(Token('eof', '', (line, end - start + 1)))
    return toks


class _Fail(Exception):
    def __init__(self, msg, pos):
        self.msg = msg
        self.pos = pos


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def at(self, kind, text=None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def take(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, text=None) -> Token:
        if not self.at(kind, text):
            got = self.peek()
            want = text or kind
            raise _Fail('expected %r, got %r' % (want, got.text or got.kind),
                        got.pos)
        return self.take()

    def accept(self, kind, text=None):
        if self.at(kind, text):
            return self.take()
        return None

    # -- types -------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        if self.accept('keyword', 'bool'):
            return TypeExpr('bool')
        if self.accept('keyword', 'nat'):
            self.expect('[')
            e = self.bound_expr()
            self.expect(']')
            return TypeExpr('nat', bound_expr=e)
        t = self.expect('ident')
        return TypeExpr('name', name=t.text)

    def bound_expr(self, min_prec=1):
        """Precedence climbing over _BOUND_PREC; a chain of ^ folds to the
        right."""
        e = self.bound_atom()
        while _BOUND_PREC.get(self.peek().kind, 0) >= min_prec:
            op = self.take().kind
            prec = _BOUND_PREC[op]
            e = (op, e, self.bound_expr(prec if op == '^' else prec + 1))
        return e

    def bound_atom(self):
        if self.at('number'):
            return ('num', int(self.take().text))
        if self.at('ident'):
            return ('var', self.take().text)
        if self.accept('('):
            e = self.bound_expr()
            self.expect(')')
            return e
        t = self.peek()
        raise _Fail('expected type bound, got %r' % (t.text or t.kind), t.pos)

    # -- formulas and terms ------------------------------------------------

    def formula(self) -> Formula:
        return self.as_formula(self.expr(PREC[Iff]))

    def term(self) -> Term:
        return self.expr(_TERM)

    def expr(self, min_prec):
        """Precedence climbing: a primary, then every infix operator that
        binds at least as tightly as min_prec. From _TERM up, only terms
        are parsed."""
        lhs = self.primary(min_prec)
        while True:
            op = self.peek()
            cls = _INFIX.get(op.kind)
            prec = PREC.get(cls, 0)
            if prec < min_prec:
                return lhs
            if prec >= PREC[Atom]:
                if isinstance(lhs, Formula):  # so comparisons do not chain
                    return lhs
                self.take()
                lhs = _infix_term(op.kind, lhs, self.expr(prec + 1), op.pos)
            else:  # a connective: a chain is one node at its root
                # operator, the last of /\ or \/ and the first of =>;
                # <=> takes two parts and folds to the left
                chain, ops = [self.as_formula(lhs)], []
                while not ops or cls is not Iff and self.at(op.kind):
                    ops.append(self.take().pos)
                    chain.append(self.as_formula(self.expr(prec + 1)))
                lhs = (Iff(*chain, pos=ops[0]) if cls is Iff else
                       cls(chain, pos=ops[0 if cls is Implies else -1]))

    def as_formula(self, e) -> Formula:
        """e where a formula is required: a bool literal becomes TrueF or
        FalseF, any other term still lacks its comparison."""
        if isinstance(e, Formula):
            return e
        if isinstance(e, Lit) and isinstance(e.value, bool):
            return TrueF(pos=e.pos) if e.value else FalseF(pos=e.pos)
        t = self.peek()
        raise _Fail('expected comparison operator, got %r'
                    % (t.text or t.kind), t.pos)

    def primary(self, min_prec):
        t = self.peek()
        if self.accept('number'):
            return Lit(int(t.text), pos=t.pos)
        if self.accept('ident'):
            if self.accept('('):
                args = [self.term()]
                while self.accept(','):
                    args.append(self.term())
                self.expect(')')
                return Apply(t.text, args, pos=t.pos)
            return Var(t.text, pos=t.pos)
        if self.accept('('):
            e = self.expr(_TERM if min_prec >= _TERM else PREC[Iff])
            self.expect(')')
            return e
        if self.accept('keyword', 'true') or self.accept('keyword', 'false'):
            return Lit(t.text == 'true', pos=t.pos)
        if self.accept('keyword', 'if'):
            cond = self.formula()
            self.expect('keyword', 'then')
            then = self.term()
            self.expect('keyword', 'else')
            return Ite(cond, then, self.term(), pos=t.pos)
        if self.accept('keyword', 'choose'):
            name = self.expect('ident')
            self.expect(':')
            ty = self.type_expr()
            self.expect('keyword', 'with')
            return Choose(name.text, ty, self.formula(), pos=t.pos)
        if min_prec < _TERM and t.kind == '!':  # a run of ! is a loop
            bangs = []
            while self.at('!'):
                bangs.append(self.take().pos)
            f = self.as_formula(self.expr(PREC[Not]))
            for pos in reversed(bangs):
                f = Not(f, pos=pos)
            return f
        if min_prec < _TERM and t.text in ('forall', 'exists'):
            return self.quantified()
        raise _Fail('expected term, got %r' % (t.text or t.kind), t.pos)

    def quantified(self) -> Formula:
        t = self.take()
        cls = Forall if t.text == 'forall' else Exists
        binders = [self.binder()]
        while self.accept(','):
            binders.append(self.binder())
        self.expect('.')
        f = self.formula()
        for name, ty, pos in reversed(binders):
            f = cls(name, ty, f, pos=pos)
        return f

    def binder(self):
        name = self.expect('ident')
        self.expect(':')
        return name.text, self.type_expr(), name.pos

    # -- declarations --------------------------------------------------------

    def model(self):
        m = Model()
        diags = []
        while not self.at('eof'):
            try:
                self.guarded(lambda: self.declaration(m))
            except _Fail as e:
                diags.append(Diagnostic(e.msg, e.pos))
                while not self.at(';') and not self.at('eof'):
                    self.take()
                self.accept(';')
        return m, diags

    def guarded(self, parse):
        """parse(), with nesting deeper than Python's recursion limit
        reported at the token reached."""
        try:
            return parse()
        except RecursionError:
            raise _Fail('nested too deeply', self.peek().pos) from None

    def declaration(self, m: Model):
        t = self.peek()
        if self.accept('keyword', 'val'):
            name = self.expect('ident')
            self.expect(':')
            self.expect('keyword', 'nat')
            default = None
            if self.accept('='):
                default = int(self.expect('number').text)
            self.expect(';')
            m.params[name.text] = default
            return
        if self.accept('keyword', 'type'):
            name = self.expect('ident')
            self.expect('=')
            ty = self.type_expr()
            self.expect(';')
            m.types[name.text] = ty
            return
        if self.accept('keyword', 'fun'):
            name = self.expect('ident')
            self.expect('(')
            params = []
            if not self.at(')'):
                params.append(self.param())
                while self.accept(','):
                    params.append(self.param())
            self.expect(')')
            self.expect(':')
            result = self.type_expr()
            body = ensures = None
            if self.accept('='):
                body = self.term()
            elif self.accept('keyword', 'ensures'):
                ensures = self.formula()
            else:
                raise _Fail("expected '=' or 'ensures'", self.peek().pos)
            self.expect(';')
            m.funcs[name.text] = FuncDecl(name.text, params, result,
                                          body=body, ensures=ensures, pos=t.pos)
            return
        if self.accept('keyword', 'theorem'):
            name = self.expect('ident')
            self.expect('<=>')
            f = self.formula()
            self.expect(';')
            m.theorems[name.text] = f
            return
        raise _Fail('expected declaration, got %r' % (t.text or t.kind), t.pos)

    def param(self):
        name = self.expect('ident')
        self.expect(':')
        return name.text, self.type_expr()


def parse_model(text: str) -> Model:
    """Parse a sequence of declarations; raises ParseError carrying every
    diagnostic collected (recovery skips to the next ';')."""
    m, diags = Parser(text).model()
    if diags:
        raise ParseError(diags)
    return m


def parse_formula(text: str, ctx: dict, funcs=None, types=None,
                  params=None) -> Formula:
    """Parse and typecheck a single formula.

    ctx maps free variable names to FiniteTypes; named types and parameters
    used inside binders may be supplied via types/params.
    """
    p = Parser(text)
    try:
        f = p.guarded(p.formula)
        p.expect('eof')
    except _Fail as e:
        raise ParseError([Diagnostic(e.msg, e.pos)]) from None
    f = resolve_node(f, (types or {}, params or {}))
    diags = typecheck_formula(f, ctx, funcs)
    if diags:
        raise ParseError(diags)
    return f


# ---------------------------------------------------------------------------
# printing


def print_type(ty) -> str:
    if isinstance(ty, FiniteType):
        return str(ty)
    if ty.kind == 'bool':
        return 'bool'
    if ty.kind == 'name':
        return ty.name
    return 'nat[%s]' % print_bound(ty.bound_expr)


def print_bound(e, prec=0) -> str:
    op = e[0]
    if op == 'num':
        return str(e[1])
    if op == 'var':
        return e[1]
    mine = _BOUND_PREC[op]
    lhs = print_bound(e[1], mine if op != '^' else mine + 1)
    rhs = print_bound(e[2], mine + 1 if op != '^' else mine)
    s = '%s %s %s' % (lhs, op, rhs)
    return '(%s)' % s if mine < prec else s


def print_term(t: Term, prec=0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        if isinstance(t.value, bool):
            return 'true' if t.value else 'false'
        return str(t.value)
    if isinstance(t, (Add, Mul)):
        mine = PREC[type(t)]
        s = '%s %s %s' % (print_term(t.lhs, mine),
                          '*' if isinstance(t, Mul) else '+',
                          print_term(t.rhs, mine + 1))
        return '(%s)' % s if mine < prec else s
    if isinstance(t, Ite):
        s = 'if %s then %s else %s' % (print_formula(t.cond),
                                       print_term(t.then),
                                       print_term(t.els))
        return '(%s)' % s if prec > 0 else s
    if isinstance(t, Choose):
        s = 'choose %s: %s with %s' % (t.var, print_type(t.ty),
                                       print_formula(t.body))
        return '(%s)' % s if prec > 0 else s
    if isinstance(t, Apply):
        return '%s(%s)' % (t.func, ', '.join(print_term(a) for a in t.args))
    raise AssertionError('unhandled term %r' % t)


def print_formula(f: Formula, prec=0) -> str:
    if isinstance(f, TrueF):
        return 'true'
    if isinstance(f, FalseF):
        return 'false'
    if isinstance(f, Atom):
        operand = PREC[Atom] + 1
        return '%s %s %s' % (print_term(f.lhs, operand), f.rel,
                             print_term(f.rhs, operand))
    if isinstance(f, Not):
        return '!%s' % print_formula(f.body, PREC[Not])
    if isinstance(f, (And, Or, Implies, Iff)):
        mine = PREC[type(f)]
        left = isinstance(f, Iff)  # the one that folds to the left
        # only the left part of <=> may be of f's class unparenthesized
        s = (' %s ' % _SYMBOL[type(f)]).join([
            print_formula(p, mine if left and i == 0 else mine + 1)
            for i, p in enumerate(_children(f))])
        return '(%s)' % s if mine < prec else s
    if isinstance(f, (Forall, Exists)):
        word = 'forall' if isinstance(f, Forall) else 'exists'
        binders = []
        body = f
        while isinstance(body, type(f)):
            binders.append('%s: %s' % (body.var, print_type(body.ty)))
            body = body.body
        s = '%s %s. %s' % (word, ', '.join(binders), print_formula(body))
        return '(%s)' % s if prec > 0 else s
    raise AssertionError('unhandled formula %r' % f)
