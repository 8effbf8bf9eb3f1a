r"""Concrete syntax for models and formulas.

    val N: nat = 6;
    type D = nat[2^N - 1];
    fun f(x: D): nat[1] ensures result = if x < 2 then 0 else 1;
    theorem goal <=> forall x: D, y: D. exists z: D. x < z \/ z <= y;

Connectives: ! /\ \/ => <=> (=> right-associative, quantifier and choose
bodies extend as far right as possible). Relations: = < <= > >= (the last
two are sugar for flipped < and <=). Terms: + * literals, if/then/else,
choose x: T with F, function application. Comments run from # to end of line.
"""

from dataclasses import dataclass

from .core import (Add, AddConst, And, Apply, Atom, BOOL, Choose, Diagnostic,
                   Exists, FalseF, FdlError, FiniteType, Forall, Formula,
                   FuncDecl, Iff, Implies, Ite, Lit, Model, Mul, Not, Or,
                   Term, TrueF, TypeExpr, Var, resolve_node,
                   typecheck_formula)

KEYWORDS = {'val', 'type', 'fun', 'theorem', 'nat', 'bool', 'forall', 'exists',
            'choose', 'with', 'if', 'then', 'else', 'true', 'false', 'ensures'}

SYMBOLS = ['<=>', '=>', '<=', '>=', '/\\', '\\/',
           ';', ':', ',', '.', '(', ')', '[', ']',
           '=', '<', '>', '+', '-', '*', '^', '!']


class ParseError(FdlError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__('; '.join(str(d) for d in diagnostics))


@dataclass
class Token:
    kind: str  # 'ident' | 'number' | 'keyword' | symbol text | 'eof'
    text: str
    pos: tuple


def tokenize(text: str) -> list:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == '\n':
            i += 1
            line += 1
            col = 1
            continue
        if c in ' \t\r':
            i += 1
            col += 1
            continue
        if c == '#' or text.startswith('//', i):
            while i < n and text[i] != '\n':
                i += 1
            continue
        pos = (line, col)
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token('number', text[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == '_':
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = 'keyword' if word in KEYWORDS else 'ident'
            toks.append(Token(kind, word, pos))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token(sym, sym, pos))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError([Diagnostic('unexpected character %r' % c, pos)])
    toks.append(Token('eof', '', (line, col)))
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

    def bound_expr(self):
        e = self.bound_mul()
        while self.at('+') or self.at('-'):
            op = self.take().kind
            e = (op, e, self.bound_mul())
        return e

    def bound_mul(self):
        e = self.bound_pow()
        while self.accept('*'):
            e = ('*', e, self.bound_pow())
        return e

    def bound_pow(self):
        e = self.bound_atom()
        if self.accept('^'):
            return ('^', e, self.bound_pow())
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

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        f = self.implies()
        while self.at('<=>'):
            pos = self.take().pos
            f = Iff(f, self.implies(), pos=pos)
        return f

    def implies(self) -> Formula:
        f = self.disj()
        if self.at('=>'):
            pos = self.take().pos
            return Implies(f, self.implies(), pos=pos)
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.at('\\/'):
            pos = self.take().pos
            f = Or(f, self.conj(), pos=pos)
        return f

    def conj(self) -> Formula:
        f = self.prefix()
        while self.at('/\\'):
            pos = self.take().pos
            f = And(f, self.prefix(), pos=pos)
        return f

    def prefix(self) -> Formula:
        if self.at('!'):
            pos = self.take().pos
            return Not(self.prefix(), pos=pos)
        if self.at('keyword', 'forall') or self.at('keyword', 'exists'):
            return self.quantified()
        return self.atom()

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

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == 'keyword' and t.text in ('true', 'false'):
            # bare literal is a formula; 'true = x' is a comparison
            if self.toks[self.i + 1].kind not in ('=', '<', '<=', '>', '>='):
                self.take()
                return TrueF(pos=t.pos) if t.text == 'true' else FalseF(pos=t.pos)
        if self.at('('):
            # Either a parenthesized formula or a comparison whose left
            # operand is parenthesized; try the comparison first.
            mark = self.i
            try:
                return self.comparison()
            except _Fail:
                self.i = mark
            self.expect('(')
            f = self.formula()
            self.expect(')')
            return f
        return self.comparison()

    def comparison(self) -> Formula:
        lhs = self.term()
        t = self.peek()
        if t.kind not in ('=', '<', '<=', '>', '>='):
            raise _Fail('expected comparison operator, got %r'
                        % (t.text or t.kind), t.pos)
        self.take()
        rhs = self.term()
        if t.kind == '>':
            return Atom('<', rhs, lhs, pos=t.pos)
        if t.kind == '>=':
            return Atom('<=', rhs, lhs, pos=t.pos)
        return Atom(t.kind, lhs, rhs, pos=t.pos)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        e = self.product()
        while self.at('+'):
            pos = self.take().pos
            rhs = self.product()
            if isinstance(rhs, Lit):
                e = AddConst(e, rhs.value, pos=pos)
            else:
                e = Add(e, rhs, pos=pos)
        return e

    def product(self) -> Term:
        e = self.term_atom()
        while self.at('*'):
            pos = self.take().pos
            e = Mul(e, self.term_atom(), pos=pos)
        return e

    def term_atom(self) -> Term:
        t = self.peek()
        if self.at('number'):
            return Lit(int(self.take().text), pos=t.pos)
        if self.accept('keyword', 'true'):
            return Lit(True, pos=t.pos)
        if self.accept('keyword', 'false'):
            return Lit(False, pos=t.pos)
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
        if self.at('ident'):
            name = self.take()
            if self.accept('('):
                args = [self.term()]
                while self.accept(','):
                    args.append(self.term())
                self.expect(')')
                return Apply(name.text, args, pos=name.pos)
            return Var(name.text, pos=name.pos)
        if self.accept('('):
            e = self.term()
            self.expect(')')
            return e
        raise _Fail('expected term, got %r' % (t.text or t.kind), t.pos)

    # -- declarations --------------------------------------------------------

    def model(self):
        m = Model()
        diags = []
        while not self.at('eof'):
            try:
                self.declaration(m)
            except _Fail as e:
                diags.append(Diagnostic(e.msg, e.pos))
                while not self.at(';') and not self.at('eof'):
                    self.take()
                self.accept(';')
        return m, diags

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
        f = p.formula()
        p.expect('eof')
    except _Fail as e:
        raise ParseError([Diagnostic(e.msg, e.pos)]) from None
    f = resolve_node(f, types or {}, params or {})
    diags = typecheck_formula(f, ctx, funcs)
    if diags:
        raise ParseError(diags)
    return f


# ---------------------------------------------------------------------------
# printing


_F_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6,
           TrueF: 6, FalseF: 6, Forall: 0, Exists: 0}


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
    mine = {'+': 1, '-': 1, '*': 2, '^': 3}[op]
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
    if isinstance(t, (Add, AddConst)):
        rhs = str(t.const) if isinstance(t, AddConst) else print_term(t.rhs, 2)
        s = '%s + %s' % (print_term(t.lhs, 1), rhs)
        return '(%s)' % s if prec > 1 else s
    if isinstance(t, Mul):
        s = '%s * %s' % (print_term(t.lhs, 2), print_term(t.rhs, 3))
        return '(%s)' % s if prec > 2 else s
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
        return '%s %s %s' % (print_term(f.lhs, 1), f.rel, print_term(f.rhs, 1))
    if isinstance(f, Not):
        return '!%s' % print_formula(f.body, 5)
    if isinstance(f, (And, Or, Implies, Iff)):
        mine = _F_PREC[type(f)]
        sym = {And: '/\\', Or: '\\/', Implies: '=>', Iff: '<=>'}[type(f)]
        if isinstance(f, Implies):
            lp, rp = mine + 1, mine
        else:
            lp, rp = mine, mine + 1
        s = '%s %s %s' % (print_formula(f.lhs, lp), sym,
                          print_formula(f.rhs, rp))
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

