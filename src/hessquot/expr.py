"""Arithmetic expression language for problem data.

Defines the right-hand side psi(x, u, p), boundary data phi(x), and the
subsolution in configuration files, and supplies the exact partial
derivatives the Newton linearization needs.  The grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

so '^' binds tighter than unary minus and associates to the right
(``x1^2^3`` is ``x1^(2^3)``, ``-x1^2`` is ``-(x1^2)``).  Identifiers are
the coordinates x1..xn, the unknown u, the gradient slots p1..pn, and the
functions exp, log, sin, cos, sqrt.  No abs/min/max/sign: the
linearization needs C^1 data, and excluding non-smooth primitives keeps
differentiation total.

Trees are immutable.  Evaluation compiles one or more trees to a
``Program``: a straight-line program with one instruction per
structurally distinct subexpression (hash-consed), each one numpy op, and
each intermediate released after its last use.  ``evaluate`` runs a
program of one tree.  Evaluation is pure and accepts numpy arrays in the
environment, broadcasting elementwise.  A domain fault or a NaN value
raises DomainFaultError; evaluation never returns NaN.  Problem data
reaches the solver through programs run on grid axes, so a subtree of x
alone is computed on the few axis values it reads, and a tree compiled
with its derivatives, which repeat its subtrees, computes each once.
"""

import math
import operator
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    """Syntax error with the byte offset and the set of expected tokens."""

    def __init__(self, message, offset, expected=()):
        self.offset = int(offset)
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {self.offset}{hint}")


class UnknownIdentifierError(ParseError):
    pass


class DomainFaultError(ExprError):
    """Evaluation hit a domain fault (log of a non-positive value, square
    root of a negative, division by zero, fractional power of a negative)
    or gave NaN (say 0*inf or inf - inf).  Carries the offending
    subexpression, the whole tree for a NaN, and a witnessing value."""

    def __init__(self, message, subexpr, value):
        self.subexpr = subexpr
        self.value = float(value)
        super().__init__(f"{message} in '{to_string(subexpr)}' (value {self.value:g})")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class EvalEnv:
    """Point data, component first: x and p hold n arrays (x_a is x[a-1])
    that broadcast against each other and against the field value u.  u
    and p may be None for expressions that do not use them."""

    x: object
    u: object = None
    p: object = None


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n):
        self.text = text
        self.n = int(n)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ParseError(f"unexpected token {text or 'end of input'!r}", off, (op,))

    def parse(self):
        tree = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", off, ("end of input",))
        return tree

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            inner = self.factor()
            # fold negated literals so printed trees reparse identically
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        return self.power()

    def power(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ParseError(f"numeric literal {text!r} overflows to infinity", off)
            return Num(value)
        if kind == "ident":
            nk, ntext, _ = self.peek()
            if nk == "op" and ntext == "(":
                if text not in _FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function {text!r}", off, _FUNCTIONS
                    )
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            return Var(self._variable(text, off))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            f"unexpected token {text or 'end of input'!r}",
            off,
            ("number", "identifier", "(", "-"),
        )

    def _variable(self, name, off):
        if name == "u":
            return name
        m = re.fullmatch(r"([xp])([0-9]+)", name)
        if m is None:
            raise UnknownIdentifierError(f"unknown identifier {name!r}", off)
        idx = int(m.group(2))
        if not (1 <= idx <= self.n):
            raise UnknownIdentifierError(
                f"variable {name!r} exceeds dimension n={self.n}", off
            )
        return f"{m.group(1)}{idx}"


def parse(text, n):
    """Parse an expression over x1..xn, u, p1..pn into an immutable tree."""
    return _Parser(text, n).parse()


def variables(e):
    """Set of variable names that occur in the tree."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Num):
        return set()
    if isinstance(e, Neg):
        return variables(e.arg)
    if isinstance(e, Call):
        return variables(e.arg)
    return variables(e.left) | variables(e.right)


def _lookup(name, env):
    if name == "u":
        if env.u is None:
            raise ExprError("expression uses 'u' but the environment has no u")
        return env.u
    kind, idx = name[0], int(name[1:]) - 1
    source = env.x if kind == "x" else env.p
    if source is None:
        raise ExprError(f"expression uses '{name}' but the environment has no {kind}")
    return np.asarray(source[idx], dtype=float)


def _first_bad(values, mask):
    return np.broadcast_to(np.asarray(values, dtype=float), np.shape(mask))[mask].flat[0]


def _log(node, arg):
    bad = np.asarray(arg) <= 0.0
    if np.any(bad):
        raise DomainFaultError("log of non-positive value", node, _first_bad(arg, bad))
    return np.log(arg)


def _sqrt(node, arg):
    bad = np.asarray(arg) < 0.0
    if np.any(bad):
        raise DomainFaultError("sqrt of negative value", node, _first_bad(arg, bad))
    return np.sqrt(arg)


def _divide(node, left, right):
    bad = np.asarray(right) == 0.0
    if np.any(bad):
        raise DomainFaultError("division by zero", node, 0.0)
    return np.divide(left, right)


def _pow(node, base, exponent):
    if np.ndim(exponent) == 0 and exponent >= 1.0 and float(exponent).is_integer():
        # defined for every base, and a NaN base stays NaN for the NaN
        # rule: no per-node check
        return np.power(base, exponent)
    base_a = np.asarray(base, dtype=float)
    exp_a = np.asarray(exponent, dtype=float)
    if np.isnan(base_a).any() or np.isnan(exp_a).any():  # NaN^0 and 1^NaN are 1
        raise DomainFaultError("NaN value", node, np.nan)
    frac = exp_a != np.floor(exp_a)
    bad = (base_a < 0.0) & frac
    if np.any(bad):
        raise DomainFaultError("fractional power of negative base", node, _first_bad(base_a, np.asarray(bad)))
    bad = (base_a == 0.0) & (exp_a < 0.0)
    if np.any(bad):
        raise DomainFaultError("zero raised to a negative power", node, 0.0)
    return np.power(base, exponent)


# The op of each node kind.  A checked op takes its node first, for the
# DomainFaultError it raises.
_CALLS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "log": _log, "sqrt": _sqrt}
_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _divide, "^": _pow}
_CHECKED = (_log, _sqrt, _divide, _pow)


class Program:
    """One or more trees compiled to a straight-line program.

    Compiling hash-conses the trees: each structurally distinct
    subexpression, keyed by its node kind, its op, name or literal and the
    registers of its children, gets one register, so a subtree that occurs
    twice, in one tree or across trees, is computed once.  Literals are
    preloaded registers (two literals share one when they print alike, so
    0.0 and -0.0 do not), and register 0 holds the environment.  Each
    other register is one instruction, one numpy op on the registers of
    its children; the instructions run in post-order of first occurrence,
    left before right, and each register is released after its last use.
    The trees are taken in order: tree k is checked for NaN and handed out
    right after its last new instruction, before any instruction only a
    later tree needs.  So a domain fault or a NaN raises the same
    DomainFaultError, for the same subtree, as evaluating the trees one
    after another.
    """

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        registers = [None]  # register 0: the environment
        keys = {}
        code = []  # (register, op, operand registers)

        def visit(e):
            if isinstance(e, Num):
                key, op, args = ("num", repr(e.value)), None, ()
            elif isinstance(e, Var):
                key, op, args = ("var", e.name), partial(_lookup, e.name), (0,)
            elif isinstance(e, Neg):
                args = (visit(e.arg),)
                key, op = ("neg", *args), operator.neg
            elif isinstance(e, Call):
                args = (visit(e.arg),)
                key, op = ("call", e.func, *args), _CALLS[e.func]
            else:
                args = (visit(e.left), visit(e.right))
                key, op = ("binop", e.op, *args), _BINOPS[e.op]
            if key not in keys:
                keys[key] = len(registers)
                registers.append(e.value if op is None else None)
                if op is not None:
                    code.append((keys[key], partial(op, e) if op in _CHECKED else op, args))
            return keys[key]

        self._roots, ends = [], []
        for e in self.exprs:
            self._roots.append(visit(e))
            ends.append(len(code))
        # the step after which each register is last read: by an
        # instruction, or as a tree's value once that tree is complete
        last = {a: step for step, (_, _, args) in enumerate(code, 1) for a in args}
        for root, end in zip(self._roots, ends):
            last[root] = max(last.get(root, 0), end)
        emits = [[] for _ in range(len(code) + 1)]
        dead = [[] for _ in range(len(code) + 1)]
        for k, end in enumerate(ends):
            emits[end].append(k)
        for reg, step in last.items():
            dead[step].append(reg)
        self._registers = registers
        self._leading = tuple(emits[0])  # trees that are literals
        self._code = [
            (reg, op, args, tuple(emits[step]), tuple(dead[step]))
            for step, (reg, op, args) in enumerate(code, 1)
        ]

    def run(self, env, out=None):
        """Evaluate the trees at env; IEEE double, arrays broadcast.

        Returns the list of their values, each as ``evaluate`` returns it;
        given ``out``, a sequence of one array per tree, writes each value
        into its array (broadcasting) instead and returns out.
        """
        regs = self._registers.copy()
        regs[0] = env
        values = []
        with np.errstate(all="ignore"):
            for k in self._leading:
                self._emit(k, regs, out, values)
            for reg, op, args, emits, dead in self._code:
                regs[reg] = op(*[regs[a] for a in args])
                for k in emits:
                    self._emit(k, regs, out, values)
                for a in dead:
                    regs[a] = None
        return values if out is None else out

    def _emit(self, k, regs, out, values):
        value = regs[self._roots[k]]
        if np.isnan(value).any():
            raise DomainFaultError("NaN value", self.exprs[k], np.nan)
        if out is None:
            values.append(value)
        else:
            out[k][...] = value


def evaluate(e, env):
    """Evaluate a tree at an environment; IEEE double, arrays broadcast.

    Domain faults are raised as DomainFaultError with the offending
    subexpression attached, and a NaN value as DomainFaultError naming the
    tree: no NaN is ever returned.  Overflow to +-inf is returned.
    """
    (value,) = Program([e]).run(env)
    return value


def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    # _diff divides by a literal only where the numerator is literal 0
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    return BinOp("/", a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow_node(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return BinOp("^", a, b)


def differentiate(e, var):
    """Exact symbolic derivative of a tree in one variable.

    ``var`` is a variable name: one of x1..xn, u, p1..pn.  Literal
    arithmetic is folded during construction, so d/du of u^2 comes back as
    2*u and derivatives of unrelated variables collapse to 0.
    """
    if not re.fullmatch(r"u|[xp][0-9]+", var):
        raise ValueError(f"not a variable name: {var!r}")
    return _diff(e, var)


def _diff(e, var):
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(_diff(e.arg, var))
    if isinstance(e, Call):
        da = _diff(e.arg, var)
        if e.func == "exp":
            return _mul(Call("exp", e.arg), da)
        if e.func == "log":
            return _div(da, e.arg)
        if e.func == "sin":
            return _mul(Call("cos", e.arg), da)
        if e.func == "cos":
            return _neg(_mul(Call("sin", e.arg), da))
        return _div(da, _mul(Num(2.0), Call("sqrt", e.arg)))
    dl = _diff(e.left, var)
    dr = _diff(e.right, var)
    if e.op == "+":
        return _add(dl, dr)
    if e.op == "-":
        return _sub(dl, dr)
    if e.op == "*":
        return _add(_mul(dl, e.right), _mul(e.left, dr))
    if e.op == "/":
        return _div(_sub(_mul(dl, e.right), _mul(e.left, dr)), _pow_node(e.right, Num(2.0)))
    # power rule when the exponent is constant, else a^b = exp(b log a)
    if isinstance(e.right, Num):
        c = e.right.value
        return _mul(_mul(Num(c), _pow_node(e.left, Num(c - 1.0))), dl)
    return _mul(
        BinOp("^", e.left, e.right),
        _add(_mul(dr, Call("log", e.left)), _div(_mul(e.right, dl), e.left)),
    )


def to_string(e):
    """Render a tree as parseable text; reparsing gives an identical tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    return f"({to_string(e.left)}{e.op}{to_string(e.right)})"
