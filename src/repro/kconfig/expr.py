"""The Kconfig tristate expression language.

Kconfig dependency and default expressions evaluate over *tristate* values:
``n`` (absent), ``m`` (module) and ``y`` (built in), ordered ``n < m < y``.
The connectives follow the kernel's semantics:

- ``A && B``  evaluates to ``min(A, B)``
- ``A || B``  evaluates to ``max(A, B)``
- ``!A``      evaluates to ``y - A`` (so ``!m == m``)
- ``A = B`` / ``A != B`` compare symbol values and yield ``y`` or ``n``

The grammar implemented here matches ``scripts/kconfig/zconf.y``::

    expr     := or
    or       := and { '||' and }
    and      := not { '&&' not }
    not      := '!' not | primary
    primary  := '(' expr ')' | symbol [ ('='|'!=') symbol ]
    symbol   := CONFIG-style identifier | quoted string | tristate literal
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Union


class Tristate(enum.IntEnum):
    """A Kconfig tristate value (``n`` < ``m`` < ``y``)."""

    NO = 0
    MODULE = 1
    YES = 2

    def __str__(self) -> str:
        return {Tristate.NO: "n", Tristate.MODULE: "m", Tristate.YES: "y"}[self]

    @classmethod
    def from_str(cls, text: str) -> "Tristate":
        """Parse ``'n'``/``'m'``/``'y'`` (case-insensitive) into a tristate."""
        try:
            return {"n": cls.NO, "m": cls.MODULE, "y": cls.YES}[text.lower()]
        except KeyError:
            raise ValueError(f"not a tristate literal: {text!r}") from None

    def __invert__(self) -> "Tristate":
        return Tristate(Tristate.YES - self)


#: Environment mapping symbol names to their current tristate values.
Env = Mapping[str, Tristate]


class ExprError(ValueError):
    """Raised for malformed Kconfig expressions."""


@dataclass(frozen=True)
class Symbol:
    """A reference to a config symbol (or a literal tristate/string)."""

    name: str

    def evaluate(self, env: Env) -> Tristate:
        if self.name in ("y", "Y"):
            return Tristate.YES
        if self.name in ("m", "M"):
            return Tristate.MODULE
        if self.name in ("n", "N"):
            return Tristate.NO
        return env.get(self.name, Tristate.NO)

    def symbols(self) -> Iterator[str]:
        if self.name not in ("y", "m", "n", "Y", "M", "N"):
            yield self.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not:
    """Logical negation: ``!operand``."""

    operand: "Expr"

    def evaluate(self, env: Env) -> Tristate:
        return ~self.operand.evaluate(env)

    def symbols(self) -> Iterator[str]:
        return self.operand.symbols()

    def __str__(self) -> str:
        if isinstance(self.operand, (Symbol, Not)):
            return f"!{self.operand}"
        return f"!({self.operand})"


@dataclass(frozen=True)
class And:
    """Logical conjunction: ``lhs && rhs`` (tristate ``min``)."""

    lhs: "Expr"
    rhs: "Expr"

    def evaluate(self, env: Env) -> Tristate:
        return min(self.lhs.evaluate(env), self.rhs.evaluate(env))

    def symbols(self) -> Iterator[str]:
        yield from self.lhs.symbols()
        yield from self.rhs.symbols()

    def __str__(self) -> str:
        return f"{_parenthesize(self.lhs)} && {_parenthesize(self.rhs)}"


@dataclass(frozen=True)
class Or:
    """Logical disjunction: ``lhs || rhs`` (tristate ``max``)."""

    lhs: "Expr"
    rhs: "Expr"

    def evaluate(self, env: Env) -> Tristate:
        return max(self.lhs.evaluate(env), self.rhs.evaluate(env))

    def symbols(self) -> Iterator[str]:
        yield from self.lhs.symbols()
        yield from self.rhs.symbols()

    def __str__(self) -> str:
        return f"{self.lhs} || {self.rhs}"


@dataclass(frozen=True)
class Compare:
    """Equality test between two symbols: yields ``y`` or ``n``."""

    lhs: Symbol
    rhs: Symbol
    negated: bool = False

    def evaluate(self, env: Env) -> Tristate:
        equal = self.lhs.evaluate(env) == self.rhs.evaluate(env)
        if self.negated:
            equal = not equal
        return Tristate.YES if equal else Tristate.NO

    def symbols(self) -> Iterator[str]:
        yield from self.lhs.symbols()
        yield from self.rhs.symbols()

    def __str__(self) -> str:
        op = "!=" if self.negated else "="
        return f"{self.lhs}{op}{self.rhs}"


Expr = Union[Symbol, Not, And, Or, Compare]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<op>&&|\|\||!=|=|!|\(|\))
  | (?P<sym>[A-Za-z0-9_]+)
  | (?P<str>"[^"]*"|'[^']*')
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprError(f"bad character in expression at {text[pos:]!r}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        token = match.group()
        if match.lastgroup == "str":
            token = token[1:-1]
        tokens.append(token)
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> str:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else ""

    def _next(self) -> str:
        token = self._peek()
        self._pos += 1
        return token

    def parse(self) -> Expr:
        expr = self._or()
        if self._pos != len(self._tokens):
            raise ExprError(f"trailing tokens: {self._tokens[self._pos:]!r}")
        return expr

    def _or(self) -> Expr:
        expr = self._and()
        while self._peek() == "||":
            self._next()
            expr = Or(expr, self._and())
        return expr

    def _and(self) -> Expr:
        expr = self._not()
        while self._peek() == "&&":
            self._next()
            expr = And(expr, self._not())
        return expr

    def _not(self) -> Expr:
        if self._peek() == "!":
            self._next()
            return Not(self._not())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._next()
        if token == "(":
            expr = self._or()
            if self._next() != ")":
                raise ExprError("unbalanced parenthesis")
            return expr
        if not token or token in ("&&", "||", ")", "=", "!="):
            raise ExprError(f"expected symbol, got {token!r}")
        symbol = Symbol(token)
        if self._peek() in ("=", "!="):
            op = self._next()
            rhs = self._next()
            if not rhs or rhs in ("&&", "||", "(", ")"):
                raise ExprError(f"expected symbol after {op!r}")
            return Compare(symbol, Symbol(rhs), negated=(op == "!="))
        return symbol


def _parenthesize(expr: Expr) -> str:
    if isinstance(expr, Or):
        return f"({expr})"
    return str(expr)


def parse_expr(text: str) -> Expr:
    """Parse a Kconfig dependency expression into an AST.

    >>> str(parse_expr("NET && (INET || UNIX)"))
    'NET && (INET || UNIX)'
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    return _Parser(tokens).parse()


#: An always-true expression, used for options with no dependencies.
TRUE = Symbol("y")

#: An always-false expression.
FALSE = Symbol("n")


def evaluate(expr: Expr, env: Env) -> Tristate:
    """Evaluate *expr* under *env* (missing symbols evaluate to ``n``)."""
    return expr.evaluate(env)


def expr_symbols(expr: Expr) -> set[str]:
    """Return the set of config symbols referenced by *expr*."""
    return set(expr.symbols())


#: ``~value`` lookup table indexed by ``int(value)`` (``!n=y, !m=m, !y=n``).
_NOT_TABLE = (Tristate.YES, Tristate.MODULE, Tristate.NO)

_CONST_SYMBOLS = {
    "y": Tristate.YES, "Y": Tristate.YES,
    "m": Tristate.MODULE, "M": Tristate.MODULE,
    "n": Tristate.NO, "N": Tristate.NO,
}


def is_const_true(expr: Expr) -> bool:
    """True for the literal always-``y`` expression (no-dependency options)."""
    return isinstance(expr, Symbol) and expr.name in ("y", "Y")


def compile_expr(expr: Expr) -> Callable[[Env], Tristate]:
    """Flatten *expr* into nested closures with pre-resolved constants.

    The returned callable computes exactly ``expr.evaluate(env)`` but
    without re-dispatching through the dataclass ``evaluate`` methods on
    every call: literals are folded to constants at compile time, ``&&``
    / ``||`` short-circuit on ``n`` / ``y``, and negation is a table
    lookup.  Compile once per expression (the resolution index caches
    one program per option), evaluate many times.
    """
    if isinstance(expr, Symbol):
        constant = _CONST_SYMBOLS.get(expr.name)
        if constant is not None:
            return lambda env, _c=constant: _c
        def _symbol(env: Env, _name: str = expr.name,
                    _no: Tristate = Tristate.NO) -> Tristate:
            return env.get(_name, _no)
        return _symbol
    if isinstance(expr, Not):
        inner = compile_expr(expr.operand)
        def _negate(env: Env, _inner=inner, _table=_NOT_TABLE) -> Tristate:
            return _table[_inner(env)]
        return _negate
    if isinstance(expr, And):
        lhs, rhs = compile_expr(expr.lhs), compile_expr(expr.rhs)
        def _conj(env: Env, _l=lhs, _r=rhs,
                  _no: Tristate = Tristate.NO) -> Tristate:
            left = _l(env)
            if left is _no:
                return _no
            right = _r(env)
            return left if left <= right else right
        return _conj
    if isinstance(expr, Or):
        lhs, rhs = compile_expr(expr.lhs), compile_expr(expr.rhs)
        def _disj(env: Env, _l=lhs, _r=rhs,
                  _yes: Tristate = Tristate.YES) -> Tristate:
            left = _l(env)
            if left is _yes:
                return _yes
            right = _r(env)
            return left if left >= right else right
        return _disj
    if isinstance(expr, Compare):
        lhs, rhs = compile_expr(expr.lhs), compile_expr(expr.rhs)
        def _compare(env: Env, _l=lhs, _r=rhs, _neg=expr.negated,
                     _yes: Tristate = Tristate.YES,
                     _no: Tristate = Tristate.NO) -> Tristate:
            return _yes if (_l(env) == _r(env)) is not _neg else _no
        return _compare
    raise TypeError(f"cannot compile expression node: {expr!r}")
