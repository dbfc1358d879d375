"""Immutable scalar expression trees with evaluation and differentiation.

Trees are built from constants, named variables, the arithmetic operators
``+ - * / ^`` and a fixed set of unary functions.  Sums and products are
n-ary and flattened on construction; unary minus is represented
multiplicatively as ``(-1) * e``.  All nodes are immutable, so every
operation here is a pure function and safe to share across threads.

Besides the usual primitives (sin, cos, tan, tanh, exp, ln, sqrt, abs)
the function set contains a small family for removable singularities:

* ``sinc(a)``    = sin(a)/a, exactly 1 at a = 0
* ``cosm1c(a)``  = (cos(a) - 1)/a, 0 at a = 0
* ``expm1c(a)``  = (exp(a) - 1)/a, 1 at a = 0
* ``dsinc(a)``   = derivative of sinc, (a cos a - sin a)/a^2, 0 at a = 0

These arise when Jacobian entries are integrated along the line through
the origin and keep every produced matrix function evaluable at x = 0.
The function table is the extension point for adding new primitives: an
entry needs a numeric implementation and, if differentiable, a rule in
the derivative table.

Compilation
-----------
Trees compile to plain Python through one code generator, which writes
the same source for two function tables:

* The scalar table maps the functions to :data:`FUNCTIONS`, on Python
  floats.  :func:`compile_vector` turns a list of trees into one
  function that returns their values as a tuple, and
  :func:`compile_scalar` is its one-expression case.  A node the
  generator has no code for (a deferred integral) is called through its
  own ``eval``.  When a vector function raises, :func:`first_failure`
  finds the entry that failed.
* The numpy table maps them to ufuncs and :data:`ARRAY_FUNCTIONS`, so
  :func:`compile_array` evaluates one tree at whole arrays of points.
  It agrees with the scalar table to a few ulp (the transcendental
  functions are other implementations; the arithmetic is the same).  A
  node it has no code for makes the whole tree "no code": it returns
  None, and the caller keeps to the scalar table (the range scan walks
  every block of such an entry point by point).  Domain and range
  violations raise only as numpy's ``errstate`` says.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class ExprError(Exception):
    """Base class for expression-level failures."""


class EvalError(ExprError):
    """Evaluation failed."""


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(EvalError):
    """Evaluation hit a numeric domain violation (division by zero, ln <= 0, ...)."""


class NonDifferentiableError(ExprError):
    """The tree contains a primitive with no derivative rule (e.g. abs)."""


# ---------------------------------------------------------------------------
# numeric helpers for the removable-singularity family
# ---------------------------------------------------------------------------

def sinc(a: float) -> float:
    """sin(a)/a continued with exactly 1.0 at a = 0."""
    if a == 0.0:
        return 1.0
    return math.sin(a) / a


def cosm1c(a: float) -> float:
    """(cos(a) - 1)/a continued with 0.0 at a = 0.

    Uses -2 sin(a/2)^2 / a to avoid the cancellation in cos(a) - 1.
    """
    if a == 0.0:
        return 0.0
    s = math.sin(0.5 * a)
    return -2.0 * s * s / a


def expm1c(a: float) -> float:
    """(exp(a) - 1)/a continued with 1.0 at a = 0."""
    if a == 0.0:
        return 1.0
    return math.expm1(a) / a


def dsinc(a: float) -> float:
    """Derivative of sinc: (a cos a - sin a)/a^2, continued with 0.0 at a = 0.

    Switches to the Taylor form -a/3 + a^3/30 for small a where the direct
    quotient loses all significant digits.
    """
    if abs(a) < 1e-4:
        return a * (a * a / 30.0 - 1.0 / 3.0)
    return (a * math.cos(a) - math.sin(a)) / (a * a)


def _ln(a: float) -> float:
    if a <= 0.0:
        raise ValueError("ln of non-positive value")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise ValueError("sqrt of negative value")
    return math.sqrt(a)


# name -> numeric implementation; shared by tree evaluation and codegen
FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "tanh": math.tanh,
    "exp": math.exp,
    "ln": _ln,
    "sqrt": _sqrt,
    "abs": abs,
    "sinc": sinc,
    "cosm1c": cosm1c,
    "expm1c": expm1c,
    "dsinc": dsinc,
}


# the same family on whole arrays of points; the branch an element does
# not take is never evaluated for it, so it raises no floating-point flag

def _array_sinc(a):
    a = np.asarray(a, dtype=float)
    return np.divide(np.sin(a), a, out=np.ones_like(a), where=a != 0.0)


def _array_cosm1c(a):
    a = np.asarray(a, dtype=float)
    s = np.sin(0.5 * a)
    return np.divide(-2.0 * s * s, a, out=np.zeros_like(a), where=a != 0.0)


def _array_expm1c(a):
    a = np.asarray(a, dtype=float)
    return np.divide(np.expm1(a), a, out=np.ones_like(a), where=a != 0.0)


def _array_dsinc(a):
    a = np.asarray(a, dtype=float)
    small = np.abs(a) < 1e-4
    out = np.empty_like(a)
    t = a[small]
    out[small] = t * (t * t / 30.0 - 1.0 / 3.0)
    t = a[~small]
    out[~small] = (t * np.cos(t) - np.sin(t)) / (t * t)
    return out


# name -> implementation on arrays, for the numpy table of the generator;
# ln and sqrt outside their domain give numpy's flags, not ValueError
ARRAY_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sinc": _array_sinc,
    "cosm1c": _array_cosm1c,
    "expm1c": _array_expm1c,
    "dsinc": _array_dsinc,
}


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

class Expr:
    """Base node. Subclasses are Const, Var, Add, Mul, Div, Pow, Call."""

    __slots__ = ()

    # subclasses fill these in
    def _key(self) -> tuple:
        raise NotImplementedError

    def eval(self, bindings: Mapping[str, float]) -> float:
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Expr) and self._key() == other._key()
        )

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_string(self)!r})"

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def _key(self):
        return ("const", self.value)

    def eval(self, bindings):
        return self.value

    def diff(self, var):
        return ZERO

    def free_vars(self):
        return frozenset()


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def _key(self):
        return ("var", self.name)

    def eval(self, bindings):
        try:
            return float(bindings[self.name])
        except KeyError:
            raise UnboundVariableError(self.name) from None

    def diff(self, var):
        return ONE if self.name == var else ZERO

    def free_vars(self):
        return frozenset((self.name,))


class _Nary(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        object.__setattr__(self, "terms", terms)

    def children(self):
        return self.terms

    def free_vars(self):
        out: frozenset[str] = frozenset()
        for t in self.terms:
            out |= t.free_vars()
        return out


class Add(_Nary):
    __slots__ = ()

    def _key(self):
        return ("add",) + tuple(t._key() for t in self.terms)

    def eval(self, bindings):
        acc = 0.0
        for t in self.terms:
            acc += t.eval(bindings)
        return acc

    def diff(self, var):
        return add(*(t.diff(var) for t in self.terms))


class Mul(_Nary):
    __slots__ = ()

    def _key(self):
        return ("mul",) + tuple(t._key() for t in self.terms)

    def eval(self, bindings):
        acc = 1.0
        for t in self.terms:
            acc *= t.eval(bindings)
        return acc

    def diff(self, var):
        # product rule over n factors
        parts = []
        for i, t in enumerate(self.terms):
            rest = self.terms[:i] + self.terms[i + 1:]
            parts.append(mul(t.diff(var), *rest))
        return add(*parts)


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _key(self):
        return ("div", self.num._key(), self.den._key())

    def children(self):
        return (self.num, self.den)

    def eval(self, bindings):
        d = self.den.eval(bindings)
        if d == 0.0:
            raise DomainError("division by zero")
        return self.num.eval(bindings) / d

    def diff(self, var):
        return div(
            add(mul(self.num.diff(var), self.den),
                neg(mul(self.num, self.den.diff(var)))),
            pow_(self.den, Const(2.0)),
        )

    def free_vars(self):
        return self.num.free_vars() | self.den.free_vars()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def _key(self):
        return ("pow", self.base._key(), self.exponent._key())

    def children(self):
        return (self.base, self.exponent)

    def eval(self, bindings):
        b = self.base.eval(bindings)
        e = self.exponent.eval(bindings)
        try:
            return math.pow(b, e)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"pow({b!r}, {e!r}): {exc}") from None

    def diff(self, var):
        base, expo = self.base, self.exponent
        if isinstance(expo, Const):
            # power rule; covers the overwhelmingly common case
            return mul(expo, pow_(base, Const(expo.value - 1.0)), base.diff(var))
        if isinstance(base, Const) and base.value > 0.0:
            # a^g = exp(g ln a)
            return mul(self, Const(math.log(base.value)), expo.diff(var))
        # general f^g via exp(g ln f)
        return mul(self, add(mul(expo.diff(var), call("ln", base)),
                             mul(expo, div(base.diff(var), base))))

    def free_vars(self):
        return self.base.free_vars() | self.exponent.free_vars()


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        if fn not in FUNCTIONS:
            raise ValueError(f"unknown function '{fn}'")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)

    def _key(self):
        return ("call", self.fn, self.arg._key())

    def children(self):
        return (self.arg,)

    def eval(self, bindings):
        a = self.arg.eval(bindings)
        try:
            return FUNCTIONS[self.fn](a)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{self.fn}({a!r}): {exc}") from None

    def diff(self, var):
        rule = _DERIVATIVES.get(self.fn)
        if rule is None:
            raise NonDifferentiableError(
                f"'{self.fn}' has no derivative rule")
        return mul(rule(self.arg), self.arg.diff(var))

    def free_vars(self):
        return self.arg.free_vars()


# outer derivative d/da f(a) as an expression in the argument
_DERIVATIVES: dict[str, Callable[[Expr], Expr]] = {
    "sin": lambda a: call("cos", a),
    "cos": lambda a: neg(call("sin", a)),
    "tan": lambda a: add(ONE, pow_(call("tan", a), Const(2.0))),
    "tanh": lambda a: add(ONE, neg(pow_(call("tanh", a), Const(2.0)))),
    "exp": lambda a: call("exp", a),
    "ln": lambda a: div(ONE, a),
    "sqrt": lambda a: div(ONE, mul(Const(2.0), call("sqrt", a))),
    "sinc": lambda a: call("dsinc", a),
    # quotient forms; evaluable everywhere except exactly at a = 0,
    # which no conversion path ever differentiates into
    "cosm1c": lambda a: div(add(neg(call("sin", a)),
                                neg(call("cosm1c", a))), a),
    "expm1c": lambda a: div(add(mul(add(a, Const(-1.0)), call("exp", a)), ONE),
                            pow_(a, Const(2.0))),
    "dsinc": lambda a: div(add(mul(Const(2.0), call("sin", a)),
                               neg(mul(Const(2.0), a, call("cos", a))),
                               neg(mul(pow_(a, Const(2.0)), call("sin", a)))),
                           pow_(a, Const(3.0))),
}


ZERO = Const(0.0)
ONE = Const(1.0)


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise TypeError(f"cannot use {type(v).__name__} as an expression")


# ---------------------------------------------------------------------------
# normalizing constructors
# ---------------------------------------------------------------------------
# These flatten nested sums/products, fold constants and eliminate 0/1
# identities, so trees built through them are already in canonical shape.
# They never reorder operands, which keeps results deterministic and
# readable.

def add(*terms) -> Expr:
    flat: list[Expr] = []
    const = 0.0
    for t in terms:
        t = _coerce(t)
        if isinstance(t, Add):
            sub = t.terms
        else:
            sub = (t,)
        for s in sub:
            if isinstance(s, Const):
                const += s.value
            else:
                flat.append(s)
    if const != 0.0 or not flat:
        flat.append(Const(const))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    const = 1.0
    for f in factors:
        f = _coerce(f)
        if isinstance(f, Mul):
            sub = f.terms
        else:
            sub = (f,)
        for s in sub:
            if isinstance(s, Const):
                const *= s.value
            else:
                flat.append(s)
    if const == 0.0:
        return ZERO
    if const != 1.0:
        flat.insert(0, Const(const))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(e) -> Expr:
    return mul(Const(-1.0), _coerce(e))


def div(num, den) -> Expr:
    num, den = _coerce(num), _coerce(den)
    if isinstance(num, Const) and num.value == 0.0:
        return ZERO
    if isinstance(den, Const):
        if den.value == 0.0:
            return Div(num, den)  # defer the error to evaluation
        if isinstance(num, Const):
            return Const(num.value / den.value)
        return mul(Const(1.0 / den.value), num)
    return Div(num, den)


def pow_(base, exponent) -> Expr:
    base, exponent = _coerce(base), _coerce(exponent)
    if isinstance(exponent, Const):
        if exponent.value == 1.0:
            return base
        if exponent.value == 0.0:
            return ONE
        if isinstance(base, Const):
            try:
                return Const(math.pow(base.value, exponent.value))
            except (ValueError, OverflowError):
                pass
    return Pow(base, exponent)


def call(fn: str, arg) -> Expr:
    arg = _coerce(arg)
    if isinstance(arg, Const):
        try:
            return Const(FUNCTIONS[fn](arg.value))
        except (ValueError, OverflowError):
            pass
    return Call(fn, arg)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def simplify(e: Expr) -> Expr:
    """Rebuild ``e`` bottom-up through the normalizing constructors.

    Folds constants, drops 0/1 identities, collapses ``x*0`` and flattens
    nested sums and products.  The result is semantically equal to the
    input; no algebraic identities beyond these are applied.
    """
    return substitute(e, {})


def substitute(e: Expr, mapping: Mapping[str, Expr | float]) -> Expr:
    """Replace variables by expressions or numbers, renormalizing as it goes."""
    if isinstance(e, Var):
        if e.name in mapping:
            return _coerce(mapping[e.name])
        return e
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return add(*(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Div):
        return div(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), substitute(e.exponent, mapping))
    if isinstance(e, Call):
        return call(e.fn, substitute(e.arg, mapping))
    return e  # foreign node types (deferred integrals) pass through


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------
# Emits the same grammar the parser reads; parse(to_string(e)) rebuilds an
# equivalent tree.  Precedence: + (1), * and / (2), ^ (3), atoms (4).

def _prec(e: Expr) -> int:
    if isinstance(e, Add):
        return 1
    if isinstance(e, (Mul, Div)):
        return 2
    if isinstance(e, Pow):
        return 3
    if isinstance(e, Const) and e.value < 0.0:
        return 0  # force parens so "-3" never glues to an operator
    return 4


def _fmt_const(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def _wrap(e: Expr, ctx: int) -> str:
    s = to_string(e)
    return f"({s})" if _prec(e) < ctx else s


def to_string(e: Expr) -> str:
    """Render ``e`` in the expression grammar."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        out = _wrap(e.terms[0], 1)
        for t in e.terms[1:]:
            flipped = _negated(t)
            if flipped is not None:
                out += f" - {_wrap(flipped, 2)}"
            else:
                out += f" + {_wrap(t, 1)}"
        return out
    if isinstance(e, Mul):
        flipped = _negated(e)
        if flipped is not None and not isinstance(flipped, Const):
            return f"-{_wrap(flipped, 2)}"
        return "*".join(_wrap(t, 2) for t in e.terms)
    if isinstance(e, Div):
        return f"{_wrap(e.num, 2)}/{_wrap(e.den, 3)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, 4)}^{_wrap(e.exponent, 4)}"
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    printer = getattr(e, "display", None)
    if printer is not None:
        return printer()
    raise TypeError(f"cannot print {type(e).__name__}")


def _negated(e: Expr) -> Expr | None:
    """If ``e`` is -1 * rest or a negative constant, return its negation."""
    if isinstance(e, Const) and e.value < 0.0:
        return Const(-e.value)
    if isinstance(e, Mul) and isinstance(e.terms[0], Const):
        c = e.terms[0].value
        if c == -1.0:
            return mul(*e.terms[1:])
        if c < 0.0:
            return mul(Const(-c), *e.terms[1:])
    return None


# ---------------------------------------------------------------------------
# compilation to plain Python for tight numeric loops
# ---------------------------------------------------------------------------
# One code generator: a list of expressions compiles to one lambda that
# returns their values as a tuple, a single expression to one that
# returns its value.  Numpy scalar arguments keep numpy semantics
# (1/np.float64(0) is inf), where Expr.eval converts them to float, so a
# failing entry is found again by calling compiled code with the same
# arguments, never by tree walking.  The generated source is the same for
# both function tables; only the namespace it runs in differs.

# what compiled code raises on a domain or range violation: the math
# errors of generated code and the EvalError of tree-walked nodes
EVAL_ERRORS = (EvalError, ValueError, ZeroDivisionError, OverflowError)

# the only names compiled code sees besides its arguments: the function
# table, and inf and nan, which repr prints for folded non-finite constants
_TABLES = {
    "scalar": {"_pow": math.pow,
               **{f"_fn_{fn}": impl for fn, impl in FUNCTIONS.items()}},
    "numpy": {"_pow": np.power,
              **{f"_fn_{fn}": impl for fn, impl in ARRAY_FUNCTIONS.items()}},
}


class _NoCode(Exception):
    """The numpy table has no code for a node."""


def _pycode(e: Expr, bind: Callable[[Expr], str]) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Add):
        return "(" + " + ".join(_pycode(t, bind) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_pycode(t, bind) for t in e.terms) + ")"
    if isinstance(e, Div):
        return f"({_pycode(e.num, bind)} / {_pycode(e.den, bind)})"
    if isinstance(e, Pow):
        return f"_pow({_pycode(e.base, bind)}, {_pycode(e.exponent, bind)})"
    if isinstance(e, Call):
        return f"_fn_{e.fn}({_pycode(e.arg, bind)})"
    return bind(e)


def _compile(exprs: tuple[Expr, ...], names: tuple[str, ...], vector: bool,
             table: str = "scalar"):
    # arguments are _a0, _a1, ... whatever the variable names are
    params = [f"_a{i}" for i in range(len(names))]
    args = dict(zip(names, params))
    ns = {"__builtins__": {}, "inf": math.inf, "nan": math.nan,
          **_TABLES[table]}

    # a variable is its argument; in the scalar table any other node (a
    # deferred integral, a variable that is no argument) joins the
    # namespace and runs its own eval over its free variables
    def bind(node: Expr) -> str:
        if isinstance(node, Var) and node.name in args:
            return args[node.name]
        if table == "numpy":
            raise _NoCode
        ns[f"_node{len(ns)}"] = node
        used = ", ".join(f"{n!r}: {args[n]}" for n in node.free_vars()
                         if n in args)
        return f"_node{len(ns) - 1}.eval({{{used}}})"

    def emit(parts: list[str]):
        body = f"({''.join(p + ', ' for p in parts)})" if vector else parts[0]
        return eval(f"lambda {', '.join(params)}: {body}", ns)

    try:
        return emit([_pycode(e, bind) for e in exprs])
    except _NoCode:
        return None
    except (SyntaxError, RecursionError):
        if table == "numpy":
            return None
        # too deep for the Python compiler: every entry walks its tree
        return emit([bind(e) for e in exprs])


def compile_vector(exprs: Iterable[Expr],
                   arg_names: Iterable[str]) -> Callable[..., tuple]:
    """Compile ``exprs`` to one positional-argument Python function that
    returns their values as a tuple, each entry evaluated in order as by
    :func:`compile_scalar`.  Every entry walks its tree instead when the
    code is nested too deeply for the Python compiler.
    """
    return _compile(tuple(exprs), tuple(arg_names), vector=True)


def compile_scalar(e: Expr, arg_names: Iterable[str]) -> Callable[..., float]:
    """The one-expression case of :func:`compile_vector`.  It evaluates
    in the tree's order, so on float arguments it returns ``e.eval``'s
    values bit for bit, up to the sign of a zero sum: ``e.eval`` adds the
    terms to 0.0, so where every term is -0.0 it returns 0.0 and the
    compiled sum -0.0."""
    return _compile((e,), tuple(arg_names), vector=False)


def compile_array(e: Expr, arg_names: Iterable[str]) -> Callable | None:
    """``e`` through the numpy table: a function of equal-shaped float
    arrays, one per name, that returns ``e`` at every point, or None when
    the table has no code for a node of ``e`` (a deferred integral, a
    variable that is not an argument, or nesting too deep to compile);
    :func:`compile_scalar` still evaluates such an ``e``, one point per
    call.  Domain and range violations follow ``np.errstate``; a
    constant ``e`` returns a scalar."""
    return _compile((e,), tuple(arg_names), vector=False, table="numpy")


def first_failure(exprs: Sequence[Expr], arg_names: Sequence[str],
                  args: Sequence, exc: Exception) -> tuple[int, Exception]:
    """(index, exception) of the first of ``exprs`` whose own compiled
    function raises at ``args`` as their vector function raised ``exc``;
    re-raises ``exc`` if none does."""
    for i, e in enumerate(exprs):
        try:
            compile_scalar(e, arg_names)(*args)
        except type(exc) as cause:
            return i, cause
    raise exc
