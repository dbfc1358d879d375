"""Immutable scalar expression trees with compilation and differentiation.

Trees are built from constants, named variables, the arithmetic operators
``+ - * / ^`` and a fixed set of unary functions, through constructors
(:func:`add`, :func:`mul`, :func:`div`, :func:`pow_`, :func:`call`) that
own the canonical form: flattened n-ary sums and products, folded
constants, no 0/1 identities, and ``(-1) * e`` for unary minus.  The
parser, ``diff`` and :func:`substitute` build through them; :func:`simplify`
is for trees built from the node classes.  All nodes are immutable, so
every operation here is a pure function and safe to share across threads.

Nodes are hash-consed: a node class called with fields equal to those
of a live node returns that node, so two equal trees are one object,
``==`` is ``is`` and a node hashes by identity.  The key is the class and
the fields, with children compared by identity; a constant's key also
holds its sign, so ``-0.0`` keeps its own node, and a NaN constant is
never shared.  The table holds its nodes weakly, so a dropped tree is
freed.  Each node stores the variables it uses (:meth:`Expr.free_vars`),
joined from its children's once, when it is built.  Threads share the
table without a lock, since each change to it is one atomic dictionary
operation: a missing node is built and entered with ``setdefault``, so
when threads build the same tree at once, all of them return the node
that was entered first; and a dead node's entry is removed only while
it is still dead (``_remove_dead_weakref``, as in
:class:`weakref.WeakValueDictionary`), never taking out a live node
entered after it.

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
the derivative table (:data:`DERIVATIVES`).

Compilation
-----------
A tree is evaluated only by compiling it to plain Python, through one
code generator.  One walk counts each distinct node's uses.  A node
used once is written into its parent's code; one used twice or more,
or nested deeper than ``_MAX_DEPTH``, is computed once per call into a
local, in post-order, as is each run of ``_MAX_DEPTH`` terms of a
longer sum or product.  So no code nests too deeply for the Python
compiler.  The source is the same for two function tables.  A node the
generator has no code of its own for supplies ``arg_names``, ``at`` and
``at_array``, and is called positionally on its ``arg_names``, through
``at`` in the scalar table and ``at_array`` in the numpy one; a deferred
integral is the only such node.  A variable that is not an argument, on
its own or as such a node's, is code that raises
:class:`UnboundVariableError` when it runs.

* The scalar table maps the functions to :data:`FUNCTIONS`, on Python
  floats.  :func:`compile_vector` turns a list of trees into one
  function that returns their values as a tuple, and
  :func:`compile_scalar` is its one-expression case.  A vector function
  whose entry fails raises :class:`EntryError`, the one error that names
  a failing entry; an entry fails when it raises one of
  :data:`EVAL_ERRORS`, a deferred integral that does not converge
  included, and ``EntryError.at`` adds the point where it did.
  :func:`compile_panel` writes a quadrature rule's panel of an
  integrand on any interval, the function a deferred integral compiles:
  the nodes free of the integration variable once, the rest in a loop
  over the rule's node pairs.
* The numpy table maps them to ufuncs and :data:`ARRAY_FUNCTIONS`, so
  :func:`compile_array` evaluates one tree at whole arrays of points.
  It agrees with the scalar table to a few ulp (the transcendental
  functions are other implementations; the arithmetic is the same).  A
  deferred integral's ``at_array`` runs its panel in this table on the
  whole array, bisects [0, 1] once where that panel does not settle,
  and integrates through ``at`` only the points the bisection does not
  settle either.  Domain and range violations raise only as numpy's
  ``errstate`` says.
"""

from __future__ import annotations

import itertools
import math
import weakref
from _weakref import _remove_dead_weakref
from functools import partial
from typing import Callable, Iterable, Mapping

import numpy as np


class ExprError(Exception):
    """Base class for expression-level failures."""


class EvalError(ExprError):
    """Evaluation failed."""


class EntryError(EvalError):
    """Entry ``label`` (``index`` in its vector) failed with ``cause``."""

    def __init__(self, label: str, index: int, cause: Exception):
        super().__init__(f"{label}: {cause}")
        self.label, self.index, self.cause = label, index, cause

    def at(self, place: str, names, values) -> EntryError:
        """This error with the point where it happened added to its
        cause: ``p1: ln of non-positive value at grid point x1=-1.0``."""
        point = ", ".join(f"{n}={float(v)!r}" for n, v in zip(names, values))
        return EntryError(self.label, self.index,
                          EvalError(f"{self.cause} at {place} {point}"))


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


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


# below this |a|, cosm1c is -a/2, accurate to a relative a*a/12, where
# sin(a/2)**2 would near the subnormal range (|a| below about 3e-154)
_COSM1C_TINY = 1e-150


def cosm1c(a: float) -> float:
    """(cos(a) - 1)/a continued with 0.0 at a = 0.

    Uses -2 sin(a/2)^2 / a to avoid the cancellation in cos(a) - 1, and
    -a/2 where ``|a| < _COSM1C_TINY``.
    """
    if abs(a) < _COSM1C_TINY:
        return 0.0 - 0.5 * a  # 0.0, not -0.0, at either zero
    s = math.sin(0.5 * a)
    return -2.0 * s * s / a


def expm1c(a: float) -> float:
    """(exp(a) - 1)/a continued with 1.0 at a = 0."""
    if a == 0.0:
        return 1.0
    return math.expm1(a) / a


# dsinc's Taylor series is a * sum_k c_k a^(2k) with c_k = (-1)^(k+1)
# (2k+2)/(2k+3)!, k = 0..11.  The direct quotient cancels as 3*eps/a^2
# for small a; below |a| = 1.5 these twelve terms stay within about an
# ulp of the exact value (measured against mpmath) in both tables
_DSINC_SWITCH = 1.5
_DSINC_SERIES = (
    -1 / 3, 1 / 30, -1 / 840, 1 / 45360, -1 / 3991680, 1 / 518918400,
    -1 / 93405312000, 1 / 22230464256000, -1 / 6758061133824000,
    1 / 2554547108585472000, -1 / 1175091669949317120000,
    1 / 646300418472124416000000,
)


def _dsinc_series(a):
    """dsinc by its series, Horner in a*a, on a float or an array."""
    t = a * a
    s = 0.0
    for c in reversed(_DSINC_SERIES):
        s = s * t + c
    return a * s


def dsinc(a: float) -> float:
    """Derivative of sinc: (a cos a - sin a)/a^2, continued with 0.0 at a = 0.

    Below ``|a| < _DSINC_SWITCH`` the series, where the direct quotient
    would lose significant digits.
    """
    if abs(a) < _DSINC_SWITCH:
        return _dsinc_series(a)
    return (a * math.cos(a) - math.sin(a)) / (a * a)


def _ln(a: float) -> float:
    if a <= 0.0:
        raise ValueError("ln of non-positive value")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise ValueError("sqrt of negative value")
    return math.sqrt(a)


# name -> numeric implementation: constant folding and the scalar table
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
    return np.divide(-2.0 * s * s, a, out=np.asarray(0.0 - 0.5 * a),
                     where=np.abs(a) >= _COSM1C_TINY)


def _array_expm1c(a):
    a = np.asarray(a, dtype=float)
    return np.divide(np.expm1(a), a, out=np.ones_like(a), where=a != 0.0)


def _array_dsinc(a):
    a = np.asarray(a, dtype=float)
    small = np.abs(a) < _DSINC_SWITCH
    out = np.empty_like(a)
    out[small] = _dsinc_series(a[small])
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
# the intern table of the module docstring: key -> weak reference to node

_NODES: dict[tuple, weakref.ref] = {}
_NO_VARS: frozenset[str] = frozenset()


def _forget(key, ref, nodes=_NODES, remove=_remove_dead_weakref):
    # bound as defaults: the module's globals may be gone at interpreter exit
    remove(nodes, key)


def _intern(cls, key, fields) -> "Expr":
    """A new ``cls`` built from ``fields`` and entered under ``key`` (a
    None key: never), or the live node another thread entered first."""
    node = object.__new__(cls)
    node._build(*fields)
    ref = weakref.ref(node, partial(_forget, key))
    while key is not None:
        live = _NODES.setdefault(key, ref)()  # ours, unless one was there
        if live is not None:
            return live
        _remove_dead_weakref(_NODES, key)  # a dead node's entry
    return node


def _union(nodes) -> frozenset[str]:
    """The nodes' footprints joined; a node's own set if it holds them all."""
    out = _NO_VARS
    for n in nodes:
        if not n._free <= out:
            out = out | n._free if out else n._free
    return out


class Expr:
    """Base node. Subclasses are Const, Var, Add, Mul, Div, Pow, Call."""

    __slots__ = ("_free", "__weakref__")
    _fields: tuple[str, ...] = ()  # the constructor's arguments, as slots

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _NODES.get(key)
        node = ref and ref()  # None when the key is missing or its node dead
        return node if node is not None else _intern(cls, key, fields)

    def _build(self, *fields) -> None:
        for name, value in zip(self._fields, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_free", _union(self.children()))

    # subclasses fill this in
    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        """The names of the variables the tree uses, stored at build."""
        return self._free

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_string(self)!r})"

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        if value != value:  # NaN, equal to nothing, is never shared
            return _intern(cls, None, (value,))
        # keyed with its sign, so -0.0 keeps its own node
        return super().__new__(cls, value, math.copysign(1.0, value))

    def _build(self, value, sign=None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_free", _NO_VARS)

    def diff(self, var):
        return ZERO


class Var(Expr):
    __slots__ = ("name",)

    def _build(self, name):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_free", frozenset((name,)))

    def diff(self, var):
        return ONE if self.name == var else ZERO


class _Nary(Expr):
    __slots__ = _fields = ("terms",)

    def children(self):
        return self.terms


class Add(_Nary):
    __slots__ = ()

    def diff(self, var):
        return add(*(t.diff(var) for t in self.terms))


class Mul(_Nary):
    __slots__ = ()

    def diff(self, var):
        # product rule over n factors
        parts = []
        for i, t in enumerate(self.terms):
            rest = self.terms[:i] + self.terms[i + 1:]
            parts.append(mul(t.diff(var), *rest))
        return add(*parts)


class Div(Expr):
    __slots__ = _fields = ("num", "den")

    def children(self):
        return (self.num, self.den)

    def diff(self, var):
        return div(
            add(mul(self.num.diff(var), self.den),
                neg(mul(self.num, self.den.diff(var)))),
            pow_(self.den, Const(2.0)),
        )


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")

    def children(self):
        return (self.base, self.exponent)

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


class Call(Expr):
    __slots__ = _fields = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        if fn not in FUNCTIONS:
            raise ValueError(f"unknown function '{fn}'")
        return super().__new__(cls, fn, arg)

    def children(self):
        return (self.arg,)

    def diff(self, var):
        rule = DERIVATIVES.get(self.fn)
        if rule is None:
            raise NonDifferentiableError(
                f"'{self.fn}' has no derivative rule")
        return mul(rule(self.arg), self.arg.diff(var))


# outer derivative d/da f(a) as an expression in the argument
DERIVATIVES: dict[str, Callable[[Expr], Expr]] = {
    "sin": lambda a: call("cos", a),
    "cos": lambda a: neg(call("sin", a)),
    "tan": lambda a: add(ONE, pow_(call("tan", a), Const(2.0))),
    "tanh": lambda a: add(ONE, neg(pow_(call("tanh", a), Const(2.0)))),
    "exp": lambda a: call("exp", a),
    "ln": lambda a: div(ONE, a),
    "sqrt": lambda a: div(ONE, mul(Const(2.0), call("sqrt", a))),
    "sinc": lambda a: call("dsinc", a),
    # quotient forms: not evaluable at a = 0, and the expm1c and dsinc
    # ones cancel near it.  factorize differentiates a model's own
    # equations, so a model that uses cosm1c, expm1c or dsinc itself
    # meets them wherever its line integral passes a = 0, and such a
    # convert exits with an error naming the entry; derivatives with a
    # value at 0 are ROADMAP.md's direction 15
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
# They own the canonical form (see the module docstring) and never
# reorder operands, which keeps results deterministic and readable.

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
    input, and a tree built through the constructors comes back unchanged.
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
# Compiled code runs on its arguments as given.  Python floats are the
# fast kind.  Numpy scalars keep numpy semantics: 1/np.float64(0) is inf
# where 1/0.0 raises, and that is the only difference, since the function
# table converts an np.float64 to float first and _pow is math.pow.
# call_floats calls a vector on floats and, where that raises, again on
# the numpy scalars; a failing entry is found again on those arguments.

# what compiled code raises on a domain or range violation: math errors,
# and the EvalError of a deferred integral that does not converge
# (quadrature's QuadratureConvergenceError) or of an unbound variable
EVAL_ERRORS = (EvalError, ValueError, ZeroDivisionError, OverflowError)


def _unbound(name: str):
    raise UnboundVariableError(name)


# the only names compiled code sees besides its arguments: the function
# table, _unbound, and inf and nan, which repr prints for folded
# non-finite constants
_TABLES = {
    "scalar": {"_pow": math.pow,
               **{f"_fn_{fn}": impl for fn, impl in FUNCTIONS.items()}},
    "numpy": {"_pow": np.power,
              **{f"_fn_{fn}": impl for fn, impl in ARRAY_FUNCTIONS.items()}},
}

# the method through which each table calls a deferred integral
_DEFERRED_CALL = {"scalar": "at", "numpy": "at_array"}

# the deepest code written inline, and the most terms of one inline sum
# or product; a deeper node, or a run of further terms, gets a local
_MAX_DEPTH = 32


def _walk(roots) -> tuple[list[Expr], dict[Expr, int]]:
    """The distinct nodes of ``roots``, children first, and the number of
    references to each: from its parents, and as a root."""
    order, uses = [], {}
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node in uses:
            uses[node] += 1
        else:
            uses[node] = 1
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children()))
    return order, uses


def _compile(exprs: tuple[Expr, ...], names: tuple[str, ...], fail=None,
             table: str = "scalar", panel=None):
    # arguments are _a0, _a1, ... whatever the variable names are
    params = [f"_a{i}" for i in range(len(names))]
    args = dict(zip(names, params))
    ns = {"__builtins__": {}, "inf": math.inf, "nan": math.nan,
          "_unbound": _unbound, **_TABLES[table]}
    lines: list[str] = []
    count = itertools.count()

    def local(sink: list[str], src: str) -> str:
        name = f"_t{next(count)}"
        sink.append(f"{name} = {src}")
        return name

    order, uses = _walk(exprs)
    hoist: set[Expr] = set()  # nodes a panel computes once, out of its loop

    def emit(nodes, args, code, sink) -> None:
        """Each node's code and the depth it nests to into ``code``,
        children first, and the locals they need into ``sink``."""
        for node in nodes:
            if isinstance(node, Const):
                code[node] = (repr(node.value), 0)
                continue
            if isinstance(node, Var) and node.name in args:
                code[node] = (args[node.name], 0)
                continue
            src = [code[c][0] for c in node.children()]
            d = 1 + max((code[c][1] for c in node.children()), default=-1)
            if isinstance(node, (Add, Mul, Div)):
                op = {Add: " + ", Mul: " * ", Div: " / "}[type(node)]
                while len(src) > _MAX_DEPTH:  # left to right, as inline
                    src[:_MAX_DEPTH] = [
                        local(sink, f"({op.join(src[:_MAX_DEPTH])})")]
                out = f"({op.join(src)})"
                d += len(src) - 2  # a run of k terms nests k - 1 deep
            elif isinstance(node, Pow):
                out = f"_pow({src[0]}, {src[1]})"
            elif isinstance(node, Call):
                out = f"_fn_{node.fn}({src[0]})"
            elif isinstance(node, Var):  # not an argument
                out = f"_unbound({node.name!r})"
            else:  # a deferred integral, called on its arguments in order
                ns[f"_node{len(ns)}"] = node
                vals = ", ".join(args.get(n, f"_unbound({n!r})")
                                 for n in node.arg_names)
                out = f"_node{len(ns) - 1}.{_DEFERRED_CALL[table]}({vals})"
            if uses[node] > 1 or d > _MAX_DEPTH or node in hoist:
                out, d = local(sink, out), 0
            code[node] = (out, d)

    sig = ", ".join(params)
    code: dict[Expr, tuple[str, int]] = {}
    if panel is not None:
        # nodes free of lam are computed once, before the loop over the
        # node pairs, into a local where a lam node uses them; the rest
        # is written out for a pair's lo and hi node and for the centre,
        # which are placed on [_pa, _pb] as quadrature.panel places them
        lam, (pairs, wk_center, wg_center) = panel
        e = exprs[0]
        inner = [n for n in order if lam in n.free_vars()]
        hoist.update(c for n in inner for c in n.children()
                     if lam not in c.free_vars())
        if lam not in e.free_vars():
            hoist.add(e)
        emit([n for n in order if lam not in n.free_vars()], args, code,
             lines)
        at = []
        for node_src in ("_lo", "_hi", "_mid"):
            at_lines, at_code = [], dict(code)
            emit(inner, {**args, lam: node_src}, at_code, at_lines)
            at.append((at_lines, at_code[e][0]))
        (lo_lines, lo), (hi_lines, hi), (c_lines, c) = at
        if hi_lines:  # lo is done before hi's code runs, as panel has it
            lo_lines.append(f"_flo = {lo}")
            lo = "_flo"
        ns["_pairs"] = pairs
        src = (f"def _f({', '.join(params + ['_pa', '_pb'])}):\n"
               + "".join(f"  {line}\n" for line in lines)
               + "  _mid = 0.5 * (_pa + _pb)\n"
               "  _half = 0.5 * (_pb - _pa)\n"
               "  _k = 0.0\n  _g = 0.0\n"
               "  for _x, _wk, _wg in _pairs:\n"
               "    _dx = _half * _x\n"
               "    _lo = _mid - _dx\n"
               "    _hi = _mid + _dx\n"
               + "".join(f"    {line}\n" for line in lo_lines + hi_lines)
               + f"    _p = {lo} + {hi}\n"
               "    _k += _wk * _p\n"
               "    if _wg is not None:\n"
               "      _g += _wg * _p\n"
               + "".join(f"  {line}\n" for line in c_lines)
               + f"  _c = {c}\n"
               f"  _k += {wk_center!r} * _c\n"
               f"  _g += {wg_center!r} * _c\n"
               "  _k = _half * _k\n"
               "  _g = _half * _g\n"
               "  return _k, _g, _fn_abs(_k - _g)\n")
    else:
        emit(order, args, code, lines)
        body = "".join(f"  {line}\n" for line in lines)
        if fail is None:
            src = f"def _f({sig}):\n{body}  return {code[exprs[0]][0]}\n"
        else:
            # a vector hands what its entries raise, with its arguments,
            # to fail, or to the _fail its caller passes
            ns.update(_errors=EVAL_ERRORS, _fail=fail)
            values = "".join(code[e][0] + ", " for e in exprs)
            head = ", ".join(params + ["*", "_fail=_fail"])
            src = (f"def _f({head}):\n try:\n{body}  return ({values})\n"
                   f" except _errors as _exc: _fail(_exc, [{sig}])\n")
    exec(src, ns)
    # the function is the namespace's: kept out of it, it is in no
    # reference cycle, so a dropped function is freed at once
    return ns.pop("_f")


def compile_vector(exprs: Iterable[Expr], arg_names: Iterable[str],
                   prefix: str) -> Callable[..., tuple]:
    """Compile ``exprs`` to one positional-argument Python function that
    returns their values as a tuple, each as by :func:`compile_scalar`.
    Where it raises one of :data:`EVAL_ERRORS`, it raises EntryError for
    the first entry that raises on its own, labelled ``prefix`` and a
    number (p2)."""
    exprs, names = tuple(exprs), tuple(arg_names)

    def fail(exc: Exception, args: list):
        for i, e in enumerate(exprs):
            try:
                compile_scalar(e, names)(*args)
            except EVAL_ERRORS as cause:
                raise EntryError(f"{prefix}{i + 1}", i, cause) from cause
        raise exc
    return _compile(exprs, names, fail)


def _reraise(exc: Exception, args: list):
    raise exc


def call_floats(vector: Callable[..., tuple], x, u) -> tuple:
    """``vector(*x, *u)`` for a :func:`compile_vector` function, run on
    the entries of the arrays ``x`` and ``u`` as Python floats, about
    twice as fast as on numpy scalars and with the same values.  Where
    the float call raises, ``vector`` runs again on ``x`` and ``u`` as
    given, before any search for the failing entry, and returns or
    raises what that call does.  So numpy arrays keep numpy semantics
    (``tanh(1/x1)`` is 1 at x1 = 0) and a list of floats float semantics.
    """
    try:
        return vector(*np.asarray(x).tolist(), *np.asarray(u).tolist(),
                      _fail=_reraise)
    except EVAL_ERRORS:
        return vector(*x, *u)


def compile_scalar(e: Expr, arg_names: Iterable[str]) -> Callable[..., float]:
    """The one-expression case of :func:`compile_vector`, raising what
    ``e`` raises.  A sum adds its terms left to right from the first, so
    where every term is -0.0 it is -0.0."""
    return _compile((e,), tuple(arg_names))


def compile_array(e: Expr, arg_names: Iterable[str]) -> Callable:
    """``e`` through the numpy table: a function of equal-shaped float
    arrays, one per name, that returns ``e`` at every point.  A deferred
    integral runs its ``at_array`` on its arguments.  Domain and range
    violations follow ``np.errstate``; a constant ``e`` returns a
    scalar."""
    return _compile((e,), tuple(arg_names), table="numpy")


def compile_arrays(exprs: Iterable[Expr],
                   arg_names: Iterable[str]) -> Callable[..., tuple]:
    """:func:`compile_vector` through the numpy table: one function of
    equal-shaped float arrays, one per name, that returns each of
    ``exprs`` at every point, as :func:`compile_array` does, in a tuple.
    It raises what the entries raise, naming none."""
    return _compile(tuple(exprs), tuple(arg_names), _reraise, table="numpy")


def compile_panel(integrand: Expr, lam: str, arg_names: Iterable[str],
                  rule, table: str = "scalar") -> Callable[..., tuple]:
    """One quadrature panel of the integral of ``integrand`` over ``lam``
    as straight-line code: a positional function of ``arg_names`` and
    then the interval's ends ``a, b`` that returns ``(kronrod, gauss,
    |kronrod - gauss|)`` on [a, b], the value of
    ``lpvembed.quadrature.panel`` on the integrand, bit for bit.  ``rule``
    is ``(pairs, kronrod centre weight, gauss centre weight)`` as
    :data:`lpvembed.quadrature.RULE` gives it; the nodes are placed and
    the sums accumulate as that function does, pair by pair, centre last.
    Raises what the integrand raises at a node; a failing node free of
    ``lam`` raises before any node is placed.  With ``table="numpy"``
    the same source runs on equal-shaped arrays of the arguments, ``a``
    and ``b`` and the nodes staying scalars, and gives the three as
    arrays, equal to the scalar panel's to a few ulp, as
    :func:`compile_array` does."""
    return _compile((integrand,), tuple(arg_names), table=table,
                    panel=(lam, rule))


def constant_value(e: Expr) -> float:
    """The value of the variable-free tree ``e``; EvalError if it fails."""
    if isinstance(e, Const):
        return e.value
    try:
        return compile_scalar(e, ())()
    except EVAL_ERRORS as exc:
        raise EvalError(str(exc)) from exc
