"""Line-integral factorization of nonlinear state-space models.

For a continuously differentiable g and an anchor point z_bar, the
fundamental theorem of calculus gives

    g(z) - g(z_bar) = [ integral_0^1 Dg(z_bar + lam*(z - z_bar)) dlam ] (z - z_bar)

Applying this to f(x, u) and h(x, u) of a nonlinear state-space model
produces matrix functions A_bar(x, u), ..., D_bar(x, u) and constant
offsets V = f(x_bar, u_bar), W = h(x_bar, u_bar) such that

    f(x, u) = A_bar(x, u)(x - x_bar) + B_bar(x, u)(u - u_bar) + V

holds exactly for every (x, u), not just near the anchor.  With the
default origin anchor the substitution is simply x -> lam*x, u -> lam*u.

Integration over lam is either symbolic through a closed rule table
(see :func:`integrate_analytic`) or numeric through adaptive quadrature.
In analytic mode, an entry the rule table cannot discharge degrades to a
deferred-quadrature node for that entry alone and a warning is recorded.

Cost follows each equation's footprint, the variables it uses: only
those are differentiated and mapped onto the integration line, and every
other Jacobian entry is a structural zero that passes through at constant
cost.  A model whose equations each touch a few variables (a chain of
coupled pendulums, say) factorizes in time about linear in its size,
although the matrices hold (nx + nu) * (nx + ny) entries.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    Add, Call, Const, Div, EvalError, Expr, Mul, NonDifferentiableError,
    Pow, UnboundVariableError, Var, ZERO,
    add, call, compile_scalar, compile_vector, div, first_failure, mul, neg,
    simplify, substitute, to_string,
)
from .quadrature import integrate

# the integration variable; model variables may not use this name
LAMBDA = "lam"

DEFAULT_QUAD_ABS_TOL = 1e-10
DEFAULT_QUAD_REL_TOL = 1e-8
DEFAULT_QUAD_MAX_SUBDIVISIONS = 2000


class ModelError(Exception):
    """The model definition violates a structural requirement."""


def state_names(nx: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(nx))


def input_names(nu: int) -> tuple[str, ...]:
    return tuple(f"u{i + 1}" for i in range(nu))


_VAR_PAT = re.compile(r"([xu])([1-9][0-9]*)\Z")


def var_sort_key(name: str):
    """Deterministic ordering: states by index, then inputs, then the rest."""
    m = _VAR_PAT.match(name)
    if m:
        return (0 if m.group(1) == "x" else 1, int(m.group(2)), name)
    return (2, 0, name)


# ---------------------------------------------------------------------------
# model and anchor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NlssModel:
    """Nonlinear state-space model  xi(x) = f(x, u),  y = h(x, u).

    ``sample_time`` follows the usual convention: 0 means continuous
    time (xi is the derivative), a positive value means discrete time
    with that period (xi is the time shift), and -1 means discrete time
    with unspecified period.
    """

    nx: int
    nu: int
    ny: int
    f: tuple[Expr, ...]
    h: tuple[Expr, ...]
    sample_time: float = 0.0
    constants: Mapping[str, float] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if min(self.nx, self.nu, self.ny) < 1:
            raise ModelError("dimensions nx, nu, ny must be positive")
        if len(self.f) != self.nx:
            raise ModelError(f"expected {self.nx} state equations, got {len(self.f)}")
        if len(self.h) != self.ny:
            raise ModelError(f"expected {self.ny} output equations, got {len(self.h)}")
        if not math.isfinite(self.sample_time):
            raise ModelError(f"sample_time must be finite, got {self.sample_time!r}")
        if self.sample_time < 0.0 and self.sample_time != -1.0:
            raise ModelError("sample_time must be 0 (continuous), > 0, or -1")
        allowed = set(self.var_names)
        for label, vec in (("f", self.f), ("h", self.h)):
            for i, e in enumerate(vec):
                extra = e.free_vars() - allowed
                if extra:
                    raise ModelError(
                        f"{label}{i + 1} uses undeclared variables: "
                        f"{', '.join(sorted(extra))}")
                for v in sorted(e.free_vars(), key=var_sort_key):
                    try:
                        e.diff(v)
                    except NonDifferentiableError as exc:
                        raise ModelError(f"{label}{i + 1}: {exc}") from exc
                nodes = [e]
                while nodes:
                    n = nodes.pop()
                    if isinstance(n, Const) and not math.isfinite(n.value):
                        raise ModelError(
                            f"{label}{i + 1}: constants fold to {n.value!r}")
                    nodes.extend(n.children())

    @property
    def x_names(self) -> tuple[str, ...]:
        return state_names(self.nx)

    @property
    def u_names(self) -> tuple[str, ...]:
        return input_names(self.nu)

    @property
    def var_names(self) -> tuple[str, ...]:
        return self.x_names + self.u_names

    @property
    def is_continuous(self) -> bool:
        return self.sample_time == 0.0

    def bindings(self, x: Sequence[float], u: Sequence[float]) -> dict[str, float]:
        if len(x) != self.nx or len(u) != self.nu:
            raise ModelError(
                f"expected ({self.nx}, {self.nu}) state/input values, "
                f"got ({len(x)}, {len(u)})")
        out = dict(zip(self.x_names, x))
        out.update(zip(self.u_names, u))
        return out

    def eval_f(self, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        b = self.bindings(x, u)
        return np.array([e.eval(b) for e in self.f])

    def eval_h(self, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        b = self.bindings(x, u)
        return np.array([e.eval(b) for e in self.h])


@dataclass(frozen=True)
class Anchor:
    """Reference point (x_bar, u_bar) of the factorization."""

    x_bar: tuple[float, ...]
    u_bar: tuple[float, ...]

    def __post_init__(self):
        vals = self.x_bar + self.u_bar
        if not all(np.isfinite(v) for v in vals):
            raise ModelError("anchor entries must be finite")

    @classmethod
    def origin(cls, nx: int, nu: int) -> "Anchor":
        return cls((0.0,) * nx, (0.0,) * nu)

    def bindings(self, nx: int, nu: int) -> dict[str, float]:
        if len(self.x_bar) != nx or len(self.u_bar) != nu:
            raise ModelError(
                f"anchor has dimensions ({len(self.x_bar)}, {len(self.u_bar)}), "
                f"model needs ({nx}, {nu})")
        out = dict(zip(state_names(nx), self.x_bar))
        out.update(zip(input_names(nu), self.u_bar))
        return out


# ---------------------------------------------------------------------------
# deferred quadrature
# ---------------------------------------------------------------------------

class DeferredIntegral(Expr):
    """An entry kept as integral_0^1 integrand dlam, evaluated on demand.

    Behaves as an expression in the integrand's non-lam variables.  Each
    evaluation runs adaptive quadrature on a compiled integrand.
    """

    __slots__ = ("integrand", "abs_tol", "rel_tol", "max_subdivisions",
                 "_args", "_fn", "_free")

    def __init__(self, integrand: Expr,
                 abs_tol: float = DEFAULT_QUAD_ABS_TOL,
                 rel_tol: float = DEFAULT_QUAD_REL_TOL,
                 max_subdivisions: int = DEFAULT_QUAD_MAX_SUBDIVISIONS):
        integrand = simplify(integrand)
        free = frozenset(integrand.free_vars() - {LAMBDA})
        args = tuple(sorted(free, key=var_sort_key))
        object.__setattr__(self, "integrand", integrand)
        object.__setattr__(self, "abs_tol", float(abs_tol))
        object.__setattr__(self, "rel_tol", float(rel_tol))
        object.__setattr__(self, "max_subdivisions", int(max_subdivisions))
        object.__setattr__(self, "_args", args)
        object.__setattr__(self, "_fn",
                           compile_scalar(integrand, (LAMBDA,) + args))
        object.__setattr__(self, "_free", free)

    def _key(self):
        return ("defint", self.integrand._key(), self.abs_tol, self.rel_tol)

    def free_vars(self):
        return self._free

    def display(self) -> str:
        return f"integral01({to_string(self.integrand)})"

    def eval(self, bindings):
        try:
            vals = tuple(float(bindings[a]) for a in self._args)
        except KeyError as exc:
            raise UnboundVariableError(exc.args[0]) from None
        fn = self._fn
        return integrate(lambda l: fn(l, *vals), 0.0, 1.0,
                         abs_tol=self.abs_tol, rel_tol=self.rel_tol,
                         max_subdivisions=self.max_subdivisions).value

    def diff(self, var):
        raise NonDifferentiableError(
            "deferred integral entries cannot be differentiated")


# ---------------------------------------------------------------------------
# Jacobians and the integration line
# ---------------------------------------------------------------------------

def jacobian(fvec: Sequence[Expr], wrt: Sequence[str]) -> list[list[Expr]]:
    """Matrix of simplified partial derivatives, entry (i,j) = d fvec[i] / d wrt[j].

    Only variables in an equation's own footprint (``free_vars()``) are
    differentiated; every other entry is a structural ``ZERO``.
    """
    rows = []
    for e in fvec:
        footprint = e.free_vars()
        rows.append([simplify(e.diff(v)) if v in footprint else ZERO
                     for v in wrt])
    return rows


def line_substitute(e: Expr, anchor: Anchor) -> Expr:
    """Place ``e`` on the integration line z_bar + lam*(z - z_bar).

    With the origin anchor every variable v becomes lam*v; generally v
    becomes v_bar + lam*(v - v_bar).  ``e`` must not already use the
    integration variable.  Only the variables ``e`` uses are mapped, so
    a structural zero costs the same whatever the model's size.
    """
    footprint = e.free_vars()
    if LAMBDA in footprint:
        raise ModelError(f"'{LAMBDA}' is reserved for the integration variable")
    lam = Var(LAMBDA)
    mapping: dict[str, Expr] = {}
    for name in footprint:
        m = _VAR_PAT.match(name)
        if m is None:
            continue
        refs = anchor.x_bar if m.group(1) == "x" else anchor.u_bar
        k = int(m.group(2))
        if k > len(refs):
            continue  # not a variable of the anchor: left as is
        ref = refs[k - 1]
        v = Var(name)
        if ref == 0.0:
            mapping[name] = mul(lam, v)
        else:
            c = Const(ref)
            mapping[name] = add(c, mul(lam, add(v, neg(c))))
    return substitute(e, mapping)


# ---------------------------------------------------------------------------
# symbolic integration over lam in [0, 1]
# ---------------------------------------------------------------------------

def _poly_mul(a: list[Expr], b: list[Expr]) -> list[Expr]:
    """Coefficients of the product of two polynomials in lam."""
    return [add(*(mul(a[i], b[k - i])
                  for i in range(len(a)) if 0 <= k - i < len(b)))
            for k in range(len(a) + len(b) - 1)]


def _poly_coeffs(e: Expr) -> list[Expr] | None:
    """Coefficients [c0, c1, ...] with e = sum ck * lam^k, ck lam-free.

    Returns None when ``e`` is not polynomial in lam (e.g. lam inside a
    function argument).
    """
    if LAMBDA not in e.free_vars():
        return [e]
    if isinstance(e, Var):  # must be lam itself
        return [ZERO, Const(1.0)]
    if isinstance(e, Add):
        out: list[Expr] = []
        for t in e.terms:
            c = _poly_coeffs(t)
            if c is None:
                return None
            out.extend([ZERO] * (len(c) - len(out)))  # empty when shorter
            for k, ck in enumerate(c):
                out[k] = add(out[k], ck)
        return out
    if isinstance(e, Mul):
        out = [Const(1.0)]
        for t in e.terms:
            c = _poly_coeffs(t)
            if c is None:
                return None
            out = _poly_mul(out, c)
        return out
    if isinstance(e, Pow) and isinstance(e.exponent, Const):
        k = e.exponent.value
        if k.is_integer() and 0 <= k <= 32:
            base = _poly_coeffs(e.base)
            if base is None:
                return None
            out = [Const(1.0)]
            for _ in range(int(k)):
                out = _poly_mul(out, base)
            return out
    if isinstance(e, Div) and LAMBDA not in e.den.free_vars():
        num = _poly_coeffs(e.num)
        if num is None:
            return None
        return [div(c, e.den) for c in num]
    return None


def _affine_in_lambda(e: Expr) -> Expr | None:
    """If e = lam * a with a lam-free and structurally nonzero, return a."""
    c = _poly_coeffs(e)
    if c is None or len(c) != 2 or simplify(c[0]) != ZERO:
        return None
    a = simplify(c[1])
    return None if a == ZERO else a


def integrate_analytic(e: Expr) -> Expr | None:
    """Symbolic integral of ``e`` over lam in [0, 1], or None.

    The rule table covers lam-free expressions, polynomials in lam,
    sin/cos/exp of lam times a lam-free argument (producing the
    removable-singularity primitives cosm1c, sinc, expm1c), real powers
    lam^c with c > 0, lam-free multiplicative coefficients on any of
    these, division by lam-free denominators, and linearity over sums.
    None means the table does not apply and the caller should fall back
    to quadrature; it is an expected value, not a failure.
    """
    e = simplify(e)
    if LAMBDA not in e.free_vars():
        return e
    if isinstance(e, Add):
        parts = []
        for t in e.terms:
            r = integrate_analytic(t)
            if r is None:
                return None
            parts.append(r)
        return add(*parts)

    coeffs = _poly_coeffs(e)
    if coeffs is not None:
        return simplify(add(*(div(c, Const(k + 1.0))
                              for k, c in enumerate(coeffs))))

    if isinstance(e, Div):
        if LAMBDA in e.den.free_vars():
            return None
        r = integrate_analytic(e.num)
        return None if r is None else div(r, e.den)

    if isinstance(e, Mul):
        const_part = []
        hot = None
        for t in e.terms:
            if LAMBDA in t.free_vars():
                if hot is not None:
                    return None  # two lam-carrying factors: outside the table
                hot = t
            else:
                const_part.append(t)
        r = integrate_analytic(hot)
        if r is None:
            return None
        return simplify(mul(*const_part, r))

    if isinstance(e, Pow) and isinstance(e.exponent, Const):
        # non-integer powers of lam itself: lam^c -> 1/(c+1)
        if isinstance(e.base, Var) and e.base.name == LAMBDA and e.exponent.value > 0.0:
            return Const(1.0 / (e.exponent.value + 1.0))
        return None

    if isinstance(e, Call):
        a = _affine_in_lambda(e.arg)
        if a is None:
            return None
        if e.fn == "cos":
            return call("sinc", a)
        if e.fn == "sin":
            return neg(call("cosm1c", a))
        if e.fn == "exp":
            return call("expm1c", a)
        return None

    return None


def integrate_numeric(e: Expr, point: Mapping[str, float]) -> float:
    """Quadrature value of integral_0^1 e dlam with (x, u) bound to ``point``."""
    return DeferredIntegral(e).eval(point)


# ---------------------------------------------------------------------------
# matrix functions and the factorized system
# ---------------------------------------------------------------------------

@dataclass
class MatrixFunction:
    """Grid of expressions in (x, u) forming one factor matrix."""

    entries: tuple[tuple[Expr, ...], ...]
    tag: str                       # which of A, B, C, D this is
    var_names: tuple[str, ...]     # x names then u names

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)

    @cached_property
    def _vector(self):
        return compile_vector(chain(*self.entries), self.var_names)

    def evaluate(self, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        args = (*x, *u)
        try:
            return np.array(self._vector(*args), dtype=float).reshape(self.shape)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            n, cause = first_failure(tuple(chain(*self.entries)),
                                     self.var_names, args, exc)
            i, j = divmod(n, self.shape[1])
            raise EvalError(f"{self.tag}({i + 1},{j + 1}): {cause}") from cause

    def entry_strings(self) -> list[list[str]]:
        return [[to_string(e) for e in row] for row in self.entries]


@dataclass
class FactorizedSystem:
    """Matrix functions and offsets realizing the line-integral identity."""

    model: NlssModel
    anchor: Anchor
    A_bar: MatrixFunction
    B_bar: MatrixFunction
    C_bar: MatrixFunction
    D_bar: MatrixFunction
    V: np.ndarray
    W: np.ndarray
    warnings: tuple[str, ...] = ()

    def matrices_at(self, x, u):
        return (self.A_bar.evaluate(x, u), self.B_bar.evaluate(x, u),
                self.C_bar.evaluate(x, u), self.D_bar.evaluate(x, u))

    def reconstruct_f(self, x, u) -> np.ndarray:
        dx = np.asarray(x, dtype=float) - np.asarray(self.anchor.x_bar)
        du = np.asarray(u, dtype=float) - np.asarray(self.anchor.u_bar)
        return self.A_bar.evaluate(x, u) @ dx + self.B_bar.evaluate(x, u) @ du + self.V

    def reconstruct_h(self, x, u) -> np.ndarray:
        dx = np.asarray(x, dtype=float) - np.asarray(self.anchor.x_bar)
        du = np.asarray(u, dtype=float) - np.asarray(self.anchor.u_bar)
        return self.C_bar.evaluate(x, u) @ dx + self.D_bar.evaluate(x, u) @ du + self.W


def _integrate_entry(integrand: Expr, mode: str, tag: str, i: int, j: int,
                     warnings: list[str]) -> Expr:
    integrand = simplify(integrand)
    if LAMBDA not in integrand.free_vars():
        return integrand  # constant along the line; the integral is itself
    if mode == "analytic":
        result = integrate_analytic(integrand)
        if result is not None:
            return result
        warnings.append(
            f"{tag}({i + 1},{j + 1}): no closed form for "
            f"integral01({to_string(integrand)}); entry deferred to quadrature")
    return DeferredIntegral(integrand)


def _offsets(exprs: Sequence[Expr], tag: str,
             at: Mapping[str, float]) -> np.ndarray:
    """The equations' values at the anchor, naming the one that fails.

    Tree walking, not compiled code: a compiled sum of -0.0 terms is
    -0.0 where ``Expr.eval`` gives 0.0, and the offsets are stored.
    """
    out = []
    for i, e in enumerate(exprs):
        try:
            out.append(e.eval(at))
        except EvalError as exc:
            where = ", ".join(f"{n}={v!r}" for n, v in at.items())
            raise EvalError(
                f"{tag}{i + 1}: {exc} at the anchor {where}") from exc
    return np.array(out)


def factorize(model: NlssModel, anchor: Anchor | None = None,
              mode: str = "analytic") -> FactorizedSystem:
    """Factorize ``model`` about ``anchor`` (origin by default).

    mode 'analytic' integrates entries through the rule table, deferring
    entries it cannot close to quadrature nodes (with a warning each);
    mode 'numeric' defers every lam-dependent entry.
    """
    if mode not in ("analytic", "numeric"):
        raise ModelError(f"unknown integration mode '{mode}'")
    if anchor is None:
        anchor = Anchor.origin(model.nx, model.nu)
    at = anchor.bindings(model.nx, model.nu)  # also checks dimensions

    warnings: list[str] = []
    blocks = {}
    for tag, fvec, wrt in (
        ("A", model.f, model.x_names),
        ("B", model.f, model.u_names),
        ("C", model.h, model.x_names),
        ("D", model.h, model.u_names),
    ):
        jac = jacobian(fvec, wrt)
        rows = tuple(
            tuple(
                _integrate_entry(line_substitute(jac[i][j], anchor),
                                 mode, tag, i, j, warnings)
                for j in range(len(wrt))
            )
            for i in range(len(fvec))
        )
        blocks[tag] = MatrixFunction(rows, tag, model.var_names)

    V = _offsets(model.f, "f", at)
    W = _offsets(model.h, "h", at)
    return FactorizedSystem(model, anchor,
                            blocks["A"], blocks["B"], blocks["C"], blocks["D"],
                            V, W, tuple(warnings))
