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

Every tree here is built through the constructors of :mod:`lpvembed.expr`
and is canonical as built, so no step normalizes it again.

Each factor matrix is stored sparse (:class:`MatrixFunction`): an entry
outside its equation's footprint, the variables it uses, is identically
zero and is never formed.  Only the footprint is differentiated, mapped
onto the integration line and integrated, so a model whose equations each
touch a few variables (a chain of coupled pendulums, say) factorizes in
time about linear in its size.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    DERIVATIVES, Add, Call, Const, Div, EntryError, Expr, Mul,
    NonDifferentiableError, Pow, Var, ZERO, add, call, compile_panel,
    compile_vector, div, mul, neg, substitute, to_string,
)
from . import quadrature
from .quadrature import RULE, integrate, unsettled

# the integration variable; model variables may not use this name
LAMBDA = "lam"
_LAM = Var(LAMBDA)


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

def check_sample_time(sample_time: float) -> None:
    """Refuse a ``sample_time`` that breaks :class:`NlssModel`'s
    convention: one that is not finite, or not 0, > 0 or -1."""
    if not math.isfinite(sample_time):
        raise ModelError(f"sample_time must be finite, got {sample_time!r}")
    if sample_time < 0.0 and sample_time != -1.0:
        raise ModelError("sample_time must be 0 (continuous), > 0, or -1")


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
        check_sample_time(self.sample_time)
        allowed = set(self.var_names)
        for label, vec in (("f", self.f), ("h", self.h)):
            for i, e in enumerate(vec):
                where, used = f"{label}{i + 1}", e.free_vars()
                if used - allowed:
                    raise ModelError(f"{where} uses undeclared variables: "
                                     f"{', '.join(sorted(used - allowed))}")
                # refused in diff's order, before the rightmost non-finite
                # constant; jacobian differentiates only equations with variables
                bad, nodes = None, [e]
                while nodes:
                    n = nodes.pop()
                    if used and isinstance(n, DeferredIntegral):
                        raise ModelError(f"{where}: deferred integral entries "
                                         "cannot be differentiated")
                    if used and isinstance(n, Call) and n.fn not in DERIVATIVES:
                        raise ModelError(f"{where}: '{n.fn}' has no derivative rule")
                    if isinstance(n, Const) and not math.isfinite(n.value):
                        bad = n.value
                    nodes.extend(reversed(n.children()))
                if bad is not None:
                    raise ModelError(f"{where}: constants fold to {bad!r}")

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

    Behaves as an expression in the integrand's non-lam variables,
    ``arg_names``.  Its compiled function, built with it, is a
    Gauss-Kronrod panel of the integrand on any interval as straight-line
    code (:func:`compile_panel`); adaptive quadrature calls it for every
    panel it needs and raises what the integrand raises.  The same panel
    in the numpy table, for :meth:`at_array`, is compiled on that
    method's first call, so an entry that is only evaluated point by
    point (loaded, simulated) never compiles it; the range scan and
    verification compile it once per entry.
    """

    __slots__ = ("integrand", "arg_names", "_panel", "_array_panel")

    def _build(self, integrand: Expr):
        free = integrand.free_vars() - {LAMBDA}
        args = tuple(sorted(free, key=var_sort_key))
        object.__setattr__(self, "integrand", integrand)
        object.__setattr__(self, "arg_names", args)
        object.__setattr__(self, "_panel",
                           compile_panel(integrand, LAMBDA, args, RULE))
        object.__setattr__(self, "_array_panel", None)
        object.__setattr__(self, "_free", free)

    def display(self) -> str:
        return f"integral01({to_string(self.integrand)})"

    def at(self, *values) -> float:
        """The integral at the values of ``arg_names``, in order."""
        panel = partial(self._panel, *map(float, values))
        return integrate(panel, 0.0, 1.0).value

    def at_array(self, *values) -> np.ndarray:
        """:meth:`at` at every point of equal-shaped float arrays, one per
        name of ``arg_names``, in order.  The numpy table's panel follows
        :func:`integrate` as far as its first bisection, on all points at
        once: one panel on [0, 1] gives each point's first estimate, and
        the points that quadrature's own test (:func:`unsettled`) does not
        settle are bisected once (:func:`quadrature.bisected`, integrate's
        arithmetic) where ``MAX_SUBDIVISIONS``, read at call time, allows
        it.  A point settled by either step keeps its estimate, equal to
        :meth:`at`'s to a few ulp, and every other point is :meth:`at`'s
        value, bit for bit.  Raises what :meth:`at` raises, and
        floating-point errors as ``np.errstate`` says."""
        panel = self._array_panel
        if panel is None:
            panel = compile_panel(self.integrand, LAMBDA, self.arg_names,
                                  RULE, table="numpy")
            object.__setattr__(self, "_array_panel", panel)
        k, _, err = panel(*values, 0.0, 1.0)
        shape = np.broadcast_shapes(*map(np.shape, values))
        out = np.array(np.broadcast_to(k, shape), dtype=float)
        flat, cols = out.reshape(-1), [np.ravel(v) for v in values]
        redo = np.flatnonzero(unsettled(err, out))
        if redo.size and quadrature.MAX_SUBDIVISIONS >= 1:
            err = np.broadcast_to(err, shape).reshape(-1)[redo]
            total, total_err = quadrature.bisected(
                partial(panel, *(c[redo] for c in cols)), 0.0, 1.0,
                flat[redo], err)
            flat[redo] = total
            redo = redo[unsettled(total_err, total)]
        for n in redo:
            flat[n] = self.at(*(c[n] for c in cols))
        return out

    def diff(self, var):
        raise NonDifferentiableError(
            "deferred integral entries cannot be differentiated")


# ---------------------------------------------------------------------------
# Jacobians and the integration line
# ---------------------------------------------------------------------------

def jacobian(fvec: Sequence[Expr], wrt: Sequence[str]) -> MatrixFunction:
    """Matrix of partial derivatives, entry (i,j) = d fvec[i] / d wrt[j].

    Only variables in an equation's own footprint (``free_vars()``) are
    differentiated and stored; every other entry is a structural zero.
    """
    col = {v: j for j, v in enumerate(wrt)}
    return MatrixFunction((len(fvec), len(wrt)), {
        (i, j): e.diff(wrt[j]) for i, e in enumerate(fvec)
        for j in sorted(col[v] for v in e.free_vars() if v in col)})


def line_substitute(e: Expr, anchor: Anchor) -> Expr:
    """Place ``e`` on the integration line z_bar + lam*(z - z_bar).

    With the origin anchor every variable v becomes lam*v; generally v
    becomes v_bar + lam*(v - v_bar).  ``e`` must not already use the
    integration variable.  Only the variables ``e`` uses are mapped.
    """
    footprint = e.free_vars()
    if LAMBDA in footprint:
        raise ModelError(f"'{LAMBDA}' is reserved for the integration variable")
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
            mapping[name] = mul(_LAM, v)
        else:
            c = Const(ref)
            mapping[name] = add(c, mul(_LAM, add(v, neg(c))))
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
    if c is None or len(c) != 2 or c[0] != ZERO or c[1] == ZERO:
        return None
    return c[1]


def integrate_analytic(e: Expr) -> Expr | None:
    """Symbolic integral of ``e`` over lam in [0, 1], or None.

    The rule table covers lam-free expressions, polynomials in lam,
    sin/cos/exp of lam times a lam-free argument (producing the
    removable-singularity primitives cosm1c, sinc, expm1c), real powers
    lam^c with c > 0, lam-free multiplicative coefficients on any of
    these, division by lam-free denominators, and linearity over sums.
    None means the table does not apply and the caller should fall back
    to quadrature; it is an expected value, not a failure.  ``e`` is a
    tree built by the parser or the constructors, as is the result.
    """
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
        return add(*(div(c, Const(k + 1.0)) for k, c in enumerate(coeffs)))

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
        return mul(*const_part, r)

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


# ---------------------------------------------------------------------------
# matrix functions and the factorized system
# ---------------------------------------------------------------------------

@dataclass
class MatrixFunction:
    """One factor matrix of expressions in (x, u); no evaluator.  ``nonzeros``
    maps (i, j) to an entry, in row-major order; every other entry is ZERO."""

    shape: tuple[int, int]
    nonzeros: Mapping[tuple[int, int], Expr]

    @property
    def entries(self) -> tuple[tuple[Expr, ...], ...]:
        """The dense grid, ``ZERO`` off the nonzeros, built on each call."""
        get = self.nonzeros.get
        return tuple(tuple(get((i, j), ZERO) for j in range(self.shape[1]))
                     for i in range(self.shape[0]))

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


def _integrate_entry(integrand: Expr, mode: str, tag: str, i: int, j: int,
                     warnings: list[str]) -> Expr:
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


def _sums_from_zero(e: Expr) -> Expr:
    """``e`` with a trailing ZERO in every sum, through the node classes
    (``add`` folds it away)."""
    kids = tuple(map(_sums_from_zero, e.children()))
    if isinstance(e, (Add, Mul)):
        return type(e)(kids + (ZERO,) if isinstance(e, Add) else kids)
    if isinstance(e, Call):
        return Call(e.fn, *kids)
    return type(e)(*kids) if kids else e  # Div, Pow; leaves as they are


def _offsets(exprs: Sequence[Expr], tag: str,
             at: Mapping[str, float]) -> np.ndarray:
    """The equations' values at the anchor; a failing one raises EntryError.

    Each sum ends in ``+ 0.0``, so that a sum of -0.0 terms is stored as
    0.0: (t0 + ... + tn) + 0.0 equals 0.0 + t0 + ... + tn for every double.
    """
    exprs = [_sums_from_zero(e) for e in exprs]
    try:
        return np.array(compile_vector(exprs, tuple(at), tag)(*at.values()))
    except EntryError as exc:
        raise exc.at("the anchor", at, at.values()) from exc


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
        blocks[tag] = MatrixFunction(jac.shape, {
            (i, j): _integrate_entry(line_substitute(d, anchor),
                                     mode, tag, i, j, warnings)
            for (i, j), d in jac.nonzeros.items()})

    V = _offsets(model.f, "f", at)
    W = _offsets(model.h, "h", at)
    return FactorizedSystem(model, anchor,
                            blocks["A"], blocks["B"], blocks["C"], blocks["D"],
                            V, W, tuple(warnings))
