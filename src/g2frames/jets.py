"""Forward-mode jet arithmetic: truncated multivariate Taylor polynomials.

A jet carries the value of a scalar quantity together with all of its
partial derivatives up to a fixed order (at most 3) at one point, or at each
point of a chunk.  All differentiation in this package runs through jet
arithmetic; central finite differences survive only as a test oracle (see
``fd_partial``).

Coefficients are stored in Taylor normalization, i.e. ``coef[alpha]`` is
``d^alpha f / alpha!``, so products are plain truncated polynomial products.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 3


class JetOrderError(ValueError):
    """Raised when a jet of unsupported differentiation order is requested."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(f"jet order {order} unavailable (supported: 0..{MAX_ORDER})")


class JetDomainError(ValueError, ArithmeticError):
    """Raised when a jet function is taken at a value outside its domain."""


class JetTable:
    """Monomial bookkeeping shared by all jets of a given (nvars, order)."""

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        exps = []
        for total in range(order + 1):
            exps.extend(sorted(_exponents(nvars, total)))
        self.exps = tuple(exps)
        self.pos = {e: i for i, e in enumerate(self.exps)}
        self.size = len(self.exps)
        degrees = np.array([sum(e) for e in self.exps])
        # positions of the n first-order monomials, in variable order
        self.unit_pos = np.array(
            [self.pos[tuple(int(i == v) for i in range(nvars))] for v in range(nvars)]
            if order >= 1
            else [],
            dtype=np.intp,
        )
        ii, jj, kk = [], [], []
        for i, a in enumerate(self.exps):
            for j, b in enumerate(self.exps):
                if degrees[i] + degrees[j] <= order:
                    ii.append(i)
                    jj.append(j)
                    kk.append(self.pos[tuple(x + y for x, y in zip(a, b))])
        self.mul_i = np.array(ii, dtype=np.intp)
        self.mul_j = np.array(jj, dtype=np.intp)
        self.mul_k = np.array(kk, dtype=np.intp)
        self._deriv = None

    def deriv_maps(self):
        """Per-variable (src, dst, factor) arrays mapping into order-1 table."""
        if self._deriv is None:
            lower = table(self.nvars, self.order - 1)
            maps = []
            for v in range(self.nvars):
                src, dst, fac = [], [], []
                for i, a in enumerate(self.exps):
                    if a[v] > 0:
                        b = tuple(x - int(u == v) for u, x in enumerate(a))
                        src.append(i)
                        dst.append(lower.pos[b])
                        fac.append(float(a[v]))
                maps.append(
                    (
                        np.array(src, dtype=np.intp),
                        np.array(dst, dtype=np.intp),
                        np.array(fac),
                    )
                )
            self._deriv = maps
        return self._deriv


def _exponents(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(nvars - 1, total - head):
            yield (head,) + rest


@lru_cache(maxsize=None)
def table(nvars: int, order: int) -> JetTable:
    if not 0 <= order <= MAX_ORDER:
        raise JetOrderError(order)
    return JetTable(nvars, order)


@lru_cache(maxsize=None)
def _embed_index(src_nvars, order, dst_nvars, positions):
    src = table(src_nvars, order)
    dst = table(dst_nvars, order)
    idx = np.empty(src.size, dtype=np.intp)
    for i, a in enumerate(src.exps):
        b = [0] * dst_nvars
        for v, e in enumerate(a):
            b[positions[v]] = e
        idx[i] = dst.pos[tuple(b)]
    return idx


class Jet:
    """Truncated Taylor expansion of a scalar quantity at a point; on a chunk
    of points ``coef`` has a leading probe axis, and every operation acts on
    each probe as on one jet, bit for bit: products through ``stacked_bincount``,
    powers and analytic functions through libm per value."""

    __slots__ = ("table", "coef")
    # an array of per-probe scalars times a jet defers to Jet.__rmul__
    __array_ufunc__ = None

    def __init__(self, tab: JetTable, coef: np.ndarray):
        self.table = tab
        self.coef = coef

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(value, nvars: int, order: int) -> "Jet":
        tab = table(nvars, order)
        coef = np.zeros(getattr(value, "shape", ()) + (tab.size,))
        coef[..., 0] = value
        return Jet(tab, coef)

    @staticmethod
    def variable(value, index: int, nvars: int, order: int) -> "Jet":
        out = Jet.constant(value, nvars, order)
        if order >= 1:
            out.coef[..., out.table.unit_pos[index]] = 1.0
        return out

    # -- basic queries -------------------------------------------------
    @property
    def value(self):
        """The value: a float, or an array over the probes of a chunk."""
        return _out(self.coef[..., 0])

    @property
    def order(self) -> int:
        return self.table.order

    @property
    def nvars(self) -> int:
        return self.table.nvars

    def partial(self, v: int):
        """First-order partial derivative with respect to variable ``v``."""
        if self.order < 1:
            raise JetOrderError(1)
        return _out(self.coef[..., self.table.unit_pos[v]])

    def derivative(self, v: int) -> "Jet":
        """Jet of the partial derivative; one order lower."""
        if self.order < 1:
            raise JetOrderError(1)
        src, dst, fac = self.table.deriv_maps()[v]
        lower = table(self.nvars, self.order - 1)
        coef = np.zeros(self.coef.shape[:-1] + (lower.size,))
        coef[..., dst] = self.coef[..., src] * fac
        return Jet(lower, coef)

    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise JetOrderError(order)
        tab = table(self.nvars, order)
        return Jet(tab, self.coef[..., : tab.size].copy())

    # -- ring operations ----------------------------------------------
    def _lift(self, other):
        if isinstance(other, Jet):
            if other.table is not self.table:
                raise ValueError("jets from different tables")
            return other
        if not isinstance(other, (int, float, np.integer, np.floating, np.ndarray)):
            return None
        return Jet.constant(_scalar(other), self.nvars, self.order)

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Jet(self.table, self.coef + other.coef)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.table, -self.coef)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Jet(self.table, self.coef - other.coef)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if not isinstance(other, (int, float, np.integer, np.floating, np.ndarray)):
                return NotImplemented
            return Jet(self.table, self.coef * _scalar(other, 1))
        if other.table is not self.table:
            raise ValueError("jets from different tables")
        tab = self.table
        prod = self.coef.take(tab.mul_i, -1) * other.coef.take(tab.mul_j, -1)
        return Jet(tab, stacked_bincount(tab.mul_k, prod, tab.size))

    def __rmul__(self, other):
        return Jet(self.table, self.coef * _scalar(other, 1))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.table, self.coef / _scalar(other, 1))

    def __rtruediv__(self, other):
        return self.reciprocal() * _scalar(other)

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet.constant(1.0, self.nvars, self.order)
            for _ in range(p):
                out = out * self
            return out
        return self.power(float(p))

    # -- analytic functions --------------------------------------------
    def compose(self, derivs) -> "Jet":
        """Apply a univariate analytic function given its derivatives
        ``[f(v), f'(v), ...]`` at ``v = self.value`` (floats, or arrays over
        the probes)."""
        u = Jet(self.table, self.coef.copy())
        u.coef[..., 0] = 0.0
        out = Jet.constant(derivs[0], self.nvars, self.order)
        term = None
        for k in range(1, min(len(derivs), self.order + 1)):
            term = u if term is None else term * u
            out = out + term * (derivs[k] / math.factorial(k))
        return out

    def reciprocal(self) -> "Jet":
        if (self.coef[..., 0] == 0.0).any():
            raise ZeroDivisionError("jet with zero value")
        return self.compose(_derivs(_inverse_powers, self.value, "reciprocal", self.order + 1))

    def power(self, p: float) -> "Jet":
        """self**p; a power of the value that overflows raises an
        OverflowError naming the power and v."""
        return self.compose(_derivs(_power_derivs, self.value, p, self.order))

    def sqrt(self) -> "Jet":
        v = np.ravel(self.coef[..., 0])
        if (v <= 0.0).any():
            raise JetDomainError(f"jet sqrt of non-positive value {float(v[v <= 0.0][0])!r}")
        return self.power(0.5)

    def exp(self) -> "Jet":
        return self.compose([libm(math.exp, self.value)] * (self.order + 1))

    def log(self) -> "Jet":
        v = self.value
        return self.compose([libm(math.log, v)] + _derivs(_inverse_powers, v, "log", self.order))

    def sin(self) -> "Jet":
        s, c = libm(math.sin, self.value), libm(math.cos, self.value)
        return self.compose([s, c, -s, -c][: self.order + 1])

    def cos(self) -> "Jet":
        s, c = libm(math.sin, self.value), libm(math.cos, self.value)
        return self.compose([c, -s, -c, s][: self.order + 1])

    def __repr__(self):
        return f"Jet(n={self.nvars}, order={self.order}, value={self.value})"


def _out(x):
    """A float for a value without a probe axis, else the array."""
    return float(x) if getattr(x, "ndim", 0) == 0 else x


def _scalar(c, tail: int = 0):
    """A float, or per-probe factors with ``tail`` trailing axes added."""
    if isinstance(c, np.ndarray):
        return np.asarray(c, dtype=float).reshape(c.shape + (1,) * tail)
    return float(c)


def libm(fn, v, *args):
    """``fn(v, *args)`` (``pow`` or a ``math`` routine) at a float or at each
    value of an array, through libm: numpy's SIMD ``power`` and ``exp`` round
    differently on a few percent of inputs."""
    if getattr(v, "ndim", 0) == 0:
        return fn(float(v), *args)
    return np.frompyfunc(fn, 1 + len(args), 1)(v.astype(object), *args).astype(float)


def _derivs(fn, v, *args) -> list:
    """``fn(v, *args)``, a list of derivatives at a float or at an array of
    values.  An ArithmeticError at an array is raised again as ``fn`` raises
    it at the first failing value alone, so its message names that value."""
    if getattr(v, "ndim", 0) == 0:
        return fn(float(v), *args)
    try:
        return fn(v, *args)
    except ArithmeticError:
        for x in v.ravel().tolist():
            fn(x, *args)
        raise


def _power_derivs(v, p: float, order: int) -> list:
    """v**p and its first ``order`` derivatives in v; a power that overflows
    raises an OverflowError naming it."""
    k = 0
    try:
        ders = [libm(pow, v, p)]
        c = p
        for k in range(1, order + 1):
            ders.append(c * libm(pow, v, p - k))
            c *= p - k
    except OverflowError:
        raise OverflowError(f"jet power {p:g} at v = {v!r}: v**{p - k:g} overflows") from None
    return ders


def stacked_bincount(dst, terms, size: int) -> np.ndarray:
    """``np.bincount(dst, terms, size)`` for every stack on the leading axes of
    ``terms`` in one call, its bins offset by the flat stack index (formed per
    call): each bin adds its terms in the same order as an unstacked call.
    Always float64: ``np.bincount`` with no terms returns integers, even with
    weights.  (``exterior._wedge_stack`` runs the same bincount in blocks, its
    offsets formed once per call.)"""
    lead = terms.shape[:-1]
    count = math.prod(lead)
    if count != 1:
        dst = np.add.outer(np.arange(count) * size, dst).ravel()
    return np.bincount(dst, terms.ravel(), count * size).astype(float, copy=False).reshape(lead + (size,))


def _inverse_powers(v, name: str, count: int) -> list:
    """The first ``count`` of 1/v, -1/v**2, 2/v**3, -6/v**4; a power of v that
    is 0 raises a ZeroDivisionError, one that overflows an OverflowError,
    naming v and the power."""
    out = []
    for c, p in ((1.0, 1), (-1.0, 2), (2.0, 3), (-6.0, 4))[:count]:
        try:
            vp = libm(pow, v, p)
        except OverflowError:
            raise OverflowError(f"jet {name} at v = {v!r}: v**{p} overflows") from None
        if np.any(vp == 0.0):
            raise ZeroDivisionError(f"jet {name} at v = {v!r}: v**{p} is 0 in the term {c:g}/v**{p}")
        out.append(c / vp)
    return out


def variables(point, order: int):
    """Seed jets for the coordinates of ``point``, or of each row of a chunk
    of points (one jet per coordinate, with a leading probe axis)."""
    pts = np.asarray(point, dtype=float)
    n = pts.shape[-1]
    return tuple(Jet.variable(pts[..., i], i, n, order) for i in range(n))


def fd_partial(f, point, v: int, h: float = 1e-5) -> float:
    """Central-difference first partial; cross-check oracle for jets."""
    p = np.asarray(point, dtype=float)
    up, dn = p.copy(), p.copy()
    up[v] += h
    dn[v] -= h
    return (f(up) - f(dn)) / (2 * h)


def fd_second(f, point, v: int, w: int, h: float = 1e-4) -> float:
    """Central-difference second partial d^2 f / dx_v dx_w."""
    p = np.asarray(point, dtype=float)

    def shift(dv, dw):
        q = p.copy()
        q[v] += dv
        q[w] += dw
        return f(q)

    if v == w:
        return (shift(h, 0) - 2 * f(p) + shift(-h, 0)) / h**2
    return (shift(h, h) - shift(h, -h) - shift(-h, h) + shift(-h, -h)) / (4 * h**2)
