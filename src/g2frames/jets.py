"""Forward-mode jet arithmetic: truncated multivariate Taylor polynomials.

A jet carries the value of a scalar quantity together with all of its
partial derivatives up to a fixed order (at most 3) at one point.  All
differentiation in this package runs through jet arithmetic; central finite
differences survive only as a test oracle (see ``fd_partial``).

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
    """Truncated Taylor expansion of a scalar quantity at a point."""

    __slots__ = ("table", "coef")

    def __init__(self, tab: JetTable, coef: np.ndarray):
        self.table = tab
        self.coef = coef

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(value: float, nvars: int, order: int) -> "Jet":
        tab = table(nvars, order)
        coef = np.zeros(tab.size)
        coef[0] = value
        return Jet(tab, coef)

    @staticmethod
    def variable(value: float, index: int, nvars: int, order: int) -> "Jet":
        tab = table(nvars, order)
        coef = np.zeros(tab.size)
        coef[0] = value
        if order >= 1:
            coef[tab.unit_pos[index]] = 1.0
        return Jet(tab, coef)

    # -- basic queries -------------------------------------------------
    @property
    def value(self) -> float:
        return float(self.coef[0])

    @property
    def order(self) -> int:
        return self.table.order

    @property
    def nvars(self) -> int:
        return self.table.nvars

    def partial(self, v: int) -> float:
        """First-order partial derivative with respect to variable ``v``."""
        if self.order < 1:
            raise JetOrderError(1)
        return float(self.coef[self.table.unit_pos[v]])

    def derivative(self, v: int) -> "Jet":
        """Jet of the partial derivative; one order lower."""
        if self.order < 1:
            raise JetOrderError(1)
        src, dst, fac = self.table.deriv_maps()[v]
        lower = table(self.nvars, self.order - 1)
        coef = np.zeros(lower.size)
        coef[dst] = self.coef[src] * fac
        return Jet(lower, coef)

    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise JetOrderError(order)
        tab = table(self.nvars, order)
        return Jet(tab, self.coef[: tab.size].copy())

    def embed(self, dst_nvars: int, positions: tuple) -> "Jet":
        """Reinterpret as a jet in more variables; ``positions[v]`` is the
        destination slot of source variable ``v``."""
        idx = _embed_index(self.nvars, self.order, dst_nvars, tuple(positions))
        dst = table(dst_nvars, self.order)
        coef = np.zeros(dst.size)
        coef[idx] = self.coef
        return Jet(dst, coef)

    # -- ring operations ----------------------------------------------
    def _lift(self, other):
        if isinstance(other, Jet):
            if other.table is not self.table:
                raise ValueError("jets from different tables")
            return other
        if not isinstance(other, (int, float, np.integer, np.floating)):
            return None
        return Jet.constant(float(other), self.nvars, self.order)

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
            if not isinstance(other, (int, float, np.integer, np.floating)):
                return NotImplemented
            return Jet(self.table, self.coef * float(other))
        if other.table is not self.table:
            raise ValueError("jets from different tables")
        tab = self.table
        prod = self.coef[tab.mul_i] * other.coef[tab.mul_j]
        return Jet(tab, np.bincount(tab.mul_k, prod, tab.size))

    def __rmul__(self, other):
        return Jet(self.table, self.coef * float(other))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.table, self.coef / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

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
        ``[f(v), f'(v), ...]`` at ``v = self.value``."""
        u = Jet(self.table, self.coef.copy())
        u.coef[0] = 0.0
        out = Jet.constant(derivs[0], self.nvars, self.order)
        term = None
        for k in range(1, min(len(derivs), self.order + 1)):
            term = u if term is None else term * u
            out = out + term * (derivs[k] / math.factorial(k))
        return out

    def reciprocal(self) -> "Jet":
        v = self.value
        if v == 0.0:
            raise ZeroDivisionError("jet with zero value")
        return self.compose(_inverse_powers("reciprocal", v, self.order + 1))

    def power(self, p: float) -> "Jet":
        """self**p; a power of the value that overflows raises an
        OverflowError naming the power and v."""
        v = self.value
        k = 0
        try:
            ders = [v**p]
            c = p
            for k in range(1, self.order + 1):
                ders.append(c * v ** (p - k))
                c *= p - k
        except OverflowError:
            raise OverflowError(f"jet power {p:g} at v = {v!r}: v**{p - k:g} overflows") from None
        return self.compose(ders)

    def sqrt(self) -> "Jet":
        if self.value <= 0.0:
            raise ValueError("jet sqrt of non-positive value")
        return self.power(0.5)

    def exp(self) -> "Jet":
        e = math.exp(self.value)
        return self.compose([e] * (self.order + 1))

    def log(self) -> "Jet":
        v = self.value
        return self.compose([math.log(v)] + _inverse_powers("log", v, self.order))

    def sin(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        return self.compose([s, c, -s, -c][: self.order + 1])

    def cos(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        return self.compose([c, -s, -c, s][: self.order + 1])

    def __repr__(self):
        return f"Jet(n={self.nvars}, order={self.order}, value={self.value:.6g})"


class JetBatch:
    """Order-0 jets of one quantity at many points, held as one array of values.

    Sums and products with constants or batches and the analytic functions
    of the profile families act elementwise, so a profile's ``lam_fn``
    evaluates a whole grid of radii in one call.  Each analytic function
    calls the same libm routine per value as ``Jet`` does: numpy's SIMD
    ``power`` and ``exp`` round differently from libm on a few percent of
    inputs, and a batch value must equal the scalar jet's bit for bit.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    @staticmethod
    def _lift(other):
        return other.value if isinstance(other, JetBatch) else float(other)

    def __add__(self, other):
        return JetBatch(self.value + self._lift(other))

    def __mul__(self, other):
        return JetBatch(self.value * self._lift(other))

    __radd__, __rmul__ = __add__, __mul__

    def power(self, p: float) -> "JetBatch":
        # an object array runs Python's float pow, which is libm pow
        return JetBatch(np.power(self.value.astype(object), p).astype(float))

    def sqrt(self) -> "JetBatch":
        if np.any(self.value <= 0.0):
            raise ValueError("jet sqrt of non-positive value")
        return self.power(0.5)

    def exp(self) -> "JetBatch":
        return JetBatch(np.fromiter(map(math.exp, self.value.tolist()), float, self.value.size))

    def sin(self) -> "JetBatch":
        return JetBatch(np.fromiter(map(math.sin, self.value.tolist()), float, self.value.size))


def _inverse_powers(name: str, v: float, count: int) -> list:
    """The first ``count`` of 1/v, -1/v**2, 2/v**3, -6/v**4; a power of v that
    is 0 raises a ZeroDivisionError naming v and the term."""
    out = []
    for c, p in ((1.0, 1), (-1.0, 2), (2.0, 3), (-6.0, 4))[:count]:
        if v**p == 0.0:
            raise ZeroDivisionError(f"jet {name} at v = {v!r}: v**{p} is 0 in the term {c:g}/v**{p}")
        out.append(c / v**p)
    return out


def variables(point, order: int):
    """Seed jets for the coordinates of ``point``."""
    n = len(point)
    return tuple(Jet.variable(float(x), i, n, order) for i, x in enumerate(point))


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
