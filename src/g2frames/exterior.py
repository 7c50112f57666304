"""Dense exterior algebra on small oriented inner-product spaces (n <= 8).

One form class over one set of combinatorial tables:

* ``JetForm`` -- a form whose coefficients are jets at one point: a dense
  ``(C(n, k), jet size)`` array whose wedge and exterior derivative are one
  gather over the tables below and one ``np.bincount`` (its ``d_value`` is
  the exterior derivative at the point).  A form with float coefficients is
  the order-0 case, on the one-column jet table ``VALUE``; ``Multivector``
  is its name for them.  The linear structure and the metric operations
  (Hodge star, inner and interior product, change of basis by the minors of
  ``compounds``, from the wedge kernel) live once, on ``JetForm``.

``MatrixForm`` is a matrix of forms of one kind held as one array; its
product ``@`` runs one stacked wedge kernel call per inner index over all
entries at once, its ``d_jets`` one stacked derivative kernel call, and
``contract`` one wedge kernel call per linear combination.  ``zero_forms``
holds a matrix of jets as a matrix of 0-forms.

Basis labels are the opaque integers 1..n.  Multi-indices are strictly
increasing tuples of labels; permutation signs are normalized once at
canonicalization.  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .jets import Jet, JetOrderError, _out, _scalar, stacked_bincount, variables
from .jets import table as jet_table

MAX_DIM = 8
# terms per block of a stacked wedge: peak RSS after one x-sweep round of
# 16-probe chunks, 41.0 MB blocked, 42.5 MB unblocked, 39.4 MB probe by probe
MAX_TERMS = 8192
# the jet table of float forms: one column, the value
VALUE = jet_table(1, 0)


class DimensionMismatch(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


# ----------------------------------------------------------------------
# combinatorial tables


@lru_cache(maxsize=None)
def combos(n: int, k: int):
    """Strictly increasing multi-indices of length k over labels 1..n."""
    return tuple(itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def combo_pos(n: int, k: int):
    return {c: i for i, c in enumerate(combos(n, k))}


@lru_cache(maxsize=None)
def _label_array(n: int, k: int):
    """0-based label indices of each multi-index, shape (C, k)."""
    cs = combos(n, k)
    if not cs:
        return np.zeros((0, k), dtype=np.intp)
    return np.array(cs, dtype=np.intp) - 1


@lru_cache(maxsize=None)
def merge_sign(a, b):
    """Sign and sorted union of two disjoint increasing multi-indices."""
    inv = 0
    for x in a:
        for y in b:
            if y < x:
                inv += 1
    return (-1) ** inv, tuple(sorted(a + b))


@lru_cache(maxsize=None)
def _hodge_table(n: int, k: int):
    """Complement position and sign of e^I -> e^{I^c} for each I."""
    cs = combos(n, k)
    full = tuple(range(1, n + 1))
    comp_pos = np.zeros(len(cs), dtype=np.intp)
    sign = np.zeros(len(cs), dtype=np.int8)
    pos = combo_pos(n, n - k)
    for i, a in enumerate(cs):
        comp = tuple(x for x in full if x not in a)
        s, _ = merge_sign(a, comp)
        comp_pos[i] = pos[comp]
        sign[i] = s
    return sign, comp_pos


@lru_cache(maxsize=None)
def _interior_table(n: int, k: int):
    """Flat (src, label, sign, dst) arrays for contraction by basis vectors."""
    src, lab, sgn, dst = [], [], [], []
    pos = combo_pos(n, k - 1)
    for i, a in enumerate(combos(n, k)):
        for slot, x in enumerate(a):
            src.append(i)
            lab.append(x - 1)
            sgn.append((-1) ** slot)
            dst.append(pos[a[:slot] + a[slot + 1 :]])
    return (
        np.array(src, dtype=np.intp),
        np.array(lab, dtype=np.intp),
        np.array(sgn, dtype=np.int8),
        np.array(dst, dtype=np.intp),
    )


def _canonical(idx):
    """Sort a multi-index, returning (sign, sorted) or (0, None) on repeats."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return 0, None
    perm = sorted(range(len(idx)), key=lambda i: idx[i])
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return (-1) ** inv, tuple(sorted(idx))


# ----------------------------------------------------------------------
# the shared kernels


def _scatter(n: int, k: int, terms, tail=()) -> np.ndarray:
    """Dense coefficient rows from ``(multi-index, value)`` pairs; each index
    is normalized by ``_canonical`` and each value is a float or an array of
    shape ``tail``."""
    coef = np.zeros((len(combos(n, k)),) + tail)
    pos = combo_pos(n, k)
    for idx, val in terms:
        s, key = _canonical(idx)
        if s:
            coef[pos[key]] += s * val
    return coef


@lru_cache(maxsize=None)
def _jet_wedge_index(n: int, j: int, k: int, nvars: int, order: int):
    """Flat (src_a, src_b, dst) arrays of the wedge of a j-form and a k-form,
    and the flattened output size: the disjoint pairs of multi-indices crossed
    with the product terms of the jet table ``(nvars, order)``.  The sign
    rides b's gather: ``src_b`` points into b's flattened row followed by that
    row negated, and a * (-b) is -(a * b) exactly."""
    tab = jet_table(nvars, order)
    pos = combo_pos(n, j + k)
    width = len(combos(n, k)) * tab.size  # where the negated row starts
    ia, ib, target = [], [], []
    for x, a in enumerate(combos(n, j)):
        for y, b in enumerate(combos(n, k)):
            if set(a).isdisjoint(b):
                s, merged = merge_sign(a, b)
                ia.append(x)
                ib.append(y * tab.size + (width if s < 0 else 0))
                target.append(pos[merged])
    ia, ib, target = (np.array(v, dtype=np.intp)[:, None] for v in (ia, ib, target))
    src_a = (ia * tab.size + tab.mul_i).ravel()
    src_b = (ib + tab.mul_j).ravel()
    dst = (target * tab.size + tab.mul_k).ravel()
    return src_a, src_b, dst, len(pos) * tab.size


@lru_cache(maxsize=None)
def _jet_d_index(n: int, k: int, nvars: int, order: int):
    """Flat (src, weight, low, dst, size) tables of the jet-form exterior
    derivative d(w)[J] = sum over x in J of sgn * (d/dx) w[J - x]:
    ``_interior_table(n, k + 1)`` crossed with ``deriv_maps``; ``low`` is the
    lower jet table and ``size`` the flattened output size."""
    tab, low = jet_table(nvars, order), jet_table(nvars, order - 1)
    outer, lab, sgn, inner = _interior_table(n, k + 1)
    src, dst, w = [], [], []
    for v, (d_src, d_dst, fac) in enumerate(tab.deriv_maps()):
        sel = lab == v
        src.append((inner[sel, None] * tab.size + d_src).ravel())
        dst.append((outer[sel, None] * low.size + d_dst).ravel())
        w.append((sgn[sel, None] * fac).ravel())
    size = len(combos(n, k + 1)) * low.size
    return np.concatenate(src), np.concatenate(w), low, np.concatenate(dst), size


def _wedge_stack(a, b, ca, cb):
    """Wedges of stacked forms of the kinds of ``a`` and ``b``: ``ca`` and
    ``cb`` hold flattened coefficient rows on leading axes (stacks, probes)
    that broadcast against each other.  The stacks run in blocks of at most
    ``MAX_TERMS`` terms (one block for a small stack).  Each term is two
    gathers over ``_jet_wedge_index`` (b's row followed by its negation, so
    the sign rides the gather), one multiply in place and one ``np.bincount``
    whose bins are offset by the stack index; the offsets are formed once per
    call and sliced for a short last block.  Each bin adds the terms of one
    unstacked wedge in the same order, from 0.0.  Returns the coefficients,
    of shape ``lead + (C(n, j + k), table.size)``."""
    if a.n != b.n:
        raise DimensionMismatch("different ambient dimensions")
    if a.table is not b.table:
        raise ValueError("jets from different tables")
    src_a, src_b, dst, size = _jet_wedge_index(a.n, a.k, b.k, a.table.nvars, a.table.order)
    lead = ca.shape[:-1] if ca.shape[:-1] == cb.shape[:-1] else np.broadcast_shapes(ca.shape[:-1], cb.shape[:-1])
    count = math.prod(lead)
    cb = np.concatenate([cb, -cb], axis=-1)
    ca, cb = (c if c.shape[:-1] == lead else np.broadcast_to(c, lead + c.shape[-1:]) for c in (ca, cb))
    ca, cb = ca.reshape(count, ca.shape[-1]), cb.reshape(count, cb.shape[-1])
    step = MAX_TERMS // max(len(src_a), 1) or 1
    bins = np.add.outer(np.arange(min(step, count)) * size, dst)
    out = np.empty((count, size))
    for s in range(0, count, step):
        prod = ca[s : s + step].take(src_a, axis=-1)
        np.multiply(prod, cb[s : s + step].take(src_b, axis=-1), out=prod)
        rows = len(prod)
        out[s : s + step] = np.bincount(bins[:rows].ravel(), prod.ravel(), rows * size).reshape(rows, size)
    # C(n, j + k) spelled out, since an empty stack cannot infer it
    return out.reshape(lead + (size // a.table.size, a.table.size))


def _d_stack(a, ca):
    """Exterior derivatives of stacked jet forms of the kind of ``a``, the twin
    of ``_wedge_stack``: ``ca`` holds flattened coefficient rows on leading
    axes.  Returns the coefficients, of shape ``lead + (C(n, k + 1),
    low.size)``, and the lower jet table ``low``."""
    if a.table.order < 1:
        raise JetOrderError(1)
    src, w, low, dst, size = _jet_d_index(a.n, a.k, a.table.nvars, a.table.order)
    terms = ca.take(src, axis=-1) * w
    return stacked_bincount(dst, terms, size).reshape(terms.shape[:-1] + (-1, low.size)), low


def compounds(p, k: int) -> list:
    """Compound matrices of the rows of ``p`` (m x n) in degrees 0..k:
    entry (I, J) of degree j is the minor det p[I, J].  Row I of degree j + 1
    is row I[:-1] of degree j wedged with row I[-1] of ``p`` (the last-slot
    entries of ``_interior_table``): one wedge kernel call per degree, on
    value forms.  A stack of matrices ``p`` gives stacks of compounds, run in
    blocks of about ``MAX_TERMS`` gathered entries, so no gather grows with it."""
    p = np.asarray(p, dtype=float)
    m, n = p.shape[-2:]
    flat = p.reshape((-1, m, n))
    out = [np.ones((len(flat), 1, 1))]
    for j in range(k):
        _, lab, _, dst = _interior_table(m, j + 1)
        rows, labels = dst[j :: j + 1], lab[j :: j + 1]  # the last-slot entries
        a, b = JetForm._of(n, j, VALUE, None), JetForm._of(n, 1, VALUE, None)
        out.append(np.empty((len(flat), len(rows), math.comb(n, j + 1))))
        step = MAX_TERMS // max(len(rows) * out[j].shape[-1], 1) or 1
        for s in range(0, len(flat), step):
            out[-1][s : s + step] = _wedge_stack(a, b, out[j][s : s + step, rows], flat[s : s + step, labels])[..., 0]
    return [c.reshape(p.shape[:-2] + c.shape[1:]) for c in out]


def _inverse_weights(g, k: int):
    """prod 1/g[i] over the labels of each k-index, for a diagonal metric ``g``
    (or one per probe)."""
    return np.prod(1.0 / g[..., _label_array(g.shape[-1], k)], axis=-1) if k else np.ones(1)


# ----------------------------------------------------------------------
# forms


class JetForm:
    """Degree-k form over basis labels 1..n whose coefficients are jets at one
    point, in the jet table ``table``.

    ``coef`` has shape ``(C(n, k), table.size)``, with a leading probe axis
    on a chunk: row ``I`` holds the jet of the ``e^I`` coefficient.  A float
    form is the order-0 case, on the one-column table ``VALUE``.
    ``JetForm(n, k, values)`` builds a float form from its coefficients over
    ``combos(n, k)``, ``JetForm(n, k, {idx: jet})`` a jet form from its
    components, and ``JetForm(n, k, table=table)`` a zero form on ``table``.

    The linear maps (``+``, ``-``, scaling, ``hodge``, ``interior``,
    ``transform``) act on every jet column; ``coeff``, ``terms``,
    ``evaluate``, ``inner`` and ``gnorm`` read the values at the point.
    """

    __slots__ = ("n", "k", "table", "coef")
    # an array of per-probe scalars times a form defers to JetForm.__rmul__
    __array_ufunc__ = None

    def __init__(self, n: int, k: int, coef=None, table=None):
        if n > MAX_DIM:
            raise DimensionMismatch(f"dimension {n} exceeds {MAX_DIM}")
        size = len(combos(n, k)) if 0 <= k <= n else 0
        if isinstance(coef, dict):
            table = next(iter(coef.values())).table if coef else table
            coef = _scatter(n, k, ((idx, jet.coef) for idx, jet in coef.items()), (table.size,))
        elif coef is None:
            table = VALUE if table is None else table
            coef = np.zeros((size, table.size))
        else:
            coef = np.asarray(coef, dtype=float)
            if coef.shape[-1:] != (size,):
                raise DimensionMismatch("coefficient vector of wrong size")
            coef, table = coef[..., None], VALUE
        self.n, self.k, self.table, self.coef = n, k, table, coef

    @staticmethod
    def _of(n: int, k: int, table, coef: np.ndarray) -> "JetForm":
        out = JetForm.__new__(JetForm)
        out.n, out.k, out.table, out.coef = n, k, table, coef
        return out

    def _new(self, k, coef):
        return JetForm._of(self.n, k, self.table, coef)

    @staticmethod
    def scalar(n: int, value: float) -> "JetForm":
        return JetForm(n, 0, [float(value)])

    @staticmethod
    def basis(n: int, idx) -> "JetForm":
        return JetForm.from_terms(n, len(tuple(idx)), {tuple(idx): 1.0})

    @staticmethod
    def from_terms(n: int, k: int, terms: dict) -> "JetForm":
        return JetForm(n, k, _scatter(n, k, terms.items()))

    @property
    def probes(self) -> tuple:  # () or (count,)
        return self.coef.shape[:-2]

    @staticmethod
    def _rows(coef):
        """Forms on any leading axes, each flattened to one row."""
        return coef.reshape(coef.shape[:-2] + (-1,))

    # -- linear structure ---------------------------------------------------
    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch("different ambient dimensions")
        if self.k != other.k:
            raise DimensionMismatch("different degrees")
        if self.table is not other.table:
            raise DimensionMismatch("different jet tables")

    def __add__(self, other):
        self._check(other)
        return self._new(self.k, self.coef + other.coef)

    def __sub__(self, other):
        self._check(other)
        return self._new(self.k, self.coef - other.coef)

    def __neg__(self):
        return self._new(self.k, -self.coef)

    def __mul__(self, s):
        """Scale by a float, per-probe floats or a jet (the wedge with a 0-form)."""
        if isinstance(s, Jet):
            other = JetForm._of(self.n, 0, s.table, s.coef[..., None, :])
            return self._new(self.k, _wedge_stack(self, other, self._rows(self.coef), s.coef))
        return self._new(self.k, self.coef * _scalar(s, 2))

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------
    def jet(self, idx) -> Jet:
        """The jet of the ``e^idx`` coefficient."""
        s, key = _canonical(idx)
        if not s:
            return Jet(self.table, np.zeros(self.probes + (self.table.size,)))
        return Jet(self.table, s * self.coef[..., combo_pos(self.n, self.k)[key], :])

    def coeff(self, idx) -> float:
        """The value of the ``e^idx`` coefficient."""
        s, key = _canonical(idx)
        if not s:
            return 0.0
        return _out(s * self.coef[..., combo_pos(self.n, self.k)[key], 0])

    def terms(self):
        return {c: float(v) for c, v in zip(combos(self.n, self.k), self.coef[:, 0]) if v != 0.0}

    def sup(self):
        """Largest absolute jet coefficient, per probe."""
        return _out(np.max(np.abs(self.coef), axis=(-2, -1), initial=0.0))

    # -- algebra ---------------------------------------------------------
    def wedge(self, other: "JetForm") -> "JetForm":
        return self._new(self.k + other.k, _wedge_stack(self, other, self._rows(self.coef), self._rows(other.coef)))

    def interior(self, vector) -> "JetForm":
        """Contraction with a vector given by frame components."""
        v = np.asarray(vector, dtype=float)
        if v.shape != (self.n,):
            raise DimensionMismatch("vector of wrong dimension")
        if self.k == 0:
            return self._new(0, np.zeros_like(self.coef))
        src, lab, sgn, dst = _interior_table(self.n, self.k)
        terms = sgn * v[lab] * np.moveaxis(self.coef[..., src, :], -1, -2)
        out = stacked_bincount(dst, terms, len(combos(self.n, self.k - 1)))
        return self._new(self.k - 1, np.moveaxis(out, -1, -2))

    def evaluate(self, *vectors) -> float:
        """Value on k vectors (multilinear, alternating)."""
        if len(vectors) != self.k:
            raise DimensionMismatch(f"need {self.k} vectors")
        v = np.asarray(vectors, dtype=float).reshape(self.k, self.n)
        return _out(self.coef[..., 0] @ compounds(v, self.k)[self.k][0])

    def hodge(self, metric_diag) -> "JetForm":
        """Hodge star for a diagonal metric: a ^ *b = <a, b> vol."""
        g = np.asarray(metric_diag, dtype=float)
        if g.shape[-1:] != (self.n,):
            raise DimensionMismatch("metric diagonal of wrong length")
        if np.any(g <= 0):
            raise ValueError("non-positive metric entry")
        sign, comp = _hodge_table(self.n, self.k)
        root_det = np.sqrt(np.prod(g, axis=-1))[..., None]
        out = np.zeros(np.broadcast_shapes(g.shape[:-1], self.probes) + (len(comp), self.table.size))
        out[..., comp, :] = (sign * root_det * _inverse_weights(g, self.k))[..., None] * self.coef
        return self._new(self.n - self.k, out)

    def inner(self, other: "JetForm", metric_diag):
        self._check(other)
        g = np.asarray(metric_diag, dtype=float)
        # each probe's row is contiguous, so np.sum adds it as it adds one vector
        return _out(np.sum(self.coef[..., 0] * other.coef[..., 0] * _inverse_weights(g, self.k), axis=-1))

    def gnorm(self, metric_diag):
        return _out(np.sqrt(np.maximum(self.inner(self, metric_diag), 0.0)))

    def transform(self, p: np.ndarray) -> "JetForm":
        """Coefficients in a new basis; ``p[j, i]`` expresses old covector
        ``j+1`` as a combination of new covectors ``i+1``."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n, self.n):
            raise DimensionMismatch("transform matrix of wrong shape")
        return self._new(self.k, compounds(p, self.k)[self.k].T @ self.coef)

    # -- jets -------------------------------------------------------------
    def truncate(self, order: int) -> "JetForm":
        """The same form with its coefficient jets cut to a lower order."""
        if order == self.table.order:
            return self
        if order > self.table.order:
            raise JetOrderError(order)
        low = jet_table(self.table.nvars, order)
        return JetForm._of(self.n, self.k, low, self.coef[..., : low.size].copy())

    def value(self) -> "JetForm":
        """The float form of the values at the point."""
        return JetForm._of(self.n, self.k, VALUE, self.coef[..., :1].copy())

    def d_value(self) -> "JetForm":
        """Exterior derivative at the point (coefficients need order >= 1)."""
        return self.d_jets().value()

    def d_jets(self) -> "JetForm":
        """Exterior derivative with jet coefficients (one order lower)."""
        coef, low = _d_stack(self, self._rows(self.coef))
        return JetForm._of(self.n, self.k + 1, low, coef)

    def __repr__(self):
        return f"JetForm(n={self.n}, k={self.k}, order={self.table.order}, probes={self.probes})"


# the float forms' name
Multivector = JetForm


# ----------------------------------------------------------------------
# scalar fields


class ScalarField:
    """A jet function of the point: ``fn`` of the seeded coordinate jets,
    returning a jet or a matrix of jets.

    One call evaluates every entry, so entries share their subexpressions.
    It has no arithmetic of its own: combine quantities inside ``fn``, where
    they are jets.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def jet(self, point, order: int):
        return self.fn(*variables(point, order))


# ----------------------------------------------------------------------
# matrices of forms, check/hat


class MatrixForm:
    """Rectangular matrix of forms of one kind and degree, held as one array.

    ``coef`` has shape ``(r, c) + proto.coef.shape``; the prototype entry
    ``proto`` gives ``n``, ``k``, the jet table and the probe axis every
    entry shares.  The product ``@`` wedges entries, ``(A @ B)[i,
    j] = sum_q A[i, q] ^ B[q, j]``.
    """

    __slots__ = ("proto", "coef")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if any(len(row) != len(entries[0]) for row in entries):
            raise ShapeMismatch("ragged matrix")
        proto = entries[0][0]
        for row in entries:
            for e in row:
                proto._check(e)
        # entries without a probe axis broadcast against those with one
        coefs = np.broadcast_arrays(*(e.coef for row in entries for e in row))
        self.coef = np.reshape(coefs, (len(entries), len(entries[0])) + coefs[0].shape)
        self.proto = proto._new(proto.k, self.coef[0, 0])

    @staticmethod
    def _of(proto, coef) -> "MatrixForm":
        out = MatrixForm.__new__(MatrixForm)
        out.proto, out.coef = proto, coef
        return out

    @property
    def shape(self):
        return self.coef.shape[:2]

    @property
    def T(self) -> "MatrixForm":
        return MatrixForm._of(self.proto, self.coef.swapaxes(0, 1))

    def __getitem__(self, ij):
        return self.proto._new(self.proto.k, self.coef[ij[0], ij[1]])

    def __matmul__(self, other: "MatrixForm") -> "MatrixForm":
        """One stacked wedge per inner index over all ``(i, j)`` blocks (and
        probes); the partial sums are added from left to right."""
        (r, s), (s2, t) = self.shape, other.shape
        if s != s2:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        pa, pb = self.proto.probes, other.proto.probes
        # a probe axis on both sides (of length 1 where one has none), so they broadcast
        probes = 1 if pa or pb else 0
        acc = None
        for q in range(s):
            ca = self.proto._rows(self.coef[:, q]).reshape((r, 1) + (pa or (1,)) * probes + (-1,))
            cb = other.proto._rows(other.coef[q]).reshape((1, t) + (pb or (1,)) * probes + (-1,))
            term = _wedge_stack(self.proto, other.proto, ca, cb)
            acc = term if acc is None else np.add(acc, term, out=acc)
        proto = self.proto._new(self.proto.k + other.proto.k, acc[0, 0])
        return MatrixForm._of(proto, acc)

    def _check(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("matrix shapes differ")
        self.proto._check(other.proto)

    def __add__(self, other):
        self._check(other)
        return MatrixForm._of(self.proto, self.coef + other.coef)

    def __sub__(self, other):
        self._check(other)
        return MatrixForm._of(self.proto, self.coef - other.coef)

    def __mul__(self, s):
        return MatrixForm._of(self.proto, self.coef * _scalar(s, 2))

    __rmul__ = __mul__

    def value(self) -> "MatrixForm":
        """The matrix of the entries' float forms at the point, copied off the jets."""
        return MatrixForm._of(self.proto.value(), self.coef[..., :1].copy())

    def truncate(self, order: int) -> "MatrixForm":
        """A jet-form matrix with its coefficient jets cut to a lower order."""
        proto = self.proto.truncate(order)
        return MatrixForm._of(proto, self.coef[..., : proto.table.size])

    def d_jets(self) -> "MatrixForm":
        """The exterior derivative of every entry, in one stacked kernel call."""
        p = self.proto
        coef, low = _d_stack(p, p._rows(self.coef))
        return MatrixForm._of(JetForm._of(p.n, p.k + 1, low, coef[0, 0]), coef)

    def sup(self):
        """Largest absolute coefficient over every entry, per probe."""
        return _out(np.max(np.abs(self.coef), axis=(0, 1, -2, -1), initial=0.0))


def _stack(forms):
    """(prototype, coefficients stacked on one leading axis) of a sequence of
    forms of one kind or of a matrix's entries, row by row."""
    if isinstance(forms, MatrixForm):
        return forms.proto, forms.coef.reshape((-1,) + forms.proto.coef.shape)
    coefs = np.broadcast_arrays(*(f.coef for f in forms))
    return forms[0]._new(forms[0].k, coefs[0]), np.array(coefs)


def zero_forms(n: int, table, coef) -> MatrixForm:
    """The matrix of 0-forms on labels 1..n whose ``(i, j)`` entry has the jet
    coefficients ``coef[i][j]`` in ``table`` (with a probe axis before the
    jet axis on a chunk)."""
    coef = np.asarray(coef)[..., None, :]
    return MatrixForm._of(JetForm._of(n, 0, table, coef[0, 0]), coef)


def check(row) -> MatrixForm:
    """Row of 3 forms -> skew 3x3 matrix, (a1,a2,a3) -> [[0,-a3,a2],...]."""
    proto, coef = _stack(row)
    if len(coef) != 3:
        raise ShapeMismatch("check needs exactly 3 components")
    out = np.zeros((3, 3) + coef.shape[1:])  # a zero diagonal, not 0 * entry
    out[[1, 2, 0], [0, 1, 2]] = coef[[2, 0, 1]]
    out[[0, 1, 2], [1, 2, 0]] = -coef[[2, 0, 1]]
    return MatrixForm._of(proto, out)


def hat(m: MatrixForm):
    """Left inverse of check: 3x3 matrix -> (m32, -m31, m21)."""
    if m.shape != (3, 3):
        raise ShapeMismatch("hat needs a 3x3 matrix")
    return (m[2, 1], -m[2, 0], m[1, 0])


def contract(forms, weights):
    """Linear combination sum_i forms[i] * weights[i] with float or jet
    weights (``weights[i]`` an array over the probes on a chunk): one
    broadcast multiply, or one stacked wedge with the weights as 0-forms,
    then the terms added from left to right."""
    proto, coef = _stack(forms)
    if isinstance(weights[0], Jet):
        w = np.array([x.coef for x in weights])
        zero_form = JetForm._of(proto.n, 0, weights[0].table, w[0, ..., None, :])
        terms = _wedge_stack(proto, zero_form, proto._rows(coef), w)
    else:
        w = np.asarray(weights, dtype=float)
        terms = coef * w.reshape(w.shape + (1,) * (coef.ndim - w.ndim))
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return proto._new(proto.k, acc)


def max_sup(forms):
    """Largest sup norm of the float forms or matrices (per probe); a NaN in
    any of them propagates."""
    return _out(np.max([f.sup() for f in forms], axis=0))


# ----------------------------------------------------------------------
# chunks of probes


class ChunkCache:
    """The latest build over a chunk of points (``load``: one batched pass of
    ``_build``); a caller at one point reads the lone build of that point,
    without a probe axis, through the same code.  No build refers back to
    the cache, so a dropped chunk is freed at once."""

    _last = None  # (points, order, build)

    def clear(self):
        self._last = None

    def load(self, points, order: int):
        """Build ``points`` (a chunk, or one point without a probe axis)."""
        points = np.asarray(points, dtype=float)
        last = self._last
        if last is None or last[1] != order or not np.array_equal(last[0], points):
            self.clear()  # a build that raises leaves no chunk loaded
            last = self._last = (points, order, self._build(points, order))
        return last[2]

    def _lone(self, point, order: int = 1):
        """The build at one point: ``load`` of the point alone."""
        return self.load(point, order)
