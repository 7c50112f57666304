"""Exterior algebra laws, Hodge duality, check/hat, matrix kernels, and field differentiation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2frames.exterior import (
    MAX_TERMS,
    VALUE,
    DimensionMismatch,
    JetForm,
    MatrixForm,
    Multivector,
    ScalarField,
    ShapeMismatch,
    _d_stack,
    _wedge_stack,
    check,
    combos,
    compounds,
    contract,
    hat,
    merge_sign,
    zero_forms,
)
from g2frames.jets import Jet, JetOrderError
from g2frames.jets import table as jet_table


def rand_mv(rng, n, k):
    return Multivector(n, k, rng.normal(size=len(combos(n, k))))


# ----------------------------------------------------------------------
# wedge


def test_wedge_basis_case():
    a = Multivector.basis(4, (1, 2))
    assert a.wedge(Multivector.basis(4, (3, 4))).coeff((1, 2, 3, 4)) == 1.0


def test_wedge_duality_square():
    # (e12 + e34)^(e12 + e34) = 2 e1234: the diagonal duality-pairing square
    sd = Multivector.basis(4, (1, 2)) + Multivector.basis(4, (3, 4))
    sq = sd.wedge(sd)
    assert sq.coeff((1, 2, 3, 4)) == pytest.approx(2.0)
    assert (sq - 2.0 * Multivector.basis(4, (1, 2, 3, 4))).sup() == 0.0


def test_odd_degree_squares_to_zero():
    rng = np.random.default_rng(0)
    for n, k in [(4, 1), (7, 1), (7, 3), (8, 3)]:
        a = rand_mv(rng, n, k)
        assert a.wedge(a).sup() < 1e-12


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_wedge_graded_commutative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    j = int(rng.integers(0, n + 1))
    k = int(rng.integers(0, n + 1))
    a, b = rand_mv(rng, n, j), rand_mv(rng, n, k)
    lhs = a.wedge(b)
    rhs = b.wedge(a) * ((-1.0) ** (j * k))
    assert (lhs - rhs).sup() < 1e-12


def test_wedge_laws_batch():
    rng = np.random.default_rng(12)
    for n in (4, 7):
        for j, k in itertools.product(range(n + 1), repeat=2):
            if j + k > n:
                continue
            for _ in range(200):
                a, b = rand_mv(rng, n, j), rand_mv(rng, n, k)
                assert (a.wedge(b) - b.wedge(a) * ((-1.0) ** (j * k))).sup() < 1e-12
            l = int(rng.integers(0, n - j - k + 1))
            for _ in range(50):
                a, b, c = rand_mv(rng, n, j), rand_mv(rng, n, k), rand_mv(rng, n, l)
                assoc = a.wedge(b).wedge(c) - a.wedge(b.wedge(c))
                assert assoc.sup() < 1e-12
                lin = (a + b * 2.0).wedge(c) - (a.wedge(c) + b.wedge(c) * 2.0) if j == k else None
                if lin is not None:
                    assert lin.sup() < 1e-12


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Multivector.basis(4, (1,)).wedge(Multivector.basis(5, (1,)))


def test_wedge_above_top_degree_is_zero():
    a = Multivector.basis(4, (1, 2, 3))
    b = Multivector.basis(4, (2, 3))
    top = a.wedge(b)
    assert top.k == 5 and top.sup() == 0.0
    assert top.transform(np.eye(4)).coef.shape == (0, 1)


def signed_wedge_index(n, j, k, tab):
    """The wedge index with a sign per term, built pair by pair from
    ``combos``, ``merge_sign`` and the jet table's product terms."""
    pos = {c: i for i, c in enumerate(combos(n, j + k))}
    src_a, src_b, sign, dst = [], [], [], []
    for x, a in enumerate(combos(n, j)):
        for y, b in enumerate(combos(n, k)):
            if set(a).isdisjoint(b):
                s, merged = merge_sign(a, b)
                for ti, tj, tk in zip(tab.mul_i, tab.mul_j, tab.mul_k):
                    src_a.append(x * tab.size + ti)
                    src_b.append(y * tab.size + tj)
                    sign.append(float(s))
                    dst.append(pos[merged] * tab.size + tk)
    ints = (np.array(v, dtype=np.intp) for v in (src_a, src_b, dst))
    return *ints, np.array(sign), len(pos) * tab.size


def special_rows(rng, shape):
    """Normal entries, about a fifth replaced by NaN, +-inf, 0.0 or -0.0."""
    x = rng.normal(size=shape)
    pick = rng.random(shape) < 0.2
    x[pick] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], size=int(pick.sum()))
    return x


def assert_same_bits(x, y):
    """Equal entries, NaN where the other is NaN, and equal signs off NaN."""
    assert x.shape == y.shape and x.dtype == y.dtype == np.float64
    assert np.array_equal(x, y, equal_nan=True)
    assert np.array_equal(np.signbit(x) & ~np.isnan(x), np.signbit(y) & ~np.isnan(y))


def wedge_reference(n, j, k, tab, ca, cb):
    """One ``np.bincount`` of the signed terms per stack, after broadcasting."""
    src_a, src_b, dst, sign, size = signed_wedge_index(n, j, k, tab)
    lead = np.broadcast_shapes(ca.shape[:-1], cb.shape[:-1])
    ca = np.broadcast_to(ca, lead + ca.shape[-1:]).reshape(-1, ca.shape[-1])
    cb = np.broadcast_to(cb, lead + cb.shape[-1:]).reshape(-1, cb.shape[-1])
    out = np.zeros((len(ca), size))
    for i, (a, b) in enumerate(zip(ca, cb)):
        out[i] = np.bincount(dst, a[src_a] * b[src_b] * sign, size)
    return out.reshape(lead + (size // tab.size, tab.size))


# (n, j, k, nvars, order): float forms, jet forms, a 0-form factor, and j + k > n
WEDGE_KINDS = [(4, 1, 2, 1, 0), (4, 2, 2, 4, 2), (7, 3, 1, 7, 1), (4, 0, 2, 4, 1), (4, 3, 2, 4, 1)]


@pytest.mark.parametrize("n, j, k, nvars, order", WEDGE_KINDS)
def test_wedge_kernel_equals_the_signed_reference_bitwise(n, j, k, nvars, order):
    rng = np.random.default_rng(61)
    tab = jet_table(nvars, order)
    a, b = JetForm._of(n, j, tab, None), JetForm._of(n, k, tab, None)
    wa, wb = len(combos(n, j)) * tab.size, len(combos(n, k)) * tab.size
    terms = len(signed_wedge_index(n, j, k, tab)[0])
    step = MAX_TERMS // max(terms, 1)
    leads = [
        ((), ()),  # one unstacked wedge
        ((0,), (0,)),  # an empty stack
        ((3, 1, 5), (1, 2, 5)),  # broadcast leads (r, 1, P) x (1, t, P)
        ((2 * step + step // 2,), ()),  # three blocks, the last one short
    ]
    for lead_a, lead_b in leads:
        ca, cb = special_rows(rng, lead_a + (wa,)), special_rows(rng, lead_b + (wb,))
        with np.errstate(invalid="ignore"):  # inf * 0
            assert_same_bits(_wedge_stack(a, b, ca, cb), wedge_reference(n, j, k, tab, ca, cb))
    assert step >= 2  # so the last of the three blocks is short


# ----------------------------------------------------------------------
# hodge


def test_hodge_euclidean_examples():
    ones = np.ones(4)
    assert (Multivector.basis(4, (1, 2)).hodge(ones) - Multivector.basis(4, (3, 4))).sup() == 0.0
    sd = Multivector.basis(4, (1, 2)) + Multivector.basis(4, (3, 4))
    assert (sd.hodge(ones) - sd).sup() == 0.0  # self-dual eigenvalue +1
    asd = Multivector.basis(4, (1, 2)) - Multivector.basis(4, (3, 4))
    assert (asd.hodge(ones) + asd).sup() == 0.0


def test_hodge_involution_middle_degree():
    rng = np.random.default_rng(3)
    a = rand_mv(rng, 4, 2)
    assert (a.hodge(np.ones(4)).hodge(np.ones(4)) - a).sup() < 1e-14


def test_hodge_defining_identity_and_isometry():
    rng = np.random.default_rng(4)
    for n in (4, 7):
        g = rng.uniform(0.4, 2.5, size=n)
        vol = Multivector.scalar(n, 1.0).hodge(g)
        for k in range(n + 1):
            for _ in range(25):
                a, b = rand_mv(rng, n, k), rand_mv(rng, n, k)
                lhs = a.wedge(b.hodge(g))
                rhs = vol * a.inner(b, g)
                assert (lhs - rhs).sup() < 1e-12
                assert a.hodge(g).inner(b.hodge(g), g) == pytest.approx(a.inner(b, g), abs=1e-12)


def test_hodge_orientation_flip():
    # a reflection reverses the orientation, so the star changes sign across it
    a = Multivector.basis(4, (1, 2)) + Multivector.basis(4, (2, 3)) * 0.5
    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    g = np.ones(4)
    assert (a.transform(flip).hodge(g) + a.hodge(g).transform(flip)).sup() == 0.0
    assert a.hodge(g).sup() > 0.0


def test_hodge_rejects_bad_metric():
    with pytest.raises(ValueError):
        Multivector.basis(4, (1,)).hodge([1.0, -1.0, 1.0, 1.0])


# ----------------------------------------------------------------------
# interior product and evaluation


def test_interior_examples():
    e45 = Multivector.basis(4, (1, 2))
    v1 = np.array([1.0, 0, 0, 0])
    v3 = np.array([0, 0, 1.0, 0])
    assert (e45.interior(v1) - Multivector.basis(4, (2,))).sup() == 0.0
    assert e45.interior(v3).sup() == 0.0


def test_interior_antiderivation_and_nilpotent():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = 7
        j, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a, b = rand_mv(rng, n, j), rand_mv(rng, n, k)
        v = rng.normal(size=n)
        lhs = a.wedge(b).interior(v)
        rhs = a.interior(v).wedge(b) + a.wedge(b.interior(v)) * ((-1.0) ** j)
        assert (lhs - rhs).sup() < 1e-12
        assert a.interior(v).interior(v).sup() < 1e-12


def test_evaluate_matches_interior():
    rng = np.random.default_rng(7)
    a = rand_mv(rng, 5, 3)
    u, v, w = rng.normal(size=(3, 5))
    by_eval = a.evaluate(u, v, w)
    by_contraction = a.interior(u).interior(v).interior(w).coef[0]
    # iterated contraction peels arguments from the left: a(u, v, w)
    assert by_eval == pytest.approx(((a.interior(u)).interior(v)).interior(w).coef[0], abs=1e-12)
    assert by_eval == pytest.approx(by_contraction, abs=1e-12)


# ----------------------------------------------------------------------
# check / hat


def _one_forms(rng, count=2):
    return [
        [rand_mv(rng, 7, 1) for _ in range(3)]
        for _ in range(count)
    ]


def test_hat_check_round_trip():
    rng = np.random.default_rng(8)
    (alpha,) = _one_forms(rng, 1)
    m = check(alpha)
    back = hat(m)
    for a, b in zip(alpha, back):
        assert (a - b).sup() == 0.0
    # check(hat(A)) = A exactly for skew A
    rebuilt = check(list(hat(m)))
    for i in range(3):
        for j in range(3):
            assert (rebuilt[i, j] - m[i, j]).sup() == 0.0


def test_check_hat_not_inverse_on_non_skew():
    sym = MatrixForm([[Multivector.basis(7, (1,)) for _ in range(3)] for _ in range(3)])
    rebuilt = check(list(hat(sym)))
    diff = max((rebuilt[i, j] - sym[i, j]).sup() for i in range(3) for j in range(3))
    assert diff > 0.5


def test_check_product_hat_expansion():
    # (check(a) check(d))^hat = (a2 d3, -a1 d3, a1 d2), straight from the
    # definitions; the companion 2-form row (f23, f31, f12) below is the
    # downstream normalization actually used by the charts.
    rng = np.random.default_rng(9)
    alpha, delta = _one_forms(rng)
    prod = check(alpha) @ check(delta)
    got = hat(prod)
    expect = (
        alpha[1].wedge(delta[2]),
        -(alpha[0].wedge(delta[2])),
        alpha[0].wedge(delta[1]),
    )
    for a, b in zip(got, expect):
        assert (a - b).sup() < 1e-12


def test_check_square_hat_gives_2form_row():
    rng = np.random.default_rng(10)
    (f,) = _one_forms(rng, 1)
    h = hat(check(f) @ check(f))
    expect = (f[1].wedge(f[2]), f[2].wedge(f[0]), f[0].wedge(f[1]))
    for a, b in zip(h, expect):
        assert (a - b).sup() < 1e-12


def test_row_times_check_commutator_identity():
    # (alpha . check(d))^check = check(a) check(d) - (-1)^(|a||d|) check(d) check(a)
    rng = np.random.default_rng(11)
    for deg_a, deg_d in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        alpha = [rand_mv(rng, 7, deg_a) for _ in range(3)]
        delta = [rand_mv(rng, 7, deg_d) for _ in range(3)]
        dm = check(delta)
        row = [
            sum((alpha[k].wedge(dm[k, i]) for k in (1, 2)), alpha[0].wedge(dm[0, i]))
            for i in range(3)
        ]
        lhs = check(row)
        sign = (-1.0) ** (deg_a * deg_d)
        rhs = check(alpha) @ dm - (dm @ check(alpha)) * sign
        diff = max((lhs[i, j] - rhs[i, j]).sup() for i in range(3) for j in range(3))
        assert diff < 1e-12


def test_matrix_product_convention_hand_expanded():
    rng = np.random.default_rng(12)
    a11, a12, a21, a22 = (rand_mv(rng, 4, 1) for _ in range(4))
    b11, b12, b21, b22 = (rand_mv(rng, 4, 1) for _ in range(4))
    prod = MatrixForm([[a11, a12], [a21, a22]]) @ MatrixForm([[b11, b12], [b21, b22]])
    assert (prod[0, 0] - (a11.wedge(b11) + a12.wedge(b21))).sup() < 1e-13
    assert (prod[0, 1] - (a11.wedge(b12) + a12.wedge(b22))).sup() < 1e-13
    assert (prod[1, 0] - (a21.wedge(b11) + a22.wedge(b21))).sup() < 1e-13
    assert (prod[1, 1] - (a21.wedge(b12) + a22.wedge(b22))).sup() < 1e-13


def test_check_needs_three_components():
    with pytest.raises(Exception):
        check([Multivector.basis(4, (1,))] * 2)


# ----------------------------------------------------------------------
# matrix kernels, pinned bytewise against entrywise references


def _entry_matmul(a, b):
    """Reference product: one wedge per term, added from left to right."""
    (r, s), t = a.shape, b.shape[1]
    out = []
    for i in range(r):
        row = []
        for j in range(t):
            acc = a[i, 0].wedge(b[0, j])
            for q in range(1, s):
                acc = acc + a[i, q].wedge(b[q, j])
            row.append(acc)
        out.append(row)
    return out


def _entry_contract(forms, weights):
    acc = forms[0] * weights[0]
    for f, w in zip(forms[1:], weights[1:]):
        acc = acc + f * w
    return acc


def _rand_entry(rng, kind, k):
    if kind == "jet":
        tab = jet_table(7, 2)
        return JetForm._of(7, k, tab, rng.normal(size=(len(combos(7, k)), tab.size)))
    return rand_mv(rng, 7, k)


def _rand_matrix(rng, kind, shape, k, nan=False):
    rows = [[_rand_entry(rng, kind, k) for _ in range(shape[1])] for _ in range(shape[0])]
    if nan:
        rows[-1][0].coef.flat[3] = np.nan
    return MatrixForm(rows)


def _same(got, expect):
    return np.array_equal(got.coef, expect.coef, equal_nan=True)


@pytest.mark.parametrize("kind", ["jet", "float"])
@pytest.mark.parametrize("shapes", [((1, 3), (3, 3)), ((3, 3), (3, 1)), ((3, 3), (3, 3))])
@pytest.mark.parametrize("nan", [False, True])
def test_matmul_matches_entrywise_wedges_bytewise(kind, shapes, nan):
    rng = np.random.default_rng(40)
    a = _rand_matrix(rng, kind, shapes[0], 1, nan)
    b = _rand_matrix(rng, kind, shapes[1], 2)
    got = a @ b
    expect = _entry_matmul(a, b)
    assert got.shape == (shapes[0][0], shapes[1][1])
    for i in range(got.shape[0]):
        for j in range(got.shape[1]):
            assert got[i, j].k == 3 and _same(got[i, j], expect[i][j]), (i, j)
    assert nan == bool(np.isnan(got.coef).any())


@pytest.mark.parametrize("kind", ["jet", "float"])
@pytest.mark.parametrize("nan", [False, True])
def test_contract_matches_entrywise_sum_bytewise(kind, nan):
    rng = np.random.default_rng(41)
    forms = [_rand_entry(rng, kind, 2) for _ in range(4)]
    if kind == "jet":
        tab = jet_table(7, 2)
        weights = [Jet(tab, rng.normal(size=tab.size)) for _ in forms]
    else:
        weights = rng.normal(size=len(forms))
    if nan:
        forms[2].coef.flat[5] = np.nan
    got = contract(forms, weights)
    assert got.k == 2 and _same(got, _entry_contract(forms, weights))
    # the entries of a matrix, row by row, are a sequence of forms too
    matrix = MatrixForm([forms[:2], forms[2:]])
    assert _same(contract(matrix, weights), got)


@pytest.mark.parametrize("nvars, order, k", [(7, 2, 1), (7, 2, 2), (4, 3, 1), (4, 3, 2)])
def test_d_jets_of_a_matrix_matches_entrywise_d_bytewise(nvars, order, k):
    rng = np.random.default_rng(43)
    tab = jet_table(nvars, order)
    entries = [
        [JetForm._of(nvars, k, tab, rng.normal(size=(len(combos(nvars, k)), tab.size))) for _ in range(3)]
        for _ in range(2)
    ]
    entries[1][2].coef[-1, -1] = np.nan  # d/dx1 carries it into d of the last row
    m = MatrixForm(entries)
    got = m.d_jets()
    stacked, low = _d_stack(m.proto, m.coef.reshape(2, 3, -1))
    assert got.shape == (2, 3) and got.proto.k == k + 1 and low is jet_table(nvars, order - 1)
    for i in range(2):
        for j in range(3):
            expect = entries[i][j].d_jets()
            assert _same(got[i, j], expect) and np.array_equal(stacked[i, j], expect.coef, equal_nan=True)
    assert np.isnan(got.coef[1, 2]).any() and not np.isnan(got.coef[:1]).any()
    with pytest.raises(JetOrderError):
        m.truncate(0).d_jets()


def test_matrix_truncate_and_zero_forms():
    rng = np.random.default_rng(44)
    tab = jet_table(4, 3)
    jets = [[Jet(tab, rng.normal(size=tab.size)) for _ in range(3)] for _ in range(2)]
    m = zero_forms(4, tab, [[e.coef for e in row] for row in jets])
    assert m.shape == (2, 3) and m.proto.k == 0 and m.proto.n == 4
    low = m.truncate(1)
    assert np.array_equal(m.truncate(3).coef, m.coef)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(m[i, j].jet(()).coef, jets[i][j].coef)
            assert low[i, j].table is jet_table(4, 1)
            assert np.array_equal(low[i, j].coef, m[i, j].truncate(1).coef)


def test_check_writes_a_zero_diagonal_and_negated_entries():
    rng = np.random.default_rng(42)
    row = [_rand_entry(rng, "jet", 1) for _ in range(3)]
    for a in row:
        a.coef[:] = -np.abs(a.coef)
    row[0].coef.flat[0] = np.nan
    row[1].coef.flat[1] = -0.0
    a1, a2, a3 = row
    z = JetForm._of(7, 1, a1.table, np.zeros_like(a1.coef))
    expect = [[z, -a3, a2], [a3, z, -a1], [-a2, a1, z]]
    got = check(row)
    for i in range(3):
        for j in range(3):
            assert _same(got[i, j], expect[i][j])
            assert np.array_equal(np.signbit(got[i, j].coef), np.signbit(expect[i][j].coef))
    diag = got.coef[[0, 1, 2], [0, 1, 2]]
    assert not diag.any() and not np.signbit(diag).any()  # +0.0, never -0.0 or NaN


def test_matrix_shape_and_dimension_errors():
    e4, e5 = Multivector.basis(4, (1,)), Multivector.basis(5, (1,))
    with pytest.raises(ShapeMismatch):
        MatrixForm([[e4, e4], [e4]])
    with pytest.raises(ShapeMismatch):
        MatrixForm([[e4, e4]]) @ MatrixForm([[e4, e4]])
    with pytest.raises(ShapeMismatch):
        MatrixForm([[e4, e4]]) + MatrixForm([[e4], [e4]])
    with pytest.raises(ShapeMismatch):
        check([e4, e4])
    with pytest.raises(ShapeMismatch):
        hat(MatrixForm([[e4, e4], [e4, e4]]))
    with pytest.raises(DimensionMismatch):
        MatrixForm([[e4]]) @ MatrixForm([[e5]])
    with pytest.raises(DimensionMismatch):
        MatrixForm([[e4]]) - MatrixForm([[Multivector.basis(4, (1, 2))]])
    with pytest.raises(DimensionMismatch):
        MatrixForm([[e4, Multivector.basis(4, (1, 2))]])


# ----------------------------------------------------------------------
# transforms


def _minors(p, k):
    """The k x k minors det p[I, J] of p by np.linalg.det, rows I and columns
    J over the k-subsets."""
    rows, cols = (np.array(combos(m, k), dtype=np.intp).reshape(-1, k) - 1 for m in p.shape)
    return np.linalg.det(p[rows[:, None, :, None], cols[None, :, None, :]])


@pytest.mark.parametrize("shape", [(4, 4), (7, 7), (3, 7), (2, 5)])
def test_compounds_are_the_minors(shape):
    p = np.random.default_rng(sum(shape)).normal(size=shape)
    got = compounds(p, shape[0] + 1)  # the last degree has no rows
    assert len(got) == shape[0] + 2 and np.array_equal(got[0], np.ones((1, 1)))
    for k in range(1, shape[0] + 2):
        ref = _minors(p, k)
        assert got[k].shape == ref.shape
        assert np.max(np.abs(got[k] - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0), (shape, k)


def test_transform_round_trip_and_composition():
    rng = np.random.default_rng(13)
    for k in (1, 2, 3, 4):
        a = rand_mv(rng, 7, k)
        p = rng.normal(size=(7, 7)) + 3.0 * np.eye(7)
        q = rng.normal(size=(7, 7)) + 3.0 * np.eye(7)
        assert (a.transform(p).transform(np.linalg.inv(p)) - a).sup() < 1e-10
        assert (a.transform(p).transform(q) - a.transform(p @ q)).sup() < 1e-9


def test_transform_respects_wedge():
    rng = np.random.default_rng(14)
    a, b = rand_mv(rng, 7, 2), rand_mv(rng, 7, 1)
    p = rng.normal(size=(7, 7)) + 3.0 * np.eye(7)
    assert (a.wedge(b).transform(p) - a.transform(p).wedge(b.transform(p))).sup() < 1e-9


# ----------------------------------------------------------------------
# form fields: jet forms built from scalar-field jets


def test_dform_constant_and_polynomial():
    n = 4
    const = JetForm(n, 2, {(1, 2): Jet.constant(3.5, n, 1)})
    assert const.d_value().sup() == 0.0
    pt = (0.7, -0.3, 0.2, 0.5)
    x1_dx2 = JetForm(n, 1, {(2,): Jet.variable(pt[0], 0, n, 1)})
    assert (x1_dx2.d_value() - Multivector.basis(n, (1, 2))).sup() == 0.0


def _random_polynomial_field(rng, n, k):
    """A k-form with random quadratic coefficient fields, as the function
    ``(point, order) -> JetForm`` of its coefficient jets."""
    coeffs = {}
    for idx in combos(n, k):
        if rng.random() < 0.5:
            continue
        c = rng.normal(size=(n, n))

        def fn(*jets, c=c):
            acc = jets[0] * 0.0
            for i in range(len(jets)):
                for j in range(len(jets)):
                    acc = acc + float(c[i, j]) * jets[i] * jets[j]
            return acc

        coeffs[idx] = ScalarField(fn)

    def jets(point, order):
        c = {idx: field.jet(point, order) for idx, field in coeffs.items()}
        return JetForm(n, k, c, jet_table(n, order))

    return jets


def test_d_squared_vanishes_on_random_fields():
    rng = np.random.default_rng(15)
    for n, k in [(4, 1), (4, 2), (7, 2)]:
        field = _random_polynomial_field(rng, n, k)
        for _ in range(10):
            pt = tuple(rng.uniform(-1, 1, size=n))
            assert field(pt, 2).d_jets().d_value().sup() < 1e-9


def test_d_leibniz_pointwise():
    rng = np.random.default_rng(16)
    n = 4
    pt = (0.2, -0.4, 0.7, 0.1)
    a = _random_polynomial_field(rng, n, 1)(pt, 1)
    b = _random_polynomial_field(rng, n, 1)(pt, 1)
    lhs = a.wedge(b).d_value()
    rhs = a.d_value().wedge(b.value()) - a.value().wedge(b.d_value())
    assert (lhs - rhs).sup() < 1e-10


def _random_scalar_field(rng, n):
    c = rng.normal(size=n)

    def fn(*jets):
        acc = jets[0] * 0.0 + 1.5
        for i in range(n):
            acc = acc + float(c[i]) * jets[i] * jets[(i + 1) % n]
        return acc

    return ScalarField(fn)


def test_form_field_arithmetic_matches_jetform():
    # the linear structure and scaling by a jet act coefficient by coefficient, and d is linear
    rng = np.random.default_rng(19)
    n, k, order = 4, 2, 2
    pt = (0.3, -0.6, 0.2, 0.8)
    a = _random_polynomial_field(rng, n, k)(pt, order)
    b = _random_polynomial_field(rng, n, k)(pt, order)
    f = _random_scalar_field(rng, n).jet(pt, order)
    cases = [
        (a + b, lambda x, y: x + y),
        (a - b, lambda x, y: x - y),
        (-a, lambda x, y: -x),
        (a * 2.5, lambda x, y: x * 2.5),
        (2.5 * a, lambda x, y: x * 2.5),
        (a * f, lambda x, y: x * f),
        (f * a, lambda x, y: x * f),
    ]
    for got, op in cases:
        assert got.k == k and got.table is a.table
        for idx in combos(n, k):
            expect = op(a.jet(idx), b.jet(idx))
            assert np.allclose(got.jet(idx).coef, expect.coef, rtol=0.0, atol=1e-13)
    lin = (a * 2.5 + b).d_jets() - (a.d_jets() * 2.5 + b.d_jets())
    assert np.max(np.abs(lin.coef)) < 1e-12


def test_form_field_zero_form_leibniz():
    rng = np.random.default_rng(20)
    n = 4
    pt = (-0.2, 0.5, 0.4, -0.7)
    a = _random_polynomial_field(rng, n, 2)(pt, 1)
    f = _random_scalar_field(rng, n)
    jf = f.jet(pt, 1)
    lhs = (a * jf).d_value()
    rhs = JetForm(n, 0, {(): jf}).d_value().wedge(a.value()) + a.d_value() * jf.value
    assert lhs.k == 3
    assert (lhs - rhs).sup() < 1e-12


def test_form_field_degree_overflow_is_zero_form():
    rng = np.random.default_rng(21)
    n = 4
    pt = (0.1, 0.2, -0.3, 0.4)
    top = _random_polynomial_field(rng, n, n)(pt, 2)
    three = _random_polynomial_field(rng, n, 3)(pt, 1)
    cases = [(top.d_jets(), n + 1), (three.wedge(top.truncate(1)), n + 3)]
    for form, k in cases:
        assert form.k == k
        value = form.value()
        assert value.k == form.k and value.coef.shape == (0, 1)
        assert form.coef.shape == (0, jet_table(n, 1).size)


def test_dform_missing_jet_order_reported():
    n = 7
    field = _random_polynomial_field(np.random.default_rng(17), n, 1)
    pt = (0.1, 0.2, 0.3, 0.4, -0.2, 0.0, 0.5)
    with pytest.raises(JetOrderError) as err:
        field(pt, 4)  # four derivatives need order-4 coefficient jets
    assert err.value.order == 4
    d3 = field(pt, 3).d_jets().d_jets().d_jets()
    with pytest.raises(JetOrderError) as err:
        d3.d_jets()
    assert err.value.order == 1


def test_jetform_wedge_matches_multivector():
    rng = np.random.default_rng(18)
    from g2frames.jets import variables

    pt = (0.3, 0.8, -0.4, 0.2)
    jets = variables(pt, 1)
    a = JetForm(4, 1, {(1,): jets[1], (3,): jets[0] * jets[2]})
    b = JetForm(4, 1, {(2,): jets[3], (4,): jets[1] * jets[1]})
    prod = a.wedge(b)
    assert (prod.value() - a.value().wedge(b.value())).sup() < 1e-14


def test_merge_sign_basic():
    assert merge_sign((1,), (2,)) == (1, (1, 2))
    assert merge_sign((2,), (1,)) == (-1, (1, 2))
    assert merge_sign((1, 4), (2, 3)) == (1, (1, 2, 3, 4))


def test_dimension_cap_and_addition_mismatch():
    with pytest.raises(DimensionMismatch):
        Multivector(9, 1)
    with pytest.raises(DimensionMismatch):
        Multivector.basis(4, (1,)) + Multivector.basis(4, (1, 2))
    with pytest.raises(DimensionMismatch):
        Multivector.basis(4, (1,)) + Multivector.basis(5, (1,))


def test_basis_canonicalization():
    # permutation sign normalized once at construction; repeated labels vanish
    assert (Multivector.basis(4, (2, 1)) + Multivector.basis(4, (1, 2))).sup() == 0.0
    assert Multivector.from_terms(4, 2, {(3, 3): 5.0}).sup() == 0.0
    assert Multivector.basis(4, (3, 1, 2)).coeff((1, 2, 3)) == 1.0


def test_one_form_class_shapes_and_mismatches():
    """Every form's coef ends in (C(n, k), table.size), float forms (on the
    one-column table VALUE) included; a coefficient vector of the wrong size
    and a sum of forms on different jet tables raise DimensionMismatch."""
    rng = np.random.default_rng(5)
    a = rand_jetform(rng, 2, order=1)
    v = rand_mv(rng, 4, 2)
    chunk = Multivector(4, 1, rng.normal(size=(3, 4)))
    forms = [a, a.d_jets(), a * a.jet((1, 2)), v, a.value(), a.d_value(), v.hodge(np.ones(4)), v.wedge(v)]
    forms += [v.interior(np.ones(4)), Multivector(4, 3), Multivector.scalar(4, 2.0), chunk, chunk.wedge(chunk)]
    for form in forms:
        assert form.coef.shape[-2:] == (len(combos(form.n, form.k)), form.table.size)
    assert Multivector is JetForm and v.table is VALUE and a.value().table is VALUE
    assert chunk.probes == (3,) and chunk.coef.shape == (3, 4, 1)
    with pytest.raises(DimensionMismatch):
        Multivector(4, 2, np.ones(5))
    with pytest.raises(DimensionMismatch):
        a + v
    with pytest.raises(DimensionMismatch):
        v - a


def test_linear_maps_act_on_every_jet_column():
    """hodge, interior and transform of a jet form are those of the float
    form of each jet column; coeff reads the value column."""
    rng = np.random.default_rng(6)
    a = rand_jetform(rng, 2, order=1)
    g, v, p = rng.uniform(0.5, 2.0, 4), rng.normal(size=4), rng.normal(size=(4, 4))
    for c in range(a.table.size):
        col = Multivector(4, 2, a.coef[:, c])
        assert np.array_equal(a.hodge(g).coef[:, c], col.hodge(g).coef[:, 0])
        assert np.array_equal(a.interior(v).coef[:, c], col.interior(v).coef[:, 0])
        assert np.allclose(a.transform(p).coef[:, c], col.transform(p).coef[:, 0], rtol=0.0, atol=1e-12)
    assert a.coeff((2, 1)) == -a.coef[0, 0] == a.value().coeff((2, 1))


# ----------------------------------------------------------------------
# jet forms: the dense wedge and d kernels on full jet coefficients

DEGREE_PAIRS = [(j, k) for j in range(5) for k in range(5) if j + k <= 4]


def rand_jetform(rng, k, order=2):
    tab = jet_table(4, order)
    jets = {idx: Jet(tab, rng.normal(size=tab.size)) for idx in combos(4, k)}
    return JetForm(4, k, jets)


def test_jetform_leibniz_rule_on_jets():
    rng = np.random.default_rng(31)
    for j, k in DEGREE_PAIRS:
        a, b = rand_jetform(rng, j), rand_jetform(rng, k)
        lhs = a.wedge(b).d_jets()
        rhs = a.d_jets().wedge(b.truncate(1)) + a.truncate(1).wedge(b.d_jets()) * float((-1) ** j)
        assert lhs.k == j + k + 1 and lhs.table.order == 1
        assert np.allclose(lhs.coef, rhs.coef, rtol=0.0, atol=1e-12), (j, k)


def test_d_of_a_top_degree_form_has_float_coefficients():
    tab = jet_table(4, 2)
    for lead in ((), (3,)):
        top = JetForm._of(4, 4, tab, np.ones(lead + (1, tab.size)))
        for d in (top.d_jets(), top.d_value()):
            assert d.k == 5 and d.coef.shape == lead + (0, d.table.size)
            assert d.coef.dtype == np.float64
        assert top.d_jets().wedge(rand_jetform(np.random.default_rng(0), 0, order=1)).coef.dtype == np.float64


def test_jetform_d_squared_vanishes_on_jets():
    rng = np.random.default_rng(32)
    for k in range(5):
        a = rand_jetform(rng, k)
        dd = a.d_jets().d_jets()
        assert dd.table.order == 0
        assert np.max(np.abs(dd.coef), initial=0.0) < 1e-12, k


def test_jetform_scaling_is_wedge_with_zero_form():
    rng = np.random.default_rng(33)
    tab = jet_table(4, 2)
    for k in range(5):
        a = rand_jetform(rng, k)
        s = Jet(tab, rng.normal(size=tab.size))
        scaled = a * s
        assert np.array_equal(scaled.coef, a.wedge(JetForm(4, 0, {(): s})).coef)
        assert np.array_equal((s * a).coef, scaled.coef)
        for idx in combos(4, k):
            assert np.allclose(scaled.jet(idx).coef, (a.jet(idx) * s).coef, rtol=0.0, atol=1e-14)


def test_jetform_wedge_of_one_forms_on_jets():
    # (a ^ b)_{ij} = a_i b_j - a_j b_i, jet by jet
    rng = np.random.default_rng(34)
    a, b = rand_jetform(rng, 1), rand_jetform(rng, 1)
    ab = a.wedge(b)
    for i, j in combos(4, 2):
        expect = a.jet((i,)) * b.jet((j,)) - a.jet((j,)) * b.jet((i,))
        assert np.allclose(ab.jet((i, j)).coef, expect.coef, rtol=0.0, atol=1e-14)
        assert np.array_equal(ab.jet((j, i)).coef, -ab.jet((i, j)).coef)
