"""Moving-frames engine: structure equations, curvature blocks, predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2frames.exterior import JetForm, MatrixForm, Multivector, ScalarField, combo_pos, combos, contract
from g2frames.frames4 import (
    FrameBundle,
    NonSPDMetricError,
    _blocks_raw,
    _cholesky,
    _jet_array,
    curvature_oracle,
    pairing_sign,
    predicates,
    sectional,
)
from g2frames.bundle7.pspace import _base_star
from g2frames.jets import Jet
from g2frames.jets import table as jet_table
from g2frames.models import get_model

RNG = np.random.default_rng(2024)


def _probe(spec, count=5):
    return [tuple(p) for p in spec.sample_points(count, np.random.default_rng(7))]


def test_pairing_sign_anchored_by_sphere():
    assert pairing_sign() == 1


def test_flat_coframe_is_coordinate_differentials():
    spec = get_model("flat")
    bd = spec.bundle().base((0.3, -0.8, 0.1, 0.6), 1)
    for a in range(4):
        got = bd.theta[a].value()
        assert (got - Multivector.basis(4, (a + 1,))).sup() == 0.0


@pytest.mark.parametrize("name,sign", [("sphere4", 1.0), ("hyperbolic4", -1.0)])
def test_conformal_coframes(name, sign):
    spec = get_model(name)
    fb = spec.bundle()
    for pt in _probe(spec, 4):
        c = 2.0 / (1.0 + sign * sum(x * x for x in pt))
        bd = fb.base(pt, 1)
        for a in range(4):
            got = bd.theta[a].value()
            assert (got - c * Multivector.basis(4, (a + 1,))).sup() < 1e-12


def test_coframe_reproduces_metric():
    rng = np.random.default_rng(11)
    for name in ("sphere4", "fubiniStudy", "productS2H2", "complexHyperbolic"):
        spec = get_model(name)
        fb = spec.bundle()
        for pt in spec.sample_points(20, rng):
            bd = fb.base(tuple(pt), 1)
            g = np.array([[e.value for e in row] for row in spec.metric.jet(tuple(pt), 0)])
            assert np.max(np.abs(bd.coeff_val.T @ bd.coeff_val - g)) < 1e-10


def test_non_spd_metric_rejected_with_point():
    def bad(*x):
        diag = (1.0, 1.0, -2.0, 1.0)
        return [[Jet.constant(diag[i] if i == j else 0.0, 4, x[0].order) for j in range(4)] for i in range(4)]

    fb = FrameBundle(ScalarField(bad))
    with pytest.raises(NonSPDMetricError) as err:
        fb.base((0.1, 0.2, 0.3, 0.4), 2)
    assert err.value.point == (0.1, 0.2, 0.3, 0.4)


def test_flat_connection_and_curvature_vanish():
    fb = get_model("flat").bundle()
    bd = fb.base((0.2, 0.5, -0.1, 0.9), 2)
    for b in range(4):
        for a in range(4):
            assert bd.conn[b, a].value().sup() == 0.0
            assert bd.curv[b, a].value().sup() == 0.0


def test_cartan_residual_on_models():
    for name in ("sphere4", "hyperbolic4", "fubiniStudy", "complexHyperbolic", "productS2H2"):
        spec = get_model(name)
        fb = spec.bundle()
        worst = max(fb.cartan_residual(pt) for pt in _probe(spec, 10))
        assert worst < 1e-8, name


def test_constant_curvature_form():
    # rho^a_b = -K theta^a ^ theta^b on the round sphere (K = 1)
    spec = get_model("sphere4")
    fb = spec.bundle()
    for pt in _probe(spec, 3):
        bd = fb.base(pt, 2)
        for b in range(4):
            for a in range(4):
                rho = bd.curv[b, a].value()
                th = (bd.theta_low[a].value()).wedge(bd.theta_low[b].value())
                assert (rho + th).sup() < 1e-10


@pytest.mark.parametrize("name,k_expect", [("sphere4", 1.0), ("hyperbolic4", -1.0)])
def test_sectional_curvature_against_christoffel_oracle(name, k_expect):
    spec = get_model(name)
    fb = spec.bundle()
    for pt in _probe(spec, 3):
        orc = curvature_oracle(spec.metric, pt)
        bd = fb.base(pt, 2)
        e = bd.frame_val
        for a in range(4):
            for b in range(a + 1, 4):
                k_orc = sectional(orc, e[:, a], e[:, b])
                k_frame = bd.curv[a, b].value().evaluate(e[:, a], e[:, b])
                assert k_orc == pytest.approx(k_expect, abs=1e-9)
                assert k_frame == pytest.approx(k_orc, abs=1e-9)


def test_oracle_vs_frame_on_generic_model():
    spec = get_model("productS2H2")
    fb = spec.bundle()
    for pt in _probe(spec, 3):
        orc = curvature_oracle(spec.metric, pt)
        st = fb.singer_thorpe(pt)
        assert orc["scal"] == pytest.approx(st.scal, abs=1e-9)
        einstein_frame = float(np.max(np.abs(st.b))) < 1e-9
        assert einstein_frame == (orc["einstein_residual"] < 1e-9)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name,sign", [("sphere4", 1.0), ("hyperbolic4", -1.0)])
def test_oracle_riemann_in_closed_form_on_space_forms(name, sign, kappa):
    # every entry of R_ijkl = K (g_ik g_jl - g_il g_jk), with K = +-1/kappa^2
    spec = get_model(name, kappa)
    for pt in _probe(spec):
        g = np.array([[e.value for e in row] for row in spec.metric.jet(pt, 0)])
        expect = sign / kappa**2 * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))
        riem = curvature_oracle(spec.metric, pt)["riemann"]
        assert np.max(np.abs(riem - expect)) <= 1e-12 * np.max(np.abs(expect))


def _round_sphere(n):
    """The unit round n-sphere in stereographic coordinates: (2 / (1 + |x|^2))^2 delta."""

    def metric(*x):
        acc = x[0] * 0.0 + 1.0
        for xi in x:
            acc = acc + xi * xi
        w = acc.reciprocal() * 2.0
        f, z = w * w, Jet.constant(0.0, n, x[0].order)
        return [[f if i == j else z for j in range(n)] for i in range(n)]

    return ScalarField(metric)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_oracle_in_any_dimension_on_the_round_sphere(n):
    rng = np.random.default_rng(n)
    metric = _round_sphere(n)
    for pt in rng.uniform(-0.8, 0.8, size=(5, n)):
        orc = curvature_oracle(metric, tuple(pt))
        assert orc["riemann"].shape == (n,) * 4
        assert orc["scal"] == pytest.approx(n * (n - 1), rel=1e-12)
        assert orc["einstein_residual"] <= 1e-12
        for _ in range(3):
            u, v = rng.normal(size=(2, n))
            assert sectional(orc, u, v) == pytest.approx(1.0, abs=1e-12)


def test_duality_basis_norm_and_star():
    spec = get_model("fubiniStudy")
    fb = spec.bundle()
    for pt in _probe(spec, 3):
        bd = fb.base(pt, 2)
        p4 = bd.frame_val  # dx -> theta basis change for covectors
        for branch in (1, -1):
            eta, _, _ = bd.duality(branch)
            for i, e in enumerate(eta):
                val = e.value().transform(p4)
                assert val.inner(val, np.ones(4)) == pytest.approx(2.0, abs=1e-10)
                star = val.hodge(np.ones(4))
                assert (star - float(branch) * val).sup() < 1e-10
                for j, e2 in enumerate(eta[: i + 1]):
                    expect = 2.0 if i == j else 0.0
                    got = val.inner(e2.value().transform(p4), np.ones(4))
                    assert got == pytest.approx(expect, abs=1e-10)


def test_duality_wedge_matrix_identity():
    # e^i ^ e^j = (+-) 2 delta_ij vol on each branch, in any chart
    spec = get_model("complexHyperbolic")
    fb = spec.bundle()
    for pt in _probe(spec, 3):
        bd = fb.base(pt, 2)
        vol = bd.theta_low[0].value()
        for a in range(1, 4):
            vol = vol.wedge(bd.theta_low[a].value())
        for branch in (1, -1):
            eta, _, _ = bd.duality(branch)
            for i in range(3):
                for j in range(3):
                    got = eta[i].value().wedge(eta[j].value())
                    expect = vol * (2.0 * branch if i == j else 0.0)
                    assert (got - expect).sup() < 1e-10


def test_duality_structure_and_bianchi_residuals():
    for name in ("sphere4", "hyperbolic4", "fubiniStudy", "complexHyperbolic", "productS2H2"):
        spec = get_model(name)
        fb = spec.bundle()
        for pt in _probe(spec, 5):
            for branch in (1, -1):
                res = fb.duality_residuals(pt, branch)
                assert res["structure"] < 1e-8, name
                assert res["bianchi"] < 1e-8, name


def test_flat_duality_data_trivial():
    fb = get_model("flat").bundle()
    bd = fb.base((0.4, 0.1, -0.6, 0.2), 2)
    eta, conn3, rho3 = bd.duality(1)
    assert all(w.value().sup() == 0.0 for w in conn3)
    assert all(r.value().sup() == 0.0 for r in rho3)
    assert (eta[0].value() - (Multivector.basis(4, (1, 2)) + Multivector.basis(4, (3, 4)))).sup() == 0.0


def test_sphere_blocks_and_curvature_rows():
    spec = get_model("sphere4")
    fb = spec.bundle()
    pt = _probe(spec, 1)[0]
    st = fb.singer_thorpe(pt)
    assert np.max(np.abs(st.a - np.eye(3))) < 1e-10
    assert np.max(np.abs(st.c - np.eye(3))) < 1e-10
    assert np.max(np.abs(st.b)) < 1e-10
    assert st.s == pytest.approx(1.0, abs=1e-10)
    assert st.scal == pytest.approx(12.0, abs=1e-9)
    # curvature rows against the duality 2-forms: rho_+ = -s eta_+, rho_- = +s eta_-
    bd = fb.base(pt, 2)
    for branch, sign in ((1, -1.0), (-1, 1.0)):
        eta, _, rho3 = bd.duality(branch)
        for e, r in zip(eta, rho3):
            assert (r.value() - sign * st.s * e.value()).sup() < 1e-10


def test_fubini_study_blocks():
    spec = get_model("fubiniStudy")
    fb = spec.bundle()
    st = fb.singer_thorpe(_probe(spec, 1)[0])
    flags = predicates(st)
    assert flags.einstein and flags.sd and not flags.asd
    assert st.s == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(st.wplus)) > 0.5


def test_complex_hyperbolic_blocks():
    spec = get_model("complexHyperbolic")
    st = spec.bundle().singer_thorpe(_probe(spec, 1)[0])
    flags = predicates(st)
    assert flags.einstein and flags.sd and flags.s < 0


def test_product_model_blocks():
    spec = get_model("productS2H2")
    st = spec.bundle().singer_thorpe(_probe(spec, 1)[0])
    flags = predicates(st)
    assert flags.scalar_flat and not flags.einstein
    assert flags.sd and flags.asd  # opposite curvatures: conformally flat


def test_trace_identity_against_oracle():
    for name in ("sphere4", "fubiniStudy", "productS2H2"):
        spec = get_model(name)
        fb = spec.bundle()
        for pt in _probe(spec, 3):
            st = fb.singer_thorpe(pt)
            orc = curvature_oracle(spec.metric, pt)
            assert np.trace(st.a) == pytest.approx(orc["scal"] / 4.0, abs=1e-9)
            assert st.trace_residual < 1e-10


def test_conformally_flat_smoke():
    # random conformal rescale of the flat metric keeps both Weyl halves zero
    rng = np.random.default_rng(13)
    c = rng.uniform(-0.2, 0.2, size=(4, 4))

    def factor(*x):
        acc = x[0] * 0.0 + 1.0
        for i in range(4):
            for j in range(4):
                acc = acc + float(c[i, j]) * x[i] * x[j]
        return (acc * 0.25).exp()

    def metric(*x):
        f, z = factor(*x), Jet.constant(0.0, 4, x[0].order)
        return [[f if i == j else z for j in range(4)] for i in range(4)]

    fb = FrameBundle(ScalarField(metric))
    for _ in range(5):
        pt = tuple(rng.uniform(-0.5, 0.5, size=4))
        st = fb.singer_thorpe(pt)
        assert np.max(np.abs(st.wplus)) < 1e-7
        assert np.max(np.abs(st.wminus)) < 1e-7


def test_s_constant_across_points():
    rng = np.random.default_rng(14)
    for name in ("flat", "sphere4", "hyperbolic4", "fubiniStudy", "complexHyperbolic", "productS2H2"):
        spec = get_model(name)
        fb = spec.bundle()
        vals = [fb.singer_thorpe(tuple(p)).s for p in spec.sample_points(8, rng)]
        assert max(vals) - min(vals) < 1e-7, name


def test_connection_skew_and_curvature_definition():
    spec = get_model("hyperbolic4")
    bd = spec.bundle().base(_probe(spec, 1)[0], 2)
    om = [[bd.conn[b, a].value() for a in range(4)] for b in range(4)]
    for b in range(4):
        for a in range(4):
            # skewness of the connection matrix, identically
            assert (om[b][a] + om[a][b]).sup() < 1e-14
            # rho = d(omega) + omega ^ omega, at the point
            acc = bd.conn[b, a].d_value()
            for e in range(4):
                acc = acc + om[b][e].wedge(om[e][a])
            assert (acc - bd.curv[b, a].value()).sup() < 1e-12


ALL_MODELS = ("flat", "sphere4", "hyperbolic4", "fubiniStudy", "complexHyperbolic", "productS2H2")


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_cartan_equation_on_full_jets(name, order):
    # d(theta) + theta ^ omega = 0 for every Taylor coefficient, not only the value
    spec = get_model(name)
    fb = spec.bundle()
    for pt in _probe(spec, 2):
        bd = fb.base(pt, order)
        for a in range(4):
            dtheta = bd.theta[a].d_jets()
            acc = dtheta
            scale = np.max(np.abs(dtheta.coef))
            for b in range(4):
                term = bd.theta_low[b].wedge(bd.conn[b, a])
                acc = acc + term
                scale = max(scale, np.max(np.abs(term.coef)))
            assert np.max(np.abs(acc.coef)) <= 1e-12 * scale, (name, a)


def _entrywise_conn_curv(metric, point, order):
    """Reference connection and curvature as nested lists: the structure
    constants and the weights as scalar jets, one ``contract`` per entry, then
    ``d_jets`` plus ``omega ^ omega`` per entry."""
    m = metric.jet(point, order)
    low = order - 1
    coeff, inv_low = _cholesky(_jet_array(m), point, m[0][0].table, low)
    theta = [JetForm._of(4, 1, m[0][0].table, row) for row in coeff]
    theta_low = [t.truncate(low) for t in theta]
    rows = [JetForm._of(4, 1, jet_table(4, low), row) for row in inv_low]
    minors = [rows[i - 1].wedge(rows[j - 1]) for i, j in combos(4, 2)]
    pos = combo_pos(4, 2)
    c = []
    for a in range(4):
        d_theta = theta[a].d_jets()
        tab = d_theta.table
        form = contract(minors, [Jet(tab, row) for row in d_theta.coef])
        c.append(
            [
                [
                    Jet(tab, ((b < e) - (b > e)) * form.coef[pos[min(b, e) + 1, max(b, e) + 1]])
                    if b != e
                    else Jet(tab, np.zeros(tab.size))
                    for e in range(4)
                ]
                for b in range(4)
            ]
        )
    conn = [
        [contract(theta_low, [(c[a][b][e] + c[b][e][a] - c[e][a][b]) * -0.5 for e in range(4)]) for a in range(4)]
        for b in range(4)
    ]
    om = MatrixForm([[w.truncate(low - 1) for w in row] for row in conn])
    om2 = om @ om
    return conn, [[conn[b][a].d_jets() + om2[b, a] for a in range(4)] for b in range(4)]


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_conn_and_curv_match_entrywise_reference_bytewise(name, order):
    spec = get_model(name)
    for pt in _probe(spec, 2):
        bd = spec.bundle().base(pt, order)
        assert isinstance(bd.conn, MatrixForm) and isinstance(bd.curv, MatrixForm)
        conn, curv = _entrywise_conn_curv(spec.metric, pt, order)
        for b in range(4):
            for a in range(4):
                assert bd.conn[b, a].coef.tobytes() == conn[b][a].coef.tobytes(), (b, a)
                assert bd.curv[b, a].coef.tobytes() == curv[b][a].coef.tobytes(), (b, a)


def _blocks_by_evaluation(bd):
    """The raw blocks read by evaluating rho on pairs of frame vectors."""
    frame = bd.frame_val
    tilde = {}
    for branch in (1, -1):
        _, _, rho3 = bd.duality(branch)
        mat_p, mat_m = np.zeros((3, 3)), np.zeros((3, 3))
        for i, r in enumerate(rho3):
            rho = r.value()
            for j, (p, sgn) in enumerate(zip(((0, 1), (0, 2), (0, 3)), (1.0, -1.0, 1.0))):
                q = tuple(x for x in range(4) if x not in p)
                base_pair = rho.evaluate(frame[:, p[0]], frame[:, p[1]])
                twin_pair = rho.evaluate(frame[:, q[0]], frame[:, q[1]])
                mat_p[i, j] = 0.5 * (base_pair + sgn * twin_pair)
                mat_m[i, j] = 0.5 * (base_pair - sgn * twin_pair)
        tilde[branch] = (mat_p, mat_m)
    return tilde[1][0], tilde[1][1], tilde[-1][0], tilde[-1][1]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_blocks_match_frame_vector_evaluation(name):
    spec = get_model(name)
    fb = spec.bundle()
    for pt in _probe(spec, 3):
        got = _blocks_raw(fb.base(pt, 2))
        ref = _blocks_by_evaluation(fb.base(pt, 2))
        scale = max(np.max(np.abs(m)) for m in ref)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-12 * scale, name


@pytest.mark.parametrize("name", ALL_MODELS)
def test_base_star_matrix_matches_the_frame_route(name):
    spec = get_model(name)
    fb = spec.bundle()
    for pt in _probe(spec, 3):
        bd = fb.base(pt, 2)
        star = _base_star(bd)
        for i in range(6):
            dx = Multivector(4, 2, np.eye(6)[i])
            ref = dx.transform(bd.frame_val).hodge(np.ones(4)).transform(bd.coeff_val)
            assert np.max(np.abs(star[:, i] - ref.coef[:, 0])) <= 1e-12, (name, i)
        # ** = 1 on 2-forms of an oriented Riemannian 4-manifold
        assert np.max(np.abs(star @ star - np.eye(6))) <= 1e-12, name


def test_base_keeps_only_the_latest_build():
    bundle = get_model("sphere4").bundle()
    p, q = (0.1, 0.2, 0.3, 0.4), (0.2, 0.1, 0.0, -0.1)
    first = bundle.base(p, 2)
    assert bundle.base(p, 2) is first
    assert bundle.base(q, 2).point == q
    again = bundle.base(p, 2)
    assert again is not first and again.point == p


def _jet_matmul(a, b, tab):
    """a . b for matrices of jets held as ``(n, n) + probes + (size,)`` arrays,
    through broadcast ``Jet`` products (not the wedge kernel)."""
    return (Jet(tab, a[:, :, None]) * Jet(tab, b[None, :, :])).coef.sum(axis=1)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from([(), (3,)]))
def test_matrix_jet_factor_and_inverse(seed, order, probes):
    # random SPD jet matrices: a value L L^T (L lower triangular, with a
    # diagonal in [1, 2] and entries in [-1/2, 1/2] below it), higher Taylor
    # coefficients symmetric; the factor holds to 7e-16 max|g| over 400 seeds
    rng = np.random.default_rng(seed)
    tab = jet_table(4, order)
    low = np.tril(rng.uniform(-0.5, 0.5, probes + (4, 4)), -1) + np.eye(4) * rng.uniform(1.0, 2.0, probes + (4, 1))
    g = rng.uniform(-0.5, 0.5, (4, 4) + probes + (tab.size,))
    g = g + g.swapaxes(0, 1)
    g[..., 0] = np.moveaxis(low @ low.swapaxes(-1, -2), (-2, -1), (0, 1))
    point = np.zeros(probes + (4,))
    scale = np.max(np.abs(g))
    for inv_order in range(order + 1):
        a, inv = _cholesky(g, point, tab, inv_order)
        assert a.shape == g.shape and inv.shape == (4, 4) + probes + (jet_table(4, inv_order).size,)
        assert np.all(a[np.tril_indices(4, -1)] == 0.0)
        assert np.all(a[np.diag_indices(4)][..., 0] > 0.0)
        assert np.max(np.abs(_jet_matmul(a.swapaxes(0, 1), a, tab) - g)) <= 1e-14 * scale
        cut = a[..., : inv.shape[-1]]
        eye = np.zeros(inv.shape)
        eye[..., 0] = np.eye(4).reshape((4, 4) + (1,) * len(probes))
        assert np.max(np.abs(_jet_matmul(cut, inv, jet_table(4, inv_order)) - eye)) <= 1e-14 * scale


def test_non_spd_chunk_names_the_first_failing_pivot_and_its_probe():
    # pivot 2 is 1 - x0^2, pivot 3 is 1 + x1: probe 1 fails at pivot 3 only,
    # probes 3 and 4 at pivot 2, so the error names probe 3 and pivot 2
    def metric(x0, x1, x2, x3):
        one, zero = Jet.constant(1.0, 4, x0.order), Jet.constant(0.0, 4, x0.order)
        return [[one, zero, zero, zero], [zero, one, x0, zero], [zero, x0, one, zero], [zero, zero, zero, one + x1]]

    points = np.array([[0.1, 0.0, 0, 0], [0.2, -2.0, 0, 0], [0.3, 0.0, 0, 0], [1.5, 0.0, 0, 0], [-1.2, 0.0, 0, 0]])
    fb = FrameBundle(ScalarField(metric))
    with pytest.raises(NonSPDMetricError) as err:
        fb.load(points, 2)
    assert err.value.point == tuple(points[3]) and str(err.value).endswith("(pivot 2)")
    with pytest.raises(NonSPDMetricError) as err:
        fb.base(tuple(points[1]), 2)
    assert err.value.point == tuple(points[1]) and str(err.value).endswith("(pivot 3)")
