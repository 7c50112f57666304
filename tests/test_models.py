"""Catalog metrics reproduce their expected invariant tables."""

import numpy as np
import pytest

from g2frames.exterior import ScalarField
from g2frames.frames4 import curvature_oracle, predicates
from g2frames.jets import Jet
from g2frames.jets import table as jet_table
from g2frames.models import MODEL_NAMES, UnknownModelError, expected_table, get_model


def test_catalog_names():
    assert set(expected_table()) == set(MODEL_NAMES)


def test_unknown_model_rejected():
    with pytest.raises(UnknownModelError):
        get_model("lens-space")
    with pytest.raises(ValueError):
        get_model("sphere4", kappa=-1.0)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_expected_flags_reproduced(name):
    spec = get_model(name)
    fb = spec.bundle()
    rng = np.random.default_rng(20)
    exp = spec.expected
    for pt in spec.sample_points(50, rng):
        st = fb.singer_thorpe(tuple(pt))
        flags = predicates(st, tol=1e-7)
        assert flags.einstein == exp.einstein
        assert flags.sd == exp.sd
        assert flags.asd == exp.asd
        assert flags.scalar_flat == exp.scalar_flat
        assert abs(st.s - exp.s_value) < 1e-7
        assert int(np.sign(round(st.s, 9))) == exp.s_sign


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_sphere_scaling(kappa):
    spec = get_model("sphere4", kappa=kappa)
    fb = spec.bundle()
    rng = np.random.default_rng(21)
    for pt in spec.sample_points(5, rng):
        st = fb.singer_thorpe(tuple(pt))
        assert st.s == pytest.approx(1.0 / kappa**2, abs=1e-7)


def test_hyperbolic_scaling():
    spec = get_model("hyperbolic4", kappa=2.0)
    st = spec.bundle().singer_thorpe((0.1, 0.2, -0.3, 0.4))
    assert st.s == pytest.approx(-0.25, abs=1e-9)


def test_metrics_spd_on_safe_box():
    rng = np.random.default_rng(22)
    for name in MODEL_NAMES:
        spec = get_model(name)
        for pt in spec.sample_points(10, rng):
            g = np.array([[e.value for e in row] for row in spec.metric.jet(tuple(pt), 0)])
            assert np.all(np.linalg.eigvalsh(g) > 0), name
            assert np.max(np.abs(g - g.T)) < 1e-14


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_metric_is_read_once_per_base_build_and_oracle_call(monkeypatch, name):
    spec = get_model(name)
    pts = spec.sample_points(3, np.random.default_rng(23))
    calls = []
    jet = ScalarField.jet

    def counted(self, point, order):
        calls.append((order, len(np.atleast_2d(point))))  # (order, probe rows)
        return jet(self, point, order)

    monkeypatch.setattr(ScalarField, "jet", counted)
    spec.bundle()._build(pts, 2)
    assert calls == [(2, 3)]
    curvature_oracle(spec.metric, tuple(pts[0]))
    assert calls == [(2, 3), (2, 1)]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_metric_is_one_symmetric_jet_matrix(name, order):
    spec = get_model(name)
    for pt in spec.sample_points(3, np.random.default_rng(24)):
        g = spec.metric.jet(tuple(pt), order)
        assert len(g) == 4 and all(len(row) == 4 for row in g)
        for i in range(4):
            for j in range(4):
                e = g[i][j]
                assert isinstance(e, Jet) and e.table is jet_table(4, order)
                assert e.coef.tobytes() == g[j][i].coef.tobytes(), (name, i, j)
                # the Cholesky factor reads the sign of a zero entry
                if not e.coef.any():
                    assert not np.signbit(e.coef).any(), (name, i, j)
