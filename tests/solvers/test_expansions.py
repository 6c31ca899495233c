"""Cartesian Taylor expansion machinery: recurrence, operators, identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.fmm.expansions import (
    Expansion,
    MultiIndexSet,
    derivative_tensors,
    multi_index_set,
)


def p2m(e, d, q):
    """Moments of charges ``q`` at displacements ``d`` from the center."""
    return e.p2m_rows(d, q).sum(axis=0)


def m2p(e, moments, d):
    """Evaluate a multipole expansion at far displacements ``d`` from its
    center: ``(pot, field)``, the check on the operators that build one."""
    T = derivative_tensors(d, e.p + 1)
    misg = multi_index_set(e.p + 1)
    pot = np.zeros(d.shape[0], dtype=np.float64)
    field = np.zeros((pot.shape[0], 3), dtype=np.float64)
    unit = np.eye(3, dtype=np.int64)
    for ai, a in enumerate(e.mis.indices):
        sign = e._m2l_sign[ai]
        pot += moments[ai] * sign * T[:, misg.position[tuple(a)]]
        for i in range(3):
            field[:, i] -= moments[ai] * sign * T[:, misg.position[tuple(a + unit[i])]]
    return pot, field


class TestMultiIndexSet:
    @pytest.mark.parametrize("p,ncoef", [(0, 1), (1, 4), (2, 10), (3, 20), (4, 35)])
    def test_ncoef(self, p, ncoef):
        assert MultiIndexSet(p).ncoef == ncoef

    def test_graded_order(self):
        mis = MultiIndexSet(3)
        assert np.all(np.diff(mis.degree) >= 0)

    def test_position_inverse(self):
        mis = MultiIndexSet(4)
        for i, a in enumerate(mis.indices):
            assert mis.position[tuple(a)] == i

    def test_factorials(self):
        mis = MultiIndexSet(3)
        i = mis.position[(2, 1, 0)]
        assert mis.factorial[i] == 2.0

    def test_monomials(self):
        mis = MultiIndexSet(2)
        d = np.array([[2.0, 3.0, 5.0]])
        mono = mis.monomials(d)
        assert mono[0, mis.position[(0, 0, 0)]] == 1.0
        assert mono[0, mis.position[(1, 1, 0)]] == 6.0
        assert mono[0, mis.position[(0, 0, 2)]] == 25.0

    def test_negative_order(self):
        with pytest.raises(ValueError):
            MultiIndexSet(-1)


class TestDerivativeTensors:
    def test_base_case(self):
        x = np.array([[3.0, 0.0, 4.0]])
        T = derivative_tensors(x, 0)
        assert T[0, 0] == pytest.approx(0.2)

    def test_first_derivatives(self):
        x = np.array([[1.0, 2.0, 2.0]])  # r = 3
        mis = multi_index_set(1)
        T = derivative_tensors(x, 1)
        np.testing.assert_allclose(
            [T[0, mis.position[(1, 0, 0)]], T[0, mis.position[(0, 1, 0)]]],
            [-1.0 / 27.0, -2.0 / 27.0],
        )

    def test_harmonicity(self, rng):
        """1/r is harmonic: the trace of second derivatives vanishes."""
        mis = multi_index_set(2)
        pts = rng.uniform(1.0, 3.0, (20, 3))
        T = derivative_tensors(pts, 2)
        lap = (
            T[:, mis.position[(2, 0, 0)]]
            + T[:, mis.position[(0, 2, 0)]]
            + T[:, mis.position[(0, 0, 2)]]
        )
        np.testing.assert_allclose(lap, 0.0, atol=1e-12)

    def test_laplacian_of_higher_orders(self, rng):
        """Every derivative of a harmonic function is harmonic."""
        mis = multi_index_set(4)
        pts = rng.uniform(1.0, 2.0, (10, 3))
        T = derivative_tensors(pts, 4)
        for a in [(1, 0, 0), (1, 1, 0), (2, 0, 0)]:
            lap = sum(
                T[:, mis.position[tuple(np.add(a, e))]]
                for e in [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
            )
            np.testing.assert_allclose(lap, 0.0, atol=1e-10)

    def test_symmetry_of_mixed_partials(self, rng):
        """d^a is independent of differentiation order by construction, but
        the recurrence must give consistent values regardless of which
        coordinate is eliminated first — verified against a second
        evaluation point reflected through coordinate swaps."""
        mis = multi_index_set(3)
        x = np.array([[0.7, -1.1, 1.9]])
        T = derivative_tensors(x, 3)
        # swap x and y: T_(a,b,c)(x,y,z) == T_(b,a,c)(y,x,z)
        xs = x[:, [1, 0, 2]]
        Ts = derivative_tensors(xs, 3)
        for a in mis.indices:
            i = mis.position[tuple(a)]
            j = mis.position[(a[1], a[0], a[2])]
            assert T[0, i] == pytest.approx(Ts[0, j], rel=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            derivative_tensors(np.zeros((1, 3)), 2)

    def test_scaling_homogeneity(self, rng):
        mis = multi_index_set(3)
        u = rng.uniform(1.0, 2.0, (1, 3))
        s = 0.37
        T1 = derivative_tensors(u * s, 3)
        T2 = derivative_tensors(u, 3)
        scale = s ** -(mis.degree + 1.0)
        np.testing.assert_allclose(T1[0], T2[0] * scale, rtol=1e-12)


class TestOperators:
    def direct(self, src, q, x):
        d = x - src
        r = np.linalg.norm(d, axis=1)
        return float((q / r).sum()), (q[:, None] * d / r[:, None] ** 3).sum(axis=0)

    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(0)
        src = rng.uniform(-0.5, 0.5, (40, 3))
        q = rng.uniform(-1, 1, 40)
        return src, q

    def test_m2p_converges_with_order(self, cloud):
        src, q = cloud
        x = np.array([[5.0, 2.0, -3.0]])
        exact, _ = self.direct(src, q, x)
        errs = []
        for p in (2, 4, 6):
            e = Expansion(p)
            M = p2m(e, src, q)
            pot, _ = m2p(e, M, x)
            errs.append(abs(pot[0] - exact))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_m2m_preserves_far_field(self, cloud):
        src, q = cloud
        e = Expansion(5)
        M = p2m(e, src, q)
        new_center = np.array([0.2, -0.3, 0.1])
        M2 = e.m2m_matrix(-new_center) @ M
        x = np.array([[6.0, 1.0, 2.0]])
        p1, _ = m2p(e, M, x)
        p2, _ = m2p(e, M2, x - new_center)
        # M2M is exact on the truncated moments; the two evaluations differ
        # only by their (slightly different) truncation remainders
        assert p1[0] == pytest.approx(p2[0], rel=1e-3, abs=1e-5)

    def test_m2l_l2p_pipeline(self, cloud):
        src, q = cloud
        e = Expansion(6)
        M = p2m(e, src, q)
        lcen = np.array([4.0, 1.0, -2.0])
        L = e.m2l_matrices(lcen) @ M
        pts = lcen + np.random.default_rng(1).uniform(-0.3, 0.3, (6, 3))
        pot, field = e.l2p(np.broadcast_to(L, (6, L.shape[0])), pts - lcen)
        for i in range(6):
            exact_p, exact_f = self.direct(src, q, pts[i:i + 1])
            assert pot[i] == pytest.approx(exact_p, rel=1e-4)
            np.testing.assert_allclose(field[i], exact_f, rtol=2e-3, atol=1e-6)

    def test_l2l_exact(self, cloud):
        """Local-to-local translation is exact (no truncation)."""
        src, q = cloud
        e = Expansion(4)
        M = p2m(e, src, q)
        lcen = np.array([5.0, 0.0, 0.0])
        L = e.m2l_matrices(lcen) @ M
        shift = np.array([0.15, -0.2, 0.1])
        L2 = e.l2l_matrix(shift) @ L
        pts = lcen + shift + np.array([[0.05, 0.03, -0.02]])
        p1, _ = e.l2p(np.broadcast_to(L, (1, L.shape[0])), pts - lcen)
        p2, _ = e.l2p(np.broadcast_to(L2, (1, L.shape[0])), pts - lcen - shift)
        assert p1[0] == pytest.approx(p2[0], rel=1e-12)

    def test_m2l_from_tensors_matches(self):
        e = Expansion(3)
        t = np.array([3.0, -2.0, 4.0])
        K1 = e.m2l_matrices(t)
        T = derivative_tensors(t[None, :], 6)[0]
        K2 = e.m2l_matrix_from_tensors(T)
        np.testing.assert_allclose(K1, K2, rtol=1e-12)

    def test_m2l_scale_identity(self):
        e = Expansion(4)
        u = np.array([2.5, 1.0, -1.5])
        s = 0.25
        K1 = e.m2l_matrices(u * s)
        K2 = e.m2l_matrices(u) * e.m2l_scale(s)
        np.testing.assert_allclose(K1, K2, rtol=1e-10)

    def test_field_is_negative_gradient_of_l2p(self, cloud):
        src, q = cloud
        e = Expansion(6)
        M = p2m(e, src, q)
        lcen = np.array([4.0, 0.0, 0.0])
        L = e.m2l_matrices(lcen) @ M
        x = np.array([[4.1, 0.05, -0.08]])
        _, field = e.l2p(np.broadcast_to(L, (1, L.shape[0])), x - lcen)
        h = 1e-6
        for d in range(3):
            xp = x.copy()
            xp[0, d] += h
            xm = x.copy()
            xm[0, d] -= h
            pp, _ = e.l2p(np.broadcast_to(L, (1, L.shape[0])), xp - lcen)
            pm, _ = e.l2p(np.broadcast_to(L, (1, L.shape[0])), xm - lcen)
            assert field[0, d] == pytest.approx(-(pp[0] - pm[0]) / (2 * h), rel=1e-5)
