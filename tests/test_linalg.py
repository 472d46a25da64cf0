import math

import numpy as np
import pytest

from subjmap.errors import ConvergenceError, RankDeficient, ShapeError
from subjmap.linalg import SeededRng, pca, qr_orthonormalize, svd_small


def power_iteration_eigs(sym, n_eigs, iters=5000):
    """Oracle: dominant eigenvalues of a symmetric PSD matrix via power iteration + deflation."""
    work = sym.copy()
    rng = SeededRng(12345)
    eigs = []
    for _ in range(n_eigs):
        v = rng.normal(work.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm == 0:
                break
            v = w / norm
        lam = float(v @ work @ v)
        eigs.append(lam)
        work = work - lam * np.outer(v, v)
    return np.array(eigs)


def householder_q(m):
    """Oracle: Householder QR (Golub & Van Loan 5.2), Q signed so that diag(R) > 0."""
    work = np.array(m, dtype=np.float64)
    r, c = work.shape
    reflectors = []
    for j in range(c):
        v = work[j:, j].copy()
        v[0] += math.copysign(np.linalg.norm(v), v[0] if v[0] != 0.0 else 1.0)
        v /= np.linalg.norm(v)
        work[j:, j:] -= 2.0 * np.outer(v, v @ work[j:, j:])
        reflectors.append(v)
    q = np.eye(r, c)
    for j in range(c - 1, -1, -1):
        v = reflectors[j]
        q[j:, :] -= 2.0 * np.outer(v, v @ q[j:, :])
    return q * np.sign(np.diag(work))


# the shapes re-projection (square U of width 8, 10, 16) and simulation use
QR_SHAPES = [(8, 8), (10, 10), (16, 16), (40, 6), (20000, 6)]


class TestQrOrthonormalize:
    @pytest.mark.parametrize("shape", QR_SHAPES)
    def test_triangular_factor_with_positive_diagonal(self, shape):
        m = SeededRng(shape[0]).normal(shape)
        r = qr_orthonormalize(m).T @ m
        scale = np.linalg.norm(m, axis=0).max()
        assert np.abs(np.tril(r, -1)).max() <= 1e-12 * scale
        assert np.all(np.diag(r) > 1e-12 * scale)

    @pytest.mark.parametrize("shape", QR_SHAPES)
    def test_matches_householder_oracle(self, shape):
        m = SeededRng(shape[1]).normal(shape)
        np.testing.assert_allclose(qr_orthonormalize(m), householder_q(m), rtol=0, atol=1e-12)

    def test_dependent_third_column_names_pivot_2(self):
        m = SeededRng(5).normal((6, 2))
        with pytest.raises(RankDeficient, match=r"^pivot 2 has norm .* < 1e-12$"):
            qr_orthonormalize(np.hstack([m, m[:, :1] + m[:, 1:]]))

    def test_zero_first_column_names_pivot_0(self):
        m = SeededRng(6).normal((6, 3))
        m[:, 0] = 0.0
        with pytest.raises(RankDeficient, match=r"^pivot 0 has norm 0\.000e\+00 < 1e-12$"):
            qr_orthonormalize(m)


    def test_identity_fixed_point(self):
        np.testing.assert_allclose(qr_orthonormalize(np.eye(3)), np.eye(3), atol=1e-14)

    def test_column_scaling_removed(self):
        m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(qr_orthonormalize(m), expected, atol=1e-14)

    def test_random_gram_identity(self):
        q = qr_orthonormalize(SeededRng(7).normal((8, 4)))
        # oracle: explicit Gram-matrix computation
        gram = np.array([[float(q[:, i] @ q[:, j]) for j in range(4)] for i in range(4)])
        assert np.abs(gram - np.eye(4)).max() < 1e-10

    def test_span_preserved(self):
        m = SeededRng(19).normal((6, 3))
        q = qr_orthonormalize(m)
        # every original column is reproduced by projection onto Q
        proj = q @ (q.T @ m)
        np.testing.assert_allclose(proj, m, atol=1e-10)

    def test_idempotent_up_to_sign(self):
        q = qr_orthonormalize(SeededRng(3).normal((10, 5)))
        np.testing.assert_allclose(qr_orthonormalize(q), q, atol=1e-10)

    def test_rank_deficient_raises(self):
        col = SeededRng(2).normal((5, 1))
        with pytest.raises(RankDeficient):
            qr_orthonormalize(np.hstack([col, col]))

    def test_wide_input_rejected(self):
        with pytest.raises(ShapeError):
            qr_orthonormalize(np.ones((2, 4)))


class TestSvdSmall:
    def test_diagonal(self):
        u, s, vt = svd_small(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        u, s, vt = svd_small(np.zeros((4, 3)))
        assert np.all(s == 0)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(3), atol=1e-12)

    def test_reconstruction_residual(self):
        m = SeededRng(11).normal((6, 4))
        u, s, vt = svd_small(m)
        # oracle: direct multiply-back
        resid = np.abs(u @ np.diag(s) @ vt - m).max()
        assert resid < 1e-8 * np.abs(m).max()

    def test_wide_matrix(self):
        m = SeededRng(23).normal((3, 7))
        u, s, vt = svd_small(m)
        assert u.shape == (3, 3) and vt.shape == (3, 7)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, m, atol=1e-10)
        np.testing.assert_allclose(vt @ vt.T, np.eye(3), atol=1e-10)

    def test_singular_values_match_power_iteration_oracle(self):
        for seed in (1, 2, 3):
            m = SeededRng(seed).normal((5, 5))
            _, s, _ = svd_small(m)
            oracle = power_iteration_eigs(m.T @ m, 5)
            np.testing.assert_allclose(s, np.sqrt(np.maximum(oracle, 0.0)), atol=1e-6)

    def test_ordering_and_sign(self):
        _, s, _ = svd_small(SeededRng(4).normal((9, 6)))
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)

    def test_tall_input_above_512_rows(self):
        m = SeededRng(29).normal((513, 2))
        u, s, vt = svd_small(m)
        assert u.shape == (513, 2) and s.shape == (2,) and vt.shape == (2, 2)
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, m, atol=1e-10)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ConvergenceError):
            svd_small(np.eye(3))


class TestPca:
    def test_rank_one_line(self):
        t = np.linspace(-1, 1, 50)
        x = np.column_stack([t, 2 * t]) + np.array([5.0, -3.0])
        _, _, ev = pca(x, 2)
        assert ev[0] / ev.sum() >= 0.999

    def test_isotropic_ratio_with_covariance_oracle(self):
        x = SeededRng(3).normal((500, 2))
        _, _, ev = pca(x, 2)
        ratios = ev / ev.sum()
        assert 0.4 <= ratios[0] <= 0.6 and 0.4 <= ratios[1] <= 0.6
        # oracle: closed-form eigenvalues of the 2x2 sample covariance
        c = np.cov(x, rowvar=False)
        tr, det = c[0, 0] + c[1, 1], c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
        disc = np.sqrt(tr * tr / 4 - det)
        np.testing.assert_allclose(ev, [tr / 2 + disc, tr / 2 - disc], rtol=1e-10)

    def test_double_centering_is_idempotent(self):
        x = SeededRng(8).normal((40, 3))
        centered = x - x.mean(axis=0)
        _, scores_a, _ = pca(centered, 2)
        _, scores_b, _ = pca(centered - centered.mean(axis=0), 2)
        np.testing.assert_allclose(scores_a, scores_b, atol=1e-12)

    def test_scores_have_zero_column_means(self):
        _, scores, _ = pca(SeededRng(5).normal((30, 4)), 3)
        assert np.abs(scores.mean(axis=0)).max() < 1e-10

    def test_components_orthonormal_and_sign_fixed(self):
        comps, _, _ = pca(SeededRng(6).normal((25, 5)), 3)
        np.testing.assert_allclose(comps.T @ comps, np.eye(3), atol=1e-10)
        for j in range(3):
            assert comps[np.argmax(np.abs(comps[:, j])), j] > 0

    def test_k_out_of_range(self):
        x = SeededRng(1).normal((10, 3))
        with pytest.raises(ShapeError, match="k=4 out of range for 10x3 input"):
            pca(x, 4)
        with pytest.raises(ShapeError, match="k=0 out of range for 10x3 input"):
            pca(x, 0)

    def test_needs_two_rows(self):
        with pytest.raises(ShapeError, match="pca needs at least 2 rows, got 1"):
            pca(np.ones((1, 3)), 1)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = SeededRng(987654321).normal(10_000)
        b = SeededRng(987654321).normal(10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).normal(100), SeededRng(2).normal(100))

    def test_derive_is_deterministic_and_tag_sensitive(self):
        root = SeededRng(42)
        assert root.derive("init").seed == SeededRng(42).derive("init").seed
        assert root.derive("init").seed != root.derive("train").seed

    def test_derive_independent_of_consumption(self):
        a = SeededRng(10)
        a.normal(50)
        assert a.derive("x").seed == SeededRng(10).derive("x").seed


def test_non_finite_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        qr_orthonormalize(bad)
    with pytest.raises(ValueError):
        svd_small(bad)
