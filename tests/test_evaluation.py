import math

import numpy as np
import pytest

from subjmap.errors import ConfigError, DegenerateFold, DegenerateGeometry, ShapeError
from subjmap.evaluation import (
    circle_fit,
    circular_correlation,
    polar_angles,
    probe_classify,
    recon_improvement,
    subject_weight_pca,
)
from subjmap.linalg import SeededRng


def circle_points(n, radius=1.0, center=(0.0, 0.0), seed=None, radial_noise=0.0):
    t = np.linspace(0, 2 * math.pi, n, endpoint=False)
    r = np.full(n, radius)
    if radial_noise:
        r = r + SeededRng(seed).normal(n, scale=radial_noise)
    return np.column_stack([center[0] + r * np.cos(t), center[1] + r * np.sin(t)])


class TestProbeClassify:
    def test_separated_blobs_are_perfect(self):
        rng = SeededRng(0)
        x = np.concatenate([rng.normal((40, 3)) + 8.0, rng.normal((40, 3)) - 8.0])
        y = np.array([0] * 40 + [1] * 40)
        assert probe_classify(x, y, n_folds=5, seed=1).mean == 1.0

    def test_shuffled_labels_sit_at_chance(self):
        rng = SeededRng(1)
        x = rng.normal((500, 4))
        y = np.array([0, 1] * 250)
        y = y[rng.permutation(500)]
        result = probe_classify(x, y, n_folds=5, seed=2)
        assert 0.4 <= result.mean <= 0.6

    def test_translation_and_rotation_invariance(self):
        rng = SeededRng(3)
        x = rng.normal((120, 3))
        y = (x[:, 0] + 0.3 * rng.normal(120) > 0).astype(int)
        base = probe_classify(x, y, n_folds=4, seed=5)
        # random orthogonal rotation + translation
        from subjmap.linalg import qr_orthonormalize

        rot = qr_orthonormalize(SeededRng(9).normal((3, 3)))
        moved = x @ rot + np.array([10.0, -4.0, 2.5])
        shifted = probe_classify(moved, y, n_folds=4, seed=5)
        assert np.allclose(base.fold_accuracies, shifted.fold_accuracies, atol=1e-12)

    def test_three_class_one_vs_rest(self):
        rng = SeededRng(4)
        centers = np.array([[6, 0], [-6, 0], [0, 6]])
        x = np.concatenate([rng.normal((30, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 30)
        assert probe_classify(x, y, n_folds=3, seed=0).mean == 1.0

    def test_degenerate_fold_detected(self):
        x = SeededRng(5).normal((6, 2))
        y = np.array([0, 0, 0, 0, 0, 1])  # the lone positive cannot be in every train part
        with pytest.raises(DegenerateFold):
            probe_classify(x, y, n_folds=3, seed=0)

    def test_fold_count_exceeding_samples(self):
        with pytest.raises(ShapeError, match="3 samples cannot fill 5 folds"):
            probe_classify(np.ones((3, 2)), [0, 1, 0], n_folds=5)

    @pytest.mark.parametrize("n_folds", [1, 0, -2, 2.5])
    def test_fewer_than_two_folds_rejected(self, n_folds):
        # 0 and -2 used to return no fold accuracies with NaN mean and std
        x = SeededRng(5).normal((8, 2))
        with pytest.raises(ConfigError, match="n_folds"):
            probe_classify(x, np.arange(8) % 2, n_folds=n_folds)

    def test_explicit_gamma_and_stats(self):
        rng = SeededRng(6)
        x = np.concatenate([rng.normal((20, 2)) + 5, rng.normal((20, 2)) - 5])
        y = np.array([0] * 20 + [1] * 20)
        result = probe_classify(x, y, n_folds=4, kernel_gamma=0.5, seed=1, label_name="blob")
        assert result.n_folds == 4 and result.label_name == "blob"
        assert abs(result.mean - np.mean(result.fold_accuracies)) < 1e-15


class TestReconImprovement:
    def test_equal_is_zero(self):
        assert recon_improvement(0.7, 0.7) == 0.0

    def test_halved_is_fifty_percent(self):
        assert recon_improvement(0.5, 1.0) == 50.0

    def test_worse_is_negative(self):
        assert recon_improvement(2.0, 1.0) == -100.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            recon_improvement(0.1, 0.0)


class TestSubjectWeightPca:
    def test_planar_rows_reconstruct(self):
        rng = SeededRng(7)
        basis = rng.normal((2, 10))
        rows = rng.normal((25, 2)) @ basis + rng.normal(10)
        coords = subject_weight_pca(rows)
        # rank-2 rows: 2 components reproduce the centered rows
        centered = rows - rows.mean(axis=0)
        from subjmap.linalg import pca

        comps, scores, _ = pca(rows, 2)
        recon = scores @ comps.T
        rel = np.linalg.norm(recon - centered) / np.linalg.norm(centered)
        assert rel < 1e-8
        assert coords.shape == (25, 2)

    def test_identical_rows_give_zeros(self):
        rows = np.tile(SeededRng(8).normal(6), (5, 1))
        np.testing.assert_allclose(subject_weight_pca(rows), 0.0, atol=1e-12)

    def test_constant_column_invariance_up_to_sign(self):
        rng = SeededRng(9)
        rows = rng.normal((12, 4))
        base = subject_weight_pca(rows)
        padded = np.column_stack([rows, np.full(12, 3.7)])
        other = subject_weight_pca(padded)
        for j in range(2):
            assert (np.allclose(base[:, j], other[:, j], atol=1e-10)
                    or np.allclose(base[:, j], -other[:, j], atol=1e-10))

    def test_too_few_rows_or_columns(self):
        with pytest.raises(ShapeError, match="need at least 3 subjects, got 2"):
            subject_weight_pca(np.ones((2, 4)))
        with pytest.raises(ShapeError, match="need at least 2 weight columns, got 1"):
            subject_weight_pca(np.ones((5, 1)))


class TestCircleFit:
    def test_exact_circle(self):
        fit = circle_fit(circle_points(40, radius=2.0, center=(1.0, -3.0)))
        assert fit.residual_ratio < 1e-10
        np.testing.assert_allclose(fit.center, (1.0, -3.0), atol=1e-10)
        assert abs(fit.radius - 2.0) < 1e-10

    def test_radial_noise_monte_carlo_band(self):
        # sigma = 0.01 r radial noise should land in the predicted residual band
        ratios = [circle_fit(circle_points(200, radius=3.0, seed=s,
                                           radial_noise=0.03)).residual_ratio
                  for s in range(20)]
        assert all(0.005 <= r <= 0.02 for r in ratios)

    def test_threshold_calibration_against_noise_oracle(self):
        # the 0.15 acceptance threshold: comfortably above 10% radial noise and
        # comfortably below a 2:1 ellipse
        noisy = [circle_fit(circle_points(150, radius=1.0, seed=s,
                                          radial_noise=0.1)).residual_ratio
                 for s in range(10)]
        assert max(noisy) < 0.15
        t = np.linspace(0, 2 * math.pi, 100, endpoint=False)
        ellipse = np.column_stack([2.0 * np.cos(t), 1.0 * np.sin(t)])
        assert circle_fit(ellipse).residual_ratio > 0.15

    def test_scaling_equivariance(self):
        pts = circle_points(30, radius=1.5, center=(0.5, 0.2), seed=1, radial_noise=0.05)
        a = circle_fit(pts)
        b = circle_fit(pts * 4.0)
        np.testing.assert_allclose(np.array(b.center), 4.0 * np.array(a.center), rtol=1e-12)
        np.testing.assert_allclose(b.radius, 4.0 * a.radius, rtol=1e-12)
        np.testing.assert_allclose(b.residual_ratio, a.residual_ratio, rtol=1e-9)

    def test_collinear_rejected(self):
        pts = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0) + 1.0])
        with pytest.raises(DegenerateGeometry):
            circle_fit(pts)


class TestCircularCorrelation:
    def test_identity_mapping_is_one(self):
        angles = SeededRng(10).uniform(-math.pi, math.pi, 50)
        assert circular_correlation(angles, angles) > 0.999

    def test_rotation_offset_invariance(self):
        angles = SeededRng(11).uniform(-math.pi, math.pi, 50)
        assert circular_correlation(angles, angles + 1.234) > 0.999

    def test_full_turn_invariance(self):
        angles = SeededRng(12).uniform(-math.pi, math.pi, 50)
        wrapped = angles + 2 * math.pi * SeededRng(13).integers(-2, 3, 50)
        assert circular_correlation(angles, wrapped) > 0.999

    def test_reflection_is_minus_one(self):
        angles = SeededRng(14).uniform(-math.pi, math.pi, 50)
        assert circular_correlation(angles, -angles) < -0.999

    def test_independent_angles_near_zero(self):
        a = SeededRng(15).uniform(-math.pi, math.pi, 2000)
        b = SeededRng(16).uniform(-math.pi, math.pi, 2000)
        assert abs(circular_correlation(a, b)) < 0.1

    def test_polar_angles(self):
        pts = np.array([[2.0, 1.0], [1.0, 2.0]])
        angles = polar_angles(pts, (1.0, 1.0))
        np.testing.assert_allclose(angles, [0.0, math.pi / 2], atol=1e-12)
