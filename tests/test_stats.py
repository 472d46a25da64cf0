import math

import numpy as np
import pytest

from subjmap.datasets import MultiSubjectDataset, SubjectData, synth_group_dataset, split
from subjmap.errors import ConfigError, GroupCountError, InvalidP, ShapeError
from subjmap.linalg import SeededRng, qr_orthonormalize
from subjmap import stats
from subjmap.models import ModelSpec, build_model
from subjmap.stats import (
    bh_fdr,
    betainc_reg,
    fastica,
    group_difference_pipeline,
    t_sf_two_sided,
    welch_t_test,
)
from subjmap.training import TrainConfig, train


def t_two_sided_quadrature(t, df, panels=20_000):
    """Oracle: two-sided t tail via Simpson integration of the density on [0, |t|]."""
    t = abs(t)
    log_norm = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                - 0.5 * math.log(df * math.pi))

    def pdf(x):
        return math.exp(log_norm - (df + 1) / 2 * math.log1p(x * x / df))

    h = t / panels
    acc = pdf(0.0) + pdf(t)
    for k in range(1, panels):
        acc += (4 if k % 2 else 2) * pdf(k * h)
    integral = acc * h / 3
    return 1.0 - 2.0 * integral


class TestWelch:
    def test_identical_samples(self):
        t, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == 1.0

    def test_forced_separation(self):
        rng = SeededRng(0)
        a = np.zeros(4) + 1e-9 * rng.normal(4)
        b = np.ones(4) + 1e-9 * rng.normal(4)
        _, p = welch_t_test(a, b)
        assert p < 1e-6

    def test_zero_variance_conventions(self):
        t, p = welch_t_test([2.0, 2.0], [2.0, 2.0])
        assert (t, p) == (0.0, 1.0)
        t, p = welch_t_test([3.0, 3.0], [1.0, 1.0])
        assert math.isinf(t) and t > 0 and p == 0.0

    def test_antisymmetry(self):
        rng = SeededRng(1)
        a, b = rng.normal(20), rng.normal(15) + 0.5
        ta, pa = welch_t_test(a, b)
        tb, pb = welch_t_test(b, a)
        assert ta == -tb and pa == pb

    def test_p_matches_quadrature_oracle(self):
        for t, df in [(0.5, 3.0), (1.7, 9.4), (2.8, 25.0), (4.0, 60.0)]:
            mine = t_sf_two_sided(t, df)
            oracle = t_two_sided_quadrature(t, df)
            assert abs(mine - oracle) < 1e-8

    def test_monte_carlo_false_positive_rate(self):
        hits = 0
        rng = SeededRng(2024)
        for _ in range(1000):
            a = rng.normal(50)
            b = rng.normal(50)
            _, p = welch_t_test(a, b)
            hits += p < 0.05
        assert 0.03 <= hits / 1000 <= 0.07

    def test_small_groups_rejected(self):
        with pytest.raises(ShapeError, match="both groups need >= 2 values, got 1 and 2"):
            welch_t_test([1.0], [1.0, 2.0])

    def test_betainc_bounds(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0
        # symmetric case I_0.5(a, a) = 0.5
        assert abs(betainc_reg(4.0, 4.0, 0.5) - 0.5) < 1e-12


class TestBhFdr:
    def test_hand_worked_example(self):
        adjusted, reject = bh_fdr([0.01, 0.02, 0.03, 0.04], q=0.05)
        np.testing.assert_allclose(adjusted, [0.04, 0.04, 0.04, 0.04])
        assert reject.all()

    def test_all_ones(self):
        adjusted, reject = bh_fdr([1.0, 1.0, 1.0], q=0.05)
        assert np.all(adjusted == 1.0) and not reject.any()

    def test_single_value_unchanged(self):
        adjusted, reject = bh_fdr([0.03], q=0.05)
        assert adjusted[0] == 0.03 and reject[0]

    def test_adjusted_at_least_raw(self):
        p = SeededRng(3).uniform(0, 1, 50)
        adjusted, _ = bh_fdr(p, 0.1)
        assert np.all(adjusted >= p - 1e-15)

    def test_permutation_equivariance(self):
        p = SeededRng(4).uniform(0, 1, 20)
        perm = SeededRng(5).permutation(20)
        base, _ = bh_fdr(p, 0.05)
        shuffled, _ = bh_fdr(p[perm], 0.05)
        np.testing.assert_allclose(shuffled, base[perm])

    def test_monotone_in_sorted_order(self):
        p = SeededRng(6).uniform(0, 1, 30)
        adjusted, _ = bh_fdr(p, 0.05)
        order = np.argsort(p)
        assert np.all(np.diff(adjusted[order]) >= -1e-15)

    @pytest.mark.parametrize("q", [1.5, -1.0, 0.0, 1.0, math.nan])
    def test_level_outside_unit_interval_rejected(self, q):
        # 1.5 used to reject every hypothesis and -1 none
        with pytest.raises(ConfigError, match="q must lie in"):
            bh_fdr([0.01, 0.5], q)

    def test_invalid_p_rejected(self):
        with pytest.raises(InvalidP):
            bh_fdr([0.5, 1.2], 0.05)
        with pytest.raises(InvalidP):
            bh_fdr([-0.1], 0.05)


class TestFastica:
    def test_recovers_planted_uniform_sources(self):
        rng = SeededRng(7)
        sources = rng.uniform(-math.sqrt(3), math.sqrt(3), (2, 4000))
        mixing = np.array([[1.0, 0.4], [0.3, 1.0], [-0.5, 0.8], [0.9, -0.2]])
        x = mixing @ sources
        result = fastica(x, k=2, seed=1)
        assert result.converged
        corr = np.corrcoef(np.vstack([result.sources, sources]))[:2, 2:]
        best = np.abs(corr).max(axis=1)
        assert np.all(best > 0.95)

    def test_both_sides_above_512(self):
        rng = SeededRng(13)
        sources = rng.uniform(-math.sqrt(3), math.sqrt(3), (2, 700))
        x = rng.normal((600, 2)) @ sources
        result = fastica(x, k=2, seed=1)
        assert result.sources.shape == (2, 700) and result.mixing.shape == (600, 2)
        corr = np.corrcoef(np.vstack([result.sources, sources]))[:2, 2:]
        assert np.all(np.abs(corr).max(axis=1) > 0.95)

    def test_independent_rows_fixed_point(self):
        rng = SeededRng(8)
        rows = rng.uniform(-1, 1, (3, 5000))
        result = fastica(rows, k=3, seed=2)
        corr = np.corrcoef(np.vstack([result.sources, rows]))[:3, 3:]
        # each recovered source matches one original row up to sign
        assert np.all(np.abs(corr).max(axis=1) > 0.95)
        assert sorted(np.abs(corr).argmax(axis=1).tolist()) == [0, 1, 2]

    def test_sources_unit_variance_and_uncorrelated(self):
        rng = SeededRng(9)
        x = rng.normal((6, 800)) + rng.uniform(-2, 2, (6, 1)) * rng.uniform(-1, 1, (1, 800))
        result = fastica(x, k=4, seed=3, max_iter=2000)
        cov = result.sources @ result.sources.T / result.sources.shape[1]
        np.testing.assert_allclose(np.diag(cov), 1.0, atol=1e-8)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-6

    def test_mixing_reconstructs_centered_data(self):
        rng = SeededRng(10)
        sources = rng.uniform(-1, 1, (3, 3000))
        mix = rng.normal((5, 3))
        x = mix @ sources
        result = fastica(x, k=3, seed=4)
        centered = x - x.mean(axis=1, keepdims=True)
        recon = result.mixing @ result.sources
        rel = np.linalg.norm(recon - centered) / np.linalg.norm(centered)
        assert rel < 1e-6

    def test_deterministic_given_seed(self):
        x = SeededRng(11).normal((5, 500))
        a = fastica(x, k=3, seed=5)
        b = fastica(x, k=3, seed=5)
        assert np.array_equal(a.sources, b.sources)

    def test_k_out_of_range(self):
        with pytest.raises(ShapeError, match="k=4 out of range for 3x10 input"):
            fastica(np.ones((3, 10)), k=4)

    @pytest.mark.parametrize("shape", [(6, 300), (300, 6)])
    def test_whitening_signs_do_not_follow_lapack(self, monkeypatch, shape):
        # an eigenvector's sign is LAPACK's choice; it used to flip whitening rows
        # and so change the sources and every analyze result
        x = SeededRng(14).uniform(-1, 1, shape)
        plain = fastica(x, k=4, seed=7, max_iter=50)
        svd_small = stats.svd_small

        def flipping_svd(m):
            u, s, vt = svd_small(m)
            u, vt = u.copy(), vt.copy()
            u[:, 1::2] *= -1.0
            vt[1::2] *= -1.0
            return u, s, vt

        monkeypatch.setattr(stats, "svd_small", flipping_svd)
        flipped = fastica(x, k=4, seed=7, max_iter=50)
        for field in ("sources", "mixing", "whitening"):
            assert np.array_equal(getattr(flipped, field), getattr(plain, field)), field

    def test_max_iter_flagged_not_fatal(self):
        x = SeededRng(12).normal((4, 300))
        result = fastica(x, k=2, seed=6, max_iter=1)
        assert not result.converged and result.n_iter == 1


class TestPipeline:
    def make_trained(self, data, seed=0):
        tr, _, va = split(data, "first_second_half")
        spec = ModelSpec(variant="decomposed", objective="autoencoder",
                         input_size=data.n_features, first_layer_width=10, latent_size=2,
                         n_subjects=data.n_subjects, trunk_widths=(12,))
        model = build_model(spec, seed=seed, subject_ids=data.subject_ids)
        model, _ = train(model, tr, va, TrainConfig(lr=0.01, epochs=25, batch_size=128,
                                                    seed=seed, early_stop_patience=8))
        return model

    def test_duplicated_groups_reject_nothing(self):
        # two groups carrying identical subject data: an exact null
        base, _ = synth_group_dataset(6, 60, 24, 4, 0.0, seed=13)
        twins = []
        for g in (0, 1):
            for i, rec in enumerate(base.subjects):
                twins.append(SubjectData(f"dup{g}_{i}", rec.data.copy(), None, g))
        dup = MultiSubjectDataset(twins, {})
        model = self.make_trained(dup, seed=1)
        # force per-subject rows identical across the two copies so decoding matches
        half = len(base.subjects)
        for m in model.decomposed_maps():
            m.s[half:] = m.s[:half]
        report, _ = group_difference_pipeline(model, dup, k=4, q=0.05, seed=2)
        assert report.n_rejected == 0
        np.testing.assert_allclose(report.t_stats, 0.0, atol=1e-10)

    def test_planted_effect_detected_and_localized(self):
        data, truth = synth_group_dataset(80, 100, 40, 6, 2.0, seed=21, subject_scale=0.3)
        model = self.make_trained(data, seed=3)
        report, ica = group_difference_pipeline(model, data, k=8, q=0.05, seed=4)
        assert report.n_rejected >= 1
        corrs = [abs(np.corrcoef(ica.sources[j], truth.direction_voxels)[0, 1])
                 for j in np.flatnonzero(report.rejected)]
        assert max(corrs) > 0.5

    def test_deterministic_report(self):
        data, _ = synth_group_dataset(20, 60, 24, 4, 1.0, seed=31)
        model = self.make_trained(data, seed=5)
        a, _ = group_difference_pipeline(model, data, k=4, q=0.05, seed=6)
        b, _ = group_difference_pipeline(model, data, k=4, q=0.05, seed=6)
        assert np.array_equal(a.p_values, b.p_values)
        assert np.array_equal(a.p_adjusted, b.p_adjusted)

    def test_needs_two_groups(self):
        data, _ = synth_group_dataset(8, 30, 12, 3, 0.0, seed=41)
        for rec in data.subjects:
            rec.group = 0
        model = self.make_trained(data, seed=7)
        with pytest.raises(GroupCountError, match=r"exactly two groups, found \[0\]"):
            group_difference_pipeline(model, data, k=3, seed=0)

    def test_report_csv(self, tmp_path):
        data, _ = synth_group_dataset(20, 60, 24, 4, 1.0, seed=51)
        model = self.make_trained(data, seed=8)
        report, _ = group_difference_pipeline(model, data, k=4, q=0.05, seed=9)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "source_id,t,p,p_adj,reject,group_mean_a,group_mean_b"
        assert len(lines) == 5
