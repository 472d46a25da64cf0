import numpy as np
import pytest

from subjmap.errors import ConfigError, ShapeError, UnknownSubject
from subjmap.linalg import SeededRng
from subjmap.maps import DecomposedMap, GroupMap, ParamRegime, SubjectMap, param_count


MAP_MAKERS = [
    lambda rng: GroupMap.initialize(6, 4, rng),
    lambda rng: SubjectMap.initialize(6, 4, 3, rng),
    lambda rng: DecomposedMap.initialize(6, 4, 3, rng, "reduce"),
    lambda rng: DecomposedMap.initialize(6, 4, 3, rng, "expand"),
]


def fd_check_map(m, x, ids, seed=5, h=1e-5):
    """Finite-difference oracle for a map's backward pass under a fixed linear readout."""
    readout = SeededRng(seed).normal((x.shape[0], m.n_out))

    def objective():
        return float((m.forward(x, ids)[0] * readout).sum())

    grad_x, grads = m.backward(readout, m.forward(x, ids)[1])
    worst = 0.0
    tensors = list(m.params().items()) + [("x", x)]
    analytic = dict(grads, x=grad_x)
    for name, p in tensors:
        flat = p.reshape(-1)
        ga = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = objective()
            flat[i] = orig - h
            minus = objective()
            flat[i] = orig
            fd = (plus - minus) / (2 * h)
            worst = max(worst, abs(fd - ga[i]) / max(1e-8, abs(fd) + abs(ga[i])))
    return worst


class TestForward:
    def test_decomposed_identity_factorization(self):
        m = DecomposedMap(np.eye(3), np.eye(3), np.ones((2, 3)), np.zeros(3))
        x = SeededRng(1).normal((4, 3))
        np.testing.assert_allclose(m.forward(x, [0, 1, 0, 1])[0], x, atol=1e-14)

    def test_decomposed_collapses_to_group_when_rows_equal(self):
        rng = SeededRng(9)
        row = rng.normal(4)
        m = DecomposedMap(rng.normal((6, 4)), rng.normal((4, 4)),
                          np.tile(row, (3, 1)), rng.normal(4))
        g = GroupMap(m.collapsed(row), m.bias)
        x = rng.normal((5, 6))
        ids = np.array([0, 2, 1, 0, 2])
        np.testing.assert_allclose(m.forward(x, ids)[0], g.forward(x)[0], atol=1e-10)

    def test_decomposed_hand_multiplied(self):
        # N=2, L=2, V=I, U=I, s_0=(2,3), x=(1,1): ((x I) * s) I = (2, 3)
        m = DecomposedMap(np.eye(2), np.eye(2), np.array([[2.0, 3.0]]), np.zeros(2))
        np.testing.assert_allclose(m.forward([[1.0, 1.0]], [0])[0], [[2.0, 3.0]])

    def test_subject_map_routes_rows(self):
        w = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 2.0)])
        m = SubjectMap(w, np.zeros(2))
        out, _ = m.forward([[1.0, 1.0], [1.0, 1.0]], [0, 1])
        np.testing.assert_allclose(out, [[2.0, 2.0], [4.0, 4.0]])

    def test_unknown_subject(self):
        m = SubjectMap(np.zeros((2, 3, 3)), np.zeros(3))
        with pytest.raises(UnknownSubject):
            m.forward(np.ones((1, 3)), [2])

    def test_width_mismatch(self):
        m = GroupMap(np.ones((3, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            m.forward(np.ones((1, 4)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = SeededRng(4)
        m = DecomposedMap.initialize(5, 3, 2, rng)
        x = rng.normal((6, 5))
        ids = np.array([0, 1, 0, 1, 0, 1])
        grad_x, grads = m.backward(np.zeros((6, 3)), m.forward(x, ids)[1])
        assert np.all(grad_x == 0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_identity_factors_grad_s_by_hand(self):
        # single sample, V=U=I: q = x * s, y = q, so ds = x * grad_out
        m = DecomposedMap(np.eye(2), np.eye(2), np.ones((1, 2)), np.zeros(2))
        x = np.array([[1.5, -2.0]])
        g = np.array([[0.5, 3.0]])
        _, grads = m.backward(g, m.forward(x, [0])[1])
        np.testing.assert_allclose(grads["s"], x * g)

    @pytest.mark.parametrize("maker", MAP_MAKERS)
    def test_finite_difference_oracle(self, maker):
        rng = SeededRng(5)
        m = maker(rng)
        x = rng.normal((4, m.n_in))
        ids = np.array([0, 1, 2, 1])
        assert fd_check_map(m, x, ids) < 1e-4

    @pytest.mark.parametrize("maker", MAP_MAKERS)
    def test_skipping_input_grad_keeps_param_grads(self, maker):
        rng = SeededRng(8)
        m = maker(rng)
        _, cache = m.forward(rng.normal((5, m.n_in)), np.array([0, 2, 1, 1, 0]))
        g = rng.normal((5, m.n_out))
        grad_x, grads = m.backward(g, cache)
        skipped, grads_skipped = m.backward(g, cache, need_input_grad=False)
        assert grad_x.shape == (5, m.n_in) and skipped is None
        assert list(grads_skipped) == list(grads)
        for name in grads:
            np.testing.assert_array_equal(grads_skipped[name], grads[name])

    def test_subject_gradient_isolation(self):
        rng = SeededRng(13)
        m = DecomposedMap.initialize(5, 3, 3, rng)
        x = rng.normal((6, 5))
        ids = np.array([0, 1, 2, 0, 1, 2])
        g = rng.normal((6, 3))
        _, grads = m.backward(g, m.forward(x, ids)[1])
        x2 = x.copy()
        x2[ids == 1] += 0.75  # perturb subject 1's rows only
        _, grads2 = m.backward(g, m.forward(x2, ids)[1])
        np.testing.assert_array_equal(grads["s"][0], grads2["s"][0])
        np.testing.assert_array_equal(grads["s"][2], grads2["s"][2])
        assert not np.array_equal(grads["s"][1], grads2["s"][1])


def add_at_subject_grad(m, g, cache):
    """The per-subject gradient by ``np.zeros_like`` + ``np.add.at``: the scatter's oracle."""
    if isinstance(m, SubjectMap):
        xb, idx = cache
        ref = np.zeros_like(m.w)
        np.add.at(ref, idx, np.einsum("bi,bo->bio", xb, g))
        return ref
    _, idx, proj, _, _ = cache
    second = m.u if m.direction == "reduce" else m.v
    ref = np.zeros_like(m.s)
    np.add.at(ref, idx, (g @ second) * proj)
    return ref


SCATTER_MAKERS = [  # (rng, wide width, hidden width, subjects) -> map
    lambda rng, n_wide, n_hidden, m: SubjectMap.initialize(n_wide, n_hidden, m, rng),
    lambda rng, n_wide, n_hidden, m: DecomposedMap.initialize(n_wide, n_hidden, m, rng, "reduce"),
    lambda rng, n_wide, n_hidden, m: DecomposedMap.initialize(n_wide, n_hidden, m, rng, "expand"),
]
SCATTER_IDS = ["subject", "decomposed-reduce", "decomposed-expand"]


class TestSubjectScatter:
    """``backward``'s per-subject gradient equals the ``np.add.at`` scatter bit for bit."""

    @staticmethod
    def assert_matches_add_at(m, x, ids, g):
        _, cache = m.forward(x, ids)
        _, grads = m.backward(g, cache)
        got, ref = grads[m.subject_param], add_at_subject_grad(m, g, cache)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("maker", SCATTER_MAKERS, ids=SCATTER_IDS)
    def test_random_cases(self, maker):
        rng = SeededRng(20)
        for _ in range(210):
            n_subjects = int(rng.integers(1, 7))
            batch = int(rng.integers(1, 40))
            m = maker(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5)), n_subjects)
            m.params()[m.subject_param][...] = rng.normal(m.params()[m.subject_param].shape)
            x = rng.normal((batch, m.n_in))
            g = rng.normal((batch, m.n_out))
            g[rng.uniform(size=g.shape) < 0.2] = -0.0  # signed zeros must sum alike
            self.assert_matches_add_at(m, x, rng.integers(0, n_subjects, batch), g)

    @pytest.mark.parametrize("maker", SCATTER_MAKERS, ids=SCATTER_IDS)
    @pytest.mark.parametrize("n_subjects,ids", [
        (3, [1, 1, 1, 1, 1]),      # repeated indices, subjects 0 and 2 without rows
        (5, [4, 0, 4, 0, 4, 2]),   # interleaved repeats, subjects 1 and 3 without rows
        (4, [2]),                  # B = 1
        (1, [0, 0, 0, 0]),         # a single subject
        (1, [0]),                  # B = 1 and a single subject
    ])
    def test_edge_cases(self, maker, n_subjects, ids):
        rng = SeededRng(21)
        m = maker(rng, 4, 3, n_subjects)
        ids = np.array(ids)
        x = rng.normal((ids.size, m.n_in))
        g = rng.normal((ids.size, m.n_out))
        g[0] = -0.0
        self.assert_matches_add_at(m, x, ids, g)
        _, grads = m.backward(g, m.forward(x, ids)[1])
        absent = np.setdiff1d(np.arange(n_subjects), ids)
        assert not grads[m.subject_param][absent].any()


class TestParamCount:
    def test_worked_example_large_study(self):
        regime = ParamRegime(150_000, 10, 1200)
        assert param_count("subject", regime, both_sides=True) == 3_600_000_000
        assert param_count("decomposed", regime, both_sides=True) == 3_024_200
        assert param_count("group", regime, both_sides=True) == 3_000_000

    def test_worked_example_wholebrain(self):
        regime = ParamRegime(441_100, 256, 16)
        total = param_count("subject", regime, both_sides=True)
        assert total == 3_613_491_200
        assert abs(total - 3.61e9) / 3.61e9 < 0.01

    def test_decomposed_minus_group_identity(self):
        for us in (3, 50, 1500):
            for hs in (2, 16, 64):
                for ns in (1, 10, 999):
                    regime = ParamRegime(us, hs, ns)
                    gap = (param_count("decomposed", regime)
                           - param_count("group", regime))
                    assert gap == hs * hs + hs * ns

    def test_single_side_default(self):
        regime = ParamRegime(100, 10, 5)
        assert param_count("group", regime) == 1000
        assert param_count("subject", regime) == 5000

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            param_count("mixed", ParamRegime(2, 2, 2))

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            ParamRegime(0, 1, 1)
        # a bool used to pass as the integer 1
        with pytest.raises(ConfigError, match="input_size"):
            ParamRegime(True, 4, 3)


def test_add_subjects_mean_init():
    rng = SeededRng(2)
    m = DecomposedMap.initialize(4, 3, 2, rng)
    m.s[0] = [1.0, 2.0, 3.0]
    m.s[1] = [3.0, 4.0, 5.0]
    m.add_subjects(2)
    assert m.n_subjects == 4
    np.testing.assert_allclose(m.s[2], [2.0, 3.0, 4.0])
    np.testing.assert_allclose(m.s[3], [2.0, 3.0, 4.0])
    sm = SubjectMap.initialize(4, 3, 2, rng)
    mean_w = sm.w.mean(axis=0)
    sm.add_subjects(1)
    assert sm.n_subjects == 3
    np.testing.assert_array_equal(sm.w[2], mean_w)
