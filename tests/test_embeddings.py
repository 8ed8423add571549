import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardlab import embeddings as emb
from rewardlab.errors import NonFiniteValueError, ShapeMismatchError, ZeroVectorError


def nce_oracle(sims, pos_index, tau):
    """Direct high-precision evaluation of the InfoNCE term via mpmath."""
    import mpmath

    mpmath.mp.dps = 50
    logits = [mpmath.mpf(repr(float(s))) / mpmath.mpf(repr(float(tau))) for s in sims]
    denom = mpmath.fsum([mpmath.e**z for z in logits])
    return float(-mpmath.log(mpmath.e ** logits[pos_index] / denom))


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(emb.l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_unit_vector_unchanged(self):
        u = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(emb.l2_normalize(u), u, atol=1e-9)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            emb.l2_normalize([0.0, 0.0])

    def test_rows_normalized_and_a_zero_row_raises(self):
        mat = np.array([[3.0, 4.0], [0.0, -2.0]])
        np.testing.assert_allclose(emb.l2_normalize_rows(mat), [[0.6, 0.8], [0.0, -1.0]], atol=1e-12)
        with pytest.raises(ZeroVectorError):
            emb.l2_normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_result_is_unit(self, values):
        v = np.array(values)
        if np.linalg.norm(v) <= 1e-6:
            return
        out = emb.l2_normalize(v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def nce(sims, pos_index, tau):
    """The InfoNCE row term every loss computes: logsumexp(z) - z[pos]."""
    z = np.asarray(sims, dtype=np.float64) / tau
    return emb.logsumexp(z) - z[pos_index]


class TestNceTerm:
    """logsumexp and softmax as the InfoNCE term -log softmax(s / tau)[pos]
    uses them, checked on the two functions directly."""

    def test_uniform_sims_give_log_n(self):
        for n in (2, 4, 16):
            assert abs(nce(np.full(n, 0.3), 1, 0.25) - math.log(n)) < 1e-9

    def test_single_candidate_is_zero(self):
        assert nce([0.7], 0, 0.07) == 0.0

    def test_against_direct_evaluation_oracle(self):
        sims = [1.0, 0.0, 0.0]
        expected = nce_oracle(sims, 0, 0.5)
        # frozen from the mpmath oracle: log(e^2 + 2) - 2
        assert abs(expected - 0.23954476622188450) < 1e-12
        assert abs(nce(sims, 0, 0.5) - expected) < 1e-12
        assert abs(-math.log(emb.softmax(np.array(sims) / 0.5)[0]) - expected) < 1e-12

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=12),
        st.floats(-20, 20),
        st.floats(0.01, 10.0),
    )
    @settings(max_examples=60)
    def test_shift_invariance(self, sims, shift, tau):
        z = np.array(sims) / tau
        assert abs(emb.logsumexp(z + shift) - shift - emb.logsumexp(z)) < 1e-9
        np.testing.assert_allclose(emb.softmax(z + shift), emb.softmax(z), atol=1e-12)

    def test_uniform_log_n_up_to_1024(self):
        for n in (1, 2, 31, 1024):
            assert abs(emb.logsumexp(np.zeros(n) / 0.07) - math.log(n)) < 1e-9

    @given(st.integers(0, 5), st.floats(0.05, 5.0))
    @settings(max_examples=25)
    def test_nonnegative(self, pos, tau):
        z = np.random.default_rng(pos).normal(size=6) / tau
        assert np.all(emb.logsumexp(z) - z >= 0.0)

    def test_gradient_matches_finite_differences(self):
        # d/ds [logsumexp(s / tau) - s[pos] / tau] = (softmax(s / tau) - e_pos) / tau
        rng = np.random.default_rng(3)
        sims = rng.normal(size=7)
        tau = 0.3
        grad = emb.softmax(sims / tau)
        grad[2] -= 1.0
        err = emb.finite_diff_grad_check(lambda s: nce(s, 2, tau), sims, grad / tau)
        assert err < 1e-7

    def test_determinism(self):
        sims = np.array([0.3, -0.2, 0.9])
        assert nce(sims, 1, 0.07) == nce(sims.copy(), 1, 0.07)

    def test_neg_inf_entries_drop_out_row_wise(self):
        z = np.array([[0.5, -np.inf, 2.0, -np.inf], [-np.inf, 1.0, -1.0, 3.0]])
        keep = np.isfinite(z)
        for row in range(2):
            assert emb.logsumexp(z)[row] == emb.logsumexp(z[row, keep[row]])
        p = emb.softmax(z)
        assert np.all(p[~keep] == 0.0)
        np.testing.assert_allclose(p[keep], np.concatenate(
            [emb.softmax(z[0, keep[0]]), emb.softmax(z[1, keep[1]])]
        ), atol=1e-15)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-15)


class TestSigmoid:
    def test_against_direct_evaluation(self):
        import mpmath

        mpmath.mp.dps = 50
        x = np.random.default_rng(0).normal(scale=6.0, size=200)
        want = [float(1 / (1 + mpmath.e ** -mpmath.mpf(repr(float(v))))) for v in x]
        np.testing.assert_allclose(emb.sigmoid(x), want, rtol=1e-15, atol=0.0)

    def test_no_overflow_at_large_magnitude(self):
        with np.errstate(over="raise"):
            out = emb.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]


class TestFiniteDiffGradCheck:
    def test_quadratic(self):
        rng = np.random.default_rng(11)
        theta = rng.normal(size=8)
        err = emb.finite_diff_grad_check(
            lambda t: float(np.sum(t * t)), theta, 2.0 * theta
        )
        assert err < 1e-7

    def test_constant_function(self):
        theta = np.ones(4)
        err = emb.finite_diff_grad_check(lambda t: 1.25, theta, np.zeros(4))
        assert err == 0.0

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteValueError):
            emb.finite_diff_grad_check(
                lambda t: float("nan"), np.ones(2), np.zeros(2)
            )

    def test_gradient_of_another_shape_raises(self):
        with pytest.raises(ShapeMismatchError, match=r"theta shape \(3,\) != grad shape \(2,\)"):
            emb.finite_diff_grad_check(lambda t: float(np.sum(t)), np.ones(3), np.ones(2))

    def test_detects_wrong_gradient(self):
        theta = np.ones(3)
        err = emb.finite_diff_grad_check(
            lambda t: float(np.sum(t * t)), theta, np.zeros(3)
        )
        assert err > 0.5
