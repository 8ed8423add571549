"""The human-domain rotation `render._SHIFT_MATRIX` = exp(MIX * S), built
with numpy alone, against an mpmath matrix exponential of the same
generator at 40 significant digits: a rotation (orthogonal, determinant
+1) that equals the reference to 1e-14 in every entry."""

import mpmath
import numpy as np

from rewardlab import render


def reference_rotation(digits=40) -> np.ndarray:
    with mpmath.workdps(digits):
        generator = mpmath.mpf(render.MIX) * mpmath.matrix(render._SKEW.tolist())
        return np.array(mpmath.expm(generator).tolist(), dtype=np.float64)


def test_rotation_is_orthogonal_with_determinant_one():
    rot = render._SHIFT_MATRIX
    assert rot.shape == (render.FRAME_WIDTH, render.FRAME_WIDTH) and rot.dtype == np.float64
    np.testing.assert_allclose(rot @ rot.T, np.eye(render.FRAME_WIDTH), rtol=0, atol=1e-14)
    assert abs(np.linalg.det(rot) - 1.0) < 1e-14


def test_rotation_matches_a_high_precision_exponential():
    np.testing.assert_allclose(render._SHIFT_MATRIX, reference_rotation(), rtol=0, atol=1e-14)
