"""Unit-vector algebra and the numerical substrate shared by all modules.

Embeddings are plain float64 numpy vectors. Everything here is pure and
deterministic; all softmax-style terms are computed through a max-subtracted
log-sum-exp so that small temperatures (0.07 by default elsewhere) do not
overflow.
"""

import numpy as np

from .errors import NonFiniteValueError, ShapeMismatchError, ZeroVectorError

EPSILON_NORM = 1e-12


def l2_normalize(v) -> np.ndarray:
    """Return v / ||v||. Raises ZeroVectorError if ||v|| <= EPSILON_NORM."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= EPSILON_NORM:
        raise ZeroVectorError(f"norm {norm} <= {EPSILON_NORM}")
    return v / norm


def l2_normalize_rows(mat) -> np.ndarray:
    """Row-wise l2_normalize for an (n, d) matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    if np.any(norms <= EPSILON_NORM):
        raise ZeroVectorError(f"at least one row has norm <= {EPSILON_NORM}")
    return mat / norms


def logsumexp(x):
    """Stable log(sum(exp(x))) along the last axis.

    A float for a 1-d array, one value per row for a matrix. Entries equal
    to -inf drop out, so a -inf fill masks them; each row needs one finite
    entry.
    """
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=-1, keepdims=True)
    out = m[..., 0] + np.log(np.sum(np.exp(x - m), axis=-1))
    return float(out) if out.ndim == 0 else out


def softmax(x) -> np.ndarray:
    """Stable softmax along the last axis; -inf entries get probability 0."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return z / np.sum(z, axis=-1, keepdims=True)


def sigmoid(x) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)), without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def finite_diff_grad_check(f, theta, analytic_grad) -> float:
    """Compare an analytic gradient against central differences of step 1e-5.

    f is a scalar function of a flat parameter vector; analytic_grad is the
    claimed gradient at theta. Returns the max over coordinates of
    |analytic - central| / max(1, |central|).
    """
    theta = np.asarray(theta, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if theta.shape != analytic_grad.shape:
        raise ShapeMismatchError(
            f"theta shape {theta.shape} != grad shape {analytic_grad.shape}"
        )
    eps, worst = 1e-5, 0.0
    work = theta.copy()
    for i in range(work.size):
        orig = work.flat[i]
        work.flat[i] = orig + eps
        f_plus = float(f(work))
        work.flat[i] = orig - eps
        f_minus = float(f(work))
        work.flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteValueError(f"f non-finite at coordinate {i}")
        central = (f_plus - f_minus) / (2.0 * eps)
        err = abs(analytic_grad.flat[i] - central) / max(1.0, abs(central))
        worst = max(worst, err)
    return worst
