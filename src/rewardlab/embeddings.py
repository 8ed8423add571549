"""Unit-vector algebra and the numerical substrate shared by all modules.

Embeddings are plain float64 numpy vectors. Everything here is pure and
deterministic; all softmax-style terms are computed through a max-subtracted
log-sum-exp so that small temperatures (0.07 by default elsewhere) do not
overflow.
"""

import numpy as np

from .errors import (
    BadIndexError,
    DimensionMismatchError,
    NonFiniteValueError,
    NonPositiveTemperatureError,
    ZeroVectorError,
)

EPSILON_NORM = 1e-12


def l2_normalize(v, eps: float = EPSILON_NORM) -> np.ndarray:
    """Return v / ||v||. Raises ZeroVectorError if ||v|| <= eps."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= eps:
        raise ZeroVectorError(f"norm {norm} <= {eps}")
    return v / norm


def l2_normalize_rows(mat, eps: float = EPSILON_NORM) -> np.ndarray:
    """Row-wise l2_normalize for an (n, d) matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    if np.any(norms <= eps):
        raise ZeroVectorError("at least one row has norm below eps")
    return mat / norms


def similarity_matrix(a, b) -> np.ndarray:
    """Pairwise dot products: entry (i, j) = a[i] . b[j].

    For unit-norm rows this is the cosine similarity matrix.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"embedding widths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    return a @ b.T


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


def nce_term(sims, pos_index: int, tau: float) -> float:
    """InfoNCE term: -log( exp(s_pos/tau) / sum_j exp(s_j/tau) ).

    Equals logsumexp(sims/tau) - sims[pos_index]/tau, which is >= 0.
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 1 or sims.size < 1:
        raise BadIndexError("sims must be a nonempty 1-d array")
    if not 0 <= pos_index < sims.size:
        raise BadIndexError(f"pos_index {pos_index} outside [0, {sims.size})")
    if not tau > 0:
        raise NonPositiveTemperatureError(f"tau must be > 0, got {tau}")
    logits = sims / tau
    return logsumexp(logits) - float(logits[pos_index])


def nce_term_grad(sims, pos_index: int, tau: float) -> np.ndarray:
    """Gradient of nce_term with respect to sims: (softmax(s/tau) - e_pos)/tau."""
    sims = np.asarray(sims, dtype=np.float64)
    if not tau > 0:
        raise NonPositiveTemperatureError(f"tau must be > 0, got {tau}")
    g = softmax(sims / tau)
    g[pos_index] -= 1.0
    return g / tau


def finite_diff_grad_check(f, theta, analytic_grad, eps: float = 1e-5) -> float:
    """Compare an analytic gradient against central differences.

    f is a scalar function of a flat parameter vector; analytic_grad is the
    claimed gradient at theta. Returns the max over coordinates of
    |analytic - central| / max(1, |central|).
    """
    theta = np.asarray(theta, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if theta.shape != analytic_grad.shape:
        raise DimensionMismatchError(
            f"theta shape {theta.shape} != grad shape {analytic_grad.shape}"
        )
    worst = 0.0
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
