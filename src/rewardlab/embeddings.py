"""Unit-vector algebra and the numerical substrate shared by all modules.

Embeddings are plain float64 numpy vectors. Everything here is pure and
deterministic; all softmax-style terms are computed through a max-subtracted
log-sum-exp so that small temperatures (0.07 by default elsewhere) do not
overflow. `finite_diff_grad_check` tests a hand-written gradient on the
operation's own input arrays.
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


def finite_diff_grad_check(f, arrays, grads) -> float:
    """Compare hand-written gradients against central differences of step 1e-5.

    f(*arrays) returns a float, and grads holds the claimed gradient of each
    array, of that array's shape. Each entry of each array moves in turn, on
    copies: the arrays in list order, each in C order. Returns the max over
    entries of |analytic - central| / max(1, |central|).
    """
    work = [np.array(a, dtype=np.float64) for a in arrays]
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    shapes = [a.shape for a in work], [g.shape for g in grads]
    if shapes[0] != shapes[1]:
        raise ShapeMismatchError(f"arrays of shapes {shapes[0]} != grads of shapes {shapes[1]}")
    eps, worst = 1e-5, 0.0
    for j, (a, g) in enumerate(zip(work, grads)):
        for i in range(a.size):
            orig = a.flat[i]
            a.flat[i] = orig + eps
            f_plus = float(f(*work))
            a.flat[i] = orig - eps
            f_minus = float(f(*work))
            a.flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NonFiniteValueError(f"f non-finite at entry {i} of array {j}")
            central = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, abs(g.flat[i] - central) / max(1.0, abs(central)))
    return worst
