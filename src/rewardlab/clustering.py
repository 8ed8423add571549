"""Spherical k-means over unit-norm failure embeddings, plus the
cross-epoch cluster alignment that keeps pseudo-labels stable.

The objective minimized is mean_i ( -v_i . c_{q_i} ), i.e. negative mean
cosine to the assigned center; centers are normalized member means. The
alternation never increases the objective, so each restart scores only
its converged state.

Alignment between consecutive epochs is an optimal assignment on the
K x K center-similarity matrix (the Hungarian method, `max_weight_matching`);
new centers and labels are then relabeled so index k keeps tracking one
failure theme.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadClusterIndexError, NonFiniteValueError, ShapeMismatchError, TooFewSamplesError,
    ZeroVectorError,
)

MAX_ITERS = 100
N_RESTARTS = 10


@dataclass
class ClusterState:
    centers: np.ndarray          # (K, D), unit rows
    assignments: np.ndarray      # (M,)
    objective: float             # in [-1, 1]


def assign_pseudo_labels(centers: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Argmax-cosine assignment; ties resolve to the lowest cluster index."""
    sims = np.asarray(features, dtype=np.float64) @ np.asarray(centers, dtype=np.float64).T
    return np.argmax(sims, axis=1)


def clustering_objective(features, centers, assignments) -> float:
    sims = np.sum(features * centers[assignments], axis=1)
    return float(-np.mean(sims))


def _kmeanspp_init(features: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding with cosine distance (1 - similarity)."""
    m = features.shape[0]
    centers = np.empty((k, features.shape[1]))
    centers[0] = features[rng.integers(m)]
    for j in range(1, k):
        sims = features @ centers[:j].T
        dist = np.maximum(1.0 - sims.max(axis=1), 0.0)
        weights = dist**2
        total = weights.sum()
        if total <= 0.0:
            centers[j] = features[rng.integers(m)]
        else:
            centers[j] = features[rng.choice(m, p=weights / total)]
    return centers


def _update_centers(features, assignments, centers):
    """Normalized member means; empty clusters steal the worst-fit point."""
    k = centers.shape[0]
    new = centers.copy()
    counts = np.bincount(assignments, minlength=k)
    for j in range(k):
        if counts[j] == 0:
            continue
        mean = features[assignments == j].sum(axis=0)
        norm = np.linalg.norm(mean)
        if norm > 1e-12:
            new[j] = mean / norm
        # antipodal members cancel out; keep the previous center then
    # no point sits in an empty cluster, so one worst-fit order serves them
    # all: the empty clusters, ascending, take its first rows in turn
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        fit = np.sum(features * new[assignments], axis=1)
        new[empty] = features[np.argsort(fit, kind="stable")[:len(empty)]]
    return new


def spherical_kmeans(features: np.ndarray, k: int, seed: int = 0) -> ClusterState:
    """Cluster M unit vectors into k groups by cosine similarity.

    Deterministic given the seed; N_RESTARTS restarts (seeded independently)
    of at most MAX_ITERS iterations keep the run with the lowest converged
    objective.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeMismatchError(f"features of shape {features.shape}, expected (M, D)")
    m = features.shape[0]
    if m < k:
        raise TooFewSamplesError(f"{m} samples < {k} clusters")
    if k < 1:
        raise TooFewSamplesError("need k >= 1")
    if not np.isfinite(features).all():
        raise NonFiniteValueError("features hold NaN or infinity")
    norms = np.linalg.norm(features, axis=1)
    if np.any(norms <= 1e-12):
        raise ZeroVectorError("features must be nonzero unit vectors")

    best = None
    for restart in range(N_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        centers = _kmeanspp_init(features, k, rng)
        labels = assign_pseudo_labels(centers, features)
        for _ in range(MAX_ITERS):
            centers = _update_centers(features, labels, centers)
            new_labels = assign_pseudo_labels(centers, features)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        state = ClusterState(
            centers=centers,
            assignments=labels,
            objective=clustering_objective(features, centers, labels),
        )
        if best is None or state.objective < best.objective - 1e-15:
            best = state
    return best


def max_weight_matching(weights: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square matrix, maximizing the summed
    weight: the Kuhn-Munkres (Hungarian) method with row and column
    potentials, one shortest augmenting path per row, O(K^3).

    Column K is a virtual start column from which each row's search begins.
    """
    cost = -np.asarray(weights, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeMismatchError(f"weights of shape {cost.shape}, expected a square matrix")
    k = cost.shape[0]
    u = np.zeros(k)                          # row potentials
    v = np.zeros(k + 1)                      # column potentials
    row_of = np.full(k + 1, -1, dtype=np.int64)  # row matched to each column, -1 if free
    for i in range(k):
        row_of[k] = i
        j0 = k
        minv = np.full(k + 1, np.inf)        # smallest reduced cost reaching each column
        way = np.full(k + 1, k, dtype=np.int64)  # previous column on that path
        used = np.zeros(k + 1, dtype=bool)
        while row_of[j0] != -1:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v[:k]
            better = ~used[:k] & (reduced < minv[:k])
            minv[:k][better] = reduced[better]
            way[:k][better] = j0
            j0 = int(np.argmin(np.where(used[:k], np.inf, minv[:k])))
            delta = minv[j0]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j0 != k:                       # augment back to the start column
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    cols = np.empty(k, dtype=np.int64)
    cols[row_of[:k]] = np.arange(k)
    return cols


def align_clusters(prev_centers: np.ndarray, new_centers: np.ndarray) -> np.ndarray:
    """Permutation pi maximizing sum_k prev[k] . new[pi[k]]."""
    prev_centers = np.asarray(prev_centers, dtype=np.float64)
    new_centers = np.asarray(new_centers, dtype=np.float64)
    if prev_centers.shape != new_centers.shape:
        raise ShapeMismatchError(
            f"center sets differ: {prev_centers.shape} vs {new_centers.shape}"
        )
    return max_weight_matching(prev_centers @ new_centers.T)


def relabel_state(state: ClusterState, pi: np.ndarray) -> ClusterState:
    """Apply an alignment permutation of range(K) to centers and assignments;
    any other pi raises BadClusterIndexError."""
    pi = np.asarray(pi)
    k = len(state.centers)
    if pi.shape != (k,) or set(pi.tolist()) != set(range(k)):
        raise BadClusterIndexError(f"{pi.tolist()} is not a permutation of range({k})")
    inverse = np.empty_like(pi)
    inverse[pi] = np.arange(len(pi))
    return ClusterState(
        centers=state.centers[pi],
        assignments=inverse[state.assignments],
        objective=state.objective,
    )


def label_churn(prev_labels: np.ndarray, new_labels: np.ndarray) -> float:
    """Fraction of samples whose pseudo-label changed between epochs."""
    prev_labels = np.asarray(prev_labels)
    new_labels = np.asarray(new_labels)
    if prev_labels.shape != new_labels.shape:
        raise ShapeMismatchError("label vectors differ in length")
    if prev_labels.size == 0:
        return 0.0
    return float(np.mean(prev_labels != new_labels))
