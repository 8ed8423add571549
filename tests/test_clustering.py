import itertools
import math

import numpy as np
import pytest

import helpers
from rewardlab import clustering as cl
from rewardlab.errors import (
    BadClusterIndexError, NonFiniteValueError, ShapeMismatchError, TooFewSamplesError,
    ZeroVectorError,
)


def brute_force_optimum(features, k):
    """Global minimum of the clustering objective over all k^M labelings."""
    m = features.shape[0]
    best = np.inf
    for labeling in itertools.product(range(k), repeat=m):
        labels = np.array(labeling)
        total = 0.0
        for j in range(k):
            members = features[labels == j]
            if len(members) == 0:
                continue
            mean = members.sum(axis=0)
            norm = np.linalg.norm(mean)
            if norm <= 1e-12:
                # antipodal group: best unit center gives zero mean similarity
                continue
            total += float(members @ (mean / norm)).real if members.ndim == 1 else float(
                np.sum(members @ (mean / norm))
            )
        best = min(best, -total / m)
    return best


def unit_circle(degrees):
    rad = np.deg2rad(degrees)
    return np.stack([np.cos(rad), np.sin(rad)], axis=1)


class TestSphericalKmeans:
    def test_each_point_its_own_center_when_m_equals_k(self):
        rng = np.random.default_rng(0)
        feats = helpers.random_unit_rows(rng, 3, 4)
        state = cl.spherical_kmeans(feats, k=3, seed=1)
        assert state.objective == pytest.approx(-1.0, abs=1e-12)
        assert sorted(state.assignments.tolist()) == [0, 1, 2]

    def test_duplicated_groups_recover_their_vectors(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        feats = np.stack([a, a, a, b, b])
        state = cl.spherical_kmeans(feats, k=2, seed=3)
        assert state.objective == pytest.approx(-1.0, abs=1e-12)
        centers = {tuple(np.round(c, 9)) for c in state.centers}
        assert centers == {(1.0, 0.0), (0.0, 1.0)}

    def test_four_point_two_cluster_example(self):
        feats = unit_circle([0.0, 10.0, 180.0, 190.0])
        state = cl.spherical_kmeans(feats, k=2, seed=0)
        expected = -math.cos(math.radians(5.0))
        assert state.objective == pytest.approx(expected, abs=1e-9)
        assert state.objective == pytest.approx(brute_force_optimum(feats, 2), abs=1e-9)
        labels = state.assignments
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_objective_history_non_increasing(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            feats = helpers.random_unit_rows(rng, 8, 3)
            state = cl.spherical_kmeans(feats, k=3, seed=seed)
            diffs = np.diff(state.objective_history)
            assert np.all(diffs <= 1e-12)

    def test_fixed_point_condition(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            feats = helpers.random_unit_rows(rng, 7, 4)
            state = cl.spherical_kmeans(feats, k=3, seed=seed)
            again = cl.assign_pseudo_labels(state.centers, feats)
            assert np.array_equal(again, state.assignments)
            assert np.allclose(np.linalg.norm(state.centers, axis=1), 1.0, atol=1e-6)

    def test_matches_brute_force_on_most_seeded_instances(self):
        matches, total = 0, 20
        for seed in range(total):
            rng = np.random.default_rng([7, seed])
            m = int(rng.integers(3, 9))
            k = int(rng.integers(2, 4))
            k = min(k, m)
            feats = helpers.random_unit_rows(rng, m, 3)
            state = cl.spherical_kmeans(feats, k=k, seed=seed)
            # never better than the enumerated optimum, usually equal
            opt = brute_force_optimum(feats, k)
            assert state.objective >= opt - 1e-9
            if abs(state.objective - opt) < 1e-9:
                matches += 1
        assert matches >= int(0.9 * total)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        feats = helpers.random_unit_rows(rng, 8, 4)
        a = cl.spherical_kmeans(feats, k=3, seed=9)
        b = cl.spherical_kmeans(feats, k=3, seed=9)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.assignments, b.assignments)

    def test_duplicates_leave_clusters_empty_and_reseed_them(self, monkeypatch):
        # [a, a, a, b] at k = 4: k-means++ runs out of distinct points and
        # draws uniformly, two clusters stay empty, and each is reseeded
        # with a worst-fit point
        a, b = np.eye(2)
        feats = np.stack([a, a, a, b])
        update, calls = cl._update_centers, []

        def spy(features, assignments, centers):
            calls.append((assignments.copy(), update(features, assignments, centers)))
            return calls[-1][1]

        monkeypatch.setattr(cl, "_update_centers", spy)
        state = cl.spherical_kmeans(feats, k=4, seed=0)
        assignments, centers = calls[0]
        assert assignments.tolist() == [1, 1, 1, 0]
        assert np.array_equal(centers, np.stack([b, a, a, a]))
        assert state.assignments.tolist() == [1, 1, 1, 0] and state.objective == -1.0

    def test_empty_clusters_take_distinct_worst_fit_points(self):
        # one cluster holds all four points; its center is at 33.3 degrees,
        # so the 90-degree point fits worst and the 0-degree point next
        feats = unit_circle([0.0, 20.0, 30.0, 90.0])
        centers = cl._update_centers(feats, np.zeros(4, dtype=np.int64), np.tile(feats[1], (3, 1)))
        assert np.array_equal(centers[1:], feats[[3, 0]])

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            cl.spherical_kmeans(np.eye(2), k=3, seed=0)

    def test_no_clusters(self):
        with pytest.raises(TooFewSamplesError, match="k >= 1"):
            cl.spherical_kmeans(np.eye(2), k=0, seed=0)

    def test_a_zero_feature(self):
        with pytest.raises(ZeroVectorError):
            cl.spherical_kmeans(np.array([[1.0, 0.0], [0.0, 0.0]]), k=1, seed=0)

    def test_features_must_be_a_matrix(self):
        with pytest.raises(ShapeMismatchError):
            cl.spherical_kmeans(np.ones(4), k=2, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features(self, bad):
        with pytest.raises(NonFiniteValueError):
            cl.spherical_kmeans(np.full((5, 3), bad), k=2, seed=0)
        feats = helpers.random_unit_rows(np.random.default_rng(0), 5, 3)
        feats[2, 1] = bad
        with pytest.raises(NonFiniteValueError):
            cl.spherical_kmeans(feats, k=2, seed=0)


class TestAssignPseudoLabels:
    def test_feature_equal_to_center(self):
        centers = np.eye(3)
        assert cl.assign_pseudo_labels(centers, np.eye(3)[2][None])[0] == 2

    def test_tie_breaks_to_lowest_index(self):
        centers = np.stack([np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])])
        tied = np.array([[1.0, 0.0]])
        assert cl.assign_pseudo_labels(centers, tied)[0] == 0
        diag = np.array([[np.sqrt(0.5), np.sqrt(0.5)]])
        assert cl.assign_pseudo_labels(centers, diag)[0] == 0

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(8)
        centers = helpers.random_unit_rows(rng, 4, 5)
        feats = helpers.random_unit_rows(rng, 20, 5)
        got = cl.assign_pseudo_labels(centers, feats)
        for i in range(20):
            sims = [float(feats[i] @ c) for c in centers]
            assert got[i] == int(np.argmax(sims))


class TestAlignClusters:
    def test_identity(self):
        rng = np.random.default_rng(1)
        c = helpers.random_unit_rows(rng, 3, 6)
        assert np.array_equal(cl.align_clusters(c, c), np.arange(3))

    def test_swap_recovered(self):
        rng = np.random.default_rng(2)
        c = helpers.random_unit_rows(rng, 3, 6)
        swapped = c[[1, 0, 2]]
        assert np.array_equal(cl.align_clusters(c, swapped), np.array([1, 0, 2]))

    def test_matches_exhaustive_search(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            prev = helpers.random_unit_rows(rng, 3, 4)
            new = helpers.random_unit_rows(rng, 3, 4)
            pi = cl.align_clusters(prev, new)
            sims = prev @ new.T
            best_perm, best_score = None, -np.inf
            for perm in itertools.permutations(range(3)):
                score = sum(sims[i, perm[i]] for i in range(3))
                if score > best_score:
                    best_perm, best_score = perm, score
            got_score = sum(sims[i, pi[i]] for i in range(3))
            assert got_score == pytest.approx(best_score, abs=1e-12)
            assert tuple(pi) == best_perm

    def test_planted_permutations_recovered(self):
        trials = 0
        rng = np.random.default_rng(42)
        while trials < 50:
            k = int(rng.integers(2, 5))
            centers = helpers.random_unit_rows(rng, k, 8)
            sims = centers @ centers.T
            off_diag = np.abs(sims[~np.eye(k, dtype=bool)])
            if np.any(off_diag >= 0.99):
                continue
            pi_true = rng.permutation(k)
            new = np.empty_like(centers)
            new[pi_true] = centers  # old theme k now lives at new index pi[k]
            assert np.array_equal(cl.align_clusters(centers, new), pi_true)
            trials += 1

    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            cl.align_clusters(np.eye(3), np.eye(2))


def brute_force_matching(weights):
    """(best total, every permutation reaching it) over all K! assignments."""
    k = weights.shape[0]
    perms = np.array(list(itertools.permutations(range(k))))
    totals = weights[np.arange(k), perms].sum(axis=1)
    best = totals.max()
    return best, {tuple(p) for p in perms[np.isclose(totals, best, rtol=0, atol=1e-9)]}


class TestMaxWeightMatching:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_brute_force(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            weights = rng.normal(size=(k, k))
            best, argbest = brute_force_matching(weights)
            cols = cl.max_weight_matching(weights)
            assert argbest == {tuple(cols)}
            assert weights[np.arange(k), cols].sum() == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_ties_reach_the_optimal_total(self, k):
        rng = np.random.default_rng(100 + k)
        cases = [np.zeros((k, k)), np.ones((k, k)), np.eye(k)[::-1] + np.eye(k)]
        cases += [rng.integers(0, 3, size=(k, k)).astype(float) for _ in range(20)]
        for weights in cases:
            best, argbest = brute_force_matching(weights)
            cols = cl.max_weight_matching(weights)
            assert sorted(cols.tolist()) == list(range(k))
            assert tuple(cols) in argbest
            assert weights[np.arange(k), cols].sum() == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_weights_must_be_square(self, shape):
        with pytest.raises(ShapeMismatchError):
            cl.max_weight_matching(np.zeros(shape))

    def test_planted_permutation_at_k20_has_no_improving_swap(self):
        k = 20   # the default robot_failure_per_task
        rng = np.random.default_rng(7)
        for _ in range(5):
            centers = helpers.random_unit_rows(rng, k, 32)
            pi_true = rng.permutation(k)
            new = np.empty_like(centers)
            new[pi_true] = centers + 0.05 * rng.normal(size=centers.shape)
            new /= np.linalg.norm(new, axis=1, keepdims=True)
            assert np.array_equal(cl.align_clusters(centers, new), pi_true)
            weights = rng.normal(size=(k, k))
            cols = cl.max_weight_matching(weights)
            total = weights[np.arange(k), cols].sum()
            for a, b in itertools.combinations(range(k), 2):
                swapped = cols.copy()
                swapped[[a, b]] = swapped[[b, a]]
                assert weights[np.arange(k), swapped].sum() <= total + 1e-12


class TestRelabel:
    def test_relabel_tracks_theme(self):
        rng = np.random.default_rng(3)
        feats = helpers.random_unit_rows(rng, 9, 4)
        state = cl.spherical_kmeans(feats, k=3, seed=0)
        pi = np.array([2, 0, 1])
        moved = cl.relabel_state(state, pi)
        # center k of the relabeled state is old center pi[k]
        for k in range(3):
            assert np.array_equal(moved.centers[k], state.centers[pi[k]])
        # every sample still points at the same physical center
        for i in range(9):
            assert np.array_equal(
                moved.centers[moved.assignments[i]], state.centers[state.assignments[i]]
            )

    @pytest.mark.parametrize("pi", [[0, 0, 1], [0, 1], [0, 1, 3], [[2, 0, 1]]])
    def test_pi_must_be_a_permutation_of_the_clusters(self, pi):
        # [0, 0, 1] used to leave one inverse entry uninitialised
        state = cl.spherical_kmeans(np.eye(3), k=3, seed=0)
        with pytest.raises(BadClusterIndexError):
            cl.relabel_state(state, np.array(pi))

    def test_label_churn(self):
        assert cl.label_churn(np.array([0, 1, 2]), np.array([0, 2, 2])) == pytest.approx(1 / 3)
        assert cl.label_churn(np.array([], dtype=int), np.array([], dtype=int)) == 0.0
        with pytest.raises(ShapeMismatchError):
            cl.label_churn(np.array([0]), np.array([0, 1]))
