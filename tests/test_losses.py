import dataclasses
import math

import numpy as np
import pytest

import helpers
from rewardlab import losses
from rewardlab.embeddings import finite_diff_grad_check
from rewardlab.errors import (
    BadClusterIndexError,
    BadConfigError,
    EmptyPositiveSetError,
    MissingFailureTextsError,
    NonPositiveTemperatureError,
    ShapeMismatchError,
    UnknownTaskError,
)

LOG2 = math.log(2.0)


class TestCrossDomain:
    def test_two_identical_samples_give_two_log_two(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0]])
        val, _ = losses.cross_domain_loss(v, np.array([7, 7]), tau=1.0)
        assert abs(val - 2 * LOG2) < 1e-9

    def test_large_tau_limit_is_log_b(self):
        rng = np.random.default_rng(0)
        v = helpers.random_unit_rows(rng, 6, 4)
        labels = np.array([0, 0, 1, 1, 2, 2])
        val, _ = losses.cross_domain_loss(v, labels, tau=1e9)
        assert abs(val - 6 * math.log(6)) < 1e-6

    def test_against_direct_evaluation_oracle(self):
        v = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        labels = np.array([0, 0, 1])
        val, _ = losses.cross_domain_loss(v, labels, tau=0.5)
        expected = helpers.oracle_cross_domain(v, labels, 0.5)
        assert abs(val - expected) < 1e-10

    def test_empty_positive_set_with_exclusion(self):
        # each anchor is its own positive: only a NaN label, unequal to
        # itself, excludes its row from every positive set
        v = np.eye(2)
        with pytest.raises(EmptyPositiveSetError, match="anchor 1"):
            losses.cross_domain_loss(v, np.array([0.0, np.nan]), 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        v = helpers.random_unit_rows(rng, 5, 4)
        labels = np.array([0, 0, 1, 1, 0])
        _, grad = losses.cross_domain_loss(v, labels, 0.5)
        err = finite_diff_grad_check(
            lambda v: losses.cross_domain_loss(v, labels, 0.5)[0], [v], [grad]
        )
        assert err < 1e-4


class TestVideoText:
    def test_orthogonal_pairs_frozen_value(self):
        v = np.eye(2)
        val, _ = losses.video_text_loss(v, v, np.array([0, 1]), tau=1.0)
        # each of the four directional terms is -log(e / (e + 1))
        per_term = 0.3132616875182228  # frozen from the mpmath oracle
        assert abs(val - 4 * per_term) < 1e-12
        assert abs(val - helpers.oracle_video_text(v, v, [0, 1], 1.0)) < 1e-10

    def test_uniform_similarities_give_log_b(self):
        d = 6
        v = np.tile(np.eye(1, d), (4, 1))
        val, _ = losses.video_text_loss(v, v, np.arange(4), tau=0.7)
        assert abs(val - 8 * math.log(4)) < 1e-9

    def test_failure_negatives_added_to_video_to_text_only(self):
        v = np.eye(2)
        # K=3 failure features orthogonal to both videos and texts
        fail = np.zeros((2, 3, 2))
        val, _ = losses.video_text_loss(v, v, np.array([0, 1]), 1.0, failure_texts=fail)
        v2t = -math.log(math.e / (math.e + 1 + 3))
        t2v = -math.log(math.e / (math.e + 1))
        assert abs(val - (2 * v2t + 2 * t2v)) < 1e-12
        assert abs(val - helpers.oracle_video_text(v, v, [0, 1], 1.0, fail)) < 1e-10

    def test_missing_failure_texts(self):
        # a row label past the failure table is an unknown task
        v = np.eye(2)
        with pytest.raises(UnknownTaskError):
            losses.video_text_loss(v, v, np.array([0, 5]), 1.0, failure_texts=np.zeros((1, 2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            losses.video_text_loss(np.eye(2), np.eye(3), np.arange(2), 1.0)

    def test_rows_of_tasks_without_pool_get_no_failure_negatives(self):
        rng = np.random.default_rng(3)
        v = helpers.random_unit_rows(rng, 4, 6)
        t = helpers.random_unit_rows(rng, 4, 6)
        labels = np.array([0, 1, 0, 1])
        fail = helpers.random_unit_rows(rng, 6, 6).reshape(2, 3, 6)
        val, grads = losses.video_text_loss(v, t, labels, 0.3, fail, pooled=[True, False])
        oracle_fail = {0: fail[0], 1: np.zeros((0, 6))}
        assert abs(val - helpers.oracle_video_text(v, t, labels, 0.3, oracle_fail)) < 1e-10
        assert np.any(grads["fail_texts"][0]) and not np.any(grads["fail_texts"][1])

    def test_failure_negatives_never_decrease_loss(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            v = helpers.random_unit_rows(rng, 4, 6)
            t = helpers.random_unit_rows(rng, 4, 6)
            labels = np.array([0, 1, 0, 1])
            fail = helpers.random_unit_rows(rng, 6, 6).reshape(2, 3, 6)
            plain, _ = losses.video_text_loss(v, t, labels, 0.3)
            with_fail, _ = losses.video_text_loss(v, t, labels, 0.3, failure_texts=fail)
            assert with_fail >= plain - 1e-12

    @pytest.mark.parametrize("with_fail", [False, True])
    def test_gradient_matches_central_differences(self, with_fail):
        rng = np.random.default_rng(11)
        v = helpers.random_unit_rows(rng, 4, 5)
        t = helpers.random_unit_rows(rng, 4, 5)
        labels = np.array([0, 1, 1, 0])
        fail = helpers.random_unit_rows(rng, 4, 5).reshape(2, 2, 5) if with_fail else None

        def f(v, *fail):
            return losses.video_text_loss(v, t, labels, 0.4, *fail)[0]

        _, grads = losses.video_text_loss(v, t, labels, 0.4, failure_texts=fail)
        arrays, analytic = [v], [grads["videos"]]
        if with_fail:
            arrays.append(fail)
            analytic.append(grads["fail_texts"])
        assert finite_diff_grad_check(f, arrays, analytic) < 1e-4


class TestBce:
    def test_orthogonal_gives_ln2_per_sample(self):
        v = np.array([[1.0, 0.0]])
        t = np.array([[0.0, 1.0]])
        for r in (0.0, 1.0):
            val, _ = losses.bce_loss(v, t, [r])
            assert abs(val - LOG2) < 1e-12

    def test_aligned_pair_values(self):
        v = np.array([[1.0, 0.0]])
        val_hit, _ = losses.bce_loss(v, v, [1.0])
        val_miss, _ = losses.bce_loss(v, v, [0.0])
        assert abs(val_hit - 0.3132616875182228) < 1e-12   # softplus(-1)
        assert abs(val_miss - 1.3132616875182228) < 1e-12  # softplus(+1)
        assert abs(val_hit - helpers.oracle_bce(v, v, [1.0])) < 1e-10
        assert abs(val_miss - helpers.oracle_bce(v, v, [0.0])) < 1e-10

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        v = helpers.random_unit_rows(rng, 5, 4)
        t = helpers.random_unit_rows(rng, 5, 4)
        r = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        _, grad = losses.bce_loss(v, t, r)
        err = finite_diff_grad_check(lambda v: losses.bce_loss(v, t, r)[0], [v], [grad])
        assert err < 1e-4

    def test_soft_outcomes_weigh_both_terms(self):
        # soft outcomes: the value is the docstring's r-weighted sum, the
        # function whose gradient bce_loss returns
        rng = np.random.default_rng(3)
        v = helpers.random_unit_rows(rng, 4, 4)
        t = helpers.random_unit_rows(rng, 4, 4)
        r = np.array([0.5, 0.25, 0.5, 0.75])
        val, grad = losses.bce_loss(v, t, r)
        assert abs(val - helpers.oracle_bce(v, t, r)) < 1e-10
        err = finite_diff_grad_check(lambda v: losses.bce_loss(v, t, r)[0], [v], [grad])
        assert err < 1e-4


class TestFailurePrompt:
    def test_uniform_similarities_give_log_k_plus_one(self):
        d = 8
        v = np.zeros((1, d))
        v[0, 0] = 1.0
        task_texts = np.eye(d)[1:2]
        fail = np.eye(d)[None, 2:5]  # K = 3, all orthogonal to v
        val, _ = losses.failure_prompt_loss(v, [0], [1], task_texts, fail, tau=0.9)
        assert abs(val - math.log(4)) < 1e-9

    def test_aligned_with_assigned_cluster_frozen_value(self):
        d = 5
        v = np.eye(1, d)
        task_texts = np.eye(d)[1:2]
        block = np.vstack([np.eye(d)[0], np.eye(d)[2], np.eye(d)[3]])[None]
        val, _ = losses.failure_prompt_loss(v, [0], [0], task_texts, block, tau=1.0)
        # -log(e / (1 + e + 2)), frozen from the mpmath oracle
        assert abs(val - 0.7436683806286792) < 1e-12
        assert abs(val - helpers.oracle_failure_prompt(v, [0], [0], task_texts, block, 1.0)) < 1e-10

    def test_bad_cluster_index(self):
        v = np.eye(1, 4)
        with pytest.raises(BadClusterIndexError):
            losses.failure_prompt_loss(
                v, [0], [5], np.eye(4)[1:2], np.eye(4)[None, 1:3], 1.0
            )

    def test_failure_row_of_task_without_pool(self):
        v = np.eye(1, 4)
        with pytest.raises(MissingFailureTextsError):
            losses.failure_prompt_loss(
                v, [1], [0], np.eye(4)[:2], np.zeros((2, 2, 4)), 1.0, pooled=[True, False]
            )
        # failure and text tables of different task counts
        with pytest.raises(ShapeMismatchError):
            losses.failure_prompt_loss(v, [2], [0], np.eye(4)[:3], np.zeros((2, 2, 4)), 1.0)
        with pytest.raises(ShapeMismatchError):
            losses.failure_prompt_loss(v, [1], [0], np.eye(4)[:1], np.zeros((2, 2, 4)), 1.0)

    def test_push_pull_direction(self):
        # uniform start: one small step must raise v.t_f(k*) and lower v.t_T
        d = 8
        v = np.zeros((1, d))
        v[0, 0] = 1.0
        task_texts = np.eye(d)[1:2]
        fail = np.eye(d)[None, 2:5]
        _, grads = losses.failure_prompt_loss(v, [0], [1], task_texts, fail, tau=0.5)
        stepped = v[0] - 0.01 * grads["fail_videos"][0]
        assert stepped @ fail[0][1] > v[0] @ fail[0][1]
        assert stepped @ task_texts[0] < v[0] @ task_texts[0]

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(4)
        d = 5
        v = helpers.random_unit_rows(rng, 3, d)
        task_texts = helpers.random_unit_rows(rng, 2, d)
        fail = helpers.random_unit_rows(rng, 4, d).reshape(2, 2, d)
        labels = [0, 1, 0]
        clusters = [1, 0, 0]
        _, grads = losses.failure_prompt_loss(v, labels, clusters, task_texts, fail, 0.4)

        def f(v, fail):
            return losses.failure_prompt_loss(v, labels, clusters, task_texts, fail, 0.4)[0]

        analytic = [grads["fail_videos"], grads["fail_texts"]]
        assert finite_diff_grad_check(f, [v, fail], analytic) < 1e-4


def _relabel(failure, label):
    """An edit of a loss case that sets the label of the first failure row,
    or of the first success row."""
    def edit(batch, task_texts, failure_texts, pooled):
        batch.labels[batch.n_human + batch.n_robot if failure else 0] = label
        return batch, task_texts, failure_texts, pooled
    return edit


def _cluster_k(batch, task_texts, failure_texts, pooled):
    """An edit of a loss case that sets the cluster label of the first
    failure row to K, one past the last failure prompt."""
    batch.fail_clusters[0] = failure_texts.shape[1]
    return batch, task_texts, failure_texts, pooled


def _video_text(batch, task_texts, failure_texts, pooled):
    """The video-text term on the batch's success rows. It takes per-row
    texts, so its rows get any valid text."""
    videos, labels = helpers.successes(batch)
    texts = task_texts[labels % len(task_texts)]
    return losses.video_text_loss(videos, texts, labels, batch.tau, failure_texts, pooled)


# the entry points that take each kind of bad input; total_loss checks the
# label of every row, whichever rows its mode reads
FAILURE_ROWS = ("failure_prompt", "total_no_failure", "total_bce", "total_fvlc")
SUCCESS_ROWS = ("video_text", "total_no_failure", "total_bce", "total_fvlc")
FAILURE_TABLE = ("failure_prompt", "total_fvlc")


class TestOutOfRangeLabels:
    """One rule per bad input, whichever entry point takes it: a task label
    outside [0, T) raises UnknownTaskError (a negative one would otherwise
    index from the end silently), a failure table whose task count differs
    from the text table's ShapeMismatchError, and MissingFailureTextsError
    is only for a failure row whose task has no prompt pool and for fvlc
    mode without failure features."""

    # entry point -> call on (batch, task_texts, failure_texts, pooled)
    ENTRIES = {
        "failure_prompt": lambda b, tt, ft, pooled: losses.failure_prompt_loss(
            *helpers.failures(b), b.fail_clusters, tt, ft, b.tau, pooled),
        "video_text": _video_text,
        **{f"total_{mode}": lambda b, tt, ft, pooled, mode=mode: losses.total_loss(
            b, tt, ft, pooled, mode) for mode in losses.MODES},
    }

    # bad input of the two-task case, whose failure rows are of tasks 0 and
    # 1 -> (edit of (batch, task_texts, failure_texts, pooled), error class,
    # entry points that take it)
    RULES = {
        "failure_label_-1": (_relabel(True, -1), UnknownTaskError, FAILURE_ROWS),
        "failure_label_T": (_relabel(True, 2), UnknownTaskError, FAILURE_ROWS),
        "success_label_-1": (_relabel(False, -1), UnknownTaskError, SUCCESS_ROWS),
        "success_label_T": (_relabel(False, 2), UnknownTaskError, SUCCESS_ROWS),
        "short_failure_table": (lambda b, tt, ft, pooled: (b, tt, ft[:1], pooled),
                                ShapeMismatchError, FAILURE_TABLE),
        "long_failure_table": (lambda b, tt, ft, pooled: (b, tt, np.concatenate([ft, ft]), pooled),
                               ShapeMismatchError, FAILURE_TABLE),
        "failure_cluster_K": (_cluster_k, BadClusterIndexError, FAILURE_TABLE),
        "failure_row_without_pool": (lambda b, tt, ft, pooled: (b, tt, ft, [True, False]),
                                     MissingFailureTextsError, FAILURE_TABLE),
        "fvlc_without_features": (lambda b, tt, ft, pooled: (b, tt, None, pooled),
                                  MissingFailureTextsError, ("total_fvlc",)),
    }

    @pytest.mark.parametrize("bad, entry", [
        (bad, entry) for bad, (_, _, entries) in RULES.items() for entry in entries
    ])
    def test_one_error_class_per_bad_input(self, bad, entry):
        edit, error, _ = self.RULES[bad]
        batch, task_texts, failure_texts = helpers.build_random_batch(11)
        assert helpers.failures(batch)[1].tolist() == [0, 1]
        with pytest.raises(error):
            self.ENTRIES[entry](*edit(batch, task_texts, failure_texts, None))

    def test_failure_prompt_loss_label_past_the_task_texts(self):
        # beside a failure table of another task count the tables disagree
        # first, whatever the label
        v = np.eye(1, 4)
        with pytest.raises(ShapeMismatchError):
            losses.failure_prompt_loss(v, [2], [0], np.eye(4)[:2], np.zeros((3, 2, 4)), 1.0)


class TestPooledMaskLength:
    """The pooled mask has one entry per task: a shorter one used to raise a
    bare IndexError, and a longer one was accepted silently."""

    MASKS = pytest.mark.parametrize("pooled", [[True], [True, True, True]], ids=["short", "long"])

    @MASKS
    def test_total_loss(self, pooled):
        batch, task_texts, failure_texts = helpers.build_random_batch(11)
        with pytest.raises(ShapeMismatchError):
            losses.total_loss(batch, task_texts, failure_texts, pooled, mode="fvlc")

    @MASKS
    def test_video_text_loss(self, pooled):
        batch, task_texts, failure_texts = helpers.build_random_batch(11)
        videos, labels = helpers.successes(batch)
        with pytest.raises(ShapeMismatchError):
            losses.video_text_loss(videos, task_texts[labels], labels, batch.tau,
                                   failure_texts, pooled)

    @MASKS
    def test_failure_prompt_loss(self, pooled):
        batch, task_texts, failure_texts = helpers.build_random_batch(11)
        with pytest.raises(ShapeMismatchError):
            losses.failure_prompt_loss(*helpers.failures(batch), batch.fail_clusters,
                                       task_texts, failure_texts, batch.tau, pooled)


class TestShapes:
    """Batch and each public loss raise ShapeMismatchError for an array of
    another shape than they index; such arrays used to be reshaped or
    broadcast silently, or to fail with numpy's own errors."""

    @staticmethod
    def case(**changes):
        """A two-task batch of 2 human and 2 robot rows, 2 failure rows and
        D = 8, with the texts and failure features for it."""
        batch, task_texts, failure_texts = helpers.build_random_batch(11, n_human=2, n_robot=2)
        fields = dataclasses.asdict(batch)
        fields.update(changes)
        return fields, task_texts, failure_texts

    @pytest.mark.parametrize("changes", [
        {"videos": np.zeros(8)},
        {"labels": [0, 1, 0, 1, 0]},
        {"fail_clusters": [0]},
        {"n_human": -1, "n_robot": 5},
        {"fail_clusters": [[0, 1]]},
    ], ids=["1d_videos", "5_labels", "1_cluster", "negative_count", "2d_clusters"])
    def test_batch(self, changes):
        fields, _, _ = self.case(**changes)
        with pytest.raises(ShapeMismatchError):
            losses.Batch(**fields)

    # each case takes (the success rows, the failure rows, the batch,
    # task_texts, failure_texts); a pair of rows is (videos, labels)
    TERMS = {
        "cross_domain_1d_videos": lambda s, f, b, tt, ft: losses.cross_domain_loss(
            s[0][0], s[1], b.tau),
        "cross_domain_3_labels": lambda s, f, b, tt, ft: losses.cross_domain_loss(
            s[0], s[1][:3], b.tau),
        "video_text_2_labels": lambda s, f, b, tt, ft: losses.video_text_loss(
            s[0], tt[s[1]], s[1][:2], b.tau, ft),
        "video_text_failure_width_5": lambda s, f, b, tt, ft: losses.video_text_loss(
            s[0], tt[s[1]], s[1], b.tau, ft[:, :, :5]),
        "bce_4x2_outcomes": lambda s, f, b, tt, ft: losses.bce_loss(
            s[0], tt[s[1]], np.zeros((4, 2))),
        "failure_prompt_1_cluster": lambda s, f, b, tt, ft: losses.failure_prompt_loss(
            *f, b.fail_clusters[:1], tt, ft, b.tau),
        "failure_prompt_videos_width_5": lambda s, f, b, tt, ft: losses.failure_prompt_loss(
            f[0][:, :5], f[1], b.fail_clusters, tt, ft, b.tau),
        "failure_prompt_texts_width_5": lambda s, f, b, tt, ft: losses.failure_prompt_loss(
            *f, b.fail_clusters, tt[:, :5], ft, b.tau),
    }

    @pytest.mark.parametrize("term", TERMS)
    def test_public_loss(self, term):
        fields, task_texts, failure_texts = self.case()
        batch = losses.Batch(**fields)
        with pytest.raises(ShapeMismatchError):
            self.TERMS[term](helpers.successes(batch), helpers.failures(batch), batch,
                             task_texts, failure_texts)


@pytest.mark.parametrize("tau", [0.0, -0.5])
def test_nonpositive_temperature_rejected(tau):
    v = np.eye(2)
    with pytest.raises(NonPositiveTemperatureError):
        losses.cross_domain_loss(v, np.array([0, 0]), tau)
    with pytest.raises(NonPositiveTemperatureError):
        losses.video_text_loss(v, v, np.array([0, 1]), tau)
    with pytest.raises(NonPositiveTemperatureError):
        losses.failure_prompt_loss(v[:1], [0], [0], v[:1], v[None], tau)


class TestTotalLoss:
    def test_no_failure_is_exact_sum_of_parts(self):
        batch, task_texts, failure_texts = helpers.build_random_batch(0, n_fail=0)
        val, _, comps = losses.total_loss(batch, task_texts, failure_texts, mode="no_failure")
        cdc, _ = losses.cross_domain_loss(batch.videos, batch.labels, batch.tau)
        vlc, _ = losses.video_text_loss(
            batch.videos, task_texts[batch.labels], batch.labels, batch.tau
        )
        assert val == pytest.approx(cdc + vlc, abs=1e-12)
        assert comps["cross_domain"] == cdc and comps["video_text"] == vlc

    def test_fvlc_uniform_case_is_sum_of_uniform_parts(self):
        # identical same-task clips make every similarity group uniform
        d = 12
        batch = losses.Batch(
            videos=np.eye(d)[[0, 0, 4]],
            labels=np.array([0, 0, 0]),
            n_human=1,
            n_robot=1,
            fail_clusters=np.array([2]),
            tau=0.8,
        )
        task_texts = np.eye(d)[2:3]
        failure_texts = np.eye(d)[None, 5:8]
        val, _, comps = losses.total_loss(batch, task_texts, failure_texts, mode="fvlc")
        assert abs(comps["cross_domain"] - 2 * math.log(2)) < 1e-9
        # video->text rows carry the K=3 orthogonal failure negatives
        assert abs(comps["video_text"] - (2 * math.log(5) + 2 * math.log(2))) < 1e-9
        assert abs(comps["failure_prompt"] - math.log(4)) < 1e-9
        assert abs(val - sum(
            (2 * math.log(2), 2 * math.log(5) + 2 * math.log(2), math.log(4))
        )) < 1e-9

    def test_bce_mode_adds_bce_component(self):
        batch, task_texts, failure_texts = helpers.build_random_batch(5)
        val, grads, comps = losses.total_loss(batch, task_texts, failure_texts, mode="bce")
        assert "bce" in comps and comps["bce"] > 0
        # bce reads the failure rows, the last two
        assert np.all(np.any(grads["videos"][-2:] != 0, axis=1))

    @pytest.mark.parametrize("mode, keys", [
        ("no_failure", {"videos"}),
        ("bce", {"videos"}),
        ("fvlc", {"videos", "fail_texts"}),
    ])
    def test_gradients_cover_the_trainable_inputs_only(self, mode, keys):
        # exactly what the training step backprops: one gradient of the
        # batch's rows into the encoder, failure features into the prompt
        # pool; texts are frozen. Rows the mode does not read get zeros.
        batch, task_texts, failure_texts = helpers.build_random_batch(7)
        _, grads, _ = losses.total_loss(batch, task_texts, failure_texts, mode=mode)
        assert set(grads) == keys
        assert grads["videos"].shape == batch.videos.shape
        read = np.any(grads["videos"] != 0, axis=1)
        assert read.tolist() == [True] * 6 + [mode != "no_failure"] * 2
        if "fail_texts" in keys:
            assert grads["fail_texts"].shape == failure_texts.shape

    @pytest.mark.parametrize("mode, terms", [
        ("no_failure", ["cross_domain_loss", "video_text_loss"]),
        ("bce", ["bce_loss", "cross_domain_loss", "video_text_loss"]),
        ("fvlc", ["cross_domain_loss", "failure_prompt_loss", "video_text_loss"]),
    ])
    def test_calls_each_term_of_its_mode_once(self, monkeypatch, mode, terms):
        # one path per term: total_loss composes the public losses and
        # keeps no private copy of a term
        calls = []

        def counted(name, term):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return term(*args, **kwargs)
            return wrapper

        for name in ("cross_domain_loss", "video_text_loss", "bce_loss", "failure_prompt_loss"):
            monkeypatch.setattr(losses, name, counted(name, getattr(losses, name)))
        batch, task_texts, failure_texts = helpers.build_random_batch(4)
        losses.total_loss(batch, task_texts, failure_texts, mode=mode)
        assert sorted(calls) == terms

    @pytest.mark.parametrize("strata", [{"n_human": 0}, {"n_robot": 0}], ids=["no_human", "no_robot"])
    @pytest.mark.parametrize("mode", losses.MODES)
    def test_a_batch_without_one_stratum(self, strata, mode):
        batch, task_texts, failure_texts = helpers.build_random_batch(3, **strata)
        with pytest.raises(EmptyPositiveSetError, match="one human and one robot"):
            losses.total_loss(batch, task_texts, failure_texts, mode=mode)

    def test_unknown_mode(self):
        batch, task_texts, failure_texts = helpers.build_random_batch(6)
        with pytest.raises(BadConfigError):
            losses.total_loss(batch, task_texts, failure_texts, mode="nope")

    @pytest.mark.parametrize("mode", losses.MODES)
    def test_value_matches_oracles_on_random_batches(self, mode):
        for seed in range(6):
            batch, task_texts, failure_texts = helpers.build_random_batch(seed + 20)
            val, _, _ = losses.total_loss(batch, task_texts, failure_texts, mode=mode)
            videos, labels = helpers.successes(batch)
            fail_videos, fail_labels = helpers.failures(batch)
            expected = helpers.oracle_cross_domain(videos, labels, batch.tau)
            expected += helpers.oracle_video_text(
                videos, task_texts[labels], labels, batch.tau,
                failure_texts if mode == "fvlc" else None,
            )
            if mode == "bce":
                robot = slice(batch.n_human, None)
                videos = np.concatenate([videos[robot], fail_videos])
                texts = np.concatenate([
                    task_texts[labels[robot]],
                    np.stack([task_texts[int(t)] for t in fail_labels]),
                ])
                outcomes = [1.0] * batch.n_robot + [0.0] * len(fail_labels)
                expected += helpers.oracle_bce(videos, texts, outcomes)
            elif mode == "fvlc":
                expected += helpers.oracle_failure_prompt(
                    fail_videos, fail_labels, batch.fail_clusters,
                    task_texts, failure_texts, batch.tau,
                )
            assert abs(val - expected) < 1e-9

    @pytest.mark.parametrize("mode", losses.MODES)
    def test_nonnegative_and_finite_across_tau_range(self, mode):
        for tau in (1e-3, 0.07, 1.0, 1e3):
            batch, task_texts, failure_texts = helpers.build_random_batch(9, tau=tau)
            val, grads, _ = losses.total_loss(batch, task_texts, failure_texts, mode=mode)
            assert np.isfinite(val) and val >= 0.0
            assert np.all(np.isfinite(grads["videos"]))
