"""Shared test utilities: simulator state rows, random episodes, batch
builders and independent loss oracles.

The oracles transcribe the loss definitions directly in high-precision
arithmetic (mpmath, explicit exp ratios, no log-sum-exp rearrangement) so
they share no code path with the implementation.
"""

import mpmath
import numpy as np

from rewardlab import dynamics as dyn, simworld as sw
from rewardlab.embeddings import l2_normalize_rows
from rewardlab.losses import Batch

mpmath.mp.dps = 40


def _mp(x):
    return mpmath.mpf(repr(float(x)))


def sim_state(gripper=(0.5, 0.5), grip=0.0, ext=sw.DRAWER_MAX, angle=0.0, cup=sw.CUP_NOMINAL):
    """One (7,) simulator state; the defaults put the gripper mid-table with
    the drawer fully out and the cup at its nominal spot."""
    return np.array([*gripper, grip, ext, angle, *cup], dtype=np.float64)


def random_episodes(n_episodes, seed):
    """The (N, H+1, 7) states and (N, H, 3) actions of
    `dynamics.random_episode_blocks`, concatenated."""
    return tuple(np.concatenate(part) for part in zip(*dyn.random_episode_blocks(n_episodes, seed)))


def ref_clip_seed(master, stream, task_id, index):
    """A dataset clip's integer seed, from NumPy's SeedSequence itself:
    [master, stream, task, index] hashed to one uint64."""
    return int(np.random.SeedSequence([master, stream, task_id, index]).generate_state(1, np.uint64)[0])


def ref_wander_actions(task_id, s0, rng):
    """One wander clip's (H, 3) random actions from its (7,) start, biased
    away from the task object for 8 steps."""
    actions = sw.random_action_array(rng, 1, sw.HORIZON)[0]
    away = s0[[sw.GX, sw.GY]] - sw.target_points(task_id, s0)
    norm = np.linalg.norm(away)
    if norm > 1e-9:
        away = away / norm * sw.VEL_LIMIT
        actions[:8, 0] = np.clip(away[0] + actions[:8, 0] * 0.3, -sw.VEL_LIMIT, sw.VEL_LIMIT)
        actions[:8, 1] = np.clip(away[1] + actions[:8, 1] * 0.3, -sw.VEL_LIMIT, sw.VEL_LIMIT)
    return actions


def random_unit_rows(rng, n, d):
    return l2_normalize_rows(rng.normal(size=(n, d)))


def build_random_batch(seed, n_human=3, n_robot=3, n_fail=2, k=3, d=8, n_tasks=2, tau=0.5):
    """Random embedding-level batch with guaranteed nonempty positive sets,
    plus task texts (n_tasks, d) and failure features (n_tasks, k, d).

    The batch's rows are in the encoder's order: n_human human and n_robot
    robot successes, whose tasks come in shuffled pairs, then n_fail
    failures of tasks 0, 1, ... in turn."""
    rng = np.random.default_rng(seed)
    b = n_human + n_robot
    # assign tasks in pairs so every label appears at least twice
    labels = np.array([(i // 2) % n_tasks for i in range(b)])
    rng.shuffle(labels)
    task_texts = random_unit_rows(rng, n_tasks, d)
    batch = Batch(
        videos=random_unit_rows(rng, b + n_fail, d),
        labels=np.concatenate([labels, np.arange(n_fail) % n_tasks]),
        n_human=n_human,
        n_robot=n_robot,
        fail_clusters=np.array([rng.integers(0, k) for _ in range(n_fail)]),
        tau=tau,
    )
    failure_texts = random_unit_rows(rng, n_tasks * k, d).reshape(n_tasks, k, d)
    return batch, task_texts, failure_texts


def successes(batch):
    """The success rows of a Batch: (videos, labels)."""
    n = batch.n_human + batch.n_robot
    return batch.videos[:n], batch.labels[:n]


def failures(batch):
    """The failure rows of a Batch: (videos, labels)."""
    n = batch.n_human + batch.n_robot
    return batch.videos[n:], batch.labels[n:]


def oracle_cross_domain(videos, labels, tau):
    b = len(videos)
    total = mpmath.mpf(0)
    for i in range(b):
        positives = [p for p in range(b) if labels[p] == labels[i]]
        denom = mpmath.fsum(
            mpmath.e ** (_mp(np.dot(videos[i], videos[j])) / _mp(tau))
            for j in range(b)
        )
        anchor = mpmath.mpf(0)
        for p in positives:
            num = mpmath.e ** (_mp(np.dot(videos[i], videos[p])) / _mp(tau))
            anchor += -mpmath.log(num / denom)
        total += anchor / len(positives)
    return float(total)


def oracle_video_text(videos, texts, labels, tau, failure_texts=None):
    b = len(videos)
    total = mpmath.mpf(0)
    for i in range(b):
        num = mpmath.e ** (_mp(np.dot(videos[i], texts[i])) / _mp(tau))
        denom = mpmath.fsum(
            mpmath.e ** (_mp(np.dot(videos[i], texts[j])) / _mp(tau)) for j in range(b)
        )
        if failure_texts is not None:
            for f in failure_texts[int(labels[i])]:
                denom += mpmath.e ** (_mp(np.dot(videos[i], f)) / _mp(tau))
        total += -mpmath.log(num / denom)
        denom2 = mpmath.fsum(
            mpmath.e ** (_mp(np.dot(texts[i], videos[j])) / _mp(tau)) for j in range(b)
        )
        total += -mpmath.log(num / denom2)
    return float(total)


def oracle_bce(videos, texts, outcomes):
    total = mpmath.mpf(0)
    for v, t, r in zip(videos, texts, outcomes):
        p = 1 / (1 + mpmath.e ** (-_mp(np.dot(v, t))))
        total += -(_mp(r) * mpmath.log(p) + _mp(1 - r) * mpmath.log(1 - p))
    return float(total)


def oracle_failure_prompt(fail_videos, fail_labels, fail_clusters, task_texts, failure_texts, tau):
    total = mpmath.mpf(0)
    for v, task, k_star in zip(fail_videos, fail_labels, fail_clusters):
        task = int(task)
        block = failure_texts[task]
        num = mpmath.e ** (_mp(np.dot(v, block[int(k_star)])) / _mp(tau))
        denom = mpmath.e ** (_mp(np.dot(v, task_texts[task])) / _mp(tau))
        for f in block:
            denom += mpmath.e ** (_mp(np.dot(v, f)) / _mp(tau))
        total += -mpmath.log(num / denom)
    return float(total)
