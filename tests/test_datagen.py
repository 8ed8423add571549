import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rewardlab import datagen as dg, evaluation, render, simworld as sw
from rewardlab.config import ExperimentConfig
from rewardlab.errors import ArchetypeUnsupportedError, BadConfigError

SMALL = ExperimentConfig(
    train_tasks=(sw.TASK_CLOSE_DRAWER, sw.TASK_FAUCET, sw.TASK_POKE_CUP),
    heldout_tasks=(),
    human_per_task=4,
    robot_success_per_task=3,
    robot_failure_per_task=4,
    seed=7,
)


@pytest.fixture(scope="module")
def small_dataset():
    return dg.gen_dataset(SMALL)


def clips_of(dataset, domain, task_id=None, success=None):
    return [
        c for c in dataset.clips
        if c.domain == domain and task_id in (None, c.task_id) and success in (None, c.success)
    ]


class TestGenDataset:
    def test_counts_match_config(self, small_dataset):
        for task in SMALL.train_tasks:
            assert len(clips_of(small_dataset, "human", task)) == 4
            assert len(clips_of(small_dataset, "robot", task, success=1)) == 3
            assert len(clips_of(small_dataset, "robot", task, success=0)) == 4

    def test_human_clips_always_successful(self, small_dataset):
        for clip in clips_of(small_dataset, "human"):
            assert clip.success == 1
            assert clip.failure_archetype is None

    def test_failures_carry_archetypes(self, small_dataset):
        for clip in clips_of(small_dataset, "robot", success=0):
            assert clip.failure_archetype in dg.ARCHETYPES
            assert (clip.task_id, clip.failure_archetype) not in dg.UNSUPPORTED

    def test_deterministic_per_seed(self):
        a = dg.gen_dataset(SMALL)
        b = dg.gen_dataset(SMALL)
        assert len(a) == len(b)
        for ca, cb in zip(a.clips, b.clips):
            assert np.array_equal(ca.frames, cb.frames)
            assert (ca.domain, ca.task_id, ca.success, ca.failure_archetype, ca.seed) == (
                cb.domain, cb.task_id, cb.success, cb.failure_archetype, cb.seed
            )

    def test_robot_tasks_subset_respected(self):
        cfg = ExperimentConfig(
            train_tasks=(4,), heldout_tasks=(0,), human_per_task=2,
            robot_success_per_task=2, robot_failure_per_task=2, seed=1,
        )
        ds = dg.gen_dataset(cfg)
        assert len(clips_of(ds, "robot", 0)) == 0
        assert len(clips_of(ds, "robot", 4)) == 4
        assert len(clips_of(ds, "human", 0)) == 2

    def test_rolled_states_are_rendered_batch_by_batch(self):
        """Lockstep batches of at most BATCH_CLIPS clips, each rendered
        before the next is rolled, bound the memory of a default train-set
        build (about 2 MiB); holding every rolled state until rendering
        took about 7 MiB."""
        tracemalloc.start()
        try:
            evaluation.train_dataset_for(ExperimentConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_human_frames_are_shifted_robot_frames(self):
        cfg = ExperimentConfig()
        _, states = dg.gen_success_trajectory(sw.TASK_OPEN_DRAWER, 0)
        robot = render.render_clips(states[None], cfg.clip_frames)
        human = render.render_clips(states[None], cfg.clip_frames, domain="human")
        assert np.array_equal(human, render.apply_domain_shift(robot))
        assert not np.allclose(human, robot)

    def test_domain_shift_band(self):
        cfg = ExperimentConfig(train_tasks=sw.ALL_TASKS, heldout_tasks=(), seed=5)
        cos = dg.domain_shift_cosine(cfg, n_pairs=100)
        assert 0.2 < cos < 0.9

    @pytest.mark.parametrize("variant", sorted(set(render.VARIANTS) - {"train"}))
    def test_a_variant_moves_only_the_robot_clips_it_renders(self, small_dataset, variant):
        """env_variant reaches the eval set's robot clips; the training set
        and every human clip stay as rendered in `train`."""
        moved = dg.gen_dataset(SMALL, variant=variant)
        for clip, base in zip(moved.clips, small_dataset.clips):
            assert (clip.domain, clip.task_id, clip.success, clip.seed) == (
                base.domain, base.task_id, base.success, base.seed)
            assert np.array_equal(clip.frames, base.frames) == (clip.domain == "human")
        config = replace(SMALL, heldout_tasks=(sw.TASK_OPEN_DRAWER,),
                         eval_success_per_task=2, eval_failure_per_task=2)
        shifted = replace(config, env_variant=variant)
        assert np.array_equal(evaluation.train_dataset_for(shifted).frames_array(),
                              evaluation.train_dataset_for(config).frames_array())
        base_eval, moved_eval = (evaluation.eval_dataset_for(c) for c in (config, shifted))
        assert {c.domain for c in moved_eval.clips} == {"robot"}
        assert [c.seed for c in moved_eval.clips] == [c.seed for c in base_eval.clips]
        for clip, base in zip(moved_eval.clips, base_eval.clips):
            assert not np.array_equal(clip.frames, base.frames)

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_domain_shift_needs_a_pair(self, n_pairs):
        with pytest.raises(BadConfigError, match="n_pairs"):
            dg.domain_shift_cosine(SMALL, n_pairs=n_pairs)


class TestFailureTrajectories:
    @pytest.mark.parametrize("task", sw.ALL_TASKS)
    @pytest.mark.parametrize("archetype", dg.ARCHETYPES)
    def test_archetype_semantics(self, task, archetype):
        if (task, archetype) in dg.UNSUPPORTED:
            with pytest.raises(ArchetypeUnsupportedError):
                dg.gen_failure_trajectory(task, archetype, seed=0)
            return
        for seed in range(3):
            _, states = dg.gen_failure_trajectory(task, archetype, [task, seed])
            flags = sw.prefix_success_flags(task, states)
            contact = bool(np.any(sw.target_contact_mask(task, states)))
            assert not flags[-1]
            if archetype == "wander":
                assert not contact
            elif archetype == "revert":
                assert bool(np.any(flags[:-1]))
            else:
                assert contact and not np.any(flags)

    def test_wander_on_drawer_leaves_extension(self):
        _, states = dg.gen_failure_trajectory(sw.TASK_CLOSE_DRAWER, "wander", seed=11)
        assert np.all(states[:, sw.EXT] == sw.DRAWER_MAX)

    def test_revert_on_drawer_closes_then_reopens(self):
        _, states = dg.gen_failure_trajectory(sw.TASK_CLOSE_DRAWER, "revert", seed=12)
        assert states[:, sw.EXT].min() < sw.DRAWER_CLOSED_BELOW
        assert states[-1, sw.EXT] >= sw.DRAWER_CLOSED_BELOW

    def test_incomplete_on_faucet_never_turns(self):
        _, states = dg.gen_failure_trajectory(sw.TASK_FAUCET, "incomplete", seed=13)
        assert np.all(states[:, sw.ANGLE] <= sw.FAUCET_MIN_TURN)
        assert np.any(sw.target_contact_mask(sw.TASK_FAUCET, states))

    def test_unknown_archetype(self):
        with pytest.raises(ArchetypeUnsupportedError):
            dg.gen_failure_trajectory(0, "explode", seed=0)


class TestLabelsMatchPredicates:
    def test_generator_labels_agree_with_simulator(self, small_dataset):
        # cross-module check via fresh trajectories (clips only store frames)
        for task in SMALL.train_tasks:
            for i in range(3):
                _, states = dg.gen_success_trajectory(task, [task, 70 + i])
                assert sw.success_states(task, states)


class TestSourceMixtures:
    def test_single_source_plans(self):
        plan_r = dg._failure_archetype_plan(0, 6, ("random",))
        assert plan_r == ["wander"] * 6
        plan_n = dg._failure_archetype_plan(0, 6, ("near_success",))
        assert set(plan_n) == {"revert", "incomplete"} and "wander" not in plan_n

    def test_both_sources_half_random(self):
        plan = dg._failure_archetype_plan(0, 8, dg.FAILURE_SOURCES)
        assert plan.count("wander") == 4
        assert {a for a in plan if a != "wander"} == {"revert", "incomplete"}

    def test_unsupported_archetypes_redistributed(self):
        plan_f = dg._failure_archetype_plan(sw.TASK_FAUCET, 6, ("near_success",))
        assert set(plan_f) == {"incomplete"}
        plan_p = dg._failure_archetype_plan(sw.TASK_POKE_CUP, 6, ("near_success",))
        assert set(plan_p) == {"revert"}
