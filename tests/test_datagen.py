import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import helpers
from rewardlab import datagen as dg, evaluation, render, simworld as sw
from rewardlab.config import ExperimentConfig
from rewardlab.errors import (
    ArchetypeUnsupportedError, NonFiniteValueError, ShapeMismatchError, UnknownTaskError,
)

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
        and let go before the next is rolled, bound the memory of a default
        train-set build (about 2.2 MiB); holding every rolled state until
        rendering took about 7 MiB, and holding the last group's states
        while rolling the next batch about 2.5 MiB."""
        tracemalloc.start()
        try:
            evaluation.train_dataset_for(ExperimentConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_human_frames_are_shifted_robot_frames(self):
        cfg = ExperimentConfig()
        _, states = dg.gen_success_trajectory(sw.TASK_OPEN_DRAWER, 0)
        robot = render.render_clips(states[None], cfg.clip_frames)
        human = render.render_clips(states[None], cfg.clip_frames, domain="human")
        assert np.array_equal(human, render.apply_domain_shift(robot))
        assert not np.allclose(human, robot)

    def test_domain_shift_band(self):
        cfg = ExperimentConfig(train_tasks=sw.ALL_TASKS, heldout_tasks=(), seed=5)
        cos = dg.domain_shift_cosine(cfg)  # over DOMAIN_PAIRS = 100 pairs
        assert 0.2 < cos < 0.9

    def test_overflowing_frames_name_the_first_clip(self):
        """A finite but huge noise overflows the human frames to infinity;
        generation refuses them instead of returning them."""
        config = replace(SMALL, human_per_task=2, noise=1e308)
        first = dg.gen_dataset(replace(config, noise=0.0)).clips[0]
        with pytest.raises(NonFiniteValueError,
                           match=rf"^clip 0 \(human success, task {first.task_id}, "
                                 rf"seed {first.seed}\) has non-finite frames$"):
            dg.gen_dataset(config)

    def test_a_non_finite_domain_shift_raises(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NonFiniteValueError, match="domain shift cosine is nan"):
            dg.domain_shift_cosine(replace(SMALL, noise=1e308))

    def test_a_zero_frame_makes_a_nan_mean(self, monkeypatch):
        """A zero frame norm passes the per-pair norm check: its cosine is
        0/0, and the non-finite mean raises."""
        monkeypatch.setattr(dg, "DOMAIN_PAIRS", 2)
        monkeypatch.setattr(render, "render_clips",
                            lambda states, n_frames, *args: np.zeros((len(states), n_frames, 3)))
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteValueError, match=r"^domain shift cosine is nan$"):
            dg.domain_shift_cosine(replace(SMALL, noise=0.0))

    @pytest.mark.parametrize("config", [
        replace(SMALL, train_tasks=(sw.TASK_OPEN_DRAWER,), noise=1e160),
        replace(SMALL, noise=1e200),
    ], ids=["one-task-1e160", "small-1e200"])
    def test_an_overflowing_frame_norm_raises(self, config):
        """The human frames stay finite at this noise, but their norms
        overflow, so each cosine would read num / inf = 0.0."""
        with pytest.raises(NonFiniteValueError, match=r"^domain shift cosine is nan: pair 0 has "
                                                      r"a frame norm that is not finite$"):
            dg.domain_shift_cosine(config)

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


def _policy_blocks(case):
    """Three task-4 starts and the `run_policy` blocks of one bad case."""
    rng = np.random.default_rng(3)
    s0 = np.stack([sw.initial_state_array(sw.TASK_OPEN_DRAWER, rng) for _ in range(3)])
    policy = dg.make_policy(sw.TASK_OPEN_DRAWER, "success")
    return s0, {
        "too_few_rows": [(2, policy, None)],
        "too_many_rows": [(2, policy, None), (2, policy, None)],
        "short_controller_noise": [(3, policy, np.zeros((3, 5, 2)))],
        "replay_without_grip": [(3, None, np.zeros((3, sw.HORIZON, 2)))],
    }[case]


@pytest.mark.parametrize("case, message", [
    ("too_few_rows", r"block sizes \[2\] do not split 3 rows"),
    ("too_many_rows", r"block sizes \[2, 2\] do not split 3 rows"),
    ("short_controller_noise", r"block 0 needs \(3, 60, 2\) noise, got \(3, 5, 2\)"),
    ("replay_without_grip", r"block 0 needs \(3, 60, 3\) noise, got \(3, 60, 2\)"),
], ids=["too_few_rows", "too_many_rows", "short_controller_noise", "replay_without_grip"])
def test_run_policy_rejects_blocks_that_do_not_fit(case, message):
    s0, blocks = _policy_blocks(case)
    with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
        dg.run_policy(s0, blocks)


# groups of two controller kinds: task 4's three scripted styles with a wander
# group between them (the drawer rows are not contiguous), and cup tasks 1 and
# 3, which carry along different axes under one kind
MERGED_GROUPS = [
    (sw.TASK_OPEN_DRAWER, "success"), (sw.TASK_OPEN_DRAWER, "wander"),
    (sw.TASK_OPEN_DRAWER, "revert"), (sw.TASK_OPEN_DRAWER, "incomplete"),
    (sw.TASK_CUP_AWAY, "revert"), (sw.TASK_CUP_LEFT_TO_RIGHT, "success"),
    (sw.TASK_CUP_AWAY, "incomplete"), (sw.TASK_CUP_LEFT_TO_RIGHT, "revert"),
]


class TestMergedControllerKinds:
    """Each step makes one controller call per kind over the rows of all its
    groups, and a group rolls bit for bit as it does alone."""

    def test_one_call_per_kind_per_step_and_each_block_as_alone(self, monkeypatch):
        calls = Counter()
        for name in ("_drawer", "_cup_carry"):  # before make_policy takes them
            def counted(*args, kind=getattr(dg, name)):
                calls[kind.__name__] += 1
                return kind(*args)
            monkeypatch.setattr(dg, name, counted)
        rng = np.random.default_rng(21)
        s0, blocks = [], []
        for i, (task_id, style) in enumerate(MERGED_GROUPS):
            n = 2 + i % 3  # blocks of unequal sizes
            starts = [sw.initial_state_array(task_id, rng) for _ in range(n)]
            s0 += starts
            if style == "wander":
                acts = np.stack([helpers.ref_wander_actions(task_id, s, rng) for s in starts])
                blocks.append((n, None, acts))
            else:
                noise = rng.uniform(-dg.ACTION_NOISE, dg.ACTION_NOISE, (n, sw.HORIZON, 2))
                blocks.append((n, dg.make_policy(task_id, style), noise))
        dg.run_policy(np.stack(s0), blocks)
        assert calls == {"_drawer": sw.HORIZON, "_cup_carry": sw.HORIZON}
        # and with a noiseless block among the noisy ones of its kind
        for case in (blocks, [(2, blocks[0][1], None)] + blocks[1:]):
            actions, states = dg.run_policy(np.stack(s0), case)
            start = 0
            for block in case:
                rows = slice(start, start + block[0])
                start = rows.stop
                alone = dg.run_policy(np.stack(s0[rows]), [block])
                assert actions[rows].tobytes() == alone[0].tobytes()
                assert states[rows].tobytes() == alone[1].tobytes()

    def test_each_group_rolls_as_alone(self):
        groups = [(task_id, style, [[task_id, i, 5] for i in range(2 + g % 3)])
                  for g, (task_id, style) in enumerate(MERGED_GROUPS)]
        for group, together in zip(groups, dg.roll_groups(groups)):
            alone = dg.roll_groups([group])[0]
            for got, want in zip(together[:3], alone[:3]):
                assert got.tobytes() == want.tobytes()
            assert ([rng.bit_generator.state for rng in together[3]]
                    == [rng.bit_generator.state for rng in alone[3]])


@pytest.mark.parametrize("task_id, style, error, message", [
    (sw.TASK_OPEN_DRAWER, "explode", ArchetypeUnsupportedError,
     "no scripted 'explode' controller for task 4"),
    (sw.TASK_OPEN_DRAWER, "wander", ArchetypeUnsupportedError,
     "no scripted 'wander' controller for task 4"),
    (sw.TASK_FAUCET, "revert", ArchetypeUnsupportedError,
     "no scripted 'revert' controller for task 2"),
    (sw.TASK_POKE_CUP, "incomplete", ArchetypeUnsupportedError,
     "no scripted 'incomplete' controller for task 6"),
    (99, "success", UnknownTaskError, "no task with id 99"),
], ids=["unknown-style", "wander", "faucet-revert", "poke-incomplete", "unknown-task"])
def test_make_policy_raises_typed_errors(task_id, style, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        dg.make_policy(task_id, style)


def test_roll_groups_refuses_an_unknown_archetype_before_rolling(monkeypatch):
    monkeypatch.setattr(dg, "run_policy", None)  # any rollout would fail differently
    with pytest.raises(ArchetypeUnsupportedError, match="^no scripted 'explode' controller"):
        dg.roll_groups([(sw.TASK_OPEN_DRAWER, "success", [0]), (sw.TASK_CLOSE_DRAWER, "explode", [1])])


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
