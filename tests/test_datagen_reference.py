"""Lockstep datagen against the per-clip reference it replaced.

The reference below is the earlier generator: closure controllers that
act on one state at a time with a phase dict, a rollout loop that draws
each step's velocity noise as two scalars, one clip at a time through
`simworld.step_batch` at N=1, and one `render.render_frames` call per
clip. The lockstep core draws the same numbers in
the same order from each clip's Generator and does the same elementwise
arithmetic, so actions, states, attempt counts, the dataset's retry report
and its frames must be equal bit for bit, not within a tolerance.

One known gap: the reference squares distances with the scalar `**`
(libm pow), the lockstep controllers square arrays (exact products), and
the two differ in the last bit for ~0.1% of inputs. That can only flip a
distance test that lands within an ulp of its threshold; none of the cases
here does.

The controllers' action selection, `datagen._act`, fills the default once
and overwrites each case's rows in reverse priority. Its reference is the
earlier chain of `np.where` calls, three per case; the two must pick the
same values bit for bit.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import helpers
from rewardlab import datagen as dg, render, simworld as sw
from rewardlab.config import ExperimentConfig
from rewardlab.errors import GenerationFailedError

STYLES = [
    (task, style)
    for task in sw.ALL_TASKS
    for style in ("success",) + dg.ARCHETYPES
    if (task, style) not in dg.UNSUPPORTED
]


# --- reference: per-clip closure controllers and the scalar-noise loop ---

def _approach(state, target):
    return (
        float(np.clip(target[0] - state[sw.GX], -sw.VEL_LIMIT, sw.VEL_LIMIT)),
        float(np.clip(target[1] - state[sw.GY], -sw.VEL_LIMIT, sw.VEL_LIMIT)),
    )


def _near(state, target, slack=0.035):
    return (state[sw.GX] - target[0]) ** 2 + (state[sw.GY] - target[1]) ** 2 <= slack**2


def _drawer_handle(state):
    return (sw.DRAWER_BASE[0], sw.DRAWER_BASE[1] + state[sw.EXT])


def _cup(state):
    return (state[sw.CUPX], state[sw.CUPY])


def ref_make_policy(task_id: int, style: str):
    """Closed-loop controller returning (vx, vy, grip) per step.

    style is "success" or a failure archetype other than "wander".
    """
    phase = {"n": 0, "mark": 0}

    def drawer(state, t, closing):
        ext = state[sw.EXT]
        handle = _drawer_handle(state)
        do_sign = -1.0 if closing else 1.0
        if style == "success":
            if (ext <= 0.02) if closing else (ext >= 0.045):
                phase["mark"] = 1
            sign = do_sign
        elif style == "revert":
            if phase["n"] == 0 and ((ext <= 0.015) if closing else (ext >= 0.045)):
                phase["n"] = 1
            if phase["n"] == 1 and ((ext >= 0.06) if closing else (ext <= 0.005)):
                phase["mark"] = 1
            sign = do_sign if phase["n"] == 0 else -do_sign
        else:  # incomplete: barely disturb the extension
            if (ext <= 0.058) if closing else (ext >= 0.012):
                phase["mark"] = 1
            sign = do_sign
        if phase["mark"]:
            # retreat off the handle, then idle
            if _near(state, handle, 0.09):
                return (0.05, 0.0, 0.0)
            return (0.0, 0.0, 0.0)
        if not _near(state, handle):
            vx, vy = _approach(state, handle)
            return (vx, vy, 0.0)
        if style == "incomplete":
            # fractional nudge so a single step cannot cross the threshold
            target = 0.056 if closing else 0.014
            return (0.0, float(np.clip(target - ext, -sw.VEL_LIMIT, sw.VEL_LIMIT)), 0.0)
        return (0.0, sign * 0.05, 0.0)

    def faucet(state, t):
        handle = sw.FAUCET_HANDLE
        if style == "success":
            if state[sw.ANGLE] >= 0.08:
                phase["mark"] = 1
            if phase["mark"]:
                if _near(state, handle, 0.09):
                    return (0.0, -0.05, 0.0)
                return (0.0, 0.0, 0.0)
            if not _near(state, handle):
                vx, vy = _approach(state, handle)
                return (vx, vy, 0.0)
            return (0.05 if phase["n"] % 2 == 0 else -0.05, 0.0, 0.0)
        # incomplete: touch, then back straight off without tangential motion
        if _near(state, handle):
            phase["mark"] = 1
        if phase["mark"]:
            if _near(state, handle, 0.09):
                return (0.0, -0.05, 0.0)
            return (0.0, 0.0, 0.0)
        vx, vy = _approach(state, handle)
        return (vx, vy, 0.0)

    def cup_carry(state, t, axis, direction, goal, revert_goal=None, grab=True):
        """Generic carry/push along one axis by a target displacement."""
        cup = _cup(state)
        delta = (cup[axis] - phase.setdefault("cup0", cup[axis])) * direction
        touching = _near(state, cup, sw.CONTACT_RADIUS - 0.005)
        # pushing needs the gripper on the trailing side of the cup
        stand = list(cup)
        if not grab:
            stand[axis] -= direction * 0.03
        if phase["n"] == 0:
            if delta >= goal:
                phase["n"] = 1 if revert_goal is not None else 2
            elif not touching:
                vx, vy = _approach(state, stand)
                return (vx, vy, 1.0 if grab else 0.0)
            else:
                move = [0.0, 0.0]
                move[axis] = direction * 0.05
                return (move[0], move[1], 1.0 if grab else 0.0)
        if phase["n"] == 1:
            if delta <= revert_goal:
                phase["n"] = 2
            else:
                move = [0.0, 0.0]
                move[axis] = -direction * 0.05
                return (move[0], move[1], 1.0)
        # release and retreat away from the cup
        if _near(state, cup, 0.09):
            away_x = -1.0 if cup[0] >= state[sw.GX] else 1.0
            return (away_x * 0.05, 0.0, -1.0)
        return (0.0, 0.0, 0.0)

    def cup_push_tiny(state, t, axis, direction):
        """Incomplete push: one gentle nudge well under the threshold."""
        cup = _cup(state)
        delta = (cup[axis] - phase.setdefault("cup0", cup[axis])) * direction
        touching = _near(state, cup, sw.CONTACT_RADIUS - 0.005)
        stand = list(cup)
        stand[axis] -= direction * 0.03
        if phase["n"] == 0:
            if delta >= 0.015:
                phase["n"] = 1
            elif not touching:
                vx, vy = _approach(state, stand)
                return (vx, vy, 0.0)
            else:
                move = [0.0, 0.0]
                move[axis] = direction * 0.02
                return (move[0], move[1], 0.0)
        if _near(state, cup, 0.09):
            away_x = -1.0 if cup[0] >= state[sw.GX] else 1.0
            return (away_x * 0.05, 0.0, 0.0)
        return (0.0, 0.0, 0.0)

    def poke(state, t):
        cup = _cup(state)
        if style == "success":
            if _near(state, cup, sw.CONTACT_RADIUS - 0.0005):
                phase["mark"] = 1
            if phase["mark"]:
                if _near(state, cup, 0.09):
                    away_x = -1.0 if cup[0] >= state[sw.GX] else 1.0
                    return (away_x * 0.05, 0.0, 0.0)
                return (0.0, 0.0, 0.0)
            vx, vy = _approach(state, cup)
            return (vx, vy, 0.0)
        # revert: gentle touch first, then shove the cup hard
        if _near(state, cup, sw.CONTACT_RADIUS - 0.008):
            phase["mark"] = 1
        if phase["mark"]:
            if phase["n"] < 3:
                phase["n"] += 1
                vx, vy = _approach(state, cup)
                return (0.05 if vx >= 0 else -0.05, vy, 0.0)
            if _near(state, cup, 0.09):
                away_x = -1.0 if cup[0] >= state[sw.GX] else 1.0
                return (away_x * 0.05, 0.0, 0.0)
            return (0.0, 0.0, 0.0)
        vx, vy = _approach(state, cup)
        return (vx, vy, 0.0)

    table = {
        sw.TASK_CLOSE_DRAWER: lambda s, t: drawer(s, t, closing=True),
        sw.TASK_OPEN_DRAWER: lambda s, t: drawer(s, t, closing=False),
        sw.TASK_FAUCET: faucet,
        sw.TASK_POKE_CUP: poke,
        sw.TASK_CUP_AWAY: lambda s, t: cup_carry(
            s, t, axis=1, direction=1.0,
            goal={"success": 0.18, "revert": 0.14, "incomplete": 0.03}[style],
            revert_goal=0.01 if style == "revert" else None,
        ),
        sw.TASK_CUP_LEFT_TO_RIGHT: lambda s, t: (
            cup_push_tiny(s, t, 0, 1.0) if style == "incomplete" else cup_carry(
                s, t, axis=0, direction=1.0,
                goal={"success": 0.08, "revert": 0.07}[style],
                revert_goal=0.0 if style == "revert" else None,
                grab=style == "revert",
            )
        ),
        sw.TASK_CUP_RIGHT_TO_LEFT: lambda s, t: (
            cup_push_tiny(s, t, 0, -1.0) if style == "incomplete" else cup_carry(
                s, t, axis=0, direction=-1.0,
                goal={"success": 0.08, "revert": 0.07}[style],
                revert_goal=0.0 if style == "revert" else None,
                grab=style == "revert",
            )
        ),
    }
    return table[task_id]


def ref_run_policy(s0_arr, policy, rng, noise, horizon=sw.HORIZON):
    """Roll out a controller with uniform action noise; returns (actions, states)."""
    actions = np.empty((horizon, sw.ACTION_DIM))
    states = np.empty((horizon + 1, sw.STATE_DIM))
    states[0] = s0_arr
    cur = np.asarray(s0_arr, dtype=np.float64)[None, :]
    for t in range(horizon):
        vx, vy, grip = policy(cur[0], t)
        if noise > 0:
            vx += rng.uniform(-noise, noise)
            vy += rng.uniform(-noise, noise)
        actions[t] = (
            np.clip(vx, -sw.VEL_LIMIT, sw.VEL_LIMIT),
            np.clip(vy, -sw.VEL_LIMIT, sw.VEL_LIMIT),
            grip,
        )
        cur = sw.step_batch(cur, actions[t][None, :])
        states[t + 1] = cur[0]
    return actions, states


def ref_label_ok(task_id, style, states):
    if style == "success":
        return sw.success_states(task_id, states)
    flags = sw.prefix_success_flags(task_id, states)
    contact = bool(np.any(sw.target_contact_mask(task_id, states)))
    if flags[-1]:
        return False
    if style == "wander":
        return not contact
    if style == "revert":
        return bool(np.any(flags[:-1]))
    return contact and not bool(np.any(flags))


def ref_trajectory(task_id, style, seed, noise=dg.ACTION_NOISE):
    """(actions, states, attempts, rng) of one clip, one attempt at a time."""
    rng = np.random.default_rng(seed)
    for attempt in range(32):
        level = 0.0 if attempt >= 24 else noise * 0.5 ** (attempt // 8)
        s0 = sw.initial_state_array(task_id, rng)
        if style == "wander":
            actions = helpers.ref_wander_actions(task_id, s0, rng)
            states = sw.rollout_states(s0, actions)
        else:
            actions, states = ref_run_policy(s0, ref_make_policy(task_id, style), rng, level)
        if ref_label_ok(task_id, style, states):
            return actions, states, attempt + 1, rng
    raise AssertionError(f"reference could not realize {style} for task {task_id}")


def ref_render_clip(states, domain, config, rng=None):
    """One clip at a time: subsample a (T+1, 7) rollout and render it; a
    human clip with an rng draws its camera offset, then its feature noise."""
    idx = render.clip_frame_indices(states.shape[0], config.clip_frames)
    camera = np.zeros(2)
    if rng is not None:
        camera = rng.uniform(-render.VIEWPOINT_SIGMA, render.VIEWPOINT_SIGMA, 2)
    frames = render.render_frames(states[idx], camera=camera, domain=domain)
    if rng is not None and config.noise > 0:
        frames = frames + rng.normal(0.0, config.noise, frames.shape)
    return frames


def ref_dataset(config):
    """Frames and per-(task, style) attempts, one clip after another."""
    frames, attempts = [], {}

    def clip(domain, task_id, style, stream, index):
        seed = dg._clip_seed(config.seed, dg._CLIP_STREAMS[stream], task_id, index)
        _, states, n, rng = ref_trajectory(task_id, style, seed, dg.ACTION_NOISE)
        frames.append(ref_render_clip(states, domain, config, rng if domain == "human" else None))
        attempts.setdefault((task_id, style), []).append(n)

    for task_id in config.all_tasks:
        for i in range(config.human_per_task):
            clip("human", task_id, "success", "human", i)
    for task_id in config.train_tasks:
        for i in range(config.robot_success_per_task):
            clip("robot", task_id, "success", "robot_success", i)
        plan = dg._failure_archetype_plan(task_id, config.robot_failure_per_task,
                                          tuple(config.failure_sources))
        for i, archetype in enumerate(plan):
            clip("robot", task_id, archetype, "robot_failure", i)
    return frames, attempts


# --- lockstep against the reference ---

@pytest.mark.parametrize("task_id, style", STYLES)
def test_lockstep_group_matches_reference(task_id, style):
    """A group's clips retire at different attempts; each row must still
    equal its clip rolled alone, and leave its Generator in the same state.
    The single-clip generators are the same core at n = 1."""
    seeds = [[task_id, i] for i in range(3)]
    actions, states, attempts, rngs = dg.roll_groups([(task_id, style, seeds)])[0]
    for i, seed in enumerate(seeds):
        want_actions, want_states, want_attempts, want_rng = ref_trajectory(task_id, style, seed)
        assert np.array_equal(actions[i], want_actions)
        assert np.array_equal(states[i], want_states)
        assert attempts[i] == want_attempts
        assert rngs[i].bit_generator.state == want_rng.bit_generator.state
    if style == "success":
        single_actions, single_states = dg.gen_success_trajectory(task_id, seeds[0])
    else:
        single_actions, single_states = dg.gen_failure_trajectory(task_id, style, seeds[0])
    assert np.array_equal(single_actions, actions[0])
    assert np.array_equal(single_states, states[0])


# at this noise level most noisy attempts fail: clips go through the halved
# levels (attempts 8-23), and faucet `incomplete` clips reach the zero-noise
# fallback (attempt >= 24). Seed index i is clip seed [task, 300 + i]; the
# close-drawer group passes at attempts 1, 3, 10 and 21: at attempt 0 and
# inside each of the three noisy bands.
LOUD = 0.6
LOUD_CASES = [
    (sw.TASK_FAUCET, "incomplete", (0, 1)),
    (sw.TASK_OPEN_DRAWER, "revert", (0, 1)),
    (sw.TASK_CLOSE_DRAWER, "incomplete", (2, 8, 3, 15)),
]


def test_loud_noise_halved_levels_and_fallback_match_reference(monkeypatch):
    monkeypatch.setattr(dg, "ACTION_NOISE", LOUD)
    all_attempts = []
    for task_id, style, indices in LOUD_CASES:
        seeds = [[task_id, 300 + i] for i in indices]
        actions, states, attempts, rngs = dg.roll_groups([(task_id, style, seeds)])[0]
        for i, seed in enumerate(seeds):
            want_actions, want_states, want_attempts, want_rng = ref_trajectory(
                task_id, style, seed, LOUD)
            assert np.array_equal(actions[i], want_actions)
            assert np.array_equal(states[i], want_states)
            assert attempts[i] == want_attempts
            assert rngs[i].bit_generator.state == want_rng.bit_generator.state
        all_attempts.extend(attempts.tolist())
    assert any(8 < n <= dg.ZERO_NOISE_ATTEMPT for n in all_attempts)
    assert max(all_attempts) > dg.ZERO_NOISE_ATTEMPT
    # clips retire inside every band, not only at its first or last attempt
    for band in dg.BANDS[1:-1]:
        assert any(band[0] + 1 < n < band[-1] + 1 for n in all_attempts)


SMALL = ExperimentConfig(
    train_tasks=(sw.TASK_CLOSE_DRAWER, sw.TASK_FAUCET, sw.TASK_CUP_RIGHT_TO_LEFT),
    heldout_tasks=(sw.TASK_POKE_CUP,),
    human_per_task=3,
    robot_success_per_task=2,
    robot_failure_per_task=4,
    seed=21,
)


# faucet `incomplete` clips reach the zero-noise fallback at LOUD action noise
LOUD_SMALL = replace(SMALL, train_tasks=(sw.TASK_FAUCET,), heldout_tasks=(), human_per_task=1,
                     robot_success_per_task=1, robot_failure_per_task=2)


@pytest.mark.parametrize("config, action_noise", [(SMALL, dg.ACTION_NOISE), (LOUD_SMALL, LOUD)],
                         ids=["nominal", "loud"])
def test_dataset_frames_and_retry_report_match_reference(config, action_noise, monkeypatch):
    monkeypatch.setattr(dg, "ACTION_NOISE", action_noise)
    dataset = dg.gen_dataset(config)
    want_frames, want_attempts = ref_dataset(config)
    assert len(dataset) == len(want_frames)
    for clip, frames in zip(dataset.clips, want_frames):
        assert np.array_equal(clip.frames, frames)
    assert sorted(dataset.retries) == sorted(want_attempts)
    for key, counts in want_attempts.items():
        assert dataset.retries[key] == {
            "clips": len(counts),
            "attempts": sum(counts),
            "zero_noise_clips": sum(n > dg.ZERO_NOISE_ATTEMPT for n in counts),
        }
    fallbacks = sum(row["zero_noise_clips"] for row in dataset.retries.values())
    assert (fallbacks > 0) == (action_noise == LOUD)


def domain_pair(task_id: int, seed: int, config: ExperimentConfig):
    """One motion rendered in both domains, one clip at a time: pair `seed`
    of `domain_shift_cosine`."""
    rng = np.random.default_rng([config.seed, 99, task_id, seed])
    _, states = dg.gen_success_trajectory(task_id, rng)
    return ref_render_clip(states, "robot", config), ref_render_clip(states, "human", config, rng)


def test_domain_shift_cosine_matches_pairwise_loop(monkeypatch):
    monkeypatch.setattr(dg, "DOMAIN_PAIRS", 8)
    config = ExperimentConfig(train_tasks=(sw.TASK_OPEN_DRAWER, sw.TASK_POKE_CUP), heldout_tasks=(),
                              seed=2)
    per_task = [t for t in config.all_tasks for _ in range(5)]
    sims = []
    for i, task_id in enumerate(per_task[:8]):
        robot, human = domain_pair(task_id, i, config)
        num = np.sum(robot * human, axis=1)
        sims.extend(num / (np.linalg.norm(robot, axis=1) * np.linalg.norm(human, axis=1)))
    assert dg.domain_shift_cosine(config) == float(np.mean(sims))


# --- typed generation failure ---

def test_generation_failure_is_typed_and_names_the_clip(monkeypatch):
    monkeypatch.setattr(dg, "_labels_ok", lambda task_id, style, states: np.zeros(len(states), bool))
    config = ExperimentConfig(train_tasks=(sw.TASK_FAUCET,), heldout_tasks=(), human_per_task=1,
                              robot_success_per_task=0, robot_failure_per_task=0, seed=4)
    seed = dg._clip_seed(config.seed, dg._CLIP_STREAMS["human"], sw.TASK_FAUCET, 0)
    with pytest.raises(GenerationFailedError, match=rf"success for task {sw.TASK_FAUCET}\b.*{seed}"):
        dg.gen_dataset(config)


def _pass_from(passing_attempt, group_size=1):
    """A `_labels_ok` fake for one lockstep group whose clips all first pass
    at `passing_attempt` (1-based): each call holds the rows of every
    pending clip, clip by clip, one row per attempt of the batch."""
    done = [0]   # attempts of each clip rolled so far

    def labels_ok(task_id, style, states):
        per_clip = len(states) // group_size
        attempt = done[0] + np.arange(len(states)) % per_clip
        done[0] += per_clip
        return attempt + 1 >= passing_attempt

    return labels_ok


@pytest.mark.parametrize("passing_attempt, fallbacks", [(24, 0), (25, 1)])
def test_retry_report_counts_fallback_from_attempt_24(monkeypatch, passing_attempt, fallbacks):
    """The 24th attempt (index 23) is the last noisy one; a clip that needs
    a 25th passed only at zero noise."""
    monkeypatch.setattr(dg, "_labels_ok", _pass_from(passing_attempt))
    config = ExperimentConfig(train_tasks=(sw.TASK_POKE_CUP,), heldout_tasks=(), human_per_task=1,
                              robot_success_per_task=0, robot_failure_per_task=0, seed=4)
    retries = dg.gen_dataset(config).retries
    assert retries == {(sw.TASK_POKE_CUP, "success"): {
        "clips": 1, "attempts": passing_attempt, "zero_noise_clips": fallbacks,
    }}


# --- batching by noise band ---

def test_bands_cover_every_attempt_once_at_one_noise_level_each():
    assert [a for band in dg.BANDS for a in band] == list(range(dg.MAX_ATTEMPTS))
    assert dg.BANDS[0] == range(1)
    for band in dg.BANDS:
        assert len({dg.noise_level(dg.ACTION_NOISE, a) for a in band}) == 1
    assert dg.noise_level(dg.ACTION_NOISE, dg.ZERO_NOISE_ATTEMPT - 1) > 0
    assert dg.noise_level(dg.ACTION_NOISE, dg.ZERO_NOISE_ATTEMPT) == 0


@pytest.mark.parametrize("bands", [
    tuple(range(a, a + 1) for a in range(dg.MAX_ATTEMPTS)),
    tuple(range(a, a + dg.NOISE_HALVING) for a in range(0, dg.MAX_ATTEMPTS, dg.NOISE_HALVING)),
], ids=["one-attempt-per-band", "one-band-per-noise-level"])
def test_the_data_does_not_depend_on_the_band_layout(monkeypatch, bands):
    """A clip's Generator goes back to its state after its first passing
    attempt, so its human camera and noise draws do not depend on how the
    attempts are cut into bands: any partition gives the same frames and
    retry report, at a noise level where clips retire in every band."""
    monkeypatch.setattr(dg, "ACTION_NOISE", LOUD)
    want = dg.gen_dataset(SMALL)
    # success groups, which hold the human clips, retry, and a clip reaches zero noise
    assert any(r["attempts"] > r["clips"] for (_, style), r in want.retries.items()
               if style == "success")
    assert sum(r["zero_noise_clips"] for r in want.retries.values()) > 0
    monkeypatch.setattr(dg, "BANDS", bands)
    got = dg.gen_dataset(SMALL)
    assert np.array_equal(got.frames_array(), want.frames_array())
    assert got.retries == want.retries


@pytest.mark.parametrize("task_id, style", [(sw.TASK_FAUCET, "incomplete"),
                                            (sw.TASK_POKE_CUP, "wander")])
def test_a_group_makes_one_step_loop_per_band(monkeypatch, task_id, style):
    """Clips that first pass at attempt 25 need one step loop per band:
    five, where rolling one attempt at a time needed 25."""
    calls = [0]
    step_batch = sw.step_batch

    def counted(states, actions):
        calls[0] += 1
        return step_batch(states, actions)

    monkeypatch.setattr(sw, "step_batch", counted)
    monkeypatch.setattr(dg, "_labels_ok", _pass_from(25, group_size=3))
    _, _, attempts, _ = dg.roll_groups([(task_id, style, [[task_id, i] for i in range(3)])])[0]
    assert attempts.tolist() == [25, 25, 25]
    assert calls[0] <= len(dg.BANDS) * sw.HORIZON == 5 * sw.HORIZON


# --- lockstep across groups ---

def _fake_labels(monkeypatch, groups):
    """Make each (task, style, clips, passing attempt) group's clips all
    first pass at that attempt, whichever groups share a batch."""
    fakes = {(task_id, style): _pass_from(passing, n) for task_id, style, n, passing in groups}
    monkeypatch.setattr(dg, "_labels_ok",
                        lambda task_id, style, states: fakes[task_id, style](task_id, style, states))


# controller groups and a wander group that retire at attempt 0, inside a
# noisy band, at the end of another, and only in the zero-noise band
MIXED = [
    (sw.TASK_FAUCET, "incomplete", 3, 25),
    (sw.TASK_POKE_CUP, "wander", 2, 1),
    (sw.TASK_OPEN_DRAWER, "success", 2, 12),
    (sw.TASK_CLOSE_DRAWER, "revert", 1, 8),
]


def test_groups_in_one_loop_equal_groups_rolled_alone(monkeypatch):
    seeds = {task_id: [[task_id, 40 + i] for i in range(n)] for task_id, _, n, _ in MIXED}
    _fake_labels(monkeypatch, MIXED)
    together = dg.roll_groups([(task_id, style, seeds[task_id]) for task_id, style, _, _ in MIXED])
    for group, (actions, states, attempts, rngs) in zip(MIXED, together):
        task_id, style, n, passing = group
        _fake_labels(monkeypatch, [group])
        want_actions, want_states, want_attempts, want_rngs = dg.roll_groups(
            [(task_id, style, seeds[task_id])])[0]
        assert attempts.tolist() == want_attempts.tolist() == [passing] * n
        assert np.array_equal(actions, want_actions)
        assert np.array_equal(states, want_states)
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in want_rngs]


def test_loud_groups_in_one_loop_match_reference(monkeypatch):
    """Real label checks: the LOUD_CASES groups retire in every band."""
    monkeypatch.setattr(dg, "ACTION_NOISE", LOUD)
    groups = [(task_id, style, [[task_id, 300 + i] for i in indices])
              for task_id, style, indices in LOUD_CASES]
    for (task_id, style, seeds), (actions, states, attempts, rngs) in zip(
            groups, dg.roll_groups(groups)):
        for i, seed in enumerate(seeds):
            want_actions, want_states, want_attempts, want_rng = ref_trajectory(
                task_id, style, seed, LOUD)
            assert np.array_equal(actions[i], want_actions)
            assert np.array_equal(states[i], want_states)
            assert attempts[i] == want_attempts
            assert rngs[i].bit_generator.state == want_rng.bit_generator.state


def test_failure_names_the_first_failing_group(monkeypatch):
    """The first group passes; the second and third never do, and the
    error names the second."""
    groups = [(sw.TASK_POKE_CUP, "success", 2, 1), (sw.TASK_FAUCET, "incomplete", 2, 33),
              (sw.TASK_CLOSE_DRAWER, "revert", 1, 33)]
    _fake_labels(monkeypatch, groups)
    seeds = [[task_id, 5 + i] for task_id, _, n, _ in groups for i in range(n)]
    message = rf"could not realize incomplete for task {sw.TASK_FAUCET} .*{re.escape(repr(seeds[2]))}"
    with pytest.raises(GenerationFailedError, match=message):
        dg.roll_groups([(sw.TASK_POKE_CUP, "success", seeds[:2]),
                        (sw.TASK_FAUCET, "incomplete", seeds[2:4]),
                        (sw.TASK_CLOSE_DRAWER, "revert", seeds[4:])])


# two tasks: six groups, 10 clips, one batch
BATCHED = replace(SMALL, train_tasks=(sw.TASK_CLOSE_DRAWER, sw.TASK_FAUCET), heldout_tasks=(),
                  human_per_task=2, robot_success_per_task=1, robot_failure_per_task=2)


def _dataset_groups(config):
    """(task, style, clips, passing attempt 25) of each group of a dataset."""
    dataset = dg.gen_dataset(config)
    return [(task_id, style, row["clips"], 25) for (task_id, style), row in dataset.retries.items()]


def _count_batches(monkeypatch):
    """Record the (task, style, clips) groups of each `roll_groups` call."""
    batches = []
    roll_groups = dg.roll_groups

    def recorded(groups):
        batches.append([(task_id, style, len(seeds)) for task_id, style, seeds in groups])
        return roll_groups(groups)

    monkeypatch.setattr(dg, "roll_groups", recorded)
    return batches


def test_a_dataset_batch_makes_one_step_loop_per_band(monkeypatch):
    """Every group of the batch needs all five bands; they share each
    band's step loop, where rolling group by group made five per group."""
    groups = _dataset_groups(BATCHED)
    assert len(groups) == 6
    calls = [0]
    step_batch = sw.step_batch

    def counted(states, actions):
        calls[0] += 1
        return step_batch(states, actions)

    monkeypatch.setattr(sw, "step_batch", counted)
    _fake_labels(monkeypatch, groups)
    batches = _count_batches(monkeypatch)
    retries = dg.gen_dataset(BATCHED).retries
    assert len(batches) == 1
    assert all(row["attempts"] == 25 * row["clips"] for row in retries.values())
    assert calls[0] <= len(dg.BANDS) * sw.HORIZON


def test_a_group_larger_than_the_cap_is_rolled_alone(monkeypatch):
    """At a cap of 3 clips the 4-clip success groups (human clips come
    first in dataset order) are batches alone, and the smaller groups share
    batches. The frames and the retry report do not depend on the cap."""
    config = replace(BATCHED, human_per_task=3, robot_failure_per_task=3)
    want = dg.gen_dataset(config)
    monkeypatch.setattr(dg, "BATCH_CLIPS", 3)
    batches = _count_batches(monkeypatch)
    dataset = dg.gen_dataset(config)
    assert batches == [
        [(sw.TASK_CLOSE_DRAWER, "success", 4)],
        [(sw.TASK_FAUCET, "success", 4)],
        [(sw.TASK_CLOSE_DRAWER, "wander", 2), (sw.TASK_CLOSE_DRAWER, "revert", 1)],
        [(sw.TASK_FAUCET, "wander", 2), (sw.TASK_FAUCET, "incomplete", 1)],
    ]
    assert np.array_equal(dataset.frames_array(), want.frames_array())
    assert dataset.retries == want.retries


# --- one-pass action selection ---

def ref_act(cases, default):
    """The earlier `datagen._act`: per row, the first case whose mask holds,
    else the default, as three np.where calls per case."""
    vx, vy, grip = default
    for mask, cvx, cvy, cgrip in reversed(cases):
        vx, vy, grip = np.where(mask, cvx, vx), np.where(mask, cvy, vy), np.where(mask, cgrip, grip)
    out = np.empty((cases[0][0].shape[0], sw.ACTION_DIM))
    out[:, 0], out[:, 1], out[:, 2] = vx, vy, grip
    return out


def assert_same_actions(cases, default):
    got = dg._act(cases, default)
    assert got.shape == (cases[0][0].shape[0], sw.ACTION_DIM)
    assert got.tobytes() == ref_act(cases, default).tobytes()


ROWS = 6
SPEEDS = np.linspace(-0.05, 0.05, ROWS)


@pytest.mark.parametrize("masks", [
    ([0, 1, 1, 0, 1, 0], [1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 1, 0]),  # overlapping
    ([0] * ROWS,) * 3,                                               # no mask holds
    ([1] * ROWS,) * 3,                                               # every mask holds
], ids=["overlapping", "none", "all"])
@pytest.mark.parametrize("values", [
    [(0.03, 0.02, 1.0), (0.05, -0.0, -1.0), (-0.01, 0.0, 0.0)],
    [(-SPEEDS, SPEEDS * 0.5, 1.0), (0.05, -0.0, -1.0), (SPEEDS[::-1], 0.0, 0.0)],
], ids=["scalar", "row-valued"])
def test_act_picks_what_the_where_chain_picks(masks, values):
    cases = [(np.array(m, dtype=bool), *v) for m, v in zip(masks, values)]
    assert_same_actions(cases, (SPEEDS, -SPEEDS, 0.0))


@st.composite
def act_calls(draw):
    """A call of one to four cases on up to five rows: masks of any rows,
    none or all, values scalar or one per row."""
    n = draw(st.integers(0, 5))
    value = st.floats(-0.08, 0.08) | arrays(np.float64, n, elements=st.floats(-0.08, 0.08))
    mask = (st.sampled_from([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
            | arrays(np.bool_, n))
    cases = [(draw(mask), draw(value), draw(value), draw(value))
             for _ in range(draw(st.integers(1, 4)))]
    return cases, (draw(value), draw(value), draw(value))


@given(act_calls())
@settings(max_examples=150, deadline=None)
def test_drawn_act_calls_match_the_where_chain(call):
    assert_same_actions(*call)
