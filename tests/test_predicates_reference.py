"""Batch-shaped task predicates and datagen's batched label check against
per-sequence, per-frame references.

`simworld.target_points`, `target_contact_mask`, `prefix_success_flags`
and `success_states` take (..., T+1, 7) states; `datagen._labels_ok`
judges (n, T+1, 7) rollouts at once. The references below walk one
sequence and one frame at a time with the documented definitions, on
random rollouts and on the scripted rollouts of every style of the task,
so each label is met by some rollouts and missed by others. Flags are
compared exactly: both sides do the same IEEE arithmetic (squares as
products, as numpy computes `** 2` of arrays).
"""

import functools

import numpy as np
import pytest

from rewardlab import datagen as dg, simworld as sw

N_PER_STYLE = 12
STYLES = ("success",) + dg.ARCHETYPES


def ref_target_point(task_id, state):
    if task_id in (sw.TASK_CLOSE_DRAWER, sw.TASK_OPEN_DRAWER):
        return sw.DRAWER_BASE[0], sw.DRAWER_BASE[1] + state[sw.EXT]
    if task_id == sw.TASK_FAUCET:
        return sw.FAUCET_HANDLE
    return state[sw.CUPX], state[sw.CUPY]


def ref_contact(task_id, state):
    tx, ty = ref_target_point(task_id, state)
    dx, dy = state[sw.GX] - tx, state[sw.GY] - ty
    return bool(dx * dx + dy * dy <= sw.CONTACT_RADIUS**2)


def ref_holds(task_id, first, state, touched):
    """Would the predicate hold for a clip from `first` that ends at `state`?"""
    if task_id == sw.TASK_CLOSE_DRAWER:
        return state[sw.EXT] < sw.DRAWER_CLOSED_BELOW
    if task_id == sw.TASK_CUP_AWAY:
        return state[sw.CUPY] - first[sw.CUPY] >= sw.CUP_AWAY_DIST
    if task_id == sw.TASK_FAUCET:
        return state[sw.ANGLE] > sw.FAUCET_MIN_TURN
    if task_id == sw.TASK_CUP_LEFT_TO_RIGHT:
        return state[sw.CUPX] - first[sw.CUPX] >= sw.CUP_PUSH_DIST
    if task_id == sw.TASK_OPEN_DRAWER:
        return state[sw.EXT] > sw.DRAWER_OPEN_ABOVE
    if task_id == sw.TASK_CUP_RIGHT_TO_LEFT:
        return first[sw.CUPX] - state[sw.CUPX] >= sw.CUP_PUSH_DIST
    moved = np.hypot(state[sw.CUPX] - first[sw.CUPX], state[sw.CUPY] - first[sw.CUPY])
    return touched and moved <= sw.POKE_MAX_MOVE


def ref_sequence(task_id, seq):
    """(contact, flags) per frame of one (T+1, 7) sequence."""
    contact, flags, touched = [], [], False
    for state in seq:
        contact.append(ref_contact(task_id, state))
        touched = touched or contact[-1]
        flags.append(bool(ref_holds(task_id, seq[0], state, touched)))
    return contact, flags


def ref_label_ok(style, contact, flags):
    if style == "success":
        return flags[-1]
    if flags[-1]:
        return False
    if style == "wander":
        return not any(contact)
    if style == "revert":
        return any(flags[:-1])
    return any(contact) and not any(flags)


@functools.lru_cache(maxsize=None)
def rollouts(task_id):
    """Random rollouts, then noisy scripted rollouts of each style the task
    supports (wander: datagen's wander actions): (n, H+1, 7)."""
    rng = np.random.default_rng([task_id, 2024])
    groups = []
    for style in ("random",) + STYLES:
        if (task_id, style) in dg.UNSUPPORTED:
            continue
        s0 = np.stack([sw.initial_state_array(task_id, rng) for _ in range(N_PER_STYLE)])
        if style == "random":
            states = sw.rollout_batch(s0, sw.random_action_array(rng, N_PER_STYLE, sw.HORIZON))
        elif style == "wander":
            acts = np.stack([dg._wander_actions(task_id, s, rng) for s in s0])
            states = sw.rollout_batch(s0, acts)
        else:
            noise = rng.uniform(-0.03, 0.03, size=(N_PER_STYLE, sw.HORIZON, 2))
            _, states = dg.run_policy(s0, [(N_PER_STYLE, dg.make_policy(task_id, style), noise)])
        groups.append(states)
    states = np.concatenate(groups)
    return states, [ref_sequence(task_id, seq) for seq in states]


@pytest.mark.parametrize("task_id", sw.ALL_TASKS)
def test_batched_predicates_match_per_frame_reference(task_id):
    states, refs = rollouts(task_id)
    contact = np.array([c for c, _ in refs])
    flags = np.array([f for _, f in refs])
    points = [[ref_target_point(task_id, s) for s in seq] for seq in states]
    np.testing.assert_array_equal(sw.target_points(task_id, states), np.array(points))
    assert np.array_equal(sw.target_contact_mask(task_id, states), contact)
    assert np.array_equal(sw.prefix_success_flags(task_id, states), flags)
    assert np.array_equal(sw.success_states(task_id, states), flags[:, -1])
    assert 0 < flags[:, -1].sum() < len(flags)
    # any leading batch shape, and a single sequence
    grid = states.reshape(2, -1, *states.shape[1:])
    assert np.array_equal(sw.prefix_success_flags(task_id, grid), flags.reshape(2, -1, flags.shape[1]))
    assert np.array_equal(sw.target_contact_mask(task_id, grid), contact.reshape(grid.shape[:-1]))
    assert sw.success_states(task_id, states[0]) == flags[0, -1]


@pytest.mark.parametrize("task_id, style", [
    (t, s) for t in sw.ALL_TASKS for s in STYLES if (t, s) not in dg.UNSUPPORTED
])
def test_batched_label_check_matches_per_sequence_reference(task_id, style):
    states, refs = rollouts(task_id)
    expected = [ref_label_ok(style, contact, flags) for contact, flags in refs]
    got = dg._labels_ok(task_id, style, states)
    assert got.shape == (len(states),) and got.dtype == bool
    assert got.tolist() == expected
    assert 0 < sum(expected) < len(expected)
