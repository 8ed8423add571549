"""`render.render_clips`, the one path from state sequences to clips,
against a per-sequence loop of `render.render_frames`: equal bit for bit
in both domains, with a shared or a per-sequence camera, in every
environment variant, and for no sequences at all. A camera, clip length or
sequence length that fits no clip is a `ShapeMismatchError`."""

import numpy as np
import pytest

from helpers import random_episodes
from rewardlab import render, simworld as sw
from rewardlab.errors import BadConfigError, ShapeMismatchError

N_FRAMES = 4


def loop_clips(states, n_frames, cameras, domain, variant):
    """One render_frames call per sequence, on its subsampled states."""
    idx = render.clip_frame_indices(states.shape[1], n_frames)
    return [render.render_frames(seq[idx], camera, domain, variant)
            for seq, camera in zip(states, cameras)]


@pytest.fixture(scope="module")
def states():
    return random_episodes(5, seed=3)[0]


@pytest.mark.parametrize("variant", sorted(render.VARIANTS))
@pytest.mark.parametrize("domain", ["robot", "human"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-camera", "per-sequence-camera"])
def test_equals_a_per_sequence_loop(states, variant, domain, shared):
    rng = np.random.default_rng(4)
    if shared:
        camera = rng.uniform(-0.08, 0.08, 2)
        cameras = [camera] * len(states)
    else:
        camera = cameras = rng.uniform(-0.08, 0.08, (len(states), 2))
    clips = render.render_clips(states, N_FRAMES, camera, domain, variant)
    assert clips.shape == (len(states), N_FRAMES, render.FRAME_WIDTH)
    for clip, want in zip(clips, loop_clips(states, N_FRAMES, cameras, domain, variant)):
        assert np.array_equal(clip, want)


@pytest.mark.parametrize("camera", [(0.0, 0.0), np.zeros((0, 2))], ids=["shared", "per-sequence"])
def test_no_sequences(camera):
    empty = np.zeros((0, sw.HORIZON + 1, sw.STATE_DIM))
    clips = render.render_clips(empty, N_FRAMES, camera, "human")
    assert clips.shape == (0, N_FRAMES, render.FRAME_WIDTH)


def test_default_is_the_robot_domain_with_no_camera_offset(states):
    want = render.render_clips(states, N_FRAMES, np.zeros((len(states), 2)), "robot", "train")
    assert np.array_equal(render.render_clips(states, N_FRAMES), want)


@pytest.mark.parametrize("shape, camera", [
    ((5, sw.STATE_DIM), (0.0, 0.0)),
    ((5, 11, sw.STATE_DIM), np.zeros((4, 2))),
    ((5, 11, sw.STATE_DIM), np.zeros(3)),
], ids=["two-dim-states", "camera-count", "camera-width"])
def test_shape_mismatch(shape, camera):
    with pytest.raises(ShapeMismatchError):
        render.render_clips(np.zeros(shape), N_FRAMES, camera)


@pytest.mark.parametrize("camera", [np.zeros((2, 2)), np.zeros(3), np.zeros((3, 3))],
                         ids=["camera-count", "camera-width", "camera-columns"])
def test_render_frames_needs_one_camera_or_one_per_state(states, camera):
    with pytest.raises(ShapeMismatchError, match="camera must be"):
        render.render_frames(states[0, :3], camera)


@pytest.mark.parametrize("n_frames", [0, -1])
def test_a_clip_needs_a_frame(states, n_frames):
    with pytest.raises(ShapeMismatchError, match="n_frames >= 1"):
        render.render_clips(states, n_frames)


def test_a_sequence_needs_a_state():
    with pytest.raises(ShapeMismatchError, match="T\\+1 >= 1"):
        render.render_clips(np.zeros((2, 0, sw.STATE_DIM)), N_FRAMES)


@pytest.mark.parametrize("states, domain, error, message", [
    (np.zeros((3, sw.STATE_DIM)), "alien", BadConfigError, "domain must be 'robot' or 'human'"),
    (np.zeros((3, sw.STATE_DIM - 1)), "robot", ShapeMismatchError, r"states must be \(N,7\)"),
], ids=["unknown-domain", "state-width"])
def test_render_frames_refuses_a_bad_domain_or_state_width(states, domain, error, message):
    with pytest.raises(error, match=message):
        render.render_frames(states, domain=domain)
