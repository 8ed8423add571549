import numpy as np
import pytest

from helpers import sim_state
from rewardlab import datagen as dg, formats, simworld as sw
from rewardlab.errors import CorruptFileError, ShapeMismatchError, VersionMismatchError


@pytest.fixture(scope="module")
def dataset():
    cfg = dg.DataConfig(
        tasks=(sw.TASK_OPEN_DRAWER,), human_per_task=2,
        robot_success_per_task=2, robot_failure_per_task=2, seed=9,
    )
    return dg.gen_dataset(cfg)


class TestDatasetFormat:
    def test_round_trip_bit_identical(self, dataset, tmp_path):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        back = formats.load_dataset(path)
        assert len(back) == len(dataset)
        for a, b in zip(dataset.clips, back.clips):
            assert np.array_equal(a.frames, b.frames)
            assert a.domain == b.domain and a.task_id == b.task_id
            assert a.success == b.success and a.failure_archetype == b.failure_archetype
            assert a.seed == b.seed

    def test_truncated_file_is_corrupt(self, dataset, tmp_path):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.6)])
        with pytest.raises(CorruptFileError):
            formats.load_dataset(path)

    def test_dropped_record_is_corrupt(self, dataset, tmp_path):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CorruptFileError):
            formats.load_dataset(path)

    def test_version_mismatch(self, dataset, tmp_path):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("v1", "v99")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VersionMismatchError):
            formats.load_dataset(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("something-else v1 clips=0\n")
        with pytest.raises(CorruptFileError):
            formats.load_dataset(path)


class TestCheckpointFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        arrays = {
            "video.frame_proj": rng.normal(size=(16, 32)),
            "pool.prompt.4.0": rng.normal(size=(2, 32)),
            "scalarish": np.array(3.5),
        }
        path = tmp_path / "ckpt.txt"
        formats.save_checkpoint(arrays, path)
        back = formats.load_checkpoint(path)
        assert set(back) == set(arrays)
        for name in arrays:
            assert np.array_equal(back[name], np.asarray(arrays[name]))

    def test_value_count_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        formats.save_checkpoint({"w": np.ones((2, 2))}, path)
        lines = path.read_text().splitlines()
        lines[1] = " ".join(lines[1].split()[:-1])  # drop one value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptFileError):
            formats.load_checkpoint(path)


# written by the value-type implementation of save_trajectory: a faucet
# start (initial_state_array at seed 5), the next three random actions from
# the same Generator, and camera offset (0.03, -0.02)
TRAJECTORY_V1 = """\
rewardlab-trajectory v1 states=4 actions=3
state 0.7009195336625285 0.46714808280528847 0.0 0.07 0.0 0.5183001754247228 0.3684764473841896 0.03 -0.02
state 0.6563126039006941 0.42167560219553296 0.0 0.07 0.0 0.5183001754247228 0.3684764473841896 0.03 -0.02
state 0.6446494919792459 0.3765513732682498 0.0 0.07 0.0 0.5183001754247228 0.3684764473841896 0.03 -0.02
state 0.6354968125212458 0.4264689847747569 1.0 0.07 0.0 0.5183001754247228 0.3684764473841896 0.03 -0.02
action -0.04460692976183436 -0.045472480609755485 -1.0
action -0.011663111921448178 -0.0451242289272832 0.0
action -0.009152679458000135 0.04991761150650714 1.0
"""


class TestTrajectoryFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        s0 = sw.initial_state_array(sw.TASK_FAUCET, rng)
        actions = sw.random_action_array(rng, 12)
        states = sw.rollout_states(s0, actions)
        path = tmp_path / "traj.txt"
        formats.save_trajectory(states, actions, (0.01, -0.02), path)
        back_states, back_actions, camera = formats.load_trajectory(path)
        assert np.array_equal(back_states, states)
        assert np.array_equal(back_actions, actions)
        assert camera.tolist() == [0.01, -0.02]

    def test_header_count_enforced(self, tmp_path):
        path = tmp_path / "traj.txt"
        actions = np.array([[0.01, 0.0, 0.0]])
        states = sw.rollout_states(sim_state(), actions)
        formats.save_trajectory(states, actions, (0.0, 0.0), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CorruptFileError):
            formats.load_trajectory(path)

    def test_trajectory_length_mismatch(self, tmp_path):
        s = sim_state()
        path = tmp_path / "traj.txt"
        with pytest.raises(ShapeMismatchError):
            formats.save_trajectory(np.stack([s, s]), np.zeros((0, 3)), (0.0, 0.0), path)
        for states, actions, camera in (
            (s, np.zeros((0, 3)), (0.0, 0.0)),              # one state, not (1, 7)
            (s[None, :6], np.zeros((0, 3)), (0.0, 0.0)),    # short state row
            (s[None], np.zeros((0, 2)), (0.0, 0.0)),        # short action row
            (np.stack([s, s]), np.zeros((1, 3)), (0.0,)),   # camera not (2,)
        ):
            with pytest.raises(ShapeMismatchError):
                formats.save_trajectory(states, actions, camera, path)
        assert not path.exists()
        # the same mismatch in a file: four states for two actions
        lines = TRAJECTORY_V1.splitlines()
        lines[0] = lines[0].replace("actions=3", "actions=2")
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CorruptFileError, match="4 states for 2 actions"):
            formats.load_trajectory(path)

    def test_camera_disagreement_is_corrupt(self, tmp_path):
        path = tmp_path / "traj.txt"
        lines = TRAJECTORY_V1.splitlines()
        lines[2] = lines[2].replace("0.03 -0.02", "0.03 -0.021")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptFileError, match="camera"):
            formats.load_trajectory(path)

    def test_v1_file_read_and_rewritten_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        s0 = sw.initial_state_array(sw.TASK_FAUCET, rng)
        actions = sw.random_action_array(rng, 3)
        path = tmp_path / "traj.txt"
        path.write_text(TRAJECTORY_V1)
        states, back_actions, camera = formats.load_trajectory(path)
        assert np.array_equal(states, sw.rollout_states(s0, actions))
        assert np.array_equal(back_actions, actions)
        assert camera.tolist() == [0.03, -0.02]
        out = tmp_path / "again.txt"
        formats.save_trajectory(states, back_actions, camera, out)
        assert out.read_bytes() == TRAJECTORY_V1.encode("ascii")
