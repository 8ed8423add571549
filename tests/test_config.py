"""The `key = value` config format, its line-numbered errors, the range
checks at construction, and the seed precedence flag > config file; the
environment does not set the seed. Seeds derived from the config's seed
are NumPy's SeedSequence words, and each random stream has its own tag."""

import numpy as np
import pytest

from rewardlab import (
    datagen as dg, dynamics as dyn, encoders as enc, evaluation, gradcheck, simworld as sw, training,
)
from rewardlab.config import ExperimentConfig, load_config, parse_config_text, resolve_seed
from rewardlab.errors import BadConfigError

EVERY_KIND = """
# a comment line, then a blank one

mode = bce            # str, with a trailing comment
k_clusters = 4        # int
tau = 0.25            # float
train_tasks = 4, 6    # int tuple
failure_sources = near_success, random
heldout_tasks =       # empty tuple
"""


def test_every_field_kind():
    config = parse_config_text(EVERY_KIND)
    assert config.mode == "bce"
    assert config.k_clusters == 4
    assert config.tau == 0.25
    assert config.train_tasks == (sw.TASK_OPEN_DRAWER, sw.TASK_POKE_CUP)
    assert config.failure_sources == ("near_success", "random")
    assert config.heldout_tasks == ()
    assert config.epochs == ExperimentConfig().epochs


def test_empty_text_gives_the_defaults():
    assert parse_config_text("\n# nothing\n") == ExperimentConfig()


@pytest.mark.parametrize("text, message", [
    ("mode = bce\nbogus = 3", "line 2: unknown key 'bogus'"),
    ("\n\nk_clusters 3", "line 3: expected 'key = value'"),
    ("k_clusters = three", "line 1: bad value for k_clusters"),
    ("tau = 0.1\ntrain_tasks = 4, x", "line 2: bad value for train_tasks"),
    ("# c\nexclude_anchor = yes", "line 2: unknown key 'exclude_anchor'"),
    ("mode = fvlc\ntau = 0.1\nmode = bce", "line 3: mode is already set on line 1"),
])
def test_errors_name_the_line(text, message):
    with pytest.raises(BadConfigError, match=message):
        parse_config_text(text)


@pytest.mark.parametrize("field, value", [
    ("tau", 0.0), ("tau", float("nan")), ("grad_clip", -1.0), ("grad_clip", 0.0),
    ("epochs", -3), ("epochs", 0), ("steps_per_epoch", -1), ("lr_encoder", -1e-3),
    ("lr_prompts", -1e-2), ("clip_frames", 0), ("hidden_width", 0), ("embed_dim", 0),
    ("human_per_task", -1), ("eval_failure_per_task", -1), ("noise", -1.0),
    ("failure_sources", ("x",)), ("failure_sources", ()), ("train_tasks", (4, 99)),
    ("heldout_tasks", (-1,)), ("plan_candidates", 0), ("plan_horizon", 0),
    ("plan_trials", 0), ("plan_seeds", 0), ("tau", float("inf")), ("lr_encoder", float("inf")),
    ("lr_prompts", float("inf")), ("grad_clip", float("inf")), ("noise", float("inf")),
])
def test_out_of_range_field_rejected_by_name(field, value):
    with pytest.raises(BadConfigError, match=field):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("train_tasks", (4, 4)), ("heldout_tasks", (0, 1, 0)),
    ("failure_sources", ("random", "random")),
])
def test_a_value_the_run_cannot_honour_is_rejected_by_name(field, value):
    """A negative seed fails in numpy's seeding, a repeated task would make
    its clips twice with the same seeds, and a repeated failure source is
    not a mixture of two."""
    with pytest.raises(BadConfigError, match=field):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("text, message", [
    ("mode = supcon", "unknown mode 'supcon'"),
    ("env_variant = upside-down", "unknown env_variant 'upside-down'"),
    ("plan_horizon = 6", "plan_horizon must be divisible by"),
])
def test_a_value_outside_its_choices_is_rejected_by_name(text, message):
    with pytest.raises(BadConfigError, match=message):
        parse_config_text(text)


def test_a_task_both_trained_on_and_held_out_is_rejected_by_name():
    # the ablation would score the trained task 4 as unseen
    with pytest.raises(BadConfigError, match="share task 4"):
        ExperimentConfig(train_tasks=(0, 4), heldout_tasks=(4, 5))


def test_empty_task_tuples_are_valid():
    config = ExperimentConfig(train_tasks=(), heldout_tasks=())
    assert config.all_tasks == ()


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(EVERY_KIND, encoding="ascii")
    assert load_config(path) == parse_config_text(EVERY_KIND)


@pytest.mark.parametrize("text", ["tau = inf", "noise = Infinity", "lr_prompts = 1e999"])
def test_a_non_finite_float_in_the_text_is_rejected_by_name(text):
    with pytest.raises(BadConfigError, match=f"{text.split()[0]} must be finite"):
        parse_config_text(text)


def test_out_of_range_value_in_a_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 2\ngrad_clip = -1\n", encoding="ascii")
    with pytest.raises(BadConfigError, match="grad_clip must be > 0"):
        load_config(path)


def test_non_ascii_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes("mode = bce  # caf\u00e9\n".encode("utf-8"))
    with pytest.raises(BadConfigError, match="ASCII"):
        load_config(path)


class TestSeedPrecedence:
    FILE = parse_config_text("seed = 3")

    def test_file_seed_without_flag_or_env(self):
        assert resolve_seed(self.FILE).seed == 3

    @pytest.mark.parametrize("value", ["11", "seven"])
    def test_environment_is_ignored(self, monkeypatch, value):
        # REWARD_SEED once set the seed; a stray export must change nothing
        monkeypatch.setenv("REWARD_SEED", value)
        assert resolve_seed(self.FILE) == self.FILE

    def test_flag_beats_env_and_file(self, monkeypatch):
        monkeypatch.setenv("REWARD_SEED", "11")
        assert resolve_seed(self.FILE, flag_seed=5).seed == 5


@pytest.mark.parametrize("master", [0, 2**31 - 1, 2**32 + 5])
def test_derived_seed_is_numpys_seed_sequence_word(master):
    config = ExperimentConfig(seed=master)
    for n_words in range(1, 6):
        words = (8, 2, 1, 6, 49)[:n_words]
        seed = config.derived_seed(*words)
        want = np.random.SeedSequence([master, *words]).generate_state(1, np.uint64)[0]
        assert seed == int(want % 2**31)
        assert 0 <= seed < 2**31


def test_random_stream_tags_are_pairwise_distinct():
    tags = [
        training._STREAM_VIDEO, training._STREAM_POOL, training._STREAM_SAMPLER,
        training._STREAM_CLUSTER, evaluation._STREAM_EVAL_DATA, evaluation._STREAM_PLAN,
        *dg._CLIP_STREAMS.values(), dg._DOMAIN_PAIR_STREAM, dyn._EPISODE_STREAM, enc._TEXT_STREAM,
        gradcheck._SUITE_STREAM,
    ]
    assert len(tags) == 13
    assert len(set(tags)) == len(tags)
