"""Dataset clip seeds against NumPy's own SeedSequence.

Clip i of a stream and task has the integer seed that
SeedSequence([master, stream, task, i]) gives as one uint64. A master seed
of more than one 32-bit word enters the hash as several words, so the
contract is checked at masters of one, two and three words.
"""

import pytest

import helpers
from rewardlab import datagen as dg, simworld as sw
from rewardlab.config import ExperimentConfig

# a master of 1, 2 and 3 words: 2**64 + 5 puts six words in the entropy,
# more than SeedSequence's pool of four
MASTERS = [0, 2**32 - 1, 2**32, 2**64 + 5]


@pytest.mark.parametrize("master", MASTERS)
def test_clip_seeds_equal_numpys(master):
    """Every clip of a tiny dataset, in each of the three streams, carries
    the seed that NumPy derives for its [master, stream, task, index]."""
    config = ExperimentConfig(train_tasks=(sw.TASK_FAUCET,), heldout_tasks=(sw.TASK_POKE_CUP,),
                              human_per_task=2, robot_success_per_task=1, robot_failure_per_task=2,
                              seed=master)
    want = [helpers.ref_clip_seed(master, dg._CLIP_STREAMS["human"], task_id, i)
            for task_id in config.all_tasks for i in range(2)]
    want.append(helpers.ref_clip_seed(master, dg._CLIP_STREAMS["robot_success"], sw.TASK_FAUCET, 0))
    want += [helpers.ref_clip_seed(master, dg._CLIP_STREAMS["robot_failure"], sw.TASK_FAUCET, i)
             for i in range(2)]
    assert [clip.seed for clip in dg.gen_dataset(config).clips] == want
