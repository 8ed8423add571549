"""`LabeledClip` is the one check of a clip's labels: a clip that
generation could not have made is rejected when it is built, with a
message that names the bad label."""

import numpy as np
import pytest

from rewardlab import simworld as sw
from rewardlab.datagen import LabeledClip
from rewardlab.errors import BadConfigError

FRAMES = np.zeros((4, 16))


@pytest.mark.parametrize("domain, task_id, success, archetype, message", [
    ("alien", sw.TASK_FAUCET, 1, None, "unknown domain 'alien'"),
    ("robot", 99, 1, None, "unknown task 99"),
    ("robot", sw.TASK_FAUCET, 2, "wander", "success must be 0 or 1, got 2"),
    ("human", sw.TASK_FAUCET, 1, "wander", "a success has failure archetype 'wander'"),
    ("robot", sw.TASK_FAUCET, 0, "flail", "unknown failure archetype 'flail'"),
    ("robot", sw.TASK_FAUCET, 0, None, "unknown failure archetype None"),
], ids=["unknown-domain", "unknown-task", "success-2", "success-with-archetype",
        "unknown-archetype", "failure-without-archetype"])
def test_impossible_labels_are_rejected(domain, task_id, success, archetype, message):
    with pytest.raises(BadConfigError, match=f"^{message}$"):
        LabeledClip(FRAMES, domain, task_id, success, archetype, 0)

