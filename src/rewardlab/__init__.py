"""rewardlab: a desk-scale reward-learning and planning workbench.

Pipeline in one sentence: synthesize human/robot clip datasets from a toy
tabletop simulator, train a contrastive reward model that also organizes
robot failures into learnable failure prompts via spherical k-means
pseudo-labels, then plan with random shooting and CEM against that reward.

Run it with `python -m rewardlab datagen`, then `train` and `eval` (see
`cli`); every setting is an `ExperimentConfig` key in a `key = value` file.
"""

__version__ = "0.1.0"
