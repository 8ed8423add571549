"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes, as other tenants load the same cores and
caches. The kernel is timed next to the timed calls, and their times are
rescaled to the kernel's nominal speed:

    normalized = measured * NOMINAL_S / kernel time

The kernel does, in about equal shares, the three kinds of work that make
up rewardlab's pipeline: a Python loop of numpy operations on one-row
arrays (the simulator and the scripted controllers), plain Python
arithmetic (the per-row loss loops), and small matrix products with tanh
(the encoders). Contention slows each kind by a different factor; the mix
tracks the pipeline's own slowdown far better than any one of them. The
kernel uses numpy only, never rewardlab, so no change to the program moves
it. NOMINAL_S, the kernel's uncontended time on the 2-CPU x86-64 machine
the benchmark was defined on, only sets the scale: figures read as seconds
on that machine when it is not contended.
"""

import time

import numpy as np

NOMINAL_S = 0.015
_STATE = np.linspace(0.1, 0.7, 7)[None, :]
_ACTION = np.array([[0.03, -0.02, 1.0]])
_FRAMES = np.random.default_rng(0).normal(size=(64, 16))
_PROJ = np.random.default_rng(1).normal(size=(16, 32)) / 4.0


def _small_array_ops(rounds=400) -> float:
    cur = _STATE
    for i in range(rounds):
        v = np.clip(_ACTION[:, 0] + 0.001 * (i % 7), -0.05, 0.05)
        nxt = cur.copy()
        near = (cur[:, 0] - 0.5) ** 2 + (cur[:, 1] - 0.5) ** 2 <= 0.04 ** 2
        nxt[:, 0] = np.clip(cur[:, 0] + np.where(near, v, 0.0), 0.0, 1.0)
        nxt[:, 1] = np.clip(cur[:, 1] - v, 0.0, 1.0)
        cur = nxt
    return float(cur[0, 0])


def _python_arithmetic(rounds=60000) -> float:
    acc = 0.0
    for i in range(rounds):
        acc += (i % 7) * 0.5 if i & 1 else -(i % 5) * 0.25
    return acc


def _small_matmuls(rounds=600) -> float:
    acc = 0.0
    for _ in range(rounds):
        acc += float(np.tanh(_FRAMES @ _PROJ).sum())
    return acc


def kernel() -> float:
    return _small_array_ops() + _python_arithmetic() + _small_matmuls()


def seconds() -> float:
    """Time one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
