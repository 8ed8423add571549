"""Fast self-test of the span tracer.

Checks the self-time arithmetic on a scripted clock, wrappers at module and
class attributes, span closing when a call raises, the datagen retry count,
and that `restore` puts back every original of the real layer table.
Every traced benchmark run calls `run()` first. Standalone, from the repo
root: python3 perfbench/selftest.py
"""

import os
import sys
import types


class SelfTestError(RuntimeError):
    pass


def _expect(condition, message):
    if not condition:
        raise SelfTestError(message)


def _scripted_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def check_self_time():
    from tracer import SpanTable, Tracer

    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    # clock reads: outer opens 0, inner 1..3, inner 4..7, outer closes 10
    tr = Tracer(clock=_scripted_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    tr.wrap(mod, "inner", "fake.inner")
    tr.wrap(mod, "outer", "fake.outer", rows=lambda x: 5)
    _expect(mod.outer(1) == 4, "wrapped call changed the result")
    tr.restore()
    _expect(mod.inner is inner and mod.outer is outer, "restore left a wrapper installed")
    table = SpanTable(tr)
    _expect(table.calls("fake.inner") == 2, "inner span count")
    _expect(table.total("fake.outer") == 10.0, "outer duration")
    _expect(table.self_total("fake.outer") == 5.0, "outer self time is not 10 - 2 - 3")
    _expect(table.total("fake.inner") == 5.0 and table.self_total("fake.inner") == 5.0,
            "leaf self time must equal its duration")
    _expect(table.row_total("fake.outer") == 5, "row count")
    _expect(list(table.parent) == [-1, 0, 0], "parent links")


def check_class_and_raise():
    from tracer import SpanTable, Tracer

    class Reward:
        def score_batch(self, states):
            if states is None:
                raise ValueError("no states")
            return len(states)

    original = vars(Reward)["score_batch"]
    tr = Tracer()
    tr.wrap(Reward, "score_batch", "fake.Reward.score_batch", rows=lambda self, s: len(s or ()))
    _expect(Reward().score_batch([1, 2, 3]) == 3, "wrapped method changed the result")
    try:
        Reward().score_batch(None)
    except ValueError:
        pass
    else:
        raise SelfTestError("exception swallowed by the wrapper")
    _expect(tr._stack == [-1], "span left open after an exception")
    tr.restore()
    _expect(vars(Reward)["score_batch"] is original, "class attribute not restored")
    table = SpanTable(tr)
    _expect(table.calls("fake.Reward.score_batch") == 2, "method span count")
    _expect(table.row_total("fake.Reward.score_batch") == 3, "method row count")


def check_retry_report():
    import layers
    from tracer import SpanTable, Tracer

    mod = types.ModuleType("fake")
    mod.initial_state_array = lambda task_id: task_id

    def gen_success_trajectory(task_id, attempts):
        for _ in range(attempts):
            mod.initial_state_array(task_id)

    mod.gen_success_trajectory = gen_success_trajectory
    tr = Tracer()
    tr.wrap(mod, "initial_state_array", "simworld.initial_state_array")
    tr.wrap(mod, "gen_success_trajectory", layers.GEN_SPANS[0], tag=layers._success_tag)
    mod.gen_success_trajectory(4, 3)
    mod.gen_success_trajectory(4, layers.ZERO_NOISE_ATTEMPTS)
    mod.initial_state_array(4)  # outside any generator: not an attempt
    tr.restore()
    report = layers.retry_report(SpanTable(tr))
    _expect(report == {"4/success": {"clips": 2, "attempts": 3 + layers.ZERO_NOISE_ATTEMPTS,
                                     "zero_noise_clips": 1}}, f"retry report {report}")


def check_real_targets():
    import layers
    from tracer import Tracer

    originals = [vars(owner)[attr] for owner, attr, _, _ in layers.TARGETS]
    _expect(not layers.installed_wrappers(), "a wrapper was installed before the test")
    tr = Tracer()
    layers.install(tr)
    try:
        _expect(len(layers.installed_wrappers()) == len(layers.TARGETS),
                "not every layer target was wrapped")
    finally:
        tr.restore()
    _expect(not layers.installed_wrappers(), "restore left a layer wrapper installed")
    _expect(all(vars(owner)[attr] is orig
                for (owner, attr, _, _), orig in zip(layers.TARGETS, originals)),
            "restore did not put back the original function")


CHECKS = (check_self_time, check_class_and_raise, check_retry_report, check_real_targets)


def run() -> int:
    for check in CHECKS:
        check()
    return len(CHECKS)


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    print(f"tracer self-test: {run()} checks passed")
