"""Every function the benchmark traces still exists under its traced name.

`perfbench/layers.py` wraps each (owner, attribute) of its TARGETS where
callers look it up; a refactor that removes or renames one of them would
first fail in a benchmark run. Importing the file only builds the table,
so this checks the names without installing a single wrapper. The tracer's
own self-test, which installs and restores every wrapper, runs here too.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling tracer.py
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    missing = [
        layers.span_name(owner, attribute)
        for owner, attribute, _, _ in layers.TARGETS
        if not callable(vars(owner).get(attribute))
    ]
    assert missing == []
    assert layers.installed_wrappers() == []


def test_tracer_self_test_passes(monkeypatch):
    # the untraced benchmark runs never call it; it checks that the layer
    # table wraps and then restores the real targets
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_selftest", PERFBENCH / "selftest.py")
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    assert selftest.run() == len(selftest.CHECKS)
