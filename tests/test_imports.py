"""rewardlab needs only numpy at run time: importing every module of the
package, in a fresh interpreter, loads no `scipy` module. (scipy's import
alone costs ~20 MB of resident memory, a third of a benchmark workload's
peak.) The benchmark's machine report may still read scipy's version."""

import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rewardlab"

PROBE = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(sys.modules)))
"""


def test_no_module_imports_scipy():
    modules = ["rewardlab"] + [f"rewardlab.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
                               if path.stem != "__init__"]
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *modules], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    loaded = json.loads(out)
    assert set(modules) <= set(loaded)
    assert [name for name in loaded if name == "scipy" or name.startswith("scipy.")] == []
