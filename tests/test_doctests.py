import doctest
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["cli", "flagfq", "kernels", "ordcoh", "padic", "roots", "satake", "weyl"]
WITH_EXAMPLES = {"ordcoh", "padic", "roots", "satake", "weyl"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"bruhat_satake.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
    if name in WITH_EXAMPLES:
        assert result.attempted > 0


def test_package_import_loads_every_library_module():
    # perfbench/tracer.py wraps functions in every module but cli after a
    # bare ``import bruhat_satake``, which registers every module name in
    # sys.modules; each module runs on the first access to its attributes
    src = str(Path(importlib.import_module("bruhat_satake").__file__).resolve().parents[1])
    code = "import json, sys, bruhat_satake; print(json.dumps(sorted(m for m in sys.modules if 'bruhat_satake' in m)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    expected = ["bruhat_satake"] + [f"bruhat_satake.{name}" for name in MODULES if name != "cli"]
    assert json.loads(out) == expected
