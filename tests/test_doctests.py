import doctest
import importlib

import pytest

MODULES = ["cli", "flagfq", "kernels", "ordcoh", "padic", "roots", "satake", "weyl"]
WITH_EXAMPLES = {"ordcoh", "satake", "weyl"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"bruhat_satake.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
    if name in WITH_EXAMPLES:
        assert result.attempted > 0
