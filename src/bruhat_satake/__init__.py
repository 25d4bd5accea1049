"""Exact combinatorics of parabolic double cosets, Schubert cells over
finite fields, Satake-side determinant identities, p-adic coset
invariants, and ordinary parts of Koszul cohomology.

Import names from their modules (``from bruhat_satake.weyl import type_a``).
Importing the package registers every library module in ``sys.modules``
but runs none of them: each module's body runs on the first access to one
of its attributes, so a process runs only the modules it uses.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    """The module ``name``, executed on its first attribute access (the
    ``importlib.util.LazyLoader`` recipe), or the module itself when it is
    already imported."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


flagfq = _lazy_module(f"{__name__}.flagfq")
kernels = _lazy_module(f"{__name__}.kernels")
ordcoh = _lazy_module(f"{__name__}.ordcoh")
padic = _lazy_module(f"{__name__}.padic")
roots = _lazy_module(f"{__name__}.roots")
satake = _lazy_module(f"{__name__}.satake")
weyl = _lazy_module(f"{__name__}.weyl")

__version__ = "0.1.0"
