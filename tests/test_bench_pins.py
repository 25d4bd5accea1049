"""The benchmark's pinned outputs and traced counts, reproduced in tier-1.

``perfbench/expected.json`` pins, per benchmark item, the exit status, the
stdout sha256 and every traced count (kernel calls, matrices, points,
...).  A change that moves one of them fails the benchmark; these tests
catch it without a benchmark run, on the items that run ``roots``, five
flag items, one Weyl item, one ordinary-projector item, the three
seeded ``padic`` items, the two ``satake verify`` items and the seed-0
library sweep.  The padic pins fix
the stdout and the ``BlockMatrix.mul``, ``h_invariant`` and
``factor_P_Gamma1`` counts, so a change to the samplers' draw order fails
here.  The satake pins fix the stdout and the ``LaurentPoly.__mul__``
count (61 for A n = 3, 131 for C n = 2, both twisted), so a change that
adds or drops a polynomial product fails here.  The sweep pin fixes ``WeylElement.built`` and
``cell_dim_by_roots.calls`` over every Weyl element of A and C up to
n = 4.  An item's key names its ``child.py`` mode: ``sweep ...`` runs the
library sweep, anything else is a CLI report.
"""

import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

ITEMS = [
    "cells dims --kind A --n 4",
    "cells dims --kind C --n 6 --format csv",
    "flag check-cover --kind A --n 2 --q 2",
    "flag check-cover --kind C --n 2 --q 3",
    "flag check-finding-j --kind A --n 3 --q 2",
    "flag census --kind A --n 3 --q 3",
    "flag census --kind C --n 3 --q 3",
    "ordcoh ordinary --d 10 --p 3 --r 2",
    "padic factor --kind C --n 3 --p 3 --m 2 --seed 5306 --count 50",
    "padic h --kind A --n 3 --p 5 --m 3 --seed 55125 --count 100",
    "padic h --kind C --n 2 --p 3 --m 2 --seed 50494 --count 100",
    "satake verify --kind A --n 3 --twist",
    "satake verify --kind C --n 2 --twist",
    "sweep --seed 0 --max-n 4 --count 500",
    "weyl cosets --kind A --n 4",
]

# the sweep's Weyl and root work, spelled out: the 41,508 elements of A and
# C up to n = 4, each built twice and multiplied twice by w_0, and three
# cell_dim_by_roots calls per element
SWEEP_COUNTS = {"weyl.WeylElement.built": 166108, "roots.cell_dim_by_roots.calls": 124524}


def _tracer():
    """perfbench/tracer.py as a module, compiled in memory so that no
    bytecode cache is written under perfbench/."""
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("item", ITEMS)
def test_traced_item_matches_its_pin(item, tmp_path):
    pin = json.loads((PERFBENCH / "expected.json").read_text())[item]
    mode, *args = item.split()
    if mode != "sweep":
        mode, args = "cli", item.split()
    trace = tmp_path / "trace.npz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--trace", str(trace), mode, *args],
        capture_output=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert result.returncode == pin["exit"], result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == pin["sha256"]
    tracer = _tracer()
    counts = tracer.counts_of(tracer.report_metrics(*tracer.load(str(trace))))
    assert counts == pin["counts"]
    if mode == "sweep":
        assert {key: counts[key] for key in SWEEP_COUNTS} == SWEEP_COUNTS
