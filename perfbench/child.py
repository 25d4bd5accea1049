"""One benchmark process: an environment probe, a speed calibration, a
traced CLI report, or the library sweep.

    python3 perfbench/child.py env
    python3 perfbench/child.py calibrate
    python3 perfbench/child.py [--trace FILE] cli <bruhat-satake arguments...>
    python3 perfbench/child.py [--trace FILE] sweep --seed S --max-n N --count K

``bruhat_satake`` must be importable (``run.py`` puts the checkout's
``src/`` on ``PYTHONPATH``).  With ``--trace FILE`` the process wraps the
package's public functions (see ``tracer.py``) after importing it and
writes its spans to FILE when it ends.  An untraced CLI report is not
run through here: ``run.py`` starts ``python3 -m bruhat_satake.cli``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import time
from fractions import Fraction

START = time.perf_counter()


def probe_env() -> dict:
    """What the measured numbers depend on, seen from a report process."""
    import numpy

    import bruhat_satake
    from bruhat_satake import kernels

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "kernels_backend": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "package_file": os.path.abspath(bruhat_satake.__file__),
    }


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work the reports do.

    Tuple and dict BFS (as in the Weyl tables), Fraction matrix products
    (padic), a loop of tiny numpy operations (per-point flag work) and one
    large batched product with byte keys (cover checks).  It uses nothing
    from bruhat_satake, so no change to the program moves it; only the
    speed of the host does.
    """
    import numpy as np

    started = time.perf_counter()
    gens = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, 7)) for i in range(6)]
    for _ in range(8):
        table = {tuple(range(7)): 0}
        frontier = list(table)
        while frontier:
            nxt = []
            for perm in frontier:
                for g in gens:
                    image = tuple(perm[g[i]] for i in range(7))
                    if image not in table:
                        table[image] = table[perm] + 1
                        nxt.append(image)
            frontier = nxt

    a = [[Fraction(i * 3 + j + 1, j + 2) for j in range(3)] for i in range(3)]
    acc = a
    for _ in range(600):
        acc = [[sum(acc[i][k] * a[k][j] for k in range(3)) % 97 for j in range(3)] for i in range(3)]

    m = np.arange(18, dtype=np.int64).reshape(3, 6)
    for i in range(24_000):
        stacked = np.vstack([m, np.eye(3, 6, dtype=np.int64)]) % 3
        int((stacked != 0).any(axis=1).sum()) + int(stacked[:, i % 6].argmax())

    batch = np.random.default_rng(0).integers(0, 3, size=(300_000, 4, 4))
    flat = ((batch @ batch[0]) % 3).astype(np.int8).reshape(len(batch), -1)
    len({row.tobytes() for row in flat})
    return time.perf_counter() - started


def sweep(seed: int, max_n: int, count: int) -> dict:
    """Acceptance criteria 1, 2 and 6 through public functions only."""
    from bruhat_satake import padic, roots, weyl

    kinds = [weyl.GroupKind(family, n) for family in weyl.Family for n in range(1, max_n + 1)]
    blocks = {}
    blocks_cover = True
    for kind in kinds:
        parts = weyl.double_coset_partition(kind)
        blocks[f"{kind.family.value}{kind.n}"] = len(parts)
        blocks_cover = blocks_cover and sum(len(b) for b in parts) == len(weyl.all_elements(kind))

    checked = dims_agree = 0
    for kind in kinds:
        w0 = weyl.longest_element(kind)
        for w in weyl.all_elements(kind):
            d = roots.cell_dim_by_roots(w)
            checked += 1
            dims_agree += (
                roots.unipotent_intersection_dim(w) == d
                and roots.standard_unipotent_intersection_dim(w) == d
                and roots.schubert_cell_dim(w) == roots.cell_dim_by_roots(w * w0)
            )

    # The seed draws only the matrices.  Kinds, primes, levels and gamma
    # powers follow a fixed schedule, so the amount of work does not
    # depend on the seed.
    rng = random.Random(seed)
    small = [weyl.type_a(1), weyl.type_a(2), weyl.type_c(1), weyl.type_c(2)]
    schedule = list(itertools.product(small, (2, 3, 5), range(1, 5), range(5)))
    reassembled = h_bounds = 0
    for i in range(count):
        kind, p, m, k = schedule[i % len(schedule)]
        shift = 1 if kind.family is weyl.Family.TYPE_A else 2
        g = padic.random_congruence_element(kind, p, m, rng)
        gk = g
        for _ in range(k):
            gk = gk * padic.gamma(kind, p)
        h_bounds += padic.h_invariant(gk) >= shift * k + 1
        p_part, g1_part = padic.factor_P_Gamma1(g, m)
        reassembled += (p_part * g1_part).rows == g.rows
    return {
        "blocks": blocks,
        "blocks_cover": blocks_cover,
        "checked": checked,
        "dims_agree": dims_agree,
        "factorizations": count,
        "reassembled": reassembled,
        "h_bounds": h_bounds,
    }


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    if mode == "env":
        print(json.dumps(probe_env()))
        return 0
    if mode == "calibrate":
        print(calibrate())
        return 0

    spans = None
    if trace_path:
        import tracer

        spans = tracer.Tracer(" ".join(argv), cli=mode == "cli")
        spans.marks["start"] = START
    if mode == "cli":
        from bruhat_satake import cli
    else:
        import bruhat_satake  # noqa: F401
    if spans:
        spans.mark("imported")
        spans.install()
        spans.mark("main_start")
    try:
        if mode == "cli":
            try:
                cli.main.main(args, prog_name="bruhat-satake")
                code = 0
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
        else:
            opts = dict(zip(args[::2], args[1::2]))
            result = sweep(int(opts["--seed"]), int(opts["--max-n"]), int(opts["--count"]))
            sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
            code = 0
        sys.stdout.flush()
    finally:
        if spans:
            spans.mark("main_end")
            spans.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
