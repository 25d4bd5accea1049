"""Quick self-test of the benchmark, about twenty seconds.

    python3 perfbench/selftest.py

Runs one short item per workload, untraced and traced, and checks that:
every metric of BENCHMARK.json is reported with its unit; outputs pass
their checks; the count metrics of two traced runs of one item are equal;
the self times of a traced CLI report, with its import and CLI time, sum
to the report's own wall time; and kernels are never called outside the
flag workloads.  It also checks that the pinned counts of the two largest
flag items are the ones the benchmark was specified with.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import time

import run
import tracer

SHORT = {
    "flag-cover": run.cli_item("flag check-cover --kind A --n 1 --q 2"),
    "flag-points": run.cli_item("flag census --kind A --n 2 --q 2"),
    "exact-cli": run.cli_item("padic factor --kind A --n 1 --p 3 --m 2 --seed 5 --count 5"),
    "library-sweep": run.sweep_item(seed=5, max_n=2, count=20),
}
KERNEL_WORKLOADS = ("flag-cover", "flag-points")


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def units(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json names the benchmark's workloads")
    check(units(spec["per_layer"]) == tracer.METRICS, "BENCHMARK.json lists every per-layer metric with its unit")
    pins = run.load_pins()
    # counts measured when the benchmark was specified; traced runs compare against the pins
    census = pins["flag census --kind A --n 3 --q 3"]["counts"]
    cover = pins["flag check-cover --kind C --n 2 --q 3"]["counts"]
    check(census["kernels.rref_mod.calls"] == census["kernels.rref_mod.mats"] == 33_880
          and cover["kernels.matmul_mod.calls"] == 960 and cover["kernels.matmul_mod.mats"] == 11_070_064,
          "pinned kernel counts match the specified ones")
    _, env = run.report_env()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as scratch:
        runner = run.Runner(env, pins, time.perf_counter() + 600, scratch)
        for name, item in SHORT.items():
            metrics, _ = run.end_to_end(runner, [item], seconds=0)
            check({k: unit for k, (_, unit) in metrics.items()} == units(spec["end_to_end"]),
                  f"{name}: every end-to-end metric is reported with its unit")
            metrics, _ = run.per_layer(runner, [item], seconds=0)
            check({k: unit for k, (_, unit) in metrics.items()} == tracer.METRICS,
                  f"{name}: every per-layer metric is reported with its unit")
            first, second = runner.run(item, traced=True), runner.run(item, traced=True)
            check(first.layers is not None and second.layers is not None, f"{name}: traced output is right")
            counts = tracer.counts_of(first.layers)
            check(counts == tracer.counts_of(second.layers), f"{name}: counts repeat across traced runs")
            kernel_calls = sum(v for k, v in counts.items() if k.startswith("kernels."))
            check((kernel_calls > 0) == (name in KERNEL_WORKLOADS), f"{name}: kernels run only on flag workloads")
            if item.sweep is None:
                layers = first.layers
                parts = [v for k, v in layers.items() if k.endswith(".self_s")] + [layers["cli.import_s"]]
                check(math.isclose(sum(parts), layers["process_s"], rel_tol=1e-9, abs_tol=1e-9),
                      f"{name}: self times sum to the report's wall time")
            print(f"ok {name}")
        check(not runner.failures, f"every output checked out: {runner.failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
