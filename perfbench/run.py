"""The bruhat-satake benchmark: four workloads, run from a checkout's source.

    python3 perfbench/run.py --workload flag-cover --seed 0 --seconds 34 --trace 0

Load model: a closed loop with one client.  The benchmark starts one
report process, waits for it to end, then starts the next, so at most one
report runs beside this process.  Each CLI report is a fresh
``python3 -m bruhat_satake.cli ...`` with the checkout's ``src/`` as
``PYTHONPATH``, which is what a user of the command line pays.

A pass runs every item of the workload once.  Passes repeat until the
next one would end more than ``--seconds`` after the run's set-up began;
there is always at least one.

``--trace 0`` prints the end-to-end metrics: the median pass wall time
and CPU time (user+sys of the report processes, from ``os.wait4``), the
largest ``ru_maxrss``, the set-up time (median of fresh ``--help``
processes) and the share of items whose output was right.

The host's speed drifts by a third over tens of minutes, for every
process alike, so the three times are given in reference seconds: each
is divided by the run's speed factor, the median time of a fixed
calibration mix (``child.py calibrate``, no program code) run after the
set-up and after every pass, over ``CAL_REF_S``.  The raw times and the
calibration samples are on the detail line.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracer.METRICS``: medians over the traced passes,
with the tracing overhead measured against the untraced ones.

Every item's output is checked.  Items pinned in ``expected.json`` (every
seedless item, and the seeded ones at seed 0) must reproduce the exit
status and stdout sha256 captured at the commit that added the benchmark,
and, when traced, the same counts.  Other items must exit 0 with
``"ok":true``.  A wrong item counts as failed; the run goes on.

The second-to-last stdout line is a JSON record of the environment, the
sample counts and tail percentiles, per-item medians and failures; the
last line is the result.  Exit status 2 means the benchmark could not run
against this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the items do
SETUP_REPEATS = 5
DEFAULT_SEED = 0  # the seed whose seeded items are pinned in expected.json
CAL_REF_S = 1.3  # calibration time at reference speed; any constant will do, it cancels between runs


@dataclass
class Item:
    """One report process: a CLI command or the library sweep."""

    key: str  # the arguments, as pinned in expected.json
    args: list[str]
    sweep: dict | None = None  # sweep parameters; None for a CLI report

    def argv(self, trace_path: str | None) -> list[str]:
        if trace_path is None and self.sweep is None:
            return [sys.executable, "-m", "bruhat_satake.cli", *self.args]
        traced = ["--trace", trace_path] if trace_path else []
        mode = ["sweep"] if self.sweep is not None else ["cli"]
        return [sys.executable, str(HERE / "child.py"), *traced, *mode, *self.args]


def cli_item(command: str) -> Item:
    return Item(command, command.split())


def sweep_item(seed: int, max_n: int = 4, count: int = 500) -> Item:
    args = ["--seed", str(seed), "--max-n", str(max_n), "--count", str(count)]
    return Item("sweep " + " ".join(args), args, {"max_n": max_n, "count": count})


def exact_cli(seed: int) -> list[Item]:
    rng = random.Random(seed)
    s1, s2, s3 = (rng.randrange(1 << 16) for _ in range(3))
    return [
        cli_item("weyl cosets --kind A --n 4"),
        cli_item("cells dims --kind A --n 4"),
        cli_item("cells dims --kind C --n 6 --format csv"),
        cli_item(f"padic h --kind C --n 2 --p 3 --m 2 --seed {s1} --count 100"),
        cli_item(f"padic h --kind A --n 3 --p 5 --m 3 --seed {s2} --count 100"),
        cli_item(f"padic factor --kind C --n 3 --p 3 --m 2 --seed {s3} --count 50"),
        cli_item("satake verify --kind A --n 3 --twist"),
        cli_item("satake verify --kind C --n 2 --twist"),
        cli_item("ordcoh ordinary --d 10 --p 3 --r 2"),
    ]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "flag-cover": lambda seed: [
        cli_item("flag check-cover --kind C --n 2 --q 3"),
        cli_item("flag check-cover --kind A --n 2 --q 2"),
    ],
    "flag-points": lambda seed: [
        cli_item("flag census --kind A --n 3 --q 3"),
        cli_item("flag census --kind C --n 3 --q 3"),
        cli_item("flag check-finding-j --kind A --n 3 --q 2"),
    ],
    "exact-cli": exact_cli,
    "library-sweep": lambda seed: [sweep_item(seed)],
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "ratio"}


def load_pins() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def weyl_order(family: str, n: int) -> int:
    return math.factorial(2 * n) if family == "A" else 2**n * math.factorial(n)


def check_sweep(item: Item, stdout: bytes) -> str | None:
    """The literal values of criteria 1, 2 and 6; None when all hold."""
    try:
        got = json.loads(stdout)
    except ValueError:
        return "sweep output is not JSON"
    max_n, count = item.sweep["max_n"], item.sweep["count"]
    kinds = [(family, n) for family in "AC" for n in range(1, max_n + 1)]
    # 41,508 elements for n <= 4
    elements = sum(weyl_order(family, n) for family, n in kinds)
    want = {
        "blocks": {f"{family}{n}": n + 1 for family, n in kinds},
        "blocks_cover": True,
        "checked": elements,
        "dims_agree": elements,
        "factorizations": count,
        "reassembled": count,
        "h_bounds": count,
    }
    wrong = sorted(k for k in want if got.get(k) != want[k])
    return f"sweep values differ: {wrong}" if wrong else None


def check_output(item: Item, code: int, stdout: bytes, pins: dict) -> str | None:
    """Why the item's output is wrong, or None when it is right."""
    pin = pins.get(item.key)
    if pin is not None:
        if code != pin["exit"]:
            return f"exit {code}, pinned {pin['exit']}"
        if hashlib.sha256(stdout).hexdigest() != pin["sha256"]:
            return "stdout differs from the pinned sha256"
    elif code != 0:
        return f"exit {code}"
    if item.sweep is not None:
        return check_sweep(item, stdout)
    if pin is None and b'"ok":true' not in stdout:
        return 'report lacks "ok":true'
    return None


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    layers: dict | None  # per-process trace metrics of a traced run with right output


@dataclass
class Runner:
    """Starts report processes one at a time and checks what they print."""

    env: dict
    pins: dict
    deadline: float
    scratch: str
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    timed_out: bool = False

    def spawn(self, argv: list[str]) -> tuple[int, bytes, float, float, float]:
        """Run one process to its end: (exit status, stdout, wall, cpu, maxrss MB)."""
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE)
        timer = threading.Timer(max(1.0, self.deadline - started), proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:  # interrupted: leave no report running
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - started
        if code < 0:
            self.timed_out = True
        return code, stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def run(self, item: Item, traced: bool) -> Outcome:
        trace_path = os.path.join(self.scratch, "trace.npz") if traced else None
        code, stdout, wall, cpu, rss = self.spawn(item.argv(trace_path))
        self.attempted += 1
        error = check_output(item, code, stdout, self.pins)
        layers = None
        if traced and error is None:
            layers = tracer.report_metrics(*tracer.load(trace_path))
            pinned = self.pins.get(item.key, {}).get("counts")
            if pinned is not None and tracer.counts_of(layers) != pinned:
                error = "trace counts differ from the pinned counts"
        if error is not None:
            self.failures.append(f"{item.key}: {error}")
        return Outcome(wall, cpu, rss, layers)


def run_pass(runner: Runner, items: list[Item], traced: bool) -> tuple[float, list[Outcome]]:
    started = time.perf_counter()
    outcomes = [runner.run(item, traced) for item in items]
    return time.perf_counter() - started, outcomes


def tail(values: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n}
    if n > 10:
        out[f"p{100 * (n - 10) / n:.1f}"] = ordered[n - 11]
    else:
        out["tail"] = "fewer than 11 samples"
    return out


def measure_setup(runner: Runner) -> list[float]:
    """Wall times of fresh interpreters up to the CLI being ready."""
    runner.spawn([sys.executable, "-m", "bruhat_satake.cli", "--help"])  # fills the bytecode cache
    return [runner.spawn([sys.executable, "-m", "bruhat_satake.cli", "--help"])[2] for _ in range(SETUP_REPEATS)]


def calibrate(runner: Runner) -> tuple[float, float]:
    """(seconds of the fixed calibration mix, wall of its whole process)."""
    code, stdout, wall, _, _ = runner.spawn([sys.executable, str(HERE / "child.py"), "calibrate"])
    if code != 0:
        raise RuntimeError(f"calibration exited {code}")
    return float(stdout), wall


def end_to_end(runner: Runner, items: list[Item], seconds: float) -> tuple[dict, dict]:
    started = time.perf_counter()
    setup = measure_setup(runner)
    cal, cal_wall = calibrate(runner)
    cals = [cal]
    walls, cpus, rss = [], [], 0.0
    per_item: dict[str, list[float]] = {item.key: [] for item in items}
    while not runner.timed_out:
        wall, outcomes = run_pass(runner, items, traced=False)
        walls.append(wall)
        cpus.append(sum(o.cpu_s for o in outcomes))
        rss = max([rss] + [o.rss_mb for o in outcomes])
        for item, o in zip(items, outcomes):
            per_item[item.key].append(o.wall_s)
        cal, cal_wall = calibrate(runner)
        cals.append(cal)
        if time.perf_counter() - started + statistics.median(walls) + cal_wall > seconds:
            break
    speed = statistics.median(cals) / CAL_REF_S
    ok_frac = 1 - len(runner.failures) / runner.attempted
    metrics = {
        "wall_s": statistics.median(walls) / speed,
        "cpu_s": statistics.median(cpus) / speed,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup) / speed,
        "ok_frac": ok_frac,
    }
    detail = {
        "raw_wall_s": tail(walls),
        "raw_cpu_s": tail(cpus),
        "raw_setup_s": tail(setup),
        "calibration_s": cals,
        "speed_factor": speed,
        "failed_frac": 1 - ok_frac,
        "raw_item_wall_s": {key: statistics.median(v) for key, v in per_item.items()},
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail


def per_layer(runner: Runner, items: list[Item], seconds: float) -> tuple[dict, dict]:
    started = time.perf_counter()
    runner.spawn([sys.executable, "-m", "bruhat_satake.cli", "--help"])  # fills the bytecode cache
    plain, traced, passes = [], [], []
    while not runner.timed_out:
        plain.append(run_pass(runner, items, traced=False)[0])
        wall, outcomes = run_pass(runner, items, traced=True)
        traced.append(wall)
        if all(o.layers is not None for o in outcomes):
            reports = [o.layers for o in outcomes]
            passes.append((tracer.pass_metrics(reports), [tracer.counts_of(r) for r in reports]))
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    if any(counts != passes[0][1] for _, counts in passes[1:]):
        runner.failures.append("trace counts differ between traced passes")
    metrics = {
        name: statistics.median([p[0][name] for p in passes]) if passes else 0.0 for name in tracer.METRICS
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    detail = {
        "untraced_wall_s": tail(plain),
        "traced_wall_s": tail(traced),
        "traced_passes_with_layers": len(passes),
        "failed_frac": len(runner.failures) / runner.attempted,
    }
    return {k: (v, tracer.METRICS[k]) for k, v in metrics.items()}, detail


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


class Refused(Exception):
    """The benchmark cannot measure this checkout's own source."""


def report_env() -> tuple[dict, dict]:
    """The environment seen by a report process, and the process
    environment to start reports with."""
    if not (SRC / "bruhat_satake" / "__init__.py").is_file():
        raise Refused(f"{SRC} holds no bruhat_satake package")
    env = {k: v for k, v in os.environ.items() if not k.startswith("BRUHAT_SATAKE_")}
    env["PYTHONPATH"] = str(SRC)
    probe = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "env"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if probe.returncode != 0:
        raise Refused(f"the environment probe failed:\n{probe.stderr}")
    found = json.loads(probe.stdout)
    package = Path(found["package_file"]).resolve()
    if not package.is_relative_to(SRC.resolve()):
        raise Refused(f"bruhat_satake imports from {package}, not from {SRC}")
    found["git_commit"] = git_commit()
    return found, env


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    # a terminated run unwinds like an exception: reports are stopped, scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    try:
        environment, env = report_env()
    except Refused as why:
        sys.stderr.write(f"error: {why}\n")
        return 2
    items = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        runner = Runner(env, load_pins(), started + RUN_LIMIT_S, scratch)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(runner, items, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, env=environment, failures=runner.failures)
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
