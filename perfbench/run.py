"""Benchmark of the rtslab pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload tournament --seed 3 --seconds 10 --trace 0

Run from the root of a source checkout; rtslab is imported from ``src/``.
Each set-up runs in a fresh child process (``--setup-into DIR``), so its
time includes the interpreter's start and the imports, and its memory stays
out of this process; its outputs are checked here once it has ended. With
``--trace 0`` the run alternates a set-up and a pass of the workload's timed
commands (run in this process) for as many whole rounds as fit in
``--seconds`` (at least three), and reports the medians as end-to-end
metrics; times are scaled by the host's speed around each command
(``perfbench/clock.py``). With ``--trace 1`` it sets up once in a child
and once traced in this process, runs the timed commands twice, untraced and
then traced, checks that traced and untraced set-ups and passes leave
byte-identical files, and reports per-layer metrics from the traced set-up
and pass, plus the per-scope model probe.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CLI commands and failed output checks) and
``metrics`` ({name: {value, unit}}). A fuller record, with the machine it
ran on, lands in ``.perfbench_work/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = 3
PROBE_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", type=Path, default=None,
                   help="only run the workload's set-up into this directory, print a "
                        "report of its commands and leave their checks to the caller")
    return p.parse_args(argv)


def set_up(wl, runner, setup_dir: Path, input_set: int) -> tuple[float, dict]:
    """Run the workload's set-up in a child process; return its wall time
    and what the child's speed probe measured.

    The child runs the set-up commands with ``defer_checks``; their outputs
    are checked here, after the child has ended and outside the timing.
    """
    shutil.rmtree(setup_dir, ignore_errors=True)
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", wl.name,
            "--seed", str(input_set), "--seconds", "0", "--setup-into", str(setup_dir)]
    start = perf_counter()
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    seconds = perf_counter() - start
    runner.log.write(child.stderr)
    try:
        report = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if child.returncode != 0 or report is None:
        runner.attempted += 1
        runner._fail(f"set-up: child process exit {child.returncode}")
        return seconds, {"speeds": [], "seconds": 0.0}
    runner.merge(report)
    return seconds, report["probe"]


def setup_child(workload: str, setup_dir: Path, input_set: int) -> int:
    """Body of ``--setup-into``: set up, then print what ran, what to check
    and what the probe measured. The probe covers the imports too."""
    from clock import SpeedProbe

    log = io.StringIO()
    with SpeedProbe() as probe:
        from workloads import WORKLOADS, Runner

        runner = Runner(None, log, defer_checks=True)
        WORKLOADS[workload].setup(runner, setup_dir, input_set)
    sys.stderr.write(log.getvalue())
    print(json.dumps({"attempted": runner.attempted, "problems": runner.problems,
                      "pending": runner.pending,
                      "probe": {"speeds": probe.speeds, "seconds": probe.seconds}}))
    return 0


def machine_record() -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: build[k].get("name") for k in ("blas", "lapack") if k in build}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_untraced(wl, runner, work, seed, seconds) -> dict:
    # Rounds of one set-up and one pass, so that both sample the whole window.
    # Times are scaled by the speed probed inside and around each command.
    from clock import ReferenceClock

    clock = runner.clock = ReferenceClock()
    setups, walls, rates, raw_setups, raw_walls = [], [], [], [], []
    start = perf_counter()
    while True:
        raw, probe = set_up(wl, runner, work / "setup", seed)
        raw_setups.append(raw)
        setups.append(clock.scale(raw, probe["speeds"], probe["seconds"]))
        runner.wall = runner.scaled = 0.0
        work_done = wl.run_pass(runner, work / "setup", work / "pass", seed)
        raw_walls.append(runner.wall)
        walls.append(runner.scaled)
        rates.append(work_done / runner.scaled)
        rounds = len(walls)
        elapsed = perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break  # the next round would end after the measuring window
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }, {"setup_s": setups, "wall_s": walls, "work_per_s": rates,
        "raw_setup_s": raw_setups, "raw_wall_s": raw_walls, "probe_speeds": clock.speeds}


def _same_outputs(runner, plain: dict, traced: dict, prefix: str) -> None:
    for label, files in plain.items():
        if label.startswith(prefix) and traced.get(label) != files:
            runner._fail(f"{label}: traced output differs from untraced output")


def run_traced(wl, runner, work, seed, spans_path) -> dict:
    from probe import run_probe
    from tracer import Tracer

    tracer = Tracer()
    set_up(wl, runner, work / "setup", seed)
    plain_sha = dict(runner.output_sha)
    with tracer.installed():
        runner.tracer = tracer
        wl.setup(runner, work / "setup-traced", seed)
    runner.tracer = None
    _same_outputs(runner, plain_sha, runner.output_sha, "setup.")
    # both passes read the untraced set-up's outputs
    runner.wall = 0.0
    wl.run_pass(runner, work / "setup", work / "untraced", seed)
    plain_wall, plain_sha = runner.wall, dict(runner.output_sha)
    with tracer.installed():
        runner.tracer = tracer
        runner.wall = 0.0
        wl.run_pass(runner, work / "setup", work / "traced", seed)
    runner.tracer = None
    traced_wall = runner.wall
    _same_outputs(runner, plain_sha, runner.output_sha, "pass.")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall - 1.0, "ratio")
    metrics.update(run_probe(seed, PROBE_REPEATS))
    spans_path.write_text(json.dumps(
        {"fields": ["id", "parent", "op", "name", "start", "end"], "spans": tracer.spans}
    ))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rtslab" / "cli.py").is_file():
        print(f"error: rtslab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_into is not None:  # the parent passes the input set as --seed
        return setup_child(args.workload, args.setup_into, args.seed)
    from workloads import INPUT_SETS, WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    input_set = args.seed % INPUT_SETS
    refs = json.loads((BENCH / "refs.json").read_text())
    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / "runs" / run_id
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)

    log = io.StringIO()
    runner = Runner(refs["workloads"][wl.name][str(input_set)], log)
    samples = {}
    if args.trace:
        metrics = run_traced(wl, runner, work, input_set, results / f"{run_id}.spans.json")
        metrics["ops.attempted"] = (runner.attempted, "count")
        metrics["ops.failed_ratio"] = (runner.failed / runner.attempted, "ratio")
    else:
        metrics, samples = run_untraced(wl, runner, work, input_set, args.seconds)
    shutil.rmtree(work, ignore_errors=True)

    machine = machine_record()
    record = {
        "workload": wl.name, "seed": args.seed, "input_set": input_set, "trace": args.trace,
        "work_unit": wl.unit, "machine": machine, "problems": runner.problems,
        "samples": samples, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    (results / f"{run_id}.log").write_text(log.getvalue())
    print("machine: " + json.dumps(machine, sort_keys=True))
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
