"""The three workloads, each a fixed sequence of rtslab CLI commands.

Every command runs in this process through ``rtslab.cli.main(argv)``, the
entry point of the ``rtslab`` console script, one after another (a closed
loop with one client, ``--threads 1``). After each command its output files
are fingerprinted and compared with the committed reference for the input
set (for a set-up run in a child process, once that process has ended); a
nonzero exit code or a mismatch counts the command as failed.
"""

from __future__ import annotations

import io
import json
import re
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checks import fingerprint, mismatches, sha256_file
from clock import ReferenceClock, SpeedProbe
from rtslab import cli

INPUT_SETS = 8  # --seed n plays input set n % INPUT_SETS; each has a reference
FRACTIONS = "0.04,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
SHORT_MATCHES = ["--rounds", "2", "--max-steps", "600", "--capture-every", "8"]
TRAIN_EPOCHS = 8
SETUP_EPOCHS = 2
TIMELINES = 3
_DURATION = re.compile(rb'"duration":(\d+)')


class Runner:
    """Runs CLI commands and checks each one's outputs against a reference.

    `refs` maps a command label to {file name: fingerprint}; with `refs`
    None (while recording references) every command passes unless it exits
    nonzero, and its fingerprints are kept in `recorded`. With `defer_checks`
    the outputs of each command that exited 0 are only listed in `pending`,
    for another process to `check` once this one has ended.
    """

    def __init__(self, refs: dict | None, log: io.StringIO, defer_checks: bool = False):
        self.refs = refs
        self.log = log
        self.defer_checks = defer_checks
        self.pending: list[tuple[str, list[str]]] = []
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall = 0.0  # summed wall time of the commands since last reset
        self.clock: ReferenceClock | None = None
        self.scaled = 0.0  # summed clock-scaled time of the commands since last reset
        self.recorded: dict[str, dict] = {}
        self.output_sha: dict[str, dict[str, str]] = {}

    def run(self, label: str, argv: list[str], outputs: list[Path]) -> None:
        self.attempted += 1
        command = argv[0]
        probe = SpeedProbe() if self.clock is not None else nullcontext()
        start = perf_counter()
        with probe, redirect_stdout(self.log), redirect_stderr(self.log):
            try:
                if self.tracer is not None:
                    self.tracer.op_id = self.attempted
                    with self.tracer.span(f"cli.{command}"):
                        code = cli.main(argv)
                else:
                    code = cli.main(argv)
            except Exception:  # a crash is one failed operation, not a crashed benchmark
                traceback.print_exc()
                code = "exception"
        seconds = perf_counter() - start
        self.wall += seconds
        if self.clock is not None:
            self.scaled += self.clock.scale(seconds, probe.speeds, probe.seconds)
        if code != 0:
            return self._fail(f"{label}: exit {code}")
        if self.defer_checks:
            self.pending.append((label, [str(p) for p in outputs]))
        else:
            self.check(label, outputs)

    def check(self, label: str, outputs: list[Path]) -> None:
        """Fingerprint one command's output files and compare them with the reference."""
        missing = [p.name for p in outputs if not p.is_file()]
        if missing:
            return self._fail(f"{label}: missing {missing}")
        prints = {p.name: fingerprint(p) for p in outputs}
        self.output_sha[label] = {p.name: sha256_file(p) for p in outputs}
        self.recorded[label] = prints
        if self.refs is not None:
            bad = mismatches(prints, self.refs.get(label, {}))
            if bad:
                self._fail(f"{label}: output differs from reference: {bad}")

    def merge(self, report: dict) -> None:
        """Count the commands another process ran with `defer_checks`, and
        check their outputs here."""
        self.attempted += report["attempted"]
        for problem in report["problems"]:
            self._fail(problem)
        for label, outputs in report["pending"]:
            self.check(label, [Path(p) for p in outputs])

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _generate(r: Runner, label: str, out: Path, seed: int, extra: list[str]) -> None:
    r.run(label, ["generate", "--out", str(out), "--seed", str(seed), "--threads", "1"] + extra,
          [out / "dataset.jsonl", out / "splits.json"])


def _train(r: Runner, label: str, data: Path, out: Path, seed: int, epochs: int,
           variant: str) -> None:
    r.run(label, ["train", "--dataset", str(data / "dataset.jsonl"), "--out", str(out),
                  "--preset", "desk", "--variant", variant, "--epochs", str(epochs),
                  "--seed", str(seed)],
          [out / "config.json", out / "train.json", out / "train_log.csv"])


def _durations(dataset: Path) -> list[int]:
    return [int(m) for m in _DURATION.findall(dataset.read_bytes())] if dataset.is_file() else []


def _split_size(data: Path, part: str) -> int:
    path = data / "splits.json"
    return len(json.loads(path.read_text())[part]) if path.is_file() else 0


class Tournament:
    """`generate` at protocol defaults: full roster, 1000-step limit, every
    2nd step captured. Work unit: one simulated game step."""

    name = "tournament"
    unit = "sim steps"

    def setup(self, r: Runner, setup_dir: Path, seed: int) -> None:
        # a short tournament, so set-up covers the simulator's start as well as the imports
        _generate(r, "setup.generate", setup_dir / "warmup", seed,
                  ["--rounds", "2", "--max-steps", "100", "--capture-every", "2"])

    def run_pass(self, r: Runner, setup_dir: Path, out: Path, seed: int) -> int:
        _generate(r, "pass.generate", out / "data", seed,
                  ["--rounds", "2", "--max-steps", "1000", "--capture-every", "2"])
        return sum(_durations(out / "data" / "dataset.jsonl"))


class Train:
    """`train --preset desk` for the tri-axis model, then for the space/time
    ablation. Work unit: one training example seen in one epoch."""

    name = "train"
    unit = "train samples"

    def setup(self, r: Runner, setup_dir: Path, seed: int) -> None:
        _generate(r, "setup.generate", setup_dir / "data", seed, SHORT_MATCHES)

    def run_pass(self, r: Runner, setup_dir: Path, out: Path, seed: int) -> int:
        data = setup_dir / "data"
        _train(r, "pass.train.tstf", data, out / "tstf", seed, TRAIN_EPOCHS, "tstf")
        _train(r, "pass.train.spacetime", data, out / "spacetime", seed, TRAIN_EPOCHS,
               "space_time_only")
        return 2 * TRAIN_EPOCHS * _split_size(data, "train")


class Evaluate:
    """`compare` of both models and both classical scores at 11 progress
    fractions, then `timeline` of 3 full-length matches. Work unit: one
    prediction, an (evaluator, record, fraction) triple or a timeline row."""

    name = "evaluate"
    unit = "predictions"

    def setup(self, r: Runner, setup_dir: Path, seed: int) -> None:
        data = setup_dir / "data"
        _generate(r, "setup.generate", data, seed, SHORT_MATCHES)
        _train(r, "setup.train.tstf", data, setup_dir / "tstf", seed, SETUP_EPOCHS, "tstf")
        _train(r, "setup.train.spacetime", data, setup_dir / "spacetime", seed, SETUP_EPOCHS,
               "space_time_only")

    @staticmethod
    def timeline_matches(data: Path) -> list[int]:
        """The first matches that ran to the step limit, so every one has
        the same number of frames whatever the input set."""
        durations = _durations(data / "dataset.jsonl")
        longest = max(durations, default=0)
        return [i for i, d in enumerate(durations) if d == longest][:TIMELINES]

    def run_pass(self, r: Runner, setup_dir: Path, out: Path, seed: int) -> int:
        data = setup_dir / "data"
        models = f"{setup_dir / 'tstf'},{setup_dir / 'spacetime'}"
        dataset = str(data / "dataset.jsonl")
        compare = out / "compare"
        names = ["tstf-2", "spacetime-2", "simple", "lanchester"]
        r.run("pass.compare",
              ["compare", "--dataset", dataset, "--models", models, "--out", str(compare),
               "--fractions", FRACTIONS],
              [compare / f"stratified_{n}.csv" for n in names]
              + [compare / "stratified_paper_reference.csv", compare / "op_stability.csv"])
        work = len(names) * _split_size(data, "test") * len(FRACTIONS.split(","))
        for match in self.timeline_matches(data):
            path = out / "timeline" / f"timeline_match{match}.csv"
            r.run(f"pass.timeline.{match}",
                  ["timeline", "--dataset", dataset, "--models", models,
                   "--out", str(path.parent), "--match-id", str(match)], [path])
            if path.is_file():
                work += len(path.read_text().splitlines()) - 2  # comment + header
        return work


WORKLOADS = {w.name: w for w in (Tournament(), Train(), Evaluate())}
