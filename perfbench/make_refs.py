"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/make_refs.py

Runs each workload's set-up and one pass for every input set and writes
their fingerprints to perfbench/refs.json. Run it only on a commit whose
outputs are known good, and only when the benchmark's commands change;
a change to the program must leave these references valid.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from pathlib import Path

from run import SRC, WORK

sys.path.insert(0, str(SRC))

from checks import ATOL  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS, Evaluate, Runner  # noqa: E402


def main() -> int:
    out = {"input_sets": INPUT_SETS, "atol": ATOL, "workloads": {}}
    for wl in WORKLOADS.values():
        per_set = out["workloads"][wl.name] = {}
        for k in range(INPUT_SETS):
            work = WORK / "refs" / f"{wl.name}-{k}"
            shutil.rmtree(work, ignore_errors=True)
            runner = Runner(None, io.StringIO())
            wl.setup(runner, work / "setup", k)
            done = wl.run_pass(runner, work / "setup", work / "pass", k)
            if runner.failed:
                print(runner.log.getvalue(), file=sys.stderr)
                raise SystemExit(f"{wl.name} input set {k}: {runner.problems}")
            if wl.name == "evaluate":
                assert len(Evaluate.timeline_matches(work / "setup" / "data")) == 3
            per_set[str(k)] = runner.recorded
            print(f"{wl.name} input set {k}: {done} {wl.unit}", flush=True)
            shutil.rmtree(work)
    path = Path(__file__).resolve().parent / "refs.json"
    path.write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
