#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny shape; it takes seconds.

Run from the repository root::

    python3 perfbench/smoke.py

It checks that the workloads in BENCHMARK.json are the benchmark's own,
that every metric BENCHMARK.json names is reported with its unit in both
modes, that the program passes every output check, that a wrong oracle
answer is counted as a failed operation, and that the generator still
makes the same tiny graph for seed 0.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # first: it pins the BLAS threads before numpy is imported

import gen  # noqa: E402

TRAIN = run.TrainWorkload("tiny", 0.5, batch_size=16, dropout=0.2, artifact_io=True)
EVAL = run.EvalWorkload("tiny", 0.5, k_list=(20, 40, 80, 160))

# Realised shape of generate("tiny", 0); a change here means the generator,
# or numpy's random streams, changed every workload's inputs too.
TINY_SEED0 = {"n": 80, "m": 176, "d": 40, "classes": 3, "mean_out_degree": 2.2,
              "feature_density": 0.101562, "reciprocity": 0.181818, "weak_components": 3}


def expect(ok, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: {what}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json and run.py disagree on the workloads")
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    stats = gen.stats(gen.generate("tiny", 0))
    expect(stats == TINY_SEED0, f"generator drifted: {stats}")

    diagram = run.import_program()
    work = run.HERE / ".work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for trace, metrics in wanted.items():
            for workload in (TRAIN, EVAL):
                result = run.measure(workload, 0, 0.0, bool(trace), work, diagram)
                label = f"{workload.shape} {type(workload).__name__} trace={trace}"
                expect(result["correct"] and result["failed"] == 0,
                       f"{label}: {result['failed']} failed operations")
                expect(set(result["metrics"]) == {m["name"] for m in metrics},
                       f"{label}: reported metrics differ from BENCHMARK.json")
                for m in metrics:
                    expect(result["metrics"][m["name"]]["unit"] == m["unit"],
                           f"{label}: {m['name']} has the wrong unit")

        oracle = run.precision_oracle
        run.precision_oracle = lambda *args: oracle(*args) + 1
        try:
            result = run.measure(EVAL, 0, 0.0, False, work, diagram)
        finally:
            run.precision_oracle = oracle
        expect(result["failed"] == 1 and not result["correct"],
               "a wrong oracle answer was not counted as one failed operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
