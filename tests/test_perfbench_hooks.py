"""The benchmark's traced run must still find every hook it installs.

``perfbench/tracing.py`` wraps functions and methods of ``diagram`` by
name. A hook whose target was renamed or removed is only reported as
absent, and its metrics read 0, so a refactor could silently blank the
per-layer numbers. This runs the traced pass of the tiny train and eval
workloads of ``perfbench/smoke.py`` and requires no absent hook, a
nonzero forward time for every ``Linear`` layer, and calls to the loss,
dropout, penalty and gradient-zeroing hooks of the training step (the
tiny train workload runs dropout 0.2): a step that stopped calling one
of those names would blank its metrics while every hook was still found.

It runs in a subprocess because ``perfbench/run.py`` pins the BLAS
threads before numpy is first imported.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = r"""
import json, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import smoke  # imports run first, which pins the BLAS threads
run = smoke.run
diagram = run.import_program()
work = Path(sys.argv[1])
out = {}
for name, workload in (("train", smoke.TRAIN), ("eval", smoke.EVAL)):
    result = run.measure(workload, 0, 0.0, True, work, diagram)
    out[name] = {key: m["value"] for key, m in result["metrics"].items()}
    out[name]["failed"] = result["failed"]
print(json.dumps(out))
"""


def test_traced_run_finds_every_hook(tmp_path):
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for name in ("train", "eval"):
        assert metrics[name]["failed"] == 0, name
        assert metrics[name]["trace.absent_hooks"] == 0, name
    layers = {k: v for k, v in metrics["train"].items() if k.startswith("nn.linear.fwd_s.")}
    assert len(layers) == 8
    assert all(v > 0 for v in layers.values()), layers
    for name in ("nn.masked_sq_error.calls", "nn.dropout_mask.calls",
                 "model.penalty_weights.calls", "model.zero_grad.calls"):
        assert metrics["train"][name] > 0, name
