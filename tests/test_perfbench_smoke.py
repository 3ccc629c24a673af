"""The benchmark's own self-test, run as part of the unit tests.

``perfbench/smoke.py`` drives every workload at a tiny shape, traced and
untraced. The traced pass wraps ``Adam.step``, ``Linear.forward`` and
``Linear.backward``, ``DiagramModel.zero_grad`` and ``named_layers`` by
name and signature, so renaming or re-signing one of them fails here and
not only in a full benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
