"""The benchmark runs against this checkout: one short traced run per workload.

A traced run drives the benchmark's strategy proxy and every thinlab call the
benchmark makes, so an API change that breaks `bench/run.py` fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["threshold-1e6", "baselines-1e6", "oracle-tiny"])
def test_traced_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
