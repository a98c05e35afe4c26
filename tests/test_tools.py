"""The scripts in tools/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PIPELINE_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "pipeline_outputs.py"


@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
def test_pipeline_outputs_refuses_other_than_one_blas_thread(tmp_path, threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, str(PIPELINE_OUTPUTS), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: set OPENBLAS_NUM_THREADS=1")
    assert not (tmp_path / "out").exists()
