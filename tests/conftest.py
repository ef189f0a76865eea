import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eccentric


@pytest.fixture
def blas_thread_outputs(tmp_path):
    """Run a job in a subprocess at 1 and at 2 OpenBLAS threads; return both outputs.

    A job is a Python snippet (str), whose output is its stdout, or a CLI argv
    (list), whose output is the `outputs` of the manifest it writes under tmp_path.
    """
    src = str(Path(eccentric.__file__).parents[1])

    def run(job):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            argv = (["-c", job] if isinstance(job, str)
                    else ["-m", "eccentric.cli", *job, "--out-dir", str(out)])
            proc = subprocess.run([sys.executable, *argv], capture_output=True, check=True,
                                  text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                                                  "PYTHONPATH": src})
            outputs.append(proc.stdout if isinstance(job, str)
                           else json.loads((out / "manifest.json").read_text())["outputs"])
        return outputs

    return run
