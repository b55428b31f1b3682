"""Every demo script runs to completion against the current package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specbench

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from a temporary directory, so files a demo writes (05 writes
    # cd_diagram.svg) land there; the relative PYTHONPATH of a plain
    # pytest invocation would not resolve from it, so pass the package's
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(specbench.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
