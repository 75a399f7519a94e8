"""Every ``examples/*.py`` script runs as written.

Each script runs in its own interpreter with ``src`` on the path and must exit
0 having printed something.  The examples count as users of the names they
import (see ``test_public_names.py``), so a script that breaks shows up here
rather than going stale.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
assert EXAMPLES, f"no example scripts found in {ROOT / 'examples'}"


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"{script.name} exited {proc.returncode}:\n{proc.stderr}"
    assert proc.stdout.strip(), f"{script.name} printed nothing"
