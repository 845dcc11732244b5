"""Every runtime module imports cleanly as the first ``repro`` import.

The runtime builds on core's E2SF, DSFA and NMP modules while the core
package also exports the pipeline that drives the runtime; an eager import
between the two deadlocks on a partially initialised module.  Each check
runs in a fresh interpreter so no earlier import can mask the order.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "module", ["repro.runtime", "repro.runtime.legacy", "repro.runtime.shard"]
)
def test_module_imports_first_in_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
