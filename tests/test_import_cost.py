"""``import phrp`` stays light: scipy.optimize is imported on first use only."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize alone adds about 0.4 s and 50 MB to every process
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import phrp, sys; assert 'scipy.optimize' not in sys.modules"],
        env=env,
        check=True,
        timeout=120,
    )
