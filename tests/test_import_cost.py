"""``import phrp`` stays light: no scipy module and no phrp submodule beyond
the ones the package's own imports need; scipy is imported on first use only."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# what ``import phrp`` loads of its own package
PHRP_MODULES = [
    "phrp",
    "phrp._kernels",
    "phrp.collective",
    "phrp.convex",
    "phrp.convex.ccp",
    "phrp.convex.packed",
    "phrp.convex.program",
    "phrp.convex.solver",
    "phrp.harp",
    "phrp.model",
    "phrp.separability",
]


def _modules_after_import() -> list[str]:
    """The phrp and scipy modules a fresh interpreter holds after ``import phrp``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = (
        "import json, sys, phrp; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('phrp', 'scipy'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize alone adds about 0.4 s and 50 MB to every process
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import phrp, sys; assert 'scipy.optimize' not in sys.modules"],
        env=env,
        check=True,
        timeout=120,
    )


def test_import_loads_no_scipy_and_no_new_submodule():
    # a fresh-interpreter import is most of a small corpus's set-up time, so
    # it loads no scipy module at all and only these phrp modules
    assert _modules_after_import() == PHRP_MODULES
