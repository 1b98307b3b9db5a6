"""Run the suite from a source checkout without installing the package.

The checkout's ``src`` goes first on ``sys.path`` for this process and on
``PYTHONPATH`` for the ``python -m hvgan`` subprocesses some tests start.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
