"""Let the ``python -m qhsplit`` subprocesses that tests start import the
package from ``src`` when it is not installed (``pythonpath`` in
``pyproject.toml`` covers only the pytest process itself)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path)
