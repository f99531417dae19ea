"""Put the benchmark modules and the program's ``src/`` on the import path.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))


@pytest.fixture(autouse=True)
def keep_program_modules():
    """Restore the codedmr modules a test's fresh import replaced."""
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "codedmr" or name.startswith("codedmr.")}
    yield
    for name in [n for n in sys.modules if n == "codedmr" or n.startswith("codedmr.")]:
        del sys.modules[name]
    sys.modules.update(saved)
