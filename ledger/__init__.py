"""Performance ledger: the benchmark every performance claim about this repo uses.

``BENCHMARK.json`` at the repo root is the contract; ``ledger/README.md``
explains every workload and metric.  The simulator under ``src/repro`` is
measured from outside: nothing in it knows this package exists.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BENCHMARK.json's command may name no path outside ``ledger/``, so the
# simulator's source directory is put on the import path here and not by a
# PYTHONPATH in the command.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
