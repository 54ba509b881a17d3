"""Import ``sparsecut`` from this checkout's ``src/`` and from nowhere else."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsecut"


def import_sparsecut():
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: {PACKAGE} not found; run the benchmark from a checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import sparsecut

    if Path(sparsecut.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported sparsecut from {sparsecut.__file__}, not {PACKAGE}")
    return sparsecut
