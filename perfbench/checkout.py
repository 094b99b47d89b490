"""Locate the collapse_sim sources of the checkout this benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_source_path() -> None:
    """Put the checkout's ``src`` first on the import path, or exit non-zero.

    The benchmark measures the sources next to it, never an installed copy,
    so a directory without them is an error rather than a fallback.
    """
    if not (SRC / "collapse_sim" / "__init__.py").is_file():
        sys.exit(f"error: no collapse_sim sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
