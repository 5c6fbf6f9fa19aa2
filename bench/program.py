"""Locate the program under test: the ``rainbowcycles`` package in ``src/`` of
the checkout that holds this benchmark.

The benchmark never falls back to an installed copy, so a checkout without
the sources fails instead of timing some other build.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "rainbowcycles"


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def load():
    """Put ``src/`` first on the import path and import the package from it."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise ProgramMissing(f"no rainbowcycles package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rainbowcycles

    origin = Path(rainbowcycles.__file__).resolve().parent
    if origin != PACKAGE_DIR.resolve():
        raise ProgramMissing(f"rainbowcycles was imported from {origin}, not {PACKAGE_DIR}")
    return rainbowcycles


def source_digest() -> str:
    """SHA-256 over the package sources, so runs of a checkout without git
    history can still be matched to the code they measured."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None
