"""The golden corpus (``scripts/golden.py``): every argv gives the exit
code and the bytes of stdout, stderr and each file recorded in
``tests/golden.json``.  A change that moves output on purpose rewrites the
manifest with ``python scripts/golden.py --write``."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_corpus_matches_the_manifest():
    """Each moved argv is named with its first differing line."""
    found = golden.compare()
    assert not found, "\n".join(found)
