"""Load the benchmark's modules under ``bench/`` without putting that
directory on the import path: the bench tests and ``pool_digest.py`` read
them as they are, never edit them."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name, **imports):
    """The bench module ``name``, with ``imports`` importable by their
    names while it loads."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, imports):
        spec.loader.exec_module(module)
    return module
