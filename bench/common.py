"""Paths of the checkout and the import of the package under test."""

from __future__ import annotations

import importlib
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TMP = os.path.join(ROOT, ".bench_tmp")


class MissingPackage(RuntimeError):
    """The checkout has no ``src/capacities`` to benchmark."""


def load_package(with_cli: bool = True):
    """Import ``capacities`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "capacities", "__init__.py")):
        raise MissingPackage("no package source at %s" % os.path.join(SRC, "capacities"))
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    C = importlib.import_module("capacities")
    if with_cli:
        importlib.import_module("capacities.cli")
    if not os.path.abspath(C.__file__).startswith(SRC + os.sep):
        raise MissingPackage("capacities was imported from %s, not from %s" % (C.__file__, SRC))
    return C


def child_env() -> dict:
    """Environment for subprocesses that import the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env
