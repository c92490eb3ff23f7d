"""Fixtures shared by every test package."""

import gc
import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def kill_points():
    """``tools/kill_points.py``, the fork-per-kill-point crash harness."""
    spec = importlib.util.spec_from_file_location(
        "kill_points", REPO_ROOT / "tools" / "kill_points.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses resolve their annotations through it.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def frozen_heap():
    """Keep the cyclic collector off, with the heap that predates it frozen.

    Collects once, disables automatic collection and moves every surviving
    object into the permanent generation (``gc.freeze``).  Each later
    ``gc.collect()`` in the module then walks only what was allocated since
    -- the runs under test -- instead of the whole pytest process, so a
    no-cyclic-garbage check costs a run, not a heap.  Teardown unfreezes
    and restores the collector.

    Limit: a cycle that runs through an object alive before the freeze is
    not found.  The cycles these checks were written for (a rig that
    ``Cluster.close`` or ``Node.retire`` fails to cut) are made
    entirely of the run's own objects, and are still found.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
