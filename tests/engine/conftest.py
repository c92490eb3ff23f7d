"""Shared fixtures for the engine tests."""

import pytest

from repro.engine import registry


@pytest.fixture
def install_kind(monkeypatch):
    """Install a fake :class:`~repro.engine.registry.SpecKind` for one test.

    The spec-kind table is fixed; a test that needs a kind ``src/`` never
    names adds it to the table's three indexes through ``monkeypatch``, so
    it is gone again when the test ends.  Workers forked while it is
    installed inherit it.
    """

    def install(kind):
        registry.registered_kinds()  # build the table before extending it
        monkeypatch.setitem(registry._BY_NAME, kind.name, kind)
        monkeypatch.setitem(registry._BY_SPEC_TYPE, kind.spec_type, kind)
        monkeypatch.setitem(registry._BY_TAG, kind.json_tag, kind)
        return kind

    return install
