"""Shared fixtures."""

import pytest

from exactframes._kernel import graded


@pytest.fixture(params=["as_shipped", "graded_only"])
def gram_path(request, monkeypatch):
    """Run a test with the Gram's size cut as shipped and again with the
    graded Gram forced on every input, so that small inputs test it."""
    if request.param == "graded_only":
        monkeypatch.setattr(graded, "_SCAN_BELOW", 0)
    return request.param
