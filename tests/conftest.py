"""Shared fixtures."""

import sys

import pytest

from exactframes import _kernel


@pytest.fixture(params=["as_shipped", "graded_only"])
def gram_path(request, monkeypatch):
    """Run a test with the Gram's size cut as shipped and again with the
    graded Gram forced on every input, so that small inputs test it."""
    if request.param == "graded_only":
        monkeypatch.setattr(_kernel, "_SCAN_BELOW", 0)
    return request.param


@pytest.fixture
def digit_limit():
    """The interpreter's limit on the digits ``int()`` converts from
    text.  With no limit (0) there is nothing to refuse, so the test
    runs under the default limit instead, restored afterwards."""
    limit = sys.get_int_max_str_digits()
    if limit:
        yield limit
        return
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(0)
