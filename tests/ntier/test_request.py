"""Tests for request objects."""

import pytest

from repro.ntier.request import Request


def test_response_time_requires_completion():
    req = Request(0, "X", arrival=1.0, demands={})
    with pytest.raises(ValueError):
        _ = req.response_time
    req.completion = 3.5
    assert req.response_time == pytest.approx(2.5)
    assert req.done
