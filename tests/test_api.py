"""Tests of the package's public surface."""

import cdfmatch


def test_every_public_name_resolves():
    missing = [name for name in cdfmatch.__all__ if not hasattr(cdfmatch, name)]
    assert missing == []
