"""Fixtures shared by several test modules."""

import pytest

from ybalg import ybe


@pytest.fixture
def row_streams(monkeypatch):
    """Each stream of ``ybe.push_rows`` opened during a test: the out-words of
    the rows it yielded, and whether it was read to its end."""
    streams = []
    push_rows = ybe.push_rows

    def reading(chains):
        stream = {"rows": [], "done": False}
        streams.append(stream)
        for o, row in push_rows(chains):
            stream["rows"].append(o)
            yield o, row
        stream["done"] = True

    monkeypatch.setattr(ybe, "push_rows", reading)
    return streams
