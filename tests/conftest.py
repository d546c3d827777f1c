import pytest

import sloccrank._kernels as kernels
import sloccrank.tables as tables


@pytest.fixture
def eliminate_calls(monkeypatch):
    """The shapes ``_kernels._eliminate`` is called with, in order."""
    calls = []
    real = kernels._eliminate

    def spy(entries, nrows, ncols):
        calls.append((nrows, ncols))
        return real(entries, nrows, ncols)

    monkeypatch.setattr(kernels, "_eliminate", spy)
    return calls


@pytest.fixture
def stacked_ranks(monkeypatch):
    """The ranks each ``_kernels.stacked_rank`` call returns, as lists, in order."""
    calls = []
    real = kernels.stacked_rank

    def spy(q, ranks=None):
        out = real(q, ranks)
        calls.append(out.tolist())
        return out

    monkeypatch.setattr(kernels, "stacked_rank", spy)
    return calls


@pytest.fixture
def quick_scans(monkeypatch):
    """Rule-table scans of 40 tuples per sample instead of 500."""
    monkeypatch.setattr(tables, "SCAN_PER_SAMPLE", 40)
