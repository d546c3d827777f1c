import pytest

import sloccrank._kernels as kernels


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
