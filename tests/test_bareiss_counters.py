"""perfbench's ``kernels.bareiss`` counters read the same on lazily listed splits.

``perfbench/bench_trace.py`` is imported by path, unedited, and its
``Tracer`` wraps ``rank_signature`` on n=8 states.  The tracer reads a
call's entries only after the call, so its counters must equal the ones
computed from the eager transpose listing of every split.  Those states
have no qubit symmetry, so every split makes its own call; a symmetric
GHZ state makes one call per orbit.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from sloccrank.coeffmatrix import _canonical_plans, _stacks, rank_signature
from sloccrank.slocc import apply_local, random_invertible_local
from sloccrank.states import random_exact_state, state
from test_split_cells import _ghz, _product, _w

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ghz_broken(n, rng):
    """GHZ_n plus amplitudes on |x_1>, |x_2>, |x_3>, where bit t of qubit q's
    index q - 1 decides whether x_t has qubit q set: the bits of x_1..x_3
    tell any two of n <= 8 qubits apart, so with distinct amplitudes no
    swap of qubits fixes the state.  One added amplitude |x> would not do:
    every swap within the qubits x sets, or within those it clears, fixes it."""
    psi = _ghz(n, rng)
    amps = list(psi.amps)
    for t, amp in enumerate((5, 6, 7)):
        amps[sum(1 << (n - q) for q in range(1, n + 1) if (q - 1) >> t & 1)] = amp
    return state(n, amps)


STATES = {
    "dense": lambda rng: random_exact_state(8, rng),
    "ghz": lambda rng: _ghz_broken(8, rng),
    "w": lambda rng: _w(8, rng),
    "product": lambda rng: _product(8, rng),
    "ghz_local": lambda rng: apply_local(_ghz(8, rng), random_invertible_local(8, rng.randrange(1 << 32))),
}


def _eager_counts(psi, ranks):
    """The tracer's counters, computed from the eager listing of every split."""
    counts = {"calls": 0, "cells": 0, "zero_cells": 0, "full_rank": 0, "max_input_bits": 0}
    for plan in _canonical_plans(psi.n):
        cells = psi.cleared[0].transpose(plan.axes + (psi.n,)).reshape(-1, 4).tolist()
        counts["calls"] += 1
        counts["cells"] += len(cells)
        counts["zero_cells"] += sum(not any(q) for q in cells)
        counts["full_rank"] += ranks[plan.key] == min(plan.rows, plan.cols)
        bits = max(abs(x).bit_length() for q in cells for x in q)
        counts["max_input_bits"] = max(counts["max_input_bits"], bits)
    return counts


@pytest.mark.parametrize("kind", sorted(STATES))
def test_traced_bareiss_counters_match_eager_lists(kind):
    psi = STATES[kind](random.Random(41))
    if kind == "dense":  # the stacked-floor path
        assert _stacks(psi.n, int(np.count_nonzero(psi.cleared[0].any(axis=-1))))
    bench_trace = _bench_trace()
    tracer = bench_trace.Tracer()
    with tracer:
        signature = rank_signature(psi)
    assert "kernels.bareiss" not in tracer.missing
    traced = dict(tracer.counters["kernels.bareiss"])
    traced["calls"] = bench_trace.layer_totals(tracer.snapshot())["kernels.bareiss"]["calls"]
    fresh = state(psi.n, psi.amps)
    assert traced == _eager_counts(fresh, signature.ranks)
    assert signature == rank_signature(fresh)


def test_traced_bareiss_calls_on_symmetric_ghz_are_one_per_orbit():
    """GHZ_8's qubits are interchangeable, so its 127 splits fall into the
    four orbits of sizes 1..4, and ``rank_signature`` ranks one of each."""
    psi = _ghz(8, random.Random(41))
    bench_trace = _bench_trace()
    tracer = bench_trace.Tracer()
    with tracer:
        signature = rank_signature(psi)
    assert bench_trace.layer_totals(tracer.snapshot())["kernels.bareiss"]["calls"] == 4
    assert set(signature.ranks.values()) == {2} and len(signature.ranks) == 127
