"""``coeffmatrix.SplitCells`` reads a split's quadruples only when a proof needs them.

Its array and its listing are the eager transpose of ``PureState.cleared``
for every split of every state kind, whatever the split memo held before.
Per ``bareiss`` call, a spy on the array reads and on the kernel's routes
shows that a split decided by its floor, its support, a full rank mod P,
the term rank or the subadditivity cap is never read, and one that
reaches ``stacked_rank`` or ``_eliminate`` is read exactly once.
"""

import random
from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np
import pytest

import sloccrank._kernels as kernels
import sloccrank.coeffmatrix as coeffmatrix
from sloccrank._kernels import _eliminate, bareiss
from sloccrank.coeffmatrix import (
    SplitCells,
    _canonical_plans,
    coefficient_matrix,
    det_coeff,
    rank_signature,
    split_rank,
)
from sloccrank.families import rank_triple
from sloccrank.scalars import ExactScalar
from sloccrank.slocc import apply_local, random_invertible_local
from sloccrank.states import product_state, random_exact_state, state
from test_stack_certificate import _dicke, _factor, _scalar


def _ghz(n, rng):
    return state(n, [_scalar(rng)] + [0] * ((1 << n) - 2) + [_scalar(rng)])


def _w(n, rng):
    amps = [0] * (1 << n)
    for k in range(n):
        amps[1 << k] = _scalar(rng)
    return state(n, amps)


def _product(n, rng):
    """Two dense factors on shuffled qubits (one dense factor below two qubits)."""
    if n < 2:
        return random_exact_state(n, rng)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    size = rng.randint(1, n - 1)
    return product_state(
        [(_factor("dense", size, rng), tuple(sorted(order[:size]))),
         (_factor("dense", n - size, rng), tuple(sorted(order[size:])))],
        n,
    )


STATES = {
    "random": lambda n, rng: random_exact_state(n, rng),
    "ghz": _ghz,
    "w": _w,
    "dicke": lambda n, rng: _dicke(n, max(1, n // 2), _scalar(rng)),
    "product": _product,
}


def _prefill(psi, how):
    """Rank some splits first, as ``split_rank`` or the rank triple of ``classify_subfamily``."""
    if how == "split_rank":
        for plan in _canonical_plans(psi.n)[::2]:
            split_rank(psi, plan.bipartition.row_bits)
    elif how == "rank_triple" and psi.n == 4:
        rank_triple(psi)


def _eager(psi, plan):
    cells = psi.cleared[0].transpose(plan.axes + (psi.n,)).reshape(-1, 4)
    return [tuple(q) for q in cells.tolist()]


@pytest.mark.parametrize("how", [None, "split_rank", "rank_triple"])
@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("n", range(1, 9))
def test_listing_is_the_eager_transpose(n, kind, how):
    psi = STATES[kind](n, random.Random(100 * n + len(kind)))
    _prefill(psi, how)
    quads, den = psi.cleared
    for plan in _canonical_plans(n):
        cells, eager = SplitCells(quads, plan.axes), _eager(psi, plan)
        assert len(cells) == plan.rows * plan.cols == len(eager)
        assert np.asarray(cells).tolist() == [list(q) for q in eager]
        assert cells[-1] == eager[-1] and cells[1:3] == eager[1:3]
        assert list(cells) == eager
        if n <= 4:  # the cells over the state's denominator are the matrix entries
            entries = coefficient_matrix(psi, plan.bipartition.row_bits).entries
            assert [ExactScalar(*q, den) for q in cells] == [e for row in entries for e in row]
    fresh = state(n, psi.amps)
    assert rank_signature(psi) == rank_signature(fresh)


def test_the_listing_is_made_on_first_read_and_kept():
    psi = random_exact_state(4, random.Random(3))
    cells = SplitCells(psi.cleared[0], _canonical_plans(4)[5].axes)
    assert len(cells) == 16 and cells._cells is None  # the length lists nothing
    first = cells[0]
    kept = cells._cells
    assert kept is not None and list(cells) == kept and cells[0] == first
    assert cells._cells is kept


# --- which splits are listed ---------------------------------------------------------------


@contextmanager
def _listing_spy():
    """Per ``coeffmatrix.bareiss`` call: the array reads of its cells (a
    listing is one) and the kernel routes it ran, in order (``pivots``,
    ``term_rank``, ``cut_cap``, ``stacked_rank``, ``eliminate``), with the
    floor it was given."""
    calls = []
    real_array = SplitCells.__array__

    def array(self, *args, **kwargs):
        calls[-1]["reads"] += 1
        return real_array(self, *args, **kwargs)

    def route(name, fn):
        def spy(*args, **kwargs):
            if calls:
                calls[-1]["routes"].append(name)
            return fn(*args, **kwargs)
        return spy

    real_bareiss = coeffmatrix.bareiss

    def traced_bareiss(entries, nrows, ncols, det=True, res=None, cap=None, floor=None):
        calls.append({"reads": 0, "routes": [], "floor": floor, "shape": (nrows, ncols)})
        return real_bareiss(entries, nrows, ncols, det=det, res=res, cap=cap, floor=floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SplitCells, "__array__", array)
        mp.setattr(coeffmatrix, "bareiss", traced_bareiss)
        mp.setattr(coeffmatrix, "_cut_cap", route("cut_cap", coeffmatrix._cut_cap))
        for name, attr in (("pivots", "_pivots_mod_p_int64"), ("term_rank", "_term_rank"),
                           ("stacked_rank", "stacked_rank"), ("eliminate", "_eliminate")):
            mp.setattr(kernels, attr, route(name, getattr(kernels, attr)))
        yield calls


def _decided_by(call):
    """The last route a call ran, or ``floor`` / ``support`` when it ran none."""
    if call["routes"]:
        return call["routes"][-1]
    return "support" if call["floor"] is None else "floor"


def _corpus():
    rng = random.Random(21)
    ghz_local = apply_local(_ghz(6, rng), random_invertible_local(6, 7))
    dicke = _dicke(8, 2, ExactScalar(3, 1, 2, 1))
    beyond_int64 = _dicke(6, 3, ExactScalar(2**70, 1))  # its shortfalls take elimination
    partly = _product(8, rng)
    _prefill(partly, "split_rank")
    return [random_exact_state(8, rng), _ghz(8, rng), _w(8, rng), _product(8, rng),
            _product(6, rng), _dicke(6, 3, _scalar(rng)), dicke, ghz_local, partly,
            beyond_int64, state(5, [1] + [0] * 31)]


def test_only_a_certificate_or_elimination_lists_a_split():
    """A split is read (as an array) only by a proof or an elimination."""
    seen = set()
    for psi in _corpus():
        with _listing_spy() as calls:
            signature = rank_signature(psi)
        assert calls, "the signature ranked no split"
        for call in calls:
            decided = _decided_by(call)
            seen.add(decided)
            reads = "stacked_rank" in call["routes"] or "eliminate" in call["routes"]
            assert call["reads"] == (1 if reads else 0), call
        fresh = state(psi.n, psi.amps)
        for plan in _canonical_plans(psi.n):
            assert signature.ranks[plan.key] == _eliminate(_eager(fresh, plan), plan.rows, plan.cols)[0]
    # every route was met: the corpus decides splits each way
    assert seen >= {
        "floor", "support", "pivots", "term_rank", "cut_cap", "stacked_rank", "eliminate"
    }


def test_a_full_floor_reads_neither_entries_nor_residues():
    class Unreadable(Sequence):
        def __len__(self):
            return 32

        def __getitem__(self, index):
            raise AssertionError("an entry was read")

    # res=object() has no reshape: reading it would raise
    assert bareiss(Unreadable(), 4, 8, det=False, res=object(), floor=4) == (4, None)
    assert bareiss(Unreadable(), 8, 4, det=False, res=object(), floor=4) == (4, None)
    with pytest.raises(AttributeError):  # a floor below min(rows, cols) reads the residues
        bareiss(Unreadable(), 4, 8, det=False, res=object(), floor=3)


# --- determinants ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("kind", sorted(STATES))
def test_det_coeff_is_the_eager_determinant(n, kind):
    psi = STATES[kind](n, random.Random(7 * n + len(kind)))
    den = psi.cleared[1]
    for plan in _canonical_plans(n):
        if 2 * len(plan.bipartition.row_bits) != n:
            continue
        half = plan.bipartition.row_bits
        det4 = _eliminate(_eager(psi, plan), plan.rows, plan.cols)[1]
        value = det_coeff(psi, half)
        assert value == ExactScalar(*det4, den**plan.rows)
        assert abs(complex(value) - det_coeff(psi.to_float(), half)) <= 1e-9 * max(1.0, abs(complex(value)))
