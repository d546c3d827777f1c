"""Coefficient-matrix layout, ranks, reduced densities, determinant identity."""

import itertools
import json
import pickle
import random

import numpy as np
import pytest

from sloccrank import coeffmatrix
from sloccrank.coeffmatrix import (
    Bipartition,
    coefficient_matrix,
    det_coeff,
    det_density_exact,
    default_tolerance,
    enumerate_bipartitions,
    rank,
    rank_signature,
    reduced_density,
    singular_values,
)
from sloccrank.scalars import ExactScalar
from sloccrank.states import product_state, random_exact_state, state
from sloccrank.tables import epr, ghz
from _oracles import ref_rank_exact


def four_qubit_counter():
    return state(4, list(range(1, 17)))


def test_layout_ab_ac_ad_first_rows():
    psi = state(4, list(range(16)))
    c_ab = coefficient_matrix(psi, (1, 2))
    assert [e.p for e in c_ab.entries[0]] == [0, 1, 2, 3]
    assert [e.p for e in c_ab.entries[1]] == [4, 5, 6, 7]
    c_ac = coefficient_matrix(psi, (1, 3))
    assert [e.p for e in c_ac.entries[0]] == [0, 1, 4, 5]
    assert [e.p for e in c_ac.entries[1]] == [2, 3, 6, 7]
    c_ad = coefficient_matrix(psi, (1, 4))
    assert [e.p for e in c_ad.entries[0]] == [0, 4, 2, 6]
    assert [e.p for e in c_ad.entries[1]] == [1, 5, 3, 7]
    assert c_ad.bipartition.col_bits == (3, 2)


def test_extreme_splits_are_vectors():
    psi = state(2, [1, 2, 3, 4])
    row = coefficient_matrix(psi, ())
    assert (row.rows, row.cols) == (1, 4)
    assert rank(row) == 1
    col = coefficient_matrix(psi, (1, 2))
    assert (col.rows, col.cols) == (4, 1)
    assert rank(col) == 1


def test_enumerate_bipartitions_counts_and_order():
    assert [bp.canonical_key() for bp in enumerate_bipartitions(2)] == [(1,)]
    assert [bp.canonical_key() for bp in enumerate_bipartitions(3)] == [(1,), (2,), (3,)]
    four = [bp.canonical_key() for bp in enumerate_bipartitions(4)]
    assert four == [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]
    assert len(enumerate_bipartitions(5)) == 15
    assert len(enumerate_bipartitions(6)) == 31


def test_duplicate_row_bits_rejected():
    psi = state(2, [1, 0, 0, 1])
    with pytest.raises(ValueError):
        coefficient_matrix(psi, (1, 1))
    with pytest.raises(ValueError):
        coefficient_matrix(psi, (3,))


def test_rank_examples():
    assert rank(coefficient_matrix(ghz(3), (1,))) == 2
    a_bc = product_state([(state(1, [1, 0]), (1,)), (epr(), (2, 3))], 3)
    assert rank(coefficient_matrix(a_bc, (1,))) == 1
    assert rank(coefficient_matrix(a_bc, (2,))) == 2


def test_rank_signature_table_rows():
    eprepr = product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4)
    assert rank_signature(eprepr).as_tuple() == (2, 2, 2, 2, 1, 4, 4)
    assert rank_signature(state(4, [1] + [0] * 15)).as_tuple() == (1,) * 7
    a_ghz = product_state([(state(1, [1, 0]), (1,)), (ghz(3), (2, 3, 4))], 4)
    assert rank_signature(a_ghz).as_tuple() == (1, 2, 2, 2, 2, 2, 2)


def test_signature_lookup_by_either_side_of_a_split():
    sig = rank_signature(product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4))
    for side, other in (("AB", "CD"), ("AC", "BD"), ("A", "BCD"), ("D", "ABC")):
        assert sig[side] == sig[other] == sig[other[::-1]]
    assert (sig["CD"], sig["BD"], sig["BCD"]) == (1, 4, 2)
    assert sig[(3, 4)] == sig[(1, 2)] == 1
    for key in ("AZ", "E", "", "ABCD", (1, 5), (2, 2)):
        with pytest.raises(KeyError):
            sig[key]
    with pytest.raises(KeyError, match="'Z'"):
        sig["AZ"]


def test_label_maps_share_their_key_strings():
    first = rank_signature(ghz(4)).label_map()
    second = rank_signature(random_exact_state(4, random.Random(2))).label_map()
    assert list(first) == list(second)
    assert all(a is b for a, b in zip(first, second))


def test_label_maps_are_shared_and_read_only():
    psi = random_exact_state(5, random.Random(3))
    first = rank_signature(psi).label_map()
    again = rank_signature(state(5, psi.amps)).label_map()
    assert again is first
    plain = dict(first)
    assert first == plain and plain == first and type(plain) is dict
    assert json.dumps(first) == json.dumps(plain)
    for mutate in (
        lambda m: m.__setitem__("A", 9),
        lambda m: m.__delitem__("A"),
        lambda m: m.update(A=9),
        lambda m: m.setdefault("Z", 1),
        lambda m: m.pop("A"),
        lambda m: m.popitem(),
        lambda m: m.clear(),
        lambda m: m.__ior__({"A": 9}),
    ):
        with pytest.raises(TypeError):
            mutate(first)
    assert first == plain
    assert pickle.loads(pickle.dumps(first)) == plain
    other = rank_signature(ghz(5)).label_map()
    assert other is not first and other != first


def test_row_bit_reorder_permutes_rows():
    psi = four_qubit_counter()
    base = coefficient_matrix(psi, (1, 2))
    reordered = coefficient_matrix(psi, (2, 1))
    assert set(base.entries) == set(reordered.entries)
    assert base.entries != reordered.entries


def test_eight_qubit_signature_scales():
    amps = [0] * 256
    amps[0] = 1
    amps[255] = 1
    big = state(8, amps)
    sig = rank_signature(big)
    assert len(dict(sig.items())) == 127
    assert set(dict(sig.items()).values()) == {2}
    fsig = rank_signature(big.to_float())
    assert sig == fsig


def test_rank_invariant_under_row_bit_order_and_transpose():
    rng = random.Random(17)
    for _ in range(30):
        psi = random_exact_state(4, rng)
        for bits in ((1, 2), (1, 3), (2, 4), (1, 2, 3)):
            base = rank(coefficient_matrix(psi, bits))
            for order in itertools.permutations(bits):
                assert rank(coefficient_matrix(psi, order)) == base
            comp = tuple(b for b in range(1, 5) if b not in bits)
            assert rank(coefficient_matrix(psi, comp)) == base


def test_transpose_duality_entrywise():
    psi = four_qubit_counter()
    C = coefficient_matrix(psi, (1, 4))
    dual = coefficient_matrix(psi, C.bipartition.col_bits, C.bipartition.row_bits)
    assert C.transpose().entries == dual.entries
    for u in range(C.rows):
        for v in range(C.cols):
            assert C.entries[u][v] == dual.entries[v][u]
    assert rank(C) == rank(dual)


def _log_calls(monkeypatch, name, log):
    real = getattr(coeffmatrix, name)

    def spy(*args, **kwargs):
        log.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(coeffmatrix, name, spy)


def test_rank_route_follows_entry_kind(monkeypatch):
    routes = []
    _log_calls(monkeypatch, "bareiss", routes)
    _log_calls(monkeypatch, "singular_values", routes)
    exact = state(2, [1, 0, 0, ExactScalar(1, 0, 0, 0, 10**6)])
    assert rank(coefficient_matrix(exact, (1,))) == 2
    assert routes == ["bareiss"]
    floating = coefficient_matrix(exact.to_float(), (1,))
    assert rank(floating) == 2
    assert rank(floating, tolerance=1e-3) == 1
    assert routes == ["bareiss", "singular_values", "singular_values"]
    with pytest.raises(TypeError):
        rank(floating, "exact")
    with pytest.raises(TypeError):
        rank_signature(exact, "numeric")


@pytest.mark.parametrize("tolerance", [-1.0, float("nan"), 1.0])
def test_rank_refuses_tolerance_outside_zero_to_one(tolerance):
    product = state(2, [1, 0, 0, 0]).to_float()
    with pytest.raises(ValueError, match="tolerance"):
        rank_signature(product, tolerance=tolerance)
    assert rank_signature(product, tolerance=0.5)[(1,)] == 1


def test_exact_and_numeric_ranks_agree():
    rng = random.Random(19)
    for _ in range(40):
        psi = random_exact_state(3, rng)
        for bp in enumerate_bipartitions(3):
            C = coefficient_matrix(psi, bp.row_bits, bp.col_bits)
            exact = rank(C)
            numeric = rank(coefficient_matrix(psi.to_float(), bp.row_bits))
            assert exact == numeric


def test_exact_and_numeric_ranks_agree_on_family_corpus():
    from sloccrank.families import instantiate

    corpus = [
        ghz(4),
        product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4),
        instantiate("G_abcd", (1, 2, 3, 4)),
        instantiate("G_abcd", (1, 1, 2, 2)),
        instantiate("L_abc2", (1, 2, 3)),
        instantiate("L_ab3", (1, 3)),
        instantiate("L_ab3'", (1, 1)),
        instantiate("L_ab3'", (0, 0)),
    ]
    for psi in corpus:
        assert rank_signature(psi) == rank_signature(psi.to_float())


def test_bareiss_rank_matches_reference_on_coefficient_matrices():
    rng = random.Random(43)
    for _ in range(40):
        psi = random_exact_state(4, rng)
        C = coefficient_matrix(psi, (1, 2))
        assert rank(C) == ref_rank_exact([list(row) for row in C.entries])


def test_reduced_density_identity_for_epr():
    rho = reduced_density(epr(), (1,))
    assert rho[0][0] == ExactScalar(1) and rho[1][1] == ExactScalar(1)
    assert rho[0][1].is_zero() and rho[1][0].is_zero()


def test_reduced_density_product_marginal():
    rho = reduced_density(state(2, [1, 0, 0, 0]), (1,))
    assert rho[0][0] == ExactScalar(1)
    assert rho[1][1].is_zero()


def test_density_rank_equals_matrix_rank_random():
    rng = random.Random(47)
    for _ in range(100):
        psi = random_exact_state(4, rng)
        kept = tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 2))))
        C = coefficient_matrix(psi, kept)
        rho = reduced_density(psi, kept)
        flat = [list(row) for row in rho]
        assert ref_rank_exact(flat) == rank(C)


def test_density_hermitian_and_psd():
    rng = random.Random(53)
    for _ in range(20):
        psi = random_exact_state(4, rng)
        rho = reduced_density(psi, (1, 2))
        for u in range(4):
            for v in range(4):
                assert rho[u][v] == rho[v][u].conjugate()
        evals = np.linalg.eigvalsh(
            np.array([[e.to_complex() for e in row] for row in rho])
        )
        assert evals.min() > -1e-10


def test_det_identity_exact_and_float():
    rng = random.Random(59)
    for _ in range(100):
        psi = random_exact_state(4, rng)
        half = tuple(sorted(rng.sample(range(1, 5), 2)))
        det_c = det_coeff(psi, half)
        lhs = det_density_exact(reduced_density(psi, half))
        assert lhs == det_c * det_c.conjugate()
        # floating route within relative 1e-9
        fpsi = psi.to_float()
        fdet = det_coeff(fpsi, half)
        frho = reduced_density(fpsi, half)
        lhs_f = np.linalg.det(frho)
        scale = max(1.0, abs(lhs_f))
        assert abs(lhs_f - abs(fdet) ** 2) < 1e-9 * scale


def test_det_examples():
    assert det_coeff(ghz(4), (1, 2)).is_zero()
    eprepr = product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4)
    assert not det_coeff(eprepr, (1, 3)).is_zero()
    with pytest.raises(ValueError):
        det_coeff(ghz(3), (1,))
    with pytest.raises(ValueError):
        det_coeff(ghz(4), (1,))


def test_singular_values_examples():
    svals = singular_values(coefficient_matrix(epr(), (1,)))
    assert np.allclose(svals, [1.0, 1.0])
    svals = singular_values(coefficient_matrix(state(2, [1, 0, 0, 0]), (1,)))
    assert np.allclose(svals, [1.0, 0.0])
    eprepr = product_state([(epr(), (1, 2)), (epr(), (3, 4))], 4)
    svals = singular_values(coefficient_matrix(eprepr, (1, 2)))
    assert sum(s > 1e-12 for s in svals) == 1


def test_default_tolerance():
    assert default_tolerance(4, 16) == pytest.approx(1.6e-9)


def test_tsv_dump_format():
    psi = state(2, [1, 0, 0, 1])
    text = coefficient_matrix(psi, (1,)).to_tsv()
    lines = text.splitlines()
    assert lines[0] == "# rows=2 cols=2 row_bits=1 col_bits=2"
    assert lines[1] == "1\t0"
    assert lines[2] == "0\t1"


def test_canonical_keys():
    bp = Bipartition.from_row_bits(4, (3, 4))
    assert bp.canonical_key() == (1, 2)
    bp = Bipartition.from_row_bits(4, (2,))
    assert bp.canonical_key() == (2,)
    bp = Bipartition.from_row_bits(5, (1, 2, 3))
    assert bp.canonical_key() == (4, 5)
