#!/usr/bin/env python3
"""Time exact ``rank_signature`` at n = 8..12 and check every signature.

    PYTHONPATH=src python3 tools/signature_sizes.py [--sizes 8 10 12] [--repeats 3]

For each n, seven states: a random Gaussian-integer state
(``random_exact_state``), GHZ, W, the Dicke state D(n, k) with
k = min(4, n // 2) (the sum of the basis states of weight k), a product
of three factors (4 + 4 + 4 at n = 12, sizes as even as possible
otherwise) on shuffled qubits, and GHZ and W under random invertible
local operators (``random_invertible_local``): full support and every
rank 2, so a dense signature whose floors mod Q all fall short.  GHZ, W
and Dicke states are symmetric under every swap of qubits, so their
signatures rank one split per split size.  Each repeat builds the state
afresh, so its cleared form and split memo start empty, and times one
``rank_signature`` in CPU seconds; the report is the minimum over the
repeats.  Every signature is checked, outside the timing, against the SVD
signature of the amplitudes (random and product states) or the known ranks
(every split of the four GHZ and W kinds has rank 2, and a split of s
qubits of D(n, k) has rank min(s, n - s, k, n - k) + 1).  Before the timing,
one ``rank_signatures`` call ranks fresh copies of the states of each n
together, and each of its signatures is checked against the same
reference.  Exit status 1 when a signature is wrong.
"""

from __future__ import annotations

import argparse
import random
import time

from sloccrank import rank_signature, rank_signatures, state
from sloccrank.coeffmatrix import enumerate_bipartitions
from sloccrank.slocc import apply_local, random_invertible_local
from sloccrank.states import product_state, random_exact_state
from sloccrank.tables import ghz, w_state


def _dicke(n: int, rng: random.Random):
    k = min(4, n // 2)
    return state(n, [int(bin(i).count("1") == k) for i in range(1 << n)])


def _product(n: int, rng: random.Random):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    sizes = [n // 3 + (k < n % 3) for k in range(3)]
    factors, at = [], 0
    for size in sizes:
        factors.append((random_exact_state(size, rng), tuple(sorted(order[at:at + size]))))
        at += size
    return product_state(factors, n)


def _local(build):
    """``build(n)`` under random invertible local operators drawn from ``rng``."""
    return lambda n, rng: apply_local(build(n), random_invertible_local(n, rng.randrange(1 << 32)))


KINDS = {
    "random": lambda n, rng: random_exact_state(n, rng),
    "ghz": lambda n, rng: ghz(n),
    "w": lambda n, rng: w_state(n),
    "dicke": _dicke,
    "product": _product,
    "ghz_local": _local(ghz),
    "w_local": _local(w_state),
}
RANK_TWO = ("ghz", "w", "ghz_local", "w_local")  # every split of these has rank 2


def svd_signature(psi) -> dict:
    """Rank of every canonical split by the SVD route, on the float amplitudes."""
    return rank_signature(psi.to_float()).ranks


def rank_two_signature(n: int) -> dict:
    """Rank 2 on every canonical split, the signature of the ``RANK_TWO`` kinds."""
    return {bp.canonical_key(): 2 for bp in enumerate_bipartitions(n)}


def dicke_signature(n: int) -> dict:
    """The rank of every canonical split of ``_dicke(n)``."""
    k = min(4, n // 2)
    return {
        bp.canonical_key(): min(len(bp.row_bits), len(bp.col_bits), k, n - k) + 1
        for bp in enumerate_bipartitions(n)
    }


def measure(kind: str, psi, repeats: int, batched) -> tuple[float, bool]:
    """(min CPU seconds of ``rank_signature`` over fresh copies of ``psi``,
    whether it and ``batched``, its signature from ``rank_signatures``, were right)."""
    best = float("inf")
    for _ in range(repeats):
        fresh = state(psi.n, psi.amps)
        start = time.process_time()
        sig = rank_signature(fresh)
        best = min(best, time.process_time() - start)
    if kind in RANK_TWO:
        want = rank_two_signature(psi.n)
    elif kind == "dicke":
        want = dicke_signature(psi.n)
    else:
        want = svd_signature(psi)
    return best, sig.ranks == want == batched.ranks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 9, 10, 11, 12])
    parser.add_argument("--kinds", nargs="+", choices=sorted(KINDS), default=list(KINDS))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    wrong = 0
    print(f"{'n':>3} {'state':<9} {'cpu_min_s':>10}  check")
    for n in args.sizes:
        states = {kind: KINDS[kind](n, random.Random(args.seed)) for kind in args.kinds}
        batched = rank_signatures([state(n, psi.amps) for psi in states.values()])
        for (kind, psi), sig in zip(states.items(), batched):
            seconds, ok = measure(kind, psi, args.repeats, sig)
            wrong += not ok
            print(f"{n:>3} {kind:<9} {seconds:>10.4f}  {'ok' if ok else 'WRONG'}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
