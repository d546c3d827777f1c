"""Exact arithmetic and linear algebra over Z[i, sqrt2].

A scalar is a quadruple of arbitrary-precision ints ``(a, b, c, d)``
standing for ``a + b*i + c*sqrt2 + d*i*sqrt2``.  The quadruples form an
integral domain, so fraction-free (Bareiss) elimination stays exact:
every division below is by construction remainder-free, and a nonzero
remainder raises instead of silently corrupting the result.

This module is the one home of the quadruple product (``mul4``) and of
the adjoint/norm pair behind every field inverse; ``ExactScalar`` in
``scalars`` builds on both.

Rank-only requests first try the prime field F_P.  Since P = 1 (mod 8),
both -1 and 2 are squares mod P, and i -> I_P, sqrt2 -> S_P is a ring
homomorphism Z[i, sqrt2] -> F_P.  An exactly vanishing minor vanishes
mod P, so the rank mod P is a lower bound on the exact rank; when it
reaches min(nonzero rows, nonzero columns) it is the exact rank.
Otherwise the exact elimination decides.

The exactly zero rows and columns are found on the residues (see
``residues``: an entry that is nonzero but vanishes mod P is stored as
P, not 0), so no quadruple is scanned.  The full-rank test in F_P has
two routes, chosen by the size of the matrix left after dropping those
rows and columns.  From ``INT64_MIN_CELLS`` cells on, the residues go
into an int64 array that is reduced mod P, eliminated a whole row block
at a time and reduced again after every update: residues below
P < 2**31 keep each product below 2**62.  Below it, Python lists are as
fast or faster, because a numpy call costs as much as a few dozen list
updates; the same cutoff picks how the zero rows and columns are found.
Timed through ``_certified_rank`` on random full-rank matrices with the
residues given (one core of a 2-CPU x86-64 host, Python 3.11, numpy
2.4), lists against int64 took 13 vs 18 us at 2 x 4, 28 vs 29 us at
4 x 4, 34 vs 21 us at 4 x 8, 84 vs 42 us at 8 x 8, 362 vs 88 us at
16 x 16 and 13.9 vs 2.4 ms at 64 x 64.
"""

import numpy as np

ZERO4 = (0, 0, 0, 0)
ONE4 = (1, 0, 0, 0)

P = 2147483497  # prime, P = 1 (mod 8), below 2**31
I_P = 1731803418  # I_P**2 = -1 (mod P)
S_P = 974023842  # S_P**2 = 2 (mod P)
IS_P = 391447392  # I_P * S_P % P
INT64_MIN_CELLS = 32  # full-rank tests from this many cells on run in int64


def mul4(x, y):
    """Product of two quadruples in Z[i, sqrt2]."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
        a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def adjoint_and_norm(x):
    """``(adj, N)`` with ``x * adj == N``, a plain (possibly negative) integer.

    ``adj`` is the product of the three nontrivial conjugates of ``x``,
    so ``N`` is the field norm and ``adj / N`` the inverse of ``x``.
    """
    a, b, c, d = x
    conj_i = (a, -b, c, -d)
    conj_s = (a, b, -c, -d)
    conj_is = (a, -b, -c, d)
    adj = mul4(mul4(conj_i, conj_s), conj_is)
    n = mul4(x, adj)
    if n[1] or n[2] or n[3]:
        raise ArithmeticError("norm is not rational")
    return adj, n[0]


def _div_exact(x, adj, norm):
    t = mul4(x, adj)
    out = []
    for comp in t:
        q, r = divmod(comp, norm)
        if r:
            raise ArithmeticError("inexact division in fraction-free elimination")
        out.append(q)
    return tuple(out)


def echelon(entries, nrows, ncols):
    """Fraction-free (Bareiss) row echelon form of a quadruple matrix.

    ``entries`` is a row-major list of ``nrows * ncols`` quadruples.
    Returns ``(m, pivots, sign)``: ``m`` is the reduced row-major list,
    row ``r`` of it has its pivot in column ``pivots[r]``, rows from
    ``len(pivots)`` on are zero, and ``sign`` is the parity of the row
    swaps.  Each pivot is a minor of the input, so for square input of
    full rank the last pivot times ``sign`` is the determinant.  This is
    the one elimination loop of the package.
    """
    m = list(entries)
    pivots = []
    sign = 1
    prev_adj, prev_norm = ONE4, 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        p = -1
        for i in range(r, nrows):
            e = m[i * ncols + c]
            if e[0] or e[1] or e[2] or e[3]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            for j in range(c, ncols):
                m[p * ncols + j], m[r * ncols + j] = m[r * ncols + j], m[p * ncols + j]
            sign = -sign
        piv = m[r * ncols + c]
        for i in range(r + 1, nrows):
            x = m[i * ncols + c]
            for j in range(c + 1, ncols):
                t = mul4(piv, m[i * ncols + j])
                u = mul4(x, m[r * ncols + j])
                diff = (t[0] - u[0], t[1] - u[1], t[2] - u[2], t[3] - u[3])
                m[i * ncols + j] = _div_exact(diff, prev_adj, prev_norm)
            m[i * ncols + c] = ZERO4
        prev_adj, prev_norm = adjoint_and_norm(piv)
        pivots.append(c)
        r += 1
    return m, pivots, sign


def _eliminate(entries, nrows, ncols):
    """``(rank, det)`` of a quadruple matrix read off ``echelon``.

    ``det`` is the exact determinant quadruple for square input of full
    rank and ``(0, 0, 0, 0)`` otherwise.  The only source of
    determinants and the fallback of the modular rank route.
    """
    m, pivots, sign = echelon(entries, nrows, ncols)
    rank = len(pivots)
    if not rank == nrows == ncols:
        return rank, ZERO4
    a, b, c, d = m[-1]
    return rank, (a, b, c, d) if sign > 0 else (-a, -b, -c, -d)


def residues(quads):
    """The images ``a + b*I_P + c*S_P + d*IS_P`` in F_P, as an int64 array.

    A nonzero quadruple whose image is 0 is stored as P (also 0 mod P),
    so the nonzero cells of the array are exactly the nonzero quadruples:
    values lie in [0, P] and must be reduced before any F_P arithmetic.
    """
    return np.array(
        [
            (a + b * I_P + c * S_P + d * IS_P) % P or (P if a or b or c or d else 0)
            for a, b, c, d in quads
        ],
        dtype=np.int64,
    )


def _full_rank_mod_p(rows, ncols):
    """Whether the F_P matrix ``rows`` has rank ``min(len(rows), ncols)``.

    ``rows`` is a list of ``ncols``-long int lists standing for their
    residues mod P; it is consumed.  Entries are reduced only where they
    are tested or become a pivot row (a multi-digit ``%`` costs more than
    the update itself), so each update grows an entry by less than P**2.
    Stops at the first pivotless column that rules full rank out.
    """
    slack = ncols - min(len(rows), ncols)  # columns that may lack a pivot
    for c in range(ncols):
        for k, row in enumerate(rows):
            x = row[c] % P
            if x:
                break
        else:
            slack -= 1
            if slack < 0:
                return False
            continue
        del rows[k]
        if not rows:
            return True
        inv = pow(x, -1, P)
        piv = [v * inv % P for v in row[c + 1:]]
        for other in rows:
            x = other[c] % P
            if x:
                other[c + 1:] = [v - x * p for v, p in zip(other[c + 1:], piv)]
    return True


def _full_rank_mod_p_int64(m):
    """``_full_rank_mod_p`` for an int64 array ``m`` of ``residues``.

    Works on a reduced copy in the wide orientation, so full rank is
    full row rank: each row in turn must keep a nonzero entry x, and
    every later row r becomes ``(x * r - r[j] * row) % P`` in one
    vectorised update.  Both products are below P**2 < 2**62, so their
    difference fits int64 too, and it is reduced at once: every entry
    read is in [0, P).
    """
    m = np.remainder(m.T if m.shape[0] > m.shape[1] else m, P, order="C")
    last = m.shape[0] - 1
    for k in range(last + 1):
        row = m[k]
        j = row.argmax()
        x = row[j]
        if not x:
            return False
        if k == last:
            return True
        rest = m[k + 1:]
        t = rest[:, j, None] * row
        rest *= x
        rest -= t
        rest %= P
    return True


def _certified_rank(entries, nrows, ncols, res=None):
    """Exact rank: support compression, then F_P, then ``_eliminate``.

    ``res`` is ``residues(entries)`` when the caller has it already; its
    nonzero cells are the nonzero entries, so it gives the support.
    """
    if res is None:
        res = residues(entries)
    mod = res.reshape(nrows, ncols)
    if mod.size < INT64_MIN_CELLS:  # as for the F_P test, lists beat numpy calls here
        lines = mod.tolist()
        rows = [i for i, line in enumerate(lines) if any(line)]
        cols = [j for j, line in enumerate(zip(*lines)) if any(line)]
    else:
        rows = np.flatnonzero(mod.any(axis=1)).tolist()
        cols = np.flatnonzero(mod.any(axis=0)).tolist()
    full = min(len(rows), len(cols))
    if full <= 1:
        return full
    if len(rows) * len(cols) >= INT64_MIN_CELLS:
        if len(rows) < nrows or len(cols) < ncols:
            mod = mod[np.ix_(rows, cols)]
        certified = _full_rank_mod_p_int64(mod)
    else:
        lines = mod.tolist()
        certified = _full_rank_mod_p([[lines[i][j] for j in cols] for i in rows], len(cols))
    if certified:
        return full
    return _eliminate([entries[i * ncols + j] for i in rows for j in cols], len(rows), len(cols))[0]


def bareiss(entries, nrows, ncols, det=True, res=None):
    """Exact rank, and the determinant on request, of a quadruple matrix.

    ``entries`` is a row-major sequence of ``nrows * ncols`` quadruples.
    With ``det=True`` returns ``(rank, det)`` as ``_eliminate`` does:
    ``det`` is the exact determinant for square input and ``(0, 0, 0, 0)``
    for rank-deficient or non-square input.  With ``det=False`` returns
    ``(rank, None)``.  Ranks not needing a determinant come from the
    certified mod-P route (see the module docstring), never from chance;
    ``res``, the entries' ``residues`` in the same order, spares that
    route computing them.
    """
    if det and nrows == ncols:
        return _eliminate(entries, nrows, ncols)
    return _certified_rank(entries, nrows, ncols, res), ZERO4 if det else None


def apply_single_qubit(amps, n, target, op):
    """Apply a 2x2 operator to one qubit of a quadruple amplitude vector.

    ``target`` is 0-based with qubit 0 the most significant index bit;
    ``op`` is ``(op00, op01, op10, op11)`` as quadruples.
    """
    op00, op01, op10, op11 = op
    out = list(amps)
    bit = 1 << (n - 1 - target)
    for w in range(1 << n):
        if w & bit:
            continue
        w1 = w | bit
        x0 = amps[w]
        x1 = amps[w1]
        t = mul4(op00, x0)
        u = mul4(op01, x1)
        out[w] = (t[0] + u[0], t[1] + u[1], t[2] + u[2], t[3] + u[3])
        t = mul4(op10, x0)
        u = mul4(op11, x1)
        out[w1] = (t[0] + u[0], t[1] + u[1], t[2] + u[2], t[3] + u[3])
    return out
