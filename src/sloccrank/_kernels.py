"""Exact arithmetic and linear algebra over Z[i, sqrt2].

A scalar is a quadruple of arbitrary-precision ints ``(a, b, c, d)``
standing for ``a + b*i + c*sqrt2 + d*i*sqrt2``.  The quadruples form an
integral domain, so fraction-free (Bareiss) elimination stays exact:
every division below is by construction remainder-free, and a nonzero
remainder raises instead of silently corrupting the result.

This module is the one home of the quadruple product (``mul4``) and of
the adjoint/norm pair behind every field inverse; ``ExactScalar`` in
``scalars`` builds on both.
"""

ZERO4 = (0, 0, 0, 0)
ONE4 = (1, 0, 0, 0)


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


def bareiss(entries, nrows, ncols):
    """Fraction-free row reduction of a quadruple matrix.

    ``entries`` is a row-major list of ``nrows * ncols`` quadruples.
    Returns ``(rank, det)`` where ``det`` is the exact determinant
    quadruple for square input and ``(0, 0, 0, 0)`` for rank-deficient
    or non-square input.
    """
    m = list(entries)
    rank = 0
    sign = 1
    prev_adj, prev_norm = ONE4, 1
    skipped = False
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
            skipped = True
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
        last_piv = piv
        rank += 1
        r += 1
    if nrows == ncols and rank == nrows and not skipped:
        a, b, c_, d = last_piv
        det = (a, b, c_, d) if sign > 0 else (-a, -b, -c_, -d)
    else:
        det = ZERO4
    return rank, det


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
