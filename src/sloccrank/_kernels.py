"""Exact arithmetic and linear algebra over Z[i, sqrt2].

A scalar is a quadruple of arbitrary-precision ints ``(a, b, c, d)``
standing for ``a + b*i + c*sqrt2 + d*i*sqrt2``.  The quadruples form an
integral domain, so fraction-free (Bareiss) elimination stays exact:
every division below is by construction remainder-free, and a nonzero
remainder raises instead of silently corrupting the result.

This module is the one home of the quadruple product (``mul4``) and of
the adjoint/norm pair behind every field inverse; ``scalars.ExactScalar``
builds on both.

Rank-only requests first try the prime field F_P.  Since P = 1 (mod 8),
both -1 and 2 are squares mod P, and i -> I_P, sqrt2 -> S_P is a ring
homomorphism Z[i, sqrt2] -> F_P.  An exactly vanishing minor vanishes
mod P, so the rank mod P is a lower bound on the exact rank; when it
reaches min(nonzero rows, nonzero columns) it is the exact rank.

A lone matrix (``_certified_rank``), a state's split or not, takes one
route.  It drops its exactly zero rows and columns, found on its
residues mod P (a nonzero entry that vanishes mod P is stored as P),
and eliminates the rest in int64 (``_pivots_mod_p_int64``), a whole row
block at a time, reduced after every update: residues below P < 2**31
keep each product below 2**62.  Every residue comes from
``residues_mod``, over one ``quad_array`` (int64, or Python ints beyond
it).  The quadruples are read only by a determinant and a shortfall
proof: a state's split passes ``coeffmatrix.SplitCells``, a view of its
quadruple array, so a split that its floor, its rank mod P or an upper
bound decides reads none.

The splits of a dense state come first, as one stack per split shape,
modulo a second prime Q = 1 (mod 8) below 2**20 (``ranks_mod_q``).
With i -> I_Q and sqrt2 -> S_Q the same argument makes each rank mod Q a
proven lower bound on the exact rank: the ``floor=`` that ``bareiss``
and ``_certified_rank`` take.  A floor equal to min(rows, cols) is
returned first, since floor <= rank <= min(rows, cols): neither the
residues nor the support are read.  One equal to min(nonzero rows,
nonzero columns) is the rank too, and no F_P elimination runs.  A floor below that
is compared first with the upper bounds below: one equal to it proves
it, one below it raises ArithmeticError.  Only then does the matrix take
the F_P route of a lone matrix.  A floor below the rank mod P (a
spurious shortfall, about r/Q likely per matrix) so costs an F_P
elimination, never a wrong rank.  The reduction is delayed, as in
FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 2008): each row t is
reduced mod Q and scaled by the inverse of its pivot x, the pivot column
of the rows below is reduced, and those rows lose that column times row
t.  Nothing else is reduced.  An entry starts in [0, Q) and one update
subtracts less than Q**2 < 2**40, so after k updates it lies in
(-k * Q**2, Q): int64 holds it for k up to about 2**23, and an entry
of a wide split matrix takes one update per row, at most 2**10 under
``states.QUBIT_CAP`` = 20.  A step is one multiply and one subtract
over the rows below, against four passes with a reduction in
``_reduce_mod``: the 462 64 x 64 matrices of a random n = 12 state took
0.23 s in chunks against 0.80-0.82 s one by one on
``_pivots_mod_p_int64`` (CPU, three runs each).  The stack pays off
only on a wide support (``coeffmatrix._stacks``: n >= 6 and at least
2**(n/2) nonzero amplitudes).  CPU ms per exact signature, stacked / lone,
min over 1-7 states (and 1-5 runs of each) with s nonzero amplitudes at
random places (one core of a 2-CPU x86-64 host, Python 3.11, numpy 2.4,
all in one session); the last column is GHZ and W states under random
invertible local operators, full support and low rank, where a floor
proves little.  Neither column lists the quadruples of a split its floor,
its rank mod P or a bound decides:

    n   GHZ, s=2   s=n        s=2**(n/2)  s=2**n      GHZ/W, SLOCC
    5   0.21/0.24  0.19/0.28  0.23/0.23   0.18/0.28   1.13-1.18/1.01-1.03
    6   0.48/0.52  0.50/0.68  0.52/0.77   0.44/0.80   4.4-4.5/4.1-4.2
    8   2.4/2.2    3.0/4.0    5.0/8.6     3.8/10.6    60-65/58-60
   10   36/19      44/43      51/79       39/131
   12   578/108    627/246    703/831     607/1990

Stacking at n = 5 would speed a dense state up but slow the
SLOCC-rotated states of the last column, which the verify-all checks
rank; at s = n it would win at n = 8, tie at n = 10 and lose at n = 12;
so the rule stays n >= 6 and s >= 2**(n/2).

A rank R mod P below full that no upper bound below proves is proved
exact by ``stacked_rank``, for a stack of matrices of one shape (the
rule-table scans, ``coeffmatrix.rank_signatures``) and for a lone matrix,
a stack of one, alike.  In the wide orientation, R rows independent mod P
come first: a lone matrix passes its F_P pivot lines and R from
``_pivots_mod_p_int64``, and a stack finds them by one ``_reduce_mod``
over every row mod P, its live rows moved first.  Their R-minor is
nonzero mod P, so it is nonzero, and rank M >= R.  Every (R+1)-minor x
vanishes mod P.  If x also vanishes mod the distinct primes p_2, ..., p_k
of ``PRIME_TABLE`` (each = 1 mod 8, mapped the same way), then
P * p_2 * ... * p_k divides the integer N(x), the product of its four
complex embeddings.  Every embedding of an entry has modulus at most h
(see ``_h2``); with T the sum of h**2 over all entries, Hadamard and
AM-GM bound the norm of every minor of at most s rows by (T/s)**(2s)
once T >= e * s (``_norm_bits``), so primes whose product passes that
bound at s = R + 1 force x = 0, and rank M <= R.  Modulo each table
prime, R steps of ``_reduce_mod`` (over a (K, rows, cols) int64 stack,
each matrix modulo its own prime, each row pivoting on its largest
residue) leave the rows from R on zero only when the rank mod p is at
most R, and then x vanishes mod p.  A matrix of full rank mod P takes
no table prime.  A row from R on left nonzero mod some p (a pivot row
dead mod p, or a minor that vanishes mod P only), a bound beyond the
table or a component beyond int64 sends the matrix to ``_eliminate``.
A split of a state holds each amplitude once, and compression drops
only zero lines, so every split of a state has the state's T and asks
for the same primes; the quadruples are reduced modulo a batch of
primes at once (``residues_mod``).

Before that proof, a rank r mod P below full is compared with two
upper bounds on the exact rank that need no field arithmetic
(``_upper_bounds``), each read only on a shortfall, so a full-rank
matrix evaluates neither.  A bound equal to r proves rank M = r; a bound
below r contradicts the lower bound and raises ArithmeticError.
1. The term rank of the compressed support, the largest number of
   nonzero cells no two of which share a row or column (``_term_rank``).
   A nonzero s-minor has a nonzero term in its Leibniz expansion, that is
   s nonzero cells in distinct rows and columns, so rank M <= term rank.
   The support is exact, not its image mod P: a nonzero entry that
   vanishes mod P is stored as P.  By Koenig's theorem the term
   rank is the least number of rows and columns covering every nonzero
   cell, and r of them cover at most r * max(rows, cols) cells, so a
   matrix with more nonzero cells has term rank above r and is not
   matched; otherwise the matching stops at r + 1 cells.
2. A cap the caller passes (``bareiss``).  For the split of a state psi it is rank
   subadditivity (Cadney, Huber, Linden and Winter, LAA 2014): for
   disjoint qubit sets A and B, rank C_{A+B} <= rank C_A * rank C_B,
   where C_X is the coefficient matrix with the qubits X on its rows.
   Over any field: with U_X the column space of C_X, psi lies in
   U_A (x) V_B (x) V_R and in V_A (x) U_B (x) V_R, R the other qubits,
   whose intersection is U_A (x) U_B (x) V_R; so every column of
   C_{A+B} lies in U_A (x) U_B.  A split and its complement have one
   rank, so the cuts of either side bound it (``coeffmatrix._cut_cap``
   reads the ranks the state has already).
The proof runs only when neither bound equals r.

Local operators act on stacks of quadruple amplitude vectors
(``apply_single_qubit``).  Multiplying by y = (a, b, c, d) is an integer
linear map on quadruples (``MUL_MATRIX``), so a 2x2 operator cleared
over one denominator is an 8x8 integer matrix (``operator_stack``, one
einsum) on the pair of amplitudes that differ in its qubit, and a
(B, 2**n, 4) stack takes one batched matmul per qubit.  Such a matrix
maps values of modulus at most m to values, and partial sums, of modulus
at most m times its largest absolute row sum (``operator_row_sum``).  So
every value a stack ever holds is at most max |x| times the product of
the row sums of its n matrices, a bound the caller evaluates in Python
ints per amplitude vector: below ``INT64_BOUND`` = 2**62 the vector is
stacked in int64, otherwise as Python ints (object dtype, the same
matmul over arbitrary-precision ints), and no product can overflow.
CPU ms of one ``slocc.apply_local`` call, a stack of one, against the
per-index loop over ``mul4`` it replaced, on a random exact state under
random operators (min of 5, two runs each; one core of a 2-CPU x86-64
host, Python 3.11, numpy 2.4):

    n    per-index loop   stack
    2    0.018-0.027      0.042-0.049
    4    0.10-0.13        0.080-0.089
    6    0.61-0.64        0.16-0.20
    8    3.1-3.2          0.49-0.69
   10    15.7-16.2        1.8-2.5
   12    53               7.6-7.9

Below n = 4 the numpy calls cost more than the loop; the verify-all
checks therefore apply all their trials in stacks of up to 64.

Other products of whole quadruple arrays, the tensor product of two
states and a reduced density C C^dagger, are one einsum through
``MUL_MATRIX`` each (``quad_einsum``).  A product of quadruples of
modulus at most m and m' has components of modulus at most 6 m m' (as
``mul4`` weighs a, b, c, d by 1, 1, 2, 2), so a sum of k of them, and
each partial sum, stays below 6 k m m': below ``INT64_BOUND`` the einsum
runs in int64, otherwise on Python ints.
"""

import math

import numpy as np

ZERO4 = (0, 0, 0, 0)
ONE4 = (1, 0, 0, 0)

P = 2147483497  # prime, P = 1 (mod 8), below 2**31
I_P = 1731803418  # I_P**2 = -1 (mod P)
S_P = 974023842  # S_P**2 = 2 (mod P)
Q = 1048433  # prime, Q = 1 (mod 8), below 2**20: the prime of ``ranks_mod_q``
I_Q = 661878  # I_Q**2 = -1 (mod Q)
S_Q = 597083  # S_Q**2 = 2 (mod Q)
PRIME_BITS = 30.99  # every prime of PRIME_TABLE, and P, exceeds 2**PRIME_BITS
# (p, I_p, S_p): the next primes p = 1 (mod 8) below P, with I_p**2 = -1 and
# S_p**2 = 2 (mod p), so i -> I_p, sqrt2 -> S_p maps Z[i, sqrt2] into F_p
PRIME_TABLE = (
    (2147483489, 625866212, 1648742786), (2147483353, 520788222, 1491026565),
    (2147483249, 207203101, 1921895135), (2147483137, 1791713200, 1630646576),
    (2147483033, 392507391, 1357174941), (2147482937, 626309384, 486049010),
    (2147482921, 241108306, 367191584), (2147482873, 773192147, 949849085),
    (2147482817, 310030697, 489173953), (2147482801, 1510973080, 1064403011),
    (2147482697, 1483991690, 1746934734), (2147482681, 1779052227, 583027527),
    (2147482577, 1142325396, 2106665732), (2147482481, 96846140, 632998448),
    (2147482417, 1239666725, 211218726), (2147482409, 348196698, 1747602447),
    (2147482361, 1496451610, 547132891), (2147482273, 2097849206, 1206370838),
    (2147482121, 1594133719, 107511595), (2147482081, 1700309600, 544802548),
    (2147481937, 1597477942, 1269063791), (2147481793, 1317411277, 429837901),
    (2147481673, 884426979, 70496510), (2147481529, 1552282496, 799424151),
    (2147481353, 1812514624, 694009765), (2147481337, 679425720, 1747642106),
    (2147481209, 1423591810, 742000130), (2147480969, 1035765372, 773651749),
    (2147480921, 558089619, 1581187926), (2147480897, 2123907530, 1638153911),
    (2147480849, 1177781262, 1121007078), (2147480641, 1989911422, 212581008),
    (2147480369, 697059374, 872443187), (2147480297, 1217306448, 603314333),
    (2147480161, 851958442, 935906920), (2147480009, 468145626, 884846197),
    (2147479937, 1804049376, 1001656117), (2147479897, 762310448, 1356794337),
    (2147479753, 2128726337, 1286615725), (2147479681, 716374438, 449320208),
    (2147479657, 1858387080, 955547418), (2147479601, 680413422, 971198691),
    (2147479513, 659837687, 729159359), (2147479489, 1052462695, 2094106393),
    (2147479361, 1751594008, 292053898), (2147479273, 1765668093, 1857461383),
    (2147479129, 104836936, 189612013), (2147479121, 193198974, 1332134008),
    (2147479097, 1983103682, 731697085), (2147479057, 1983827553, 439580605),
    (2147478961, 1321980595, 1658789987), (2147478937, 1071551486, 1613911317),
    (2147478889, 1311643433, 752032621), (2147478721, 625298616, 1204766296),
    (2147478673, 457996822, 1091958456), (2147478649, 1550048925, 883147313),
    (2147478601, 215041714, 358464072), (2147478569, 1582848562, 114116381),
    (2147478521, 1942994336, 1815511803), (2147478497, 1470717290, 1517756792),
    (2147478481, 411266291, 2116800879), (2147478089, 1948947042, 1392030773),
    (2147478049, 1177723471, 347015307), (2147478017, 1404461508, 244346993),
)
P_ROW = np.array([(P, I_P, S_P)], dtype=np.int64)  # the ``primes`` of ``residues_mod`` mod P
Q_ROW = np.array([(Q, I_Q, S_Q)], dtype=np.int64)
_TABLE_PRIMES = np.array(PRIME_TABLE, dtype=np.int64)  # rows (p, I_p, S_p)
# MUL_MATRIX[k] holds the coefficients of y_k in the 4 x 4 integer matrix
# of x -> y * x on quadruples: for y = (a, b, c, d) the matrix is
# [[a, -b, 2c, -2d], [b, a, 2d, 2c], [c, -d, a, -b], [d, c, b, a]], as ``mul4``
MUL_MATRIX = np.array([
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, 0, 2, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 0, 0, -2], [0, 0, 2, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
], dtype=np.int64)
INT64_BOUND = 1 << 62  # ``slocc`` stacks amplitudes in int64 only below it


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
    the one exact elimination loop of the package; the three F_p
    eliminations below only bound or prove ranks.
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
                # at r == 0 the divisor is the sentinel 1; a later unit pivot
                # such as i has norm 1 too, but dividing by it is no identity
                m[i * ncols + j] = _div_exact(diff, prev_adj, prev_norm) if r else diff
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


def quad_array(quads):
    """Quadruples as an (..., 4) array, int64 when every component lies in
    (-2**63, 2**63), where ``np.abs`` cannot wrap, else Python ints (object
    dtype).  Anything with ``__array__`` is taken as it is."""
    if hasattr(quads, "__array__"):
        return np.asarray(quads)
    try:
        q = np.array(quads, dtype=np.int64)
    except OverflowError:
        return np.array(quads, dtype=object)
    return q.astype(object) if (q == -(1 << 63)).any() else q


def residues_mod(q, primes):
    """Residues of the int64 or object (..., 4) quadruple array ``q`` modulo
    each row (p, I_p, S_p) of the (k, 3) int64 array ``primes``, as a
    (k,) + ``q.shape[:-1]`` int64 array in [0, p).

    Object components are reduced mod p in Python ints first, and every
    component before it is weighted, so each product is below p**2 < 2**62.
    One call costs 14 us at 16 amplitudes against 6 us for a Python loop,
    22 against 80 us at 256: callers stack their states first.
    """
    p, i_p, s_p = primes.T.reshape(3, -1, *(1,) * (q.ndim - 1))
    if q.dtype == object:
        q = (q % p[..., None].astype(object)).astype(np.int64)
    m = q[..., 0] % p
    for c, w in ((1, i_p), (2, s_p), (3, i_p * s_p % p)):
        m += q[..., c] % p * w % p
    m %= p
    return m


def support_residues(q):
    """``residues_mod(q, P_ROW)[0]`` with every nonzero quadruple that
    vanishes mod P stored as P, so that the nonzero cells are the support."""
    res = residues_mod(q, P_ROW)[0]
    res[(res == 0) & q.any(axis=-1)] = P
    return res


def ranks_mod_q(m):
    """The rank mod Q of each matrix of a (B, rows, cols) int64 stack.

    ``m`` holds residues in [0, Q) and is overwritten; the wide
    orientation (rows <= cols) takes the fewest steps, one per row.  Each
    row t in turn is reduced mod Q, pivots on its largest residue x, in
    column j, and is scaled by x**-1 so that its entry j is 1; the later
    rows then lose their column j, reduced mod Q, times that row.  Nothing
    else is reduced: each update subtracts less than Q**2 < 2**40, and an
    entry takes fewer than 2**23 of them before it could leave int64 (see
    the module docstring).  A zero row scales by 0 and changes nothing.
    It stays for speed: the dense_signatures floors took 27.6-28.8 ms here
    against 31.8 ms through ``_reduce_mod`` (seed-41 inputs, min of 5-7 runs).
    """
    at = np.arange(len(m))
    ranks = np.zeros(len(m), dtype=np.int64)
    last = m.shape[1] - 1
    for t in range(last + 1):
        row = m[:, t] % Q
        j = row.argmax(axis=1)
        x = row[at, j]
        ranks += x != 0
        if t == last:
            break
        row *= np.array([pow(v, -1, Q) if v else 0 for v in x.tolist()], dtype=np.int64)[:, None]
        row %= Q
        rest = m[:, t + 1:]
        col = rest[at, :, j] % Q
        rest -= col[:, :, None] * row[:, None, :]
    return ranks


def _pivots_mod_p_int64(m):
    """Pivot rows and columns of the F_P elimination of a residue array mod P.

    Returns ``(I, J)`` with ``m[I, J]`` of nonzero determinant mod P and
    ``len(I)`` the rank of ``m`` mod P.  Works on a reduced copy in the
    wide orientation: each row in turn either is zero or keeps a nonzero
    entry x in column j, and then every later row r becomes
    ``(x * r - r[j] * row) % P`` in one vectorised update.  Both products
    are below P**2 < 2**62, so their difference fits int64 too, and it is
    reduced at once: every entry read is in [0, P).  It stays for speed:
    as ``_reduce_mod`` stacks of one, the lone ranks took 3.7 against 1.5 ms
    on rule_tables, 19.0 against 5.9 ms on lowrank_signatures (as above).
    """
    wide = m.shape[0] <= m.shape[1]
    m = np.remainder(m if wide else m.T, P, order="C")
    rows, cols = [], []
    last = m.shape[0] - 1
    for k in range(last + 1):
        row = m[k]
        j = int(row.argmax())
        x = row[j]
        if not x:
            continue
        rows.append(k)
        cols.append(j)
        if k == last:
            break
        rest = m[k + 1:]
        t = rest[:, j, None] * row
        rest *= x
        rest -= t
        rest %= P
    return (rows, cols) if wide else (cols, rows)


def _h2(q):
    """h**2 for each quadruple of the int64 (..., 4) array ``q``, as float64.

    Every embedding of an entry (a, b, c, d) into C has modulus at most
    h = |(|a| + sqrt2 |c|) + (|b| + sqrt2 |d|) i|.
    """
    f = np.abs(q.astype(np.float64))
    return (f[..., 0] + np.sqrt(2) * f[..., 2]) ** 2 + (f[..., 1] + np.sqrt(2) * f[..., 3]) ** 2


def _norm_bits(total, size):
    """A bound B with |N(x)| < 2**B for every minor x of at most ``size``
    rows of every matrix laid out from entries whose h**2 (see ``_h2``) sum
    to ``total``, a float or an array of them (B then has its shape).

    The u rows of such a minor have h**2 sums rho_k with sum(rho_k) <= T =
    ``total``, so by Hadamard and the AM-GM inequality each embedding
    satisfies |sigma(x)|**2 <= prod(rho_k) <= (T / u)**u, and the norm, the
    product of four embeddings, |N(x)| <= (T / u)**(2u).  For T >= e * size
    that grows with u up to ``size``, so T is raised to at least e * size
    (which also keeps a zero matrix off log2(0)).  The float sums get a
    margin far above their rounding error.
    """
    return 2 * size * np.log2(np.maximum(total, math.e * size) / size) * (1 + 1e-9) + 1


def _reduce_mod(m, p, steps):
    """Row-reduce the first ``steps`` rows of a stack of residue matrices in place.

    ``m`` is a (K, rows, cols) int64 array of residues in [0, p) and ``p``
    the primes, broadcastable to it (one per matrix).  Each row t in turn
    pivots on its largest residue x, in column j, or on x = 1 when it is
    zero (the update then leaves the rows below unchanged), and every later
    row becomes ``(x * row' - row'[j] * row) % p``: both products are below
    p**2 < 2**62.  Returns the count of live (nonzero) pivot rows of each
    matrix; after ``rows`` steps that is its rank mod p.  A pivot row is
    final once it is reached, so the count is read off the rows at the end.
    It stays for speed: as ``ranks_mod_q`` over 20-bit primes, the proofs
    took 41 against 17-24 ms on rule_tables, 236 against 131-134 ms on
    verify_all (seed-41 inputs, min of 5-7 runs).
    """
    at = np.arange(len(m))
    for t in range(min(steps, m.shape[1] - 1)):  # the last row has no rows below
        row = m[:, t]
        j = row.argmax(axis=1)
        rest = m[:, t + 1:]
        col = rest[at, :, j, None]
        rest *= np.maximum(row[at, j], 1)[:, None, None]
        rest -= col * row[:, None, :]
        rest %= p
    return np.count_nonzero(m[:, :steps].any(axis=2), axis=1)


def _term_rank(support, limit):
    """The size of a maximum matching of the True cells of the 2-d bool
    array ``support`` (no two in one row or column), or ``limit`` once a
    matching that large is found.

    Kuhn's augmenting paths from each line of the shorter side in turn,
    searched with an explicit stack, so no recursion limit applies.
    """
    if support.shape[0] > support.shape[1]:
        support = support.T
    adj = [row.nonzero()[0].tolist() for row in support]
    owner = [-1] * support.shape[1]  # the row each column is matched to
    size = 0
    for start in range(len(adj)):
        seen = set()
        path, cols, its = [start], [], [iter(adj[start])]
        while its:
            for j in its[-1]:
                if j not in seen:
                    seen.add(j)
                    break
            else:  # this row has no augmenting path left: back up one step
                its.pop()
                path.pop()
                if cols:
                    cols.pop()
                continue
            cols.append(j)
            if owner[j] < 0:  # a free column: flip the path
                for i, c in zip(path, cols):
                    owner[c] = i
                size += 1
                break
            path.append(owner[j])
            its.append(iter(adj[owner[j]]))
        if size == limit:
            break
    return size


def _upper_bounds(support, r, cap):
    """Proven upper bounds on the exact rank of a matrix whose nonzero
    cells are ``support`` and whose rank mod P is ``r``, lazily: its term
    rank, unless it has more than r * max(rows, cols) nonzero cells (then
    the term rank exceeds r), then ``cap(r)`` when there is a ``cap``.
    See the module docstring for both proofs.
    """
    if np.count_nonzero(support) <= r * max(support.shape):
        yield _term_rank(support, r + 1)
    if cap is not None:
        yield cap(r)


def _bounded(support, r, cap, lower):
    """Whether an upper bound of ``_upper_bounds`` equals ``r``, a proven
    lower bound on the rank that ``lower`` names; a bound below ``r``
    raises ``ArithmeticError``."""
    for bound in _upper_bounds(support, r, cap):
        if bound is not None and bound < r:
            raise ArithmeticError(f"rank bound {bound} is below {lower}")
        if bound == r:
            return True
    return False


def _certified_rank(entries, nrows, ncols, res=None, cap=None, floor=None):
    """Exact rank: support compression, then F_P, then bounds or ``stacked_rank``.

    A ``floor`` equal to min(nrows, ncols) is returned before anything
    else is read.  ``res`` holds the entries' residues mod P when the
    caller has them already (``PureState.residues``), as any array whose
    row-major order is that of ``entries``, with a nonzero entry that
    vanishes mod P stored as P, so that its nonzero cells are the nonzero
    entries and give the support.  ``entries`` is read once, as an array
    (``quad_array``), and only for the residues or a shortfall proof.
    ``cap(r)``, read only on a shortfall, returns a proven upper bound on
    the exact rank or None; it may stop looking once it reaches r.
    ``floor`` is a proven lower bound on the rank, such as a rank mod Q
    from ``ranks_mod_q``: at min(nonzero rows, nonzero columns) it is the
    rank, and below that the upper bounds are tried against it before any
    F_P elimination.  A rank mod P of r is returned at once when an upper
    bound equals r, and a bound below a proven rank raises ``ArithmeticError``.
    """
    if floor == min(nrows, ncols):  # floor <= rank <= min(nrows, ncols)
        return floor
    q = None
    if res is None:
        q = quad_array(entries)
        res = support_residues(q)
    mod = res.reshape(nrows, ncols)
    rows = mod.any(axis=1).nonzero()[0]
    cols = mod.any(axis=0).nonzero()[0]
    full = min(len(rows), len(cols))
    if full <= 1 or floor == full:
        return full
    if len(rows) * len(cols) < mod.size:
        mod = mod[rows][:, cols]
    if floor is not None and _bounded(mod != 0, floor, cap, f"the floor {floor}"):
        return floor
    # not _reduce_mod: a stack of one costs 1.6-2.6x up to 32 x 32 (16 x 16: 130-149 vs 64-68 us)
    pivots = _pivots_mod_p_int64(mod)
    r = len(pivots[0])
    if r == full or (r != floor and _bounded(mod != 0, r, cap, f"the rank {r} mod P")):
        return r
    if len(rows) <= len(cols):  # the F_P pivot lines of the wide orientation first
        rows = np.concatenate((rows[pivots[0]], np.delete(rows, pivots[0])))
    else:
        cols = np.concatenate((cols[pivots[1]], np.delete(cols, pivots[1])))
    if q is None:
        q = quad_array(entries)
    sub = q.reshape(nrows, ncols, 4)[rows[:, None], cols]
    # r steps only: a full elimination over the primes cost lowrank_signatures 18-25%
    return int(stacked_rank(sub[None], [r])[0])


def stacked_rank(q, ranks=None):
    """Exact ranks of a stack of quadruple matrices, as an int64 array.

    ``q`` is a (B, r, c, 4) int64 array, ranked in its wide orientation (a
    tall stack is transposed, and its rows below are the columns of ``q``),
    or an object one (Python ints, a component beyond int64), whose every
    matrix ``_eliminate`` ranks.
    Each matrix's rank R mod P is ``ranks[b]`` when the caller has it, with
    R rows independent mod P first, or else comes from one ``_reduce_mod``
    over every row mod P, whose live rows are then moved first.  A matrix
    with R below min(r, c) takes the table primes its ``_norm_bits`` bound
    on (R+1)-minors needs beyond P (the batch takes the largest count), and
    R steps of ``_reduce_mod`` modulo each must leave its rows from R on
    zero (see the module docstring); one that fails, or whose bound is
    beyond the table, goes to ``_eliminate``.  ``_certified_rank`` passes
    its F_P pivots as ``ranks``: without them a stack of one 64 x 64
    matrix of rank 2 took 3.7-3.9 ms against 1.9-2.0 ms with them (one
    core of a 2-CPU x86-64 host).
    """
    if q.dtype != np.int64:  # a component beyond int64: elimination decides
        return np.array([_eliminate(_listed(m), *q.shape[1:3])[0] for m in q], dtype=np.int64)
    if q.shape[1] > q.shape[2]:  # wide orientation: one step per row
        q = q.swapaxes(1, 2)
    nrows, ncols = q.shape[1:3]
    if ranks is None:
        m = residues_mod(q, P_ROW)[0]
        ranks = _reduce_mod(m, P, nrows)
        short = np.flatnonzero(ranks < nrows)
        live_first = np.argsort(~m[short].any(axis=2), axis=1, kind="stable")
        q = q[short[:, None], live_first]
    else:
        ranks = np.array(ranks, dtype=np.int64)
        short = np.flatnonzero(ranks < nrows)
        if len(short) < len(q):
            q = q[short]
    r = ranks[short]
    bits = _norm_bits(_h2(q).sum(axis=(1, 2)), r + 1) - PRIME_BITS  # P counted
    need = np.ceil(bits / PRIME_BITS).astype(np.int64)  # at most 0: P alone proves it
    failed = need > len(PRIME_TABLE)
    check = np.flatnonzero((need > 0) & ~failed)
    if len(check):
        primes = _TABLE_PRIMES[:need[check].max()]
        sub = q if len(check) == len(q) else q[check]
        m = residues_mod(sub, primes).reshape(-1, nrows, ncols)  # (k * B, r, c), prime-major
        r = r[check]
        _reduce_mod(m, np.repeat(primes[:, 0], len(check))[:, None, None], int(r.max()))
        live = m.reshape(len(primes), len(check), nrows, ncols).any(axis=3)
        failed[check] = (live & (np.arange(nrows) >= r[:, None])).any(axis=(0, 2))
    for b in np.flatnonzero(failed).tolist():
        ranks[short[b]] = _eliminate(_listed(q[b]), nrows, ncols)[0]
    return ranks


def _listed(m):
    """The row-major quadruples of one matrix of a stack, as ``_eliminate`` reads them."""
    return list(map(tuple, m.reshape(-1, 4).tolist()))


def bareiss(entries, nrows, ncols, det=True, res=None, cap=None, floor=None):
    """Exact rank, and the determinant on request, of a quadruple matrix.

    ``entries`` is any row-major sequence of ``nrows * ncols`` quadruples
    (``coeffmatrix.SplitCells`` is a view of a state's quadruple array);
    only a determinant, ``stacked_rank`` and ``_eliminate`` read it.
    With ``det=True`` returns ``(rank, det)`` as ``_eliminate`` does:
    ``det`` is the exact determinant for square input and ``(0, 0, 0, 0)``
    for rank-deficient or non-square input.  With ``det=False`` returns
    ``(rank, None)``.  Ranks not needing a determinant come from the
    certified mod-P route (see the module docstring), never from chance;
    ``res``, the entries' residues mod P in the same row-major order,
    spares that route computing them, ``cap`` is a lazy upper bound on the
    rank and ``floor`` a proven lower bound (see ``_certified_rank``).
    """
    if det and nrows == ncols:
        return _eliminate(entries, nrows, ncols)
    return _certified_rank(entries, nrows, ncols, res, cap, floor), ZERO4 if det else None


def operator_stack(q):
    """The 8 x 8 integer matrices of 2 x 2 operators over quadruples.

    ``q`` is a (..., 2, 2, 4) array of operator entries as quadruples;
    entry [r, c] becomes the 4 x 4 block [r, c] of ``MUL_MATRIX`` applied
    to it, so the result, of shape (..., 8, 8) and ``q``'s dtype, maps
    the amplitude pair (x0, x1), eight integers, to its image.
    """
    out = np.einsum("...rck,kij->...ricj", q, MUL_MATRIX.astype(q.dtype))
    return out.reshape(q.shape[:-3] + (8, 8))


CONJ4 = np.array([1, -1, 1, -1], dtype=np.int64)  # times a quadruple: its complex conjugate


def quad_einsum(subscripts, x, y):
    """``np.einsum`` of two quadruple arrays under the product of Z[i, sqrt2].

    ``subscripts`` names the axes before the last of ``x`` and ``y``, as
    "uw,vw->uv", and each pair of quadruples multiplies as in ``mul4``.  It
    runs in int64 when int64 inputs and the bound of the module docstring
    allow, otherwise on Python ints (object dtype).
    """
    operands, out = subscripts.split("->")
    xs, ys = operands.split(",")
    sizes = dict(zip(xs, x.shape)) | dict(zip(ys, y.shape))
    terms = math.prod(sizes[a] for a in sizes if a not in out)
    bound = 6 * terms * int(np.abs(x).max(initial=0)) * int(np.abs(y).max(initial=0))
    if bound >= INT64_BOUND:
        x = x.astype(object)
    return np.einsum(f"{xs}j,kij,{ys}k->{out}i", x, MUL_MATRIX.astype(x.dtype), y)


def operator_row_sum(op):
    """Largest absolute row sum of ``operator_stack``'s matrix of ``op``.

    ``op`` is ``(op00, op01, op10, op11)`` as quadruples of Python ints; a
    row of block [r, c] sums at most |a| + |b| + 2|c| + 2|d| of entry
    [r, c], the first two rows of a block exactly that.
    """
    w = [abs(a) + abs(b) + 2 * (abs(c) + abs(d)) for a, b, c, d in op]
    return max(w[0] + w[1], w[2] + w[3])


def apply_single_qubit(x, target, mats):
    """Apply one 8 x 8 operator per amplitude vector to qubit ``target``.

    ``x`` is a (B, 2**n, 4) stack of quadruple amplitude vectors, int64 or
    object, and ``mats`` the (B, 8, 8) matrices of ``operator_stack`` in
    the same dtype; ``target`` is 0-based with qubit 0 the most
    significant index bit.  The pairs of amplitudes that differ in the
    target bit are gathered into rows of eight and multiplied in one
    batched ``matmul``; int64 callers must bound the result (see the
    module docstring).
    """
    b, size, _ = x.shape
    low = size >> (target + 1)  # 2**(index bits below the target)
    pairs = x.reshape(b, -1, 2, low, 4).transpose(0, 1, 3, 2, 4).reshape(b, -1, 8)
    out = np.matmul(pairs, mats.transpose(0, 2, 1))
    return out.reshape(b, -1, low, 2, 4).transpose(0, 1, 3, 2, 4).reshape(b, size, 4)
