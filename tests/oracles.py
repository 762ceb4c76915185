"""Reference algorithms and hypothesis strategies shared by the tests.

The kernel references are the textbook definitions, written with ring
operations only (no division, no zero tests), so they apply unchanged to
Fraction, Laurent and Dual entries and stay independent of the library's
kernels; the one exception is the Gauss–Jordan inverse, which pivots on
Fractions where the library eliminates over the integers.  The group-layer
references decide flag and parabolic questions by subspaces and Lie
algebras, independently of the library's eliminations.  The two-sided
block factorization u_p·l·u_q is built whole, as the leading block LDU of
the matrix conjugated by the reversal permutation, and ``la.levi_part``
must match its middle factor.  The certificate references are the
library's sign and projective tests as they ran over Fractions before the
library cleared denominators: the compound ladder on the rational matrix,
the fundamental tuple of rational images, and the torus-limit check on
Laurent polynomials with Fraction coefficients.  The reference for the
paper's (*) pair is the dense product the library ran before it read the
pair off the fundamental tuple: full compounds through a dense 0/1
projector, whose kept basis vectors are chosen by a block count of their
own.  The reference for point equality is the coset test the library ran
before it compared fundamental tuples: conjugators equal modulo P_J and
Q_J, and Levi parts in one frame equal modulo the center of L_J.  The
references for the word evaluator are the generator, Weyl-lift and torus
matrices written out entry by entry and multiplied row by column.
"""

from fractions import Fraction

from hypothesis import strategies as st

from tnncompact import linalg as la
from tnncompact.dual import Dual
from tnncompact.exterior import compound, compounds, proj_equal, strictly_signed, subsets_colex
from tnncompact.laurent import Laurent, lmat_limit
from tnncompact.strata import _curve_exponents, action_pair, fundamental_tuple


def laplace_det(m):
    """Laplace expansion along the first column of a nonempty square matrix."""
    if len(m) == 1:
        return m[0][0]
    rest = [row[1:] for row in m]
    total = m[0][0] - m[0][0]
    for i, row in enumerate(m):
        term = row[0] * laplace_det(rest[:i] + rest[i + 1 :])
        total = total - term if i % 2 else total + term
    return total


def gauss_jordan_inverse(m):
    """Inverse of a nonempty square Fraction matrix by Gauss–Jordan with
    Fraction pivots; raises la.SingularMatrixError when there is none."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise la.SingularMatrixError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def block_ldu(m, blocks):
    """m = l·d·u with l block-lower-unipotent, d block-diagonal and u
    block-upper-unipotent (blocks consecutive, in order); raises
    la.FactorizationError when a leading block Schur complement is
    singular."""
    n = len(m)
    a = [list(row) for row in m]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [[Fraction(0)] * n for _ in range(n)]
    for k, blk in enumerate(blocks):
        try:
            dk_inv = gauss_jordan_inverse(tuple(tuple(a[i][j] for j in blk) for i in blk))
        except la.SingularMatrixError:
            raise la.FactorizationError(f"diagonal block {k} singular") from None
        for i in blk:
            for j in blk:
                d[i][j] = a[i][j]
        rest = [i for blk2 in blocks[k + 1 :] for i in blk2]
        for i in rest:
            for tj, j in enumerate(blk):
                lower[i][j] = sum(a[i][t] * dk_inv[ti][tj] for ti, t in enumerate(blk))
        for j in rest:
            for ti, i in enumerate(blk):
                upper[i][j] = sum(dk_inv[ti][tj] * a[t][j] for tj, t in enumerate(blk))
        for i in rest:
            for j in rest:
                a[i][j] -= sum(lower[i][s] * d[s][t] * upper[t][j] for s in blk for t in blk)
    return tuple(tuple(tuple(row) for row in x) for x in (lower, d, upper))


def reversal(n):
    """Antidiagonal permutation matrix (its own inverse)."""
    return tuple(tuple(Fraction(int(j == n - 1 - i)) for j in range(n)) for i in range(n))


def block_anti_ldu(m, blocks):
    """m = u_p·l·u_q with u_p block-upper-unipotent, l block-diagonal and u_q
    block-lower-unipotent: the block LDU of r·m·r for the reversal r, blocks
    reversed, conjugated back by r."""
    n = len(m)
    r = reversal(n)
    rev_blocks = [[n - 1 - i for i in reversed(blk)] for blk in reversed(blocks)]
    factors = block_ldu(naive_matmul(naive_matmul(r, m), r), rev_blocks)
    return tuple(naive_matmul(naive_matmul(r, f), r) for f in factors)


def naive_matmul(a, b):
    """Row-by-column products summed left to right (inner dimension ≥ 1)."""

    def dot(row, col):
        acc = row[0] * col[0]
        for x, y in zip(row[1:], col[1:]):
            acc = acc + x * y
        return acc

    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def x_matrix(n, i, a):
    """x_i(a) = 1 + a·E_{i,i+1}, entry by entry."""
    return tuple(
        tuple(Fraction(a) if (r, c) == (i - 1, i) else Fraction(int(r == c)) for c in range(n))
        for r in range(n)
    )


def y_matrix(n, i, a):
    """y_i(a) = 1 + a·E_{i+1,i}."""
    return tuple(zip(*x_matrix(n, i, a)))


def sdot_matrix(n, i):
    """ṡ_i = x_i(−1)·y_i(1)·x_i(−1): the identity with the block [[0, −1], [1, 0]]
    at rows and columns i, i+1."""
    block = {(i - 1, i - 1): 0, (i - 1, i): -1, (i, i - 1): 1, (i, i): 0}
    return tuple(
        tuple(Fraction(block.get((r, c), int(r == c))) for c in range(n)) for r in range(n)
    )


def torus_matrix(coords):
    """diag(a_1, a_2/a_1, …, a_{n−1}/a_{n−2}, 1/a_{n−1}) for the simple-coroot
    coordinates a_1..a_{n−1}."""
    a = [Fraction(1), *map(Fraction, coords), Fraction(1)]
    n = len(a) - 1
    return tuple(
        tuple(a[r + 1] / a[r] if r == c else Fraction(0) for c in range(n))
        for r in range(n)
    )


def fraction_minors(m):
    """Every minor of the square rational matrix m, from the Fraction ladder."""
    return [x for c in compounds(m, len(m)) for row in c for x in row]


def fraction_is_tnn(m):
    return all(x >= 0 for x in fraction_minors(m))


def fraction_is_totally_positive(g):
    """Every minor of g, or for even n of −g, strictly positive."""
    if all(x > 0 for x in fraction_minors(g.m)):
        return True
    return g.n % 2 == 0 and all(x > 0 for x in fraction_minors(la.scale(g.m, Fraction(-1))))


def fraction_membership(z):
    """Every rational image ρ_k(g1)·D_k·ρ_k(g2) of z strictly signed."""
    return all(strictly_signed(m) for m in fundamental_tuple(z))


def lmat_from_rational(m):
    """The matrix m as constant Laurent polynomials with Fraction coefficients."""
    return tuple(tuple(Laurent.of(x) for x in row) for row in m)


def fraction_limit_check(g1, cs, g2, z):
    """Whether, in every degree k, the limit of ρ_k(g1·t(s)·g2) along the
    torus curve of exponents cs, over Fraction Laurent polynomials, is z's
    rational image projectively."""
    n = g1.n
    e = _curve_exponents(cs)
    curve = tuple(
        tuple(Laurent.monomial(-e[i]) if i == j else Laurent.of(0) for j in range(n))
        for i in range(n)
    )
    x = la.matmul(la.matmul(lmat_from_rational(g1.m), curve), lmat_from_rational(g2.m))
    return all(
        proj_equal(lmat_limit(cx), want)
        for want, cx in zip(fundamental_tuple(z), compounds(x, n - 1))
    )


def dense_projector(n, k, keep):
    """The dim×dim diagonal 0/1 Fraction matrix on Λ^k(Q^n) whose ones sit at
    the colex k-subsets S with keep(S)."""
    subs = subsets_colex(n, k)
    return tuple(
        tuple(Fraction(int(i == j and keep(s))) for j in range(len(subs)))
        for i, s in enumerate(subs)
    )


def dense_star_pair(z, data):
    """(ρ_k1(g1)·I_1·ρ_k1(g2), ρ_k2(g1)·I_L·ρ_k2(g2)) for (g1, g2) =
    action_pair(z), from dense compounds multiplied out by la.matmul.  I_1
    is the rank-one projector onto the highest weight vector e_{1..k1}; I_L
    keeps the k2-subsets meeting every J-block in as many elements as
    {1..k2} does, i.e. the weights that differ from the highest one by
    roots of J only."""
    n, k1, k2 = z.n, data.k1, data.k2
    top = tuple(range(1, k2 + 1))
    blocks = [{i + 1 for i in blk} for blk in z.J.blocks0()]
    i1 = dense_projector(n, k1, lambda s: s == tuple(range(1, k1 + 1)))
    il = dense_projector(
        n, k2, lambda s: all(len(b.intersection(s)) == len(b.intersection(top)) for b in blocks)
    )
    g1, g2 = action_pair(z)
    return tuple(
        la.matmul(la.matmul(compound(g1.m, k), proj), compound(g2.m, k))
        for k, proj in ((k1, i1), (k2, il))
    )


def coset_equal(z1, z2):
    """Whether z1 and z2 are one point by cosets: same J, z1.a⁻¹·z2.a in
    P_J, z1.b⁻¹·z2.b in Q_J, and the Levi parts of z1.a⁻¹·z1.g·z1.b and
    z1.a⁻¹·z2.g·z1.b equal after each diagonal block is scaled so that its
    first nonzero entry is 1."""
    if z1.J != z2.J:
        return False
    blocks = z1.J.blocks0()
    a_inv = z1.a.inverse()
    if not la.is_block_upper((a_inv @ z2.a).m, blocks):
        return False
    if not la.is_block_lower((z1.b.inverse() @ z2.b).m, blocks):
        return False
    try:
        levis = [la.levi_part((a_inv @ z.g @ z1.b).m, blocks) for z in (z1, z2)]
    except la.FactorizationError:
        return False
    return _blockwise_normalized(levis[0], blocks) == _blockwise_normalized(levis[1], blocks)


def _blockwise_normalized(m, blocks):
    rows = [list(row) for row in m]
    for blk in blocks:
        pivot = next(rows[i][j] for i in blk for j in blk if rows[i][j] != 0)
        for i in blk:
            for j in blk:
                rows[i][j] /= pivot
    return rows


rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(max_denominator=10**15),
)


@st.composite
def square_matrices(draw, max_n=5):
    """Random rational matrices, a share of them singular by construction."""
    n = draw(st.integers(1, max_n))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["generic", "zero_row", "zero_col", "dependent"]))
    i = draw(st.integers(0, n - 1))
    if kind == "zero_row":
        rows[i] = [Fraction(0)] * n
    elif kind == "zero_col":
        for row in rows:
            row[i] = Fraction(0)
    elif kind == "dependent" and n > 1:
        others = [row for t, row in enumerate(rows) if t != i]
        coefs = [draw(rationals) for _ in others]
        rows[i] = [sum(c * row[j] for c, row in zip(coefs, others)) for j in range(n)]
    return kind, la.mat(rows)


NVARS = 2
small = st.integers(-3, 3).map(Fraction)
gradients = st.tuples(*[small] * NVARS)

# A share of the entries are exactly zero, and a share have value 0 with a
# nonzero gradient: those are not the ring zero and must not be skipped.
duals = st.one_of(
    st.just(Dual.const(0, NVARS)),
    st.builds(Dual, st.just(Fraction(0)), gradients.filter(any)),
    st.builds(Dual, small, gradients),
)


def dual_matrices(nr, nc):
    return st.lists(
        st.lists(duals, min_size=nc, max_size=nc).map(tuple), min_size=nr, max_size=nr
    ).map(tuple)


def partial_flag(parabolic):
    """The proper subspaces a ParabolicPoint stabilizes, as column matrices:
    spans of its conjugator's columns over the leading J-blocks (the
    trailing blocks on the opposite side)."""
    cols = la.transpose(parabolic.g.m)
    blocks = parabolic.J.blocks0()
    if parabolic.opposite:
        blocks = blocks[::-1]
    chosen, steps = [], []
    for blk in blocks[:-1]:
        chosen += [cols[i] for i in blk]
        steps.append(la.transpose(tuple(chosen)))
    return steps


def lie_algebra(parabolic):
    """Basis of Lie(^g P_J) (or of Lie(^g Q_J)) inside gl_n, as columns of
    length n²: g·E_ij·g⁻¹ for every (i, j) on or above (below) the block
    diagonal."""
    n = parabolic.n
    g, ginv = parabolic.g.m, gauss_jordan_inverse(parabolic.g.m)
    block = {i: k for k, blk in enumerate(parabolic.J.blocks0()) for i in blk}
    cols = []
    for i in range(n):
        for j in range(n):
            keep = block[i] >= block[j] if parabolic.opposite else block[i] <= block[j]
            if keep:
                cols.append(tuple(g[r][i] * ginv[j][c] for r in range(n) for c in range(n)))
    return la.transpose(tuple(cols))


def opposed_by_lie_algebra(P, Q):
    """P and Q are opposed iff Lie(P) ∩ Lie(Q) has the dimension of the
    standard Levi."""
    lie_p, lie_q = lie_algebra(P), lie_algebra(Q)
    dim_p, dim_q = la.dims(lie_p)[1], la.dims(lie_q)[1]
    dim_sum = la.rank(tuple(rp + rq for rp, rq in zip(lie_p, lie_q)))
    return dim_p + dim_q - dim_sum == sum(len(blk) ** 2 for blk in P.J.blocks0())
