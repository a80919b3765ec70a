import copy
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF as SymGF, QQ as SymQQ
from sympy.polys.matrices import DomainMatrix

from quivrep.errors import QuivrepError
from quivrep.linalg import (
    GF,
    QQ,
    Mat,
    _forward,
    _is_prime,
    _is_unimodular,
    _mul_ints,
    block_diagonal,
    int_mat_mul,
    null_space,
    place_blocks,
    quotient_maps,
    rref,
    smith_normal_form,
    sylvester_system,
)


def test_rref_identity():
    rank, pivots, red = rref(Mat.identity(QQ, 2))
    assert rank == 2
    assert pivots == [0, 1]
    assert red == Mat.identity(QQ, 2)


def test_rref_zero_matrix():
    rank, pivots, red = rref(Mat.zeros(QQ, 3, 2))
    assert rank == 0
    assert pivots == []


def test_rref_rank_one():
    # hand row-reduction: second row is twice the first
    a = Mat(QQ, [[1, 2], [2, 4]])
    rank, pivots, red = rref(a)
    assert rank == 1
    assert pivots == [0]
    assert red.rows == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]


def test_null_space_identity_empty():
    assert null_space(Mat.identity(QQ, 3)) == []


def test_null_space_zero_matrix():
    assert len(null_space(Mat.zeros(QQ, 2, 3))) == 3


def test_null_space_gf2_against_enumeration():
    # oracle: enumerate all 8 vectors of GF(2)^3
    f = GF(2)
    a = Mat(f, [[1, 1, 0]])
    expected = []
    for x0 in range(2):
        for x1 in range(2):
            for x2 in range(2):
                if (x0 + x1) % 2 == 0:
                    expected.append([x0, x1, x2])
    basis = null_space(a)
    assert len(basis) == 2
    for v in basis:
        assert (x := (v[0] + v[1]) % 2) == 0
    # spanned set equals the kernel found by enumeration
    spanned = set()
    for c0 in range(2):
        for c1 in range(2):
            vec = tuple((c0 * basis[0][i] + c1 * basis[1][i]) % 2 for i in range(3))
            spanned.add(vec)
    assert spanned == {tuple(v) for v in expected}


mat_strategy = st.integers(min_value=-5, max_value=5)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_rank_nullity_and_rref_idempotent(m, n, data):
    field = data.draw(st.sampled_from([QQ, GF(2), GF(5)]))
    rows = data.draw(
        st.lists(
            st.lists(mat_strategy, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    a = Mat(field, rows, m, n)
    rank, pivots, red = a.rref()
    basis = a.null_space()
    assert rank + basis.ncols == n
    for j in range(basis.ncols):
        assert (a * Mat.column(field, basis.col(j))).is_zero()
    assert red.rref()[2] == red


def test_smith_normal_form_diagonal_already():
    res = smith_normal_form([[2, 0], [0, 6]])
    assert res.d == [2, 6]


def test_smith_normal_form_coprime_row():
    # the relation (2u, -3u) of the integer pushout: gcd(2, 3) = 1
    res = smith_normal_form([[2, -3]])
    assert res.d == [1]


def test_smith_normal_form_gcd_two():
    res = smith_normal_form([[2, -2]])
    assert res.d == [2]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_smith_normal_form_properties(m, n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    res = smith_normal_form(rows)
    diag = int_mat_mul(int_mat_mul(res.transform_left, rows), res.transform_right)
    for i in range(m):
        for j in range(n):
            want = res.d[i] if i == j and i < len(res.d) else 0
            assert diag[i][j] == want
    for i in range(len(res.d) - 1):
        if res.d[i]:
            assert res.d[i + 1] % res.d[i] == 0
        else:
            assert res.d[i + 1] == 0
    assert all(x >= 0 for x in res.d)


@pytest.mark.parametrize(
    "rows, unimodular",
    [
        ([[2]], False),
        ([[1, 1], [1, 1]], False),
        ([[2, 1, 0], [0, 1, 1], [1, 0, 1]], False),  # det 3
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], True),
        ([[3, 2, 1], [1, 1, 0], [2, 1, 0]], True),  # det -1
        ([], True),
    ],
)
def test_unimodularity_check(rows, unimodular):
    assert (abs(sympy.Matrix(rows).det()) == 1) is unimodular
    assert _is_unimodular(rows) is unimodular


def test_quotient_maps_kill_exactly_the_span():
    span = Mat(QQ, [[1, 0], [2, 0], [0, 1]])
    proj, section = quotient_maps(span)
    assert (proj * span).is_zero()
    assert proj * section == Mat.identity(QQ, 1)
    assert proj.nrows == 1


def test_field_literals():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.fmt(Fraction(-1, 2)) == "-1/2"
    assert GF(5).parse("7") == 2
    with pytest.raises(QuivrepError):
        QQ.parse("1/-2")
    with pytest.raises(QuivrepError):
        GF(4)


def test_primality_agrees_with_sympy():
    rng = random.Random(1729)
    big = [rng.randrange(2, 1 << 64) for _ in range(300)]
    big += [sympy.randprime(1 << (k - 1), 1 << k) for k in range(20, 65, 4) for _ in range(5)]
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7; the others are primes and prime squares near 2^64
    edge = [561, 3215031751, 1000000000000000003, 18446744073709551557, 4294967291**2]
    for n in chain(range(-2, 5000), big, edge):
        assert _is_prime(n) == sympy.isprime(n), n


def test_prime_fields_stop_below_two_to_the_64():
    assert GF(18446744073709551557).p == 18446744073709551557
    with pytest.raises(QuivrepError, match="below 2\\^64"):
        GF((1 << 64) + 13)


def test_products_across_fields_raise():
    pairs = [
        (Mat(GF(3), [[2]]), Mat(QQ, [["1/2"]])),
        (Mat(QQ, [["1/2"]]), Mat(GF(3), [[2]])),
        (Mat.identity(QQ, 1), Mat(GF(3), [[2]])),
        (Mat(GF(3), [[2]]), Mat.identity(GF(5), 1)),
        (Mat.zeros(GF(3), 0, 2), Mat.zeros(QQ, 2, 0)),
    ]
    for a, b in pairs:
        with pytest.raises(QuivrepError, match="field mismatch"):
            a * b


# ---------------------------------------------------------------------------
# The Q kernel against sympy's DomainMatrix over QQ.

q_entry = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-5, max_value=5).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
)


@st.composite
def q_matrices(draw, nrows=None, ncols=None):
    """Rational matrices with zero rows and rows dependent on earlier ones."""
    m = draw(st.integers(min_value=0, max_value=5)) if nrows is None else nrows
    n = draw(st.integers(min_value=0, max_value=5)) if ncols is None else ncols
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "free", "zero", "dependent"]))
        if kind == "zero":
            rows.append([Fraction(0)] * n)
        elif kind == "dependent" and rows:
            i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            c = draw(q_entry)
            rows.append([c * x + y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append(draw(st.lists(q_entry, min_size=n, max_size=n)))
    return Mat(QQ, rows, m, n)


def _dm(a):
    rows = [[SymQQ(x.numerator, x.denominator) for x in row] for row in a.rows]
    return DomainMatrix(rows, a.shape, SymQQ)


def _from_dm(d):
    return Mat(QQ, [[Fraction(x.numerator, x.denominator) for x in row] for row in d.to_list()],
               *d.shape)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_product_matches_sympy(data):
    a = data.draw(q_matrices())
    b = data.draw(q_matrices(nrows=a.ncols))
    prod = a * b
    assert prod.shape == (a.nrows, b.ncols)
    assert prod == _from_dm(_dm(a) * _dm(b))
    assert all(type(x) is Fraction for row in prod.rows for x in row)


def _assert_rref_matches(a, dm, from_dm):
    """a.rref() and a.rank() are sympy's RREF and rank of `dm`, the same
    matrix, and leave a's integer rows as they were.  Returns the reduced
    matrix."""
    ints, den = a.int_form()
    before = [row[:] for row in ints]
    rank, pivots, red = a.rref()
    assert a.int_form() == (before, den)
    assert a.rank() == dm.rank()
    assert a.int_form() == (before, den)
    ref, ref_pivots = dm.rref()
    assert rank == len(ref_pivots) == dm.rank()
    assert pivots == list(ref_pivots)
    assert red == from_dm(ref)
    return red


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_rref_matches_sympy(data):
    # sparse matrices up to 12 x 12, where rows compete for a pivot and fill in
    a = data.draw(st.one_of(q_matrices(), sparse_matrices(QQ, q_entry, maxdim=12)))
    red = _assert_rref_matches(a, _dm(a), _from_dm)
    assert all(type(x) is Fraction for row in red.rows for x in row)


@settings(max_examples=100, deadline=None)
@given(q_matrices())
def test_q_null_space_matches_sympy(a):
    basis = a.null_space()
    ref = _dm(a).nullspace()  # basis vectors as rows
    assert basis.shape == (a.ncols, ref.shape[0])
    assert (a * basis).is_zero()
    if basis.ncols:
        # same span: both bases have the same reduced row echelon form
        assert _dm(basis.transpose()).rref()[0] == ref.rref()[0]
        # canonical: the identity on the free coordinates
        free = [c for c in range(a.ncols) if c not in a.rref()[1]]
        assert [basis.rows[c] for c in free] == Mat.identity(QQ, len(free)).rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_solve_right_matches_sympy(data):
    a = data.draw(q_matrices())
    k = data.draw(st.integers(min_value=0, max_value=3))
    if data.draw(st.booleans()):
        b = a * data.draw(q_matrices(nrows=a.ncols, ncols=k))  # consistent
    else:
        b = data.draw(q_matrices(nrows=a.nrows, ncols=k))
    x = a.solve_right(b)
    consistent = _dm(a).rank() == _dm(a.hstack(b)).rank()
    if not consistent:
        assert x is None
        return
    assert x is not None and x.shape == (a.ncols, b.ncols)
    assert _dm(a) * _dm(x) == _dm(b)
    # canonical: every free variable is zero
    pivots = _dm(a).rref()[1]
    for c in range(a.ncols):
        if c not in pivots:
            assert all(v == 0 for v in x.rows[c])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(lambda n: q_matrices(nrows=n, ncols=n)))
def test_q_inverse_matches_sympy(a):
    inv = a.inverse()
    if _dm(a).rank() < a.nrows:
        assert inv is None
    else:
        assert inv == _from_dm(_dm(a).inv())


# ---------------------------------------------------------------------------
# The integer form over Q.  Products, RREF and the bases built on them work
# on integer rows over one denominator, and `rows` builds Fraction rows from
# them on each read; these must be the same values as the Fraction algorithm
# gives, with the same rows.


def _fractions_only(a):
    return all(type(x) is Fraction for row in a.rows for x in row)


def _row_built(a):
    """The value of `a` as a Mat built from its Fraction rows."""
    return Mat(QQ, [list(row) for row in a.rows], a.nrows, a.ncols)


def _plain_identity(field, n):
    """The n x n identity built from its rows: it carries no identity flag,
    so products with it run the integer kernel, and a product that comes
    out as the identity, such as one of two plain identities, comes back
    flagged."""
    return Mat(field, [[int(i == j) for j in range(n)] for i in range(n)], n, n)


def _int_built(a):
    """The value of `a` as a Mat made by integer work."""
    return a * _plain_identity(QQ, a.ncols)


def _assert_canonical(a):
    rows, den = a.int_form()
    assert len(rows) == a.nrows and all(len(row) == a.ncols for row in rows)
    assert den > 0 and all(type(x) is int for x in chain.from_iterable(rows))
    assert gcd(den, *chain.from_iterable(rows)) == 1
    if not any(chain.from_iterable(rows)):
        assert den == 1
    assert a.rows == [[Fraction(x, den) for x in row] for row in rows]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_q_chained_products_match_sympy(data):
    a = data.draw(q_matrices())
    b = data.draw(q_matrices(nrows=a.ncols))
    c = data.draw(q_matrices(nrows=b.ncols))
    left = (a * b) * c
    assert left == _from_dm((_dm(a) * _dm(b)) * _dm(c))
    assert left == a * (b * c)
    assert _fractions_only(left)
    _assert_canonical(left)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_q_rref_null_space_and_solve_of_products_match_sympy(data):
    a = data.draw(q_matrices())
    b = data.draw(q_matrices(nrows=a.ncols))
    prod = a * b
    rank, pivots, red = prod.rref()
    ref, ref_pivots = (_dm(a) * _dm(b)).rref()
    assert (rank, pivots) == (len(ref_pivots), list(ref_pivots))
    assert red == _from_dm(ref) and _fractions_only(red)
    _assert_canonical(red)
    basis = prod.null_space()
    assert basis == _row_built(prod).null_space() and _fractions_only(basis)
    assert (prod * basis).is_zero()
    k = data.draw(st.integers(min_value=0, max_value=3))
    rhs = prod * data.draw(q_matrices(nrows=prod.ncols, ncols=k))
    x = prod.solve_right(rhs)
    assert x is not None and _dm(prod) * _dm(x) == _dm(rhs)
    assert x == _row_built(prod).solve_right(_row_built(rhs)) and _fractions_only(x)
    _assert_canonical(x)


@settings(max_examples=100, deadline=None)
@given(q_matrices())
def test_q_equality_between_row_built_and_int_built(a):
    work = _int_built(a)
    assert work == a and a == work
    assert _row_built(work) == work
    assert (a.scale(2) == work) == a.is_zero()
    assert work + work == a.scale(2) and work - a == Mat.zeros(QQ, *a.shape)
    assert -work == a.scale(-1) and block_diagonal(QQ, [a, work]) == block_diagonal(QQ, [a, a])


@settings(max_examples=100, deadline=None)
@given(q_matrices())
def test_q_canonical_form(a):
    for m in (a, _int_built(a), a.scale(Fraction(3, 7)), a - a, a.transpose(), a.hstack(a)):
        _assert_canonical(m)
    assert (a - a).int_form()[1] == 1
    assert Mat.zeros(QQ, a.nrows, a.ncols).int_form() == ([[0] * a.ncols for _ in range(a.nrows)], 1)


@settings(max_examples=100, deadline=None)
@given(q_matrices())
def test_q_is_zero_and_transpose_on_both_kinds(a):
    zero = all(x == 0 for row in a.rows for x in row)
    expected = [[a.rows[i][j] for i in range(a.nrows)] for j in range(a.ncols)]
    for m in (a, _int_built(a)):
        assert m.is_zero() == zero
        t = m.transpose()
        assert t.shape == (a.ncols, a.nrows)
        assert t.rows == expected and _fractions_only(t)
        assert t.transpose() == a


def test_int_built_matrices_pickle_and_copy():
    a = Mat(QQ, [[1, 2], [3, 4]]) * Mat(QQ, [["1/2", 0], [0, 1]])
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert b == a and b.rows == [[Fraction(1, 2), 2], [Fraction(3, 2), 4]]


def test_reads_and_arithmetic_leave_a_matrix_as_made():
    # A Mat holds one form, bound once: reading it in every way and using it
    # in products and row reduction rebinds no slot and writes no row.
    q = Mat(QQ, [[1, "1/2", 0], [3, 0, "-2/3"]])
    g = Mat(GF(7), [[1, 4, 0], [3, 0, 5]])
    made = [q, _int_built(q), g, g * _plain_identity(GF(7), 3)]
    slots = [[getattr(a, name, None) for name in Mat.__slots__] for a in made]
    values = copy.deepcopy(slots)
    for a in made:
        a.rows, a.entry(1, 2), a.col(1), a.fmt(), a.int_form()
        assert a == copy.deepcopy(a) and a.rows == a.rows
        a * a.transpose(), a.transpose() * a, a.rref(), a.null_space(), a + a
    for a, before, value in zip(made, slots, values):
        after = [getattr(a, name, None) for name in Mat.__slots__]
        assert all(x is y for x, y in zip(after, before)) and after == value


def test_gf_int_form_is_the_rows():
    a = Mat(GF(7), [[1, 2], [3, 4]])
    assert a.int_form() == (a.rows, 1)
    assert type(a * a) is Mat and (a * a).rows == [[0, 3], [1, 1]]


# Products that do no arithmetic: a flagged identity operand gives the other
# operand, and a zero dimension gives the zero matrix of the product's shape.


@st.composite
def field_matrices(draw, field, nrows, ncols):
    """Matrices over `field` of the given shape; over Q with entries over
    denominators up to 6, so the common denominator is often not 1."""
    if field.p:
        entry = st.integers(min_value=0, max_value=field.p - 1)
    else:
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    return Mat(field, rows, nrows, ncols)


def _kernel_product(a, b):
    """A b by the integer kernel alone, with no shortcut."""
    (x, dx), (y, dy) = a.int_form(), b.int_form()
    prod = _mul_ints(x, y, b.ncols, a.field.p)
    return Mat.from_ints(a.field, prod, dx * dy, a.nrows, b.ncols)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_identity_and_empty_products_equal_the_kernel_product(data):
    field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    m, k, n = (data.draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    a = data.draw(field_matrices(field, m, k))
    b = data.draw(field_matrices(field, k, n))
    ident_m, ident_k = Mat.identity(field, m), Mat.identity(field, k)
    plain_m, plain_k = _plain_identity(field, m), _plain_identity(field, k)
    assert ident_m._is_identity and not plain_m._is_identity and ident_m == plain_m
    no_rows, no_cols, no_inner_left, no_inner_right = (
        data.draw(field_matrices(field, r, c)) for r, c in ((0, k), (k, 0), (m, 0), (0, n))
    )
    pairs = [
        (ident_m, a, plain_m, a),
        (a, ident_k, a, plain_k),
        (ident_k, ident_k, plain_k, plain_k),
        (a, b, a, b),
        (no_rows, b, no_rows, b),
        (a, no_cols, a, no_cols),
        (no_inner_left, no_inner_right, no_inner_left, no_inner_right),
    ]
    for x, y, plain_x, plain_y in pairs:
        prod = x * y
        assert prod.shape == (x.nrows, y.ncols)
        # == compares the denominators too
        assert prod == plain_x * plain_y == _kernel_product(plain_x, plain_y)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_identity_flag_never_lies(data):
    # A kernel product (no flagged operand, no zero dimension) is flagged
    # exactly when it is the identity, and no product, inverse or identity
    # is flagged unless it is the identity.  Right inverses make identity
    # products from factors that are not square.
    field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    n, k = (data.draw(st.integers(min_value=1, max_value=4)) for _ in range(2))
    a = data.draw(field_matrices(field, n, k))
    b = data.draw(field_matrices(field, k, n))
    plain = _plain_identity(field, n)
    right = a.solve_right(plain)
    square = data.draw(field_matrices(field, n, n))
    inv = square.inverse()
    kernel_pairs = [(a, b), (b, a), (plain, plain), (square, plain), (plain, square)]
    if right is not None:
        kernel_pairs += [(a, right), (right, a)]
    if inv is not None and not inv._is_identity:
        kernel_pairs += [(square, inv), (inv, square)]
    made = [x * y for x, y in kernel_pairs]
    assert made == [_kernel_product(x, y) for x, y in kernel_pairs]
    for prod in made:
        assert prod._is_identity == (prod == _plain_identity(field, prod.nrows))
    if right is not None:
        assert (a * right)._is_identity and a * right == plain
    if inv is not None:
        assert (square * inv)._is_identity or square == plain
        assert square * inv == plain == inv * square
    plain_inv = plain.inverse()
    assert plain_inv._is_identity and plain_inv == plain
    shortcut = [Mat.identity(field, n) * square, square * Mat.identity(field, n), plain_inv]
    for m in made + shortcut + [right, inv]:
        if m is not None and m._is_identity:
            assert m == _plain_identity(field, m.nrows)
            assert m.rank() == len(_forward(m._ints, m.ncols, field.p)[1]) == m.nrows


# Products of the sparse, small matrices the paper's constructions make:
# mostly-zero rows, identity factors and 0/1 blocks, with empty shapes.


@st.composite
def sparse_matrices(draw, field, entry, nrows=None, ncols=None, maxdim=6):
    """Matrices over `field` whose nonzero entries are `entry` draws: the
    identity pattern, a 0/1 block, or rows that are mostly zero."""
    m = draw(st.integers(min_value=0, max_value=maxdim)) if nrows is None else nrows
    n = draw(st.integers(min_value=0, max_value=maxdim)) if ncols is None else ncols
    kind = draw(st.sampled_from(["identity", "zero-one", "sparse", "sparse"]))
    if kind == "identity":
        rows = [[int(i == j) for j in range(n)] for i in range(m)]
    elif kind == "zero-one":
        rows = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(m)]
    else:
        mostly_zero = st.one_of(st.just(0), st.just(0), st.just(0), entry)
        rows = [draw(st.lists(mostly_zero, min_size=n, max_size=n)) for _ in range(m)]
    return Mat(field, rows, m, n)


def _gf_dm(a):
    dom = SymGF(a.field.p)
    return DomainMatrix([[dom(x) for x in row] for row in a.rows], a.shape, dom)


def _from_gf_dm(d, field):
    return Mat(field, [[int(x) % field.p for x in row] for row in d.to_list()], *d.shape)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gf_product_matches_sympy(data):
    field = GF(data.draw(st.sampled_from([2, 3, 32003])))
    entry = st.integers(min_value=1, max_value=field.p - 1)
    a = data.draw(sparse_matrices(field, entry))
    b = data.draw(sparse_matrices(field, entry, nrows=a.ncols))
    prod = a * b
    assert prod.shape == (a.nrows, b.ncols)
    assert prod.rows == _from_gf_dm(_gf_dm(a) * _gf_dm(b), field).rows
    assert all(type(x) is int and 0 <= x < field.p for row in prod.rows for x in row)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gf_rref_matches_sympy(data):
    field = GF(data.draw(st.sampled_from([2, 3, 32003])))
    entry = st.integers(min_value=1, max_value=field.p - 1)
    a = data.draw(st.one_of(rank_matrices(field), sparse_matrices(field, entry, maxdim=12)))
    _assert_rref_matches(a, _gf_dm(a), lambda d: _from_gf_dm(d, field))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gf_chained_products_match_sympy(data):
    field = GF(data.draw(st.sampled_from([2, 3, 32003])))
    entry = st.integers(min_value=1, max_value=field.p - 1)
    a = data.draw(sparse_matrices(field, entry))
    b = data.draw(sparse_matrices(field, entry, nrows=a.ncols))
    c = data.draw(sparse_matrices(field, entry, nrows=b.ncols))
    left = (a * b) * c
    assert left == _from_gf_dm((_gf_dm(a) * _gf_dm(b)) * _gf_dm(c), field)
    assert left == a * (b * c)
    assert a * Mat.identity(field, a.ncols) == a == Mat.identity(field, a.nrows) * a


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_sparse_product_matches_sympy(data):
    a = data.draw(sparse_matrices(QQ, q_entry))
    b = data.draw(sparse_matrices(QQ, q_entry, nrows=a.ncols))
    prod = a * b
    assert prod.shape == (a.nrows, b.ncols)
    assert prod == _from_dm(_dm(a) * _dm(b))
    assert _fractions_only(prod)
    _assert_canonical(prod)


def test_int_built_rows_read_from_many_threads():
    # Reading `rows` builds them from the integer form; racing reads of one
    # shared matrix, mixed with reads of its integer form, must all see the
    # value.  The matrix is large enough that building its rows spans many
    # thread switches at the short switch interval.
    n = 12
    base = Mat(QQ, [[i * n + j for j in range(n)] for i in range(n)])
    sixth = Mat(QQ, [["1/6" if i == j else 0 for j in range(n)] for i in range(n)])
    expected = [[Fraction(i * n + j, 6) for j in range(n)] for i in range(n)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            shared = base * sixth
            barrier = threading.Barrier(4)
            seen, errors = [], []

            def read(k, shared=shared, barrier=barrier, seen=seen, errors=errors):
                try:
                    barrier.wait()
                    if k % 2:
                        shared.int_form()
                    seen.append(shared.rows)
                except Exception as exc:  # collected for the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert seen == [expected] * 4
            assert shared == base * sixth
    finally:
        sys.setswitchinterval(old)


@st.composite
def _flat_groups(draw):
    """Groups of Q matrices with one list of shapes, one group per row."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3))
    k = draw(st.integers(min_value=1, max_value=3))
    return shapes, [[draw(q_matrices(nrows=h, ncols=w)) for h, w in shapes] for _ in range(k)]


@settings(max_examples=100, deadline=None)
@given(_flat_groups())
def test_q_stack_flat_and_unstack_flat_are_inverse(data):
    shapes, groups = data
    width = sum(h * w for h, w in shapes)
    stacked = Mat.stack_flat(QQ, groups, width)
    assert stacked.shape == (len(groups), width)
    assert stacked.rows == [[x for m in g for row in m.rows for x in row] for g in groups]
    _assert_canonical(stacked)
    back = stacked.unstack_flat(shapes)
    assert back == groups
    for mats in back:
        for m in mats:
            _assert_canonical(m)


@st.composite
def rank_matrices(draw, field=None):
    """Matrices over `field`, by default one of Q, GF(2), GF(3) and
    GF(32003), of 0-5 rows and columns, with zero rows and rows dependent on
    earlier ones; over Q with entries of non-unit denominator."""
    if field is None:
        field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    if field == QQ:
        return draw(q_matrices())
    p = field.p
    entry = st.integers(min_value=0, max_value=p - 1)
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "free", "zero", "dependent"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "dependent" and rows:
            i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            c = draw(entry)
            rows.append([(c * x + y) % p for x, y in zip(rows[i], rows[j])])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return Mat(field, rows, m, n)


@settings(max_examples=300, deadline=None)
@given(rank_matrices())
def test_rank_is_the_rank_of_the_rref(a):
    assert a.rank() == a.rref()[0]
    assert a.transpose().rank() == a.rank()


def _over(field, a):
    """A Q matrix over `field`: over GF(p) the integer matrix den * a."""
    return a if field == QQ else Mat(field, a.int_form()[0], a.nrows, a.ncols)


def _sylvester_by_columns(field, shapes, equations):
    """The nonzero rows of the map's matrix, whose column k is the image of
    the k-th unit vector, the images T X_i - X_j S computed directly."""
    nvars = sum(h * w for h, w in shapes)
    cols = []
    for k in range(nvars):
        flat = [int(i == k) for i in range(nvars)]
        xs, pos = [], 0
        for h, w in shapes:
            xs.append(Mat(field, [flat[pos + r * w : pos + (r + 1) * w] for r in range(h)], h, w))
            pos += h * w
        image = []
        for i, j, t, s in equations:
            image += [x for row in (t * xs[i] - xs[j] * s).rows for x in row]
        cols.append(image)
    rows = [list(row) for row in zip(*cols) if any(row)]
    return Mat(field, rows, len(rows), nvars)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sylvester_system_holds_the_nonzero_rows_of_its_map(data):
    for field in (QQ, GF(7)):
        dims = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                                  max_size=3))
        equations = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            i = data.draw(st.integers(0, len(dims) - 1))
            j = data.draw(st.integers(0, len(dims) - 1))
            (hi, wi), (hj, wj) = dims[i], dims[j]
            t = data.draw(q_matrices(nrows=hj, ncols=hi))
            s = data.draw(q_matrices(nrows=wj, ncols=wi))
            equations.append((i, j, _over(field, t), _over(field, s)))
        assert sylvester_system(field, dims, equations) == _sylvester_by_columns(field, dims, equations)


def test_place_blocks_writes_each_block_at_its_offsets():
    a = Mat(QQ, [["1/2", 3]])
    b = Mat(QQ, [["2/3"], [0]])
    got = place_blocks(QQ, 3, 3, [(0, 1, a), (1, 0, b)])
    assert got == Mat(QQ, [[0, "1/2", 3], ["2/3", 0, 0], [0, 0, 0]])
    assert place_blocks(QQ, 2, 0, []) == Mat.zeros(QQ, 2, 0)
    for r, c in ((0, 2), (2, 0), (-1, 0)):
        with pytest.raises(QuivrepError, match="outside"):
            place_blocks(QQ, 3, 3, [(r, c, b.transpose().vstack(a))])


def test_sylvester_system_checks_shapes():
    t = Mat.identity(QQ, 2)
    with pytest.raises(QuivrepError):
        sylvester_system(QQ, [(2, 2), (3, 2)], [(0, 1, t, t)])
