"""Exact linear algebra over Q and prime fields, plus Smith normal form over Z.

Everything downstream sits on this kernel.  Scalars are `fractions.Fraction`
over the rationals and plain ints reduced mod p over GF(p); there is no
floating point anywhere.  Pivoting is deterministic (first nonzero entry in
column order) so all outputs are reproducible bit for bit.

A `Mat` over Q stores rows of `Fraction`, but the two hot operations do no
`Fraction` arithmetic inside their loops.  The product turns each row of the
left factor and each column of the right factor into integer numerators over
one common denominator (the lcm of the entries' denominators), takes every
entry as one integer dot product, and builds a single `Fraction` from it.
Row reduction scales each row to primitive integers and runs Gauss-Jordan
fraction-free, in the spirit of Bareiss (1968): a pivot p clears an entry f
of another row by `row <- (p/g) row - (f/g) pivot_row` with g = gcd(p, f),
after which the row is divided by the gcd of its entries.  Only at the end
is each pivot row divided by its pivot.  Scaling a row by a nonzero integer
leaves its zero pattern unchanged, so the pivots and row swaps are those of
the `Fraction` algorithm; and the reduced row echelon form of a matrix is
unique, so the result, and with it every null-space, solution and quotient
basis built from it, is the same matrix bit for bit.  GF(p) keeps its direct
modular loops.
"""

from fractions import Fraction
from math import gcd, lcm
import operator

from .errors import QuivrepError


class Field:
    """The rationals, or the prime field GF(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=0):
        if kind == "rationals":
            if p != 0:
                raise QuivrepError("rationals have characteristic 0")
        elif kind == "prime-field":
            if p < 2 or not _is_prime(p):
                raise QuivrepError("prime field needs a prime characteristic, got %r" % (p,))
        else:
            raise QuivrepError("unknown field kind %r" % (kind,))
        self.kind = kind
        self.p = p

    @property
    def characteristic(self):
        return self.p

    def zero(self):
        return 0 if self.p else Fraction(0)

    def one(self):
        return 1 if self.p else Fraction(1)

    def conv(self, x):
        """Coerce an int / Fraction / literal string into the field."""
        if type(x) is Fraction and not self.p:
            return x
        if isinstance(x, str):
            return self.parse(x)
        if self.p:
            if isinstance(x, Fraction):
                num, den = x.numerator, x.denominator
                return num * self.inv(den % self.p) % self.p
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            a %= self.p
            if a == 0:
                raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.p)
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def parse(self, text):
        """Read a literal: `a` or `a/b` (b > 0) over Q, an integer mod p."""
        text = text.strip()
        if self.p:
            return int(text) % self.p
        if "/" in text:
            num, den = text.split("/")
            den = int(den)
            if den <= 0:
                raise QuivrepError("rational literal needs positive denominator: %r" % text)
            return Fraction(int(num), den)
        return Fraction(int(text))

    def fmt(self, a):
        if self.p:
            return str(a % self.p)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def elements(self):
        """Iterate all field elements (prime fields only)."""
        if not self.p:
            raise QuivrepError("cannot enumerate Q")
        return range(self.p)

    def random(self, rng, span=5):
        if self.p:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-span, span))

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if not self.p else "GF(%d)" % self.p


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


QQ = Field("rationals")

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = Field("prime-field", p)
    return _gf_cache[p]


class Mat:
    """Dense matrix over a Field; immutable by convention after construction.

    Zero-row and zero-column matrices are first class: shape information is
    kept even when there are no entries.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, nrows=None, ncols=None):
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        conv = field.conv
        data = []
        for r in rows:
            if len(r) != ncols:
                raise QuivrepError("ragged matrix rows")
            data.append([conv(x) for x in r])
        if len(data) != nrows:
            raise QuivrepError("row count mismatch")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = data

    @staticmethod
    def wrap(field, rows, nrows, ncols):
        """A Mat on `rows` as given: the entries must already be elements of
        `field`, since they are neither coerced nor copied."""
        m = Mat.__new__(Mat)
        m.field, m.nrows, m.ncols, m.rows = field, nrows, ncols, rows
        return m

    @staticmethod
    def zeros(field, nrows, ncols):
        z = field.zero()
        m = Mat.__new__(Mat)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.rows = [[z] * ncols for _ in range(nrows)]
        return m

    @staticmethod
    def identity(field, n):
        m = Mat.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.rows[i][i] = one
        return m

    @staticmethod
    def from_rows(field, rows, ncols=None):
        if ncols is None and not rows:
            raise QuivrepError("empty row list needs explicit ncols")
        return Mat(field, rows, len(rows), ncols if ncols is not None else len(rows[0]))

    @staticmethod
    def column(field, entries):
        return Mat(field, [[x] for x in entries], len(entries), 1)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def copy_rows(self):
        return [row[:] for row in self.rows]

    def entry(self, i, j):
        return self.rows[i][j]

    def row(self, i):
        return list(self.rows[i])

    def col(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def is_zero(self):
        z = self.field.zero()
        return all(x == z for row in self.rows for x in row)

    def transpose(self):
        t = Mat.__new__(Mat)
        t.field = self.field
        t.nrows = self.ncols
        t.ncols = self.nrows
        t.rows = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return t

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __add__(self, other):
        self._check_same_shape(other)
        add = self.field.add
        out = Mat.__new__(Mat)
        out.field, out.nrows, out.ncols = self.field, self.nrows, self.ncols
        out.rows = [
            [add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ]
        return out

    def __sub__(self, other):
        self._check_same_shape(other)
        sub = self.field.sub
        out = Mat.__new__(Mat)
        out.field, out.nrows, out.ncols = self.field, self.nrows, self.ncols
        out.rows = [
            [sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ]
        return out

    def __neg__(self):
        neg = self.field.neg
        out = Mat.__new__(Mat)
        out.field, out.nrows, out.ncols = self.field, self.nrows, self.ncols
        out.rows = [[neg(a) for a in row] for row in self.rows]
        return out

    def scale(self, c):
        c = self.field.conv(c)
        mul = self.field.mul
        out = Mat.__new__(Mat)
        out.field, out.nrows, out.ncols = self.field, self.nrows, self.ncols
        out.rows = [[mul(c, a) for a in row] for row in self.rows]
        return out

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise QuivrepError(
                "shape mismatch in product: %s * %s" % (self.shape, other.shape)
            )
        f = self.field
        if f.p:
            p = f.p
            bt = other.transpose().rows
            rows = [
                [sum(a * b for a, b in zip(row, col)) % p for col in bt]
                for row in self.rows
            ]
        else:
            rows = _mul_q(self.rows, other.rows, other.ncols)
        out = Mat.__new__(Mat)
        out.field, out.nrows, out.ncols = f, self.nrows, other.ncols
        out.rows = rows
        return out

    def power(self, k):
        if self.nrows != self.ncols:
            raise QuivrepError("power of non-square matrix")
        result = Mat.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _check_same_shape(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise QuivrepError("shape/field mismatch: %s vs %s" % (self.shape, other.shape))

    def rref(self):
        """Reduced row echelon form.

        Returns (rank, pivot columns, reduced matrix).  Deterministic: the
        pivot is the first row with a nonzero entry in the current column.
        """
        f = self.field
        nrows, ncols = self.nrows, self.ncols
        if f.p:
            r, pivots, m = _rref_gf(f, self.copy_rows(), nrows, ncols)
        else:
            r, pivots, m = _rref_q(self.rows, nrows, ncols)
        out = Mat.__new__(Mat)
        out.field, out.nrows, out.ncols, out.rows = f, nrows, ncols, m
        return r, pivots, out

    def rank(self):
        return self.rref()[0]

    def null_space(self):
        """Matrix whose columns form the canonical basis of {x : A x = 0}."""
        f = self.field
        rank, pivots, red = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = Mat.zeros(f, self.ncols, len(free))
        one = f.one()
        for k, c in enumerate(free):
            basis.rows[c][k] = one
            for r, pc in enumerate(pivots):
                basis.rows[pc][k] = f.neg(red.rows[r][c])
        return basis

    def solve_right(self, b):
        """Deterministic solution X of A X = B, or None if inconsistent.

        Free variables are set to zero, so the answer is canonical.
        """
        f = self.field
        zero = f.zero()
        if b.nrows != self.nrows:
            raise QuivrepError("solve: row mismatch")
        aug = Mat.__new__(Mat)
        aug.field = f
        aug.nrows = self.nrows
        aug.ncols = self.ncols + b.ncols
        aug.rows = [self.rows[i] + b.rows[i] for i in range(self.nrows)]
        rank, pivots, red = aug.rref()
        n = self.ncols
        for r in range(rank):
            if pivots[r] >= n:
                return None
        x = Mat.zeros(f, n, b.ncols)
        for r, pc in enumerate(pivots):
            x.rows[pc] = red.rows[r][n:]
        # rows below rank are zero by construction; consistency already checked
        return x

    def inverse(self):
        """Inverse matrix, or None when singular."""
        if self.nrows != self.ncols:
            return None
        x = self.solve_right(Mat.identity(self.field, self.nrows))
        if x is None:
            return None
        if (self * x) != Mat.identity(self.field, self.nrows):
            return None
        return x

    def column_space(self):
        """Canonical (echelonized) basis of the column space, as columns."""
        rank, _, red = self.transpose().rref()
        rows = red.rows[:rank]
        return Mat(self.field, rows, rank, self.nrows).transpose()

    def hstack(self, other):
        if self.nrows != other.nrows or self.field != other.field:
            raise QuivrepError("hstack mismatch")
        out = Mat.__new__(Mat)
        out.field, out.nrows, out.ncols = self.field, self.nrows, self.ncols + other.ncols
        out.rows = [self.rows[i] + other.rows[i] for i in range(self.nrows)]
        return out

    def vstack(self, other):
        if self.ncols != other.ncols or self.field != other.field:
            raise QuivrepError("vstack mismatch")
        out = Mat.__new__(Mat)
        out.field, out.nrows, out.ncols = self.field, self.nrows + other.nrows, self.ncols
        out.rows = [row[:] for row in self.rows] + [row[:] for row in other.rows]
        return out

    def fmt(self):
        f = self.field
        return [[f.fmt(x) for x in row] for row in self.rows]

    def __repr__(self):
        return "Mat(%s, %dx%d)" % (self.field, self.nrows, self.ncols)


# Shared values for small integers: most entries of the paper's matrices are
# 0 or small integers, and a Fraction is immutable.
_SMALL = {i: Fraction(i) for i in range(-64, 65)}
_ZERO = _SMALL[0]


def _fraction(num, den=1):
    """Fraction(num, den), shared when it is a small integer."""
    if den == 1:
        x = _SMALL.get(num)
        return x if x is not None else Fraction(num)
    return Fraction(num, den)


def _int_row(row):
    """(integer numerators, common denominator) of a row of rationals."""
    dens = [x.denominator for x in row]
    den = lcm(*dens)
    nums = [x.numerator for x in row]
    if den == 1:
        return nums, 1
    return [n * (den // d) for n, d in zip(nums, dens)], den


def _mul_q(a_rows, b_rows, ncols):
    """Rows of A * B over Q, A and B given by their rows, B with ncols columns."""
    if not b_rows:
        return [[_ZERO] * ncols for _ in a_rows]
    cols = []
    for col in zip(*b_rows):
        ints, den = _int_row(col)
        cols.append((ints, den) if any(ints) else None)
    out = []
    for row in a_rows:
        ra, da = _int_row(row)
        if not any(ra):
            out.append([_ZERO] * ncols)
            continue
        out_row = []
        for col in cols:
            dot = sum(map(operator.mul, ra, col[0])) if col is not None else 0
            out_row.append(_fraction(dot, da * col[1]) if dot else _ZERO)
        out.append(out_row)
    return out


def _rref_gf(f, m, nrows, ncols):
    """(rank, pivots, rows of the RREF) over GF(p); reduces the rows `m` in place."""
    zero = f.zero()
    p = f.p
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        if inv != f.one():
            mul = f.mul
            m[r] = [mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != zero:
                factor = m[i][c]
                rowr = m[r]
                rowi = m[i]
                m[i] = [(a - factor * b) % p for a, b in zip(rowi, rowr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


def _rref_q(rows, nrows, ncols):
    """(rank, pivots, rows of the RREF) over Q, by fraction-free Gauss-Jordan."""
    m = []
    for row in rows:
        ints = _int_row(row)[0]
        g = gcd(*ints)
        m.append([x // g for x in ints] if g > 1 else ints)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        rowr = m[r]
        p = rowr[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(m[i], rowr)]
                g = gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for i in range(r):
        row = m[i]
        p = row[pivots[i]]
        out.append([_fraction(x, p) if x else _ZERO for x in row])
    out += [[_ZERO] * ncols for _ in range(r, nrows)]
    return r, pivots, out


def rref(a):
    """Reduced row echelon form: (rank, pivot columns, reduced)."""
    return a.rref()


def null_space(a):
    """Basis of the right null space, as a list of column vectors."""
    basis = a.null_space()
    return [basis.col(j) for j in range(basis.ncols)]


def quotient_maps(span):
    """Projection/section pair for k^d -> k^d / S, S spanned by `span` columns.

    Returns (proj, section): proj is q x d with kernel exactly S, section is
    d x q with proj * section = identity.  The quotient basis is the set of
    non-pivot coordinates of the echelonized span, so it is canonical.
    """
    f = span.field
    d = span.nrows
    rank, pivots, red = span.transpose().rref()
    nonpiv = [c for c in range(d) if c not in pivots]
    q = len(nonpiv)
    proj = Mat.zeros(f, q, d)
    one = f.one()
    for i, c in enumerate(nonpiv):
        proj.rows[i][c] = one
        for r, pc in enumerate(pivots):
            proj.rows[i][pc] = f.neg(red.rows[r][c])
    section = Mat.zeros(f, d, q)
    for i, c in enumerate(nonpiv):
        section.rows[c][i] = one
    return proj, section


class SNFResult:
    """Smith normal form data: diagonal d, unimodular transforms L, R."""

    __slots__ = ("d", "transform_left", "transform_right")

    def __init__(self, d, transform_left, transform_right):
        self.d = d
        self.transform_left = transform_left
        self.transform_right = transform_right


def _int_det(rows):
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(rows):
    """Smith normal form of an integer matrix given as a list of rows.

    Returns an SNFResult with nonnegative invariant factors sorted by
    divisibility and transforms of determinant +-1 satisfying
    L * A * R = diag(d).
    """
    a = [list(map(int, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    left = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    right = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, c):  # row_i -= c * row_j
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]
        left[i] = [x - c * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, c):  # col_i -= c * col_j
        for r in range(nrows):
            a[r][i] -= c * a[r][j]
        for r in range(ncols):
            right[r][i] -= c * right[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in range(nrows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(ncols):
            right[r][i], right[r][j] = right[r][j], right[r][i]

    t = 0
    while t < min(nrows, ncols):
        # find smallest nonzero |entry| in the remaining block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        piv = a[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        t += 1
    d = [abs(a[i][i]) for i in range(min(nrows, ncols))]
    # fix signs introduced by taking absolute values
    for i in range(min(nrows, ncols)):
        if a[i][i] < 0:
            for r in range(ncols):
                right[r][i] = -right[r][i]
            a[i][i] = -a[i][i]
    # drop trailing structure: keep full diagonal (zeros allowed)
    if abs(_int_det(left)) != 1 or abs(_int_det(right)) != 1:
        raise QuivrepError("Smith normal form transforms are not unimodular")
    return SNFResult(d, left, right)


def int_mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in range(len(a))]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
