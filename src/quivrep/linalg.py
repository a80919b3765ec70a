"""Exact linear algebra over Q and prime fields, plus Smith normal form over Z.

Everything downstream sits on this kernel.  Scalars are `fractions.Fraction`
over the rationals and plain ints reduced mod p over GF(p); there is no
floating point anywhere.  The reduced row echelon form of a matrix is
unique, whatever the pivot rows, so all outputs are reproducible bit for bit.

A `Mat` holds one form, set when it is made and never rebound: integer rows
over one positive denominator D with gcd(D, entries) = 1, so D is the lcm of
the entries' denominators.  This form is unique, so `==` compares it
directly.  Over GF(p) the rows are ints mod p and D is 1.  A matrix built
from rows of field elements (`Mat(...)`) is brought to this form once, in
its constructor; integer work makes the form directly (`Mat.from_ints`).
Products, sums, transposes, stacking, row reduction and the null-space,
solution and quotient bases built on them all work on this form, over both
kinds of field, and do no `Fraction` arithmetic.  Over GF(p) `rows` is the
stored rows; over Q reading `rows` builds new `Fraction` rows on every read,
and `entry` and `col` read single entries.  Nothing is cached, so a matrix
never changes after construction and threads can share it without locks.
Beside its form a `Mat` holds one flag, bound once in the same
constructors: whether it is an identity.  Only `Mat.identity` sets it, but
every identity the library makes comes from there: `quotient_maps` returns
it for the quotient by zero, and a product, an inverse or a slice of
columns (`Mat.columns`) that comes out as the identity returns
`Mat.identity` rather than an unflagged copy.  `rank` reads the flag; `==`
does not.

The rest of the package reads `rows` and uses the operations, and never
handles a denominator: `Mat.stack_flat` and `Mat.unstack_flat` flatten
matrices into rows and back, and `place_blocks` (with its diagonal case
`block_diagonal`) and `sylvester_system` assemble larger matrices from
smaller ones.

A product with a flagged identity operand is the other operand, and a
product with a zero dimension is the zero matrix of its shape: both are
exact, and a `Mat` never changes, so neither needs a scan of the entries.
The constructions make many such products: quotient maps by zero and the
start of every composite are identities, the maps between canonical
quotient bases mostly come out as identities, and blocks at vertices where
a module is zero are empty.  Every other product, over both fields, runs
one integer kernel, after Gustavson (1978): row i of A B is the sum of
x * (row k of B) over the nonzero entries x = A[i][k], so zero entries of A
cost nothing and B is never transposed.  A square result is scanned for
the identity, row by row, up to the first row that is not.
Over Q the product of A = N/D and B = M/E is NM over DE, reduced by the gcd
of DE and its entries; over GF(p) each entry is reduced mod p once, at the
end of its row.

Row reduction is one routine for both kinds of field.  It eliminates
forward, column by column, taking as pivot the remaining row nonzero in the
column with the fewest nonzeros, so sparse rows stay sparse; then it
substitutes back, last pivot first.  A pivot row touches only its own
nonzero positions.  Over GF(p) the pivot row is scaled to 1.  Over Q every
row is kept primitive and cleared fraction-free, in the spirit of Bareiss
(1968): a pivot a clears an entry f of another row by
`row <- (a/g) row - (f/g) pivot_row` with g = gcd(a, f), after which the
row is divided by the gcd of its entries.  Row i over its pivot a_i is then
in lowest terms over |a_i|, so the integer form of the result is read off
over the lcm of the pivots.  The reduced row echelon form of a matrix is
unique, so the result, and with it every null-space, solution and quotient
basis built from it, does not depend on the pivot rows chosen.

`rank` runs the same forward elimination and counts its pivots, with no
back-substitution.  Neither copies the input rows up front: clearing a
row makes a new row, so the input is never written.

`quotient_maps` takes any columns spanning the subspace, dependent or
not: it row-reduces their transpose, whose RREF depends only on the row
space, so the blocks of a hom give the same quotient maps as an
echelonized basis of its image.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import QuivrepError


class Field:
    """The rationals, or the prime field GF(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=0):
        if kind == "rationals":
            if p != 0:
                raise QuivrepError("rationals have characteristic 0")
        elif kind == "prime-field":
            if p >= 1 << 64:
                raise QuivrepError("prime field characteristic must be below 2^64, got %r" % (p,))
            if p < 2 or not _is_prime(p):
                raise QuivrepError("prime field needs a prime characteristic, got %r" % (p,))
        else:
            raise QuivrepError("unknown field kind %r" % (kind,))
        self.kind = kind
        self.p = p

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

    def random(self, rng, span=5):
        """A uniform draw: an element of GF(p), or an integer in [-span,
        span] over Q, a shared `Fraction` when it is small."""
        if self.p:
            return rng.randrange(self.p)
        return _fraction(rng.randint(-span, span), 1)

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if not self.p else "GF(%d)" % self.p


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin to the first 12 prime bases, which is exact for every
    n below 3.18 * 10^23 (Sorenson and Webster 2015), so for every n < 2^64."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = Field("rationals")

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = Field("prime-field", p)
    return _gf_cache[p]


class Mat:
    """Dense matrix over a Field, immutable after construction: it holds one
    form, its canonical integer rows over a positive denominator, and a flag
    saying it is an identity, set when it is made and never rebound or
    written.

    Zero-row and zero-column matrices are first class: shape information is
    kept even when there are no entries.
    """

    __slots__ = ("field", "nrows", "ncols", "_ints", "_den", "_is_identity")

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
        self._ints, self._den = (data, 1) if field.p else _canonical(data)
        self._is_identity = False

    @staticmethod
    def from_ints(field, rows, den, nrows, ncols):
        """The matrix rows / den, for integer rows and a positive integer den.

        Over GF(p) den must be 1 and the rows already reduced mod p.  The rows
        are taken as given, and over Q divided by their gcd with den.
        """
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g != 1:
                den //= g
                rows = [[x // g for x in row] for row in rows]
        m = Mat.__new__(Mat)
        m.field, m.nrows, m.ncols, m._ints, m._den = field, nrows, ncols, rows, den
        m._is_identity = False
        return m

    @property
    def rows(self):
        """The entries, row by row.  Over GF(p) these are the stored integer
        rows, which must not be written; over Q new `Fraction` rows on every
        read."""
        if self.field.p:
            return self._ints
        den = self._den
        return [[_fraction(x, den) for x in row] for row in self._ints]

    def int_form(self):
        """(integer rows, den) with rows / den this matrix: den > 0 is the lcm
        of the entries' denominators, so gcd(den, entries) = 1, and it is 1
        over GF(p).  The rows must not be written."""
        return self._ints, self._den

    @staticmethod
    def zeros(field, nrows, ncols):
        return Mat.from_ints(field, [[0] * ncols for _ in range(nrows)], 1, nrows, ncols)

    @staticmethod
    def identity(field, n):
        """The n x n identity, flagged so that products skip it."""
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        m = Mat.__new__(Mat)
        m.field, m.nrows, m.ncols, m._ints, m._den = field, n, n, rows, 1
        m._is_identity = True
        return m

    @staticmethod
    def column(field, entries):
        return Mat(field, [[x] for x in entries], len(entries), 1)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        """Entry (i, j) as a field element, without building `rows`."""
        x = self._ints[i][j]
        return x if self.field.p else _fraction(x, self._den)

    def col(self, j):
        if self.field.p:
            return [row[j] for row in self._ints]
        den = self._den
        return [_fraction(row[j], den) for row in self._ints]

    def columns(self, start, stop):
        """The matrix of columns start, ..., stop - 1: the product with the
        injection of those coordinates, taken with no product, and the
        flagged identity when it comes out as one, as a product does."""
        ncols = stop - start
        rows = [row[start:stop] for row in self._ints]
        if self.nrows == ncols and _is_scaled_identity(rows, self._den):
            return Mat.identity(self.field, ncols)
        return Mat.from_ints(self.field, rows, self._den, self.nrows, ncols)

    def is_zero(self):
        return not any(map(any, self._ints))

    def transpose(self):
        ints = self._ints
        rows = [list(col) for col in zip(*ints)] if ints else [[] for _ in range(self.ncols)]
        return Mat.from_ints(self.field, rows, self._den, self.ncols, self.nrows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._den == other._den
            and self._ints == other._ints
        )

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        self._check_same_shape(other)
        p = self.field.p
        (a, b), den = _common([self.int_form(), other.int_form()])
        if p:
            rows = [[(x + sign * y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        else:
            rows = [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        return Mat.from_ints(self.field, rows, den, self.nrows, self.ncols)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        f = self.field
        c = f.conv(c)
        if f.p:
            rows = [[c * x % f.p for x in row] for row in self._ints]
            return Mat.from_ints(f, rows, 1, self.nrows, self.ncols)
        num = c.numerator
        rows = [[num * x for x in row] for row in self._ints]
        return Mat.from_ints(f, rows, self._den * c.denominator, self.nrows, self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise QuivrepError(
                "shape mismatch in product: %s * %s" % (self.shape, other.shape)
            )
        if self.field is not other.field and self.field != other.field:
            raise QuivrepError("field mismatch in product: %r * %r" % (self.field, other.field))
        if self._is_identity:
            return other
        if other._is_identity:
            return self
        f = self.field
        if not (self.nrows and self.ncols and other.ncols):
            return Mat.zeros(f, self.nrows, other.ncols)
        prod = _mul_ints(self._ints, other._ints, other.ncols, f.p)
        den = self._den * other._den
        if self.nrows == other.ncols and _is_scaled_identity(prod, den):
            return Mat.identity(f, self.nrows)
        return Mat.from_ints(f, prod, den, self.nrows, other.ncols)

    def _check_same_shape(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise QuivrepError("shape/field mismatch: %s vs %s" % (self.shape, other.shape))

    def rref(self):
        """Reduced row echelon form.

        Returns (rank, pivot columns, reduced matrix), which is unique; see
        `_rref_ints` for the pivot rule.
        """
        r, pivots, m, den = _rref_ints(self._ints, self.nrows, self.ncols, self.field.p)
        return r, pivots, Mat.from_ints(self.field, m, den, self.nrows, self.ncols)

    def rank(self):
        """The number of pivots of the forward elimination of `rref` (see
        `_forward`); there is no back-substitution.  A flagged identity has
        full rank."""
        if self._is_identity:
            return self.nrows
        return len(_forward(self._ints, self.ncols, self.field.p)[1])

    def null_space(self):
        """Matrix whose columns form the canonical basis of {x : A x = 0}."""
        f = self.field
        rank, pivots, red = self.rref()
        m, den = red.int_form()
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        basis = [[0] * len(free) for _ in range(self.ncols)]
        for k, c in enumerate(free):
            basis[c][k] = den
            for r, pc in enumerate(pivots):
                basis[pc][k] = f.neg(m[r][c])
        return Mat.from_ints(f, basis, den, self.ncols, len(free))

    def solve_right(self, b):
        """Deterministic solution X of A X = B, or None if inconsistent.

        Free variables are set to zero, so the answer is canonical.
        """
        if b.nrows != self.nrows:
            raise QuivrepError("solve: row mismatch")
        n = self.ncols
        rank, pivots, red = self.hstack(b).rref()
        if rank and pivots[-1] >= n:
            return None
        m, den = red.int_form()
        x = [[0] * b.ncols for _ in range(n)]
        for r, pc in enumerate(pivots):
            x[pc] = m[r][n:]
        # rows below rank are zero by construction; consistency already checked
        return Mat.from_ints(self.field, x, den, n, b.ncols)

    def inverse(self):
        """Inverse matrix, or None when singular.  The inverse of an identity
        is the flagged identity, with no elimination."""
        if self.nrows != self.ncols:
            return None
        ident = Mat.identity(self.field, self.nrows)
        if _is_scaled_identity(self._ints, self._den):
            x = ident
        else:
            x = self.solve_right(ident)
            if x is None:
                return None
        if self * x != ident:
            return None
        return x

    def column_space(self):
        """Canonical (echelonized) basis of the column space, as columns."""
        rank, _, red = self.transpose().rref()
        m, den = red.int_form()
        return Mat.from_ints(self.field, m[:rank], den, rank, self.nrows).transpose()

    def hstack(self, other):
        if self.nrows != other.nrows or self.field != other.field:
            raise QuivrepError("hstack mismatch")
        (a, b), den = _common([self.int_form(), other.int_form()])
        rows = [x + y for x, y in zip(a, b)]
        return Mat.from_ints(self.field, rows, den, self.nrows, self.ncols + other.ncols)

    def vstack(self, other):
        if self.ncols != other.ncols or self.field != other.field:
            raise QuivrepError("vstack mismatch")
        (a, b), den = _common([self.int_form(), other.int_form()])
        return Mat.from_ints(self.field, a + b, den, self.nrows + other.nrows, self.ncols)

    @staticmethod
    def stack_flat(field, groups, ncols):
        """The matrix whose row i holds the entries of the matrices in
        groups[i], each read row by row, one after the other: ncols a row."""
        scaled, den = _common([m.int_form() for group in groups for m in group])
        scaled = iter(scaled)
        rows = []
        for group in groups:
            row = []
            for _ in group:
                for r in next(scaled):
                    row.extend(r)
            rows.append(row)
        return Mat.from_ints(field, rows, den, len(rows), ncols)

    def unstack_flat(self, shapes):
        """The inverse of `stack_flat`: for each row, the matrices with the
        given (nrows, ncols) shapes whose entries, read row by row, fill the
        row one after the other."""
        ints, den = self.int_form()
        out = []
        for row in ints:
            mats = []
            pos = 0
            for h, w in shapes:
                rows = [row[pos + i * w : pos + (i + 1) * w] for i in range(h)]
                mats.append(Mat.from_ints(self.field, rows, den, h, w))
                pos += h * w
            out.append(mats)
        return out

    def fmt(self):
        f = self.field
        return [[f.fmt(x) for x in row] for row in self.rows]

    def __repr__(self):
        return "Mat(%s, %dx%d)" % (self.field, self.nrows, self.ncols)


# Shared values for small integers: most entries of the paper's matrices are
# 0 or small integers, and a Fraction is immutable.
_SMALL = {i: Fraction(i) for i in range(-64, 65)}


def _fraction(num, den):
    """Fraction(num, den), shared when it is a small integer."""
    if den == 1 or not num:
        x = _SMALL.get(num)
        return x if x is not None else Fraction(num)
    return Fraction(num, den)


def _canonical(rows):
    """The canonical integer form (integer rows, den) of rows of rationals."""
    den = lcm(*{x.denominator for row in rows for x in row})
    if den == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _common(forms):
    """The integer rows of each (rows, den) form brought to one denominator,
    the lcm of theirs, and that denominator."""
    if not forms:
        return [], 1
    ints, dens = zip(*forms)
    den = lcm(*dens)
    if den == 1:
        return ints, 1
    scaled = []
    for rows, d in forms:
        s = den // d
        scaled.append(rows if s == 1 else [[x * s for x in row] for row in rows])
    return scaled, den


def _mul_ints(a, b, ncols, p=0):
    """Rows of the integer product A B, B with ncols columns, each entry
    reduced mod p when p is given: row i is the sum of x * (row k of B)
    over the nonzero entries x = A[i][k]."""
    out = []
    for row in a:
        acc = [0] * ncols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append([v % p for v in acc] if p else acc)
    return out


def _is_scaled_identity(rows, den):
    """Whether the square integer rows over den are the identity: row i is
    den at i and zero elsewhere.  The scan stops at the first row that is
    not."""
    for i, row in enumerate(rows):
        if row[i] != den or row.count(0) != len(row) - 1:
            return False
    return True


def _clear(piv, c, rows, p):
    """The rows with column c cleared by the pivot row `piv`, over GF(p) when
    p (with piv[c] = 1), else over Q (each new row primitive), as new rows:
    a row is copied when it is cleared and never written.  Only the nonzero
    positions of `piv` are updated, and rows that become zero are dropped."""
    support = None
    a = piv[c]
    out = []
    for row in rows:
        f = row[c]
        if f:
            if support is None:
                support = [(j, b) for j, b in enumerate(piv) if b]
            if p:
                row = row[:]
                for j, b in support:
                    row[j] = (row[j] - f * b) % p
            else:
                g = gcd(a, f)
                s, t = a // g, f // g
                row = [s * x for x in row] if s != 1 else row[:]
                for j, b in support:
                    row[j] -= t * b
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
            if not any(row):
                continue
        out.append(row)
    return out


def _forward(ints, ncols, p):
    """(pivot rows, pivot columns) of the forward elimination of the integer
    rows `ints`, over GF(p) when p (each pivot scaled to 1), else over Q
    (every row primitive).  The pivot of each column is the remaining row
    nonzero there with the fewest nonzeros; rows that become zero are
    dropped, so the rank is the number of pivots.  When the pivot row is the
    only row nonzero in its column there is nothing to clear.  The input
    rows are not written: `_clear` copies a row before changing it."""
    rows = [row for row in ints if any(row)]
    done, pivots = [], []
    for c in range(ncols):
        if not rows:
            break
        k, most, hits = -1, -1, 0
        for i, row in enumerate(rows):
            if row[c]:
                hits += 1
                zeros = row.count(0)
                if zeros > most:
                    k, most = i, zeros
        if not hits:
            continue
        piv = rows.pop(k)
        if p:
            if piv[c] != 1:
                inv = pow(piv[c], p - 2, p)
                piv = [inv * x % p for x in piv]
        else:
            g = gcd(*piv)
            if g > 1:
                piv = [x // g for x in piv]
        if hits > 1:
            rows = _clear(piv, c, rows, p)
        done.append(piv)
        pivots.append(c)
    return done, pivots


def _rref_ints(ints, nrows, ncols, p):
    """(rank, pivots, integer rows, den) of the RREF of the integer rows
    `ints`, over GF(p) when p (den 1), else over Q (any common denominator:
    row scaling leaves the RREF as it is): `_forward`, then
    back-substitution from the last pivot to the first.  The input rows are
    not written."""
    done, pivots = _forward(ints, ncols, p)
    r = len(done)
    for k in range(r - 1, 0, -1):
        done[:k] = _clear(done[k], pivots[k], done[:k], p)
    den = 1
    if not p:
        # Every row is primitive, so row i over its pivot has lowest terms
        # over |pivot|, and the lcm of the pivots is the canonical den; a
        # negative pivot flips its row's sign, also when den is 1.
        den = lcm(*(row[c] for row, c in zip(done, pivots)))
        for i, c in enumerate(pivots):
            s = den // done[i][c]
            if s != 1:
                done[i] = [x * s for x in done[i]]
    return r, pivots, done + [[0] * ncols for _ in range(r, nrows)], den


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
    non-pivot coordinates of the echelonized span, so it is canonical, and
    the same for any columns that span S.  For S = 0 both are the flagged
    identity.
    """
    f = span.field
    d = span.nrows
    if span.is_zero():
        ident = Mat.identity(f, d)
        return ident, ident
    rank, pivots, red = span.transpose().rref()
    m, den = red.int_form()
    pivset = set(pivots)
    nonpiv = [c for c in range(d) if c not in pivset]
    q = len(nonpiv)
    proj = [[0] * d for _ in range(q)]
    section = [[0] * q for _ in range(d)]
    for i, c in enumerate(nonpiv):
        proj[i][c] = den
        for r, pc in enumerate(pivots):
            proj[i][pc] = f.neg(m[r][c])
        section[c][i] = 1
    return Mat.from_ints(f, proj, den, q, d), Mat.from_ints(f, section, 1, d, q)


def place_blocks(field, nrows, ncols, placed):
    """The nrows x ncols matrix holding each block of `placed`, a list of
    (row, col, block), with the block's top left entry at (row, col), and
    zeros elsewhere.  The blocks must not overlap."""
    scaled, den = _common([b.int_form() for _, _, b in placed])
    rows = [[0] * ncols for _ in range(nrows)]
    for (r, c, b), ints in zip(placed, scaled):
        if r < 0 or c < 0 or r + b.nrows > nrows or c + b.ncols > ncols:
            raise QuivrepError("block %s at (%d, %d) outside %s" % (b.shape, r, c, (nrows, ncols)))
        for i, row in enumerate(ints):
            rows[r + i][c : c + b.ncols] = row
    return Mat.from_ints(field, rows, den, nrows, ncols)


def block_diagonal(field, blocks):
    """The block-diagonal matrix with the given blocks down its diagonal."""
    placed = []
    r = c = 0
    for b in blocks:
        placed.append((r, c, b))
        r += b.nrows
        c += b.ncols
    return place_blocks(field, r, c, placed)


def sylvester_system(field, shapes, equations):
    """The nonzero rows of the matrix of the linear map that sends matrices
    X_0, X_1, ... of the given (nrows, ncols) shapes to the matrices
    T X_i - X_j S, one for each equation (i, j, T, S): a system whose null
    space is the set of solutions.  The X_k and the images are each
    flattened row by row and stacked in order, so the equation's rows hold
    T (x) I against X_i and -(I (x) S^T) against X_j."""
    p = field.p
    offsets = [0]
    for h, w in shapes:
        offsets.append(offsets[-1] + h * w)
    nvars = offsets[-1]
    forms = [(t.int_form(), s.int_form()) for _, _, t, s in equations]
    den = lcm(*(d for pair in forms for _, d in pair))
    rows = []
    for (i, j, t, s), ((tints, dt), (sints, ds)) in zip(equations, forms):
        if shapes[i] != (t.ncols, s.ncols) or shapes[j] != (t.nrows, s.nrows):
            raise QuivrepError("Sylvester equation does not fit its unknowns")
        st, ss = den // dt, den // ds
        base_i, wi = offsets[i], s.ncols
        base_j, wj = offsets[j], s.nrows
        for r, trow in enumerate(tints):
            for c in range(wi):
                row = [0] * nvars
                # (T X_i)[r, c] = sum_k T[r, k] X_i[k, c]
                for k, x in enumerate(trow):
                    if x:
                        row[base_i + k * wi + c] = x * st
                # -(X_j S)[r, c] = -sum_k X_j[r, k] S[k, c]
                for k in range(wj):
                    x = sints[k][c]
                    if x:
                        idx = base_j + r * wj + k
                        v = row[idx] - x * ss
                        row[idx] = v % p if p else v
                if any(row):
                    rows.append(row)
    return Mat.from_ints(field, rows, den, len(rows), nvars)


class SNFResult:
    """Smith normal form data: diagonal d, unimodular transforms L, R."""

    __slots__ = ("d", "transform_left", "transform_right")

    def __init__(self, d, transform_left, transform_right):
        self.d = d
        self.transform_left = transform_left
        self.transform_right = transform_right


def _is_unimodular(rows):
    """Whether the square integer matrix L has determinant +-1, read off the
    RREF of [L | I] over Q as `smith_normal_form` states."""
    n = len(rows)
    ext = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    _, pivots, _, den = _rref_ints(ext, n, 2 * n, 0)
    return (not pivots or pivots[-1] < n) and den == 1


def smith_normal_form(rows):
    """Smith normal form of an integer matrix given as a list of rows.

    Returns an SNFResult with nonnegative invariant factors sorted by
    divisibility and transforms of determinant +-1 satisfying
    L * A * R = diag(d).  Both transforms are checked: [L | I] has rank n,
    so its RREF over Q has n pivots, all in L's columns exactly when L is
    invertible, and is then [I | L^-1]; its denominator is 1 exactly when
    L^-1 is integral, that is when det L and det L^-1 are integers with
    product 1, det L = +-1.
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
    if not (_is_unimodular(left) and _is_unimodular(right)):
        raise QuivrepError("Smith normal form transforms are not unimodular")
    return SNFResult(d, left, right)


def int_mat_mul(a, b):
    """The product of integer matrices given as lists of rows."""
    return _mul_ints(a, b, len(b[0]) if b else 0)
