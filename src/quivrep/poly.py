"""Exact factorization of univariate polynomials over Q and GF(p).

A polynomial is a list of coefficients, lowest degree first, with no
trailing zeros; [] is zero.  `factor_rational` and `factor_mod` return the
irreducible factors with their multiplicities in one normal form and order:

- over Q, primitive integer polynomials with a positive leading coefficient
  (the content is dropped: (x - 1/2)^2 gives [([-1, 2], 2)]);
- over GF(p), monic polynomials with residues in [0, p);
- sorted by (degree, multiplicity, coefficients from the leading one down);
- a constant has no factors.

The factorization into irreducibles is unique, so this is the output of
sympy's `Poly.factor_list` whatever algorithm computes it.  The methods are
the standard ones (von zur Gathen & Gerhard, *Modern Computer Algebra*,
chapters 14-16; Cantor & Zassenhaus, Math. Comp. 36, 1981):

- square-free decomposition by gcds with the derivative (Musser's form of
  Yun's algorithm), one routine for both fields; over GF(p) it takes a p-th
  root of what is left when p divides multiplicities;
- over GF(p): distinct-degree factorization, then Cantor-Zassenhaus
  equal-degree splitting with a seeded rng (traces for p = 2);
- over Q: Zassenhaus: factor modulo a prime that keeps the polynomial
  square-free, Hensel-lift the factors past the Mignotte bound, and
  recombine them by trial division.

Arithmetic helpers take a modulus m: the integers mod m, or the rationals
(Fraction coefficients) when m is 0.  Division needs a unit leading
coefficient.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm


def factor_rational(coeffs):
    """[(factor, multiplicity)] of a polynomial with rational coefficients."""
    f = _trim([Fraction(c) for c in coeffs])
    if len(f) < 2:
        return []
    out = []
    for part, mult in _squarefree(_monic(f, 0), 0):
        out.extend((g, mult) for g in _zassenhaus(_primitive(part)))
    return _sorted(out)


def factor_mod(coeffs, p):
    """[(monic factor, multiplicity)] of a polynomial over GF(p)."""
    f = _norm(coeffs, p)
    if len(f) < 2:
        return []
    rng = random.Random(0)
    out = []
    for part, mult in _squarefree(_monic(f, p), p):
        out.extend((g, mult) for g in _factor_squarefree_mod(part, p, rng))
    return _sorted(out)


def _sorted(factors):
    return sorted(factors, key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))


# ------------------------------------------------------------ arithmetic


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _norm(f, m):
    return _trim([c % m for c in f] if m else list(f))


def _inv(c, m):
    return pow(c, -1, m) if m else 1 / Fraction(c)


def _add(f, g, m):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _norm(out, m)


def _sub(f, g, m):
    return _add(f, [-c for c in g], m)


def _mul(f, g, m):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _norm(out, m)


def _divmod(f, g, m):
    """Quotient and remainder of f by g, whose leading coefficient is a unit."""
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv = _inv(g[-1], m)
    for i in reversed(range(len(q))):
        c = r[i + len(g) - 1] * inv
        c = c % m if m else c
        q[i] = c
        if c:
            for j, b in enumerate(g):
                r[i + j] -= c * b
    return _norm(q, m), _norm(r[: len(g) - 1], m)


def _monic(f, m):
    inv = _inv(f[-1], m)
    return _norm([c * inv for c in f], m)


def _gcd(f, g, m):
    """The monic gcd over a field (m prime or 0)."""
    while g:
        f, g = g, _divmod(f, g, m)[1]
    return _monic(f, m)


def _xgcd(f, g, p):
    """(s, t) with s f + t g = 1 over GF(p), for coprime f and g."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = _inv(r0[0], p)  # r0 is a nonzero constant
    return _norm([c * inv for c in s0], p), _norm([c * inv for c in t0], p)


def _deriv(f, m):
    return _norm([i * c for i, c in enumerate(f)][1:], m)


def _powmod(f, e, g, m):
    """f^e mod g."""
    out, f = [1], _divmod(f, g, m)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, f, m), g, m)[1]
        e >>= 1
        if e:
            f = _divmod(_mul(f, f, m), g, m)[1]
    return out


def _primitive(f):
    """The primitive integer multiple of f with a positive leading coefficient."""
    den = lcm(*(Fraction(c).denominator for c in f))
    ints = [int(c * den) for c in f]
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [c // content for c in ints]


def _exact_quo(f, g):
    """f / g when g divides f in Z[x], else None."""
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for i in reversed(range(len(q))):
        c, rem = divmod(r[i + len(g) - 1], g[-1])
        if rem:
            return None
        q[i] = c
        for j, b in enumerate(g):
            r[i + j] -= c * b
    return None if any(r) else q


# ------------------------------------------------------------ square-free parts


def _squarefree(f, m):
    """[(part, i)] with monic f = prod part^i over Q (m = 0) or GF(m), the
    parts monic, square-free and pairwise coprime.

    c = gcd(f, f') holds each factor at one less than its multiplicity, and
    the gcds of c with w = f / c peel off the factors of each multiplicity in
    turn.  Over Q nothing is left of c; over GF(p) a factor whose
    multiplicity p divides stays in c at full multiplicity, so what is left
    is a polynomial in x^p, and its p-th root (a^p = a on coefficients)
    repeats the decomposition with the multiplicities scaled by p.
    """
    out = []
    scale = 1
    while len(f) > 1:
        c = _gcd(f, _deriv(f, m), m)
        w = _divmod(f, c, m)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(w, c, m)
            if len(w) > len(y):
                out.append((_divmod(w, y, m)[0], i * scale))
            w, c = y, _divmod(c, y, m)[0]
            i += 1
        f = c[::m] if m else []
        scale *= m
    return out


# ------------------------------------------------------------ GF(p)


def _factor_squarefree_mod(f, p, rng):
    """The monic irreducible factors of square-free monic f over GF(p)."""
    out = []
    for part, d in _distinct_degree(f, p):
        out.extend(_equal_degree(part, d, p, rng))
    return out


def _distinct_degree(f, p):
    """[(part, d)]: part is the product of the degree-d factors of f."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus: the degree-d factors of f, a product of them."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _norm([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        if p == 2:
            b = _gf2_trace(a, d, f)
        else:
            b = _sub(_powmod(a, (p**d - 1) // 2, f, p), [1], p)
        g = _gcd(f, b, p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)


def _gf2_trace(a, d, f):
    """The trace a + a^2 + a^4 + ... + a^(2^(d-1)) mod f over GF(2), for a
    of degree below that of f.  Modulo an irreducible factor g of f of
    degree d it lies in GF(2^d), where it is the trace of a into GF(2), so
    it is 0 or 1 there."""
    b, t = a, a
    for _ in range(d - 1):
        t = _powmod(t, 2, f, 2)
        b = _add(b, t, 2)
    return b


# ------------------------------------------------------------ Q


def _zassenhaus(f):
    """The irreducible factors of square-free primitive f of degree >= 1."""
    n = len(f) - 1
    lc = f[-1]
    p = 3  # the first odd prime not dividing lc(f) that keeps f square-free
    while not lc % p or len(_gcd(_norm(f, p), _deriv(f, p), p)) > 1:
        p += 2
        while any(p % r == 0 for r in range(3, isqrt(p) + 1, 2)):
            p += 2
    modular = _factor_squarefree_mod(_monic(_norm(f, p), p), p, random.Random(0))
    if len(modular) == 1:
        return [f]
    # Mignotte: every factor g of f has |lc(f) / lc(g)| * ||g||_inf below this
    bound = (isqrt(n + 1) + 1) * 2**n * max(map(abs, f)) * lc
    k = 1
    while p**k <= 2 * bound:
        k += 1
    return _recombine(f, _hensel(f, modular, p, k), p**k)


def _hensel(f, factors, p, k):
    """Monic factors mod p^k of f from the monic, pairwise coprime factors
    mod p of f / lc(f), lifted along a balanced factor tree."""
    pk = p**k
    if len(factors) == 1:
        return [_monic(_norm(f, pk), pk)]
    half = len(factors) // 2
    g, h = [f[-1]], [1]
    for u in factors[:half]:
        g = _mul(g, u, p)
    for u in factors[half:]:
        h = _mul(h, u, p)
    s, t = _xgcd(g, h, p)
    m = p
    while m < pk:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel(_norm(g, pk), factors[:half], p, k) + _hensel(_norm(h, pk), factors[half:], p, k)


def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 mod m, h monic, the same mod m^2
    (Modern Computer Algebra, Algorithm 15.10)."""
    mm = m * m
    e = _sub(f, _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    s = _sub(s, d, mm)
    t = _sub(t, _add(_mul(t, b, mm), _mul(c, g, mm), mm), mm)
    return g, h, s, t


def _recombine(f, lifted, pk):
    """Zassenhaus recombination: the product of each subset of the lifted
    factors, times lc(f) and read in (-pk/2, pk/2], is a true factor iff its
    primitive part divides f.  Subsets are tried smallest first; whatever is
    left when no subset of half the remaining factors divides is irreducible."""
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], pk)
            g = _primitive([c - pk if 2 * c > pk else c for c in g])
            q = _exact_quo(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]
