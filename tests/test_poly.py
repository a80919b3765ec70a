"""`quivrep.poly` against sympy's factorization, over Q and GF(p).

sympy's `Poly.factor_list` is the oracle: the same factors, normal form
and order (`sympy.factor_list` returns the same factors, sorted by
multiplicity first).  Inputs are products of random small factors with
multiplicities, so repeated, linear and higher-degree factors all occur.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quivrep import decomp, poly
from quivrep.linalg import GF, QQ

X = sympy.Symbol("x")
PRIMES = [2, 3, 32003]


def _product(factors):
    out = [Fraction(1)]
    for f, mult in factors:
        for _ in range(mult):
            nxt = [Fraction(0)] * (len(out) + len(f) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(f):
                    nxt[i + j] += a * b
            out = nxt
    return out


def _sympy_rational(coeffs):
    desc = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    _, factors = sympy.Poly(desc, X, domain="QQ").factor_list()
    return [([int(c) for c in reversed(f.all_coeffs())], m) for f, m in factors]


def _sympy_mod(coeffs, p):
    desc = [int(c) % p for c in reversed(coeffs)]
    _, factors = sympy.Poly(desc, X, modulus=p, symmetric=False).factor_list()
    return [([int(c) % p for c in reversed(f.all_coeffs())], m) for f, m in factors]


def _check(coeffs, p):
    if p:
        assert poly.factor_mod(coeffs, p) == _sympy_mod(coeffs, p)
    else:
        assert poly.factor_rational(coeffs) == _sympy_rational(coeffs)


def _trimmed(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
small_factor = st.lists(rationals, min_size=2, max_size=5).map(_trimmed).filter(lambda f: len(f) > 1)
factor_lists = st.lists(st.tuples(small_factor, st.integers(1, 4)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(factor_lists, rationals.filter(bool))
def test_rational_factorization_matches_sympy(factors, unit):
    _check([unit * c for c in _product(factors)], 0)


int_factor = st.lists(st.integers(-6, 6), min_size=2, max_size=4).map(_trimmed)
int_factor_lists = st.lists(st.tuples(int_factor.filter(lambda f: len(f) > 1), st.integers(1, 4)),
                            max_size=4)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=80, deadline=None)
@given(factors=int_factor_lists, unit=st.integers(1, 10**6), frobenius=st.booleans())
def test_modular_factorization_matches_sympy(p, factors, unit, frobenius):
    coeffs = [int(c) * unit % p for c in _product(factors)]
    if frobenius and p < 5:
        # f(x^p), whose derivative vanishes mod p
        spread = [0] * (p * (len(coeffs) - 1) + 1)
        spread[::p] = coeffs
        coeffs = spread
    _check(coeffs, p)


CASES = [
    [],
    [0],
    [5],
    [Fraction(-3, 7)],
    [0, 1],
    [0, 0, 0, 2],
    [Fraction(1, 4), -1, 1],  # (x - 1/2)^2
    [-1, -1, 1, 1],  # (x - 1)(x + 1)^2
    [1, -1, -1, 1],  # (x - 1)^2 (x + 1)
    [-1, 0, 1],
    [6, -5, 1],
    [-2, 0, 3],
    [1, 0, 0, 0, 1],  # x^4 + 1: irreducible over Q, split mod every p
    [1, 0, -10, 0, 1],  # x^4 - 10 x^2 + 1: irreducible over Q, split mod every p
    [-1, 0, 0, 0, 0, 0, 0, 0, 0, 1],  # x^9 - 1
    [0, -1, 0, 0, 0, 0, 0, 0, 0, 1],  # x^9 - x
    [1, 0, 1, 0, 1],  # x^4 + x^2 + 1 = (x^2 + x + 1)(x^2 - x + 1)
    [1, 0, 0, 1, 0, 0, 1],  # x^6 + x^3 + 1
    [1, 1, 1, 1, 1, 1, 1],  # (x^3 + x + 1)(x^3 + x^2 + 1) mod 2: the GF(2) trace splits it
    [3, 0, 0, 0, 0, 0, 2],
    # linear factors with large end coefficients
    [-3 * 10**7, 3 - 10**7, 1],  # (x - 10^7)(x + 3)
    [-1, 10**7, -1, 10**7],  # (10^7 x - 1)(x^2 + 1)
]


@pytest.mark.parametrize("p", [0] + PRIMES + [5, 7])
@pytest.mark.parametrize("coeffs", CASES, ids=range(len(CASES)))
def test_named_polynomials_match_sympy(coeffs, p):
    if p and any(Fraction(c).denominator % p == 0 for c in coeffs):
        pytest.skip("coefficient not defined mod p")
    if p:
        coeffs = [Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) for c in coeffs]
    _check(coeffs, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vanishing_derivatives_match_sympy(p):
    # x^p - x splits into all linear factors; (x^p + 1)^p and x^(p^2) - 1 have
    # derivative 0; (x + 1)^(p + 1) mixes a p-th power with a simple factor
    cases = [
        [0, -1] + [0] * (p - 2) + [1],
        _product([([1] + [0] * (p - 1) + [1], p)]),
        [-1] + [0] * (p * p - 1) + [1],
        _product([([1, 1], p + 1), ([2, 0, 1], p)]),
    ]
    for coeffs in cases:
        _check([int(c) % p for c in coeffs], p)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(32003)], ids=str)
def test_factor_polynomial_returns_field_elements(field):
    one = field.one()
    coeffs = [field.neg(one), field.zero(), one]  # x^2 - 1
    factors = decomp.factor_polynomial(coeffs, field)
    assert [m for _, m in factors] == ([2] if field.p == 2 else [1, 1])
    for f, _ in factors:
        assert all(type(c) is type(one) for c in f)
        assert f[-1] == one


# GF(2) polynomials as bit masks, bit i the coefficient of x^i: an
# arithmetic of its own, independent of `poly`.


def _gf2_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def _gf2_mod(a, g):
    while a.bit_length() >= g.bit_length():
        a ^= g << (a.bit_length() - g.bit_length())
    return a


def _gf2_irreducibles(d):
    """The irreducible polynomials of degree d: none of degree 1 to d // 2
    divides them."""
    divisors = range(2, 1 << (d // 2 + 1))
    return [g for g in range(1 << d, 1 << (d + 1)) if all(_gf2_mod(g, h) for h in divisors)]


GF2_IRREDUCIBLES = {d: _gf2_irreducibles(d) for d in range(1, 6)}


def _mask(coeffs):
    return sum(c << i for i, c in enumerate(coeffs))


def _coeffs(mask):
    return [(mask >> i) & 1 for i in range(mask.bit_length())]


def test_gf2_irreducibles_are_counted_by_necklaces():
    # (1/d) sum over e | d of mu(d / e) 2^e
    assert [len(GF2_IRREDUCIBLES[d]) for d in range(1, 6)] == [2, 1, 2, 3, 6]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gf2_trace_is_0_or_1_modulo_each_equal_degree_factor(data):
    """For f a product of distinct irreducibles of degree d over GF(2), the
    Cantor-Zassenhaus trace of a is, modulo each factor g, the trace of a
    into GF(2): the sum of its d conjugates a^(2^i) mod g, which is 0 or 1."""
    d = data.draw(st.integers(1, 5))
    gs = data.draw(st.lists(st.sampled_from(GF2_IRREDUCIBLES[d]), unique=True,
                            min_size=2 if d == 1 else 1, max_size=3))
    f = 1
    for g in gs:
        f = _gf2_mul(f, g)
    a = data.draw(st.integers(2, (1 << (f.bit_length() - 1)) - 1))
    b = _mask(poly._gf2_trace(_coeffs(a), d, _coeffs(f)))
    for g in gs:
        conjugates = [a]
        for _ in range(d - 1):
            conjugates.append(_gf2_mod(_gf2_mul(conjugates[-1], conjugates[-1]), g))
        trace = 0
        for c in conjugates:
            trace ^= _gf2_mod(c, g)
        assert trace in (0, 1)
        assert _gf2_mod(b, g) == trace
