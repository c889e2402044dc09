import numpy as np
import pytest

from qrsmux import galois
from qrsmux.analysis import primes_in
from qrsmux.galois import FieldSpec, is_prime, mul_by_alpha_matrix


def gf(m):
    return FieldSpec.binary_extension(m)


def shift_and_xor_product(a, b, poly):
    """a * b in GF(2)[x]/(poly), computed without the field's exp/log tables."""
    top = 1 << (poly.bit_length() - 1)
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return product


# ---------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------

def test_extension_field_rejects_bad_polynomials():
    for m, poly, message in [
        (2, 0b101, "polynomial 0b101 is reducible over GF(2)"),  # x^2+1 = (x+1)^2
        # x^4+x^3+x^2+x+1 is irreducible but x has order 5, not 15
        (4, 0b11111, "polynomial 0b11111 is irreducible but not primitive"),
        (3, 0b111, "polynomial 0b111 has degree 2, expected 3"),
        (3, -11, "polynomial -11 must be a non-negative bitmask"),
    ]:
        with pytest.raises(ValueError) as info:
            FieldSpec.binary_extension(m, poly=poly)
        assert str(info.value) == message


def test_default_polynomials_all_valid():
    for m in range(1, 9):
        f = gf(m)
        assert f.order == 1 << m


def test_poly_override():
    # x^3 + x^2 + 1 is also primitive for m=3
    f = FieldSpec.binary_extension(3, poly=0b1101)
    assert f.poly == 0b1101
    # alpha^3 = alpha^2 + 1 under this modulus
    assert f.alpha_power(3) == 0b101


# ---------------------------------------------------------------
# Addition (XOR) and multiplication
# ---------------------------------------------------------------

def test_gf4_vector_representation():
    # {00, 01, 10, 11} = {0, 1, alpha, alpha^2} with x^2+x+1
    f = gf(2)
    alpha = f.alpha_power(1)
    assert alpha == 0b10
    assert f.alpha_power(2) == 0b11
    assert alpha ^ 1 == 0b11                                   # alpha + 1 = alpha^2
    assert galois.mul_int(f, alpha, alpha) == 0b11             # alpha^2 = alpha + 1


def test_gf4_alpha_cubed_is_one():
    # exhaustive power table from the primitive polynomial
    f = gf(2)
    powers = [f.alpha_power(i) for i in range(3)]
    assert sorted(powers) == [1, 2, 3]
    assert galois.mul_int(f, f.alpha_power(1), f.alpha_power(2)) == 1


def test_mul_int_matches_shift_and_xor_product():
    """The exp/log table product equals a carry-less multiply for every pair, m <= 8."""
    for m in range(1, 9):
        f = gf(m)
        for a in range(f.order):
            for b in range(f.order):
                assert galois.mul_int(f, a, b) == shift_and_xor_product(a, b, f.poly), (m, a, b)


def test_exponential_representation_round_trips():
    for m in range(1, 9):
        f = gf(m)
        for v in range(1, f.order):
            e = f.exponent_of(v)
            assert f.alpha_power(e) == v


@pytest.mark.parametrize("value", [0, -1, 8])  # -1 must not index log from the end
def test_exponent_of_rejects_values_outside_the_multiplicative_group(value):
    with pytest.raises(ValueError, match=r"no exponential representation in GF\(8\)"):
        gf(3).exponent_of(value)


# ---------------------------------------------------------------
# Field axioms
# ---------------------------------------------------------------

def _mul_table(f):
    n = f.order
    table = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            table[a, b] = galois.mul_int(f, a, b)
    return table


def _add_table(f):
    idx = np.arange(f.order)
    return idx[:, None] ^ idx[None, :]


@pytest.mark.parametrize("fieldspec", [gf(7), gf(8), gf(3), gf(4)])
def test_field_axioms_exhaustive(fieldspec):
    """Commutativity, identities, inverses, associativity, distributivity
    over every element triple (vectorized; order <= 256)."""
    M = _mul_table(fieldspec)
    A = _add_table(fieldspec)
    n = fieldspec.order
    assert np.array_equal(M, M.T) and np.array_equal(A, A.T)
    assert np.array_equal(M[1], np.arange(n))
    assert np.array_equal(A[0], np.arange(n))
    assert np.all(M[0] == 0)
    # every nonzero element has a multiplicative inverse
    assert all((M[a] == 1).any() for a in range(1, n))
    # associativity over all n^3 triples: T[a,b,c] = op(op(a,b),c) vs op(a,op(b,c))
    assert np.array_equal(M[M], M[:, M])
    assert np.array_equal(A[A], A[:, A])
    # distributivity over all triples: a*(b+c) == a*b + a*c
    assert np.array_equal(M[:, A], A[M[:, :, None], M[:, None, :]])


# ---------------------------------------------------------------
# Multiplication matrices
# ---------------------------------------------------------------

def test_alpha_matrix_identity():
    assert mul_by_alpha_matrix(gf(2), 0) == [0b01, 0b10]


def test_alpha_matrix_gf4_n1_columns():
    # column p is the bit vector of alpha^(1+p): vec(alpha)=10, vec(alpha^2)=11
    assert mul_by_alpha_matrix(gf(2), 1) == [0b10, 0b11]


def test_alpha_matrix_gf8_n1_columns():
    f = gf(3)
    columns = mul_by_alpha_matrix(f, 1)
    assert columns == [f.alpha_power(1 + p) for p in range(3)]


def test_alpha_matrix_matches_mul_exhaustively():
    """vec(alpha^n * a) == M @ vec(a) for every field m <= 8, every n, every a."""
    for m in range(1, 9):
        f = gf(m)
        for n in range(f.order - 1):
            columns = mul_by_alpha_matrix(f, n)
            for a in range(f.order):
                got = 0
                for p, col in enumerate(columns):  # M @ vec(a): XOR of the columns a selects
                    if a >> p & 1:
                        got ^= col
                assert got == shift_and_xor_product(f.alpha_power(n), a, f.poly), (m, n, a)


def test_alpha_matrix_rejects_exponent_out_of_range():
    with pytest.raises(ValueError):
        mul_by_alpha_matrix(gf(2), 3)


# ---------------------------------------------------------------
# Primality
# ---------------------------------------------------------------

def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_agrees_with_the_sieve():
    primes = set(primes_in(0, 200_000))
    assert [n for n in range(-2, 200_000) if is_prime(n)] == sorted(primes)


@pytest.mark.parametrize("n", [
    2047, 3215031751, 3825123056546413051,
    318665857834031151167461,  # a strong pseudoprime to each of the first 12 prime bases
    561, 41041,                # Carmichael numbers
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [99999989, 9999999999999937, 2**61 - 1])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)
