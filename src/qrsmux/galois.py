"""Exact arithmetic over binary extension fields GF(2^m), on plain integers.

An element is an int whose bits are polynomial coefficients over GF(2); bit 0
is the least-significant coefficient.  That bit-order convention (LSB = bit 0)
is used everywhere in the package: registers and matrices.  Addition is XOR;
multiplication and inversion read exp/log tables of alpha = x, built once per
field.  ``gf2_mulmod``, the carry-less multiply-and-reduce the tables are
built from, reads no table; checkers use it to stay independent of them.

Default primitive polynomials, one per extension degree; ``binary_extension``
falls back to them when given no polynomial (only the CLI reads one from
``--poly`` or a ``gf2m.poly.<m>`` config key):
    m=1 : x + 1                     -> 0b11        = 3
    m=2 : x^2 + x + 1               -> 0b111       = 7
    m=3 : x^3 + x + 1               -> 0b1011      = 11
    m=4 : x^4 + x + 1               -> 0b10011     = 19
    m=5 : x^5 + x^2 + 1             -> 0b100101    = 37
    m=6 : x^6 + x + 1               -> 0b1000011   = 67
    m=7 : x^7 + x^3 + 1             -> 0b10001001  = 137
    m=8 : x^8 + x^4 + x^3 + x^2 + 1 -> 0b100011101 = 285
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

DEFAULT_PRIMITIVE_POLYS: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}

# The largest extension degree: checking a polynomial takes about 2^m steps and
# a code of length 2^m - 1 grows with it, so m = 11 already runs for minutes.
# The same 2^10 ceiling as sumsynth.K_MAX.
M_MAX = 10

# The first 13 primes.  As Miller-Rabin witnesses they decide every n below
# WITNESS_BOUND (Sorenson and Webster, 2015); is_prime is fast below it.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact for every integer n: trial division by the witnesses decides n < 43^2,
    Miller-Rabin with them n < 3,317,044,064,679,887,385,961,981, and trial
    division up to the square root every larger n."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= WITNESS_BOUND:
        return all(n % f for f in range(43, isqrt(n) + 1, 2))
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:  # n passes base a if a^d = 1 or a^(d 2^j) = -1 for some j < s
        x = pow(a, d, n)
        if x != 1 and n - 1 not in [pow(x, 1 << j, n) for j in range(s)]:
            return False
    return True


# ----------------------------------------------------------------------
# GF(2)[x] helpers (integers as coefficient bitmasks)
# ----------------------------------------------------------------------

def _gf2_degree(p: int) -> int:
    return p.bit_length() - 1


def _gf2_mod(a: int, p: int) -> int:
    """Remainder of a divided by p, coefficients over GF(2)."""
    dp = _gf2_degree(p)
    while a and (shift := a.bit_length() - 1 - dp) >= 0:
        a ^= p << shift
    return a


def gf2_mulmod(a: int, b: int, p: int) -> int:
    """Carry-less product of a and b reduced by p; reads no exp/log table."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return _gf2_mod(r, p)


def _gf2_irreducible(p: int) -> bool:
    deg = _gf2_degree(p)
    if deg < 1:
        return False
    return all(_gf2_mod(p, f) for f in range(2, 1 << (deg // 2 + 1)))  # each f has degree 1 .. deg // 2


# ----------------------------------------------------------------------
# Field specification and arithmetic
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Binary extension field GF(2^m) with a primitive polynomial."""

    m: int
    poly: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"extension degree m={self.m} must be >= 1")
        if self.m > M_MAX:
            raise ValueError(f"extension degree m={self.m} is above the limit m_max={M_MAX}")
        if self.poly < 0:  # _gf2_mod would never terminate
            raise ValueError(f"polynomial {self.poly} must be a non-negative bitmask")
        if _gf2_degree(self.poly) != self.m:
            raise ValueError(
                f"polynomial 0b{self.poly:b} has degree {_gf2_degree(self.poly)}, expected {self.m}"
            )
        if not _gf2_irreducible(self.poly):
            raise ValueError(f"polynomial 0b{self.poly:b} is reducible over GF(2)")
        exp, log = self._exp_log
        # x is primitive when its powers reach every nonzero element and
        # x^(2^m - 1) = 1; the second fails only at m = 1 under x, where x = 0.
        if -1 in log[1:] or gf2_mulmod(exp[-1], _gf2_mod(0b10, self.poly), self.poly) != 1:
            raise ValueError(f"polynomial 0b{self.poly:b} is irreducible but not primitive")

    @classmethod
    def binary_extension(cls, m: int, poly: int | None = None) -> "FieldSpec":
        """GF(2^m) under poly, or under m's default primitive polynomial."""
        if poly is None:
            if 1 <= m <= M_MAX and m not in DEFAULT_PRIMITIVE_POLYS:
                raise ValueError(f"no default primitive polynomial for m={m}; supply one")
            poly = DEFAULT_PRIMITIVE_POLYS.get(m, 0)  # an m outside 1..M_MAX is refused first
        return cls(m, poly)

    @property
    def order(self) -> int:
        return 1 << self.m

    @cached_property
    def _exp_log(self) -> tuple[list[int], list[int]]:
        """exp/log tables (alpha = x), walking its first 2^m - 1 powers; log[0]
        is unused, and log[e] stays -1 for an element e the walk never reaches."""
        n = self.order - 1
        exp = [0] * n
        log = [-1] * self.order
        val = _gf2_mod(0b10, self.poly)  # x itself unless m = 1
        acc = 1
        for i in range(n):
            exp[i] = acc
            log[acc] = i
            acc = gf2_mulmod(acc, val, self.poly)
        return exp, log

    def alpha_power(self, i: int) -> int:
        """alpha^i; the exponent wraps mod 2^m - 1."""
        exp, _ = self._exp_log
        return exp[i % (self.order - 1)]

    def exponent_of(self, value: int) -> int:
        """Discrete log base alpha of a nonzero element."""
        if not 0 < value < self.order:
            raise ValueError(f"{value} has no exponential representation in GF({self.order})")
        _, log = self._exp_log
        return log[value]


def mul_int(f: FieldSpec, a: int, b: int) -> int:
    """Field product of a and b."""
    if a == 0 or b == 0:
        return 0
    exp, log = f._exp_log
    return exp[(log[a] + log[b]) % (f.order - 1)]


def mul_by_alpha_matrix(f: FieldSpec, n: int) -> list[int]:
    """Columns of the m x m GF(2) matrix M with vec(alpha^n * a) = M @ vec(a).

    Column p is alpha^(n+p) as a bitmask; its bit j is row j (the coefficient
    of x^j), following the package bit convention.
    """
    if not 0 <= n < f.order - 1:
        raise ValueError(f"exponent {n} out of range [0, {f.order - 1})")
    return [f.alpha_power(n + p) for p in range(f.m)]
