"""Exact arithmetic over prime fields GF(d) and binary extension fields GF(2^m).

Prime-field elements are plain residues mod d.  Extension-field elements are
integers whose bits are polynomial coefficients over GF(2); bit 0 is the
least-significant coefficient.  That bit-order convention (LSB = bit 0) is
used everywhere in the package: registers, matrices and the Hamming helpers.

Default primitive polynomials, one per extension degree (overridable via a
config file with keys ``gf2m.poly.<m>``):
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

import numpy as np

from .errors import FieldMismatchError, UnsupportedFieldError

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

PRIME = "prime"
BINARY_EXTENSION = "binary-extension"


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (intended for n <= 10^4 scale)."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def hamming_weight(v: int, width: int) -> int:
    """Number of set bits of v over exactly `width` bits."""
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    if not 0 <= v < (1 << width):
        raise ValueError(f"value {v} out of range for width {width}")
    return bin(v).count("1")


def hamming_distance(a: int, b: int, width: int) -> int:
    """Number of differing bits between a and b over exactly `width` bits."""
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    for name, v in (("a", a), ("b", b)):
        if not 0 <= v < (1 << width):
            raise ValueError(f"{name}={v} out of range for width {width}")
    return bin(a ^ b).count("1")


# ----------------------------------------------------------------------
# GF(2)[x] helpers (integers as coefficient bitmasks)
# ----------------------------------------------------------------------

def _gf2_degree(p: int) -> int:
    return p.bit_length() - 1


def _gf2_mod(a: int, p: int) -> int:
    """Remainder of a divided by p, coefficients over GF(2)."""
    dp = _gf2_degree(p)
    while _gf2_degree(a) >= dp and a:
        a ^= p << (_gf2_degree(a) - dp)
    return a


def _gf2_mulmod(a: int, b: int, p: int) -> int:
    """Carry-less product of a and b reduced by p."""
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
    for f in range(2, 1 << (deg // 2 + 1)):
        if _gf2_degree(f) >= 1 and _gf2_mod(p, f) == 0 and _gf2_degree(f) < deg:
            return False
    return True


def _gf2_primitive(p: int) -> bool:
    """True when x generates the full multiplicative group of GF(2)[x]/(p)."""
    m = _gf2_degree(p)
    group = (1 << m) - 1
    val = _gf2_mod(0b10, p)  # alpha = x reduced (relevant for m=1)
    seen = 1
    acc = val
    while acc != 1:
        acc = _gf2_mulmod(acc, val, p)
        seen += 1
        if seen > group:
            return False
    return seen == group


def primitive_poly(m: int, overrides: dict[int, int] | None = None) -> int:
    """Primitive polynomial bitmask for GF(2^m), honoring config overrides."""
    if overrides and m in overrides:
        return overrides[m]
    try:
        return DEFAULT_PRIMITIVE_POLYS[m]
    except KeyError:
        raise ValueError(f"no default primitive polynomial for m={m}; supply one") from None


# ----------------------------------------------------------------------
# Field specification and elements
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(d) or binary extension field GF(2^m) with a primitive polynomial."""

    kind: str
    d: int | None = None
    m: int | None = None
    poly: int | None = None

    def __post_init__(self):
        if self.kind == PRIME:
            if self.d is None or not is_prime(self.d):
                raise ValueError(f"d={self.d} is not prime")
        elif self.kind == BINARY_EXTENSION:
            if self.m is None or self.m < 1:
                raise ValueError(f"extension degree m={self.m} must be >= 1")
            if self.poly is None:
                raise ValueError("extension field requires a primitive polynomial")
            if self.poly < 0:  # _gf2_mod would never terminate
                raise ValueError(f"polynomial {self.poly} must be a non-negative bitmask")
            if _gf2_degree(self.poly) != self.m:
                raise ValueError(
                    f"polynomial 0b{self.poly:b} has degree {_gf2_degree(self.poly)}, expected {self.m}"
                )
            if not _gf2_irreducible(self.poly):
                raise ValueError(f"polynomial 0b{self.poly:b} is reducible over GF(2)")
            if not _gf2_primitive(self.poly):
                raise ValueError(f"polynomial 0b{self.poly:b} is irreducible but not primitive")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @classmethod
    def prime(cls, d: int) -> "FieldSpec":
        return cls(kind=PRIME, d=d)

    @classmethod
    def binary_extension(cls, m: int, poly: int | None = None,
                         overrides: dict[int, int] | None = None) -> "FieldSpec":
        if poly is None:
            poly = primitive_poly(m, overrides)
        return cls(kind=BINARY_EXTENSION, m=m, poly=poly)

    @property
    def order(self) -> int:
        return self.d if self.kind == PRIME else 1 << self.m

    @cached_property
    def _exp_log(self) -> tuple[list[int], list[int]]:
        """exp/log tables for the extension field (alpha = x)."""
        assert self.kind == BINARY_EXTENSION
        n = self.order - 1
        exp = [0] * max(n, 1)
        log = [-1] * self.order
        val = _gf2_mod(0b10, self.poly) if self.m == 1 else 0b10
        acc = 1
        for i in range(n):
            exp[i] = acc
            log[acc] = i
            acc = _gf2_mulmod(acc, val, self.poly)
        return exp, log

    def alpha_power(self, i: int) -> "FieldElement":
        """alpha^i as a field element; the exponent wraps mod 2^m - 1."""
        if self.kind != BINARY_EXTENSION:
            raise UnsupportedFieldError("alpha powers only exist in extension fields")
        exp, _ = self._exp_log
        return FieldElement(exp[i % (self.order - 1)], self)

    def exponent_of(self, x: "FieldElement") -> int:
        """Discrete log base alpha of a nonzero element."""
        if self.kind != BINARY_EXTENSION:
            raise UnsupportedFieldError("exponential representation only exists in extension fields")
        if x.value == 0:
            raise ValueError("zero has no exponential representation")
        _, log = self._exp_log
        return log[x.value]

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    def elements(self):
        return (FieldElement(v, self) for v in range(self.order))


@dataclass(frozen=True)
class FieldElement:
    """Value in [0, field order) together with its owning field."""

    value: int
    field: FieldSpec

    def __post_init__(self):
        if not 0 <= self.value < self.field.order:
            raise ValueError(f"value {self.value} out of range for field of order {self.field.order}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return add(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return mul(self, other)


def _require_same_field(x: FieldElement, y: FieldElement):
    if x.field != y.field:
        raise FieldMismatchError(f"elements belong to different fields: {x.field} vs {y.field}")


def add(x: FieldElement, y: FieldElement) -> FieldElement:
    """Field addition: residue sum mod d, or XOR of coefficient vectors."""
    _require_same_field(x, y)
    f = x.field
    if f.kind == PRIME:
        return FieldElement((x.value + y.value) % f.d, f)
    return FieldElement(x.value ^ y.value, f)


def mul(x: FieldElement, y: FieldElement) -> FieldElement:
    """Field multiplication: residue product mod d, or polynomial product mod poly."""
    _require_same_field(x, y)
    f = x.field
    if f.kind == PRIME:
        return FieldElement((x.value * y.value) % f.d, f)
    return FieldElement(_gf2_mulmod(x.value, y.value, f.poly), f)


def mul_int(f: FieldSpec, a: int, b: int) -> int:
    """Raw-integer field multiplication (table-backed for extension fields)."""
    if f.kind == PRIME:
        return (a * b) % f.d
    if a == 0 or b == 0:
        return 0
    exp, log = f._exp_log
    return exp[(log[a] + log[b]) % (f.order - 1)]


def add_int(f: FieldSpec, a: int, b: int) -> int:
    """Raw-integer field addition."""
    return (a + b) % f.d if f.kind == PRIME else a ^ b


def inv_int(f: FieldSpec, a: int) -> int:
    """Raw-integer multiplicative inverse."""
    if a == 0:
        raise ZeroDivisionError("zero is not invertible")
    if f.kind == PRIME:
        return pow(a, f.d - 2, f.d)
    exp, log = f._exp_log
    return exp[(-log[a]) % (f.order - 1)]


def mul_by_alpha_matrix(f: FieldSpec, n: int) -> np.ndarray:
    """m x m GF(2) matrix M with vec(alpha^n * a) = M @ vec(a) for every a.

    Column p is the coefficient vector of alpha^(n+p); entry order follows the
    package bit convention (row j = bit j = coefficient of x^j).
    """
    if f.kind != BINARY_EXTENSION:
        raise UnsupportedFieldError("multiplication matrices are defined for extension fields only")
    if not 0 <= n < f.order - 1:
        raise ValueError(f"exponent {n} out of range [0, {f.order - 1})")
    m = f.m
    mat = np.zeros((m, m), dtype=np.uint8)
    for p in range(m):
        col = mul(f.alpha_power(n), FieldElement(1 << p, f)).value
        for j in range(m):
            mat[j, p] = (col >> j) & 1
    return mat
