"""Exact layer at a fixed prime: Hermite coset enumeration for rank <= 2,
the spherical transform at any rank (Macdonald's formula through
Hall-Littlewood polynomials) of finitely supported bi-invariant functions,
its inverse on products (integer Hecke structure constants), the radial
family 1_{integral} |det|^sigma in Tamagawa's closed form
p^(((n-1)/2 - sigma) |mu|), symmetric Laurent data, local Euler factors
(one coefficient row for the Euler-product kernel, which decides poles),
and truncated traces (partial sums of the h_k series).

Arithmetic that only involves integer powers of p^(1/2) stays exact via
``SqrtP`` (elements a + b*sqrt(p) with rational a, b, held as integers
(x + y*sqrt(p)) / q); mixed expressions degrade to complex floats.  The
prime is checked once, where a public call or constructor receives it
(``HeckeFn``, ``SatakeParam``, ``SqrtP(p, a, b)``, ``SqrtP.half_power``,
``enumerate_cosets``, ``satake_truncated_radial``): the scalars that
transforms, convolutions and radial tables build inside are unchecked.

One rule sizes a radial table for the library and the CLI alike:
``_radial_sizes`` counts its entries of each size and their printed bytes.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Mapping, Sequence

import numpy as np

from ._backend import kernels
from .numkit import _check_prime, sum_compensated

__all__ = [
    "SqrtP",
    "SatakeParam",
    "SymLaurent",
    "HeckeFn",
    "CosetEnumeration",
    "modulus_delta",
    "enumerate_cosets",
    "satake_transform",
    "satake_truncated_radial",
    "eval_character",
    "local_factor",
    "local_factor_series",
    "trace_truncated",
    "convolve",
    "twist",
    "dominant_tuples",
]

_MAX_COSET_ENTRY = 4  # public enumeration bound on |lambda_i|
_MAX_COSETS = 10**6  # bound on the representatives one enumeration builds
_MAX_WEIGHT_PAIRS = 2 * 10**6  # bound on the weight or monomial pairs one call reads
_MAX_RADIAL_SIGMA = 40  # bound on |sigma| in satake_truncated_radial
_MAX_RADIAL_DIGITS = 4000  # bound on the digits of one exact radial entry, below str()'s 4300
_MAX_RADIAL_BYTES = 32 * 10**6  # bound on the printed bytes of one radial table or report
_MAX_TRACE_DEPTH = 10**6  # bound on d in local_factor_series and trace_truncated
_MAX_FLOAT_DECADES = 300  # bound on |log10| of every float a radial table forms


class SqrtP:
    """Exact scalar a + b*sqrt(p) with rational a, b, held as integers:
    the value is (x + y*sqrt(p)) / q with q > 0 and gcd(x, y, q) = 1, so
    each value has one representation.  ``a`` and ``b`` read it back as
    Fractions.

    Closed under +, -, * and comparison with rationals; conversion to
    complex/float is the only lossy operation.  Mixing two SqrtP values
    with different p is rejected rather than approximated.  The
    constructor and ``half_power`` check that p is prime; the results of
    arithmetic inherit an operand's p and are built unchecked.
    """

    __slots__ = ("p", "x", "y", "q")

    def __init__(self, p: int, a=0, b=0):
        self.p = _check_prime(p)
        a, b = Fraction(a), Fraction(b)
        q = math.lcm(a.denominator, b.denominator)
        self.x = a.numerator * (q // a.denominator)
        self.y = b.numerator * (q // b.denominator)
        self.q = q

    @classmethod
    def half_power(cls, p: int, k: int) -> "SqrtP":
        """p^(k/2) for integer k (k may be negative)."""
        return _half_power(_check_prime(p), k)

    @property
    def a(self) -> Fraction:
        return Fraction(self.x, self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.y, self.q)

    def _coerce(self, other):
        if isinstance(other, SqrtP):
            if other.p != self.p and other.y and self.y:
                raise ValueError("cannot mix sqrt(p) scalars for different p")
            return other
        if type(other) is int:
            return _sqrtp(self.p, other, 0, 1)
        if isinstance(other, Rational):
            other = Fraction(other)
            return _sqrtp(self.p, other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        p = self.p if self.y or not o.y else o.p
        q, r = self.q, o.q
        if q == r:
            return _sqrtp(p, self.x + o.x, self.y + o.y, q)
        return _sqrtp(p, self.x * r + o.x * q, self.y * r + o.y * q, q * r)

    __radd__ = __add__

    def __neg__(self):
        return _sqrtp(self.p, -self.x, -self.y, self.q)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        p = self.p if self.y or not o.y else o.p
        x, y, u, v = self.x, self.y, o.x, o.y
        return _sqrtp(p, x * u + y * v * p, x * v + y * u, self.q * o.q)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is int:
            return not self.y and self.q == 1 and self.x == other
        if isinstance(other, SqrtP):
            if not (self.y or other.y):
                return self.x == other.x and self.q == other.q
            return (self.p == other.p and self.x == other.x and self.y == other.y
                    and self.q == other.q)
        if isinstance(other, Rational):
            return not self.y and self.a == Fraction(other)
        if isinstance(other, (float, complex)):
            # exact, like Fraction == float, so equal values hash equal
            other = complex(other)
            return not self.y and other.imag == 0 and self.a == other.real
        return NotImplemented

    def __hash__(self):
        if not self.y:
            return hash(self.a)
        return hash((self.p, self.a, self.b))

    def __complex__(self):
        return complex(float(self))

    def __float__(self):
        # int / int rounds correctly, as float(Fraction) does
        return self.x / self.q + self.y / self.q * math.sqrt(self.p)

    def __repr__(self):
        if not self.y:
            return f"SqrtP({self.p}, {self.a})"
        return f"SqrtP({self.p}, {self.a}, {self.b})"


def _sqrtp(p: int, x: int, y: int, q: int) -> SqrtP:
    """The SqrtP (x + y sqrt(p)) / q, q > 0, at a prime p: reduced by
    gcd(x, y, q) and built with no check and no Fraction."""
    g = math.gcd(x, y, q)
    if g != 1:
        x, y, q = x // g, y // g, q // g
    s = object.__new__(SqrtP)
    s.p, s.x, s.y, s.q = p, x, y, q
    return s


def _half_power(p: int, k: int) -> SqrtP:
    """p^(k/2) at a prime p, unchecked."""
    e, odd = divmod(k, 2)
    x, y = (0, 1) if odd else (1, 0)
    if e >= 0:
        return _sqrtp(p, x * p**e, y * p**e, 1)
    return _sqrtp(p, x, y, p**-e)



def dominant(v: Sequence[int]) -> tuple[int, ...]:
    """The weakly decreasing reordering (dominant representative) of v."""
    return tuple(sorted(v, reverse=True))


def _orbit(lam: Sequence[int]):
    """The distinct permutations of lam, in increasing lexicographic order by
    the next-permutation step: the orbit size sets the cost, not n!."""
    a, n = sorted(lam), len(lam)
    while True:
        yield tuple(a)
        i = next((i for i in range(n - 2, -1, -1) if a[i] < a[i + 1]), -1)
        if i < 0:
            return
        j = next(j for j in range(n - 1, i, -1) if a[j] > a[i])
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


def dominant_tuples(n: int, max_total: int):
    """All weakly decreasing n-tuples of nonnegative integers with sum
    <= max_total, in decreasing lexicographic order."""
    return _decreasing((max_total,) * n, 0)


def _decreasing(bounds: Sequence[int], least: int):
    """The weakly decreasing mu >= 0 with mu_1 + ... + mu_i <= bounds[i-1]
    for each i and |mu| >= least, in decreasing lexicographic order; the
    bounds do not decrease."""
    n = len(bounds)

    def rec(prefix, done, cap):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for v in range(min(cap, bounds[i] - done), -1, -1):
            if done + v * (n - i) < least:
                break  # the n - i entries left, each at most v, fall short
            if v == 0:  # so are the rest: recursion stays as deep as mu has parts
                yield tuple(prefix) + (0,) * (n - i)
            else:
                yield from rec(prefix + [v], done + v, v)

    yield from rec([], 0, max(bounds, default=0))


def _dominant_coeffs(n: int, coeffs: Mapping[tuple[int, ...], object]) -> dict:
    """Validated copy of coefficients keyed by dominant integer weights of
    length n >= 1, with the zero coefficients dropped."""
    if n < 1:
        raise ValueError("need n >= 1")
    clean = {}
    for lam, c in coeffs.items():
        lam = tuple(int(x) for x in lam)
        if len(lam) != n:
            raise ValueError(f"weight {lam} has wrong length for n={n}")
        if lam != dominant(lam):
            raise ValueError(f"weight {lam} is not dominant")
        if c != 0:
            clean[lam] = c
    return clean


@dataclass(frozen=True)
class SatakeParam:
    """Unordered multiset of n nonzero complex eigenvalues at the prime p,
    stored in the canonical (|chi|, arg chi) order; ``norm`` is max |chi_j|."""

    n: int
    p: int
    chi: tuple[complex, ...]

    def __post_init__(self):
        _check_prime(self.p)
        if self.n < 1 or len(self.chi) != self.n:
            raise ValueError("need n >= 1 eigenvalues matching n")
        vals = tuple(complex(c) for c in self.chi)
        if any(v == 0 for v in vals):
            raise ValueError("Satake eigenvalues must be nonzero")
        if not all(map(cmath.isfinite, vals)):
            raise ValueError(f"Satake eigenvalues must be finite, got {vals}")
        object.__setattr__(  # math.atan2: cmath.phase raises on subnormal parts
            self, "chi", tuple(sorted(vals, key=lambda z: (abs(z), math.atan2(z.imag, z.real))))
        )

    @property
    def norm(self) -> float:
        return max(abs(c) for c in self.chi)


class SymLaurent:
    """Symmetric-group-invariant function on Z^n with finite support,
    stored by dominant representative: ``coeffs[lam]`` is the value on the
    whole orbit of lam (orbit-sum semantics for the associated Laurent
    polynomial sum_lam c_lam m_lam)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, ...], object]):
        self.coeffs = _dominant_coeffs(n, coeffs)
        self.n = n

    @classmethod
    def one(cls, n: int) -> "SymLaurent":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def orbit(cls, lam: Sequence[int], coeff=1) -> "SymLaurent":
        lam = tuple(int(x) for x in lam)
        return cls(len(lam), {dominant(lam): coeff})

    def monomials(self) -> dict[tuple[int, ...], object]:
        """Expand to the full coefficient function mu -> value."""
        return {mu: c for lam, c in self.coeffs.items() for mu in _orbit(lam)}

    def __add__(self, other: "SymLaurent") -> "SymLaurent":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        merged = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            merged[lam] = merged[lam] + c if lam in merged else c
        return SymLaurent(self.n, merged)

    def __mul__(self, other):
        if not isinstance(other, SymLaurent):
            return SymLaurent(self.n, {lam: c * other for lam, c in self.coeffs.items()})
        if self.n != other.n:
            raise ValueError("rank mismatch")
        a, b = self.monomials(), other.monomials()
        prod: dict[tuple[int, ...], object] = {}
        for mu1, c1 in a.items():
            for mu2, c2 in b.items():
                nu = tuple(x + y for x, y in zip(mu1, mu2))
                prod[nu] = prod[nu] + c1 * c2 if nu in prod else c1 * c2
        return SymLaurent(self.n, {nu: c for nu, c in prod.items() if nu == dominant(nu)})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymLaurent):
            return NotImplemented
        # zero coefficients are dropped, so equal functions have equal keys
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs)))

    def __repr__(self):
        items = ", ".join(f"{lam}: {c!r}" for lam, c in sorted(self.coeffs.items()))
        return f"SymLaurent(n={self.n}, {{{items}}})"


@dataclass(frozen=True)
class HeckeFn:
    """Bi-invariant function at p, finitely supported on double cosets:
    ``coeffs[lam]`` is its value on K diag(p^lam) K, lam dominant."""

    n: int
    p: int
    coeffs: Mapping[tuple[int, ...], object] = field(default_factory=dict)

    def __post_init__(self):
        _check_prime(self.p)
        object.__setattr__(self, "coeffs", _dominant_coeffs(self.n, self.coeffs))

    @classmethod
    def double_coset(cls, n: int, p: int, lam: Sequence[int]) -> "HeckeFn":
        return cls(n, p, {dominant(lam): 1})

    @classmethod
    def unit(cls, n: int, p: int) -> "HeckeFn":
        return cls(n, p, {(0,) * n: 1})

    def __hash__(self):
        return hash((self.n, self.p, frozenset(self.coeffs)))


@dataclass(frozen=True)
class CosetEnumeration:
    """Right-coset representatives of one double coset at p (rank <= 2),
    as explicit upper-triangular matrices with exact rational entries;
    ``depth`` records the modulus p^depth that the off-diagonal entries
    were reduced by."""

    n: int
    p: int
    lam: tuple[int, ...]
    representatives: tuple
    depth: int


def _ord_p(x, p: int):
    """p-adic valuation of a rational; None encodes +infinity (x == 0)."""
    x = Fraction(x)
    if x == 0:
        return None
    k = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        k += 1
    while den % p == 0:
        den //= p
        k -= 1
    return k


def modulus_delta(a: Sequence, p: int) -> Fraction:
    """Product of |a_j|^(n+1-2j) over j=1..n, for diagonal entries that are
    exact rational powers of p (up to sign); returns an exact Fraction."""
    _check_prime(p)
    n = len(a)
    if n < 1:
        raise ValueError("need at least one diagonal entry")
    total = 0
    for j, aj in enumerate(a, start=1):
        x = Fraction(aj)
        k = _ord_p(x, p)
        if k is None or abs(x) != Fraction(p) ** k:
            raise ValueError(f"entry {aj!r} is not an exact power of {p}")
        # |a_j|_p = p^(-k)
        total += -k * (n + 1 - 2 * j)
    return Fraction(p) ** total


def enumerate_cosets(p: int, lam: Sequence[int], n: int = 2) -> CosetEnumeration:
    """Explicit right-coset representatives of K diag(p^lam) K.

    Rank 1 is the single scaled unit; rank 2 yields the Hermite forms
    [[p^a, b], [0, p^c]] (a + c = lam1 + lam2, b mod p^a) whose elementary
    divisors are exactly lam.  Entries are exact rationals; negative
    weights give denominators.  ValueError, before any is built, when the
    rank-2 count p^m + p^(m-1) (m = lam1 - lam2 >= 1) exceeds _MAX_COSETS.
    """
    _check_prime(p)
    lam = tuple(int(x) for x in lam)
    if len(lam) != n:
        raise ValueError("weight length must equal the rank")
    if lam != dominant(lam):
        raise ValueError("weight must be dominant")
    if any(abs(x) > _MAX_COSET_ENTRY for x in lam):
        raise ValueError(f"entries must satisfy |lam_i| <= {_MAX_COSET_ENTRY}")
    if n == 1:
        rep = ((Fraction(p) ** lam[0],),)
        return CosetEnumeration(1, p, lam, (rep,), depth=1)
    if n != 2:
        raise ValueError("explicit enumeration is implemented for rank <= 2")
    m = lam[0] - lam[1]
    count = (p + 1) * p ** (m - 1) if m else 1
    if count > _MAX_COSETS:
        raise ValueError(
            f"K diag(p^lambda) K at p = {p}, lambda = {lam} has {count} representatives,"
            f" more than {_MAX_COSETS}"
        )
    # every entry is v p^lam2 for an integer 0 <= v <= p^m: build each
    # once, from integers, and share it across representatives
    scale = p ** abs(lam[1])
    entry = ([Fraction(v * scale) for v in range(p**m + 1)] if lam[1] >= 0
             else [Fraction(v, scale) for v in range(p**m + 1)])
    reps = []
    for a in range(m + 1):
        c = m - a
        left, right = entry[p**a], entry[p**c]
        # primitive: a, c and the p-adic order of b not all positive
        bs = (b for b in range(p**a) if b % p) if a and c else range(p**a)
        reps += [((left, entry[b]), (entry[0], right)) for b in bs]
    return CosetEnumeration(2, p, lam, tuple(reps), depth=m + 1)


def _compositions(n: int, k: int) -> int:
    """C(k + n - 1, n - 1), the vectors of n integers >= 0 summing to k, or
    _MAX_WEIGHT_PAIRS + 1 once k, n - 1 >= 22 (the count is then > 10^12)."""
    return math.comb(k + n - 1, n - 1) if min(k, n - 1) < 22 else _MAX_WEIGHT_PAIRS + 1


def _check_work(n: int, sizes) -> None:
    """ValueError, before any coefficient is computed, past
    _MAX_WEIGHT_PAIRS: each size k counts the w (w + 1) / 2 pairs of its
    w partitions into at most n parts, bounded by
    _compositions(n, k) and, for n <= 21, by C(k + n (n + 1) / 2 - 1, n - 1)
    / n! (exact for n <= 2)."""
    pairs = 0
    for k in sizes:
        w = _compositions(n, k)
        if n <= 21:  # the parts of k + n (n + 1) / 2 made distinct by (n, ..., 1)
            w = min(w, math.comb(k + n * (n + 1) // 2 - 1, n - 1) // math.factorial(n))
        pairs += w * (w + 1) // 2
        if pairs > _MAX_WEIGHT_PAIRS:
            raise ValueError(f"rank {n}: more than {_MAX_WEIGHT_PAIRS} weight pairs to read")


def _half_integral(sigma) -> bool:
    """Whether 2 sigma is an integer, where the radial table is exact."""
    return isinstance(sigma, (Rational, float)) and (2 * Fraction(sigma)).denominator == 1


def _radial_counts(n: int, d: int) -> np.ndarray:
    """The entries of each size k <= d in the rank-n radial table, the
    partitions of k into at most n parts (by conjugation, into parts of
    size at most n), each saturated at _MAX_RADIAL_BYTES + 1 (a table of
    more entries than that is refused anyway) so int64 cannot overflow:
    min(n, d) numpy passes over d + 1 counts."""
    counts = np.ones(d + 1, dtype=np.int64)  # parts of size 1 only
    for j in range(2, min(n, d) + 1):
        # counts[k] += counts[k - j] for k = j, ..., d, in that order: a
        # cumulative sum along each residue class mod j
        rows = -(-(d + 1) // j)
        padded = np.zeros(rows * j, dtype=np.int64)
        padded[: d + 1] = counts
        counts = np.minimum(padded.reshape(rows, j).cumsum(axis=0).ravel()[: d + 1],
                            _MAX_RADIAL_BYTES + 1)
    return counts


def _radial_sizes(sigma, d: int, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, sizes) over the sizes k <= d of the rank-n radial table:
    counts[k] entries (_radial_counts), each printed in about sizes[k]
    bytes, 3 n + 26 for its key and frame (3 a coordinate; 3 n + 34 for a
    complex float "(x+0j)" of real sigma, 3 n + 52 for the two full floats
    "(x+yj)" of non-real sigma) plus the |(n-1)/2 - sigma| k log10(p)
    digits of an exact p^(((n-1)/2 - sigma) k).

    ValueError, before any array or power is formed, for p not a prime,
    n < 1 or d < 0; for |sigma| > _MAX_RADIAL_SIGMA (an exact p^(-sigma m)
    has some sigma m log10(p) digits); for a float sigma when a float the
    table forms, p^(-sigma m), p^((n-1) m / 2) or their product, m <= d,
    would overflow or round to 0 (max(|Re sigma|, (n-1)/2, (n-1)/2 -
    Re sigma) d log10(p) decades, above _MAX_FLOAT_DECADES); for an exact
    entry of more than _MAX_RADIAL_DIGITS digits, which str() cannot print;
    and when one entry of each size prints in more than _MAX_RADIAL_BYTES.
    """
    _check_prime(p)
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and depth d >= 0 (got n = {n}, d = {d})")
    if not abs(sigma) <= _MAX_RADIAL_SIGMA:
        raise ValueError(f"|sigma| must be at most {_MAX_RADIAL_SIGMA} (got {sigma!r})")
    exact = _half_integral(sigma)
    z = complex(sigma)
    real, half = z.real, (n - 1) / 2
    decades = max(abs(real), half, half - real) * d * math.log10(p)
    if not exact and decades > _MAX_FLOAT_DECADES:
        raise ValueError(
            f"sigma = {sigma!r}, p = {p}, d = {d}: the floats p^(-sigma m), p^((n-1) m / 2) and"
            f" their products, m <= d, span {decades:.1f} decades, past the"
            f" {_MAX_FLOAT_DECADES} of a normal double"
        )
    digits = abs(half - real) * math.log10(p) if exact else 0.0
    if digits * d > _MAX_RADIAL_DIGITS:
        raise ValueError(
            f"sigma = {sigma!r}, p = {p}, d = {d}, rank {n}: exact entries of about"
            f" {digits * d:.0f} digits; at most {_MAX_RADIAL_DIGITS} are printed"
        )
    frame = 3 * n + (26 if exact else 52 if z.imag else 34)
    if (d + 1) * frame > _MAX_RADIAL_BYTES:
        raise ValueError(
            f"rank {n}, depth {d}: one entry of each size prints in more than"
            f" {_MAX_RADIAL_BYTES} bytes"
        )
    return _radial_counts(n, d), frame + digits * np.arange(d + 1)


@lru_cache(maxsize=1 << 16)
def _hl_scaled(p: int, lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """p^(n(mu) - n(lam)) [x^mu] P_lam(x; 1/p), an integer, for decreasing
    lam and mu, lam zero-free, |lam| = |mu|, n(lam) = sum (i-1) lam_i.

    The Hall-Littlewood polynomial P_lam sums psi_T(t) x^T over the
    semistandard tableaux T of shape lam (Macdonald, Symmetric Functions
    and Hall Polynomials, III (5.11')).  The entries r = len(mu) fill a
    horizontal strip lam/nu weighted by (5.8'): psi_{lam/nu}(t) multiplies
    1 - t^(m_j(nu)) over the columns j >= 1 free of the strip with column
    j + 1 in it, which starts the strip in a row of nu above row r, so the
    peel's scale p^e, e = sum (r - i)(lam_i - nu_i), clears p^(m_j(nu)).
    """
    if not mu:
        return 1
    r, ext = len(mu), lam + (0,)

    def strips(i, left, nu):  # lam_{i+1} <= nu_i <= lam_i, nu_i = 0 from row r on
        if left > ext[i]:  # rows i, i+1, ... hold at most lam_i strip boxes
            return
        if i == len(lam):
            yield nu
            return
        for v in range(lam[i] if i < r - 1 else 0, max(ext[i + 1], lam[i] - left) - 1, -1):
            yield from strips(i + 1, left - lam[i] + v, nu + (v,) if v else nu)

    total = 0
    for nu in strips(0, mu[-1], ()) if len(lam) <= r else ():
        rows = tuple(zip(lam, nu + (0,) * (len(lam) - len(nu))))
        e = sum((r - 1 - i) * (a - b) for i, (a, b) in enumerate(rows))
        w = 1
        # row i's boxes start right of column nu_i, free unless another row ends there
        for j in {b for a, b in rows if a > b and b} - {a for a, b in rows if a > b}:
            m = nu.count(j)
            w, e = w * (p**m - 1), e - m
        total += w * p**e * _hl_scaled(p, nu, mu[:-1])
    return total


@lru_cache(maxsize=1 << 10)
def _transform_terms(p: int, lam: tuple[int, ...]) -> tuple:
    """(mu, N, p^(-<mu, rho>)) for the dominant mu dominated by lam, lam
    first: N = p^<lam + mu, rho> [m_mu] P_lam(x; 1/p) counts the Hermite
    cosets in K p^lam K with diagonal p^mu.  P_(lam+c) = (x_1...x_n)^c P_lam."""
    shift, rho2 = lam[-1], range(len(lam) - 1, -len(lam), -2)
    kappa = tuple(x - shift for x in lam)
    out = []
    for mu in _decreasing(tuple(itertools.accumulate(kappa)), sum(kappa)):
        r2 = sum(map(operator.mul, mu, rho2))  # 2 <mu, rho>
        count = _hl_scaled(p, kappa[: kappa.index(0)], mu) * p**r2
        out.append((tuple(m + shift for m in mu), count, _half_power(p, -r2)))
    return tuple(out)


def satake_transform(f: HeckeFn) -> SymLaurent:
    """Spherical transform of a finitely supported bi-invariant function at
    any rank n: S(1_{K p^lam K}) = p^<lam, rho> P_lam(x; 1/p), with
    rho = ((n-1)/2, ..., -(n-1)/2) and P_lam the Hall-Littlewood polynomial
    (Macdonald V (3.3)).  Exact output: counts times half-integer powers of
    p.  ValueError, before any coefficient is computed, past _MAX_WEIGHT_PAIRS."""
    _check_work(f.n, [sum(lam) - f.n * lam[-1] for lam in f.coeffs])
    return _transform(f.n, f.p, f.coeffs)


def _transform(n: int, p: int, coeffs: Mapping[tuple[int, ...], object]) -> SymLaurent:
    """satake_transform of validated coefficients at a checked prime p."""
    acc: dict[tuple[int, ...], object] = {}
    for lam, c in coeffs.items():
        for mu, count, half in _transform_terms(p, lam):
            val = c * count * half
            acc[mu] = acc[mu] + val if mu in acc else val
    return SymLaurent(n, acc)


def satake_truncated_radial(sigma, d: int, n: int = 2, p: int = 2) -> SymLaurent:
    """Spherical transform of 1_{integral} |det|^sigma, tabulated on the
    dominant weights mu >= 0 with |mu| <= d: by Tamagawa's rationality
    theorem (Ann. of Math. 77 (1963)), sum_k p^(-sigma k) S(T(p^k)) =
    prod_i (1 - p^((n-1)/2 - sigma) x_i)^(-1), so the entry at mu is
    p^((n-1) k / 2) times the weight p^(-sigma k), k = |mu|.

    Exact (SqrtP scalars) when 2*sigma is an integer; otherwise every entry
    is a complex float, also where 2 sigma m is an integer.  ValueError,
    before any power is formed, for the inputs _radial_sizes refuses and
    for a table that would print in more than _MAX_RADIAL_BYTES bytes (the
    sum over k <= d of its entries of size k times their printed size), so
    str() of every table returned succeeds.
    """
    counts, sizes = _radial_sizes(sigma, d, n, p)
    total = counts @ sizes
    if total > _MAX_RADIAL_BYTES:
        raise ValueError(
            f"rank {n}, depth {d}: the table prints in about {total:.0f} bytes, more than"
            f" {_MAX_RADIAL_BYTES}"
        )
    if _half_integral(sigma):
        # v_k = v_(k-1) p^((n-1)/2 - sigma), one product per size
        base = _half_power(p, n - 1 - int(2 * Fraction(sigma)))
        values = list(itertools.accumulate(itertools.repeat(base, d), operator.mul,
                                           initial=_sqrtp(p, 1, 0, 1)))
    else:
        values = [_half_power(p, (n - 1) * k) * complex(p) ** (-complex(sigma) * k)
                  for k in range(d + 1)]
    return SymLaurent(n, {mu: values[sum(mu)] for mu in dominant_tuples(n, d)})


def eval_character(g: SymLaurent, chi: SatakeParam) -> complex:
    """Evaluate the orbit-sum Laurent polynomial at a Satake parameter."""
    if g.n != chi.n:
        raise ValueError("rank mismatch")
    total = 0j
    for mu, c in g.monomials().items():
        term = complex(c)
        for x, m in zip(chi.chi, mu):
            term *= x**m
        total += term
    return total


def local_factor(chi: SatakeParam, s: complex) -> complex:
    """prod_j (1 - chi_j p^{-s})^{-1}: the row of prod_j (1 - chi_j X) (``np.poly``
    of the chi_j) in a one-prime kernels.euler_product call, whose pole test
    raises PoleError when the factor vanishes.  ValueError unless s is finite,
    and from the kernel where the factor is not (far left of the strip)."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    return kernels.euler_product((chi.p,), [np.poly(chi.chi)], s)


def local_factor_series(chi: SatakeParam, d: int) -> list[complex]:
    """First d+1 coefficients of prod_j (1 - chi_j X)^{-1}: the complete
    homogeneous sums h_k(chi).  ValueError unless 0 <= d <= _MAX_TRACE_DEPTH
    (10^6), before anything is allocated."""
    if d < 0:
        raise ValueError("need d >= 0")
    if d > _MAX_TRACE_DEPTH:
        raise ValueError(f"depth d = {d} exceeds the cap {_MAX_TRACE_DEPTH}")
    coeffs = [1.0 + 0.0j] + [0.0j] * d
    for c in chi.chi:
        # multiply by 1/(1 - c X) via the running recurrence
        for k in range(1, d + 1):
            coeffs[k] = coeffs[k] + c * coeffs[k - 1]
    return coeffs


def trace_truncated(chi: SatakeParam, d: int) -> complex:
    """sum of m_lam(chi) over dominant lam >= 0 with |lam| <= d; converges
    to the local factor at s = 0 when the parameter norm is < 1.

    The degree-k orbit sums add up to h_k(chi), so this is the correctly
    rounded sum of local_factor_series(chi, d), in O(n d) operations.
    ValueError when that sum is not finite: the h_k overflow a float."""
    total = sum_compensated(local_factor_series(chi, d))
    if not cmath.isfinite(total):
        raise ValueError(
            f"the h_k series overflows a float at d = {d}, max |chi| = {chi.norm!r}"
        )
    return total


def twist(chi: SatakeParam, s: complex) -> SatakeParam:
    """Unramified twist: multiply every eigenvalue by p^{-s}."""
    factor = complex(chi.p) ** (-complex(s))
    return SatakeParam(chi.n, chi.p, tuple(c * factor for c in chi.chi))


@lru_cache(maxsize=1 << 12)
def _unit_product(p: int, lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple:
    """The (nu, c), c an integer, with 1_{K p^lam K} * 1_{K p^mu K} = sum c 1_{K p^nu K}:
    the product of the two transforms scaled to the integers p^<nu, rho> [m_nu],
    peeled by the counts of _transform_terms (p^<2 nu, rho> at nu), largest first."""
    n, rho2 = len(lam), range(len(lam) - 1, -len(lam), -2)
    sf, sg = (_transform(n, p, {w: 1}) for w in (lam, mu))
    # each scaled coefficient is an integer, so its field x is its value
    rest = {nu: (c * _half_power(p, sum(map(operator.mul, nu, rho2)))).x
            for nu, c in (sf * sg).coeffs.items()}
    out = []
    while rest:
        nu = max(rest)
        (_, lead, _), *lower = _transform_terms(p, nu)
        c = rest.pop(nu) // lead
        if c:
            out.append((nu, c))
            for m, count, _ in lower:
                rest[m] = rest.get(m, 0) - c * count
    return tuple(out)


def convolve(f: HeckeFn, g: HeckeFn) -> HeckeFn:
    """Convolution of finitely supported bi-invariant functions at one prime
    and rank: the sum of f(lam) g(mu) _unit_product(p, lam, mu), so the
    coefficients enter only after the exact peel.  ValueError, before any
    coefficient is computed, past _MAX_WEIGHT_PAIRS weight pairs in the
    peel or monomial pairs in the products of transforms: a transform of
    shifted size k = |lam| - n lam_n has at most _compositions(n, k) monomials."""
    if f.n != g.n or f.p != g.p:
        raise ValueError("operands must share rank and prime")
    ks = [[sum(lam) - f.n * lam[-1] for lam in h.coeffs] for h in (f, g)]
    _check_work(f.n, [a + b for a in ks[0] for b in ks[1]])
    if math.prod(sum(_compositions(f.n, k) for k in side) for side in ks) > _MAX_WEIGHT_PAIRS:
        raise ValueError(f"rank {f.n}: more than {_MAX_WEIGHT_PAIRS} monomial pairs to expand")
    out = {}
    for lam, a in f.coeffs.items():
        for mu, b in g.coeffs.items():
            for nu, c in _unit_product(f.p, lam, mu):
                v = a * b * c
                out[nu] = out[nu] + v if nu in out else v
    return HeckeFn(f.n, f.p, out)
