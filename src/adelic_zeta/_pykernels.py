"""The numerical kernels: compensated sums, Gaussian lattice sums, Euler
products and the integer eta q-expansion.

Callers reach them through ``_backend.kernels``.  ``neumaier_sum`` is
correctly rounded by ``math.fsum``, so it does not depend on the order of
its terms; given a 2-D array it sums every row in one call, each row
bitwise its 1-D sum and real rows as real, which is how integrate_finite
sums one quadrature level of a batch.  The other row-wise sums of arrays
(``row_sums`` and the batched lattice sums) are compensated, as accurate
as a plain sum in twice the working precision, but not correctly
rounded.  A lattice sum stops where its term bound falls below TAIL_TOL,
at a point that depends only on the polynomial's degree and coefficient
sum, so it is found once per such pair.  The eta q-expansion
is exact: sparse passes in int64 modulo primes below 2^45, as many as
Deligne's bound on tau requires (two up to n = 26007), and the Chinese
remainder theorem back to Python ints.
"""

import math
from functools import lru_cache

import numpy as np

BACKEND_NAME = "python"


class PoleError(ZeroDivisionError):
    """Evaluation requested at (or numerically indistinguishable from) a pole."""


# exp(-x) is at most the smallest subnormal double for x >= EXP_UNDERFLOW,
# so a lattice weight exp(-pi x^2) is masked to 0 (and so is its term
# bound) from pi x^2 = EXP_UNDERFLOW on
EXP_UNDERFLOW = 745.0
# a lattice sum stops once its term bound lies below this, past the hump
TAIL_TOL = 1e-17

_MAX_LATTICE_TERMS = 5_000_000
# lattice terms evaluated per chunk (rows x columns) of a batched lattice
# sum, so memory stays bounded however many terms a small scale needs
_CHUNK_TERMS = 1 << 16


def _fsum(xs):
    """math.fsum of a list of floats; an overflowing partial or inf - inf
    gives the IEEE result of a plain sum (inf or nan) instead of raising."""
    try:
        return math.fsum(xs)
    except (OverflowError, ValueError):
        return sum(xs)


def neumaier_sum(values):
    """Sum of a sequence of numbers as complex, each part correctly rounded.

    Exact up to one final rounding whatever the length, order or
    cancellation pattern, unlike the naive left fold.  A 2-D array gives
    the list of its row sums, each bitwise the sum of that row on its own;
    real rows are summed as real, with imaginary part 0.0.
    """
    if getattr(values, "ndim", 1) != 2:
        z = np.asarray(values, dtype=complex)
        return complex(_fsum(z.real.tolist()), _fsum(z.imag.tolist()))
    # one row at a time, so only one row exists as Python floats
    if not np.iscomplexobj(values):
        return [complex(_fsum(row.tolist())) for row in values.astype(float, copy=False)]
    return [complex(_fsum(row.real.tolist()), _fsum(row.imag.tolist()))
            for row in values.astype(complex, copy=False)]


def _two_sum(a, b):
    """Knuth's error-free transformation: a + b == s + e exactly."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _pair_sums(a):
    """(s, e) with s + e the sum of ``a`` along its last axis to about
    n * eps**2 * sum(|a|): pairwise TwoSum, whose rounding errors are then
    summed plainly (Ogita, Rump and Oishi's Sum2, on a tree)."""
    errs = [np.zeros(a.shape[:-1] + (1,))]
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        s, e = _two_sum(a[..., :half], a[..., half : 2 * half])
        errs.append(e)
        a = np.concatenate((s, a[..., 2 * half :]), axis=-1) if a.shape[-1] % 2 else s
    return a[..., 0], np.concatenate(errs, axis=-1).sum(axis=-1)


def row_sums(a):
    """Sums along the last axis of a real or complex array, compensated: as
    accurate as the plain sum in twice the working precision, then rounded
    once; not correctly rounded, unlike ``neumaier_sum`` on a 2-D array."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        s, e = _pair_sums(a.astype(float))
        return s + e
    s, e = _pair_sums(np.stack((a.real, a.imag)))
    out = np.empty(s.shape[1:], dtype=complex)
    out.real, out.imag = s + e
    return out


@lru_cache(maxsize=128)
def _quiet_from(deg, amax):
    """Where the lattice truncation test starts to pass for a polynomial of
    degree ``deg`` and coefficient sum ``amax`` = sum |c_k|: the smallest
    double x >= x_stop whose term bound 2*amax*max(1,x)^deg*exp(-pi x^2)
    lies below TAIL_TOL.  Past x_stop the bound decreases, and it is 0 once
    the weight underflows (pi x^2 >= EXP_UNDERFLOW), so bisection over the
    doubles finds it; computed once per (deg, amax)."""
    x_stop = max(1.0, math.sqrt(deg / (2.0 * math.pi)) + 0.5)

    def quiet(x):
        px = math.pi * x * x
        bound = 0.0 if px >= EXP_UNDERFLOW else 2.0 * amax * max(1.0, x) ** deg * math.exp(-px)
        return bound < TAIL_TOL

    lo = x_stop
    if quiet(lo):
        return lo
    hi = math.sqrt(EXP_UNDERFLOW / math.pi)
    while math.pi * hi * hi < EXP_UNDERFLOW:
        hi = math.nextafter(hi, math.inf)
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if quiet(mid):
            hi = mid
        else:
            lo = mid


def _lattice_block(scales, ks, last, even):
    """Lattice terms 2 w(x) (P(x) + P(-x))/2 at x = k*scale for the columns
    ``ks`` of each row, zero past the row's ``last`` index or where the
    weight w = exp(-pi x^2) underflows; real and imaginary parts stacked on
    the first axis."""
    x = scales[:, None] * ks
    px = (math.pi * x) * x
    live = (px < EXP_UNDERFLOW) & (ks <= last[:, None])
    y = np.where(live, x * x, 0.0)
    w2 = np.where(live, 2.0 * np.exp(-px), 0.0)
    top = even[-1]
    p = np.empty((2,) + x.shape)
    p[0], p[1] = top.real, top.imag
    for c in even[-2::-1]:
        p *= y
        p[0] += c.real
        p[1] += c.imag
    return w2 * p


def _chunk_width(columns, rows):
    """Columns of the next chunk: a power of two (which keeps the pairwise
    sums free of odd tails) covering ``columns``, within _CHUNK_TERMS cells."""
    return max(1, min(1 << (int(columns) - 1).bit_length(), _CHUNK_TERMS // rows))


def gauss_poly_lattice_sums(scales, coeffs):
    """sum_{k>=1} (P(k*s) + P(-k*s)) * exp(-pi*(k*s)^2) for every scale s.

    P is the polynomial with (complex) ``coeffs`` in ascending order.  Odd
    powers cancel between +k and -k, so only the even part is evaluated;
    in particular an odd P gives exactly 0.  Returns (values, kmax): complex
    sums and the last lattice index each includes.  Truncation: past the
    hump x_stop of x^deg*exp(-pi x^2), stop after two consecutive indices
    whose term bound 2*amax*max(1,x)^deg*exp(-pi x^2) is below TAIL_TOL
    (amax = sum |c_k|).  The bound passes from x_q = _quiet_from(deg, amax)
    on, so that index is computed for every scale before any term is: a scale
    whose sum would pass _MAX_LATTICE_TERMS is refused with RuntimeError.
    The terms are then evaluated in chunks of about _CHUNK_TERMS cells of
    the (scale x index) block and summed row-wise with compensation.
    """
    scales = np.asarray(scales, dtype=float).ravel()
    if not ((scales > 0.0) & (scales < math.inf)).all():
        raise ValueError("scale must be positive and finite")
    even = np.asarray(coeffs[0::2], dtype=complex)
    if scales.size == 0 or not (even != 0).any():
        return np.zeros(scales.size, dtype=complex), np.zeros(scales.size, dtype=np.int64)
    x_q = _quiet_from(len(coeffs) - 1, sum(abs(c) for c in coeffs))
    # Overflowing quotients, x, x^2 and exp arguments at extreme scales are
    # masked below, so their warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        # The test passes at every index k with k*scale >= x_q, so the sum
        # stops one index after the first; the rounded quotient is within one.
        first = np.ceil(x_q / scales)
        first = np.where((first - 1.0) * scales >= x_q, first - 1.0, first)
        first = np.where(first * scales < x_q, first + 1.0, first)
        last = np.maximum(first, 1.0) + 1.0
        top = last.max()
        if top > _MAX_LATTICE_TERMS:
            raise RuntimeError("lattice sum did not terminate (scale too small)")
        # the first chunk holds every row; only long sums need more
        width = _chunk_width(top, scales.size)
        ks = np.arange(1.0, width + 1.0)
        total, err = _pair_sums(_lattice_block(scales, ks, last, even))
        done = width
        while done < top:
            rows = np.flatnonzero(last > done)
            width = _chunk_width(top - done, rows.size)
            ks = np.arange(done + 1.0, done + width + 1.0)
            s, e = _pair_sums(_lattice_block(scales[rows], ks, last[rows], even))
            total[:, rows], e2 = _two_sum(total[:, rows], s)
            err[:, rows] += e2 + e
            done += width
    total += err
    values = np.empty(scales.size, dtype=complex)
    values.real, values.imag = total
    return values, last.astype(np.int64)


def gauss_poly_lattice_sum(scale, coeffs):
    """The lattice sum of ``gauss_poly_lattice_sums`` at one scale, as
    (complex value, kmax)."""
    if not (0.0 < scale < math.inf):
        raise ValueError("scale must be positive and finite")
    values, kmax = gauss_poly_lattice_sums(np.array([scale]), coeffs)
    return complex(values[0]), int(kmax[0])


def euler_product(primes, coeffs, s):
    """prod_p 1/poly_p(p^{-s}); ``coeffs[i]`` are the ascending coefficients
    of the local polynomial at ``primes[i]``, all of one length.

    The local factors are evaluated together by Horner's rule and
    multiplied by ``np.prod``.  This is the one test of a vanishing local
    factor: PoleError, naming the first such prime, where the value is 0 or
    at most 1e-13 times the size sum_k |c_k x^k| of its terms.  A factor
    whose value or size is not finite (far left of the strip, where p^-s
    overflows) is refused first, with ValueError and no numpy warning.
    """
    s = complex(s)
    rows = np.asarray(coeffs, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(-s * np.log(np.asarray(primes, dtype=float)))
        val, size, ax = np.zeros_like(x), np.zeros(x.shape), np.abs(x)
        for col in rows.T[::-1]:
            val = val * x + col
            size = size * ax + np.abs(col)
    lost = ~(np.isfinite(val) & np.isfinite(size))
    if lost.any():
        p = primes[int(np.argmax(lost))]
        raise ValueError(f"local factor at p={p} is not finite at s={s}")
    vanish = np.abs(val) <= 1e-13 * size
    if vanish.any():
        raise PoleError(f"local factor vanishes at p={primes[int(np.argmax(vanish))]}")
    return complex(1.0 / np.prod(val))


# Moduli of the exact eta q-expansion: the three largest primes below 2^45.
# Two of them cover Deligne's bound for n <= 26007, three for every n that
# a pass can take without overflowing int64 (see _eta_moduli).
_ETA_PRIMES = (35184372088777, 35184372088763, 35184372088751)


def _eta_moduli(n):
    """The fewest leading ``_ETA_PRIMES`` whose product M exceeds 4 n^6.

    Deligne's bound |tau(m)| <= d(m) m^(11/2), with d(m) <= 2 sqrt(m),
    gives |tau(m)| <= 2 m^6 < M / 2 for every m <= n, so the symmetric
    residue of tau(m) modulo M is tau(m) itself.  A pass of
    ``eta24_coefficients`` sums residues below max(p) with weights of total
    size K^2, K the number of Jacobi terms below n, so an n with
    max(p) K^2 >= 2^63 (n >= 131329, where three moduli still cover
    Deligne's bound) is refused before anything is allocated, as is an n
    that the product of all the moduli cannot cover.
    """
    terms = (math.isqrt(8 * n - 7) - 1) // 2 + 1  # k with k(k+1)/2 < n
    cover = [k for k in range(1, len(_ETA_PRIMES) + 1)
             if math.prod(_ETA_PRIMES[:k]) > 4 * n**6]
    if not cover or max(_ETA_PRIMES) * terms**2 >= 2**63:
        raise ValueError(
            f"tau(1..{n}) is out of reach of the exact route: a pass over "
            f"Jacobi's {terms} terms could overflow int64 (n <= 131328 cannot)"
        )
    return _ETA_PRIMES[: cover[0]]


def _jacobi_terms(n):
    """Exponents k(k+1)/2 < n and coefficients (-1)^k (2k+1) of Jacobi's
    series J = sum_k (-1)^k (2k+1) q^(k(k+1)/2), about sqrt(2n) terms."""
    shifts, coeffs = [], []
    k = 0
    while k * (k + 1) // 2 < n:
        shifts.append(k * (k + 1) // 2)
        coeffs.append(-(2 * k + 1) if k % 2 else 2 * k + 1)
        k += 1
    return shifts, coeffs


def _mulmod(a, b, p):
    """a * b mod p for int64 arrays a, b with entries in [0, p), p < 2^45.

    NTL's MulMod: the quotient q = floor(a * (b / p)) in doubles, then
    r = a b - q p in wrapping int64.  a and b are exact doubles, and the two
    roundings put a * (b / p) < 2^45 within 2^-7 of a b / p, so q is off by
    at most 1 and r lies in (-p, 2p).  That fits int64, so the wrapped
    difference is r itself, and one correction each way lands it in [0, p).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    q = np.floor(a * (b / p)).astype(np.int64)
    # the ufuncs, unlike scalar arithmetic, wrap without a warning
    r = np.subtract(np.multiply(a, b), np.multiply(q, p))
    r = np.where(r < 0, r + p, r)
    return np.where(r >= p, r - p, r)


def _crt_symmetric(res, primes):
    """The integers x with |x| < M / 2 and x = res[:, i] (mod primes[i]),
    M = prod(primes), as a list of Python ints.

    Garner's mixed-radix digits of y = x + (M - 1) / 2 in [0, M) are
    computed in int64 for all entries at once, each product by
    ``_mulmod``.  Less the digits of (M - 1) / 2 they are signed digits of
    x, lifted to Python ints by one fold per modulus past the first.
    """
    half = math.prod(primes) // 2
    digits, signed = [], []
    for i, p in enumerate(primes):
        # d_0 + d_1 p_0 + ... + d_{i-1} p_0 ... p_{i-2} mod p, by Horner
        low = np.zeros(len(res), dtype=np.int64)
        for q, d in zip(primes[i - 1 :: -1], digits[::-1]):
            low = (_mulmod(low, q % p, p) + d) % p
        inv = pow(math.prod(primes[:i]), -1, p)
        digits.append(_mulmod((res[:, i] + half % p - low) % p, inv, p))
        # less the digit of (M - 1) / 2 at this place
        signed.append(digits[-1] - half // math.prod(primes[:i]) % p)
    vals = signed[-1].tolist()
    for q, d in zip(primes[-2::-1], signed[-2::-1]):
        vals = [v * q + e for v, e in zip(vals, d.tolist())]
    return vals


def eta24_coefficients(n):
    """tau(1..n) as Python ints: the q-expansion of eta^24.

    By Jacobi, eta^3 = q^(1/8) J with J = sum_k (-1)^k (2k+1)
    q^(k(k+1)/2), so tau(m) is the coefficient of q^(m-1) in J^8.  J^8
    is formed as eight passes of multiplication by the sparse J, each a
    shift-and-add of J's ~sqrt(2n) terms over an (n, moduli) int64 array
    of residues, reduced modulo the primes after every pass; the first
    pass, applied to 1, just places J, and the rows are contiguous, so
    every shift reads and writes one slice.  The moduli come from Deligne's
    bound (``_eta_moduli``) and the exact integers from the Chinese
    remainder theorem.  Raises ValueError for n < 1 and for an n beyond
    the reach of the moduli.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    primes = _eta_moduli(n)
    shifts, coeffs = _jacobi_terms(n)
    p = np.array(primes, dtype=np.int64)
    res = np.zeros((n, len(primes)), dtype=np.int64)
    res[shifts] = np.array(coeffs, dtype=np.int64)[:, None] % p
    acc = np.empty_like(res)
    tmp = np.empty_like(res)
    # No int64 overflow: residues lie in [0, p), and a pass sums them with
    # weights of total size sum_k (2k+1) = K^2, which _eta_moduli keeps
    # below 2^63 / max(p).
    for _ in range(7):
        acc.fill(0)
        for t, c in zip(shifts, coeffs):
            m = n - t
            np.multiply(res[:m], c, out=tmp[:m])
            acc[t:] += tmp[:m]
        np.remainder(acc, p, out=res)
    return _crt_symmetric(res, primes)
