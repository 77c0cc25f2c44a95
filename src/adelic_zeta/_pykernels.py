"""The numerical kernels: compensated sums, Gaussian lattice sums, Euler
products and the integer eta q-expansion.

Callers reach them through ``_backend.kernels``.  ``neumaier_sum`` is
correctly rounded by ``math.fsum``, so it does not depend on the order of
its terms; the row-wise sums of arrays (``row_sums`` and the batched
lattice sums) are compensated, as accurate as a plain sum in twice the
working precision.  The q-expansion is exact integer arithmetic.
"""

import math

import numpy as np

BACKEND_NAME = "python"

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
    cancellation pattern, unlike the naive left fold.
    """
    z = np.asarray(values, dtype=complex)
    return complex(_fsum(z.real.tolist()), _fsum(z.imag.tolist()))


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
    once.  The row-wise counterpart of ``neumaier_sum``."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        s, e = _pair_sums(a.astype(float))
        return s + e
    s, e = _pair_sums(np.stack((a.real, a.imag)))
    out = np.empty(s.shape[1:], dtype=complex)
    out.real, out.imag = s + e
    return out


def _quiet_from(deg, amax, x_stop, tail_tol):
    """Where the lattice truncation test starts to pass: the smallest double
    x >= x_stop whose term bound 2*amax*max(1,x)^deg*exp(-pi x^2) lies below
    ``tail_tol`` (the bound is 0 once the weight underflows, pi x^2 >= 745).
    Past x_stop the bound decreases, so bisection over the doubles finds it;
    Newton's method on the log of the bound narrows the bracket first.
    None when the test never passes (tail_tol <= 0 or nan)."""

    def quiet(x):
        px = math.pi * x * x
        bound = 0.0 if px >= 745.0 else 2.0 * amax * max(1.0, x) ** deg * math.exp(-px)
        return bound < tail_tol

    lo = x_stop
    if quiet(lo):
        return lo
    hi = math.sqrt(745.0 / math.pi)
    while math.pi * hi * hi < 745.0:
        hi = math.nextafter(hi, math.inf)
    if not quiet(hi):
        return None
    # root of pi x^2 - deg log x - log(2 amax / tail_tol), increasing and
    # convex past x_stop >= 1: from below, one step overshoots, then the
    # iterates fall monotonically onto it
    log_ratio = math.log(2.0 * amax) - math.log(tail_tol)
    x = max(x_stop, math.sqrt(max(log_ratio, 0.0) / math.pi))
    for _ in range(6):
        x -= (math.pi * x * x - deg * math.log(x) - log_ratio) / (2.0 * math.pi * x - deg / x)
    a, b = x * (1.0 - 1e-14), x * (1.0 + 1e-14)
    if lo < a < hi and not quiet(a):
        lo = a
    if lo < b < hi and quiet(b):
        hi = b
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
    live = (px < 745.0) & (ks <= last[:, None])
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


def gauss_poly_lattice_sums(scales, coeffs, tail_tol):
    """sum_{k>=1} (P(k*s) + P(-k*s)) * exp(-pi*(k*s)^2) for every scale s.

    P is the polynomial with (complex) ``coeffs`` in ascending order.  Odd
    powers cancel between +k and -k, so only the even part is evaluated;
    in particular an odd P gives exactly 0.  Returns (values, kmax): complex
    sums and the last lattice index each includes.  Truncation: past the
    hump x_stop of x^deg*exp(-pi x^2), stop after two consecutive indices
    whose term bound 2*amax*max(1,x)^deg*exp(-pi x^2) is below ``tail_tol``.
    That index is computed for every scale before any term is: a scale
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
    deg = len(coeffs) - 1
    amax = sum(abs(c) for c in coeffs)
    # beyond x_stop the term bound 2*amax*max(1,x)^deg*exp(-pi x^2) decreases
    x_stop = max(1.0, math.sqrt(deg / (2.0 * math.pi)) + 0.5)
    x_q = _quiet_from(deg, amax, x_stop, tail_tol)
    if x_q is None:
        raise RuntimeError("lattice sum did not terminate (scale too small)")
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


def gauss_poly_lattice_sum(scale, coeffs, tail_tol):
    """The lattice sum of ``gauss_poly_lattice_sums`` at one scale, as
    (complex value, kmax)."""
    if not (0.0 < scale < math.inf):
        raise ValueError("scale must be positive and finite")
    values, kmax = gauss_poly_lattice_sums(np.array([scale]), coeffs, tail_tol)
    return complex(values[0]), int(kmax[0])


def euler_product(primes, coeffs, s):
    """prod_p 1/poly_p(p^{-s}); ``coeffs[i]`` are the ascending coefficients
    of the local polynomial at ``primes[i]``, all of one length.

    The local factors are evaluated together by Horner's rule and
    multiplied by ``np.prod``.
    """
    s = complex(s)
    x = np.exp(-s * np.log(np.asarray(primes, dtype=float)))
    rows = np.asarray(coeffs, dtype=complex)
    val = np.zeros_like(x)
    for col in rows.T[::-1]:
        val = val * x + col
    vanish = np.abs(val) < 1e-300
    if vanish.any():
        raise ZeroDivisionError(
            f"local factor vanishes at p={primes[int(np.argmax(vanish))]}"
        )
    return complex(1.0 / np.prod(val))


def _square_truncated(a, length):
    """Coefficients of (sum a_i X^i)^2 up to X^(length-1), exact integers.

    Kronecker substitution: evaluate at X = 2^b with b wide enough that the
    product's balanced digits do not interfere, square one big integer, and
    read the signed digits back off with a carry chain.
    """
    amax = max((abs(x) for x in a), default=0)
    if amax == 0:
        return [0] * length
    b = 2 * amax.bit_length() + len(a).bit_length() + 2
    b = ((b + 7) // 8) * 8
    w = b // 8
    pos = bytearray(len(a) * w)
    neg = bytearray(len(a) * w)
    for i, c in enumerate(a):
        if c > 0:
            pos[i * w : i * w + w] = int(c).to_bytes(w, "little")
        elif c < 0:
            neg[i * w : i * w + w] = int(-c).to_bytes(w, "little")
    big = int.from_bytes(bytes(pos), "little") - int.from_bytes(bytes(neg), "little")
    sq = big * big
    nbytes = max((sq.bit_length() + 7) // 8, length * w) + 16
    raw = sq.to_bytes(nbytes, "little")
    out = []
    half = 1 << (b - 1)
    full = 1 << b
    carry = 0
    for i in range(length):
        d = int.from_bytes(raw[i * w : i * w + w], "little") + carry
        if d >= half:
            d -= full
            carry = 1
        else:
            carry = 0
        out.append(d)
    return out


def eta24_coefficients(n):
    """tau(1..n): q-expansion of the 24th power of the eta quotient.

    The generating square root chain J = sum_k (-1)^k (2k+1) q^{k(k+1)/2}
    satisfies J^8 = sum tau(m) q^{m-1}; three truncated squarings give the
    exact integer coefficients.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    j = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        j[k * (k + 1) // 2] = (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)
        k += 1
    j2 = _square_truncated(j, n)
    j4 = _square_truncated(j2, n)
    return _square_truncated(j4, n)
