"""The numerical kernels: compensated sums, Gaussian lattice sums, Euler
products and the integer eta q-expansion.

Callers reach them through ``_backend.kernels``.  Sums are correctly
rounded by ``math.fsum``, so they do not depend on the order of their
terms; the q-expansion is exact integer arithmetic.
"""

import math

import numpy as np

BACKEND_NAME = "python"

_MAX_LATTICE_TERMS = 5_000_000
# terms kept before a lattice sum folds its partial sums into one float, so
# memory stays bounded however many terms a small scale needs
_FOLD_TERMS = 1 << 16


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


def _lattice_loop(scale, even, deg, amax, x_stop, tail_tol):
    """The lattice sum term by term, with the truncation rule of
    ``gauss_poly_lattice_sum``; refuses once it passes _MAX_LATTICE_TERMS."""
    even = even[::-1]
    re, im = [], []
    k = 0
    quiet = 0
    while True:
        k += 1
        x = k * scale
        w = math.exp(-math.pi * x * x) if math.pi * x * x < 745.0 else 0.0
        if w != 0.0:
            y = x * x
            pe = 0j
            for c in even:
                pe = pe * y + c
            term = 2.0 * w * pe
            re.append(term.real)
            im.append(term.imag)
            if len(re) == _FOLD_TERMS:
                re, im = [_fsum(re)], [_fsum(im)]
        if x >= x_stop:
            bound = 0.0 if w == 0.0 else 2.0 * amax * max(1.0, x) ** deg * w
            if bound < tail_tol:
                quiet += 1
                if quiet >= 2:
                    return complex(_fsum(re), _fsum(im)), k
            else:
                quiet = 0
        if k >= _MAX_LATTICE_TERMS:
            raise RuntimeError("lattice sum did not terminate (scale too small)")


def gauss_poly_lattice_sum(scale, coeffs, tail_tol):
    """sum_{k>=1} (P(k*scale) + P(-k*scale)) * exp(-pi*(k*scale)^2).

    P is the polynomial with (complex) ``coeffs`` in ascending order.  Odd
    powers cancel between +k and -k, so only the even part is evaluated;
    in particular an odd P gives exactly 0.  Returns (value, kmax) where
    kmax is the last lattice index included.  Truncation: stop once past
    the hump of x^deg*exp(-pi x^2) with two consecutive term bounds below
    ``tail_tol``.  A scale so small that the loop would pass
    _MAX_LATTICE_TERMS is refused with RuntimeError before it starts.
    """
    if not (0.0 < scale < math.inf):
        raise ValueError("scale must be positive and finite")
    even = list(coeffs[0::2])
    if not any(abs(c) != 0.0 for c in even):
        return 0j, 0
    deg = len(coeffs) - 1
    amax = sum(abs(c) for c in coeffs)
    # beyond x_stop the term bound 2*amax*max(1,x)^deg*exp(-pi x^2) decreases
    x_stop = max(1.0, math.sqrt(deg / (2.0 * math.pi)) + 0.5)
    # The loop stops one index after a point x >= x_stop where the term
    # bound is below tail_tol (so x > sqrt(log(2*amax/tail_tol)/pi)) or the
    # weight underflows (x >= sqrt(745/pi)).  If even the first such x lies
    # past the last allowed index, the loop would refuse; do it now.
    ratio = 2.0 * amax / tail_tol
    x_first = math.sqrt(math.log(ratio) / math.pi) if ratio > 1.0 else 0.0
    x_first = max(x_stop, min(x_first, math.sqrt(745.0 / math.pi)))
    if x_first / scale > _MAX_LATTICE_TERMS:
        raise RuntimeError("lattice sum did not terminate (scale too small)")
    return _lattice_loop(scale, even, deg, amax, x_stop, tail_tol)


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
