"""The numerical kernels against independent oracles: exact rational
sums, brute-force lattice sums at high precision, the term-by-term
lattice loop, a per-prime Euler product loop, and two expansions of
eta^24 (the pentagonal-number recurrence and big-integer squarings)
checked further by identities of tau at the library's cap."""

import cmath
import hashlib
import math
import random
import struct
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic_zeta import _pykernels as kernels
from adelic_zeta import lfun
from adelic_zeta.numkit import PoleError


_SUM_CELLS = st.one_of(
    st.floats(), st.sampled_from((0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324)))


class TestNeumaierSum:
    def test_correctly_rounded_on_seeded_complex_data(self):
        rng = random.Random(99)
        data = [
            complex(rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8), rng.uniform(-1, 1))
            for _ in range(5000)
        ]
        exact_re = float(sum(Fraction(z.real) for z in data))
        exact_im = float(sum(Fraction(z.imag) for z in data))
        assert kernels.neumaier_sum(data) == complex(exact_re, exact_im)

    def test_non_finite_terms_follow_ieee(self):
        assert kernels.neumaier_sum([1e308, 1e308]) == complex(math.inf, 0.0)
        value = kernels.neumaier_sum([math.inf, -math.inf, 1.0])
        assert math.isnan(value.real)

    @staticmethod
    def _bits(z):
        return struct.pack("<dd", z.real, z.imag)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_are_bitwise_the_one_dimensional_sums(self, data):
        # each row of a 2-D call, real or complex, is bitwise the 1-D call
        # on that row, through inf, nan, overflowing partials (the _fsum
        # fallback), subnormals and -0.0
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 24))
        cells = st.lists(_SUM_CELLS, min_size=rows * cols, max_size=rows * cols)
        re = np.array(data.draw(cells), dtype=float).reshape(rows, cols)
        z = np.empty((rows, cols), dtype=complex)
        z.real, z.imag = re, np.array(data.draw(cells), dtype=float).reshape(rows, cols)
        for a in (re, z):
            sums = kernels.neumaier_sum(a)
            assert len(sums) == rows and all(type(x) is complex for x in sums)
            assert [self._bits(x) for x in sums] == [
                self._bits(kernels.neumaier_sum(row)) for row in a]
        # a real row sums as its complex cast does, imaginary part 0.0
        assert [self._bits(x) for x in kernels.neumaier_sum(re)] == [
            self._bits(x) for x in kernels.neumaier_sum(re.astype(complex))]

    def test_rows_keep_the_fallback_and_signed_zeros(self):
        rows = np.array([[1e308, 1e308, -1e308], [math.inf, -math.inf, 1.0],
                         [-0.0, -0.0, -0.0], [1e308, -1e308, 5e-324]])
        for a in (rows, rows * (1 - 1j)):
            sums = kernels.neumaier_sum(a)
            assert [self._bits(x) for x in sums] == [
                self._bits(kernels.neumaier_sum(row)) for row in a]
        sums = kernels.neumaier_sum(rows)
        assert sums[0] == complex(math.inf, 0.0)
        assert math.isnan(sums[1].real) and sums[1].imag == 0.0
        assert self._bits(sums[2]) == self._bits(complex(math.fsum([-0.0]), 0.0))
        assert sums[3] == complex(5e-324, 0.0)


def brute_lattice_sum(scale, coeffs):
    """sum_{k>=1} (P(ks) + P(-ks)) exp(-pi (ks)^2) at 40 digits, summed far
    past the point where the Gaussian factor drops below 1e-80."""
    with mp.workdps(40):
        total = mp.mpc(0)
        for k in range(1, int(8.0 / scale) + 2):
            x = mp.mpf(k) * mp.mpf(scale)
            p_plus = sum(mp.mpc(c) * x**i for i, c in enumerate(coeffs))
            p_minus = sum(mp.mpc(c) * (-x) ** i for i, c in enumerate(coeffs))
            total += (p_plus + p_minus) * mp.exp(-mp.pi * x * x)
        return complex(total)


def loop_lattice_sum(scale, coeffs, tail_tol, cap=kernels._MAX_LATTICE_TERMS):
    """The lattice sum term by term with the kernel's truncation rule: past
    x_stop, stop after two consecutive term bounds below tail_tol.  Returns
    (value, kmax), the parts summed by math.fsum; refuses with RuntimeError
    once it passes ``cap`` terms."""
    even = list(coeffs[0::2])
    if not any(abs(c) != 0.0 for c in even):
        return 0j, 0
    deg = len(coeffs) - 1
    amax = sum(abs(c) for c in coeffs)
    x_stop = max(1.0, math.sqrt(deg / (2.0 * math.pi)) + 0.5)
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
        if x >= x_stop:
            bound = 0.0 if w == 0.0 else 2.0 * amax * max(1.0, x) ** deg * w
            if bound < tail_tol:
                quiet += 1
                if quiet >= 2:
                    return complex(math.fsum(re), math.fsum(im)), k
            else:
                quiet = 0
        if k >= cap:
            raise RuntimeError("lattice sum did not terminate")


coefficient = st.builds(
    complex,
    st.floats(-3.0, 3.0, allow_subnormal=False),
    st.floats(-3.0, 3.0, allow_subnormal=False),
)


class TestLatticeSum:
    def test_matches_brute_force(self):
        rng = random.Random(4242)
        for _ in range(25):
            deg = rng.randint(0, 8)
            coeffs = tuple(
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(deg + 1)
            )
            scale = 10.0 ** rng.uniform(-2.0, 1.0)
            value, kmax = kernels.gauss_poly_lattice_sum(scale, coeffs)
            ref = brute_lattice_sum(scale, coeffs)
            assert kmax >= 2
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), (scale, coeffs)

    def test_chunked_sums_match_brute_force(self, monkeypatch):
        # long sums run over column chunks to bound memory; with chunks of
        # 3 cells these short sums cross many chunk boundaries, one row
        # at a time and several rows together
        monkeypatch.setattr(kernels, "_CHUNK_TERMS", 3)
        for scales, coeffs in (
            ([0.05], (1.0, 0.5j, 0.25)),
            ([0.2], (2.0 - 1j, 0.0, -0.5, 0.0, 0.1)),
            ([0.05, 0.3, 0.11], (1.0, 0.5j, 0.25)),
        ):
            values, kmax = kernels.gauss_poly_lattice_sums(scales, coeffs)
            assert kmax.max() > 3 * 3
            for scale, value in zip(scales, values):
                ref = brute_lattice_sum(scale, coeffs)
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))

    # coefficients scaled by 1, 1e-7 and 1e-20 put amax / TAIL_TOL where
    # tolerances 1e-17, 1e-10 and 1e3 put it for unscaled ones: long sums,
    # and polynomials whose test passes already at x_stop
    @settings(max_examples=150, deadline=None)
    @given(
        coeffs=st.lists(coefficient, min_size=1, max_size=9),
        coeff_scale=st.sampled_from((1.0, 1e-7, 1e-20)),
        scales=st.lists(st.floats(1e-2, 30.0), min_size=1, max_size=8),
    )
    def test_batch_matches_the_loop(self, coeffs, coeff_scale, scales):
        coeffs = tuple(c * coeff_scale for c in coeffs)
        values, kmax = kernels.gauss_poly_lattice_sums(scales, coeffs)
        for scale, value, k in zip(scales, values, kmax):
            ref, ref_k = loop_lattice_sum(scale, coeffs, kernels.TAIL_TOL)
            assert k == ref_k
            # the unscaled bound 4e-16 * max(1, |ref|), scaled with the coefficients
            assert abs(value - ref) <= 4e-16 * max(coeff_scale, abs(ref))

    def test_one_row_call(self):
        value, kmax = kernels.gauss_poly_lattice_sum(0.3, (1.0, 0.0, 2.0 + 1j))
        assert type(value) is complex and type(kmax) is int
        values, kmaxs = kernels.gauss_poly_lattice_sums([0.3], (1.0, 0.0, 2.0 + 1j))
        assert (value, kmax) == (values[0], kmaxs[0])

    def test_odd_polynomial_is_exact_zero(self):
        value, kmax = kernels.gauss_poly_lattice_sum(0.5, (0.0, 1.0, 0.0, 2.0))
        assert value == 0j and kmax == 0

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_scale_domain(self, scale):
        with pytest.raises(ValueError):
            kernels.gauss_poly_lattice_sum(scale, (1.0,))
        with pytest.raises(ValueError):
            kernels.gauss_poly_lattice_sums([1.0, scale], (1.0,))

    def test_guard_refuses_exactly_what_the_loop_refuses(self, monkeypatch):
        # The kernel with cap M must refuse exactly the scales that the
        # loop with cap M refuses, before it computes any term, and return
        # the loop's kmax for the others.
        rng = random.Random(2024)
        cap = 1000
        cases = []
        for _ in range(300):
            deg = rng.randint(0, 8)
            coeff_scale = rng.choice((1.0, 1e-7, 1e-20))
            coeffs = tuple(
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * coeff_scale
                for _ in range(deg + 1)
            )
            kmax = kernels.gauss_poly_lattice_sum(1e-3, coeffs)[1]
            if kmax == 0:
                continue  # odd polynomial: no loop at all
            # scales whose stopping index lies within ~15% of the cap
            scale = kmax * 1e-3 / (cap * rng.uniform(0.85, 1.15))
            cases.append((scale, coeffs, coeff_scale))

        blocks = []
        real_block = kernels._lattice_block
        monkeypatch.setattr(kernels, "_MAX_LATTICE_TERMS", cap)
        monkeypatch.setattr(
            kernels, "_lattice_block", lambda *a: blocks.append(a) or real_block(*a)
        )
        sides = set()
        for *case, coeff_scale in cases:
            try:
                ref = loop_lattice_sum(*case, kernels.TAIL_TOL, cap=cap)
            except RuntimeError:
                sides.add("refused")
                before = len(blocks)
                with pytest.raises(RuntimeError):
                    kernels.gauss_poly_lattice_sum(*case)
                assert len(blocks) == before, case
            else:
                sides.add("accepted")
                value, kmax = kernels.gauss_poly_lattice_sum(*case)
                assert kmax == ref[1]
                assert abs(value - ref[0]) <= 4e-16 * max(coeff_scale, abs(ref[0]))
        assert sides == {"refused", "accepted"}

    def test_tiny_scale_refused_without_looping(self):
        start = time.perf_counter()
        with pytest.raises(RuntimeError):
            kernels.gauss_poly_lattice_sum(1e-300, (1.0,))
        with pytest.raises(RuntimeError):
            kernels.gauss_poly_lattice_sums([1.0, 5e-324], (0.0, 0.0, 1.0))
        assert time.perf_counter() - start < 0.1

    def test_huge_scales_raise_no_warning(self):
        # overflowing x, x^2 and exp arguments are masked inside the kernel
        values, kmax = kernels.gauss_poly_lattice_sums(
            [1e200, 1e308, 3.0], (1e300, 0.0, 1e300)
        )
        assert values[0] == 0j and values[1] == 0j and list(kmax[:2]) == [2, 2]


class TestRowSums:
    def test_matches_fsum_on_cancelling_rows(self):
        # compensated: within one rounding of the exact sum
        rng = random.Random(5)
        for n in (1, 2, 3, 7, 64, 100):
            row = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(n)]
            ref = math.fsum(row)
            assert abs(kernels.row_sums(np.array([row]))[0] - ref) <= 1.2e-16 * abs(ref)
        assert kernels.row_sums(np.array([[1.0, 1e16, 1.0, -1e16, 1.0]]))[0] == 3.0

    def test_complex_rows(self):
        a = np.array([[1e12 + 1j, -1e12 + 1j, 3.5 - 2j], [1j, 2.0, -1j]])
        assert list(kernels.row_sums(a)) == [3.5 + 0j, 2.0 + 0j]


def per_prime_product(primes, coeffs, s):
    res = 1.0 + 0.0j
    for p, row in zip(primes, coeffs):
        x = cmath.exp(-s * math.log(p))
        res /= sum(complex(c) * x**j for j, c in enumerate(row))
    return res


class TestEulerProduct:
    PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_matches_per_prime_loop(self):
        rng = random.Random(7)
        coeffs = [
            tuple(
                [1.0]
                + [complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3)) for _ in range(2)]
            )
            for _ in self.PRIMES
        ]
        for s in (2.0, 1.5 + 3.0j, 4.0 - 1.0j):
            got = kernels.euler_product(self.PRIMES, coeffs, s)
            ref = per_prime_product(self.PRIMES, coeffs, complex(s))
            assert abs(got - ref) <= 1e-13 * abs(ref), s

    def test_vanishing_factor_names_the_prime(self):
        coeffs = [(1.0, -0.5)] * len(self.PRIMES)
        coeffs[3] = (0.0, 0.0)
        with pytest.raises(PoleError, match="p=7"):
            kernels.euler_product(self.PRIMES, coeffs, 2.0)

    def test_cancellation_below_relative_bound_is_a_pole(self):
        # at s = 0 every x is 1: the row (1, c) has value 1 + c and terms of
        # size 1 + |c|, so 1 - (1 - 1e-14) is at most 1e-13 times its terms
        coeffs = [(1.0, -0.5)] * len(self.PRIMES)
        coeffs[4] = (1.0, -1.0 + 1e-14)
        with pytest.raises(PoleError, match="p=11"):
            kernels.euler_product(self.PRIMES, coeffs, 0.0)
        coeffs[4] = (1.0, -1.0 + 1e-12)  # 1e-12 exceeds 1e-13 * 2: a value
        assert kernels.euler_product(self.PRIMES, coeffs, 0.0) == 1.0 / math.prod(
            [0.5] * 4 + [1.0 + (-1.0 + 1e-12)] + [0.5] * 5)


def pentagonal_eta24(n):
    """Coefficients of prod_{m>=1} (1 - q^m)^24 up to q^(n-1), i.e. tau(1..n).

    The product is Euler's pentagonal series P = sum_k (-1)^k q^(k(3k-1)/2)
    over all integers k; its 24th power comes from the power-series
    recurrence j f_j = sum_{i=1..j} (25 i - j) p_i f_(j-i), exact in
    integers since p_0 = 1.
    """
    p = {}
    k = 0
    while True:
        k += 1
        hit = False
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < n:
                p[e] = -1 if k % 2 else 1
                hit = True
        if not hit:
            break
    terms = sorted(p.items())
    f = [1] + [0] * (n - 1)
    for j in range(1, n):
        acc = 0
        for i, pi in terms:
            if i > j:
                break
            acc += (25 * i - j) * pi * f[j - i]
        f[j] = acc // j
    return f


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


def kronecker_eta24(n):
    """tau(1..n) as J^8 by three truncated big-integer squarings of Jacobi's
    J = sum_k (-1)^k (2k+1) q^(k(k+1)/2): no modulus and no CRT."""
    j = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        j[k * (k + 1) // 2] = (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)
        k += 1
    return _square_truncated(_square_truncated(_square_truncated(j, n), n), n)


def _moduli_count(n):
    """How many moduli the kernel takes for tau(1..n); one more than it
    holds once it refuses."""
    try:
        return len(kernels._eta_moduli(n))
    except ValueError:
        return len(kernels._ETA_PRIMES) + 1


def _least_n_with(count):
    """The least n for which the kernel takes ``count`` moduli or more, by
    bisection (the count never falls as n grows)."""
    hi = 1
    while _moduli_count(hi) < count:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _moduli_count(mid) < count:
            lo = mid
        else:
            hi = mid
    return hi


class TestEta24:
    def test_matches_pentagonal_expansion(self):
        got = list(kernels.eta24_coefficients(5000))
        assert got == pentagonal_eta24(5000)
        assert got[:5] == [1, -24, 252, -1472, 4830]
        # the largest entries do not fit a 64-bit word
        assert max(abs(x) for x in got) > 2**63

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 5000, 20000])
    def test_matches_kronecker_squarings(self, n):
        assert kernels.eta24_coefficients(n) == kronecker_eta24(n)

    def test_where_jacobi_series_gains_a_term(self):
        oracle = kronecker_eta24(302)
        k = 0
        while k * (k + 1) // 2 <= 300:
            tri = k * (k + 1) // 2
            for n in range(max(tri - 1, 1), tri + 2):
                assert kernels.eta24_coefficients(n) == oracle[:n], n
            k += 1

    def test_both_sides_of_each_modulus_step(self):
        steps = [_least_n_with(count) for count in (2, 3)]
        # Deligne's bound 4 n^6 against products of primes below 2^45
        assert steps == [144, 26008]
        for n in steps:
            oracle = kronecker_eta24(n)
            assert kernels.eta24_coefficients(n) == oracle
            assert kernels.eta24_coefficients(n - 1) == oracle[:-1]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3000))
    def test_random_lengths_match_kronecker_squarings(self, n):
        assert kernels.eta24_coefficients(n) == kronecker_eta24(n)

    def test_refuses_n_beyond_the_moduli_without_allocating(self):
        # a pass could overflow int64 from K = 513 Jacobi terms on
        n = _least_n_with(len(kernels._ETA_PRIMES) + 1)
        assert n == 131329 == 512 * 513 // 2 + 1
        assert len(kernels._eta_moduli(n - 1)) == len(kernels._ETA_PRIMES)
        tracemalloc.start()
        try:
            for bad in (n, 10**12):
                with pytest.raises(ValueError, match="out of reach of the exact route"):
                    kernels.eta24_coefficients(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_a_pass_cannot_overflow_int64(self):
        pmax = max(kernels._ETA_PRIMES)
        assert all(p < 2**45 for p in kernels._ETA_PRIMES)
        # the largest n the moduli accept (see the refusal test), past the cap
        _, coeffs = kernels._jacobi_terms(131328)
        assert pmax * sum(abs(c) for c in coeffs) < 2**63
        assert lfun._MAX_TAU < 131328

    def test_moduli_are_the_three_largest_primes_below_2_45(self):
        # trial division by every prime up to 2^22.5 > sqrt(2^45)
        small = np.array(_primes_below(math.isqrt(2**45) + 1), dtype=np.int64)
        lowest = min(kernels._ETA_PRIMES)
        found = [m for m in range(2**45 - 1, lowest - 1, -1) if (m % small).all()]
        assert tuple(found) == kernels._ETA_PRIMES

    @pytest.mark.parametrize("p", kernels._ETA_PRIMES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mulmod_matches_python(self, p, data):
        entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        pairs = data.draw(st.lists(st.tuples(entry, entry), min_size=1, max_size=64))
        a, b = (np.array(x, dtype=np.int64) for x in zip(*pairs))
        assert kernels._mulmod(a, b, p).tolist() == [x * y % p for x, y in pairs]

    @pytest.mark.parametrize("p", kernels._ETA_PRIMES)
    def test_mulmod_corrects_the_quotient_both_ways(self, p):
        # products just above and just below a multiple of p, where the float
        # quotient rounds across an integer one way or the other
        rng = np.random.default_rng(45)
        a = rng.integers(p // 2, p, size=2000).tolist() * 2
        b = [r * pow(x, -1, p) % p for r in (32, p - 32) for x in a[:2000]]
        got = kernels._mulmod(np.array(a), np.array(b), p).tolist()
        assert got == [x * y % p for x, y in zip(a, b)]
        q = np.floor(np.array(a) * (np.array(b) / p)).astype(np.int64).tolist()
        assert {qq - x * y // p for qq, x, y in zip(q, a, b)} == {-1, 0, 1}

    def test_domain(self):
        with pytest.raises(ValueError):
            kernels.eta24_coefficients(0)


def _primes_below(n):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def _sigma11_mod691(n):
    """sigma_11(m) mod 691 for m = 1..n by a divisor sieve."""
    d = np.arange(1, n + 1, dtype=np.int64)
    power = np.ones_like(d)
    for _ in range(11):
        power = power * d % 691
    sigma = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, n + 1):
        sigma[k::k] += power[k - 1]
    return (sigma[1:] % 691).tolist()


@pytest.fixture(scope="module")
def tau_at_cap():
    return kernels.eta24_coefficients(lfun._MAX_TAU)


class TestEta24AtCap:
    """tau(1..100000) against identities that use neither expansion, and
    bitwise against a digest of the table."""

    def test_table_digest(self, tau_at_cap):
        # SHA-256 of repr(tau(1..100000)) from the multimodular route on four
        # primes below 2^31, which predates the route on 45-bit primes
        digest = hashlib.sha256(repr(tau_at_cap).encode()).hexdigest()
        assert digest == "912359815cf84eeaf161b5ffd8cf11df5d2556017dafab1aaedc944ba9866ac2"

    def test_every_value_is_a_python_int(self, tau_at_cap):
        assert len(tau_at_cap) == lfun._MAX_TAU
        assert all(type(t) is int for t in tau_at_cap)
        assert tau_at_cap[:5] == [1, -24, 252, -1472, 4830]

    def test_ramanujan_congruence_mod_691(self, tau_at_cap):
        sigma = _sigma11_mod691(len(tau_at_cap))
        assert [t % 691 for t in tau_at_cap] == sigma

    def test_multiplicative_on_coprime_pairs(self, tau_at_cap):
        n = len(tau_at_cap)
        rng = random.Random(691)
        checked = 0
        while checked < 500:
            a = rng.randint(2, 2000)
            b = rng.randint(2, n // a)
            if math.gcd(a, b) == 1:
                assert tau_at_cap[a * b - 1] == tau_at_cap[a - 1] * tau_at_cap[b - 1]
                checked += 1

    def test_hecke_relation_at_prime_squares(self, tau_at_cap):
        for p in _primes_below(math.isqrt(len(tau_at_cap)) + 1):
            tp = tau_at_cap[p - 1]
            assert tau_at_cap[p * p - 1] == tp * tp - p**11

    def test_deligne_bound_at_primes(self, tau_at_cap):
        for p in _primes_below(len(tau_at_cap) + 1):
            # |tau(p)| <= 2 p^(11/2), squared to stay in integers
            assert tau_at_cap[p - 1] ** 2 <= 4 * p**11
