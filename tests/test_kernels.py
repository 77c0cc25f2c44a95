"""The numerical kernels against independent oracles: exact rational
sums, brute-force lattice sums at high precision, the term-by-term
lattice loop, a per-prime Euler product loop and the pentagonal-number
expansion of eta^24."""

import cmath
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic_zeta import _pykernels as kernels


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
            value, kmax = kernels.gauss_poly_lattice_sum(scale, coeffs, 1e-17)
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
            values, kmax = kernels.gauss_poly_lattice_sums(scales, coeffs, 1e-17)
            assert kmax.max() > 3 * 3
            for scale, value in zip(scales, values):
                ref = brute_lattice_sum(scale, coeffs)
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))

    @settings(max_examples=150, deadline=None)
    @given(
        coeffs=st.lists(coefficient, min_size=1, max_size=9),
        tail_tol=st.sampled_from((1e-17, 1e-10, 1e3)),
        scales=st.lists(st.floats(1e-2, 30.0), min_size=1, max_size=8),
    )
    def test_batch_matches_the_loop(self, coeffs, tail_tol, scales):
        values, kmax = kernels.gauss_poly_lattice_sums(scales, tuple(coeffs), tail_tol)
        for scale, value, k in zip(scales, values, kmax):
            ref, ref_k = loop_lattice_sum(scale, coeffs, tail_tol)
            assert k == ref_k
            assert abs(value - ref) <= 4e-16 * max(1.0, abs(ref))

    def test_one_row_call(self):
        value, kmax = kernels.gauss_poly_lattice_sum(0.3, (1.0, 0.0, 2.0 + 1j), 1e-17)
        assert type(value) is complex and type(kmax) is int
        values, kmaxs = kernels.gauss_poly_lattice_sums([0.3], (1.0, 0.0, 2.0 + 1j), 1e-17)
        assert (value, kmax) == (values[0], kmaxs[0])

    def test_odd_polynomial_is_exact_zero(self):
        value, kmax = kernels.gauss_poly_lattice_sum(0.5, (0.0, 1.0, 0.0, 2.0), 1e-17)
        assert value == 0j and kmax == 0

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_scale_domain(self, scale):
        with pytest.raises(ValueError):
            kernels.gauss_poly_lattice_sum(scale, (1.0,), 1e-17)
        with pytest.raises(ValueError):
            kernels.gauss_poly_lattice_sums([1.0, scale], (1.0,), 1e-17)

    def test_guard_refuses_exactly_what_the_loop_refuses(self, monkeypatch):
        # The kernel with cap M must refuse exactly the scales that the
        # loop with cap M refuses, before it computes any term, and return
        # the loop's kmax for the others.
        rng = random.Random(2024)
        cap = 1000
        cases = []
        for _ in range(300):
            deg = rng.randint(0, 8)
            coeffs = tuple(
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(deg + 1)
            )
            tail_tol = rng.choice((1e-17, 1e-10, 1e3))
            kmax = kernels.gauss_poly_lattice_sum(1e-3, coeffs, tail_tol)[1]
            if kmax == 0:
                continue  # odd polynomial: no loop at all
            # scales whose stopping index lies within ~15% of the cap
            scale = kmax * 1e-3 / (cap * rng.uniform(0.85, 1.15))
            cases.append((scale, coeffs, tail_tol))

        blocks = []
        real_block = kernels._lattice_block
        monkeypatch.setattr(kernels, "_MAX_LATTICE_TERMS", cap)
        monkeypatch.setattr(
            kernels, "_lattice_block", lambda *a: blocks.append(a) or real_block(*a)
        )
        sides = set()
        for case in cases:
            try:
                ref = loop_lattice_sum(*case, cap=cap)
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
                assert abs(value - ref[0]) <= 4e-16 * max(1.0, abs(ref[0]))
        assert sides == {"refused", "accepted"}

    def test_tiny_scale_refused_without_looping(self):
        start = time.perf_counter()
        with pytest.raises(RuntimeError):
            kernels.gauss_poly_lattice_sum(1e-300, (1.0,), 1e-17)
        with pytest.raises(RuntimeError):
            kernels.gauss_poly_lattice_sums([1.0, 5e-324], (0.0, 0.0, 1.0), 1e-17)
        assert time.perf_counter() - start < 0.1

    def test_huge_scales_raise_no_warning(self):
        # overflowing x, x^2 and exp arguments are masked inside the kernel
        values, kmax = kernels.gauss_poly_lattice_sums(
            [1e200, 1e308, 3.0], (1e300, 0.0, 1e300), 1e-17
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
        with pytest.raises(ZeroDivisionError, match="p=7"):
            kernels.euler_product(self.PRIMES, coeffs, 2.0)


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


class TestEta24:
    def test_matches_pentagonal_expansion(self):
        got = list(kernels.eta24_coefficients(5000))
        assert got == pentagonal_eta24(5000)
        assert got[:5] == [1, -24, 252, -1472, 4830]
        # the largest entries do not fit a 64-bit word
        assert max(abs(x) for x in got) > 2**63

    def test_domain(self):
        with pytest.raises(ValueError):
            kernels.eta24_coefficients(0)
