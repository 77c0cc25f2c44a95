"""The numerical kernels against independent oracles: exact rational
sums, brute-force lattice sums at high precision, a per-prime Euler
product loop and the pentagonal-number expansion of eta^24."""

import cmath
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

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

    def test_folded_partial_sums_match_brute_force(self, monkeypatch):
        # long sums fold their partial sums to bound memory; fold every
        # 3 terms so these short sums take that path many times
        monkeypatch.setattr(kernels, "_FOLD_TERMS", 3)
        for scale, coeffs in ((0.05, (1.0, 0.5j, 0.25)), (0.2, (2.0 - 1j, 0.0, -0.5, 0.0, 0.1))):
            value, kmax = kernels.gauss_poly_lattice_sum(scale, coeffs, 1e-17)
            ref = brute_lattice_sum(scale, coeffs)
            assert kmax > 3 * 3
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_odd_polynomial_is_exact_zero(self):
        value, kmax = kernels.gauss_poly_lattice_sum(0.5, (0.0, 1.0, 0.0, 2.0), 1e-17)
        assert value == 0j and kmax == 0

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_scale_domain(self, scale):
        with pytest.raises(ValueError):
            kernels.gauss_poly_lattice_sum(scale, (1.0,), 1e-17)

    def test_guard_refuses_exactly_what_the_loop_refuses(self, monkeypatch):
        # The loop with cap M returns what the uncapped loop returns when
        # that stops by index M, and refuses otherwise; the guard in front
        # of it must not change either outcome.
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
            # scales whose uncapped stopping index lies within ~15% of the cap
            scale = kmax * 1e-3 / (cap * rng.uniform(0.85, 1.15))
            cases.append((scale, coeffs, tail_tol))
        uncapped = [kernels.gauss_poly_lattice_sum(*case) for case in cases]

        loops = []
        real_loop = kernels._lattice_loop
        monkeypatch.setattr(kernels, "_MAX_LATTICE_TERMS", cap)
        monkeypatch.setattr(
            kernels, "_lattice_loop", lambda *a: loops.append(a) or real_loop(*a)
        )
        sides = set()
        for case, (value, kmax) in zip(cases, uncapped):
            if kmax > cap:
                sides.add("refused")
                with pytest.raises(RuntimeError):
                    kernels.gauss_poly_lattice_sum(*case)
            else:
                sides.add("accepted")
                assert kernels.gauss_poly_lattice_sum(*case) == (value, kmax)
        assert sides == {"refused", "accepted"}
        # most refusals come from the guard, without entering the loop
        refused = sum(kmax > cap for _v, kmax in uncapped)
        assert len(loops) < len(cases) - refused // 2

    def test_tiny_scale_refused_without_looping(self):
        start = time.perf_counter()
        with pytest.raises(RuntimeError):
            kernels.gauss_poly_lattice_sum(1e-300, (1.0,), 1e-17)
        assert time.perf_counter() - start < 0.1


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
