"""Numerical substrate tests: gamma, quadratures, compensated sums,
root bracketing."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic_zeta.numkit import (
    NonConvergenceError,
    PoleError,
    QuadratureSpec,
    bracket_and_bisect,
    gamma,
    integrate_finite,
    integrate_halfline,
    sum_compensated,
)


def spouge_gamma(z: complex, a: int = 12) -> complex:
    """Independent oracle: Spouge's series, good to ~1e-11 for Re z >= 0.5."""
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * spouge_gamma(1.0 - z, a))
    z = z - 1.0
    acc = complex(math.sqrt(2.0 * math.pi))
    for k in range(1, a):
        c_k = ((-1) ** (k - 1)) / math.factorial(k - 1) * (a - k) ** (k - 0.5) * math.exp(a - k)
        acc += c_k / (z + k)
    return (z + a) ** (z + 0.5) * cmath.exp(-(z + a)) * acc


class TestGamma:
    def test_exact_values(self):
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14
        assert abs(gamma(1.0) - 1.0) < 1e-15
        assert abs(gamma(5.0) - 24.0) < 1e-13
        assert abs(gamma(6.5) - 287.88527781504433) < 1e-11

    def test_against_spouge_oracle(self):
        rng = random.Random(20240915)
        for _ in range(120):
            z = complex(rng.uniform(-25, 25), rng.uniform(-45, 45))
            if abs(z.imag) < 0.3 and z.real < 0.5:
                continue  # stay off the pole line for the oracle comparison
            g, s = gamma(z), spouge_gamma(z)
            assert abs(g - s) <= 1e-9 * abs(s), f"z={z}"

    def test_against_mpmath(self):
        mp.mp.dps = 30
        for z in (2.7, -3.2 + 1j, 0.5 + 40j, -10.5, 1e-3, 25.0 + 49j):
            z = complex(z)
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            assert abs(gamma(z) - ref) <= 1e-12 * abs(ref)

    def test_recurrence(self):
        rng = random.Random(7)
        for _ in range(40):
            z = complex(rng.uniform(0.5, 20), rng.uniform(-30, 30))
            assert abs(gamma(z + 1) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1))

    def test_reflection(self):
        for z in (0.3 + 2j, -1.7 + 0.4j, 0.25):
            z = complex(z)
            lhs = gamma(z) * gamma(1 - z)
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_poles_raise(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma(bad)


class TestHalfLineQuadrature:
    def test_exponential(self):
        q = integrate_halfline(lambda x: math.exp(-x))
        assert abs(q.value - 1.0) < 1e-12
        assert q.error_estimate < 1e-10

    def test_gaussian(self):
        q = integrate_halfline(lambda x: math.exp(-x * x))
        assert abs(q.value - 0.5 * math.sqrt(math.pi)) < 1e-12

    def test_moment(self):
        # int_0^inf x^2 e^-x = Gamma(3) = 2
        q = integrate_halfline(lambda x: x * x * math.exp(-x))
        assert abs(q.value - 2.0) < 1e-11

    def test_linearity(self):
        rng = random.Random(11)
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        f = lambda x: math.exp(-x)
        g = lambda x: math.exp(-2.0 * x * x)
        lhs = integrate_halfline(lambda x: a * f(x) + b * g(x)).value
        rhs = a * integrate_halfline(f).value + b * integrate_halfline(g).value
        assert abs(lhs - rhs) < 1e-11

    def test_divergent_raises(self):
        with pytest.raises(NonConvergenceError):
            integrate_halfline(lambda x: 1.0 / (1.0 + x))

    def test_wrong_transform_rejected(self):
        spec = QuadratureSpec(transform="finite_gauss")
        with pytest.raises(ValueError):
            integrate_halfline(lambda x: math.exp(-x), spec)

    # (scalar, vectorized) forms of the integrands above, scaled by a >= 1
    # so every integral stays below 2
    INTEGRANDS = (
        (lambda a: lambda x: math.exp(-a * x), lambda a: lambda x: np.exp(-a * x)),
        (lambda a: lambda x: math.exp(-a * x * x), lambda a: lambda x: np.exp(-a * x * x)),
        (
            lambda a: lambda x: x * x * math.exp(-a * x),
            lambda a: lambda x: x * x * np.exp(-a * x),
        ),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        which=st.integers(0, 2),
        a=st.floats(1.0, 4.0),
        tol=st.sampled_from((1e-8, 1e-10, 1e-12)),
    )
    def test_vectorized_matches_scalar(self, which, a, tol):
        scalar, vector = self.INTEGRANDS[which]
        spec = QuadratureSpec(target_abs_tol=tol)
        q = integrate_halfline(scalar(a), spec)
        v = integrate_halfline(vector(a), spec, vectorized=True)
        assert v.refinements == q.refinements
        assert v.nodes == q.nodes
        assert abs(v.value - q.value) <= 1e-15

    def test_levels_reuse_coarser_nodes(self):
        # every node is evaluated once, however many levels sum it
        seen = []

        def f(ts):
            seen.extend(ts.tolist())
            return np.exp(-ts)

        q = integrate_halfline(f, vectorized=True)
        assert q.refinements >= 2
        assert q.nodes == len(seen) == len(set(seen))


class TestFiniteQuadrature:
    def test_polynomial(self):
        q = integrate_finite(lambda x: x**3, 0.0, 1.0)
        assert abs(q.value - 0.25) < 1e-14

    def test_sine(self):
        q = integrate_finite(math.sin, 0.0, math.pi)
        assert abs(q.value - 2.0) < 1e-13

    def test_damped_oscillation(self):
        # int_0^L e^(-x/5) sin x dx = (1 - e^(-L/5)(cos L + sin(L)/5)) / (1 + 1/25)
        L = 10.0 * math.pi
        exact = (1.0 - math.exp(-L / 5.0) * (math.cos(L) + math.sin(L) / 5.0)) / 1.04
        q = integrate_finite(lambda x: math.exp(-x / 5.0) * math.sin(x), 0.0, L)
        assert abs(q.value - exact) < 1e-12

    def test_vectorized_matches_scalar(self):
        import numpy as np

        f_s = lambda x: math.exp(-x) * math.cos(3 * x)
        f_v = lambda x: np.exp(-x) * np.cos(3 * x)
        a = integrate_finite(f_s, 0.0, 4.0).value
        b = integrate_finite(f_v, 0.0, 4.0, vectorized=True).value
        assert abs(a - b) < 1e-14

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(target_abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(transform="simpson")


class TestSumCompensated:
    def test_against_fraction_oracle(self):
        rng = random.Random(123456)
        terms = [rng.uniform(-1, 1) * 10 ** rng.randint(-10, 12) for _ in range(2000)]
        exact = sum(Fraction(t) for t in terms)
        got = sum_compensated(terms)
        assert abs(complex(got).real - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))

    def test_permutation_stable(self):
        rng = random.Random(9)
        terms = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 10) for _ in range(500)]
        shuffled = terms[:]
        rng.shuffle(shuffled)
        exact = float(sum(Fraction(t) for t in terms))
        a, b = sum_compensated(terms), sum_compensated(shuffled)
        scale = max(1.0, abs(exact))
        assert abs(complex(a).real - exact) <= 1e-12 * scale
        assert abs(complex(b).real - exact) <= 1e-12 * scale

    def test_magnitude_staircase(self):
        # 1 + 1e16 - 1e16 defeats naive left-to-right addition
        terms = [1.0, 1e16, 1.0, -1e16, 1.0]
        assert complex(sum_compensated(terms)).real == 3.0

    def test_complex_terms(self):
        terms = [complex(1e12, 1.0), complex(-1e12, 1.0), complex(3.5, -2.0)]
        assert sum_compensated(terms) == complex(3.5, 0.0)


class TestBracketAndBisect:
    def test_cosine_roots(self):
        roots = bracket_and_bisect(math.cos, 0.0, 10.0, step=0.4, tol=1e-12)
        expect = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        assert len(roots) == 3
        for r, e in zip(roots, expect):
            assert abs(r - e) < 1e-10

    def test_exact_node_hit(self):
        roots = bracket_and_bisect(math.sin, 0.0, 7.0, step=0.5, tol=1e-12)
        # sin hits zero exactly at the node x=0, then at pi and 2*pi
        assert abs(roots[0] - 0.0) < 1e-12
        assert abs(roots[1] - math.pi) < 1e-10
        assert abs(roots[2] - 2 * math.pi) < 1e-10

    def test_no_roots(self):
        assert bracket_and_bisect(lambda x: x * x + 1.0, -2.0, 2.0, step=0.1) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            bracket_and_bisect(math.cos, 2.0, 1.0, step=0.1)
        with pytest.raises(ValueError):
            bracket_and_bisect(math.cos, 0.0, 1.0, step=5.0)
        with pytest.raises(ValueError):
            bracket_and_bisect(math.cos, 0.0, 1.0, step=0.1, tol=0.0)
