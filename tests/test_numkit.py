"""Numerical substrate tests: gamma, quadratures, compensated sums,
root bracketing."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_routes import _integrate_one, recording, refinement_faults

from adelic_zeta import numkit
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
        q = integrate_halfline(lambda x: np.exp(-x))
        assert abs(q.value - 1.0) < 1e-12
        assert q.error_estimate < 1e-10

    def test_gaussian(self):
        q = integrate_halfline(lambda x: np.exp(-x * x))
        assert abs(q.value - 0.5 * math.sqrt(math.pi)) < 1e-12

    def test_moment(self):
        # int_0^inf x^2 e^-x = Gamma(3) = 2
        q = integrate_halfline(lambda x: x * x * np.exp(-x))
        assert abs(q.value - 2.0) < 1e-11

    def test_linearity(self):
        rng = random.Random(11)
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        f = lambda x: np.exp(-x)
        g = lambda x: np.exp(-2.0 * x * x)
        lhs = integrate_halfline(lambda x: a * f(x) + b * g(x)).value
        rhs = a * integrate_halfline(f).value + b * integrate_halfline(g).value
        assert abs(lhs - rhs) < 1e-11

    def test_divergent_raises(self):
        with pytest.raises(NonConvergenceError):
            integrate_halfline(lambda x: 1.0 / (1.0 + x))

    # the integrands above scaled by a >= 1, with their closed forms; every
    # integral stays below 2
    INTEGRANDS = (
        (lambda a: lambda x: np.exp(-a * x), lambda a: 1.0 / a),
        (lambda a: lambda x: np.exp(-a * x * x), lambda a: 0.5 * math.sqrt(math.pi / a)),
        (lambda a: lambda x: x * x * np.exp(-a * x), lambda a: 2.0 / a**3),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        which=st.integers(0, 2),
        a=st.floats(1.0, 4.0),
        tol=st.sampled_from((1e-8, 1e-10, 1e-12)),
    )
    def test_closed_forms_property(self, which, a, tol):
        integrand, exact = self.INTEGRANDS[which]
        q = integrate_halfline(integrand(a), QuadratureSpec(target_abs_tol=tol))
        assert q.error_estimate <= tol
        assert abs(q.value - exact(a)) <= max(tol, 1e-13)

    def test_levels_reuse_coarser_nodes(self):
        # every node is evaluated once, however many levels sum it
        seen = []

        def f(ts):
            seen.extend(ts.tolist())
            return np.exp(-ts)

        q = integrate_halfline(f)
        assert q.refinements >= 2
        assert q.nodes == len(seen) == len(set(seen))


class TestFiniteQuadrature:
    def test_polynomial(self):
        q = integrate_finite(lambda x: x**3, 0.0, 1.0)
        assert abs(q.value - 0.25) < 1e-14

    def test_sine(self):
        q = integrate_finite(np.sin, 0.0, math.pi)
        assert abs(q.value - 2.0) < 1e-13

    def test_damped_oscillation(self):
        # int_0^L e^(-x/5) sin x dx = (1 - e^(-L/5)(cos L + sin(L)/5)) / (1 + 1/25)
        L = 10.0 * math.pi
        exact = (1.0 - math.exp(-L / 5.0) * (math.cos(L) + math.sin(L) / 5.0)) / 1.04
        q = integrate_finite(lambda x: np.exp(-x / 5.0) * np.sin(x), 0.0, L)
        assert abs(q.value - exact) < 1e-12

    def test_refuses_below_the_rounding_noise(self):
        # |f| = 1e8 puts the noise between levels far above the 1e-12
        # target, so no number of panels can meet it
        with pytest.raises(NonConvergenceError):
            integrate_finite(lambda x: 1e8 * np.exp(40j * x), 0.0, 3.0)

    def test_rows_match_one_row_calls_bitwise(self):
        # rows of different frequency settle at different levels; each row
        # keeps its own level's value and error estimate
        freqs = np.array([[0.5], [4.0], [9.0], [17.0]])
        batch = integrate_finite(lambda x: np.exp(-x / 5.0) * np.sin(freqs * x), 0.0, 10.0)
        singles = [integrate_finite(lambda x: np.exp(-x / 5.0) * np.sin(w * x), 0.0, 10.0)
                   for w in freqs[:, 0].tolist()]
        assert len({q.refinements for q in singles}) > 1
        assert batch.value.tolist() == [q.value for q in singles]
        assert batch.error_estimate.tolist() == [q.error_estimate for q in singles]
        assert batch.refinements == max(q.refinements for q in singles)
        assert batch.nodes == max(q.nodes for q in singles)

    @staticmethod
    def _damped(freqs):
        return lambda x: np.exp(-x / 5.0) * np.sin(np.multiply.outer(freqs, x))

    @settings(max_examples=60, deadline=None)
    @given(
        freqs=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
        length=st.floats(0.5, 12.0),
        tol=st.sampled_from((1e-8, 1e-12)),
        max_refinements=st.integers(1, 6),
    )
    @example(freqs=[0.5], length=10.0, tol=1e-12, max_refinements=6)  # level 1
    @example(freqs=[17.0], length=3.0, tol=1e-12, max_refinements=6)  # level 2
    @example(freqs=[9.0], length=10.0, tol=1e-12, max_refinements=6)  # level 3
    @example(freqs=[30.0, 0.5, 17.0], length=10.0, tol=1e-12, max_refinements=6)
    @example(freqs=[4.0], length=10.0, tol=1e-12, max_refinements=1)  # refused
    def test_levels_match_the_per_level_oracle_bitwise(self, freqs, length, tol,
                                                       max_refinements):
        # one row (a scalar frequency) and a batch, against the oracle that
        # evaluates and sums each level on its own
        spec = QuadratureSpec(tol, max_refinements)
        expected = []
        for w in freqs:
            try:
                expected.append(_integrate_one(self._damped(w), 0.0, length, tol,
                                               max_refinements))
            except NonConvergenceError:
                expected.append(None)
        for w, value in zip(freqs, expected):
            if value is None:
                with pytest.raises(NonConvergenceError):
                    integrate_finite(self._damped(w), 0.0, length, spec)
            else:
                assert integrate_finite(self._damped(w), 0.0, length, spec).value == value
        if None in expected:
            with pytest.raises(NonConvergenceError):
                integrate_finite(self._damped(np.array(freqs)), 0.0, length, spec)
        else:
            batch = integrate_finite(self._damped(np.array(freqs)), 0.0, length, spec)
            assert batch.value.tolist() == expected

    @staticmethod
    def _outcome(f, length, spec):
        try:
            q = integrate_finite(f, 0.0, length, spec)
        except NonConvergenceError:
            return "refused"
        return (np.asarray(q.value, dtype=complex).tobytes(),
                np.asarray(q.error_estimate, dtype=float).tobytes(),
                type(q.value), type(q.error_estimate), q.refinements, q.nodes)

    @settings(max_examples=60, deadline=None)
    @given(
        freqs=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
        length=st.floats(0.5, 12.0),
        tol=st.sampled_from((1e-8, 1e-12)),
        max_refinements=st.integers(1, 6),
        batch=st.booleans(),
    )
    @example(freqs=[9.0], length=10.0, tol=1e-12, max_refinements=6, batch=False)
    @example(freqs=[30.0, 0.5, 17.0], length=10.0, tol=1e-12, max_refinements=6, batch=True)
    @example(freqs=[4.0], length=10.0, tol=1e-12, max_refinements=1, batch=False)
    def test_real_integrand_matches_its_complex_cast(self, freqs, length, tol,
                                                     max_refinements, batch):
        # a real integrand is summed as real: the same value (imaginary part
        # 0.0), error estimate, refinements and nodes as the complex cast
        real = self._damped(np.array(freqs) if batch else freqs[0])
        spec = QuadratureSpec(tol, max_refinements)
        got = self._outcome(real, length, spec)
        assert got == self._outcome(lambda x: real(x).astype(complex), length, spec)
        if got != "refused":
            assert not np.asarray(integrate_finite(real, 0.0, length, spec).value).imag.any()

    @staticmethod
    def _level_nodes(a, b, levels):
        return [numkit._gauss_legendre_level(a, b, 1 << k)[0].tolist() for k in levels]

    # refinements None: refused
    @pytest.mark.parametrize("freq, max_refinements, first_levels, later_levels, refinements", [
        (0.5, 10, [0, 1, 2], [], 1),
        (9.0, 10, [0, 1, 2], [3], 3),
        (30.0, 10, [0, 1, 2], [3, 4, 5], 5),
        (0.5, 1, [0, 1], [], 1),
        (30.0, 1, [0, 1], [], None),
        (30.0, 2, [0, 1, 2], [], None),
        (30.0, 4, [0, 1, 2], [3, 4], None),
    ])
    def test_first_call_takes_the_first_three_levels(self, freq, max_refinements,
                                                     first_levels, later_levels, refinements):
        # the first call gets levels 0-2 (0-1 when max_refinements = 1)
        # concatenated in level order, each later call one level; a refusal
        # stops after max_refinements
        calls = []

        def f(x):
            calls.append(x.tolist())
            return self._damped(freq)(x)

        spec = QuadratureSpec(1e-12, max_refinements)
        if refinements is None:
            with pytest.raises(NonConvergenceError):
                integrate_finite(f, 0.0, 10.0, spec)
        else:
            assert integrate_finite(f, 0.0, 10.0, spec).refinements == refinements
        first = [x for nodes in self._level_nodes(0.0, 10.0, first_levels) for x in nodes]
        assert calls == [first] + self._level_nodes(0.0, 10.0, later_levels)

    @pytest.mark.parametrize("freq, refinements, nodes", [
        (0.5, 1, 140), (4.0, 2, 140), (9.0, 3, 300), (17.0, 4, 620),
    ])
    def test_nodes_count_every_node_evaluated(self, freq, refinements, nodes):
        # levels 0-2 are evaluated together, so an integral that stops at
        # level 1 still reports their 20 + 40 + 80 nodes
        seen = []

        def f(x):
            seen.extend(x.tolist())
            return self._damped(freq)(x)

        q = integrate_finite(f, 0.0, 10.0)
        assert (q.refinements, q.nodes) == (refinements, nodes)
        assert len(seen) == len(set(seen)) == nodes

    def test_batch_refused_when_one_row_stalls(self):
        with pytest.raises(NonConvergenceError):
            integrate_finite(lambda x: np.array([x, 1e8 * np.exp(40j * x)]), 0.0, 3.0)

    def test_cached_levels_are_read_only(self):
        nodes, weights = numkit._gauss_legendre_level(0.0, 1.0, 4)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert numkit._gauss_legendre_level(0.0, 1.0, 4)[0] is nodes
        big = numkit._CACHED_PANELS * 2
        assert numkit._gauss_legendre_level(0.0, 1.0, big)[0] is not (
            numkit._gauss_legendre_level(0.0, 1.0, big)[0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(target_abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinements=0)


class TestCheckPrime:
    def test_primes_up_to_the_cap(self):
        # 999999937 is the largest prime below 10^9
        assert [numkit._check_prime(p) for p in (2, 3, 10007, 999999937)] == [2, 3, 10007,
                                                                               999999937]

    @pytest.mark.parametrize("p", [0, 1, 4, 10**9, 10**9 + 7, 2**89 - 1, 2.0, "7"])
    def test_refused(self, p):
        with pytest.raises(ValueError, match=f"p must be a prime integer of at most"
                                             f" 1000000000 \\(got {p!r}\\)"):
            numkit._check_prime(p)


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

    @pytest.mark.parametrize("terms", [np.ones((2, 3)), np.ones((2, 3), dtype=complex),
                                       np.ones((1, 1, 2)), [[1.0, 2.0], [3.0, 4.0]]])
    def test_refuses_more_than_one_dimension(self, terms):
        # one sum of one sequence: a 2-D array does not become its row sums
        with pytest.raises(TypeError):
            sum_compensated(terms)

    def test_one_dimensional_array(self):
        assert sum_compensated(np.array([1.0, 1e16, 1.0, -1e16])) == complex(2.0, 0.0)
        assert sum_compensated(np.array([1j, 2.0])) == complex(2.0, 1.0)


class TestBracketAndBisect:
    def test_cosine_roots(self):
        roots = bracket_and_bisect(np.cos, 0.0, 10.0, step=0.4, tol=1e-12)
        expect = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        assert len(roots) == 3
        for r, e in zip(roots, expect):
            assert abs(r - e) < 1e-10

    def test_exact_node_hit(self):
        roots = bracket_and_bisect(np.sin, 0.0, 7.0, step=0.5, tol=1e-12)
        # sin hits zero exactly at the node x=0, then at pi and 2*pi
        assert abs(roots[0] - 0.0) < 1e-12
        assert abs(roots[1] - math.pi) < 1e-10
        assert abs(roots[2] - 2 * math.pi) < 1e-10

    def test_no_roots(self):
        assert bracket_and_bisect(lambda x: x * x + 1.0, -2.0, 2.0, step=0.1) == []

    def test_tiny_values_still_bracket(self):
        # 1e-200 * 1e-200 underflows to 0: the grid compares signs instead
        tiny = bracket_and_bisect(lambda x: 1e-200 * (x - 0.5), 0.0, 1.0, 0.3)
        assert tiny == bracket_and_bisect(lambda x: 1e-100 * (x - 0.5), 0.0, 1.0, 0.3)
        assert len(tiny) == 1 and abs(tiny[0] - 0.5) <= 1e-10

    def test_nan_cell_gives_no_hit(self):
        def f(x):
            return np.where(x == 0.3, np.nan, x - 0.5)

        assert bracket_and_bisect(f, 0.0, 1.0, 0.3) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            bracket_and_bisect(np.cos, 2.0, 1.0, step=0.1)
        with pytest.raises(ValueError):
            bracket_and_bisect(np.cos, 0.0, 1.0, step=0.0)
        with pytest.raises(ValueError):
            bracket_and_bisect(np.cos, 0.0, 1.0, step=0.1, tol=0.0)
        with pytest.raises(TypeError):
            bracket_and_bisect(np.cos, 0.0, 1.0, step=0.1, max_iter=60)

    @pytest.mark.parametrize(
        "a, b, tol",
        [(0.0, 2.0, tol) for tol in (math.nan, math.inf, -1e-10, 1e-300, 0.5 * math.ulp(2.0))]
        # the roots near -4.7 and -7.9 are spaced by more than ulp(1)
        + [(-8.0, 1.0, math.ulp(1.0))],
    )
    def test_tol_below_float_spacing_refused(self, a, b, tol):
        floor = math.ulp(max(abs(a), abs(b)))
        with pytest.raises(ValueError, match=f"at least {floor!r}"):
            bracket_and_bisect(np.cos, a, b, step=0.1, tol=tol)

    @pytest.mark.parametrize("a, b", [(0.0, 2.0), (-8.0, 1.0)])
    def test_tol_at_float_spacing_converges(self, a, b):
        # bisection ends on width alone: at the tightest tol each root
        # still costs at most 60 one-point calls after the grid call
        floor = math.ulp(max(abs(a), abs(b)))
        calls = []
        roots = bracket_and_bisect(
            lambda x: calls.append(x.tolist()) or np.cos(x), a, b, step=0.1, tol=floor
        )
        want = [(k + 0.5) * math.pi for k in range(-3, 1) if a < (k + 0.5) * math.pi < b]
        assert len(roots) == len(want)
        grid, *steps = calls
        assert len(grid) > 1 and all(len(x) == 1 for x in steps)
        # each midpoint lies in its root's grid cell, 0.1 wide
        for root in roots:
            assert sum(abs(x - root) < 0.1 for [x] in steps) <= 60, root
        for root, w in zip(roots, want):
            assert abs(root - w) <= 2 * floor

    def test_grid_cap(self, monkeypatch):
        # a grid of exactly the cap is sampled; one node more is refused
        # before f is called
        monkeypatch.setattr(numkit, "_MAX_GRID_NODES", 11)
        seen = []
        bracket_and_bisect(lambda x: seen.extend(x.tolist()) or np.ones_like(x), 0.0, 1.0, 0.1)
        assert len(seen) == 11
        with pytest.raises(ValueError, match="more than 11 grid nodes"):
            bracket_and_bisect(lambda x: seen.append(x) or x, 0.0, 1.0, step=0.0999)
        with pytest.raises(ValueError, match="grid nodes"):
            bracket_and_bisect(np.cos, 0.0, 1.0, step=5e-324)
        assert len(seen) == 11

    def test_index_grid(self):
        # nodes are a + i*step, then b: no sliver cell from accumulated steps
        seen = []
        bracket_and_bisect(lambda x: seen.extend(x.tolist()) or np.ones_like(x), 0.0, 1.0, step=0.1)
        assert seen == [i * 0.1 for i in range(10)] + [1.0]

    @staticmethod
    def _refine_and_check(f, a, b, step, tol):
        """Roots of f on [a, b], after checking that each is certified by
        the samples taken and each bracket kept to the call budget."""
        g, samples, calls = recording(f)
        roots = bracket_and_bisect(g, a, b, step, tol)
        assert refinement_faults(samples, calls, roots, tol) == []
        return roots

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.floats(0.5, 4.0),
        phi=st.floats(0.0, 2 * math.pi),
        step=st.sampled_from([0.05, 0.1, 0.37]),
        tol=st.floats(math.ulp(10.0), 1e-6),
    )
    def test_itp_sine_roots(self, w, phi, step, tol):
        # roots (k pi - phi)/w; the rounded phase w x + phi moves the
        # computed sign change by up to a few ulps of the phase over w
        # (exact zeros at a node are test_exact_node_hit's case)
        cand = [(k * math.pi - phi) / w for k in range(20)]
        assume(all(abs(x) > 1e-6 and abs(x - 10.0) > 1e-6 for x in cand))
        want = [x for x in cand if 0.0 < x < 10.0]
        roots = self._refine_and_check(lambda x: np.sin(w * x + phi), 0.0, 10.0, step, tol)
        assert len(roots) == len(want)
        slack = 4 * math.ulp(10.0 * w + phi) / w
        for root, x in zip(roots, want):
            assert abs(root - x) <= tol / 2 + slack, (root, x)

    @settings(max_examples=150, deadline=None)
    @given(
        rs=st.lists(st.floats(-7.9, 0.9), min_size=3, max_size=3),
        step=st.sampled_from([0.05, 0.1, 0.37]),
        tol=st.floats(math.ulp(8.0), 1e-6),
    )
    def test_itp_cubic_roots(self, rs, step, tol):
        # near each root its own factor is exact, so the computed sign is
        # the true one and the bracket holds the root
        rs = sorted(rs)
        assume(rs[1] - rs[0] > 0.5 and rs[2] - rs[1] > 0.5)
        f = lambda x: (x - rs[0]) * (x - rs[1]) * (x - rs[2])
        roots = self._refine_and_check(f, -8.0, 1.0, step, tol)
        assert len(roots) == 3
        for root, r in zip(roots, rs):
            assert abs(root - r) <= tol / 2, (root, r)

    @pytest.mark.parametrize("ulps", [1.5, 3.3, 7.7])
    def test_itp_budget_at_a_few_float_spacings(self, ulps):
        # three roots in one cell keep ITP on its minmax envelope down to a
        # few float spacings, where rounding must not cost a call past the
        # budget (with eps = tol/2 off the float grid, 3.3 and 7.7 did)
        rs = (0.6823082140137136, 0.7946658815342855, 1.1234029666817913)
        tol = ulps * math.ulp(2.0)
        f = lambda x: (x - rs[0]) * (x - rs[1]) * (x - rs[2])
        [root] = self._refine_and_check(f, 0.5, 2.0, 1.0, tol)
        assert min(abs(root - r) for r in rs) <= tol / 2

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(0.5, 9.5),
        freq=st.sampled_from([1e9, 1e11]),
        step=st.sampled_from([0.05, 0.37]),
        tol=st.floats(math.ulp(10.0), 1e-6),
    )
    def test_itp_noisy_root(self, r, freq, step, tol):
        # sign noise of amplitude 1e-9 defeats interpolation near r (and at
        # 1e11 adds sign changes there); the budget and the certificate
        # still hold, and every sign change lies within 1e-9 of r
        f = lambda x: x - r + 1e-9 * np.sin(freq * x)
        roots = self._refine_and_check(f, 0.0, 10.0, step, tol)
        assert len(roots) == 1
        assert abs(roots[0] - r) <= 1e-9 + tol

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(1.0, 9.0),
        u=st.floats(0.01, 0.99),
        v=st.floats(0.01, 0.99),
        cells=st.integers(0, 4),
        last=st.booleans(),
        step=st.sampled_from([0.05, 0.1, 0.37]),
        tol=st.floats(math.ulp(10.0), 1e-6),
    )
    def test_root_in_an_edge_cell(self, r, u, v, cells, last, step, tol):
        # a root in the grid's first or last cell leaves fewer than three
        # grid samples on one side to interpolate through; x - r keeps the
        # sign of the true difference, so the bracket holds r
        assume(u + v < 1.0)
        if last:
            a, b = r - (cells + u) * step, r + v * step
        else:
            a, b = r - u * step, r + (cells + v) * step
        f = lambda x: np.sinh(2.0 * (x - r)) + (x - r)
        g, samples, calls = recording(f)
        roots = bracket_and_bisect(g, a, b, step, tol)
        cell = np.searchsorted(calls[0], r) - 1
        assert cell == (len(calls[0]) - 2 if last else 0)
        assert refinement_faults(samples, calls, roots, tol) == []
        assert len(roots) == 1 and abs(roots[0] - r) <= tol / 2

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(0.0, 5.0),
        width=st.floats(1e-3, 2.0),
        u=st.floats(0.01, 0.99),
        over=st.floats(1.0, 10.0),
        tol=st.floats(math.ulp(8.0), 1e-6),
    )
    def test_two_node_grid(self, a, width, u, over, tol):
        # a window narrower than step is one cell: the refinement starts
        # from its two ends alone
        b = a + width
        r = a + u * width
        assume(a < r < b)
        g, samples, calls = recording(lambda x: np.sinh(2.0 * (x - r)) + (x - r))
        roots = bracket_and_bisect(g, a, b, over * width * (1.0 + 1e-9), tol)
        assert calls[0] == [a, b]
        assert refinement_faults(samples, calls, roots, tol) == []
        assert len(roots) == 1 and abs(roots[0] - r) <= tol / 2

    @settings(max_examples=60, deadline=None)
    @given(
        r0=st.floats(-7.9, -3.5),
        gaps=st.lists(st.floats(0.51, 2.2), min_size=2, max_size=2),
        k=st.integers(-664, 664),
        e=st.floats(-200.0, 200.0),
        step=st.sampled_from([0.05, 0.1, 0.37]),
        tol=st.floats(math.ulp(8.0), 1e-6),
    )
    def test_roots_do_not_depend_on_the_scale_of_f(self, r0, gaps, k, e, step, tol):
        # scaling f by 2^k (2^664 ~ 1e200) leaves every sampled value's
        # mantissa as it was, so the refinement samples the same points and
        # returns the same roots, bit for bit; a decimal factor rounds the
        # values, which may move a root, but never by more than tol.  Roots
        # away from 0 keep every scaled value clear of the subnormal range,
        # where scaling would drop digits.
        rs = [r0, r0 + gaps[0], r0 + gaps[0] + gaps[1]]
        assume(min(map(abs, rs)) > 1e-3)
        cubic = lambda x: (x - rs[0]) * (x - rs[1]) * (x - rs[2])
        g, samples, calls = recording(cubic)
        roots = bracket_and_bisect(g, -8.0, 1.0, step, tol)
        g2, _samples2, calls2 = recording(lambda x: math.ldexp(1.0, k) * cubic(x))
        assert bracket_and_bisect(g2, -8.0, 1.0, step, tol) == roots and calls2 == calls
        scaled = self._refine_and_check(lambda x: 10.0**e * cubic(x), -8.0, 1.0, step, tol)
        assert len(scaled) == len(roots) == 3
        assert all(abs(x - y) <= tol for x, y in zip(scaled, roots))

    def test_window_narrower_than_step(self):
        seen = []
        roots = bracket_and_bisect(lambda x: seen.extend(x.tolist()) or x - 0.3, 0.0, 1.0, step=5.0)
        assert seen[:2] == [0.0, 1.0]
        assert abs(roots[0] - 0.3) < 1e-10
