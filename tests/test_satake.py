"""Hecke double cosets, the spherical transform, and local factors.

The coset-count oracles enumerate upper-triangular integer matrices
directly and classify them by Smith normal form (rank 2) or by the p-adic
valuations of their minors (rank 3), independently of the Hall-Littlewood
route in the implementation and of the order-class counting of the rank-2
coset route in reference_routes.  The trace oracle sums the monomials of
every dominant orbit, independently of the h_k recurrence that
trace_truncated uses.  The radial table's closed form (Tamagawa) is
checked against the transforms of the integral double cosets of each size.
"""

import itertools
import math
import operator
import random
import re
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_routes import (
    FractionSqrtP,
    _order_classes,
    coset_convolve,
    coset_radial,
    coset_transform,
)

from adelic_zeta import numkit, satake
from adelic_zeta.numkit import PoleError
from adelic_zeta.satake import (
    HeckeFn,
    SatakeParam,
    SqrtP,
    SymLaurent,
    convolve,
    dominant,
    dominant_tuples,
    enumerate_cosets,
    eval_character,
    local_factor,
    local_factor_series,
    modulus_delta,
    satake_transform,
    satake_truncated_radial,
    trace_truncated,
    twist,
)


def snf_count_oracle(p: int, lam: tuple[int, int]) -> int:
    """Count Hermite forms [[p^a, b], [0, p^c]] (a+c = |lam|, 0 <= b < p^a)
    whose Smith normal form is diag(p^lam1, p^lam2), by brute force."""
    total_val = lam[0] + lam[1]
    count = 0
    for a in range(total_val + 1):
        c = total_val - a
        x, z = p**a, p**c
        for b in range(p**a):
            d1 = math.gcd(math.gcd(x, b), z)
            d2 = (x * z) // d1
            if (d2, d1) == (p ** lam[0], p ** lam[1]):
                count += 1
    return count


def _ord(x: int, p: int) -> float:
    """p-adic valuation of an integer, inf for 0."""
    if x == 0:
        return math.inf
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def _det(m) -> int:
    """Determinant of a small square integer matrix by Laplace expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def hnf_transform_oracle(p: int, lam: tuple[int, ...]) -> dict[tuple[int, ...], SqrtP]:
    """S(1_{K p^lam K}) at every weight mu, dominant or not, for lam >= 0:
    delta^(1/2)(p^mu) = p^(-<mu, rho>) times the upper-triangular Hermite
    forms with diagonal p^mu (entry (i, j) reduced mod p^mu_i) whose
    elementary divisors are p^lam, read from the least p-adic valuation of
    the k x k minors for each k."""
    n, k = len(lam), sum(lam)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = {}
    for mu in itertools.product(range(k + 1), repeat=n):
        if sum(mu) != k:
            continue
        count = 0
        for entries in itertools.product(*(range(p ** mu[i]) for i, _ in slots)):
            mat = [[p ** mu[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), b in zip(slots, entries):
                mat[i][j] = b
            vals = [0]
            for size in range(1, n + 1):
                vals.append(min(
                    _ord(_det([[mat[r][c] for c in cols] for r in rows]), p)
                    for rows in itertools.combinations(range(n), size)
                    for cols in itertools.combinations(range(n), size)
                ))
            divisors = sorted((vals[i + 1] - vals[i] for i in range(n)), reverse=True)
            count += divisors == list(lam)
        if count:
            rho2 = sum(m * (n - 1 - 2 * i) for i, m in enumerate(mu))
            out[mu] = count * SqrtP.half_power(p, -rho2)
    return out


def orbit_trace_oracle(chi: tuple[complex, ...], d: int) -> complex:
    """sum of m_lam(chi) over dominant lam >= 0 with |lam| <= d, one
    monomial per point of each Weyl orbit, summed with math.fsum."""
    terms = []
    for lam in dominant_tuples(len(chi), d):
        for mu in set(itertools.permutations(lam)):
            term = 1.0 + 0.0j
            for x, m in zip(chi, mu):
                term *= x**m
            terms.append(term)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
chi_entries = st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0, allow_nan=False,
                                 allow_infinity=False)
small_s = st.builds(complex, st.floats(-1.0, 2.0), st.floats(-5.0, 5.0))
small_weights = st.tuples(st.integers(-2, 3), st.integers(-2, 3)).map(dominant)
complex_coeffs = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
mixed_hecke_coeffs = st.dictionaries(
    small_weights,
    st.one_of(st.fractions(-3, 3, max_denominator=4), complex_coeffs).filter(lambda c: c != 0),
    min_size=1,
    max_size=3,
)
small_hecke_coeffs = st.dictionaries(
    small_weights,
    st.fractions(-3, 3, max_denominator=4).filter(lambda c: c != 0),
    min_size=1,
    max_size=2,
)


ORACLE_PRIMES = [2, 3, 7, 10007]


def rationals(p: int):
    """Fractions whose denominators are powers of p, prime to p, or both."""
    return st.builds(lambda num, e, r: Fraction(num, p**e * r), st.integers(-60, 60),
                     st.integers(0, 3), st.sampled_from([1, 2, 3, 5, 6, 11]))


def outcome(f):
    """f(), or the type and text of the ValueError it raises."""
    try:
        return f()
    except ValueError as exc:
        return ("ValueError", str(exc))


def same(new, old) -> bool:
    """A SqrtP result against the oracle's by its fields p, a and b and its
    repr, held in lowest terms; any other result by type and repr (so -0.0
    and 0.0 differ)."""
    if isinstance(old, FractionSqrtP):
        return (isinstance(new, SqrtP) and (new.p, new.a, new.b) == (old.p, old.a, old.b)
                and type(new.a) is type(new.b) is Fraction and repr(new) == repr(old)
                and new.q > 0 and math.gcd(new.x, new.y, new.q) == 1)
    return type(new) is type(old) and repr(new) == repr(old)


class TestSqrtP:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=st.sampled_from(ORACLE_PRIMES), q=st.sampled_from(ORACLE_PRIMES))
    def test_agrees_with_the_fraction_pair_oracle(self, data, p, q):
        # the integer form (x + y sqrt(p)) / q against the Fraction pair,
        # field by field, on a second scalar at the same or another prime
        # (rational or not, so mixed p meets its ValueError) and on plain
        # ints, Fractions, floats and complexes
        a, c = data.draw(rationals(p)), data.draw(rationals(q))
        b, e = (data.draw(rationals(r) | st.just(Fraction(0))) for r in (p, q))
        plain = data.draw(st.one_of(
            st.integers(-20, 20), rationals(p), st.floats(-4, 4, allow_nan=False),
            st.complex_numbers(max_magnitude=4, allow_nan=False)))
        new, old = SqrtP(p, a, b), FractionSqrtP(p, a, b)
        new2, old2 = SqrtP(q, c, e), FractionSqrtP(q, c, e)
        assert same(new, old) and same(new2, old2)
        for op in (operator.add, operator.sub, operator.mul):
            assert same(outcome(lambda: op(new, new2)), outcome(lambda: op(old, old2)))
            assert same(op(new, plain), op(old, plain))
            assert same(op(plain, new), op(plain, old))
        assert same(-new, -old)
        assert (new == new2) == (old == old2) and (new != new2) == (old != old2)
        assert (new == plain) == (old == plain) and (plain == new) == (plain == old)
        for x, y in ((new, old), (new2, old2)):
            assert hash(x) == hash(y) and repr(x) == repr(y)
            assert same(float(x), float(y)) and same(complex(x), complex(y))
        for k in range(-5, 6):
            assert same(SqrtP.half_power(p, k), FractionSqrtP.half_power(p, k))

    def test_prime_checked_once_per_call(self, monkeypatch):
        # arithmetic inside a table, transform or convolution builds its
        # scalars unchecked: the count stays at the call's one entry check
        calls, check = [], numkit._check_prime

        def counted(p):
            calls.append(p)
            return check(p)

        for module in (numkit, satake):
            monkeypatch.setattr(module, "_check_prime", counted)
        big = 999999937
        for d in (1, 8, 30):
            calls.clear()
            satake_truncated_radial(1, d, n=2, p=big)
            assert calls == [big], d
        for size in (1, 2, 4):
            f = HeckeFn(2, big, {(k, 0): k + 1 for k in range(size)})
            g = HeckeFn(2, big, {(k + 1, -1): 1 for k in range(size)})
            for cache in (satake._unit_product, satake._transform_terms, satake._hl_scaled):
                cache.cache_clear()
            calls.clear()
            h = convolve(f, g)
            assert calls == [big], size
            assert h == coset_convolve(f, g)

    def test_ring_ops(self):
        r = SqrtP(2, 1, 1)  # 1 + sqrt(2)
        s = SqrtP(2, 1, -1)
        assert r * s == SqrtP(2, -1)  # (1+r)(1-r) = 1 - 2
        assert r + s == 2
        assert r - r == 0
        assert r - 1 == SqrtP(2, 0, 1)
        assert r - Fraction(1, 2) == SqrtP(2, Fraction(1, 2), 1)
        assert 1 - r == SqrtP(2, 0, -1)

    def test_half_power(self):
        assert SqrtP.half_power(2, 2) == 2
        assert SqrtP.half_power(2, 0) == 1
        h = SqrtP.half_power(2, 1)
        assert h * h == 2
        assert SqrtP.half_power(3, -2) == Fraction(1, 3)
        assert abs(complex(SqrtP.half_power(5, 3)) - 5**1.5) < 1e-12

    def test_mixing_primes_rejected(self):
        with pytest.raises(ValueError):
            SqrtP(2, 0, 1) + SqrtP(3, 0, 1)

    def test_rational_interop(self):
        assert SqrtP(2, Fraction(3, 2)) == Fraction(3, 2)
        assert hash(SqrtP(2, Fraction(3, 2))) == hash(SqrtP(7, Fraction(3, 2)))

    def test_float_equality_is_exact(self):
        # an irrational element equals no float, so eq agrees with hash
        root = SqrtP(2, 0, 1)
        assert root != math.sqrt(2) and root != complex(math.sqrt(2))
        assert math.sqrt(2) not in {root}
        # a rational element equals the float or complex of the same value
        half = SqrtP(2, Fraction(1, 2))
        for x in (0.5, 0.5 + 0j):
            assert half == x and hash(half) == hash(x) and x in {half}
        assert half != 0.5 + 1e-300j
        assert SqrtP(3, Fraction(1, 3)) != 1 / 3


class TestOrbits:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_monomials_match_permutation_sets(self, n, data):
        weights = st.lists(st.integers(-2, 3), min_size=n, max_size=n).map(dominant)
        coeffs = data.draw(st.dictionaries(weights, st.integers(1, 9), max_size=3))
        want = {mu: c for lam, c in coeffs.items() for mu in set(itertools.permutations(lam))}
        assert SymLaurent(n, coeffs).monomials() == want
        for lam in coeffs:  # each point of the orbit is built once
            assert sorted(satake._orbit(lam)) == sorted(set(itertools.permutations(lam)))

    def test_orbit_at_rank_ten_has_ten_monomials(self):
        lam = (1,) + (0,) * 9
        got = SymLaurent.orbit(lam).monomials()
        assert len(list(satake._orbit(lam))) == 10
        assert got == {tuple(int(i == j) for j in range(10)): 1 for i in range(10)}


class TestHeckeFn:
    def test_equal_functions_hash_equal(self):
        a = HeckeFn.unit(2, 3)
        b = HeckeFn(2, 3, {(0, 0): Fraction(1)})
        assert a == b and hash(a) == hash(b)
        table = {a: "unit", HeckeFn.double_coset(2, 3, (1, 0)): "T_p"}
        assert table[b] == "unit"
        assert table[HeckeFn(2, 3, {(1, 0): 1})] == "T_p"


class TestDominant:
    def test_dominant_sorts(self):
        assert dominant((0, 2, -1)) == (2, 0, -1)

    def test_tuples_enumeration(self):
        got = set(dominant_tuples(2, 2))
        assert got == {(0, 0), (1, 0), (1, 1), (2, 0)}
        # entries are >= 0 and the sum is bounded by max_total, which the
        # truncated radial transform relies on without filtering
        for n in (1, 2, 3):
            for d in range(9):
                brute = {
                    mu for mu in itertools.product(range(d + 1), repeat=n)
                    if sum(mu) <= d and list(mu) == sorted(mu, reverse=True)
                }
                assert set(dominant_tuples(n, d)) == brute, (n, d)


class TestCosets:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_degree_p_plus_one(self, p):
        assert len(enumerate_cosets(p, (1, 0)).representatives) == p + 1

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("lam", [(1, 0), (2, 0), (2, 1), (3, 1), (2, 2), (3, 0)])
    def test_counts_match_snf_oracle(self, p, lam):
        got = len(enumerate_cosets(p, lam).representatives)
        assert got == snf_count_oracle(p, lam)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_count_formula(self, p, m):
        # p^m + p^(m-1) representatives for m >= 1, one for m = 0
        want = (p + 1) * p ** (m - 1) if m else 1
        assert len(enumerate_cosets(p, (m, 0)).representatives) == want
        assert sum(count for *_, count in _order_classes(p, m)) == want

    def test_enumeration_bound_refuses_before_building(self, monkeypatch):
        # the bound is on the count, so it holds on the cap and refuses past it
        monkeypatch.setattr(satake, "_MAX_COSETS", 392)
        assert len(enumerate_cosets(7, (3, 0)).representatives) == 392
        with pytest.raises(ValueError, match="p = 7, lambda = \\(4, 0\\)"):
            enumerate_cosets(7, (4, 0))

    def test_representatives_are_upper_triangular_with_right_det(self):
        enum = enumerate_cosets(3, (2, 1))
        for m in enum.representatives:
            (a, b), (c, d) = m
            assert c == 0
            assert a * d == Fraction(3) ** 3

    def test_negative_cocharacter(self):
        # lam = (0, -1) is the inverse coset; counts mirror (1, 0)
        assert len(enumerate_cosets(2, (0, -1)).representatives) == 3

    def test_dominance_required(self):
        with pytest.raises(ValueError):
            enumerate_cosets(2, (0, 1))

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cosets(4, (1, 0))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("lam", [-2, 0, 3])
    def test_rank_one_single_scaled_unit(self, p, lam):
        enum = enumerate_cosets(p, (lam,), n=1)
        assert enum.representatives == (((Fraction(p) ** lam,),),)
        assert (enum.n, enum.lam, enum.depth) == (1, (lam,), 1)

    def test_rank_one_length_checked(self):
        with pytest.raises(ValueError):
            enumerate_cosets(2, (1, 0), n=1)


class TestModulusDelta:
    def test_known_values(self):
        assert modulus_delta((Fraction(2), Fraction(1)), 2) == Fraction(1, 2)
        assert modulus_delta((Fraction(1), Fraction(2)), 2) == Fraction(2)
        assert modulus_delta((Fraction(9), Fraction(3)), 3) == Fraction(1, 27) * Fraction(9)

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            modulus_delta((Fraction(6), Fraction(1)), 2)


class TestSatakeTransform:
    def test_unit_maps_to_one(self):
        assert satake_transform(HeckeFn.unit(2, 3)) == SymLaurent.one(2)

    def test_hecke_operator_image(self):
        # S(T_p) = sqrt(p) * m_(1,0)
        for p in (2, 3):
            got = satake_transform(HeckeFn.double_coset(2, p, (1, 0)))
            assert got == SymLaurent.orbit((1, 0), SqrtP.half_power(p, 1))

    def test_central_element_image(self):
        # 1_{pI} is central: image is the single orbit (1,1) with coeff 1
        got = satake_transform(HeckeFn.double_coset(2, 5, (1, 1)))
        assert got == SymLaurent.orbit((1, 1), 1)

    def test_homomorphism_on_seeded_pairs(self):
        rng = random.Random(424242)
        lams = [(1, 0), (1, 1), (2, 0), (2, 1), (0, -1), (1, -1)]
        for _ in range(5):
            la, lb = rng.choice(lams), rng.choice(lams)
            f = HeckeFn.double_coset(2, 2, la)
            g = HeckeFn.double_coset(2, 2, lb)
            lhs = satake_transform(convolve(f, g))
            rhs = satake_transform(f) * satake_transform(g)
            assert lhs == rhs, (la, lb)

    def test_tp_squared_decomposition(self):
        # T_p * T_p = T_{p^2} + (p+1) 1_{pI}
        for p in (2, 3):
            tp = HeckeFn.double_coset(2, p, (1, 0))
            got = convolve(tp, tp)
            assert got.coeffs == {(2, 0): 1, (1, 1): p + 1}

    def test_convolution_validation(self):
        f = HeckeFn.double_coset(2, 2, (1, 0))
        g = HeckeFn.double_coset(2, 3, (1, 0))
        with pytest.raises(ValueError):
            convolve(f, g)

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7]), fc=small_hecke_coeffs, gc=small_hecke_coeffs)
    def test_homomorphism_property(self, p, fc, gc):
        # S(f * g) == S(f) S(g), exactly, on combinations of double cosets
        f, g = HeckeFn(2, p, fc), HeckeFn(2, p, gc)
        assert satake_transform(convolve(f, g)) == satake_transform(f) * satake_transform(g)


class TestRankOne:
    """GL_1: double cosets are single cosets p^m Z_p^x, delta is trivial and
    convolution adds exponents."""

    def test_transform_is_identity_on_coefficients(self):
        f = HeckeFn(1, 3, {(2,): 5, (-1,): Fraction(1, 2), (0,): 0})
        assert satake_transform(f) == SymLaurent(1, {(2,): 5, (-1,): Fraction(1, 2)})

    def test_convolution_adds_exponents(self):
        f = HeckeFn(1, 2, {(1,): 2, (0,): 1})
        g = HeckeFn(1, 2, {(2,): 1, (-1,): 3})
        got = convolve(f, g)
        assert got.coeffs == {(3,): 2, (0,): 6, (2,): 1, (-1,): 3}
        assert satake_transform(got) == satake_transform(f) * satake_transform(g)

    def test_radial_table(self):
        half = satake_truncated_radial(Fraction(1, 2), 4, n=1, p=5)
        assert half.coeffs == {(m,): SqrtP.half_power(5, -m) for m in range(5)}
        for sigma in (0.3, 0.25 + 1j):
            val = satake_truncated_radial(sigma, 3, n=1, p=3)
            assert val.coeffs == {(m,): complex(3) ** (-complex(sigma) * m) for m in range(4)}


RANK3_WEIGHTS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (3, 0, 0)]
rank3_coeffs = st.dictionaries(
    st.tuples(*[st.integers(-1, 2)] * 3).map(dominant),
    st.fractions(-2, 2, max_denominator=3).filter(lambda c: c != 0),
    min_size=1,
    max_size=2,
)


class TestMacdonaldRoute:
    """S(1_{K p^lam K}) = p^<lam, rho> P_lam(x; 1/p) at ranks 1 to 4,
    against the rank-2 coset route and a rank-3 Hermite-form count."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_rank_two_transforms_equal_coset_route(self, p):
        # equal values printed alike, so the CLI reports cannot move
        for lam in itertools.product(range(-2, 6), repeat=2):
            if lam == dominant(lam):
                f = HeckeFn.double_coset(2, p, lam)
                assert repr(satake_transform(f)) == repr(coset_transform(f)), lam

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_rank_two_radial_tables_equal_coset_route(self, p):
        for d in range(7):
            for sigma in (0.5, -0.5, 1.5, Fraction(3, 2), 0.3, -2, 0.25 + 1j):
                got = satake_truncated_radial(sigma, d, p=p)
                assert repr(got) == repr(coset_radial(sigma, d, p)), (d, sigma)

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7]), fc=mixed_hecke_coeffs, gc=mixed_hecke_coeffs)
    @example(p=3, fc={(3, 2): -0.3 + 0.2j}, gc={(2, -1): 0.4 + 0.2j})
    @example(p=5, fc={(2, -1): -0.7 - 0.3j}, gc={(2, 1): -0.7 + 0.8j})
    def test_convolution_equals_coset_route(self, p, fc, gc):
        # the caller's coefficients multiply the integer expansion of each
        # pair of cosets, so complex ones reach exactly the coset route's
        # weights: a float peel left (3, 3): -1.1e-16 on the first example
        # and (2, 2): -1.8e-15-8.9e-16j on the second.  Both routes form
        # f(lam) g(mu) count and sum over the pairs in one order, so the
        # values agree exactly too, complex or rational
        f, g = HeckeFn(2, p, fc), HeckeFn(2, p, gc)
        got, want = convolve(f, g).coeffs, coset_convolve(f, g).coeffs
        assert set(got) == set(want)
        assert got == want

    def test_unit_products_are_integers(self):
        # T_p * T_p = T_{p^2} + (p+1) 1_{pI}; coefficients apply after the peel
        assert satake._unit_product(3, (1, 0), (1, 0)) == (((2, 0), 1), ((1, 1), 4))
        for (lam, mu), c in zip(itertools.product([(2, -1), (1, 1), (3, 0)], repeat=2),
                                itertools.cycle([2.5 - 1j, Fraction(2, 3)])):
            pairs = satake._unit_product(5, lam, mu)
            assert all(type(n) is int and n > 0 for _, n in pairs)
            got = convolve(HeckeFn(2, 5, {lam: c}), HeckeFn.double_coset(2, 5, mu)).coeffs
            assert got == {nu: c * n for nu, n in pairs}

    @pytest.mark.parametrize("p, lam", [(p, lam) for p in (2, 3) for lam in RANK3_WEIGHTS]
                             + [(2, (3, 2, 1))])
    def test_rank_three_against_hermite_count(self, p, lam):
        # every ordering of a weight carries the value of its dominant one
        want = hnf_transform_oracle(p, lam)
        got = satake_transform(HeckeFn.double_coset(3, p, lam))
        assert {dominant(mu) for mu in want} == set(got.coeffs)
        for mu, value in want.items():
            assert got.coeffs[dominant(mu)] == value, mu

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rank_three_hecke_relation(self, p):
        # T_(1,0,0) * T_(1,1,0) = T_(2,1,0) + (p^2 + p + 1) T_(1,1,1)
        got = convolve(HeckeFn.double_coset(3, p, (1, 0, 0)),
                       HeckeFn.double_coset(3, p, (1, 1, 0)))
        assert got.coeffs == {(2, 1, 0): 1, (1, 1, 1): p * p + p + 1}

    @settings(max_examples=25, deadline=None)
    @given(p=st.sampled_from([2, 3]), fc=rank3_coeffs, gc=rank3_coeffs)
    def test_rank_three_homomorphism(self, p, fc, gc):
        f, g = HeckeFn(3, p, fc), HeckeFn(3, p, gc)
        fg = convolve(f, g)
        assert all(isinstance(c, Fraction) for c in fg.coeffs.values())
        assert satake_transform(fg) == satake_transform(f) * satake_transform(g)

    def test_rank_four_hecke_operator_image(self):
        # S(T_p) = p^<(1,0,0,0), rho> m_(1,0,0,0) = p^(3/2) m_(1,0,0,0)
        got = satake_transform(HeckeFn.double_coset(4, 3, (1, 0, 0, 0)))
        assert got == SymLaurent.orbit((1, 0, 0, 0), SqrtP.half_power(3, 3))

    @pytest.mark.parametrize("n, dmax", [(3, 8), (4, 6)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_radial_constant_at_center(self, n, dmax, p):
        # sigma = (n-1)/2 makes every orbit coefficient exactly 1, from sums
        # of coset counts over the integral double cosets; sizes 6 and 7 are
        # the first whose strips meet end to start in adjacent rows, where
        # psi drops the shared column
        for sigma in (Fraction(n - 1, 2), (n - 1) / 2):
            val = satake_truncated_radial(sigma, dmax, n=n, p=p)
            assert set(val.coeffs) == set(dominant_tuples(n, dmax))
            assert all(c == 1 for c in val.coeffs.values())

    @pytest.mark.parametrize("sigma, d, n, p", [
        (0, 40, 1, 2), (0.5, 12, 2, 3), (Fraction(3, 2), 6, 3, 2), (0.25 + 1j, 5, 4, 5),
        (-40, 8, 1, 7), (39.5, 7, 2, 2),
    ])
    def test_radial_table_keeps_the_checked_keys(self, sigma, d, n, p):
        # the table skips the constructor's key checks: its keys are still
        # dominant_tuples' own, in their order, none of its coefficients
        # is 0, and the checking constructor rebuilds it exactly
        got = satake_truncated_radial(sigma, d, n=n, p=p)
        assert list(got.coeffs) == list(dominant_tuples(n, d))
        assert all(c != 0 for c in got.coeffs.values())
        again = SymLaurent(n, got.coeffs)
        assert again == got and repr(again) == repr(got) and list(again.coeffs) == list(got.coeffs)

    @pytest.mark.parametrize("call, want", [
        (lambda: satake_transform(HeckeFn.double_coset(3, 2, (10**6, 0, 0))),
         "weight pairs to read"),
        (lambda: satake_transform(HeckeFn.double_coset(2, 2, (10**9, 0))),
         "weight pairs to read"),
        (lambda: satake_truncated_radial(1, 10**9, n=3), "bytes"),
        (lambda: satake_truncated_radial(0.5, 10**8, n=1), "digits"),
        (lambda: satake_truncated_radial(1, 3000, n=10**5), "digits"),
        (lambda: satake_truncated_radial(1, 1, n=10**8), "digits"),
        (lambda: satake_truncated_radial(1, 0, n=10**9), "bytes"),
        (lambda: satake_truncated_radial(40, 10**6, n=1), "digits"),
        (lambda: satake_truncated_radial(0, 10**8, n=1), "bytes"),
        (lambda: satake_truncated_radial(1, 2000, n=3), "bytes"),
        (lambda: satake_truncated_radial(40, 10**5, n=81), "bytes"),
        (lambda: convolve(*[HeckeFn.double_coset(12, 2, (1,) * 6 + (0,) * 6)] * 2),
         "weight pairs to read"),
    ], ids=["rank3-transform", "rank2-transform", "rank3-radial", "rank1-radial",
            "rank-1e5-radial", "rank-1e8-radial", "rank-1e9-depth0-radial",
            "rank1-exact-digits-radial", "rank1-size-radial", "rank3-size-radial",
            "rank81-size-radial", "rank12-convolve"])
    def test_work_bound_refuses_fast(self, call, want):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=want):
            call()
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n, lam", [(8, (1, 1) + (0,) * 6), (6, (2, 1, 1, 0, 0, 0)),
                                        (7, (2, 1) + (0,) * 5)])
    def test_convolve_bound_counts_monomials_not_permutations(self, n, lam):
        # 1296, 15876 and 7056 monomial pairs: cheap products that a bound of
        # n! monomials per weight refused
        f = HeckeFn.double_coset(n, 2, lam)
        ff = convolve(f, f)
        assert all(type(c) is int and c > 0 for c in ff.coeffs.values())
        assert satake_transform(ff) == satake_transform(f) * satake_transform(f)

    @pytest.mark.parametrize("n, lam, want", [
        (12, (1,) * 6 + (0,) * 6, "weight pairs to read"),  # the peel count refuses first
        (20, (1,) * 10 + (0,) * 10, "weight pairs to read"),
        (2, (1500, 0), "monomial pairs to expand"),  # 1501^2, 1.1e6 weight pairs
    ])
    def test_convolve_bound_refuses_large_products_fast(self, n, lam, want):
        f = HeckeFn.double_coset(n, 2, lam)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"rank {n}: more than 2000000 {want}"):
                convolve(f, f)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3

    def test_work_bound_holds_on_the_cap(self, monkeypatch):
        # d = 4 at rank 2 holds 1 + 1 + 2 + 2 + 3 entries of 32 bytes, d = 5 three more
        monkeypatch.setattr(satake, "_MAX_RADIAL_BYTES", 288)
        assert len(satake_truncated_radial(0.5, 4, p=5).coeffs) == 9
        with pytest.raises(ValueError, match="rank 2, depth 5: the table prints in about 384"
                                             " bytes, more than 288"):
            satake_truncated_radial(0.5, 5, p=5)

    def test_digit_bound_holds_on_the_cap(self):
        # at rank 1 the longest entry 2^(-40 d) has 40 d log10(2) digits:
        # 3997.7 at d = 332, 4009.7 at d = 333; a float sigma forms no
        # exact power
        table = satake_truncated_radial(40, 332, n=1)
        assert table.coeffs[(332,)] == SqrtP.half_power(2, -80 * 332)
        assert len(str(table)) > 4000
        with pytest.raises(ValueError, match="d = 333, rank 1: exact entries of about 4010"
                                             " digits; at most 4000 are printed"):
            satake_truncated_radial(40, 333, n=1)
        assert len(satake_truncated_radial(0.1, 1000, n=1).coeffs) == 1001

    @pytest.mark.parametrize("sigma, n, d, entries", [
        (1, 3, 60, 7106), (1, 4, 30, 2724), (1, 10**5, 3, 7), (1, 1000, 0, 1),
        (0, 1, 5000, 5001)])
    def test_radial_bound_counts_the_entries(self, sigma, n, d, entries):
        # tables a bound on the weight pairs of a transform refused, or whose
        # rank ran past the recursion limit
        assert satake._radial_counts(n, d).sum() == entries
        if n == 10**5:
            # entries p^((n-1) k / 2) of up to 45,000 digits, which str() cannot print
            with pytest.raises(ValueError, match="about 45153 digits; at most 4000"):
                satake_truncated_radial(sigma, d, n=n)
        else:
            assert len(satake_truncated_radial(sigma, d, n=n).coeffs) == entries

    def test_radial_bound_at_rank_one(self):
        # at sigma = 0 each size holds one entry (k,) = SqrtP(2, 1) of 29
        # bytes, so 1103448 sizes fill 31999992 bytes and one more passes
        cap = satake._MAX_RADIAL_BYTES
        counts, sizes = satake._radial_sizes(0, cap // 29 - 1, 1, 2)
        assert counts.sum() == cap // 29 and counts @ sizes == 29 * (cap // 29) <= cap
        start = time.perf_counter()
        with pytest.raises(ValueError, match="rank 1, depth 1103448: one entry of each size"
                                             " prints in more than 32000000 bytes"):
            satake_truncated_radial(0, cap // 29, n=1)
        assert time.perf_counter() - start < 0.5
        assert satake._radial_counts(10**9, 0).tolist() == [1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_radial_entries_are_the_dominant_weights(self, n):
        sizes = [sum(mu) for mu in dominant_tuples(n, 24)]
        for d in range(25):
            assert satake._radial_counts(n, d).tolist() == [sizes.count(k) for k in range(d + 1)]

    def test_radial_counts_saturate_past_the_byte_bound(self):
        # p(k) passes int64 near k = 405; the counts stop at the bound plus one
        counts = satake._radial_counts(500, 500)
        assert counts[20] == 627 and counts[100] == satake._MAX_RADIAL_BYTES + 1
        assert (counts[100:] == satake._MAX_RADIAL_BYTES + 1).all()

    @settings(max_examples=90, deadline=None)
    @given(n=st.integers(1, 5), p=st.sampled_from([2, 3, 10007]), d=st.integers(4, 12),
           sigma=st.one_of(st.integers(-80, 80).map(lambda m: Fraction(m, 2)),
                           st.floats(-40, 40).filter(lambda x: not (2 * x).is_integer()),
                           st.complex_numbers(max_magnitude=40, allow_nan=False,
                                              allow_infinity=False).filter(lambda z: z.imag)))
    @example(n=1, p=2, d=4, sigma=5.79290909742932e-154)
    @example(n=1, p=10007, d=15, sigma=0.1 + 0.5j)
    @example(n=5, p=3, d=12, sigma=-29.75 + 0.81j)
    def test_radial_size_estimate_tracks_the_table(self, n, p, d, sigma):
        # the printed table lies within 0.65 and 1.05 of the estimate (0.66
        # to 1.03 measured on a grid of real sigmas, 0.76 to 1.04 on one of
        # non-real sigmas); d >= 4, as below that the 19 bytes of
        # "SymLaurent(n=1, {...})" weigh.  Within 10^-3 of a half-integer a
        # real float power can round to a short value such as (1+0j), as
        # can a power whose sigma is within 10^-3 of the real line, and the
        # estimate only bounds the table
        try:
            counts, sizes = satake._radial_sizes(sigma, d, n, p)
        except ValueError as exc:
            assume("normal double" not in str(exc))
            raise
        ratio = len(str(satake_truncated_radial(sigma, d, n=n, p=p))) / (counts @ sizes)
        assert ratio <= 1.05
        if isinstance(sigma, complex):
            if abs(sigma.imag) >= 1e-3:
                assert ratio >= 0.65
        elif isinstance(sigma, Fraction) or abs(2 * sigma - round(2 * sigma)) >= 2e-3:
            assert ratio >= 0.65


def size_sum(n: int, p: int, k: int) -> SymLaurent:
    """S of the sum of the integral double cosets of size k, by Macdonald's
    formula: the size-k term of the left side of Tamagawa's identity."""
    return satake_transform(HeckeFn(n, p, {lam: 1 for lam in dominant_tuples(n, k)
                                           if sum(lam) == k}))


class TestTamagawaClosedForm:
    """sum_k p^(-sigma k) S(T(p^k)) = prod_i (1 - p^((n-1)/2 - sigma) x_i)^(-1):
    satake_truncated_radial writes the right side, the transform sums the left."""

    @pytest.mark.parametrize("n, kmax", [(1, 10), (2, 10), (3, 8), (4, 6), (5, 5)])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_size_sums_are_scaled_complete_sums(self, n, kmax, p):
        # S(T(p^k)) = p^((n-1) k / 2) sum_{|mu| = k} m_mu, exactly
        for k in range(kmax + 1):
            want = {mu: SqrtP.half_power(p, (n - 1) * k)
                    for mu in dominant_tuples(n, k) if sum(mu) == k}
            assert size_sum(n, p, k) == SymLaurent(n, want), k

    @pytest.mark.parametrize("n, d", [(3, 8), (4, 6)])
    @pytest.mark.parametrize("sigma", [Fraction(-3, 2), 0.3])
    def test_radial_table_is_the_weighted_size_sums(self, n, d, sigma):
        # the exact size sum times the weight, as the table forms each
        # entry, so the float entries agree bitwise
        p = 3
        want = {}
        for k in range(d + 1):
            weight = (SqrtP.half_power(p, -int(2 * sigma * k)) if isinstance(sigma, Fraction)
                      else complex(p) ** (-complex(sigma) * k))
            for mu, c in size_sum(n, p, k).coeffs.items():
                want[mu] = c * weight
        got = satake_truncated_radial(sigma, d, n=n, p=p)
        assert repr(got) == repr(SymLaurent(n, want))

    @pytest.mark.parametrize("n, d", [(1, 12), (2, 10), (3, 8), (4, 6), (5, 5)])
    def test_central_table_evaluates_to_the_trace(self, n, d):
        # at sigma = (n-1)/2 every entry is 1, so the table evaluated at chi
        # is the truncated trace sum_{|mu| <= d} m_mu(chi)
        rng = random.Random(n)
        for p in (2, 3):
            chi = SatakeParam(n, p, tuple(
                rng.uniform(0.05, 0.95) * complex(math.cos(a), math.sin(a))
                for a in (rng.uniform(-math.pi, math.pi) for _ in range(n))))
            got = eval_character(satake_truncated_radial(Fraction(n - 1, 2), d, n=n, p=p), chi)
            want = trace_truncated(chi, d)
            assert abs(got - want) <= 1e-12 * abs(want), (p, chi)

    def test_radial_table_computes_no_transform(self):
        before = satake._transform_terms.cache_info(), satake._hl_scaled.cache_info()
        satake_truncated_radial(Fraction(1, 2), 5, n=3, p=7)
        assert (satake._transform_terms.cache_info(), satake._hl_scaled.cache_info()) == before


class TestRadial:
    def test_exact_identity_at_center(self):
        # sigma = 1/2 makes every orbit coefficient exactly 1
        for p in (2, 3):
            val = satake_truncated_radial(0.5, 4, p=p)
            lams = [lam for lam in dominant_tuples(2, 4) if min(lam) >= 0]
            assert set(val.coeffs) == set(lams)
            for lam, c in val.coeffs.items():
                assert c == 1, (p, lam, c)

    def test_shifted_exponent(self):
        # at sigma = 1 the orbit lam carries p^(-|lam|/2)
        val = satake_truncated_radial(1.0, 3, p=2)
        for lam, c in val.coeffs.items():
            assert c == SqrtP.half_power(2, -(lam[0] + lam[1])), lam

    def test_fractional_sigma_exact_when_halves(self):
        val = satake_truncated_radial(Fraction(3, 2), 2, p=3)
        for lam, c in val.coeffs.items():
            assert c == SqrtP.half_power(3, -2 * (lam[0] + lam[1]))

    @pytest.mark.parametrize(
        "sigma", [1e12, 1e7, -40.5, Fraction(81, 2), 30 + 30j, 1e12j, math.nan]
    )
    def test_large_sigma_refused_fast(self, sigma):
        # refused before any power p^(-sigma m) is formed
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most 40"):
            satake_truncated_radial(sigma, 1, p=2)
        assert time.perf_counter() - start < 0.5

    def test_sigma_on_the_cap_accepted(self):
        # the orbit (1, 0) is 1 at sigma = 1/2 and gains p^(1/2 + 40)
        val = satake_truncated_radial(-40, 1, p=2)
        assert val.coeffs[(1, 0)] == SqrtP.half_power(2, 81)

    @pytest.mark.parametrize("sigma, d", [(39.9, 40), (39.9, 25), (-39.9, 30),
                                          (-39.9, 25), (39 + 5j, 30), (Fraction(119, 3), 26)])
    def test_float_weights_outside_the_normal_range_refused(self, sigma, d):
        # |Re sigma| d log10(2) > 300: some p^(-sigma m) would overflow or
        # round to 0, and SymLaurent drops zeros; refused before any power
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"sigma = .*, p = 2, d = {d}"):
            satake_truncated_radial(sigma, d, p=2)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("sigma", [39.9, -39.9, 39 + 5j])
    def test_float_weights_inside_the_normal_range_kept(self, sigma):
        # 39.9 * 24 * log10(2) = 288 decades: every entry is kept and normal
        val = satake_truncated_radial(sigma, 24, p=2)
        assert set(val.coeffs) == set(dominant_tuples(2, 24))
        for c in val.coeffs.values():
            assert sys.float_info.min <= abs(complex(c)) < sys.float_info.max

    @pytest.mark.parametrize("sigma, d", [(0.3, 160), (-0.3, 140)])
    def test_float_tables_outside_the_normal_range_refused(self, sigma, d):
        # at p = 10007 the float p^((n-1) m / 2) would reach p^80 and overflow
        # (sigma = 0.3), or the entries p^(0.8 m) would reach 10^435 and be
        # inf (sigma = -0.3), though the weights p^(-sigma m) stay normal
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"sigma = {sigma}, p = 10007, d = {d}: the floats"):
            satake_truncated_radial(sigma, d, p=10007)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("sigma, d", [(0.3, 149), (-0.3, 93)])
    def test_float_tables_inside_the_normal_range_kept(self, sigma, d):
        # 0.5 * 149 and 0.8 * 93 times log10(10007) are 298 decades
        val = satake_truncated_radial(sigma, d, p=10007)
        assert set(val.coeffs) == set(dominant_tuples(2, d))
        for c in val.coeffs.values():
            assert sys.float_info.min <= abs(complex(c)) < sys.float_info.max

    def test_exact_sigma_is_not_capped_by_the_float_range(self):
        # 40 * 30 * log10(2) = 361 decades, in exact SqrtP arithmetic; the
        # orbit lam carries p^((1/2 - sigma) |lam|)
        val = satake_truncated_radial(40, 30, p=2)
        assert val.coeffs[(30, 0)] == SqrtP.half_power(2, -79 * 30)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("sigma", [0.3, Fraction(1, 4), 0.25 + 0.5j])
    def test_one_scalar_type_off_the_half_integers(self, n, sigma):
        # 2 sigma is not an integer, so every entry is a complex float,
        # also m = 0 and, for sigma = 1/4, the even m where 2 sigma m is one
        val = satake_truncated_radial(sigma, 4, n=n, p=3)
        assert val.coeffs and all(type(c) is complex for c in val.coeffs.values())

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from(PRIMES), d=st.integers(0, 8),
           sigma=st.sampled_from([Fraction(1, 2), 0.5]))
    def test_constant_at_center_property(self, p, d, sigma):
        val = satake_truncated_radial(sigma, d, p=p)
        assert set(val.coeffs) == set(dominant_tuples(2, d))
        assert all(c == 1 for c in val.coeffs.values())


class TestLocalFactors:
    def test_local_factor_closed_form(self):
        chi = SatakeParam(2, 2, (0.5 + 0.1j, 0.3))
        s = 0.7 - 0.2j
        x = 2.0 ** (-s)
        expect = 1.0 / ((1 - (0.5 + 0.1j) * x) * (1 - 0.3 * x))
        assert abs(local_factor(chi, s) - expect) < 1e-13

    def test_pole_detected(self):
        chi = SatakeParam(1, 2, (1.0,))
        with pytest.raises(PoleError, match="p=2"):
            local_factor(chi, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from(PRIMES[:4]), chi=st.lists(chi_entries, min_size=1, max_size=4),
           s=small_s)
    def test_local_factor_against_product(self, p, chi, s):
        # the row loses digits like sum |c_k x^k| / |value|, at most
        # prod (1 + |chi_j x|) / |prod (1 - chi_j x)|
        x = complex(p) ** (-s)
        den = math.prod(1.0 - c * x for c in chi)
        cond = math.prod(1.0 + abs(c * x) for c in chi) / abs(den)
        assume(cond < 1e6)
        got = local_factor(SatakeParam(len(chi), p, tuple(chi)), s)
        assert abs(got * den - 1.0) <= 1e-13 * cond

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from(PRIMES[:4]), others=st.lists(chi_entries, max_size=3),
           at=st.integers(0, 3), s=small_s)
    def test_local_factor_pole_where_chi_is_p_to_the_s(self, p, others, at, s):
        chi = others[:at] + [complex(p) ** s] + others[at:]
        with pytest.raises(PoleError, match=f"p={p}"):
            local_factor(SatakeParam(len(chi), p, tuple(chi)), s)

    def test_series_vs_bruteforce_products(self):
        rng = random.Random(555)
        for _ in range(20):
            n = rng.randint(1, 3)
            d = rng.randint(1, 6)
            chi_vals = tuple(
                complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) for _ in range(n)
            )
            chi = SatakeParam(n, 2, chi_vals)
            series = local_factor_series(chi, d)
            # brute force: truncated convolution of n geometric series
            prod = [1.0 + 0j] + [0j] * d
            for x in chi_vals:
                geo = [x**k for k in range(d + 1)]
                nxt = [0j] * (d + 1)
                for i in range(d + 1):
                    for j in range(d + 1 - i):
                        nxt[i + j] += prod[i] * geo[j]
                prod = nxt
            for k in range(d + 1):
                assert abs(series[k] - prod[k]) < 1e-12

    def test_series_sums_orbit_monomials(self):
        # h_k(chi) equals the trace of the degree-k dominant orbits
        chi = SatakeParam(2, 2, (0.4, 0.25))
        series = local_factor_series(chi, 5)
        for k in range(6):
            orbit_sum = 0j
            for lam in dominant_tuples(2, k):
                if sum(lam) == k and min(lam) >= 0:
                    orbit_sum += eval_character(SymLaurent.orbit(lam, 1), chi)
            assert abs(series[k] - orbit_sum) < 1e-13

    @settings(max_examples=80, deadline=None)
    @given(
        polar=st.lists(
            st.tuples(st.floats(0.05, 0.8), st.floats(-math.pi, math.pi)),
            min_size=1, max_size=3,
        ),
        d=st.integers(0, 12),
    )
    def test_trace_against_orbit_oracle(self, polar, d):
        chi = tuple(r * complex(math.cos(a), math.sin(a)) for r, a in polar)
        got = trace_truncated(SatakeParam(len(chi), 2, chi), d)
        want = orbit_trace_oracle(chi, d)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_trace_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            trace_truncated(SatakeParam(1, 2, (0.5,)), -1)

    def test_depth_cap_refuses_before_allocating(self, monkeypatch):
        # d = 10^8 would first build a list of 10^8 slots
        chi = SatakeParam(2, 2, (0.5, 0.3))
        assert satake._MAX_TRACE_DEPTH == 10**6
        for call in (local_factor_series, trace_truncated):
            for d in (10**6 + 1, 10**8):
                with pytest.raises(ValueError, match=f"depth d = {d} exceeds the cap 1000000"):
                    call(chi, d)
        monkeypatch.setattr(satake, "_MAX_TRACE_DEPTH", 10)
        assert len(local_factor_series(chi, 10)) == 11

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan),
                                     complex(math.inf, 0.0)])
    def test_non_finite_input_refused(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            SatakeParam(2, 2, (0.5, bad))
        with pytest.raises(ValueError, match="must be finite"):
            local_factor(SatakeParam(2, 2, (0.5, 0.3)), bad)

    @pytest.mark.parametrize("s", [-1000 + 3j, -1030, -2000])
    def test_overflowing_factor_refused_without_warning(self, s):
        # far left of the strip p^-s overflows: no false pole and no nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = re.escape(f"p=2 is not finite at s={complex(s)}")
            with pytest.raises(ValueError, match=want):
                local_factor(SatakeParam(2, 2, (0.5, 0.25)), s)

    def test_pole_and_far_right_unchanged_by_the_finiteness_check(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1.0, -3.0 + 2.0j, 20.0):
                with pytest.raises(PoleError, match="p=2"):
                    local_factor(SatakeParam(2, 2, (0.5, complex(2) ** s)), s)
            assert local_factor(SatakeParam(2, 2, (0.5, 0.25)), 800) == 1 + 0j

    @pytest.mark.parametrize("chi, d", [((1e300,), 3), ((2.0,), 1100), ((1e200, 1e200), 3),
                                        ((1e300j, 0.5), 2)])
    def test_overflowing_trace_refused(self, chi, d):
        param = SatakeParam(len(chi), 2, chi)
        want = f"overflows a float at d = {d}, max |chi| = {param.norm!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            trace_truncated(param, d)

    def test_largest_finite_trace_kept(self):
        # sum_{k <= 1000} 2^k = 2^1001 - 1, about 2.1e301
        assert trace_truncated(SatakeParam(1, 2, (2.0,)), 1000) == 2.0**1001

    def test_trace_against_geometric_value(self):
        chi = SatakeParam(2, 2, (0.5, 0.3))
        expect = 1.0 / ((1 - 0.5) * (1 - 0.3))
        assert abs(trace_truncated(chi, 30) - expect) <= 1e-8

    def test_twist_matches_shift(self):
        chi = SatakeParam(2, 3, (0.8, 0.2 + 0.1j))
        s0 = 0.4 + 0.9j
        lhs = local_factor(twist(chi, s0), 0.25)
        rhs = local_factor(chi, s0 + 0.25)
        assert abs(lhs - rhs) < 1e-12


class TestSatakeParam:
    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            SatakeParam(2, 2, (0.0, 1.0))

    def test_norm_and_canonical_order(self):
        chi = SatakeParam(2, 2, (0.2, -1.5))
        assert chi.norm == 1.5
        assert SatakeParam(2, 2, (-1.5, 0.2)) == chi
        # subnormal parts order too (cmath.phase raised OverflowError on them)
        tiny = SatakeParam(2, 2, (1e300 + 1e-310j, 2 + 5e-324j))
        assert tiny.chi == (2 + 5e-324j, 1e300 + 1e-310j)
