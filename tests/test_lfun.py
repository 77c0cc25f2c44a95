"""Dirichlet series, cusp-form coefficients, Euler products, completed
L-functions."""

import csv
import io
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_routes import dirichlet_partial_sum, lambda_one_point, per_prime_euler

from adelic_zeta import lfun, numkit, records
from adelic_zeta.lfun import (
    CoeffTable,
    EulerProduct,
    _delta_series,
    completed_lambda_delta,
    completed_lambda_zeta,
    delta_product,
    euler_product_eval,
    primes_up_to,
    sigma_k,
    tau_coefficients,
    zeta_em,
    zeta_product,
)
from adelic_zeta.numkit import NonConvergenceError, PoleError, gamma

TAU_KNOWN = {
    1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
    8: 84480, 9: -113643, 10: -115920,
}


def naive_tau(n: int) -> list[int]:
    """Oracle: q prod (1-q^m)^24 by direct truncated polynomial powers."""
    poly = [1] + [0] * n
    for m in range(1, n + 1):
        for _ in range(24):
            # multiply by (1 - q^m) in place, truncated at degree n
            for i in range(n, m - 1, -1):
                poly[i] -= poly[i - m]
    return poly[: n]  # tau(k) = coefficient of q^(k-1) after the q shift


class TestPrimes:
    def test_against_naive_sieve(self):
        limit = 2000
        flags = [True] * (limit + 1)
        flags[0] = flags[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if flags[i]:
                for j in range(i * i, limit + 1, i):
                    flags[j] = False
        expect = tuple(i for i in range(limit + 1) if flags[i])
        assert primes_up_to(limit) == expect


class TestTau:
    def test_known_values(self):
        table = tau_coefficients(10)
        for n, t in TAU_KNOWN.items():
            assert table.a(n) == t

    def test_against_naive_product_oracle(self):
        table = tau_coefficients(60)
        oracle = naive_tau(60)
        assert list(table.values) == oracle

    def test_multiplicative(self):
        table = tau_coefficients(100)
        for m in range(2, 101):
            for n in range(2, 101):
                if m * n > 100 or math.gcd(m, n) != 1:
                    continue
                assert table.a(m * n) == table.a(m) * table.a(n), (m, n)

    def test_hecke_recursion_at_prime_powers(self):
        table = tau_coefficients(100)
        for p in (2, 3, 5, 7):
            k = 1
            while p ** (k + 1) <= 100:
                lhs = table.a(p ** (k + 1))
                rhs = table.a(p) * table.a(p**k) - p**11 * table.a(p ** (k - 1))
                assert lhs == rhs, (p, k)
                k += 1

    def test_congruence_mod_691(self):
        table = tau_coefficients(50)
        for n in range(1, 51):
            assert (table.a(n) - sigma_k(n, 11)) % 691 == 0

    def test_table_csv_round_trip(self):
        # the CSV view is write-only, but its cells are exact: any CSV
        # reader recovers the table
        table = tau_coefficients(12)
        text = records.csv_text({"n": n, "a_n": table.a(n)} for n in range(1, 13))
        header, *rows = csv.reader(io.StringIO(text))
        assert header == ["a_n", "n"]
        assert [int(n) for _a, n in rows] == list(range(1, 13))
        assert CoeffTable(tuple(int(a) for a, _n in rows)) == table

    def test_table_validation(self):
        with pytest.raises(ValueError):
            CoeffTable((2, -24))  # a_1 must be 1
        with pytest.raises(ValueError):
            records.loads(CoeffTable, '{"values": [2, -24]}')
        with pytest.raises(ValueError, match="empty"):
            CoeffTable(())
        for entry in (-24.0, Fraction(-24), np.int64(-24), "-24"):
            with pytest.raises(ValueError, match="exact integers"):
                CoeffTable((1, entry))

    def test_tau_table_skips_only_the_entry_check(self):
        # the tau route builds Python ints, so it skips the per-entry type
        # check alone; the table equals the one the checked constructor builds
        table = tau_coefficients(3000)
        assert all(type(v) is int for v in table.values)
        assert CoeffTable(table.values) == table
        for values, match in (((), "empty"), ((2, -24), "a_1 = 1")):
            with pytest.raises(ValueError, match=match):
                CoeffTable._of_ints(values)


class TestZetaEM:
    def test_exact_rational_points(self):
        assert abs(zeta_em(2.0) - math.pi**2 / 6) < 1e-13
        assert abs(zeta_em(4.0) - math.pi**4 / 90) < 1e-13
        assert abs(zeta_em(0.0) - (-0.5)) < 1e-12
        assert abs(zeta_em(-1.0) - (-1.0 / 12.0)) < 1e-9

    def test_against_mpmath_in_claimed_window(self):
        mp.mp.dps = 30
        rng = random.Random(31337)
        for _ in range(25):
            s = complex(rng.uniform(0.0, 30.0), rng.uniform(-60.0, 60.0))
            if abs(s - 1.0) < 0.2:
                continue
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(zeta_em(s) - ref) <= 1e-12 * max(1.0, abs(ref)), s

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            zeta_em(1.0)

    def test_left_of_validity_rejected(self):
        with pytest.raises(ValueError):
            zeta_em(-40.0)

    @settings(max_examples=60, deadline=None)
    @given(
        re=st.one_of(st.floats(-1.0, 8.0), st.floats(8.0, 1e15)),
        im=st.floats(-150.0, 150.0),
    )
    @example(re=-1.0, im=-5.0)
    @example(re=-1.0, im=150.0)
    @example(re=1e15, im=-150.0)
    def test_against_mpmath_over_window_property(self, re, im):
        s = complex(re, im)
        assume(abs(s - 1.0) > 1e-3)
        mp.mp.dps = 30
        ref = complex(mp.zeta(mp.mpc(re, im)))
        assert abs(zeta_em(s) - ref) <= 1e-11 * max(1.0, abs(ref)), s

    @pytest.mark.parametrize(
        "s", [0.5 + 1000j, -15.0, -1.01 + 3j, 0.5 + 150.01j, 2 - 150.01j, 1.01e15,
              complex(math.nan, 0.0)]
    )
    def test_outside_window_refused(self, s):
        # at 0.5+1000i the truncation used to return -86.4+349.0i (true
        # value 0.356+0.932i), at -15 it returned -2.3e15 (true 0.443)
        with pytest.raises(ValueError, match="outside -1 <= Re s <= 1e15"):
            zeta_em(s)


class TestEulerProducts:
    def test_zeta_value_within_tail_bound(self):
        res = euler_product_eval(zeta_product(), 2.0, 10000)
        rel = abs(res.value - math.pi**2 / 6) / (math.pi**2 / 6)
        assert rel <= math.expm1(res.tail_log_bound)

    def test_stabilization_within_predicted_bound(self):
        L = zeta_product()
        s = 1.1 + 0.3j
        v1 = euler_product_eval(L, s, 4000)
        v2 = euler_product_eval(L, s, 8000)
        assert abs(v2.value - v1.value) <= abs(v1.value) * math.expm1(v1.tail_log_bound)

    def test_divergence_region_rejected(self):
        with pytest.raises(PoleError):
            euler_product_eval(zeta_product(), 0.9, 100)

    @pytest.mark.parametrize("s", [math.nan, math.inf, complex(2.0, math.nan),
                                   complex(math.nan, 1.0), complex(2.0, -math.inf)])
    def test_non_finite_s_refused(self, s):
        # a NaN real part used to pass the sigma <= 1 test and return NaN
        for L in (zeta_product(), delta_product(tau_coefficients(100))):
            with pytest.raises(ValueError, match="s must be finite"):
                euler_product_eval(L, s, 100)

    @pytest.mark.parametrize("normalization", ["arithmetic", "unitary"])
    def test_table_ending_below_prime_bound_refused(self, normalization):
        # 101 is the first prime past a table of length 100
        L = delta_product(tau_coefficients(100), normalization)
        for bound in (101, 1000):
            with pytest.raises(ValueError, match=rf"prime_bound {bound} for delta: "
                                                 r"coefficient a_101 outside table of length 100"):
                euler_product_eval(L, 8.0 + 1.0j, bound)
        assert euler_product_eval(L, 8.0 + 1.0j, 100).primes_used == 25

    def test_delta_normalizations_agree_after_shift(self):
        # arithmetic at s equals unitary at s - 11/2
        table = tau_coefficients(2000)
        a = euler_product_eval(delta_product(table, "arithmetic"), 13.0, 2000).value
        u = euler_product_eval(delta_product(table, "unitary"), 13.0 - 5.5, 2000).value
        assert abs(a - u) <= 1e-12 * abs(a)

    def test_descriptor_round_trip(self):
        # a descriptor holds rows built from its table, and it is not
        # serialized, so its round trip is its constructor: rebuilding from
        # (label, normalization) gives bitwise the same values
        table = tau_coefficients(600)
        s = 8.0 + 0.5j
        for L in (zeta_product(), delta_product(table), delta_product(table, "unitary")):
            back = (
                zeta_product() if L.label == "zeta"
                else delta_product(table, normalization=L.normalization)
            )
            assert (back.label, back.degree, back.normalization, back.weight) == (
                L.label, L.degree, L.normalization, L.weight)
            assert euler_product_eval(back, s, 500).value == euler_product_eval(L, s, 500).value


class TestEulerRows:
    """The local rows built once per product, against the per-prime route."""

    @pytest.mark.parametrize("pmax", [2, 3, 100, 1000, 10000])
    def test_values_bitwise_equal_to_per_prime_route(self, pmax):
        rng = random.Random(18 + pmax)
        cases = [("zeta", None, "unitary")] + [
            ("delta", table, normalization)
            for table in (tau_coefficients(10000), tau_coefficients(max(pmax, 2)))
            for normalization in ("arithmetic", "unitary")
        ]
        for label, table, normalization in cases:
            L = zeta_product() if table is None else delta_product(table, normalization)
            shift = L.weight / 2.0 if normalization == "arithmetic" else 0.0
            for _ in range(4):
                s = complex(shift + rng.uniform(1.01, 4.0), rng.uniform(-40.0, 40.0))
                got = euler_product_eval(L, s, pmax).value
                want = per_prime_euler(label, table, normalization, s, pmax)
                assert repr(got) == repr(want), (label, normalization, len(table or ()), s)

    def test_delta_rows_cover_the_table_read_only(self):
        table = tau_coefficients(600)
        for normalization in ("arithmetic", "unitary"):
            L = delta_product(table, normalization)
            assert L.rows.shape == (len(primes_up_to(600)), 3) and L.bound == 600
            assert not L.rows.flags.writeable
        with pytest.raises(ValueError, match="normalization must be arithmetic or unitary"):
            delta_product(table, "analytic")
        assert tuple(zeta_product().rows[12345]) == (1.0, -1.0)

    def test_vanishing_row_raises_pole_naming_the_prime(self):
        # at s = 2 the row (1, -9) at p = 3 is 1 - 9/9: no digit survives
        rows = np.array([[1.0, -0.5], [1.0, -9.0], [1.0, -0.5]], dtype=complex)
        L = EulerProduct("test", 1, rows, 5, "unitary")
        with pytest.raises(PoleError, match="p=3"):
            euler_product_eval(L, 2.0, 5)
        assert euler_product_eval(L, 2.0, 2).value == pytest.approx(1.0 / (1.0 - 0.5 / 4.0))


def dyadic(lo: float, hi: float):
    """Multiples of 1/256 in [lo, hi]: reflections of these are exact."""
    return st.integers(int(lo * 256), int(hi * 256)).map(lambda k: k / 256)


def reflect_or_refuse(fn, s: complex, r: complex) -> bool:
    """fn(s) and fn(r) are bitwise equal, or both raise NonConvergenceError."""
    out = []
    for point in (s, r):
        try:
            out.append(fn(point))
        except NonConvergenceError:
            out.append(None)
    return out[0] == out[1]


class TestCompletedLambda:
    def test_zeta_known_value(self):
        # pi^(-1) Gamma(1) zeta(2) = pi/6
        assert abs(completed_lambda_zeta(2.0) - math.pi / 6) < 1e-14

    def test_zeta_symmetry_exact(self):
        # picks where 1-s is exactly representable, so the two calls see
        # bitwise-identical exponent pairs and must agree exactly
        for s in (2.5, -1.25 + 0.5j, 0.5 + 3.0j):
            s = complex(s)
            assert completed_lambda_zeta(s) == completed_lambda_zeta(1.0 - s)

    def test_zeta_symmetry_generic_point(self):
        s = 0.3 + 2.0j
        a, b = completed_lambda_zeta(s), completed_lambda_zeta(1.0 - s)
        assert abs(a - b) <= 1e-15 * abs(a)

    def test_zeta_against_mpmath(self):
        mp.mp.dps = 40
        for s in (0.5 + 14.1j, 3.0 + 3.0j, -2.5 + 1.0j, 0.5 + 30.0j):
            s = complex(s)
            ms = mp.mpc(s.real, s.imag)
            ref = complex(mp.pi ** (-ms / 2) * mp.gamma(ms / 2) * mp.zeta(ms))
            assert abs(completed_lambda_zeta(s) - ref) <= 1e-13 + 1e-10 * abs(ref), s

    def test_zeta_poles_raise(self):
        with pytest.raises(PoleError):
            completed_lambda_zeta(0.0)
        with pytest.raises(PoleError):
            completed_lambda_zeta(1.0)

    def test_delta_symmetry_exact(self):
        assert completed_lambda_delta(7.3) == completed_lambda_delta(4.7)
        s = 6.0 + 9.0j
        assert completed_lambda_delta(s) == completed_lambda_delta(12.0 - s)

    @settings(max_examples=30, deadline=None)
    @given(re=dyadic(-39.0, 40.0), im=dyadic(-60.0, 60.0))
    @example(re=-39.0, im=60.0)
    @example(re=-20.5, im=-45.25)
    def test_zeta_symmetry_exact_property(self, re, im):
        # dyadic components keep 1-s exact across the whole window; far
        # from the strip both sides may refuse, but never only one
        s = complex(re, im)
        assume(s != 0 and s != 1)
        assert reflect_or_refuse(completed_lambda_zeta, s, 1.0 - s)

    @settings(max_examples=30, deadline=None)
    @given(re=dyadic(-28.0, 40.0), im=dyadic(-50.0, 50.0))
    @example(re=40.0, im=50.0)
    @example(re=24.5, im=-30.75)
    def test_delta_symmetry_exact_property(self, re, im):
        s = complex(re, im)
        assert reflect_or_refuse(completed_lambda_delta, s, 12.0 - s)

    @pytest.mark.parametrize("name", lfun._LINES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_entry_reflects_exactly(self, name, data):
        # dyadic points of the part of the entry's window that s <-> w-s
        # maps onto itself, |Re s| and |w - Re s| <= min(re_max, reflected_max)
        line = lfun._LINES[name]
        edge = min(line.re_max, line.reflected_max)
        s = complex(data.draw(dyadic(line.w - edge, edge)),
                    data.draw(dyadic(-line.t_max, line.t_max)))
        assume(not (line.polar and s in (0, line.w)))
        fn = getattr(lfun, f"completed_lambda_{name}")
        assert reflect_or_refuse(fn, s, line.w - s)

    @pytest.mark.parametrize("name", lfun._LINES)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_window_is_closed_under_reflection(self, name, data):
        # points within a few ulps, or a little more, of an edge of the window
        line = lfun._LINES[name]

        def near(edges):
            x = data.draw(st.sampled_from(edges))
            for _ in range(data.draw(st.integers(-3, 3)), 0):
                x = math.nextafter(x, -math.inf)
            for _ in range(data.draw(st.integers(0, 3))):
                x = math.nextafter(x, math.inf)
            return x + data.draw(st.sampled_from([0.0, 0.0, 2.0**-30, -(2.0**-30), 0.5, -0.5]))

        re = near([line.re_max, -line.re_max, line.w - line.reflected_max,
                   line.w + line.reflected_max, line.w / 2])
        im = near([line.t_max, -line.t_max, 0.0])
        s = complex(re, im)
        assert lfun._in_window(line, s) == lfun._in_window(line, line.w - s)

    def test_zeta_window_reflects_at_both_ends(self):
        # Re s = -40 and 41 are each other's reflection; both are accepted
        assert completed_lambda_zeta(41 - 1j) == completed_lambda_zeta(-40 + 1j)
        assert completed_lambda_zeta(41 + 1j) == completed_lambda_zeta(-40 - 1j)

    def test_delta_matches_euler_route(self):
        # integral route vs (2 pi)^-13 Gamma(13) L(13) with L from the product
        table = tau_coefficients(10000)
        L = euler_product_eval(delta_product(table), 13.0, 10000).value
        via_product = (2 * math.pi) ** -13.0 * abs(gamma(13.0)) * L.real
        assert abs(completed_lambda_delta(13.0) - via_product) <= 1e-10

    @pytest.mark.parametrize("s", [0.5 + 200j, 0.5 - 60.5j, 41.5, -40.5 + 3j])
    def test_zeta_outside_window_refused(self, s):
        # at 0.5+200i the integral returns -8.4e-18 where mpmath gives +2.0e-68
        with pytest.raises(ValueError, match=r"\|Re s\| <= 41, \|Im s\| <= 60"):
            completed_lambda_zeta(s)

    @pytest.mark.parametrize("s", [6 + 50.5j, 6 - 51j, 52 + 1j, -28.5, -41.0])
    def test_delta_outside_window_refused(self, s):
        with pytest.raises(ValueError, match=r"\|Im s\| <= 50"):
            completed_lambda_delta(s)

    def test_window_edges_accepted(self):
        for s in (0.5 + 60j, -40.0, 40.0 + 0.5j, 41.0 - 1j):
            assert math.isfinite(completed_lambda_zeta(s).real)
        for s in (6 - 50j, -28 + 2j, 40.0):
            assert math.isfinite(completed_lambda_delta(s).real)

    def test_targets_are_fixed(self):
        # no tolerance argument: point values use lfun._POINT_TOL
        for fn in (completed_lambda_zeta, completed_lambda_delta):
            with pytest.raises(TypeError):
                fn(2.0, 1e-12)
            with pytest.raises(TypeError):
                fn(2.0, abs_tol=1e-12)

    def test_delta_short_table_rejected(self):
        with pytest.raises(ValueError, match="table too short"):
            _delta_series(np.array([1.0, 2.0]), tau_coefficients(2))
        with pytest.raises(TypeError):
            completed_lambda_delta(6.0 + 1.0j, table=tau_coefficients(2))


_LINE_ENTRIES = [(name, line.t_max) for name, line in lfun._LINES.items()]


class TestCentralLine:
    """The central line's real integrand g(e^v) 2 Re exp(a v) against the
    two-exponential integrand g(e^v) (exp(a v) + exp(b v)) it replaces.
    The line itself is compared with the one-point route in
    test_polya.py's TestBatchedSampler."""

    @pytest.mark.parametrize("kind, t_max", _LINE_ENTRIES)
    def test_center_points_match_one_point_oracle_bitwise(self, kind, t_max):
        # completed_lambda_zeta/_delta take the real integrand on the center too
        fn = completed_lambda_zeta if kind == "zeta" else completed_lambda_delta
        center = 0.5 * lfun._LINES[kind].w
        for t in (0.0, -0.0, 9.25, -14.134725, t_max, -t_max):
            s = complex(center, t)
            assert repr(fn(s)) == repr(lambda_one_point(kind, s))

    @pytest.mark.parametrize("kind, t_max", _LINE_ENTRIES)
    def test_complex_exp_is_conjugate_symmetric(self, kind, t_max):
        # the real integrand is bitwise the old one only if exp(conj z) is
        # conj(exp z) bitwise: here over every a v the central line reaches,
        # a = k s for s on the line and v a node of levels 0-5 of [0, v_max]
        line = lfun._LINES[kind]
        center = 0.5 * line.w
        v_max = lfun._cutoff(line.decay, line.k * center + line.margin)
        ts = np.concatenate([np.linspace(-t_max, t_max, 401), [0.0, -0.0]])
        a = np.array([[line.k * complex(center, t)] for t in ts.tolist()])
        v = np.concatenate([numkit._gauss_legendre_level(0.0, v_max, 1 << level)[0]
                            for level in range(6)])
        z = a * v
        assert np.exp(np.conj(z)).tobytes() == np.conj(np.exp(z)).tobytes()


class TestDirichletPartialSum:
    def test_matches_zeta_when_convergent(self):
        table = CoeffTable(tuple([1] * 400))
        got = dirichlet_partial_sum(table, 8.0)
        assert abs(got - zeta_em(8.0)) < 1e-12

    def test_matches_delta_euler_product(self):
        # both truncations leave tails near 2000^-6 at unitary Re s >= 7
        table = tau_coefficients(2000)
        for s in (13.0, 12.5 + 3.0j):
            want = dirichlet_partial_sum(table, s)
            got = euler_product_eval(delta_product(table), s, 2000).value
            assert abs(got - want) <= 1e-13 * abs(want), s
