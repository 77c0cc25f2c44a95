"""Adelic test functions, lattice sums, the functional equation, and the
Mellin side."""

import cmath
import csv
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_routes import closed_form_mellin, direct_mellin
from test_kernels import loop_lattice_sum

from adelic_zeta import numkit, records, theta
from adelic_zeta._backend import kernels
from adelic_zeta.lfun import completed_lambda_zeta
from adelic_zeta.numkit import PoleError, integrate_halfline, sum_compensated
from adelic_zeta.theta import (
    AdelicTestFn,
    ArchTestFn,
    EProfile,
    E_batch,
    E_eval,
    E_eval_report,
    FiniteTestFn,
    decay_constant,
    dyadic_grid,
    functional_eq_residual,
    is_S0,
    make_S0,
    mellin_E,
    mellin_residue_probe,
    standard_gaussian,
)

_GL400 = np.polynomial.legendre.leggauss(400)


def fourier_oracle(fn: ArchTestFn, y: float) -> complex:
    """int_-12^12 fn(x) e^(+2 pi i x y) dx by 400-node Gauss-Legendre; the
    Gaussian envelope makes the window truncation ~1e-63."""
    nodes, weights = _GL400
    x = 12.0 * nodes
    vals = np.array([fn(float(u)) for u in x])
    return complex(np.sum(12.0 * weights * vals * np.exp(2j * math.pi * x * y)))


def lattice_oracle(coeff_scale_pairs, t: float, nmax: int = 60) -> complex:
    """Direct sum sqrt(t) * sum_i c_i sum_{0<|n|<=nmax} g(m_i n t) for the
    pure-Gaussian arch factor."""
    acc = 0.0 + 0.0j
    for c, m in coeff_scale_pairs:
        s = sum(2.0 * math.exp(-math.pi * (float(m) * n * t) ** 2) for n in range(1, nmax + 1))
        acc += c * s
    return math.sqrt(t) * acc


class TestArchFourier:
    def test_matches_quadrature_oracle(self):
        rng = random.Random(20260815)
        for _ in range(6):
            deg = rng.randint(0, 5)
            coeffs = tuple(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg + 1)
            )
            fn = ArchTestFn(coeffs)
            hat = fn.fourier()
            for y in (0.0, 0.7, -1.3):
                assert abs(hat(y) - fourier_oracle(fn, y)) < 1e-11, (coeffs, y)

    def test_gaussian_is_fixed_point(self):
        g = ArchTestFn((1.0,))
        assert g.fourier().coeffs == (1.0 + 0.0j,)

    def test_double_transform_is_parity_flip(self):
        fn = ArchTestFn((0.3, 1.0 + 2.0j, 0.125, 0.0, 1.0))
        twice = fn.fourier().fourier()
        for k, (a, b) in enumerate(zip(twice.coeffs, fn.coeffs)):
            assert abs(a - (-1.0) ** k * b) < 1e-13, k

    def test_moments(self):
        assert ArchTestFn((0.0, 0.0, 1.0)).total_integral() == pytest.approx(
            1.0 / (2.0 * math.pi), abs=1e-16
        )
        assert ArchTestFn((0.25, 0.0, 1.0)).at_zero() == 0.25

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ArchTestFn(tuple([0.0] * 9 + [1.0]))


class TestFiniteFourier:
    def test_scale_inverts_and_coeff_divides(self):
        fn = FiniteTestFn(((2.0 + 1.0j, Fraction(3, 2)),))
        hat = fn.fourier()
        ((c, m),) = hat.terms
        assert m == Fraction(2, 3)
        assert abs(c - (2.0 + 1.0j) * (2.0 / 3.0)) < 1e-15

    def test_double_transform_returns_scale(self):
        fn = FiniteTestFn(((1.0, Fraction(5)), (-0.5, Fraction(1, 3))))
        twice = fn.fourier().fourier()
        assert {m for _, m in twice.terms} == {Fraction(5), Fraction(1, 3)}
        for (c2, m2), (c1, m1) in zip(
            sorted(twice.terms, key=lambda t: t[1]), sorted(fn.terms, key=lambda t: t[1])
        ):
            assert m2 == m1 and abs(c2 - c1) < 1e-15

    def test_duplicate_scale_rejected(self):
        with pytest.raises(ValueError):
            FiniteTestFn(((1.0, Fraction(2)), (2.0, Fraction(2))))
        with pytest.raises(ValueError):
            FiniteTestFn(((1.0, Fraction(-1, 2)),))


class TestAdelicBasics:
    def test_total_integral_equals_fourier_at_zero(self):
        mixed = AdelicTestFn(
            standard_gaussian().summands + make_S0(3).summands
        )
        for f in (standard_gaussian(), make_S0(3), mixed):
            assert abs(f.total_integral() - f.fourier().at_zero()) < 1e-15

    def test_s0_membership(self):
        for p in (2, 3, 5):
            f = make_S0(p)
            assert is_S0(f)
            assert f.at_zero() == 0.0
            assert abs(f.fourier().at_zero()) < 1e-15
        assert not is_S0(standard_gaussian())

    def test_make_s0_requires_prime(self):
        with pytest.raises(ValueError):
            make_S0(6)


class TestEEval:
    def test_gaussian_at_one_against_direct_sum(self):
        want = math.sqrt(1.0) * sum(
            2.0 * math.exp(-math.pi * n * n) for n in range(1, 30)
        )
        got = E_eval(standard_gaussian(), 1.0)
        assert abs(got - want) < 1e-16
        assert abs(got - 0.08643481121330802) < 1e-15

    def test_scaled_lattice_oracle(self):
        t = 0.7
        f = AdelicTestFn(
            ((FiniteTestFn(((1.0, Fraction(3)),)), ArchTestFn((1.0,))),)
        )
        assert abs(E_eval(f, t) - lattice_oracle([(1.0, 3)], t)) < 1e-16

    def test_two_term_finite_part(self):
        t = 0.7
        f = AdelicTestFn(
            (
                (
                    FiniteTestFn(((1.0, Fraction(1)), (-2.0, Fraction(2)))),
                    ArchTestFn((1.0,)),
                ),
            )
        )
        want = lattice_oracle([(1.0, 1), (-2.0, 2)], t)
        assert abs(E_eval(f, t) - want) < 1e-15

    def test_odd_arch_factor_cancels_exactly(self):
        f = AdelicTestFn(
            ((FiniteTestFn(((1.0, Fraction(1)),)), ArchTestFn((0.0, 1.0))),)
        )
        assert E_eval(f, 0.8) == 0j
        assert E_eval(f, 1.7) == 0j

    def test_report_fields(self):
        rep = E_eval_report(make_S0(2), 0.9)
        assert rep.value == E_eval(make_S0(2), 0.9)
        assert rep.truncation_radius > 0.0
        scales = sorted(m for m, _ in rep.term_counts)
        assert scales == [1.0, 2.0]
        for m, kmax in rep.term_counts:
            assert kmax >= 1
            assert rep.truncation_radius >= m * 1

    def test_domain_gates(self):
        # every public entry reaches the one check of t in the shared E path
        for bad in (0.0, -1.0, math.inf, math.nan):
            for call in (E_eval, E_eval_report, functional_eq_residual,
                         lambda f, t: E_batch(f, [1.0, t])):
                with pytest.raises(ValueError, match=r"t must lie in \(0, inf\)"):
                    call(standard_gaussian(), bad)

    def test_truncation_point_found_once_per_polynomial(self):
        # the kernel's cache misses once per distinct (degree, sum |c_k|),
        # however many E_eval, E_batch and mellin_E calls reach it
        f = make_S0(3)
        keys = {(len(arch.coeffs) - 1, sum(abs(c) for c in arch.coeffs))
                for g in (f, f.fourier()) for _fin, arch in g.summands}
        kernels._quiet_from.cache_clear()
        for t in (0.3, 0.7, 2.5):
            E_eval(f, t)
            E_batch(f, [t, 2.0 * t])
        assert kernels._quiet_from.cache_info().misses == 1
        for s in (0.3 + 2j, 1.5, -0.7 + 1j):
            mellin_E(f, s)
        assert kernels._quiet_from.cache_info().misses == len(keys) == 2

    def test_batch_matches_pointwise(self):
        ts = np.array(dyadic_grid(-7, 5, per_octave=3))
        for f in (standard_gaussian(), make_S0(3), seeded_fn(random.Random(3), False)):
            batch = E_batch(f, ts)
            for t, value in zip(ts, batch):
                one = E_eval(f, float(t))
                assert abs(value - one) <= 1e-15 * max(1.0, abs(one)), t
        assert E_batch(standard_gaussian(), []).shape == (0,)

    def test_report_counts_are_the_loop_indices(self):
        f = make_S0(2)
        for t in (0.03, 0.9, 7.0):
            rep = E_eval_report(f, t)
            for m, kmax in rep.term_counts:
                assert kmax == loop_lattice_sum(m * t, (0.0, 0.0, 1.0), kernels.TAIL_TOL)[1]


_unit_complex = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
_scales = st.builds(Fraction, st.integers(1, 4), st.integers(1, 4))
# 1-3 tensor summands, each with 1-3 distinct scales in [1/4, 4] and an
# arch polynomial of degree <= 8
adelic_fns = st.builds(
    AdelicTestFn,
    st.lists(
        st.tuples(
            st.builds(
                FiniteTestFn,
                st.lists(_scales, min_size=1, max_size=3, unique=True).flatmap(
                    lambda ms: st.tuples(*[st.tuples(_unit_complex, st.just(m)) for m in ms])
                ),
            ),
            st.builds(ArchTestFn, st.lists(_unit_complex, min_size=1, max_size=9).map(tuple)),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


class TestFunctionalEquation:
    def test_residual_small_on_dyadic_grid(self):
        for f in (standard_gaussian(), make_S0(2), make_S0(5)):
            for t in dyadic_grid(-4, 4, per_octave=2):
                assert functional_eq_residual(f, t) < 1e-13, t

    def test_residual_detects_wrong_pairing(self):
        # for a non-self-dual f the identity fails badly if the hat is
        # dropped, so the residual really does exercise the transform
        f = AdelicTestFn(
            ((FiniteTestFn(((1.0, Fraction(2)),)), ArchTestFn((1.0,))),)
        )
        t = 0.25
        lhs = E_eval(f, t) + math.sqrt(t) * f.at_zero()
        nohat = E_eval(f, 1.0 / t) + f.at_zero() / math.sqrt(t)
        assert abs(lhs - nohat) > 0.5
        assert functional_eq_residual(f, t) < 1e-13

    @settings(max_examples=200, deadline=None)
    @given(f=adelic_fns, t=st.floats(0.25, 4.0))
    def test_residual_small_property(self, f, t):
        # both sides are direct lattice sums; over 1500 seeded draws of
        # this shape (coefficient parts in [-1, 1]) the worst residual was
        # 4e-15, and the bound is the one the pinned grid above uses
        assert functional_eq_residual(f, t) < 1e-13


def seeded_fn(rng: random.Random, in_s0: bool) -> AdelicTestFn:
    """(c_1 1_Zhat + c_2 1_{m Zhat}) (x) P(u) exp(-pi u^2), deg P <= 4 and
    m in {2, 3}; in S0 when c_2 = -m c_1 and P(0) = 0."""
    m = rng.choice((2, 3))
    c = complex(rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5))
    c2 = -m * c if in_s0 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(1, 5))]
    if in_s0:
        coeffs = [0j] + coeffs[:4]
    fin = FiniteTestFn(((c, Fraction(1)), (c2, Fraction(m))))
    return AdelicTestFn(((fin, ArchTestFn(tuple(coeffs))),))


def reflected_per_node(f: AdelicTestFn, s: complex) -> complex:
    """mellin_E's reflected formula with E evaluated one quadrature node at
    a time: each node of a level goes through E_eval on its own."""

    def part(g: AdelicTestFn, a: complex) -> complex:
        def integrand(v: np.ndarray) -> np.ndarray:
            out = []
            for x in v.tolist():
                ev = E_eval(g, math.exp(x)) if x < 700.0 else 0j
                out.append(0j if ev == 0j else ev * cmath.exp(a * x))
            return np.array(out, dtype=complex)

        return integrate_halfline(integrand, theta._MELLIN_SPEC).value

    fhat = f.fourier()
    out = part(f, s) + part(fhat, -s)
    if fhat.at_zero() != 0j:
        out += fhat.at_zero() / (s - 0.5)
    if f.at_zero() != 0j:
        out -= f.at_zero() / (s + 0.5)
    return out


class TestMellin:
    def test_gaussian_reflected_equals_completed_zeta(self):
        for s in (1.5, 2.3, 0.9 + 2.0j):
            got = mellin_E(standard_gaussian(), s)
            assert abs(got - completed_lambda_zeta(s + 0.5)) < 1e-10, s

    def test_direct_route_agrees_where_it_converges(self):
        for s, tol in ((3.7, 1e-8), (4.5, 1e-10)):
            a = mellin_E(standard_gaussian(), s)
            b = direct_mellin(standard_gaussian(), s)
            assert abs(a - b) < tol, s

    @pytest.mark.parametrize("call, kwargs", [
        (mellin_E, {"method": "direct"}),
        (mellin_E, {"spec": theta._MELLIN_SPEC}),
        (mellin_residue_probe, {"spec": theta._MELLIN_SPEC}),
        (mellin_residue_probe, {"radius": 0.3}),
        (mellin_residue_probe, {"n_points": 32}),
    ])
    def test_route_and_spec_are_not_options(self, call, kwargs):
        with pytest.raises(TypeError):
            call(standard_gaussian(), 2.0, **kwargs)

    def test_pole_guard(self):
        for s in (0.52, -0.46, 0.5 + 0.01j):
            with pytest.raises(PoleError):
                mellin_E(standard_gaussian(), s)

    def test_real_on_real_input(self):
        assert mellin_E(standard_gaussian(), 2.0).imag == 0.0
        assert mellin_E(make_S0(2), 1.3).imag == 0.0

    def test_batched_route_matches_per_node_route(self):
        rng = random.Random(20261018)
        for i in range(8):
            f = seeded_fn(rng, in_s0=i % 2 == 0)
            s = complex(rng.choice((-1.8, -1.1, 0.1, 0.9, 1.7)), rng.uniform(-4.0, 4.0))
            got = mellin_E(f, s)
            assert abs(got - reflected_per_node(f, s)) <= 1e-15, (f, s)

    @settings(max_examples=20, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
        weights=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
        m=st.sampled_from((2, 3)),
        s=st.floats(0.8, 3.0),
    )
    def test_real_on_real_input_property(self, coeffs, weights, m, s):
        # real test functions have real transforms at real s, exactly
        fin = FiniteTestFn(((weights[0], Fraction(1)), (weights[1], Fraction(m))))
        f = AdelicTestFn(((fin, ArchTestFn(tuple(coeffs))),))
        assert mellin_E(f, s).imag == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        in_s0=st.booleans(),
        re=st.floats(-4.0, 4.0),
        im=st.floats(-30.0, 30.0),
    )
    def test_against_closed_form_property(self, seed, in_s0, re, im):
        # over 700 seeded draws of this shape, 300 of them within 0.06..0.2
        # of a pole, the worst error against mpmath was 7.8e-15
        s = complex(re, im)
        assume(abs(s - 0.5) >= 0.1 and abs(s + 0.5) >= 0.1)
        f = seeded_fn(random.Random(seed), in_s0)
        assert abs(mellin_E(f, s) - closed_form_mellin(f, s)) <= 1e-11

    def test_half_past_the_underflow_scale_is_zero(self, monkeypatch):
        # scale 16 > sqrt(745/pi) ~ 15.4: every lattice weight of E(f, t),
        # t >= 1, underflows, so f's half is 0 with no quadrature and only
        # fhat's half (scale 1/16) is integrated
        f = AdelicTestFn(((FiniteTestFn(((1.0, Fraction(16)),)), ArchTestFn((1.0,))),))
        s = 1.3 + 2.0j
        uppers = []
        integrate = theta.integrate_finite

        def spy(g, a, b, spec):
            uppers.append(b)
            return integrate(g, a, b, spec)

        monkeypatch.setattr(theta, "integrate_finite", spy)
        assert theta._halfline_mellin_part(f, s) == 0j and uppers == []
        assert abs(mellin_E(f, s) - closed_form_mellin(f, s)) <= 1e-11
        assert uppers == [0.5 * math.log(745.0 / math.pi) + math.log(16.0)]

    def test_no_halfline_rule_in_the_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the half-line rule was called")

        monkeypatch.setattr(theta, "integrate_halfline", refuse)
        monkeypatch.setattr(numkit, "integrate_halfline", refuse)
        g = standard_gaussian()
        # Lambda(2) = pi^-1 Gamma(1) zeta(2) = pi/6
        assert abs(mellin_E(g, 1.5) - math.pi / 6.0) < 1e-15
        assert abs(mellin_residue_probe(g, 0.5) - 1.0) < 1e-8

    def test_linear_in_the_test_function(self):
        g, h = standard_gaussian(), make_S0(2)
        both = AdelicTestFn(g.summands + h.summands)
        s = 2.0 + 1.0j
        lhs = mellin_E(both, s)
        rhs = mellin_E(g, s) + mellin_E(h, s)
        assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), re=st.floats(0.8, 2.5), im=st.floats(-3.0, 3.0))
    def test_linear_in_the_test_function_property(self, seed, re, im):
        rng = random.Random(seed)
        g, h = seeded_fn(rng, True), seeded_fn(rng, False)
        both = AdelicTestFn(g.summands + h.summands)
        s = complex(re, im)
        lhs = mellin_E(both, s)
        rhs = mellin_E(g, s) + mellin_E(h, s)
        assert abs(lhs - rhs) < 1e-10

    def test_residue_probe_reads_boundary_terms(self):
        g = standard_gaussian()
        # poles at +-1/2 with residues fhat(0) and -f(0)
        assert abs(mellin_residue_probe(g, 0.5) - 1.0) < 1e-8
        assert abs(mellin_residue_probe(g, -0.5) - (-1.0)) < 1e-8
        assert abs(mellin_residue_probe(g, 1.5)) < 1e-8
        f = make_S0(2)
        assert abs(mellin_residue_probe(f, 0.5)) < 1e-8
        assert abs(mellin_residue_probe(f, -0.5)) < 1e-8

    @pytest.mark.parametrize("f, center", [(make_S0(3), 0.5), (standard_gaussian(), 0.5),
                                           (make_S0(2), -1.3 + 2j)])
    def test_residue_probe_is_its_one_point_sum(self, f, center):
        # one integrate_finite batch per half: each of the 32 contour values
        # is bitwise mellin_E at its point, so the probe is unchanged
        total = []
        for k in range(32):
            theta_k = 2.0 * math.pi * k / 32
            w = complex(math.cos(theta_k), math.sin(theta_k))
            total.append(mellin_E(f, center + 0.3 * w) * w)
        want = complex(sum_compensated(total)) * 0.3 / 32
        assert mellin_residue_probe(f, center) == want

    def test_residue_probe_keeps_the_pole_guard(self):
        # the contour point center + 0.3 lies 0.01 from the pole at 1/2
        with pytest.raises(PoleError, match="pole at s = 1/2"):
            mellin_residue_probe(standard_gaussian(), 0.21)
        # S0 has no active pole: no guard, and no residue inside
        assert abs(mellin_residue_probe(make_S0(2), 0.21)) < 1e-8

    @pytest.mark.parametrize("s", [math.nan, math.inf, complex(2.0, math.nan),
                                   complex(-math.inf, 1.0)])
    def test_non_finite_s_refused(self, monkeypatch, s):
        # refused before any quadrature, not after every refinement
        def refuse(*args, **kwargs):
            raise AssertionError("the quadrature was called")

        monkeypatch.setattr(theta, "integrate_finite", refuse)
        for f in (standard_gaussian(), make_S0(2)):
            with pytest.raises(ValueError, match="s must be finite"):
                mellin_E(f, s)
            with pytest.raises(ValueError, match="s must be finite"):
                mellin_residue_probe(f, s)


class TestDecay:
    def test_s0_two_sided_decay(self):
        f = make_S0(2)
        coarse = decay_constant(f, 4)
        fine = decay_constant(f, 4, grid=dyadic_grid(per_octave=4))
        assert 0.0 < coarse <= fine <= 2.0 * coarse
        for n in range(7):
            assert math.isfinite(decay_constant(f, n))

    def test_gaussian_grows_at_small_t_edge(self):
        # outside S0 the t->0 boundary term defeats any n >= 1 decay rate
        g = standard_gaussian()
        inner = decay_constant(g, 2, grid=dyadic_grid(kmin=-6, kmax=6))
        wider = decay_constant(g, 2, grid=dyadic_grid(kmin=-8, kmax=6))
        assert wider > 8.0 * inner

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_constant(make_S0(2), 9)
        with pytest.raises(ValueError):
            decay_constant(make_S0(2), 2, grid=[1.0, -2.0])
        with pytest.raises(ValueError):
            dyadic_grid(2, 2)


class TestProfileAndText:
    def test_profile_round_trip(self):
        prof = EProfile(make_S0(2), (0.5, 1.0, 2.0))
        header, *rows = csv.reader(io.StringIO(records.csv_text(prof.rows())))
        assert header == ["E.im", "E.re", "t"]
        for row, (im, re, t) in zip(prof.rows(), rows):
            assert float(t) == row["t"]
            assert complex(float(re), float(im)) == row["E"]
        assert records.loads(EProfile, records.dumps(prof)) == prof

    def test_profile_csv_keeps_imaginary_part(self):
        f = AdelicTestFn(
            ((FiniteTestFn(((1.0j, Fraction(1)),)), ArchTestFn((1.0,))),)
        )
        prof = EProfile(f, (1.0,))
        (row,) = prof.rows()
        _header, line = records.csv_text(prof.rows()).splitlines()
        assert row["E"].imag != 0.0
        assert line == f"{row['E'].imag!r},{row['E'].real!r},1.0"

    def test_json_exact_round_trip(self):
        f = AdelicTestFn(
            (
                (
                    FiniteTestFn(((0.5 - 0.25j, Fraction(7, 3)), (2.0, Fraction(1)))),
                    ArchTestFn((1.0, 0.0, -3.5 + 1.0j)),
                ),
            )
            + make_S0(3).summands
        )
        back = records.loads(AdelicTestFn, records.dumps(f))
        assert back == f

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            records.loads(AdelicTestFn, "no header here")
        with pytest.raises(ValueError):
            records.loads(AdelicTestFn, '{"summands": []}')
        with pytest.raises(ValueError):
            # a summand is a (finite, arch) pair
            records.loads(AdelicTestFn, '{"summands": [[{"terms": []}]]}')
