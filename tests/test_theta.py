"""Adelic test functions, lattice sums, the functional equation, and the
Mellin side."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import loop_lattice_sum

from adelic_zeta import theta
from adelic_zeta.lfun import completed_lambda_zeta
from adelic_zeta.numkit import PoleError
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
    format_test_fn,
    functional_eq_residual,
    is_S0,
    make_S0,
    mellin_E,
    mellin_residue_probe,
    parse_test_fn,
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
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                E_eval(standard_gaussian(), bad)
            with pytest.raises(ValueError):
                E_batch(standard_gaussian(), [1.0, bad])

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
                assert kmax == loop_lattice_sum(m * t, (0.0, 0.0, 1.0), 1e-17)[1]


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
    a time (scalar integrate_halfline over E_eval)."""
    fhat = f.fourier()
    spec = theta._MELLIN_SPEC
    out = theta._halfline_mellin_part(f, s, spec, batched=False)
    out += theta._halfline_mellin_part(fhat, -s, spec, batched=False)
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
            b = mellin_E(standard_gaussian(), s, method="direct")
            assert abs(a - b) < tol, s

    def test_direct_route_rejects_left_halfplane(self):
        with pytest.raises(ValueError):
            mellin_E(standard_gaussian(), 0.3, method="direct")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            mellin_E(standard_gaussian(), 2.0, method="sideways")

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

    def test_residue_probe_validation(self):
        with pytest.raises(ValueError):
            mellin_residue_probe(standard_gaussian(), 2.0, radius=0.0)
        with pytest.raises(ValueError):
            mellin_residue_probe(standard_gaussian(), 2.0, n_points=4)


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
        text = prof.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "t,E"
        for (t, v), line in zip(prof.rows(), lines[1:]):
            t_txt, e_txt = line.split(",")
            assert float(t_txt) == t
            assert float(e_txt) == v.real

    def test_profile_rejects_nonreal(self):
        f = AdelicTestFn(
            ((FiniteTestFn(((1.0j, Fraction(1)),)), ArchTestFn((1.0,))),)
        )
        with pytest.raises(ValueError):
            EProfile(f, (1.0,)).to_csv()

    def test_format_parse_exact_round_trip(self):
        f = AdelicTestFn(
            (
                (
                    FiniteTestFn(((0.5 - 0.25j, Fraction(7, 3)), (2.0, Fraction(1)))),
                    ArchTestFn((1.0, 0.0, -3.5 + 1.0j)),
                ),
            )
            + make_S0(3).summands
        )
        back = parse_test_fn(format_test_fn(f))
        assert back == f

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_test_fn("no header here")
        with pytest.raises(ValueError):
            parse_test_fn("[adelic-zeta:test-function:v1]\nsummands = 1\n")
