"""Critical-line samplers, zero scans, the order-counting rule, and the
discretized band model."""

import csv
import io
import math
import threading
import time
import tracemalloc
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_routes import (
    dense_shift_norm,
    lambda_one_point,
    laplace_resolvent,
    recording,
    refinement_faults,
    sampler_one_point,
    scan_one_point,
)

from adelic_zeta import lfun, numkit, polya, records
from adelic_zeta.lfun import tau_coefficients
from adelic_zeta.numkit import NonConvergenceError
from adelic_zeta.polya import (
    BandDiscretization,
    CriticalLineFn,
    PolyaSpectrum,
    SpectrumEntry,
    ZeroEntry,
    ZeroList,
    annihilator_residual,
    build_spectrum,
    generator_apply,
    n_rho,
    norm_bound_check,
    resolvent_apply,
    scan_zeros,
)

# frozen counting-rule table: (mult, delta) -> (literal, inclusive)
NRHO_TABLE = {
    (1, 3.0): (0, 1),
    (3, 3.0): (1, 1),
    (2, 1.5): (0, 0),
    (1, 3.5): (0, 1),
    (2, 3.0): (1, 1),
    (1, 1.5): (0, 0),
}


@lru_cache(maxsize=1)
def zeta_zero_oracle() -> tuple[float, float, float]:
    mp.mp.dps = 30
    return tuple(float(mp.zetazero(k).imag) for k in (1, 2, 3))


@lru_cache(maxsize=1)
def delta_zero_oracle() -> float:
    """First ordinate where the completed weight-12 L-function vanishes on
    its central line, by bisection on an mpmath tanh-sinh integral of the
    cusp-form series against 2 y^5 cos(t log y) over [1, inf)."""
    mp.mp.dps = 25
    table = tau_coefficients(40)
    coeffs = [(n, mp.mpf(table.a(n))) for n in range(1, 41)]

    def lam(t):
        tt = mp.mpf(t)

        def f(y):
            series = mp.fsum(c * mp.exp(-2 * mp.pi * n * y) for n, c in coeffs)
            return series * 2 * y**5 * mp.cos(tt * mp.log(y))

        return mp.quad(f, [1, mp.inf])

    lo, hi = mp.mpf("9.0"), mp.mpf("9.4")
    flo, fhi = lam(lo), lam(hi)
    assert mp.sign(flo) != mp.sign(fhi)
    for _ in range(30):
        mid = (lo + hi) / 2
        fm = lam(mid)
        if fm == 0:
            return float(mid)
        if mp.sign(fm) == mp.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return float((lo + hi) / 2)


class TestCriticalLineFn:
    def test_centers(self):
        assert CriticalLineFn("zeta").center == 0.5
        assert CriticalLineFn("delta").center == 6.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CriticalLineFn("mystery")

    def test_even_and_exactly_real(self):
        for kind in lfun._LINES:
            F = CriticalLineFn(kind)
            for t in (3.7, 14.0):
                assert F(t) == F(-t)
                assert F.complex_value(t).imag == 0.0

    def test_normalization_divides_by_envelope(self):
        # complex_value is the line route's value, so the normalized
        # sample is its real part over the envelope, bitwise
        for kind in lfun._LINES:
            F = CriticalLineFn(kind)
            for t in (5.0, 14.5, -21.3):
                env = F.envelope(t)
                assert env > 0.0
                assert F.complex_value(t).real / env == F(t), (kind, t)

    @pytest.mark.parametrize("kind", lfun._LINES)
    def test_envelope_is_the_gamma_factor(self, kind):
        # the envelope derived from the entry's N, k and w is
        # |N^(-ks) gamma(ks)| on the line s = w/2 + it
        line, F = lfun._LINES[kind], CriticalLineFn(kind)
        with mp.workdps(30):
            for t in (0.0, 3.7, 14.0, -21.3, 33.3, line.t_max):
                s = mp.mpc(line.w / 2, t)
                want = abs(mp.power(line.decay, -line.k * s) * mp.gamma(line.k * s))
                assert abs(F.envelope(t) - want) <= 1e-12 * want, (kind, t)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _record_line_calls(monkeypatch) -> list[int]:
    """Sizes of the polya.completed_lambda_line calls made from now on."""
    sizes = []
    line = polya.completed_lambda_line
    monkeypatch.setattr(
        polya, "completed_lambda_line", lambda k, ts: sizes.append(len(ts)) or line(k, ts)
    )
    return sizes


@st.composite
def _line_batches(draw, t_max):
    """1-64 ordinates in [-t_max, t_max], unsorted, some repeated."""
    ts = draw(st.lists(st.floats(-t_max, t_max), min_size=1, max_size=40))
    repeats = draw(st.lists(st.sampled_from(ts), max_size=24))
    return draw(st.permutations(ts + repeats))


def _lambda_or_refusal(fn, *args):
    try:
        return repr(fn(*args))
    except NonConvergenceError:
        return "refused"


class TestBatchedSampler:
    @pytest.mark.parametrize("kind, t_max", [("zeta", 60.0), ("delta", 50.0)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_values_bitwise_match_one_point_route(self, kind, t_max, data):
        ts = data.draw(_line_batches(t_max))
        F = CriticalLineFn(kind)
        got = F.values(ts)
        oracle = sampler_one_point(kind)
        assert got.shape == (len(ts),)
        assert _bits(got) == _bits([oracle(t) for t in ts])
        assert _bits(F.values(ts[::-1])) == _bits(got[::-1])
        # the completed functions themselves, at points of the benchmark's
        # point boxes (zeta: Re s in [-6, 7], |Im s| <= 60, away from the
        # poles; delta: Re s in [-0.75, 12.95], |Im s| <= 50)
        sigma = data.draw(st.floats(-6.0, 7.0) if kind == "zeta" else st.floats(-0.75, 12.95))
        s = complex(sigma, data.draw(st.floats(-t_max, t_max)))
        if kind == "zeta" and min(abs(s), abs(s - 1.0)) < 0.5:
            s += 2.0
        fn = lfun.completed_lambda_zeta if kind == "zeta" else lfun.completed_lambda_delta
        assert _lambda_or_refusal(fn, s) == _lambda_or_refusal(lambda_one_point, kind, s)

    def test_call_is_a_one_element_batch(self):
        F = CriticalLineFn("delta")
        assert F(-9.5) == F.values([9.5])[0] == sampler_one_point("delta")(9.5)

    def test_window_refused_before_sampling(self, monkeypatch):
        # the line route checks the whole batch before its first quadrature
        calls = []
        quad = lfun.integrate_finite
        monkeypatch.setattr(lfun, "integrate_finite", lambda *a: calls.append(1) or quad(*a))
        for kind, ts in (("zeta", [14.0, 60.5]), ("zeta", [14.0, math.nan]),
                         ("delta", [9.2, -50.5])):
            with pytest.raises(ValueError, match="Im s"):
                CriticalLineFn(kind).values(ts)
            with pytest.raises(ValueError, match="Im s"):
                lfun.completed_lambda_line(kind, ts[::-1])
        assert calls == []

    def test_values_hold_only_arrays(self):
        # keys, the line values, the envelope and the quotient: about 40
        # bytes an ordinate, where per-ordinate Python lists cost over 100
        ts = np.linspace(0.0, 50.0, 100_001)
        F = CriticalLineFn("zeta")
        F.values(ts[:64])  # warm the node and factor caches
        tracemalloc.start()
        try:
            F.values(ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / ts.size < 48.0

    def test_refusal_far_from_the_strip_leaves_tables_bounded(self):
        # the point needs all 14 refinements and is refused; only the levels
        # of at most _CACHED_PANELS panels (7 of its 15) may enter the node
        # cache, and only node sets of at most _FACTOR_NODES the factor cache
        nodes_before = numkit._cached_level.cache_info()
        factors_before = lfun._cached_factor.cache_info()
        with pytest.raises(NonConvergenceError):
            lfun.completed_lambda_delta(30 + 50j)
        nodes_after = numkit._cached_level.cache_info()
        factors_after = lfun._cached_factor.cache_info()
        levels_cached = int(math.log2(numkit._CACHED_PANELS)) + 1
        assert nodes_after.currsize <= nodes_after.maxsize == numkit._LEVEL_SLOTS
        assert nodes_after.misses - nodes_before.misses <= levels_cached
        assert factors_after.currsize <= factors_after.maxsize == lfun._FACTOR_SLOTS
        assert factors_after.misses - factors_before.misses <= levels_cached

    def test_long_lines_run_in_batches(self, monkeypatch):
        # more points than one batch holds go through integrate_finite
        # _LINE_ROWS at a time, with the one-point values, real and
        # imaginary parts, at t = 0, -0.0 and both ends of the window too
        calls = []
        quad = lfun.integrate_finite
        monkeypatch.setattr(lfun, "integrate_finite", lambda *a: calls.append(1) or quad(*a))
        for kind, line in lfun._LINES.items():
            ts = np.concatenate([np.linspace(10.0, 12.0, lfun._LINE_ROWS + 9),
                                 [0.0, -0.0, line.t_max, -line.t_max]])
            calls.clear()
            whole = lfun.completed_lambda_line(kind, ts)
            assert len(calls) == 2
            parts = [lambda_one_point(kind, complex(0.5 * line.w, t), lfun._LINE_TOL)
                     for t in ts]
            assert whole.tobytes() == np.array(parts).tobytes()

    def test_long_grid_is_one_line_call(self, monkeypatch):
        # values hands the whole grid to completed_lambda_line, which alone
        # decides how many points share a quadrature batch
        lines = _record_line_calls(monkeypatch)
        ts = np.linspace(10.0, 12.0, 2 * lfun._LINE_ROWS + 9)
        got = CriticalLineFn("zeta").values(ts[::-1])
        assert lines == [ts.size]
        oracle = sampler_one_point("zeta")
        assert got.tobytes() == np.array([oracle(t) for t in ts[::-1]]).tobytes()


class TestScan:
    def test_zeta_first_three_against_mpmath(self):
        zeros = scan_zeros(CriticalLineFn("zeta"), 10.0, 26.0)
        assert len(zeros) == 3
        for got, want in zip(zeros.ordinates(), zeta_zero_oracle()):
            assert abs(got - want) < 1e-6

    def test_single_zero_window(self):
        zeros = scan_zeros(CriticalLineFn("zeta"), 10.0, 15.0)
        assert len(zeros) == 1
        assert abs(zeros.ordinates()[0] - 14.134725141734695) < 1e-6

    def test_empty_window(self):
        assert len(scan_zeros(CriticalLineFn("zeta"), 0.0, 10.0)) == 0

    def test_delta_first_zero_against_integral_oracle(self):
        zeros = scan_zeros(CriticalLineFn("delta"), 9.0, 9.4)
        assert len(zeros) == 1
        assert abs(zeros.ordinates()[0] - delta_zero_oracle()) < 1e-6

    def test_delta_zeros_to_twenty(self):
        zeros = scan_zeros(CriticalLineFn("delta"), 9.0, 20.0)
        want = (9.222379, 13.90755, 17.442777, 19.656513)
        assert len(zeros) == len(want)
        for got, ref in zip(zeros.ordinates(), want):
            assert abs(got - ref) < 2e-5

    @pytest.mark.parametrize(
        "kind, t_from, t_to",
        # one-zero windows of width 1.5 as in the benchmark, then the two
        # known-faulty windows, where the ordinates stay wrong the same way
        [("zeta", 13.43, 14.93), ("zeta", 20.1, 21.6), ("zeta", 24.3, 25.8),
         ("delta", 8.6, 10.1), ("delta", 13.2, 14.7), ("delta", 16.9, 18.4),
         ("delta", 18.9, 20.4), ("zeta", 0.0, 60.0), ("delta", 0.0, 30.0)],
    )
    def test_ordinates_match_one_point_scan(self, kind, t_from, t_to):
        # ITP steps move an ordinate inside its bracket, so the scan must
        # find as many zeros as the point-by-point bisection scan, each one
        # certified by the samples it took, within the call budget
        F, tol = CriticalLineFn(kind), 1e-10
        F.values, samples, calls = recording(F.values)
        got = scan_zeros(F, t_from, t_to, tol=tol).ordinates()
        assert len(got) == len(scan_one_point(kind, t_from, t_to, tol=tol))
        assert refinement_faults(samples, calls, got, tol) == []

    def test_grid_is_one_call_and_bisection_one_point_calls(self):
        # one 31-point grid call, then one-point refinement calls: within
        # the budget, bisection's 29 plus one, and far fewer on this
        # smooth sampler
        F = CriticalLineFn("zeta")
        sizes = []
        values = F.values
        F.values = lambda ts: sizes.append(len(ts)) or values(ts)
        scan_zeros(F, 13.5, 15.0)
        assert sizes[0] == 31 and set(sizes[1:]) == {1} and len(sizes) > 1
        assert len(sizes) - 1 <= 12

    def test_window_gates(self, monkeypatch):
        F = CriticalLineFn("zeta")
        lines = _record_line_calls(monkeypatch)
        for args in ((-1.0, 10.0), (10.0, 10.0), (12.0, 11.0), (10.0, 61.0)):
            with pytest.raises(ValueError):
                scan_zeros(F, *args)
        with pytest.raises(ValueError):
            scan_zeros(F, 10.0, 15.0, step=0.3)
        with pytest.raises(ValueError):
            scan_zeros(F, 10.0, 15.0, step=0.0)
        with pytest.raises(ValueError):
            scan_zeros(F, 10.0, 15.0, tol=0.0)
        for tol in (math.nan, math.inf, 1e-300, 0.5 * math.ulp(15.0)):
            with pytest.raises(ValueError, match="float spacing at 15.0"):
                scan_zeros(F, 10.0, 15.0, tol=tol)
        with pytest.raises(ValueError, match="1000000 grid nodes"):
            scan_zeros(F, 0.0, 50.0, step=5e-5)
        assert lines == []

    def test_delta_window_ends_at_fifty(self, monkeypatch):
        # completed_lambda_delta refuses |Im s| > 50, so the scan refuses
        # such windows before it samples anything
        F = CriticalLineFn("delta")
        lines = _record_line_calls(monkeypatch)
        with pytest.raises(ValueError, match="<= 50 for delta"):
            scan_zeros(F, 10.0, 50.5)
        assert lines == []
        assert len(scan_zeros(F, 49.9, 50.0)) <= 2
        with pytest.raises(ValueError):
            F(50.5)

    @pytest.mark.parametrize(
        "t_from, t_to, step", [(10.0, 26.0, 0.05), (0.0, 10.0, 0.05), (14.0, 14.3, 0.05),
                               (9.0, 9.4, 0.05), (0.0, 7.0, 0.2), (3.0, 3.01, 0.2)]
    )
    def test_matches_inline_bracketing(self, t_from, t_to, step):
        # the scan's former inline loop fixes which zeros are found: the
        # exact node zero at t = 3.0 as-is, none at t = 0, one per sign
        # change; each refined one lies within tol/2 of the closed form
        # t = (+-arccos(-0.1) + 2 pi k) / 1.7
        class Stub:
            kind = "zeta"

            def __call__(self, t):
                return 0.0 if t == 3.0 else math.cos(1.7 * t) + 0.1

            def values(self, ts):
                return np.array([self(t) for t in ts.tolist()])

        F, tol = Stub(), 1e-10
        n = int(math.ceil((t_to - t_from) / step - 1e-12))
        xs = [t_from + i * step for i in range(n)] + [t_to]
        vals = [F(x) for x in xs]
        want = []
        for i, (x, v) in enumerate(zip(xs, vals)):
            if v == 0.0:
                if x > 0.0:
                    want.append(x)
                continue
            if i + 1 < len(xs) and v * vals[i + 1] < 0.0:
                want.append(None)  # a sign change in (x, xs[i + 1])
        got = scan_zeros(F, t_from, t_to, step=step, tol=tol).ordinates()
        assert len(got) == len(want)
        base = math.acos(-0.1)
        for rho, node in zip(got, want):
            if node is not None:
                assert rho == node
                continue
            k = round((1.7 * rho - base) / (2 * math.pi))
            true = min(((sign * base + 2 * math.pi * j) / 1.7 for sign in (1, -1)
                        for j in (k - 1, k, k + 1)), key=lambda t: abs(t - rho))
            assert abs(rho - true) <= tol / 2, (rho, true)


class TestThreads:
    def test_concurrent_evaluation_consistent(self):
        F = CriticalLineFn("zeta")
        ts = [10.0 + 0.05 * i for i in range(80)]
        results = []

        def worker():
            results.append([F(t) for t in ts])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(results) == 4
        for row in results[1:]:
            assert row == results[0]


class TestCountingRule:
    def test_frozen_table(self):
        for (mult, delta), (lit, inc) in NRHO_TABLE.items():
            assert n_rho(mult, delta, "literal") == lit, (mult, delta)
            assert n_rho(mult, delta, "inclusive") == inc, (mult, delta)

    def test_validation(self):
        with pytest.raises(ValueError):
            n_rho(0, 3.0)
        with pytest.raises(ValueError):
            n_rho(1, 1.0)
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="delta must exceed 1 and be finite"):
                n_rho(1, delta)
        for variant in ("maximal", "strict-literal"):
            with pytest.raises(ValueError):
                n_rho(1, 3.0, variant=variant)


class TestSpectrum:
    def zeros(self):
        return ZeroList(
            "zeta",
            (
                ZeroEntry(14.134725, 1e-10, 1),
                ZeroEntry(21.022040, 1e-10, 3),
            ),
        )

    def test_build_literal(self):
        spec = build_spectrum(self.zeros(), delta=3.0, m_pi=2, variant="literal")
        assert spec.rule_variant == "literal"
        assert [e.n_rho for e in spec] == [0, 1]
        assert [e.eig_mult for e in spec] == [0, 2]
        assert [e.is_eigenvalue for e in spec] == [False, True]
        assert [(e.n_literal, e.n_inclusive) for e in spec] == [(0, 1), (1, 1)]

    def test_build_inclusive(self):
        inc = build_spectrum(self.zeros(), delta=3.0, m_pi=2, variant="inclusive")
        assert inc.rule_variant == "inclusive"
        assert [e.eig_mult for e in inc] == [2, 2]

    def test_empty(self):
        spec = build_spectrum(ZeroList("zeta", ()), delta=3.0)
        assert len(spec) == 0

    @pytest.mark.parametrize("delta", [0.5, 1.0, math.inf, math.nan])
    def test_delta_refused_whatever_the_zeros(self, delta):
        # checked once, before any zero is read: an empty list is no way round
        for zeros in (ZeroList("zeta", ()), self.zeros()):
            with pytest.raises(ValueError, match="delta must exceed 1 and be finite"):
                build_spectrum(zeros, delta=delta)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_spectrum(self.zeros(), delta=3.0, m_pi=0)
        for variant in ("nope", "strict-literal"):
            with pytest.raises(ValueError):
                build_spectrum(self.zeros(), delta=3.0, variant=variant)

    def test_json_round_trip(self):
        spec = build_spectrum(self.zeros(), delta=3.0, m_pi=2)
        assert records.loads(PolyaSpectrum, records.dumps(spec)) == spec
        # files written by the former PolyaSpectrum.to_json carry the derived
        # is_eigenvalue flag; it is ignored on load
        old = (
            '{"delta": 3.0, "entries": [{"eig_mult": 0, "is_eigenvalue": false, '
            '"n_inclusive": 1, "n_literal": 0, "n_rho": 0, "rho": 14.134725}, '
            '{"eig_mult": 2, "is_eigenvalue": true, "n_inclusive": 1, "n_literal": 1, '
            '"n_rho": 1, "rho": 21.02204}], "m_pi": 2, "rule_variant": "literal"}'
        )
        assert records.loads(PolyaSpectrum, old) == spec

    def test_csv_shape(self):
        spec = build_spectrum(self.zeros(), delta=3.0)
        lines = records.csv_text(spec.entries).strip().splitlines()
        assert lines[0] == "eig_mult,n_inclusive,n_literal,n_rho,rho"
        assert len(lines) == 3
        assert lines[1].endswith(",14.134725")


class TestZeroListSerde:
    def sample(self):
        return ZeroList(
            "delta", (ZeroEntry(9.222379, 1e-10, 1), ZeroEntry(13.907549, 1e-10, 2))
        )

    def test_csv_round_trip(self):
        # the CSV view is write-only, but its cells are exact: any CSV
        # reader recovers the entries
        z = self.sample()
        header, *rows = csv.reader(io.StringIO(records.csv_text(z.zeros)))
        assert header == ["mult_assumed", "refined_tol", "rho"]
        back = tuple(ZeroEntry(float(rho), float(tol), int(m)) for m, tol, rho in rows)
        assert back == z.zeros

    def test_json_round_trip(self):
        z = self.sample()
        text = records.dumps(z)
        # the bytes of the former ZeroList.to_json
        assert text == (
            '{"kind": "delta", "zeros": [{"mult_assumed": 1, "refined_tol": 1e-10, '
            '"rho": 9.222379}, {"mult_assumed": 2, "refined_tol": 1e-10, "rho": 13.907549}]}'
        )
        assert records.loads(ZeroList, text) == z

    def test_kind_enforcement(self):
        assert records.loads(ZeroList, '{"kind": "zeta", "zeros": []}') == ZeroList("zeta", ())
        with pytest.raises(ValueError):
            records.loads(ZeroList, '{"kind": "other", "zeros": []}')
        with pytest.raises(TypeError):
            records.loads(ZeroList, '{"zeros": []}')  # kind has no default

    def test_order_validation(self):
        with pytest.raises(ValueError):
            ZeroList("zeta", (ZeroEntry(14.0, 1e-10), ZeroEntry(13.0, 1e-10)))
        with pytest.raises(ValueError):
            ZeroList("zeta", (ZeroEntry(0.0, 1e-10),))
        with pytest.raises(ValueError):
            ZeroList("other", ())


class TestAnnihilator:
    def test_dichotomy_at_and_between_zeros(self):
        F = CriticalLineFn("zeta")
        zeros = scan_zeros(F, 10.0, 26.0)
        rho1, rho2, rho3 = zeros.ordinates()
        for rho in (rho1, rho2, rho3):
            assert annihilator_residual(F, rho, 0) < 1e-8
            assert annihilator_residual(F, rho, 1) > 1e-3
        mid = 0.5 * (rho1 + rho2)
        assert annihilator_residual(F, mid, 0) > 1e-3

    def test_first_derivative_against_coarse_stencil(self):
        F = CriticalLineFn("zeta")
        (rho,) = scan_zeros(F, 14.0, 14.3).ordinates()
        h = 5e-4
        two_point = abs((F(rho + h) - F(rho - h)) / (2.0 * h))
        assert abs(annihilator_residual(F, rho, 1) - two_point) < 1e-4

    @pytest.mark.parametrize("k, points", [(0, 1), (1, 4), (2, 5)])
    def test_stencil_is_one_call(self, k, points):
        F = CriticalLineFn("delta")
        sizes = []
        values = F.values
        F.values = lambda ts: sizes.append(len(ts)) or values(ts)
        rho, h = 9.2223793, 1e-3
        got = annihilator_residual(F, rho, k)
        assert sizes == [points]
        f = sampler_one_point("delta")
        fm2, fm1, f0, fp1, fp2 = (f(rho + j * h) for j in (-2, -1, 0, 1, 2))
        want = (abs(f0), abs((fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)),
                abs((-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)))[k]
        assert got == want

    def test_orders_and_validation(self):
        F = CriticalLineFn("zeta")
        assert math.isfinite(annihilator_residual(F, 14.1347, 2))
        with pytest.raises(ValueError):
            annihilator_residual(F, 14.0, 3)
        with pytest.raises(ValueError):
            annihilator_residual(F, 14.0, -1)
        # samples reach t +- 2e-3 for k >= 1 and must stay in |t| <= 60
        assert math.isfinite(annihilator_residual(F, 59.998, 2))
        assert math.isfinite(annihilator_residual(F, 60.0, 0))
        for t, k in ((59.999, 1), (-59.999, 2), (60.5, 0), (math.nan, 0)):
            with pytest.raises(ValueError, match="zeta window"):
                annihilator_residual(F, t, k)


class TestBandModel:
    def test_grid_and_weights(self):
        band = BandDiscretization(10.0, 0.5, 2.0)
        assert band.size == 41
        assert band.grid[0] == -10.0 and band.grid[-1] == 10.0
        assert np.allclose(band.weights, 1.0 + band.grid**2)
        v = np.ones(41)
        assert band.norm(v) == pytest.approx(
            math.sqrt(0.5 * float(np.sum(band.weights)))
        )

    def test_generator_is_multiplication(self):
        band = BandDiscretization(5.0, 0.25, 1.0)
        v = band.sample(lambda t: math.exp(-t * t))
        assert np.array_equal(generator_apply(band, v), 1j * band.grid * v)

    def test_validation(self):
        for bad in ((0.0, 0.1, 1.0), (5.0, 0.0, 1.0), (5.0, 6.0, 1.0), (5.0, 0.1, -1.0)):
            with pytest.raises(ValueError):
                BandDiscretization(*bad)
        band = BandDiscretization(5.0, 0.25, 1.0)
        with pytest.raises(ValueError):
            band.norm(np.ones(7))
        with pytest.raises(ValueError):
            generator_apply(band, np.ones(7))


class TestResolvent:
    def band(self):
        return BandDiscretization(20.0, 0.05, 1.5)

    def test_resolvent_identity(self):
        band = self.band()
        rng = np.random.default_rng(7)
        v = rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)
        for kappa in (1.0, -1.0, 2.0, 1.0 + 1.0j, -0.7 - 0.3j):
            r = resolvent_apply(band, v, kappa)
            back = generator_apply(band, r) - kappa * r
            assert band.norm(back - v) <= 1e-10 * band.norm(v), kappa

    def test_laplace_route_matches_diagonal(self):
        band = self.band()
        v = band.sample(lambda t: math.exp(-0.01 * t * t))
        for kappa in (1.0, -1.0, 1.0 + 0.5j):
            a = resolvent_apply(band, v, kappa)
            b = laplace_resolvent(band, v, kappa)
            assert band.norm(a - b) <= 1e-6 * band.norm(v), kappa

    def test_contraction_along_real_axis(self):
        band = self.band()
        rng = np.random.default_rng(11)
        v = rng.standard_normal(band.size)
        for kappa in (0.8, -1.3, 2.5):
            r = resolvent_apply(band, v, kappa)
            assert band.norm(r) * abs(kappa) <= band.norm(v) * (1.0 + 1e-12)

    def test_indicator_value(self):
        band = self.band()
        v = np.zeros(band.size)
        center = band.size // 2
        assert band.grid[center] == 0.0
        v[center] = 1.0
        r = resolvent_apply(band, v, 1.0)
        assert r[center] == -1.0

    def test_validation(self):
        band = self.band()
        v = np.ones(band.size)
        with pytest.raises(ValueError):
            resolvent_apply(band, v, 2.0j)
        with pytest.raises(ValueError):
            resolvent_apply(band, np.ones(3), 1.0)
        with pytest.raises(TypeError):
            resolvent_apply(band, v, 1.0, route="laplace")


class TestNormBound:
    def test_identity_shift_is_exact(self):
        measured, bound = norm_bound_check(0.0, 2.0)
        assert measured == 1.0
        assert bound >= 1.0

    def test_unweighted_shift_is_isometric(self):
        measured, bound = norm_bound_check(1.0, 0.0)
        assert measured == 1.0
        assert bound == 1.0

    def test_bound_respected_on_grid(self):
        for a in (0.5, 2.0):
            for delta in (1.5, 3.0):
                measured, bound = norm_bound_check(a, delta)
                assert measured <= bound + 1e-12, (a, delta)

    @settings(max_examples=25, deadline=None)
    @given(steps=st.integers(-900, 900), delta=st.floats(0.0, 4.0))
    def test_exact_norm_matches_dense_oracle(self, steps, delta):
        a = steps * polya._NORM_H
        measured, bound = norm_bound_check(a, delta)
        assert measured == pytest.approx(dense_shift_norm(a, delta), rel=1e-12, abs=0.0)
        assert measured <= bound

    @pytest.mark.parametrize("a", [40.05, -50.0, 1e300, -1.7e308])
    def test_shift_past_the_grid_is_zero(self, a):
        # every index leaves the 801-point grid; nothing of the size of
        # a / 0.05 is built
        start = time.perf_counter()
        assert norm_bound_check(a, 0.0) == (0.0, 1.0)
        assert time.perf_counter() - start < 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="integer multiple of the grid step 0.05"):
            norm_bound_check(0.513, 2.0)
        with pytest.raises(ValueError):
            norm_bound_check(0.5, -1.0)
        for a, delta in ((math.inf, 2.0), (math.nan, 2.0), (0.5, math.inf), (0.5, math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                norm_bound_check(a, delta)
        for a, delta in ((1e300, 2.0), (1e150, 8.0)):
            with pytest.raises(ValueError, match="growth bound overflows"):
                norm_bound_check(a, delta)
        for knob in ({"trials": 2}, {"seed": 0}, {"t_max": 20.0}, {"h": 0.05}):
            with pytest.raises(TypeError):
                norm_bound_check(0.5, 2.0, **knob)
