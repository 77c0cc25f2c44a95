"""Global objects built from local data: integer coefficient tables (with
the exact weight-12 cusp form expansion), Euler products over sieved
primes, an Euler-Maclaurin zeta evaluator, and the completed zeta and
weight-12 cusp form L-functions.  Each completed function is one entry of
_LINES, the one source of windows, centers and envelopes, read by one
incomplete-theta route that makes its symmetry s <-> w-s exact as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from ._backend import kernels
from .numkit import (
    NonConvergenceError,
    PoleError,
    QuadratureSpec,
    gamma,  # not called here; e2ebench/tracer.py wraps lfun.gamma
    integrate_finite,
    sum_compensated,
)

__all__ = [
    "primes_up_to",
    "CoeffTable",
    "tau_coefficients",
    "sigma_k",
    "zeta_em",
    "EulerProduct",
    "EulerProductValue",
    "zeta_product",
    "delta_product",
    "euler_product_eval",
    "completed_lambda_zeta",
    "completed_lambda_delta",
    "completed_lambda_line",
]

_MAX_TAU = 100_000
_MAX_SIEVE = 400_000
_CUTOFF_TOL = 1e-18  # bound on a theta integrand past its cutoff (_cutoff)


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n by a boolean sieve (n capped to keep tables desk-sized)."""
    if n < 2:
        return ()
    if n > _MAX_SIEVE:
        raise ValueError(f"sieve bound capped at {_MAX_SIEVE}")
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(mask)[0])


@dataclass(frozen=True)
class CoeffTable:
    """Exact integer Dirichlet coefficients a_1..a_N (anchored at a_1 = 1)."""

    values: tuple[int, ...]

    def __post_init__(self):
        self._check_anchor()
        if any(not isinstance(v, int) for v in self.values):
            raise ValueError("coefficients must be exact integers")

    def _check_anchor(self) -> None:
        if not self.values:
            raise ValueError("empty coefficient table")
        if self.values[0] != 1:
            raise ValueError("tables are normalized with a_1 = 1")

    @classmethod
    def _of_ints(cls, values: tuple[int, ...]) -> "CoeffTable":
        """A table of entries that are Python ints by construction, with
        every check of the constructor but the per-entry type check."""
        table = object.__new__(cls)
        object.__setattr__(table, "values", values)
        table._check_anchor()
        return table

    def __len__(self) -> int:
        return len(self.values)

    def a(self, n: int) -> int:
        if not (1 <= n <= len(self.values)):
            raise IndexError(f"coefficient a_{n} outside table of length {len(self)}")
        return self.values[n - 1]


def tau_coefficients(n: int) -> CoeffTable:
    """tau(1..n) as exact integers via the eta-power kernel.

    The kernel works modulo enough primes below 2^45 to cover Deligne's
    bound |tau(m)| <= 2 m^6 and rebuilds each entry by the Chinese
    remainder theorem, so every entry is exact.  n is capped at _MAX_TAU
    to bound the time of one call: seven passes of about sqrt(2n) shifted
    int64 additions over n entries per modulus, with two moduli up to
    n = 26007 and three at the cap.
    """
    if not (1 <= n <= _MAX_TAU):
        raise ValueError(f"n must lie in [1, {_MAX_TAU}]")
    return CoeffTable._of_ints(tuple(kernels.eta24_coefficients(n)))


def sigma_k(n: int, k: int) -> int:
    """Sum of k-th powers of the divisors of n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """B_m in the B_1 = -1/2 convention, by the defining recurrence."""
    if m == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(m):
        total += Fraction(math.comb(m + 1, j)) * _bernoulli(j)
    return -total / (m + 1)


def zeta_em(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin: the Dirichlet sum over n <= 100
    plus the boundary term and 10 Bernoulli corrections.

    Window: -1 <= Re s <= 1e15, |Im s| <= 150.  Inside it the error is
    below 1e-11 * max(1, |zeta(s)|): 8.2e-12 at worst against mpmath (near
    s = -1 + 4.37i) on grids of step 0.1 x 0.5 over Re s in [-1, 6] and of
    step 0.01 in Im s along Re s = -1.  The head's cancellation grows like
    100^(1 - Re s) to the left, the Bernoulli remainder like
    (|s| / 200 pi)^20 up the line, and the rising factorial overflows past
    Re s ~ 1.7e16.  ValueError outside the window; PoleError near s = 1.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-8:
        raise PoleError("zeta pole at s = 1")
    if not (-1.0 <= s.real <= 1e15 and abs(s.imag) <= 150.0):
        raise ValueError(f"zeta: s = {s} lies outside -1 <= Re s <= 1e15, |Im s| <= 150")
    n_arr = np.arange(1, 101, dtype=float)
    head = sum_compensated(np.exp(-s * np.log(n_arr)))
    big_n = 100.0
    tail = big_n ** (1.0 - s) / (s - 1.0) - 0.5 * big_n ** (-s)
    corr = 0j
    rising = s  # s (s+1) ... accumulated
    power = big_n ** (-s - 1.0)
    for k in range(1, 11):
        b2k = _bernoulli(2 * k)
        corr += (float(b2k) / math.factorial(2 * k)) * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= big_n * big_n
    return complex(head) + tail + corr


@dataclass(frozen=True, eq=False)
class EulerProduct:
    """Descriptor of a degree-d Euler product prod_p det(1 - A_p p^-s)^-1:
    row i of ``rows``, built once, holds the ascending coefficients of
    det(1 - A_p X) at the i-th prime p, for every prime p <= ``bound`` (zeta's
    one row, broadcast, runs past them).  ``normalization`` names the
    variable s; with the motivic weight, s_unitary = s_arithmetic - weight/2."""

    label: str
    degree: int
    rows: np.ndarray
    bound: int
    normalization: str
    weight: int = 0

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.normalization not in ("arithmetic", "unitary"):
            raise ValueError("normalization must be arithmetic or unitary")


def zeta_product() -> EulerProduct:
    """The Riemann zeta Euler product: the row (1, -1) at every prime up to
    the sieve cap (weight 0: both normalizations agree)."""
    rows = np.broadcast_to(np.array([1.0, -1.0], dtype=complex), (_MAX_SIEVE, 2))
    return EulerProduct("zeta", 1, rows, _MAX_SIEVE, "unitary", 0)


def delta_product(table: CoeffTable, normalization: str = "arithmetic") -> EulerProduct:
    """Degree-2 Euler product of the weight-12 level-1 cusp form: the row
    (1, -a_p, p^11) (arithmetic) or (1, -a_p p^-5.5, 1) (unitary) at every
    prime p <= len(table), built once from the exact coefficient table;
    EulerProduct refuses any other normalization."""
    a, ps = table.values, primes_up_to(len(table))
    if normalization == "arithmetic":
        rows = [(1.0, -float(a[p - 1]), float(p) ** 11) for p in ps]
    else:
        rows = [(1.0, -(a[p - 1] / float(p) ** 5.5), 1.0) for p in ps]
    rows = np.array(rows, dtype=complex).reshape(len(ps), 3)
    rows.flags.writeable = False
    return EulerProduct("delta", 2, rows, len(table), normalization, 11)


@dataclass(frozen=True)
class EulerProductValue:
    value: complex
    tail_log_bound: float
    primes_used: int


def euler_product_eval(L: EulerProduct, s: complex, prime_bound: int) -> EulerProductValue:
    """Finite Euler product over p <= prime_bound: the first rows of L in
    one kernels.euler_product call, with the integral-test tail estimate
    degree * P^(1-sigma)/(sigma-1) on |log| of the omitted factors (sigma
    the unitary-normalized real part).

    PoleError outside the half-plane of absolute convergence or where the
    kernel finds a vanishing local factor; ValueError for a non-finite s or
    a prime up to prime_bound past the rows of L (too short a tau table).
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"s must be finite, got {s}")
    sigma = s.real - (0.0 if L.normalization == "unitary" else L.weight / 2.0)
    if sigma <= 1.0:
        raise PoleError(
            f"Euler product for {L.label} diverges at Re s = {s.real:g} "
            f"(unitary real part {sigma:g} <= 1)"
        )
    ps = primes_up_to(prime_bound)
    if not ps:
        raise ValueError("prime_bound below 2")
    if ps[-1] > L.bound:
        first = next(p for p in ps if p > L.bound)
        raise ValueError(f"prime_bound {prime_bound} for {L.label}: "
                         f"coefficient a_{first} outside table of length {L.bound}")
    value = kernels.euler_product(ps, L.rows[: len(ps)], s)
    tail = L.degree * prime_bound ** (1.0 - sigma) / (sigma - 1.0)
    return EulerProductValue(complex(value), float(tail), len(ps))


def _cutoff(decay_rate: float, growth: float) -> float:
    """Smallest v with exp(-decay_rate*e^v + growth*v) below _CUTOFF_TOL,
    stepped by quarters so nearby inputs share panel layouts."""
    target = -math.log(_CUTOFF_TOL)
    v = 1.0
    while decay_rate * math.exp(v) - growth * v < target:
        v += 0.25
        if v > 12.0:
            raise NonConvergenceError("integral cutoff search ran away")
    return v


def _omega_zeta(y: np.ndarray) -> np.ndarray:
    """omega(y) = sum_{m>=1} exp(-pi m^2 y) for y >= 1 (4 terms suffice
    below 1e-19 there)."""
    out = np.zeros_like(y)
    for m in range(1, 5):
        out += np.exp(-math.pi * m * m * y)
    return out


@lru_cache(maxsize=1)
def _default_delta_table() -> CoeffTable:
    return tau_coefficients(64)


def _delta_series(y: np.ndarray, table: CoeffTable) -> np.ndarray:
    """q-expansion of the cusp form on the imaginary axis: sum tau(m)
    exp(-2 pi m y), truncated once the tail is below 1e-19 at min(y)."""
    ymin = float(np.min(y))
    out = np.zeros_like(y)
    for m in range(1, len(table) + 1):
        w = table.a(m)
        if abs(w) * math.exp(-2.0 * math.pi * m * ymin) < 1e-19 and m > 2:
            break
        out += w * np.exp(-2.0 * math.pi * m * y)
    else:
        raise ValueError("coefficient table too short for requested accuracy")
    return out


@dataclass(frozen=True, eq=False)
class _Line:
    """A completed L-function Lambda(s) = N^(-ks) gamma(ks) L(s) =
    Lambda(w - s) as the data of its theta integral, symmetric as written:

        int_0^inf g(e^v) (e^(ksv) + e^(k(w-s)v)) dv  [- 1/s - 1/(w-s) if polar],

    g the theta series less its constant term, decaying like exp(-N y).
    _rows derives the exponents, the cutoff growth
    k max(|Re s|, |w - Re s|) + margin and the polar terms; polya the
    center w/2 and the envelope N^(-kw/2) |gamma(kw/2 + ikt)|.  The window
    of s is |Re s| <= re_max, |w - Re s| <= reflected_max, |Im s| <= t_max.
    """

    g: Callable[[np.ndarray], np.ndarray]
    decay: float
    k: float
    w: float
    polar: bool
    margin: float
    re_max: float
    reflected_max: float
    t_max: float


# the one source of windows, centers and envelopes: a new L-function of
# this form is one more entry.  Each window is closed under s <-> w - s:
# zeta's Re s lies in [-40, 41], delta's in [-28, 40].
_LINES = {
    "zeta": _Line(g=_omega_zeta, decay=math.pi, k=0.5, w=1.0, polar=True,
                  margin=1.0, re_max=41.0, reflected_max=41.0, t_max=60.0),
    "delta": _Line(g=lambda y: _delta_series(y, _default_delta_table()),
                   decay=2.0 * math.pi, k=1.0, w=12.0, polar=False,
                   margin=0.0, re_max=40.0, reflected_max=40.0, t_max=50.0),
}

# theta factors g(e^v) kept by _theta_factor, keyed on the nodes v, so they
# hold whatever node sets integrate_finite passes: the 140 nodes of its
# first three levels in one set, then one set per finer level.  At most
# _FACTOR_SLOTS node sets of at most _FACTOR_NODES nodes each (10 kB a
# factor, 20 kB with its key).  The central lines settle by level 3 (160
# nodes); larger node sets, which only points far from the strip reach, are
# recomputed on every call.
_FACTOR_NODES = 1280
_FACTOR_SLOTS = 32


@lru_cache(maxsize=_FACTOR_SLOTS)
def _cached_factor(line: _Line, nodes: bytes) -> np.ndarray:
    g = line.g(np.exp(np.frombuffer(nodes)))
    g.flags.writeable = False
    return g


def _theta_factor(line: _Line, v: np.ndarray) -> np.ndarray:
    if v.size > _FACTOR_NODES:
        return line.g(np.exp(v))
    return _cached_factor(line, v.tobytes())


# fixed absolute targets: one point of completed_lambda_zeta/_delta, and
# completed_lambda_line, the critical-line samplers' route
_POINT_TOL = 2e-13
_LINE_TOL = 1e-14


def _rows(line: _Line, ss: list[complex], tol: float) -> list[complex]:
    """The completed function of ``line`` at points of one real part, in one
    integrate_finite batch at absolute tolerance tol with up to 14
    refinements; each point pays only for its own exponential row: the real
    g(e^v) 2 Re exp(a v) on the line's center w/2, where the samplers and
    scans evaluate, and the complex g(e^v) (exp(a v) + exp(b v)) off it."""
    k, w, sigma = line.k, line.w, ss[0].real
    v_max = _cutoff(line.decay, k * max(abs(sigma), abs(w - sigma)) + line.margin)
    a = np.array([[k * s] for s in ss])
    if sigma == 0.5 * w:
        # b = k (w - s) is conj(a) (both imaginary parts +0.0 at t = 0), and
        # numpy's complex exp is conjugate-symmetric, so exp(a v) + exp(b v)
        # is exactly 2 Re exp(a v) + 0.0j: one complex exp per node, and
        # real rows, which integrate_finite sums without their zero
        # imaginary parts.  Bitwise the value of the complex integrand.
        def integrand(v: np.ndarray) -> np.ndarray:
            return _theta_factor(line, v) * (2.0 * np.exp(a * v).real)
    else:
        b = np.array([[k * (w - s)] for s in ss])

        def integrand(v: np.ndarray) -> np.ndarray:
            return _theta_factor(line, v) * (np.exp(a * v) + np.exp(b * v))

    vals = integrate_finite(integrand, 0.0, v_max, QuadratureSpec(tol, 14)).value.tolist()
    if not line.polar:
        return vals
    # pole terms grouped so the sum is commutative in s <-> w-s and the
    # reflection symmetry holds bitwise, not just to rounding
    return [v - (1.0 / s + 1.0 / (w - s)) for v, s in zip(vals, ss)]


def _in_window(line: _Line, s: complex) -> bool:
    """Whether s lies in the point window of ``line``."""
    return (abs(s.real) <= line.re_max and abs(s.imag) <= line.t_max
            and abs(line.w - s.real) <= line.reflected_max)


def _point(name: str, s: complex) -> complex:
    """completed_lambda_<name> at one s: ValueError outside the window of
    _LINES[name], PoleError within 1e-8 of the poles of a polar entry."""
    line, s = _LINES[name], complex(s)
    if not _in_window(line, s):
        raise ValueError(
            f"lambda-{name}: s = {s} lies outside |Re s| <= {line.re_max:g}, "
            f"|Im s| <= {line.t_max:g}, |{line.w:g} - Re s| <= {line.reflected_max:g}"
        )
    if line.polar and (abs(s) < 1e-8 or abs(s - line.w) < 1e-8):
        raise PoleError(f"completed {name} has poles at s = 0 and s = {line.w:g}")
    return _rows(line, [s], _POINT_TOL)[0]


def completed_lambda_zeta(s: complex) -> complex:
    """Completed zeta pi^(-s/2) gamma(s/2) zeta(s) by the incomplete-theta
    representation (_LINES["zeta"])

        -1/s - 1/(1-s) + int_0^inf omega(e^v) (e^(vs/2) + e^(v(1-s)/2)) dv,

    which is entire apart from the two explicit poles and symmetric under
    s <-> 1-s exactly as written.  At the fixed target _POINT_TOL = 2e-13
    it is accurate to ~1e-12 absolutely for -40 <= Re s <= 41 (|Re s| and
    |1 - Re s| <= 41, a window closed under the reflection), |Im s| <= 60
    (beyond that the s=40 magnitudes make the *relative* double-precision
    floor dominate); ValueError outside it.  NonConvergenceError where the
    rounding noise of the integral stays above the target, far from the
    critical strip.
    """
    return _point("zeta", s)


def completed_lambda_delta(s: complex) -> complex:
    """Completed L-function of the weight-12 cusp form,
    (2 pi)^(-s) gamma(s) L(s), via (_LINES["delta"])

        int_0^inf Delta(e^v) (e^(sv) + e^((12-s)v)) dv

    (entire; exactly symmetric under s <-> 12-s as written).  Valid for
    |Im s| <= 50 and |Re s|, |12 - Re s| <= 40 at ~1e-12 absolute accuracy
    (fixed target _POINT_TOL = 2e-13); ValueError outside that window.
    NonConvergenceError where the rounding noise of the integral stays
    above the target, far from Re s = 6.
    """
    return _point("delta", s)


# points per quadrature batch of completed_lambda_line.  On the central
# lines every point settles by level 3 (measured at 3001 points across each
# window), so a batch makes at most two integrand calls, on the 140 nodes of
# levels 0-2 and on the 160 of level 3, and its arrays hold at most 64 x 160
# values; a 31-point scan grid is one batch.
_LINE_ROWS = 64


def completed_lambda_line(kind: str, ts) -> np.ndarray:
    """The completed function of ``kind`` (a key of _LINES) on its critical
    line w/2 + it at every t of ``ts``, at the fixed target _LINE_TOL =
    1e-14, bitwise the one-point value, as one complex array.

    _LINE_ROWS points at a time go through integrate_finite and share each
    level's nodes, weights and theta factor; only that block exists as
    Python complexes.  ValueError, before any sampling, if a t is NaN or
    lies outside the entry's |t| <= t_max: the one window check of the
    critical-line samplers.
    """
    if kind not in tuple(_LINES):
        raise ValueError(f"kind must be one of {tuple(_LINES)!r}, got {kind!r}")
    line = _LINES[kind]
    ts = np.asarray(ts, dtype=float).ravel()
    outside = ~(np.abs(ts) <= line.t_max)  # NaN compares false
    if outside.any():
        bad = float(ts[outside][0])
        raise ValueError(f"{kind}: t = {bad!r} lies outside |Im s| <= {line.t_max:g}")
    center, out = 0.5 * line.w, np.empty(ts.size, dtype=complex)
    for at in range(0, ts.size, _LINE_ROWS):
        block = ts[at : at + _LINE_ROWS].tolist()
        out[at : at + _LINE_ROWS] = _rows(line, [complex(center, t) for t in block], _LINE_TOL)
    return out
