"""Numerical substrate: complex gamma, quadrature on (0, infinity) and on
finite intervals, compensated summation, and sign-change root location.

Complex numbers are plain builtin ``complex`` throughout; callers are
expected to keep both components finite.  All routines are deterministic:
the same inputs produce bit-identical results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._backend import kernels

__all__ = [
    "PoleError",
    "NonConvergenceError",
    "QuadratureSpec",
    "QuadResult",
    "gamma",
    "integrate_halfline",
    "integrate_finite",
    "sum_compensated",
    "bracket_and_bisect",
]


class PoleError(ZeroDivisionError):
    """Evaluation requested at (or numerically indistinguishable from) a pole."""


class NonConvergenceError(RuntimeError):
    """Iterative refinement hit its cap before reaching the target tolerance."""


# Lanczos approximation, g=7, 9 terms.  Relative error is a few 1e-14
# across the strip handled below; verified in the tests against an
# independently constructed Spouge expansion and a multiprecision referee.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z: complex) -> complex:
    """Gamma function on the strip |Re z| <= 30, |Im z| <= 50.

    Fixed-coefficient Lanczos sum with reflection for Re z < 1/2.  Raises
    PoleError at the non-positive integers.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"gamma pole at z={z.real:g}")
    if z.real < 0.5:
        # reflection; sin stays finite for |Im z| <= 50
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS_COEF[0] + 0j
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * cmath.exp((zz + 0.5) * cmath.log(t) - t) * acc


_TRANSFORMS = ("half_line_double_exponential", "finite_gauss")


@dataclass(frozen=True)
class QuadratureSpec:
    """How to drive a quadrature rule to a target absolute tolerance.

    Refinement always halves the step (or doubles the panel count) and
    compares consecutive levels; the last difference is the reported error
    estimate.
    """

    target_abs_tol: float = 1e-12
    max_refinements: int = 10
    transform: str = "half_line_double_exponential"

    def __post_init__(self):
        if not (0.0 < self.target_abs_tol < 1.0):
            raise ValueError("target_abs_tol must lie in (0, 1)")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if self.transform not in _TRANSFORMS:
            raise ValueError(f"transform must be one of {_TRANSFORMS}")


@dataclass(frozen=True)
class QuadResult:
    """Value and error estimate of a quadrature, with the refinement level
    it stopped at and ``nodes``, the number of distinct integrand
    evaluations it made.  The half-line rule reuses the nodes of coarser
    levels, so there this is fewer than the nodes summed over all levels."""

    value: complex
    error_estimate: float
    refinements: int
    nodes: int


_HPI = math.pi / 2.0
_U_CAP = 6.7  # exp((pi/2)*sinh(u)) stays inside double range up to here
_FIRST_NODES = 8  # nodes per side evaluated at once on the coarsest level


class _ExpSinhLevels:
    """Trapezoid sums over the exp-sinh transformed half line at steps
    0.5, 0.25, ..., keeping the terms already computed.

    t(u) = exp((pi/2) sinh u); each side of u=0 is scanned outward until
    three consecutive terms fall below term_tol (the weight collapses
    double-exponentially once the integrand decays at all) or |u| passes
    _U_CAP.  Halving the step keeps every node, since k*h is bitwise
    (2k)*(h/2), so a level evaluates only its new nodes: all of them in one
    call of ``f_batch``, plus one call per extension when a side scans past
    the end of the previous level.
    """

    def __init__(self, f_batch, term_tol):
        self.f_batch = f_batch
        self.term_tol = term_tol
        self.nodes = 0
        self.h = 0.5
        self.center = self._terms(np.array([0.0]))[0]
        # per side d = +1, -1: the terms at u = d*k*h for k = 1..n (known
        # where ``have`` is set) and the last k the current level sums
        self.terms = {1: np.empty(0, dtype=complex), -1: np.empty(0, dtype=complex)}
        self.have = {1: np.empty(0, dtype=bool), -1: np.empty(0, dtype=bool)}
        self.stop = {}

    def _terms(self, us):
        ts, ws = [], []
        for u in us.tolist():
            t = math.exp(_HPI * math.sinh(u))
            ts.append(t)
            ws.append(t * _HPI * math.cosh(u))
        self.nodes += len(ts)
        return np.asarray(self.f_batch(np.array(ts)), dtype=complex) * np.array(ws)

    def _scan_end(self, d, cap):
        """Last k the scan of side d sums, or None if the terms known so far
        end before the scan does."""
        quiet = np.abs(self.terms[d]) < self.term_tol
        run = quiet[2:] & quiet[1:-1] & quiet[:-2]
        if run.any():
            return int(np.argmax(run)) + 3
        return cap if quiet.size == cap else None

    def _grow(self, d, n):
        pad = n - self.terms[d].size
        self.terms[d] = np.concatenate((self.terms[d], np.zeros(pad, dtype=complex)))
        self.have[d] = np.concatenate((self.have[d], np.zeros(pad, dtype=bool)))

    def level(self, refine):
        """The trapezoid sum at the next step (step 0.5 on the first call)."""
        if refine:
            self.h *= 0.5
            for d in (1, -1):
                n = self.stop[d]
                terms = np.zeros(2 * n, dtype=complex)
                terms[1::2] = self.terms[d][:n]
                have = np.zeros(2 * n, dtype=bool)
                have[1::2] = True
                self.terms[d], self.have[d] = terms, have
        h = self.h
        cap = math.floor(_U_CAP / h)
        for d in (1, -1):
            self._grow(d, min(cap, max(self.terms[d].size, _FIRST_NODES)))
        self.stop = {}
        while len(self.stop) < 2:
            open_sides = [d for d in (1, -1) if d not in self.stop]
            gaps = {d: np.flatnonzero(~self.have[d]) for d in open_sides}
            vals = self._terms(np.concatenate([d * (gaps[d] + 1) * h for d in open_sides]))
            at = 0
            for d in open_sides:
                self.terms[d][gaps[d]] = vals[at : at + gaps[d].size]
                self.have[d][gaps[d]] = True
                at += gaps[d].size
                end = self._scan_end(d, cap)
                if end is None:
                    n = self.terms[d].size
                    self._grow(d, min(cap, n + max(4, n // 4)))
                else:
                    self.stop[d] = end
        summed = [np.array([self.center])] + [self.terms[d][: self.stop[d]] for d in (1, -1)]
        return kernels.neumaier_sum(np.concatenate(summed)) * h


def integrate_halfline(
    f: Callable, spec: QuadratureSpec | None = None, vectorized: bool = False
) -> QuadResult:
    """Integrate f over (0, infinity) by the double-exponential substitution
    t = exp((pi/2) sinh u), halving the step until two levels agree.

    Suited to integrands with a finite limit at 0 and eventual decay; not
    for oscillatory tails.  Raises NonConvergenceError when max_refinements
    halvings cannot reach the tolerance.  With vectorized=True, f receives
    one ndarray of the new nodes of a level and must return the matching
    array of values; either way every level sums the same terms.  Since a
    level's nodes are evaluated before its scan is checked, f may also be
    evaluated a few nodes past the point where a side's scan stops.
    """
    spec = spec or QuadratureSpec()
    if spec.transform != "half_line_double_exponential":
        raise ValueError("integrate_halfline requires the half-line transform")
    if vectorized:
        f_batch = f
    else:
        def f_batch(ts):
            return np.array([complex(f(t)) for t in ts.tolist()], dtype=complex)
    rule = _ExpSinhLevels(f_batch, spec.target_abs_tol * 1e-3)
    prev = rule.level(refine=False)
    for level in range(1, spec.max_refinements + 1):
        cur = rule.level(refine=True)
        err = abs(cur - prev)
        if err <= spec.target_abs_tol and level >= 2:
            return QuadResult(cur, err, level, rule.nodes)
        prev = cur
    raise NonConvergenceError(
        f"half-line quadrature stalled above tol={spec.target_abs_tol:g} "
        f"after {spec.max_refinements} refinements"
    )


_GL_ORDER = 20
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(_GL_ORDER)


def integrate_finite(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
    vectorized: bool = False,
) -> QuadResult:
    """Integrate f over [a, b] by composite 20-point Gauss-Legendre panels,
    doubling the panel count until two levels agree.

    With vectorized=True, f receives one ndarray of all nodes and must
    return the matching array of values (used by the hot integrands).
    """
    spec = spec or QuadratureSpec(transform="finite_gauss")
    if spec.transform != "finite_gauss":
        raise ValueError("integrate_finite requires the finite_gauss transform")
    if not (a < b):
        raise ValueError("need a < b")
    prev = None
    total_nodes = 0
    panels = 1
    for level in range(spec.max_refinements + 1):
        edges = np.linspace(a, b, panels + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mids[:, None] + half[:, None] * _gl_nodes[None, :]).ravel()
        weights = (half[:, None] * _gl_weights[None, :]).ravel()
        if vectorized:
            vals = np.asarray(f(nodes), dtype=complex)
        else:
            vals = np.array([complex(f(x)) for x in nodes])
        cur = complex(kernels.neumaier_sum(vals * weights))
        total_nodes += nodes.size
        if prev is not None:
            err = abs(cur - prev)
            if err <= spec.target_abs_tol:
                return QuadResult(cur, err, level, total_nodes)
        prev = cur
        panels *= 2
    raise NonConvergenceError(
        f"finite-interval quadrature stalled above tol={spec.target_abs_tol:g} "
        f"after {spec.max_refinements} refinements"
    )


def sum_compensated(terms: Sequence[complex]) -> complex:
    """Correctly rounded sum (math.fsum per part); immune to magnitude
    staircases that defeat plain Kahan accumulation."""
    return kernels.neumaier_sum(terms)


def bracket_and_bisect(
    f: Callable[[float], float],
    a: float,
    b: float,
    step: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> list[float]:
    """Locate simple real roots of f on [a, b]: scan at the given step for
    sign changes, then bisect each bracket down to width tol.

    Even-order roots (no sign change) are invisible to this scheme; that is
    a documented limitation, not a failure mode.
    """
    if not (a < b):
        raise ValueError("need a < b")
    if not (0.0 < step <= b - a):
        raise ValueError("step must lie in (0, b-a]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    xs = [a]
    while xs[-1] < b:
        xs.append(min(xs[-1] + step, b))
    vals = [f(x) for x in xs]
    roots: list[float] = []
    for i in range(len(xs) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            if not roots or abs(roots[-1] - xs[i]) > tol:
                roots.append(xs[i])
            continue
        if fa * fb < 0.0:
            lo, hi = xs[i], xs[i + 1]
            flo = fa
            it = 0
            while hi - lo > tol and it < max_iter:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                it += 1
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0 and (not roots or abs(roots[-1] - xs[-1]) > tol):
        roots.append(xs[-1])
    return roots
