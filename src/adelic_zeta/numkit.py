"""Numerical substrate: complex gamma, quadrature on finite intervals (the
production rule) and on (0, infinity) (the tests' reference rule),
compensated summation, sign-change root location, and the primality check
that every module taking a prime p shares.

Complex numbers are plain builtin ``complex`` throughout; callers are
expected to keep both components finite.  All routines are deterministic:
the same inputs produce bit-identical results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._backend import kernels
from ._pykernels import PoleError  # raised by the kernels too

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


@dataclass(frozen=True)
class QuadratureSpec:
    """How to drive a quadrature rule to a target absolute tolerance.

    Refinement always halves the step (or doubles the panel count) and
    compares consecutive levels; the last difference is the reported error
    estimate.  The same spec drives either rule.
    """

    target_abs_tol: float = 1e-12
    max_refinements: int = 10

    def __post_init__(self):
        if not (0.0 < self.target_abs_tol < 1.0):
            raise ValueError("target_abs_tol must lie in (0, 1)")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    """Value and error estimate of a quadrature, with the refinement level
    it stopped at and ``nodes``, the number of distinct nodes the integrand
    received, summed or not.  For a batch of integrands (integrate_finite)
    value and error_estimate are arrays with one entry per integrand.  The
    half-line rule, kept as the tests' reference, reuses the nodes of
    coarser levels, so there ``nodes`` is fewer than the nodes summed over
    all levels; integrate_finite evaluates its first three levels in one
    call, so there it may exceed them."""

    value: complex | np.ndarray
    error_estimate: float | np.ndarray
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
    call of ``f``, plus one call per extension when a side scans past the
    end of the previous level.
    """

    def __init__(self, f, term_tol):
        self.f = f
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
        return np.asarray(self.f(np.array(ts)), dtype=complex) * np.array(ws)

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


def integrate_halfline(f: Callable, spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate f over (0, infinity) by the double-exponential substitution
    t = exp((pi/2) sinh u), halving the step until two levels agree.

    The reference rule: no route of the package calls it (theta.mellin_E
    integrates on integrate_finite panels up to the point where its
    integrand underflows), and the tests compare against it as an
    independent rule.

    f receives one ndarray of the new nodes of a level and must return the
    matching array of values.  Suited to integrands with a finite limit at
    0 and eventual decay; not for oscillatory tails.  Raises
    NonConvergenceError when max_refinements halvings cannot reach the
    tolerance.  Since a level's nodes are evaluated before its scan is
    checked, f may also be evaluated a few nodes past the point where a
    side's scan stops.
    """
    spec = spec or QuadratureSpec()
    rule = _ExpSinhLevels(f, spec.target_abs_tol * 1e-3)
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
# Levels kept by the node cache: at most _LEVEL_SLOTS of them, each of at
# most _CACHED_PANELS panels (1280 nodes, 20 kB of nodes and weights).
# Finer levels, which only points far from the critical strip reach, are
# rebuilt on every call, so the cache stays below 1 MB.  The first-call
# node sets (_first_call) take at most _LEVEL_SLOTS more, of 140 nodes each.
_CACHED_PANELS = 64
_LEVEL_SLOTS = 32
# Levels whose nodes integrate_finite passes to f in its first call.  The
# stopping rule cannot return before level 1, and the package's integrals
# mostly stop at level 2: of the quadratures in the benchmark's point_eval
# ops at seed 7, 17 stop at level 1, 139 at level 2 and 84 at level 3, and
# all 267 in its zero_scan ops stop at level 2.  One call on 20 + 40 + 80
# nodes then replaces three whose cost is mostly per call, not per node
# (small lattice-kernel and exp calls); fusing level 3 as well would make
# every level-2 integral pay for 160 nodes it never sums.
_FIRST_CALL_LEVELS = 3


def _build_level(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * _gl_nodes[None, :]).ravel()
    weights = (half[:, None] * _gl_weights[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=_LEVEL_SLOTS)
def _cached_level(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _build_level(a, b, panels)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre_level(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``panels`` equal 20-point Gauss-Legendre panels
    on [a, b], the level that integrate_finite evaluates for that count;
    read-only and cached up to _CACHED_PANELS panels."""
    return (_cached_level if panels <= _CACHED_PANELS else _build_level)(a, b, panels)


@lru_cache(maxsize=_LEVEL_SLOTS)
def _first_call(a: float, b: float, levels: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The nodes and weights of levels 0 .. levels - 1 on [a, b], each
    concatenated in level order and read-only, and per level the slice of
    them it takes: what integrate_finite's first call of f evaluates."""
    parts = [_gauss_legendre_level(a, b, 1 << level) for level in range(levels)]
    nodes = np.concatenate([level_nodes for level_nodes, _w in parts])
    weights = np.concatenate([level_weights for _n, level_weights in parts])
    nodes.flags.writeable = weights.flags.writeable = False
    cols, start = [], 0
    for level_nodes, _w in parts:
        cols.append(slice(start, start + level_nodes.size))
        start += level_nodes.size
    return nodes, weights, cols


def integrate_finite(
    f: Callable, a: float, b: float, spec: QuadratureSpec | None = None
) -> QuadResult:
    """Integrate f over [a, b] by composite 20-point Gauss-Legendre panels,
    doubling the panel count until two levels agree.

    f receives one ndarray of nodes and returns the matching values, real
    or complex: an array of that shape for one integrand, or of shape
    (rows, nodes) for a batch of integrands sharing the nodes.  The first
    call gets the nodes of levels 0, 1 and 2 (1, 2 and 4 panels;
    _FIRST_CALL_LEVELS, or fewer when max_refinements is below 2)
    concatenated in level order; its values are multiplied by the
    concatenated weights once, and each level is summed from its slice of
    those terms only when the loop reaches it.  Each later call gets the
    nodes of one level.  So, like integrate_halfline, the rule may evaluate
    f at nodes of a level it never sums: ``nodes`` counts every node f
    received, 140 for an integral that stops at level 1.  A level's rows
    are summed in one ``kernels.neumaier_sum`` call, each row correctly
    rounded on its own, real values as real: a real integrand gives
    bitwise the result of the same integrand cast to complex, with
    imaginary part 0.0.  Each row keeps the level at which its own two
    latest levels agree, so every row of a batch is bitwise the value that
    row would get on its own.  A batch is evaluated until its last row
    settles; its ``value`` and ``error_estimate`` are arrays of one entry
    per row, ``refinements`` is the level of the last row, and each node
    counts once however many rows share it.  Raises NonConvergenceError
    when max_refinements doublings leave a row above the tolerance.
    """
    spec = spec or QuadratureSpec()
    if not (a < b):
        raise ValueError("need a < b")
    nodes, weights, first = _first_call(a, b, min(_FIRST_CALL_LEVELS, spec.max_refinements + 1))
    vals = np.asarray(f(nodes))
    one_row = vals.ndim == 1
    first_terms = vals.reshape(-1, nodes.size) * weights
    total_nodes = nodes.size
    prev = None
    for level in range(spec.max_refinements + 1):
        if level < len(first):
            terms = first_terms[:, first[level]]
        else:
            nodes, weights = _gauss_legendre_level(a, b, 1 << level)
            terms = np.asarray(f(nodes)).reshape(-1, nodes.size) * weights
            total_nodes += nodes.size
        cur = kernels.neumaier_sum(terms)
        if prev is None:
            value, err, open_rows = [None] * len(cur), [None] * len(cur), set(range(len(cur)))
        else:
            for i in list(open_rows):
                diff = abs(cur[i] - prev[i])
                if diff <= spec.target_abs_tol:
                    value[i], err[i] = cur[i], diff
                    open_rows.discard(i)
            if not open_rows:
                if one_row:
                    return QuadResult(value[0], err[0], level, total_nodes)
                return QuadResult(np.array(value), np.array(err), level, total_nodes)
        prev = cur
    raise NonConvergenceError(
        f"finite-interval quadrature stalled above tol={spec.target_abs_tol:g} "
        f"after {spec.max_refinements} refinements"
    )


_MAX_PRIME = 10**9  # bound on p in _check_prime, whose trial division takes ~2 ms there


def _check_prime(p: int) -> int:
    """p itself if it is a prime int of at most _MAX_PRIME, by trial
    division; else ValueError, before any division past that cap."""
    if not (isinstance(p, int) and 2 <= p <= _MAX_PRIME) or any(
            p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be a prime integer of at most {_MAX_PRIME} (got {p!r})")
    return p


def sum_compensated(terms: Sequence[complex]) -> complex:
    """Correctly rounded sum (math.fsum per part); immune to magnitude
    staircases that defeat plain Kahan accumulation.  TypeError for an
    array of more than one dimension: the row sums of a 2-D array are
    integrate_finite's own use of the kernel."""
    if getattr(terms, "ndim", 1) != 1:
        raise TypeError(f"sum_compensated sums a 1-D sequence, got {terms.ndim} dimensions")
    return kernels.neumaier_sum(terms)


# most grid nodes one bracket_and_bisect call samples
_MAX_GRID_NODES = 1_000_000
# ITP's n0 (Oliveira & Takahashi, ACM TOMS 47(1), 2020): the steps of
# slack over bisection's count that the minmax projection allows
_ITP_N0 = 1
# samples a refinement interpolates through on each side of its bracket,
# the bracket's end included
_SEED_SIDE = 3
# a later step samples this many tol past its estimate, so two steps on
# either side of an estimate good to 0.1 tol close a bracket under tol
_STRADDLE = 0.45


def _seed_side(xs: list, ys: list, i: int, d: int, e: int) -> list:
    """The grid samples from node i outward (d = -1 to the left, +1 to the
    right) as (x, y * 2^-e), nearest first: up to _SEED_SIDE of them, while
    each keeps node i's sign and exceeds the one before in size, so that f
    is monotone on them, as inverse interpolation needs."""
    side = [(xs[i], math.ldexp(ys[i], -e))]
    for k in range(i + d, i + d * _SEED_SIDE, d):
        if not 0 <= k < len(xs):
            break
        y = math.ldexp(ys[k], -e)
        if (y < 0.0) != (side[-1][1] < 0.0) or not abs(y) > abs(side[-1][1]):
            break
        side.append((xs[k], y))
    return side


def _inverse_estimates(x0: float, nodes: list) -> tuple[float, float]:
    """Where the inverse interpolating polynomials x(y) through every (x, y)
    of nodes and through all but the last one take y = 0, by Neville's
    scheme on the offsets x - x0; NaN if two values of y are equal."""
    p = [x - x0 for x, _y in nodes]
    ys = [y for _x, y in nodes]
    n = len(p)
    lower = p[0]
    try:
        for k in range(1, n):
            for m in range(n - k):
                p[m] = (ys[m] * p[m + 1] - ys[m + k] * p[m]) / (ys[m] - ys[m + k])
            if k == n - 2:
                lower = p[0]
    except ZeroDivisionError:
        return math.nan, math.nan
    return x0 + p[0], x0 + lower


def _refine_itp(f, xs: list, ys: list, i: int, tol: float, grid: float) -> float:
    """Midpoint of a bracket at most tol wide around the sign change of f
    between the grid nodes xs[i] and xs[i + 1] (ys: the grid's values, of
    opposite signs there), or an exact zero sample; one one-point call of
    f per step.

    A step samples near an estimate of the root: the inverse polynomial
    interpolant through the samples nearest the bracket on each side, up
    to _SEED_SIDE a side on which f is monotone, taken at 0.  At the start
    these are the grid samples around the cell, so no sample is spent on
    them; each sample that moves a bracket end then goes in front of its
    side.  The values are scaled by one power of two, fixed by the cell's
    ends, so the steps do not depend on the scale of f.  Where the
    interpolant leaves the bracket, the regula falsi point of the bracket
    ends stands in.  The first step samples past the estimate toward the
    cell's middle by twice the gap between the interpolants through all
    the nodes and through all but the last, so a good estimate moves the
    cell's far end next to the root.  Each later step samples _STRADDLE
    tol past its estimate toward the bracket end farther from it, as a
    rule the end the previous sample did not move, so two steps around an
    estimate good to 0.1 tol close the bracket: 3 calls on a smooth f.  A
    bracket at most 2 tol wide is halved instead, which closes it whatever
    the sign.

    Every point then goes through ITP's minmax projection (Oliveira &
    Takahashi, ACM TOMS 47(1), 2020): into the radius eps 2^(n_max - j) -
    w/2 about the midpoint, with n_max = ceil(log2(w0/tol)) + n0, and the
    midpoint stands in whenever the point is not finite or not strictly
    inside (lo, hi).  So the bracket after step j is at most
    eps 2^(n_max - j) wide, and the refinement ends within n_max calls, at
    most n0 more than bisection needs, however poor the estimates are on
    a noisy f.  eps is half of tol rounded down to a multiple of `grid`,
    the float spacing at the window's edge: then eps 2^(n_max - j) is a
    whole number of float spacings, and rounding the midpoint or the
    projected point cannot push a side past it.
    """
    lo, hi, flo, fhi = xs[i], xs[i + 1], ys[i], ys[i + 1]
    e = math.frexp(max(abs(flo), abs(fhi)))[1]
    left, right = _seed_side(xs, ys, i, -1, e), _seed_side(xs, ys, i + 1, 1, e)
    w0 = hi - lo
    eps = 0.5 * (tol - math.fmod(tol, grid))
    n_max = max(0, math.ceil(math.log2(w0 / tol))) + _ITP_N0
    j = 0
    while hi - lo > tol:
        w = hi - lo
        mid = 0.5 * (lo + hi)
        r = eps * 2.0 ** (n_max - j) - 0.5 * w
        nodes = [node for pair in zip(left, right) for node in pair]
        nodes += left[len(right):] + right[len(left):]
        est, lower = _inverse_estimates(lo, nodes)
        if not lo < est < hi:  # also for NaN
            est = lo + w * (flo / (flo - fhi))
        if j == 0:
            x = est + math.copysign(2.0 * abs(est - lower), mid - est)
        elif w <= 2.0 * tol:
            x = mid
        elif est - lo > hi - est:
            x = est - _STRADDLE * tol
        else:
            x = est + _STRADDLE * tol
        x = min(max(x, mid - r), mid + r)  # NaN stays NaN
        if not lo < x < hi:  # also for NaN
            x = mid
        fx = float(f(np.array([x]))[0])
        j += 1
        if fx == 0.0:
            return x
        y = math.ldexp(fx, -e)
        side = right if (fx < 0.0) != (flo < 0.0) else left
        # in front of its side; the samples behind stay while f is monotone
        side[:] = [(x, y)] + (side[: _SEED_SIDE - 1] if abs(y) < abs(side[0][1]) else [])
        if side is right:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
    return 0.5 * (lo + hi)


def bracket_and_bisect(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    step: float,
    tol: float = 1e-10,
) -> list[float]:
    """Locate simple real roots of f on [a, b]: sample f on the grid
    a + i*step below b plus b itself, keep exact zeros at the nodes, and
    refine each sign change down to width tol (_refine_itp), each step
    seeded by inverse interpolation through the grid samples around its
    cell and the samples the refinement took since.  A window narrower
    than step is the one cell [a, b].

    f is an array callable: it takes an ndarray of points and returns the
    matching array of real values.  The whole grid is one call, and each
    refinement step one call with a single point.  Raises ValueError for
    a grid of more than _MAX_GRID_NODES nodes (before sampling anything),
    and for a tol that is not finite or lies below math.ulp(max(|a|, |b|)),
    the float spacing at the window's end farthest from 0, which a bracket
    there cannot get under.

    Every root returned is an exact zero sample, or the midpoint of a
    bracket at most tol wide whose two ends were sampled with opposite
    signs.  A sign change in a cell of width w costs at most
    ceil(log2(w/tol)) + 1 one-point calls, one more than bisection, on any
    f: ITP's minmax projection bounds every step.  On a smooth f it costs
    3: one next to the root, then one within 0.45 tol on each side.  With
    the tol floor, w/tol stays under 2^54, so a root takes at most 55
    calls.

    Even-order roots (no sign change) are invisible to this scheme; that is
    a documented limitation, not a failure mode.
    """
    if not (a < b):
        raise ValueError("need a < b")
    if not step > 0.0:
        raise ValueError("step must be positive")
    edge = max(abs(a), abs(b))
    floor = math.ulp(edge)
    if not (math.isfinite(tol) and tol >= floor):
        raise ValueError(
            f"tol must be finite and at least {floor!r}, "
            f"the float spacing at {edge!r} (got {tol!r})"
        )
    cells = (b - a) / step - 1e-12
    if not cells <= _MAX_GRID_NODES - 1:  # the grid has ceil(cells) + 1 nodes
        raise ValueError(
            f"step {step:g} over [{a:g}, {b:g}] needs more than {_MAX_GRID_NODES} grid nodes"
        )
    n = max(1, math.ceil(cells))
    xs = np.append(a + np.arange(n) * step, b)
    vals = np.asarray(f(xs), dtype=float)
    # only nodes with an exact zero or a sign change up to the next node;
    # signs, not products, which underflow to 0 (a NaN sign gives no hit)
    signs = np.sign(vals)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0.0))
    roots: list[float] = []
    if hits.size:
        xl, yl = xs.tolist(), vals.tolist()
    for i in hits.tolist():
        if vals[i] == 0.0:
            if not roots or abs(roots[-1] - xs[i]) > tol:
                roots.append(float(xs[i]))
            continue
        roots.append(_refine_itp(f, xl, yl, i, tol, floor))
    if vals[-1] == 0.0 and (not roots or abs(roots[-1] - xs[-1]) > tol):
        roots.append(float(xs[-1]))
    return roots
