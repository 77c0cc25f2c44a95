"""Critical-line zero location and the discretized spectral model.

Builds real-valued samplers for the completed zeta function and the
completed weight-12 cusp form L-function restricted to their critical
lines, scans them for sign-change zeros refined by ITP steps (each zero
the midpoint of a bracket at most tol wide with sampled ends of opposite
signs, at most one sampler call more than bisection), and turns zero
lists into eigenvalue data under an explicit multiplicity counting
rule.  A uniformly discretized weighted band on [-T, T] models
the translation generator (multiplication by it after Fourier
transform); its resolvent is applied in closed diagonal form, and the
norm of the shift operator is checked against the weight-growth bound
2^(delta/4) (1 + a^2)^(delta/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lfun import (
    _LINES,
    completed_lambda_line,
    # not called here; e2ebench/tracer.py wraps polya.completed_lambda_*
    completed_lambda_delta,
    completed_lambda_zeta,
)
from .numkit import bracket_and_bisect, gamma

_FD_STEP = 1e-3
_KINDS = tuple(_LINES)
_RULE_VARIANTS = ("literal", "inclusive")
# grid of the weighted-shift norm check
_NORM_T_MAX = 20.0
_NORM_H = 0.05


class CriticalLineFn:
    """Real-valued critical-line restriction of a completed L-function.

    kind "zeta" samples the completed zeta function at 1/2 + it; kind
    "delta" samples the completed cusp-form L-function at 6 + it.  Both
    are real and even in t: the functional equation reflects the line
    onto its own complex conjugate.

    Calling the instance divides the value by the positive envelope
    |N^(-ks) gamma(ks)| at s = w/2 + it, N, k and w from the kind's entry
    of lfun._LINES, the one source of centers, windows and envelopes.
    That rescales the exponentially decaying completed function to order
    one without moving a single zero or sign: bracketing is robust in
    double precision.  ``complex_value`` returns the literal completed
    value from the same line route, so the normalized sample is bitwise
    ``complex_value(t).real / envelope(t)``.

    ``values(ts)`` samples an array of ordinates in one
    lfun.completed_lambda_line call, which batches the points and shares
    each quadrature level's nodes and theta factor among them; every value
    is bitwise the one-point value.  That call also checks the window, and
    from grid to normalized sample only numpy arrays span the ordinates.
    Calling the instance on one t is a one-element ``values``.

    The sampler keeps no per-ordinate state, so concurrent use of one
    instance needs no lock.  ``cache_size`` is only the counter that
    e2ebench/tracer.py reads around each call: the number of ordinates
    this instance has sampled, exact when a single thread uses it.

    Accuracy: the integral evaluators carry an absolute floor near
    3e-17 (zeta) and 2e-18 (delta), so normalized values are reliable to
    about floor/envelope.  Measured: better than 1e-8 for t <= 25
    (zeta) resp. t <= 18 (delta), about 1e-5 near t = 33 resp. t = 23,
    and pure noise past t ~ 47 resp. t ~ 29.  Zero locations from the
    high end of the allowed window carry that caveat.
    """

    def __init__(self, kind: str):
        if kind not in _KINDS:
            raise ValueError("kind must be one of %r, got %r" % (_KINDS, kind))
        self.kind = kind
        self._sampled = 0

    @property
    def center(self) -> float:
        """Real part w/2 of the critical line (lfun._LINES)."""
        return 0.5 * _LINES[self.kind].w

    def complex_value(self, t: float) -> complex:
        """The line route's value at center + it (no envelope)."""
        return complex(completed_lambda_line(self.kind, [t])[0])

    def envelope(self, t: float) -> float:
        """Positive decay profile divided out by the normalized sampler."""
        line = _LINES[self.kind]
        h = 0.5 * line.k * line.w
        return line.decay ** -h * abs(gamma(complex(h, line.k * float(t))))

    def values(self, ts) -> np.ndarray:
        """Normalized samples at every t of ``ts``, as a float array of the
        same length; ValueError from lfun.completed_lambda_line, before any
        sampling, if a t is NaN or lies outside the kind's window."""
        keys = np.abs(np.asarray(ts, dtype=float).ravel())  # even in t
        lam = completed_lambda_line(self.kind, keys).real
        self._sampled += keys.size
        return lam / np.fromiter(map(self.envelope, keys), float, keys.size)

    def __call__(self, t: float) -> float:
        return float(self.values([t])[0])

    @property
    def cache_size(self) -> int:
        # read by e2ebench/tracer.py around each call, which counts a hit
        # when it did not move: ordinates sampled so far
        return self._sampled


@dataclass(frozen=True)
class ZeroEntry:
    """One located zero: ordinate, refinement tolerance, assumed order."""

    rho: float
    refined_tol: float
    mult_assumed: int = 1


@dataclass(frozen=True)
class ZeroList:
    """Strictly increasing positive ordinates found by sign-change scans.

    Even-order zeros produce no sign change and are invisible to the
    scan, hence mult_assumed defaults to 1 and is never auto-detected.
    """

    kind: str
    zeros: tuple[ZeroEntry, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("kind must be one of %r" % (_KINDS,))
        prev = 0.0
        for z in self.zeros:
            if not z.rho > prev:
                raise ValueError("ordinates must be positive and increasing")
            prev = z.rho

    def __len__(self) -> int:
        return len(self.zeros)

    def __iter__(self):
        return iter(self.zeros)

    def ordinates(self) -> tuple[float, ...]:
        return tuple(z.rho for z in self.zeros)


def scan_zeros(
    F: CriticalLineFn,
    t_from: float,
    t_to: float,
    step: float = 0.05,
    tol: float = 1e-10,
) -> ZeroList:
    """Locate the sign-change zeros of F on [t_from, t_to].

    numkit.bracket_and_bisect samples the whole grid (every `step`) in one
    ``F.values`` call, refines each sign change by ITP steps, one
    one-point call a step, until the bracket is at most `tol` wide, and
    keeps exact zero hits at grid nodes as-is (except t = 0).  Each
    ordinate is the midpoint of a bracket at most `tol` wide whose ends F
    sampled with opposite signs, or an exact zero sample, and costs at
    most ceil(log2(step/tol)) + 1 one-point calls, one more than
    bisection (29 + 1 at the defaults; about 8 where F is resolved).  Only
    odd-order zeros flip the sign, so even-order zeros are missed by
    construction.

    Requires step <= 0.2, a finite tol no finer than math.ulp(t_to) (the
    float spacing at the window's top), a grid of at most
    numkit._MAX_GRID_NODES nodes, and 0 <= t_from < t_to <= t_max of the
    kind's lfun._LINES entry (60 for zeta, 50 for delta); ValueError
    otherwise, before anything is sampled.  The upper end of that
    window exceeds where the samplers resolve zeros sharply (see
    CriticalLineFn); locations returned above t ~ 40 (zeta) / t ~ 25
    (delta) are increasingly noise-limited.
    """
    t_from, t_to, step, tol = float(t_from), float(t_to), float(step), float(tol)
    t_max = _LINES[F.kind].t_max
    if not (0.0 <= t_from < t_to <= t_max):
        raise ValueError(f"window must satisfy 0 <= t_from < t_to <= {t_max:g} for {F.kind}")
    if not (0.0 < step <= 0.2):
        raise ValueError("step must lie in (0, 0.2]")
    roots = bracket_and_bisect(F.values, t_from, t_to, step, tol)
    return ZeroList(
        kind=F.kind,
        zeros=tuple(ZeroEntry(rho=r, refined_tol=tol) for r in roots if r > 0.0),
    )


def _check_delta(delta: float) -> None:
    """ValueError unless 1 < delta < inf (NaN included)."""
    if not 1.0 < delta < math.inf:
        raise ValueError(f"delta must exceed 1 and be finite (got {delta!r})")


def n_rho(mult: int, delta: float, variant: str = "literal") -> int:
    """Order count attached to a zero of multiplicity `mult` at weight
    exponent `delta`.

    variant "literal" (default): the largest integer n >= 0 with
    n < delta - 1 and n < mult, which is 0 for every simple zero.
    variant "inclusive": relaxes the second comparison to n <= mult, the
    reading under which simple zeros contribute; kept behind this flag
    because the two readings genuinely disagree and neither is treated
    as ground truth here.
    """
    if int(mult) != mult or mult < 1:
        raise ValueError("mult must be an integer >= 1")
    _check_delta(delta)
    if variant not in _RULE_VARIANTS:
        raise ValueError("variant must be one of %r" % sorted(_RULE_VARIANTS))
    n_cap = math.ceil(delta - 1.0) - 1  # largest integer strictly below delta-1
    if variant == "literal":
        return max(0, min(n_cap, int(mult) - 1))
    return max(0, min(n_cap, int(mult)))


@dataclass(frozen=True)
class SpectrumEntry:
    """One spectral line: ordinate, its order count under the active rule
    (both readings recorded), and the resulting eigenvalue multiplicity."""

    rho: float
    n_rho: int
    eig_mult: int
    n_literal: int
    n_inclusive: int

    @property
    def is_eigenvalue(self) -> bool:
        return self.eig_mult > 0


@dataclass(frozen=True)
class PolyaSpectrum:
    """Eigenvalue data built from a zero list.

    Entries with eig_mult = 0 are retained but flagged not-an-eigenvalue
    through SpectrumEntry.is_eigenvalue; rule_variant records which
    counting rule produced the active n_rho column.
    """

    delta: float
    m_pi: int
    rule_variant: str
    entries: tuple[SpectrumEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def build_spectrum(
    zeros: ZeroList, delta: float, m_pi: int = 1, variant: str = "literal"
) -> PolyaSpectrum:
    """Attach eigenvalue multiplicities m_pi * n_rho to located zeros.

    Ordering of `zeros` is preserved; both counting-rule readings are
    recorded on every entry while eig_mult follows the chosen variant.
    ValueError unless 1 < delta < inf, before any zero is read.
    """
    _check_delta(delta)
    if int(m_pi) != m_pi or m_pi < 1:
        raise ValueError("m_pi must be an integer >= 1")
    if variant not in _RULE_VARIANTS:
        raise ValueError("variant must be one of %r" % sorted(_RULE_VARIANTS))
    entries = []
    for z in zeros:
        lit = n_rho(z.mult_assumed, delta, "literal")
        inc = n_rho(z.mult_assumed, delta, "inclusive")
        active = lit if variant == "literal" else inc
        entries.append(
            SpectrumEntry(
                rho=z.rho,
                n_rho=active,
                eig_mult=int(m_pi) * active,
                n_literal=lit,
                n_inclusive=inc,
            )
        )
    return PolyaSpectrum(
        delta=float(delta), m_pi=int(m_pi), rule_variant=variant, entries=tuple(entries)
    )


def annihilator_residual(F: CriticalLineFn, rho: float, k: int) -> float:
    """|d^k/dt^k F(t)| at t = rho by 5-point central differences.

    Small exactly when the k-th derivative point mass at rho annihilates
    products against F, i.e. when rho is a zero of order > k.  Step is
    fixed at 1e-3; k in {0, 1, 2}.  The stencil is one ``F.values`` call.
    Raises ValueError unless every sample, t +- 2e-3 for k >= 1, lies in
    the kind's window.
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    rho, h = float(rho), _FD_STEP
    reach, t_max = (2 * h if k else 0.0), _LINES[F.kind].t_max
    if not abs(rho) + reach <= t_max:
        stencil = f" with its stencil t +- {reach:g}" if k else ""
        raise ValueError(
            f"residual at t = {rho} with k = {k}: t{stencil} must lie in the "
            f"{F.kind} window |t| <= {t_max:g}"
        )
    if k == 0:
        return abs(F(rho))
    offsets = (-2, -1, 1, 2) if k == 1 else (-2, -1, 0, 1, 2)
    f = dict(zip(offsets, F.values([rho + j * h for j in offsets]).tolist()))
    if k == 1:
        return abs((f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * h))
    return abs((-f[-2] + 16.0 * f[-1] - 30.0 * f[0] + 16.0 * f[1] - f[2]) / (12.0 * h * h))


@dataclass(frozen=True)
class BandDiscretization:
    """Uniform grid on [-t_max, t_max] carrying the weight (1+t^2)^(delta/2).

    Models the frequency band on which the flow generator acts as
    multiplication by it; vectors are complex samples on the grid and
    the pairing is the weighted trapezoid-free sum h * sum w |v|^2.
    """

    t_max: float
    h: float
    delta: float

    def __post_init__(self):
        if not self.t_max > 0.0:
            raise ValueError("t_max must be positive")
        if not 0.0 < self.h <= self.t_max:
            raise ValueError("h must lie in (0, t_max]")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")

    @cached_property
    def grid(self) -> np.ndarray:
        n = int(round(self.t_max / self.h))
        return np.arange(-n, n + 1, dtype=float) * self.h

    @cached_property
    def weights(self) -> np.ndarray:
        return (1.0 + self.grid**2) ** (self.delta / 2.0)

    @property
    def size(self) -> int:
        return len(self.grid)

    def sample(self, fn) -> np.ndarray:
        return np.array([complex(fn(t)) for t in self.grid])

    def norm(self, v) -> float:
        v = np.asarray(v, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValueError("vector length does not match the grid")
        return math.sqrt(self.h * float(np.sum(self.weights * np.abs(v) ** 2)))


def generator_apply(band: BandDiscretization, v) -> np.ndarray:
    """Flow generator on the band model: componentwise i * t_j * v_j."""
    v = np.asarray(v, dtype=complex)
    if v.shape != band.grid.shape:
        raise ValueError("vector length does not match the grid")
    return 1j * band.grid * v


def resolvent_apply(band: BandDiscretization, v, kappa: complex) -> np.ndarray:
    """Apply the resolvent (D - kappa)^(-1) of the band-model generator in
    its closed form v_j / (i t_j - kappa).  kappa on the imaginary axis is
    rejected: that line carries the spectrum.
    """
    kappa = complex(kappa)
    if kappa.real == 0.0:
        raise ValueError("Re(kappa) = 0 lies on the spectrum; resolvent undefined")
    v = np.asarray(v, dtype=complex)
    if v.shape != band.grid.shape:
        raise ValueError("vector length does not match the grid")
    return v / (1j * band.grid - kappa)


def norm_bound_check(a: float, delta: float) -> tuple[float, float]:
    """The weighted operator norm of translation by `a`, exactly, and the
    growth bound 2^(delta/4) (1 + a^2)^(delta/4) it is checked against.

    The shift (T v)_j = v_{j+k}, k = a / 0.05, acts on the grid of step
    0.05 on [-20, 20] with weight w = (1 + t^2)^(delta/2).  T^* T is
    diagonal, with entries w_{j-k}/w_j on the indices that survive the
    shift, so the norm is the largest ratio of the bases 1 + t^2 to the
    power delta/4 (no weight is formed, so none overflows), and 0 for a
    shift past the grid.  ValueError unless a is a finite multiple of
    0.05, delta is finite and nonnegative, and the bound is a float.
    """
    a, delta = float(a), float(delta)
    if not (math.isfinite(a) and 0.0 <= delta < math.inf):
        raise ValueError("a must be finite and delta finite and nonnegative")
    if abs(math.remainder(a, _NORM_H)) > 1e-9 * max(1.0, abs(a)):
        raise ValueError(f"a must be an integer multiple of the grid step {_NORM_H:g}")
    if delta * math.log2(2.0 + 2.0 * a * a) > 4 * 1023:  # 0 * inf is NaN: delta = 0 passes
        raise ValueError(f"the growth bound overflows a float at a = {a!r}, delta = {delta!r}")
    bound = 2.0 ** (delta / 4.0) * (1.0 + a * a) ** (delta / 4.0)
    base = 1.0 + BandDiscretization(t_max=_NORM_T_MAX, h=_NORM_H, delta=delta).grid ** 2
    m = base.size
    k = round(max(-m, min(m, a / _NORM_H)))  # |k| = m: every index leaves the grid
    if abs(k) == m:
        return 0.0, bound
    ratios = base[: m - k] / base[k:] if k >= 0 else base[-k:] / base[: m + k]
    return float(ratios.max()) ** (delta / 4.0), bound
