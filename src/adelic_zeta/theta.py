"""Restricted test functions on the (rational) adeles and their
theta-weighted lattice sums.

A test function is a finite sum of pure tensors: a finite-place part that
is a rational combination of scaled integral indicators 1_{m Zhat}
(m a positive rational), and an archimedean part P(u) exp(-pi u^2) with
deg P <= 8.  This class is closed under the adelic Fourier transform,
which is what makes every identity here checkable in closed form.

Conventions: the additive character is exp(2 pi i x) at the real place
and the standard self-dual pairing at the finite places, so 1_{Zhat} and
the pure Gaussian are both fixed points of the transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._backend import kernels
from .numkit import (
    PoleError,
    QuadratureSpec,
    _check_prime,
    integrate_finite,
    integrate_halfline,  # not called here; e2ebench/tracer.py wraps theta.integrate_halfline
    sum_compensated,
)

__all__ = [
    "MAX_ARCH_DEGREE",
    "FiniteTestFn",
    "ArchTestFn",
    "AdelicTestFn",
    "EEvalReport",
    "EProfile",
    "standard_gaussian",
    "make_S0",
    "is_S0",
    "E_eval",
    "E_eval_report",
    "E_batch",
    "functional_eq_residual",
    "decay_constant",
    "dyadic_grid",
    "mellin_E",
    "mellin_residue_probe",
]

MAX_ARCH_DEGREE = 8


@dataclass(frozen=True)
class FiniteTestFn:
    """Finite-place factor: sum of c_i * 1_{m_i Zhat} with m_i positive
    rationals, distinct.  Its rational points are m_i Z, which is what the
    lattice sums below enumerate."""

    terms: tuple[tuple[complex, Fraction], ...]

    def __post_init__(self):
        clean = []
        seen = set()
        for c, m in self.terms:
            m = Fraction(m)
            if m <= 0:
                raise ValueError("scales m must be positive rationals")
            if m in seen:
                raise ValueError(f"duplicate scale {m}")
            seen.add(m)
            clean.append((complex(c), m))
        object.__setattr__(self, "terms", tuple(clean))

    def at_zero(self) -> complex:
        return sum((c for c, _m in self.terms), 0j)

    def total_integral(self) -> complex:
        """Integral over the finite adeles: vol(m Zhat) = 1/m."""
        return sum((c / complex(m) for c, m in self.terms), 0j)

    def fourier(self) -> "FiniteTestFn":
        """(1_{m Zhat})^ = (1/m) 1_{(1/m) Zhat}, extended linearly."""
        return FiniteTestFn(tuple((c / complex(m), 1 / m) for c, m in self.terms))


def _hermite_like_polys(max_deg: int) -> list[tuple[complex, ...]]:
    """Q_k with (u^k e^{-pi u^2})^ = Q_k(y) e^{-pi y^2} under the
    exp(+2 pi i u y) kernel: Q_0 = 1, Q_{k+1} = (Q_k' - 2 pi y Q_k)/(2 pi i)."""
    polys = [(1.0 + 0.0j,)]
    for _k in range(max_deg):
        q = polys[-1]
        deriv = tuple((j + 1) * q[j + 1] for j in range(len(q) - 1))
        shifted = (0j,) + q
        new = []
        for j in range(len(shifted)):
            d = deriv[j] if j < len(deriv) else 0j
            new.append((d - 2.0 * math.pi * shifted[j]) / (2.0j * math.pi))
        polys.append(tuple(new))
    return polys


_QPOLYS = _hermite_like_polys(MAX_ARCH_DEGREE)


@dataclass(frozen=True)
class ArchTestFn:
    """Real-place factor P(u) exp(-pi u^2), coefficients ascending,
    deg P <= 8."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("need at least the constant coefficient")
        if len(cs) - 1 > MAX_ARCH_DEGREE:
            raise ValueError(f"polynomial degree capped at {MAX_ARCH_DEGREE}")
        object.__setattr__(self, "coeffs", cs)

    def __call__(self, u: float) -> complex:
        val = 0j
        for c in reversed(self.coeffs):
            val = val * u + c
        arg = math.pi * u * u
        return val * (math.exp(-arg) if arg < kernels.EXP_UNDERFLOW else 0.0)

    def at_zero(self) -> complex:
        return self.coeffs[0]

    def total_integral(self) -> complex:
        """Closed form: int u^k exp(-pi u^2) du = Gamma((k+1)/2)/pi^((k+1)/2)
        for even k, 0 for odd."""
        total = 0j
        for k, c in enumerate(self.coeffs):
            if k % 2 == 0:
                total += c * math.gamma((k + 1) / 2.0) / math.pi ** ((k + 1) / 2.0)
        return total

    def fourier(self) -> "ArchTestFn":
        out = [0j] * (len(self.coeffs))
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, qc in enumerate(_QPOLYS[k]):
                out[j] += c * qc
        return ArchTestFn(tuple(out))


@dataclass(frozen=True)
class AdelicTestFn:
    """Finite sum of pure tensors (finite part) x (archimedean part)."""

    summands: tuple[tuple[FiniteTestFn, ArchTestFn], ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("need at least one tensor summand")
        object.__setattr__(self, "summands", tuple(self.summands))

    def fourier(self) -> "AdelicTestFn":
        return AdelicTestFn(
            tuple((fin.fourier(), arch.fourier()) for fin, arch in self.summands)
        )

    def at_zero(self) -> complex:
        return sum((fin.at_zero() * arch.at_zero() for fin, arch in self.summands), 0j)

    def total_integral(self) -> complex:
        return sum(
            (fin.total_integral() * arch.total_integral() for fin, arch in self.summands),
            0j,
        )


def standard_gaussian() -> AdelicTestFn:
    """1_{Zhat} tensor exp(-pi u^2): the self-dual reference function."""
    return AdelicTestFn(
        ((FiniteTestFn(((1.0, Fraction(1)),)), ArchTestFn((1.0,))),)
    )


def make_S0(p: int) -> AdelicTestFn:
    """(1_{Zhat} - p 1_{p Zhat}) tensor u^2 exp(-pi u^2): vanishes at 0
    together with its Fourier transform (both sides of the annihilation
    condition hold by exact cancellation)."""
    _check_prime(p)
    fin = FiniteTestFn(((1.0, Fraction(1)), (-float(p), Fraction(p))))
    arch = ArchTestFn((0.0, 0.0, 1.0))
    return AdelicTestFn(((fin, arch),))


def is_S0(f: AdelicTestFn, tol: float = 1e-12) -> bool:
    """Whether f(0) and fhat(0) both vanish (the two-sided cusp condition)."""
    scale = 1.0 + max(
        abs(c) for fin, _a in f.summands for c, _m in fin.terms
    )
    return abs(f.at_zero()) <= tol * scale and abs(f.fourier().at_zero()) <= tol * scale


@dataclass(frozen=True)
class EEvalReport:
    value: complex
    truncation_radius: float
    term_counts: tuple[tuple[float, int], ...]


def _E_with_counts(f: AdelicTestFn, ts: np.ndarray):
    """E(f) at every t of ``ts``, and per finite term (m, kmax per t).

    The rational points of 1_{m Zhat} are the nonzero integer multiples of
    m, so each finite term is one theta-like lattice sum at scale m*t; the
    sums of one tensor summand at every t are one kernel call.
    """
    if not ((ts > 0.0) & (ts < math.inf)).all():
        raise ValueError("t must lie in (0, inf)")
    parts = []
    counts = []
    for fin, arch in f.summands:
        ms = [float(m) for _c, m in fin.terms]
        sums, kmax = kernels.gauss_poly_lattice_sums(np.outer(ms, ts).ravel(), arch.coeffs)
        cs = np.array([c for c, _m in fin.terms])
        parts.append(cs[:, None] * sums.reshape(len(ms), -1))
        counts.extend(zip(ms, kmax.reshape(len(ms), -1)))
    total = kernels.row_sums(np.concatenate(parts).T)
    return np.where(total == 0, 0j, np.sqrt(ts) * total), counts


def E_batch(f: AdelicTestFn, ts) -> np.ndarray:
    """E(f)(t) at every t of an array, as a complex ndarray; the batched
    form of E_eval, with one lattice-kernel call per tensor summand."""
    return _E_with_counts(f, np.asarray(ts, dtype=float))[0]


def E_eval_report(f: AdelicTestFn, t: float) -> EEvalReport:
    """E(f)(t) = sqrt(t) * sum over nonzero rationals gamma of
    f_fin(gamma) f_arch(gamma t), with the per-scale lattice truncation
    radius that the kernel actually used."""
    values, counts = _E_with_counts(f, np.array([t], dtype=float))
    term_counts = tuple((m, int(kmax[0])) for m, kmax in counts)
    radius = max([0.0] + [m * kmax for m, kmax in term_counts])
    return EEvalReport(complex(values[0]), radius, term_counts)


def E_eval(f: AdelicTestFn, t: float) -> complex:
    return E_eval_report(f, t).value


def functional_eq_residual(f: AdelicTestFn, t: float) -> float:
    """| Etilde(f, t) - Etilde(fhat, 1/t) | where Etilde includes the
    gamma = 0 boundary term sqrt(t) f(0); Poisson summation over the
    rational points makes this vanish for every admissible f, and the
    boundary terms drop out exactly on the S0 subspace."""
    fhat = f.fourier()
    lhs = E_eval(f, t) + math.sqrt(t) * f.at_zero()
    rhs = E_eval(fhat, 1.0 / t) + fhat.at_zero() / math.sqrt(t)
    return abs(lhs - rhs)


def dyadic_grid(kmin: int = -6, kmax: int = 6, per_octave: int = 1) -> list[float]:
    """2^(k/per_octave) for k from kmin*per_octave to kmax*per_octave."""
    if per_octave < 1 or kmax <= kmin:
        raise ValueError("need per_octave >= 1 and kmax > kmin")
    return [
        2.0 ** (k / per_octave) for k in range(kmin * per_octave, kmax * per_octave + 1)
    ]


def decay_constant(f: AdelicTestFn, n: int, grid: Sequence[float] | None = None) -> float:
    """sup over the grid of |E(f)(t)| * max(t, 1/t)^n: finite for S0
    functions up to moderate n (two-sided rapid decay); for functions
    outside S0 the t -> 0 boundary term makes the true sup infinite for
    n >= 1, which shows up as growth at the grid edge."""
    if not (0 <= n <= 8):
        raise ValueError("polynomial order n capped at 8")
    grid = dyadic_grid() if grid is None else list(grid)
    if not grid or any(not (g > 0.0) for g in grid):
        raise ValueError("grid must contain positive points")
    best = 0.0
    for t, value in zip(grid, E_batch(f, grid).tolist()):
        best = max(best, abs(value) * max(t, 1.0 / t) ** n)
    return best


_MELLIN_SPEC = QuadratureSpec(target_abs_tol=1e-11, max_refinements=9)
_POLE_GUARD = 0.05


def _halfline_mellin_part(f: AdelicTestFn, a):
    """int_0^inf E(f, e^v) e^(a v) dv, the t >= 1 half of a Mellin integral
    in logarithmic coordinates, by Gauss-Legendre panels on [0, V]: for a
    complex a, or for each exponent of a 1-D array a, one integrate_finite
    row each, every row bitwise its one-point value.  Each integrand call
    is one E_batch call, so one lattice-kernel call per tensor summand; the
    first covers the 140 nodes of integrate_finite's levels 0-2, where most
    halves stop, and each finer level costs one call more.

    Every lattice point of E(f, e^v) lies at x >= m_min e^v, m_min the
    smallest scale of f, and the kernel masks each weight exp(-pi x^2) to 0
    from pi x^2 = EXP_UNDERFLOW on; so past V = log(sqrt(EXP_UNDERFLOW/pi)
    / m_min) the integrand is exactly 0, and for V <= 0 so is the half.
    """
    a = np.asarray(a, dtype=complex)
    m_min = min(m for fin, _arch in f.summands for _c, m in fin.terms)
    v_max = 0.5 * math.log(kernels.EXP_UNDERFLOW / math.pi) - math.log(m_min)
    if v_max <= 0.0:
        return np.zeros(a.shape, dtype=complex) if a.ndim else 0j

    def integrand(v: np.ndarray) -> np.ndarray:
        ev = E_batch(f, np.exp(v))
        out = np.zeros(a.shape + v.shape, dtype=complex)
        nonzero = ev != 0  # e^(a v) may overflow where E is 0
        out[..., nonzero] = ev[nonzero] * np.exp(np.multiply.outer(a, v[nonzero]))
        return out

    return integrate_finite(integrand, 0.0, v_max, _MELLIN_SPEC).value


def mellin_E(f: AdelicTestFn, s: complex) -> complex:
    """Mellin transform int_0^inf E(f)(t) t^s dt/t, evaluated in the
    everywhere-convergent form

        int_1^inf E(f,t) t^(s-1) dt + int_1^inf E(fhat,t) t^(-s-1) dt
        + fhat(0)/(s - 1/2) - f(0)/(s + 1/2),

    obtained by folding (0,1] through the Poisson identity; it analytically
    continues the transform to all s away from the two explicit poles
    (which are absent exactly on S0).  Near an active pole (distance
    < 0.05 with a nonvanishing residue) a PoleError is raised; a
    non-finite s is refused with ValueError.

    Each t >= 1 integral is taken in v = log t by integrate_finite on
    Gauss-Legendre panels over [0, V], V = log(sqrt(745/pi) / m_min) with
    m_min the smallest scale of the function, past which every lattice
    weight underflows and E(f, e^v) is exactly 0 (no panels when V <= 0);
    each half is refined to an absolute 1e-11 between levels, its first
    three levels evaluated in one E_batch call.
    """
    return _mellin_points(f, complex(s))[0]


def _mellin_points(f: AdelicTestFn, s) -> list[complex]:
    """mellin_E at a complex s, or at each point of a 1-D array s, with
    mellin_E's checks point by point before any integral; each t >= 1 half
    is one integrate_finite batch over the points, a plain integral for a
    scalar s."""
    points = np.atleast_1d(s).tolist()
    fhat = f.fourier()
    f0 = f.at_zero()
    fhat0 = fhat.at_zero()
    for x in points:
        if not (math.isfinite(x.real) and math.isfinite(x.imag)):
            raise ValueError(f"s must be finite, got {x}")
        if abs(fhat0) > 1e-13 and abs(x - 0.5) < _POLE_GUARD:
            raise PoleError("Mellin transform pole at s = 1/2 (fhat(0) != 0)")
        if abs(f0) > 1e-13 and abs(x + 0.5) < _POLE_GUARD:
            raise PoleError("Mellin transform pole at s = -1/2 (f(0) != 0)")
    halves = np.atleast_1d(_halfline_mellin_part(f, s) + _halfline_mellin_part(fhat, -s))
    out = []
    for x, value in zip(points, halves.tolist()):
        if fhat0 != 0j:
            value += fhat0 / (x - 0.5)
        if f0 != 0j:
            value -= f0 / (x + 0.5)
        out.append(value)
    return out


# contour of mellin_residue_probe: trapezoid points on a circle around center
_PROBE_RADIUS = 0.3
_PROBE_POINTS = 32


def mellin_residue_probe(f: AdelicTestFn, center: complex) -> complex:
    """(1/2 pi i) of the contour integral of mellin_E around the circle of
    radius 0.3 about center: equals the residue inside (0 when the
    transform is analytic there).  The 32 trapezoid points converge
    geometrically for integrands analytic in a neighborhood of the contour.
    The 32 values of mellin_E are one batch per half, each bitwise its
    one-point value."""
    ws = []
    for k in range(_PROBE_POINTS):
        theta = 2.0 * math.pi * k / _PROBE_POINTS
        ws.append(complex(math.cos(theta), math.sin(theta)))
    values = _mellin_points(f, np.array([center + _PROBE_RADIUS * w for w in ws]))
    total = [value * w for value, w in zip(values, ws)]
    return complex(sum_compensated(total)) * _PROBE_RADIUS / _PROBE_POINTS


@dataclass(frozen=True)
class EProfile:
    """Evaluation grid for one test function.  `rows()` gives one record
    {t, E} per grid point, which `records.csv_text` writes as the columns
    E.im, E.re, t."""

    f: AdelicTestFn
    grid: tuple[float, ...]

    def rows(self) -> list[dict]:
        return [{"t": t, "E": v} for t, v in zip(self.grid, E_batch(self.f, self.grid).tolist())]
