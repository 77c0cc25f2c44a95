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

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._backend import kernels
from .numkit import (
    PoleError,
    QuadratureSpec,
    integrate_finite,
    integrate_halfline,
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
    "format_test_fn",
    "parse_test_fn",
]

MAX_ARCH_DEGREE = 8
_TAIL_TOL = 1e-17


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

    def value_at(self, x) -> complex:
        """Value at a rational adele point embedded diagonally."""
        x = Fraction(x)
        total = 0j
        for c, m in self.terms:
            if (x / m).denominator == 1:
                total += c
        return total

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
        return val * (math.exp(-arg) if arg < 745.0 else 0.0)

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
        deg = 0
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            q = _QPOLYS[k]
            deg = max(deg, len(q))
            for j, qc in enumerate(q):
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
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError("p must be prime")
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
        sums, kmax = kernels.gauss_poly_lattice_sums(
            np.outer(ms, ts).ravel(), arch.coeffs, _TAIL_TOL
        )
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
    if not (t > 0.0) or math.isinf(t):
        raise ValueError("t must lie in (0, inf)")
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
    if not (t > 0.0) or math.isinf(t):
        raise ValueError("t must lie in (0, inf)")
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


def _halfline_mellin_part(
    f: AdelicTestFn, a: complex, spec: QuadratureSpec, batched: bool = True
) -> complex:
    """int_0^inf E(f, e^v) e^(a v) dv, the t >= 1 half of a Mellin integral
    in logarithmic coordinates; batched=False evaluates E node by node."""
    if batched:
        def integrand(v: np.ndarray) -> np.ndarray:
            out = np.zeros(v.shape, dtype=complex)
            live = np.flatnonzero(v < 700.0)
            ev = E_batch(f, np.exp(v[live]))
            nonzero = ev != 0
            live = live[nonzero]
            out[live] = ev[nonzero] * np.exp(a * v[live])
            return out

    else:
        def integrand(v: float) -> complex:
            ev = E_eval(f, math.exp(v)) if v < 700.0 else 0j
            if ev == 0j:
                return 0j
            return ev * cmath.exp(a * v)

    return integrate_halfline(integrand, spec, vectorized=batched).value


def mellin_E(
    f: AdelicTestFn,
    s: complex,
    spec: QuadratureSpec | None = None,
    method: str = "reflected",
) -> complex:
    """Mellin transform int_0^inf E(f)(t) t^s dt/t.

    method='reflected' (default) evaluates the everywhere-convergent form

        int_1^inf E(f,t) t^(s-1) dt + int_1^inf E(fhat,t) t^(-s-1) dt
        + fhat(0)/(s - 1/2) - f(0)/(s + 1/2),

    obtained by folding (0,1] through the Poisson identity; it analytically
    continues the transform to all s away from the two explicit poles
    (which are absent exactly on S0).  method='direct' integrates the
    defining integral and needs Re s > 1/2.  Near an active pole
    (distance < 0.05 with a nonvanishing residue) a PoleError is raised.
    """
    s = complex(s)
    spec = spec or _MELLIN_SPEC
    fhat = f.fourier()
    f0 = f.at_zero()
    fhat0 = fhat.at_zero()
    if method == "direct":
        # Literal evaluation of E near t = 0 needs ~1/t lattice terms, so
        # the defining integral is truncated at t0 = e^-W; the omitted mass
        # is bounded by |fhat(0)| e^{-(Re s - 1/2) W}/(Re s - 1/2), which is
        # why this route is a cross-check for Re s comfortably above 1/2,
        # not the production path.
        if s.real <= 0.5 + 1e-9:
            raise ValueError("direct Mellin integration needs Re s > 1/2")
        upper = _halfline_mellin_part(f, s, spec, batched=False)
        w_cut = 6.9

        def integrand(v: float) -> complex:
            ev = E_eval(f, math.exp(-v))
            if ev == 0j:
                return 0j
            return ev * cmath.exp(-s * v)

        lower = integrate_finite(
            integrand,
            0.0,
            w_cut,
            QuadratureSpec(
                target_abs_tol=spec.target_abs_tol,
                max_refinements=max(spec.max_refinements, 8),
                transform="finite_gauss",
            ),
        ).value
        return upper + lower
    if method != "reflected":
        raise ValueError("method must be 'reflected' or 'direct'")
    if abs(fhat0) > 1e-13 and abs(s - 0.5) < _POLE_GUARD:
        raise PoleError("Mellin transform pole at s = 1/2 (fhat(0) != 0)")
    if abs(f0) > 1e-13 and abs(s + 0.5) < _POLE_GUARD:
        raise PoleError("Mellin transform pole at s = -1/2 (f(0) != 0)")
    part_f = _halfline_mellin_part(f, s, spec)
    part_fhat = _halfline_mellin_part(fhat, -s, spec)
    out = part_f + part_fhat
    if fhat0 != 0j:
        out += fhat0 / (s - 0.5)
    if f0 != 0j:
        out -= f0 / (s + 0.5)
    return out


def mellin_residue_probe(
    f: AdelicTestFn,
    center: complex,
    radius: float = 0.3,
    n_points: int = 32,
    spec: QuadratureSpec | None = None,
) -> complex:
    """(1/2 pi i) of the contour integral of mellin_E around a circle:
    equals the residue inside (0 when the transform is analytic there).
    Trapezoid points on a circle converge geometrically for integrands
    analytic in a neighborhood of the contour."""
    if radius <= 0 or n_points < 8:
        raise ValueError("need radius > 0 and at least 8 points")
    total = []
    for k in range(n_points):
        theta = 2.0 * math.pi * k / n_points
        w = complex(math.cos(theta), math.sin(theta))
        total.append(mellin_E(f, center + radius * w, spec=spec) * w)
    return complex(sum_compensated(total)) * radius / n_points


@dataclass(frozen=True)
class EProfile:
    """Evaluation grid for one test function; exports t, E(f)(t) as CSV.
    For real even data the values are real and the CSV stores them as
    such (a nonreal value raises instead of silently truncating)."""

    f: AdelicTestFn
    grid: tuple[float, ...]

    def rows(self) -> list[tuple[float, complex]]:
        return list(zip(self.grid, E_batch(self.f, self.grid).tolist()))

    def to_csv(self) -> str:
        lines = ["t,E"]
        for t, v in self.rows():
            if abs(v.imag) > 1e-12 * (1.0 + abs(v.real)):
                raise ValueError("profile CSV requires real-valued samples")
            lines.append(f"{t!r},{v.real!r}")
        return "\n".join(lines) + "\n"


_FN_HEADER = "[adelic-zeta:test-function:v1]"


def format_test_fn(f: AdelicTestFn) -> str:
    """Versioned key-value text block: one finite./arch. line pair per
    tensor summand; scales as exact fractions, coefficients as complex
    literals."""
    lines = [_FN_HEADER, f"summands = {len(f.summands)}"]
    for i, (fin, arch) in enumerate(f.summands):
        fin_txt = "; ".join(f"{m}:{c!r}" for c, m in fin.terms)
        arch_txt = ", ".join(repr(c) for c in arch.coeffs)
        lines.append(f"finite.{i} = {fin_txt}")
        lines.append(f"arch.{i} = {arch_txt}")
    return "\n".join(lines) + "\n"


def parse_test_fn(text: str) -> AdelicTestFn:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != _FN_HEADER:
        raise ValueError(f"expected block header {_FN_HEADER}")
    kv = {}
    for ln in lines[1:]:
        key, _, val = ln.partition("=")
        kv[key.strip()] = val.strip()
    try:
        n = int(kv["summands"])
        summands = []
        for i in range(n):
            fin_terms = []
            for chunk in kv[f"finite.{i}"].split(";"):
                m_txt, _, c_txt = chunk.strip().partition(":")
                fin_terms.append((complex(c_txt.strip("() ")), Fraction(m_txt.strip())))
            arch_coeffs = tuple(
                complex(tok.strip().strip("()")) for tok in kv[f"arch.{i}"].split(",")
            )
            summands.append((FiniteTestFn(tuple(fin_terms)), ArchTestFn(arch_coeffs)))
    except KeyError as exc:
        raise ValueError(f"block is missing key {exc.args[0]!r}") from None
    return AdelicTestFn(tuple(summands))
