"""Slower independent routes to quantities the package computes one way.

Each function here is a test oracle, not a production path: the tests
compare the package's single route against it.

* direct_mellin: the defining Mellin integral of E(f), truncated near
  t = 0, with its t >= 1 half on the exp-sinh half-line rule, against
  theta.mellin_E's Poisson-folded form on Gauss-Legendre panels.
* closed_form_mellin: the Mellin transform of E(f) as zeta times gamma
  factors, by mpmath, against theta.mellin_E at any s off its poles.
* laplace_resolvent: the band-model resolvent by quadrature of the
  Laplace transform of the translation flow, against the closed diagonal
  form of polya.resolvent_apply.
* dense_shift_norm: the 2-norm of the weighted shift as a dense matrix,
  against the closed diagonal form of polya.norm_bound_check.
* dirichlet_partial_sum: a truncated Dirichlet series, against the Euler
  products of lfun.
* per_prime_euler: an Euler product with its local polynomial built by one
  Python call per prime and evaluated by Horner's rule and np.prod,
  against lfun.euler_product_eval on the rows its products build once.
* lambda_one_point, sampler_one_point, scan_one_point: the completed
  functions, the critical-line sampler and the zero scan one point at a
  time, each integrand built and integrated on its own with nodes rebuilt
  per level and the two exponentials g(e^v) (exp(a v) + exp(b v)) summed
  as complex at every point, against the batched sampler
  (lfun.completed_lambda_line, polya.CriticalLineFn.values), whose central
  line takes the real integrand g(e^v) 2 Re exp(a v), and polya.scan_zeros.
* FractionSqrtP: the exact scalar a + b sqrt(p) as a pair of Fractions,
  every value built through the checked constructor, against
  satake.SqrtP's integer form (x + y sqrt(p)) / q.
* coset_transform, coset_radial, coset_convolve: the rank-2 spherical
  transform, radial table and convolution by counting Hermite
  representatives [[p^a, b], [0, p^c]] by diagonal (_order_classes), with
  a Weyl-invariance audit and an exact Smith classification of
  x^{-1} diag(p^nu), against satake's Hall-Littlewood route.
* csv_through_flatten: the CSV view with every record through
  records.plain and records.flatten, against records.csv_text's path
  for flat rows of int or str cells.
* recording, refinement_faults: the certificate every root of
  numkit.bracket_and_bisect must carry, checked from the samples it took:
  an exact zero sample, or the midpoint of a bracket at most tol wide
  whose ends were sampled with opposite signs, reached within
  ceil(log2(cell width / tol)) + 1 one-point calls.
"""

import csv
import io
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import mpmath as mp
import numpy as np

from adelic_zeta import lfun, polya, records, theta
from adelic_zeta.numkit import (
    NonConvergenceError,
    _check_prime,
    integrate_finite,
    integrate_halfline,
    sum_compensated,
)
from adelic_zeta.satake import HeckeFn, SqrtP, SymLaurent, dominant, dominant_tuples

# Literal evaluation of E near t = 0 needs ~1/t lattice terms, so the
# defining integral is truncated at t0 = e^-W.
_DIRECT_W = 6.9


def direct_mellin(f: theta.AdelicTestFn, s: complex) -> complex:
    """int_0^inf E(f)(t) t^s dt/t from the definition, Re s > 1/2.

    The t >= 1 half is the exp-sinh integral in v = log t, with E taken as
    0 past v = 700; the e^-W <= t <= 1 half is Gauss-Legendre in
    v = -log t, both over E_batch.  The omitted mass below e^-W is bounded
    by |fhat(0)| e^{-(Re s - 1/2) W}/(Re s - 1/2), so agreement needs Re s
    comfortably above 1/2.
    """
    s = complex(s)
    if s.real <= 0.5 + 1e-9:
        raise ValueError("direct Mellin integration needs Re s > 1/2")

    def upper_integrand(v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape, dtype=complex)
        live = np.flatnonzero(v < 700.0)
        ev = theta.E_batch(f, np.exp(v[live]))
        live, ev = live[ev != 0], ev[ev != 0]
        out[live] = ev * np.exp(s * v[live])
        return out

    upper = integrate_halfline(upper_integrand, theta._MELLIN_SPEC).value
    lower = integrate_finite(
        lambda v: theta.E_batch(f, np.exp(-v)) * np.exp(-s * v),
        0.0,
        _DIRECT_W,
        theta._MELLIN_SPEC,
    ).value
    return upper + lower


def closed_form_mellin(f: theta.AdelicTestFn, s: complex, dps: int = 30) -> complex:
    """int_0^inf E(f)(t) t^s dt/t in closed form, continued to every s off
    the poles s = +-1/2: with z = s + 1/2, each summand
    (sum_i c_i 1_{m_i Zhat}) (x) P(u) exp(-pi u^2) gives

        sum_i c_i m_i^-z zeta(z) sum_j a_2j pi^-(z+2j)/2 Gamma((z+2j)/2),

    a_2j the even coefficients of P (the odd ones cancel between the
    lattice points k and -k).  Evaluated by mpmath at ``dps`` digits."""
    with mp.workdps(dps):
        z = mp.mpc(s) + mp.mpf(1) / 2
        zeta = mp.zeta(z)
        total = mp.mpc(0)
        for fin, arch in f.summands:
            scales = mp.fsum(
                mp.mpc(c) * (mp.mpf(m.numerator) / m.denominator) ** -z for c, m in fin.terms
            )
            gammas = mp.fsum(
                mp.mpc(a) * mp.pi ** (-(z + k) / 2) * mp.gamma((z + k) / 2)
                for k, a in enumerate(arch.coeffs)
                if k % 2 == 0
            )
            total += scales * zeta * gammas
        return complex(total)


_GL20 = np.polynomial.legendre.leggauss(20)


def _laplace_symbols(t_grid: np.ndarray, kappa: complex, tol: float = 1e-9) -> np.ndarray:
    """Resolvent symbol 1/(it - kappa) via the Laplace transform of the
    flow: -int_0^inf e^(-kappa tau) e^(i t tau) dtau for Re kappa > 0 and
    the mirrored integral +int_0^inf e^(kappa tau) e^(-i t tau) dtau for
    Re kappa < 0 (mirroring keeps the integrand decaying)."""
    if kappa.real < 0.0:
        return -_laplace_symbols(-t_grid, -kappa, tol)
    tau_max = 42.0 / kappa.real
    xs, ws = _GL20

    def integrate(panels: int) -> np.ndarray:
        acc = np.zeros(len(t_grid), dtype=complex)
        width = tau_max / panels
        for j in range(panels):
            mid = (j + 0.5) * width
            tau = mid + 0.5 * width * xs
            w = 0.5 * width * ws
            phases = np.exp(np.outer(tau, 1j * t_grid))
            acc += (w * np.exp(-kappa * tau)) @ phases
        return -acc

    panels = 8
    prev = integrate(panels)
    for _ in range(10):
        panels *= 2
        cur = integrate(panels)
        if np.max(np.abs(cur - prev)) < tol:
            return cur
        prev = cur
    raise NonConvergenceError("Laplace resolvent quadrature did not settle")


def laplace_resolvent(band, v, kappa: complex) -> np.ndarray:
    """(D - kappa)^(-1) v on the band model by quadrature of the Laplace
    transform of the translation flow; Re kappa != 0."""
    return _laplace_symbols(band.grid, complex(kappa)) * np.asarray(v, dtype=complex)


def dense_shift_norm(a: float, delta: float) -> float:
    """Weighted norm of translation by a (a multiple of polya._NORM_H) on
    the norm-check grid: the spectral norm, by numpy's SVD, of the dense
    matrix D T D^-1, with (T v)_j = v_{j+k} and D = diag(sqrt(w)) for the
    grid weights w."""
    band = polya.BandDiscretization(polya._NORM_T_MAX, polya._NORM_H, delta)
    k = round(a / polya._NORM_H)
    root_w = np.sqrt(band.weights)
    shift = np.eye(band.size, k=k)
    return float(np.linalg.norm(root_w[:, None] * shift / root_w[None, :], 2))


def dirichlet_partial_sum(table, s: complex) -> complex:
    """sum a_n n^-s over every entry of a CoeffTable (arithmetic
    normalization)."""
    s = complex(s)
    n_arr = np.arange(1, len(table) + 1, dtype=float)
    a_arr = np.array(table.values, dtype=float)
    return complex(sum_compensated(a_arr * np.exp(-s * np.log(n_arr))))


def per_prime_euler(label: str, table, normalization: str, s: complex,
                    prime_bound: int) -> complex:
    """The finite Euler product of zeta ("zeta") or of the weight-12 cusp
    form ("delta", from a CoeffTable) over p <= prime_bound: one local
    polynomial per prime from a per-prime function, stacked into rows,
    evaluated together by Horner's rule and multiplied by np.prod."""
    if label == "zeta":
        def local(p):
            return (1.0, -1.0)
    elif normalization == "arithmetic":
        def local(p):
            return (1.0, -float(table.a(p)), float(p) ** 11)
    else:
        def local(p):
            ap = table.a(p) / float(p) ** 5.5
            return (1.0, -ap, 1.0)
    ps = lfun.primes_up_to(prime_bound)
    rows = np.array([local(int(p)) for p in ps], dtype=complex)
    x = np.exp(-complex(s) * np.log(np.array(ps, dtype=np.int64).astype(float)))
    val = np.zeros_like(x)
    for col in rows.T[::-1]:
        val = val * x + col
    return complex(1.0 / np.prod(val))


def _integrate_one(f, a: float, b: float, tol: float, max_refinements: int) -> complex:
    """One integrand over [a, b] by composite 20-point Gauss-Legendre
    panels, doubling the panel count until two levels agree, every level's
    nodes and weights built afresh."""
    xs, ws = _GL20
    prev = None
    panels = 1
    for _ in range(max_refinements + 1):
        edges = np.linspace(a, b, panels + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mids[:, None] + half[:, None] * xs[None, :]).ravel()
        weights = (half[:, None] * ws[None, :]).ravel()
        cur = complex(sum_compensated(np.asarray(f(nodes), dtype=complex) * weights))
        if prev is not None and abs(cur - prev) <= tol:
            return cur
        prev = cur
        panels *= 2
    raise NonConvergenceError("one-point theta integral did not settle")


def lambda_one_point(kind: str, s: complex, tol: float = lfun._POINT_TOL) -> complex:
    """completed_lambda_zeta / completed_lambda_delta at one s inside their
    windows (absolute target tol; lfun._LINE_TOL gives the critical-line
    values of lfun.completed_lambda_line), with the theta factor evaluated
    on each level's nodes."""
    s = complex(s)
    if kind == "zeta":
        v_max = lfun._cutoff(math.pi, max(abs(s.real), abs(1.0 - s.real)) / 2.0 + 1.0)

        def integrand(v):
            return lfun._omega_zeta(np.exp(v)) * (
                np.exp(0.5 * s * v) + np.exp(0.5 * (1.0 - s) * v)
            )

        return _integrate_one(integrand, 0.0, v_max, tol, 14) - (1.0 / s + 1.0 / (1.0 - s))
    table = lfun.tau_coefficients(64)
    v_max = lfun._cutoff(2.0 * math.pi, max(abs(s.real), abs(12.0 - s.real), 1.0))

    def integrand(v):
        return lfun._delta_series(np.exp(v), table) * (np.exp(s * v) + np.exp((12.0 - s) * v))

    return _integrate_one(integrand, 0.0, v_max, tol, 14)


def sampler_one_point(kind: str):
    """The normalized critical-line sampler of polya.CriticalLineFn, one
    uncached point per call."""
    F = polya.CriticalLineFn(kind)

    def sample(t: float) -> float:
        key = abs(float(t))
        return lambda_one_point(kind, complex(F.center, key), lfun._LINE_TOL).real / F.envelope(key)

    return sample


def scan_one_point(kind: str, t_from: float, t_to: float, step: float = 0.05,
                   tol: float = 1e-10) -> tuple[float, ...]:
    """polya.scan_zeros ordinates by sampling the grid point by point and
    bisecting each sign change with sampler_one_point."""
    f = sampler_one_point(kind)
    n = max(1, int(math.ceil((t_to - t_from) / step - 1e-12)))
    xs = [t_from + i * step for i in range(n)] + [t_to]
    vals = [f(x) for x in xs]
    roots = []
    for i in range(len(xs) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            if not roots or abs(roots[-1] - xs[i]) > tol:
                roots.append(xs[i])
            continue
        if fa * fb < 0.0:
            lo, hi, flo = xs[i], xs[i + 1], fa
            for _ in range(200):
                if hi - lo <= tol:
                    break
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0 and (not roots or abs(roots[-1] - xs[-1]) > tol):
        roots.append(xs[-1])
    return tuple(r for r in roots if r > 0.0)


def csv_through_flatten(rows) -> str:
    """The CSV view built as for nested records: every row through plain
    and flatten, columns from the first flattened row."""
    flat = [records.flatten(records.plain(row)) for row in rows]
    cols = list(flat[0]) if flat else []
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    w.writerows([row[c] for c in cols] for row in flat)
    return buf.getvalue()


def recording(values):
    """values wrapped to keep every sampled (t, value) pair and the points
    of each call, in call order."""
    samples: dict[float, float] = {}
    calls: list[list[float]] = []

    def wrapped(ts):
        out = values(ts)
        pts = np.asarray(ts, dtype=float).tolist()
        calls.append(pts)
        samples.update(zip(pts, np.asarray(out, dtype=float).tolist()))
        return out

    return wrapped, samples, calls


def refinement_faults(samples: dict[float, float], calls: list[list[float]],
                      roots, tol: float) -> list[str]:
    """What breaks the certificate of numkit.bracket_and_bisect, judged
    from its samples (grid call first): a refinement call of more than one
    point, a grid cell whose one-point calls exceed
    ceil(log2(width / tol)) + 1, and a root that is neither an exact zero
    sample nor 0.5 * (lo + hi) for sampled lo < hi with hi - lo <= tol
    and values of opposite signs."""
    grid, *steps = calls
    faults = [f"a call of {len(x)} points" for x in steps if len(x) != 1]
    cells = Counter((np.searchsorted(grid, [x[0] for x in steps], side="right") - 1).tolist())
    for i, n in cells.items():
        if n > max(0, math.ceil(math.log2((grid[i + 1] - grid[i]) / tol))) + 1:
            faults.append(f"{n} calls in the cell at {grid[i]!r}")
    for rho in roots:
        near = [t for t in samples if abs(t - rho) <= tol]
        if samples.get(rho) != 0.0 and not any(
            lo < hi and hi - lo <= tol and 0.5 * (lo + hi) == rho
            and (samples[lo] < 0.0 < samples[hi] or samples[hi] < 0.0 < samples[lo])
            for lo in near for hi in near
        ):
            faults.append(f"uncertified root {rho!r}")
    return faults


class FractionSqrtP:
    """Exact scalar a + b*sqrt(p) with rational a, b held as Fractions.

    Closed under +, -, * and comparison with rationals; conversion to
    complex/float is the only lossy operation.  Mixing two values with
    different p is rejected rather than approximated.
    """

    __slots__ = ("p", "a", "b")

    def __init__(self, p: int, a=0, b=0):
        self.p = _check_prime(p)
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def half_power(cls, p: int, k: int) -> "FractionSqrtP":
        """p^(k/2) for integer k (k may be negative)."""
        if k % 2 == 0:
            return cls(p, a=Fraction(p) ** (k // 2))
        return cls(p, b=Fraction(p) ** ((k - 1) // 2))

    def _coerce(self, other):
        if isinstance(other, FractionSqrtP):
            if other.p != self.p and not (other.b == 0 or self.b == 0):
                raise ValueError("cannot mix sqrt(p) scalars for different p")
            return other
        if isinstance(other, Rational):
            return FractionSqrtP(self.p, a=Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        p = self.p if self.b != 0 or o.b == 0 else o.p
        return FractionSqrtP(p, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FractionSqrtP(self.p, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        p = self.p if self.b != 0 or o.b == 0 else o.p
        return FractionSqrtP(p, self.a * o.a + self.b * o.b * p, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FractionSqrtP):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.p == other.p and self.a == other.a and self.b == other.b
        if isinstance(other, Rational):
            return self.b == 0 and self.a == Fraction(other)
        if isinstance(other, (float, complex)):
            other = complex(other)
            return self.b == 0 and other.imag == 0 and self.a == other.real
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.p, self.a, self.b))

    def __complex__(self):
        return complex(float(self))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.p)

    def __repr__(self):
        if self.b == 0:
            return f"SqrtP({self.p}, {self.a})"
        return f"SqrtP({self.p}, {self.a}, {self.b})"


@lru_cache(maxsize=None)
def _order_classes(p: int, m: int):
    """Representative classes of the (m,0) double coset grouped by
    (diag order a, diag order c, off-diagonal order t, count).

    t = None encodes a zero off-diagonal entry.  Classes satisfy the
    primitivity filter min(a, c, t) == 0, so the matrices have elementary
    divisors exactly (p^m, 1).
    """
    classes = []
    for a in range(m + 1):
        c = m - a
        # b runs mod p^a; bucket by its exact order
        for t in list(range(a)) + [None]:
            if a and c and t != 0:
                continue
            count = 1 if t is None else p ** (a - t) - p ** (a - t - 1)
            classes.append((a, c, t, count))
    return tuple(classes)


def _half_delta(p: int, mu: tuple[int, int]) -> SqrtP:
    """delta^(1/2) at diag(p^mu1, p^mu2) for rank 2: p^((mu2 - mu1)/2)."""
    return SqrtP.half_power(p, mu[1] - mu[0])


def _diag_counts(p: int, lam: tuple[int, int]) -> dict[tuple[int, int], int]:
    """How many representatives of K diag(p^lam) K have a given diagonal."""
    m = lam[0] - lam[1]
    out: dict[tuple[int, int], int] = {}
    for a, c, _t, count in _order_classes(p, m):
        key = (a + lam[1], c + lam[1])
        out[key] = out.get(key, 0) + count
    return out


def coset_transform(f: HeckeFn) -> SymLaurent:
    """Rank-2 spherical transform: (Sf)(mu) = delta^(1/2)(p^mu) * (number
    of Hermite representatives of each support coset with diagonal p^mu),
    summed with f's coefficients; AssertionError unless each Weyl orbit
    reads the same from both of its orderings."""
    assert f.n == 2
    p = f.p
    acc: dict[tuple[int, int], object] = {}
    for lam, c in f.coeffs.items():
        counts = _diag_counts(p, lam)
        for mu, cnt in counts.items():
            if mu != dominant(mu):
                # value check happens on the dominant representative
                continue
            val = c * cnt * _half_delta(p, mu)
            acc[mu] = acc[mu] + val if mu in acc else val
        # invariance audit: the two orderings of each orbit must agree
        for mu, cnt in counts.items():
            if mu == dominant(mu):
                continue
            md = dominant(mu)
            if not cnt * _half_delta(p, mu) == counts.get(md, 0) * _half_delta(p, md):
                raise AssertionError("Weyl invariance violated in transform")
    return SymLaurent(2, acc)


def _determinant_counts(p: int, k: int) -> dict[tuple[int, int], int]:
    """How many integral rank-2 cosets of determinant p^k have a given
    diagonal: _diag_counts summed over the integral double cosets (k-j, j)."""
    out: dict[tuple[int, int], int] = {}
    for j in range(k // 2 + 1):
        for mu, cnt in _diag_counts(p, (k - j, j)).items():
            out[mu] = out.get(mu, 0) + cnt
    return out


def coset_radial(sigma, d: int, p: int) -> SymLaurent:
    """Rank-2 transform of 1_{integral} |det|^sigma on the dominant mu >= 0
    with |mu| <= d, from the Hermite-diagonal counts of every integral coset
    of each determinant; exact SqrtP entries when 2 sigma is an integer."""
    exact = isinstance(sigma, (Rational, float)) and (2 * Fraction(sigma)).denominator == 1

    def weight(m):
        if exact:
            return SqrtP.half_power(p, -int(2 * Fraction(sigma) * m))
        return complex(p) ** (-complex(sigma) * m)

    counts = [_determinant_counts(p, k) for k in range(d + 1)]
    out = {}
    for mu in dominant_tuples(2, d):
        total = counts[sum(mu)].get(mu, 0)
        if total:
            out[mu] = total * _half_delta(p, mu) * weight(sum(mu))
    return SymLaurent(2, out)


def coset_convolve(f: HeckeFn, g: HeckeFn) -> HeckeFn:
    """Rank-2 convolution from the explicit coset classes of f's support and
    exact Smith classification of x^{-1} diag(p^nu)."""
    assert f.n == g.n == 2 and f.p == g.p
    p = f.p
    if not f.coeffs or not g.coeffs:
        return HeckeFn(2, p, {})
    g1max = max(mu[0] for mu in g.coeffs)
    g2min = min(mu[1] for mu in g.coeffs)
    out = {}
    for lam, cf in f.coeffs.items():
        m = lam[0] - lam[1]
        for mu, cg in g.coeffs.items():
            tot = lam[0] + lam[1] + mu[0] + mu[1]
            for nu1 in range((tot + 1) // 2, lam[0] + g1max + 1):
                nu = (nu1, tot - nu1)
                if nu != dominant(nu) or nu[1] < lam[1] + g2min:
                    continue
                count_here = 0
                for a0, c0, t0, count in _order_classes(p, m):
                    d1 = a0 + lam[1]
                    d2 = c0 + lam[1]
                    toff = None if t0 is None else t0 + lam[1]
                    y1 = nu[0] - d1
                    y2 = nu[1] - d2
                    yoff = math.inf if toff is None else toff + nu[1] - d1 - d2
                    k1 = min(y1, y2, yoff)
                    kappa = (y1 + y2 - k1, k1)
                    if kappa == mu:
                        count_here += count
                if count_here:
                    c = cf * cg * count_here
                    out[nu] = out[nu] + c if nu in out else c
    return HeckeFn(2, p, out)
