"""Slower independent routes to quantities the package computes one way.

Each function here is a test oracle, not a production path: the tests
compare the package's single route against it.

* direct_mellin: the defining Mellin integral of E(f), truncated near
  t = 0, against theta.mellin_E's Poisson-folded form.
* laplace_resolvent: the band-model resolvent by quadrature of the
  Laplace transform of the translation flow, against the closed diagonal
  form of polya.resolvent_apply.
* dirichlet_partial_sum: a truncated Dirichlet series, against the Euler
  products of lfun.
"""

import numpy as np

from adelic_zeta import theta
from adelic_zeta.numkit import NonConvergenceError, integrate_finite, sum_compensated

# Literal evaluation of E near t = 0 needs ~1/t lattice terms, so the
# defining integral is truncated at t0 = e^-W.
_DIRECT_W = 6.9


def direct_mellin(f: theta.AdelicTestFn, s: complex) -> complex:
    """int_0^inf E(f)(t) t^s dt/t from the definition, Re s > 1/2.

    The t >= 1 half is the exp-sinh integral that mellin_E also uses; the
    e^-W <= t <= 1 half is Gauss-Legendre in v = -log t, both over E_batch.
    The omitted mass below e^-W is bounded by
    |fhat(0)| e^{-(Re s - 1/2) W}/(Re s - 1/2), so agreement needs Re s
    comfortably above 1/2.
    """
    s = complex(s)
    if s.real <= 0.5 + 1e-9:
        raise ValueError("direct Mellin integration needs Re s > 1/2")
    upper = theta._halfline_mellin_part(f, s)
    lower = integrate_finite(
        lambda v: theta.E_batch(f, np.exp(-v)) * np.exp(-s * v),
        0.0,
        _DIRECT_W,
        theta._MELLIN_SPEC,
    ).value
    return upper + lower


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


def dirichlet_partial_sum(table, s: complex) -> complex:
    """sum a_n n^-s over every entry of a CoeffTable (arithmetic
    normalization)."""
    s = complex(s)
    n_arr = np.arange(1, len(table) + 1, dtype=float)
    a_arr = np.array(table.values, dtype=float)
    return complex(sum_compensated(a_arr * np.exp(-s * np.log(n_arr))))
