"""References computed apart from padicqft.

Nothing here imports the package under test.  The lattice entries are the
closed forms restated from the paper's construction; moments come from
scipy's adaptive quadrature (one cell) or from this module's own tensor
Gauss-Hermite rule on a numpy inverse of the restated precision matrix.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np

# scipy.integrate and scipy.special are imported where used: padicqft does not
# load them, and set-up time should not include the benchmark's own imports


def load_oracles(root: Path):
    """The test suite's first-principles series (tests/oracles.py)."""
    sys.path.insert(0, str(root / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    return oracles


# -- lattice closed forms ----------------------------------------------------


def cell_digits(balls, q: int, k: int, l: int) -> list[tuple[int, ...]]:
    """Level-l cells ball by ball, lexicographic within each ball."""
    return [tuple(b) + s for b in balls for s in itertools.product(range(q), repeat=k - l)]


def omega(q: int, bh: float, gamma: float) -> float:
    return -gamma * (q**bh - 1.0) / (1.0 - q ** (-bh - 1.0))


def distance_exponents(digits, amb: int) -> np.ndarray:
    """amb minus the longest common digit prefix, as int8; diagonal 0."""
    d = np.asarray(digits, dtype=np.int8)
    out = np.empty((len(d), len(d)), dtype=np.int8)
    for i in range(len(d)):
        neq = d != d[i]
        first = np.where(neq.any(axis=1), neq.argmax(axis=1), d.shape[1])
        out[i] = amb - first
    np.fill_diagonal(out, 0)
    return out


def precision_entry(digits_i, digits_j, amb, l, q, bh, gamma, m_sq) -> float:
    om = omega(q, bh, gamma)
    if digits_i == digits_j:
        return m_sq - om * (1.0 - 1.0 / q) * q ** (-bh * (l + 1)) / (1.0 - q**-bh)
    prefix = 0
    for a, b in zip(digits_i, digits_j):
        if a != b:
            break
        prefix += 1
    d = amb - prefix
    return om * q**l * q ** (-d * (bh + 1.0))


def precision_dense(digits, amb, l, q, bh, gamma, m_sq) -> np.ndarray:
    n = len(digits)
    return np.array([[precision_entry(digits[i], digits[j], amb, l, q, bh, gamma, m_sq)
                      for j in range(n)] for i in range(n)])


def covariance_dense(digits, amb, l, q, bh, gamma, m_sq) -> np.ndarray:
    return np.linalg.inv(precision_dense(digits, amb, l, q, bh, gamma, m_sq))


def tail_series(q, bh, gamma, m_sq, kappa, beta) -> float:
    """Integral of (a + m^2)^-beta over |xi| >= q^kappa, summed until terms stop
    mattering relative to the sum (tests/oracles.py stops at an absolute floor
    of 1e-48, which cuts the series short once the sum itself is that small)."""
    total, m = 0.0, kappa
    while True:
        term = float(q) ** m * (1.0 - 1.0 / q) * (gamma * float(q) ** (m * bh) + m_sq) ** -beta
        total += term
        if term <= 1e-18 * total:
            return total
        m += 1


# -- Wick-ordered interaction -------------------------------------------------


def ordered_poly(coeffs, variance: float):
    """Plain-power coefficients of :P: by the Hermite formula, lowest first."""
    out = [0.0] * len(coeffs)
    for k, a in enumerate(coeffs):
        for j in range(k // 2 + 1):
            w = (-1) ** j * math.factorial(k) / (2**j * math.factorial(j) * math.factorial(k - 2 * j))
            out[k - 2 * j] += a * w * variance**j
    return out


def _poly(c, t):
    return sum(cj * t**j for j, cj in enumerate(c))


def moment_1d(m11: float, variance: float, coeffs, g: float, power: int) -> float:
    """<t^power> for one cell, by adaptive quadrature of the log-shifted density."""
    import scipy.integrate

    c = ordered_poly(coeffs, variance)

    def log_density(t):
        return -0.5 * t * t / m11 - g * _poly(c, t)

    grid = np.linspace(-12.0, 12.0, 24001)
    shift = float(np.max(log_density(grid)))
    peak = float(grid[np.argmax(log_density(grid))])

    def integrate(p):
        f = lambda t: t**p * math.exp(log_density(t) - shift)
        return scipy.integrate.quad(f, -12.0, 12.0, points=[peak, -peak], limit=400,
                                    epsabs=0.0, epsrel=1e-13)[0]

    return integrate(power) / integrate(0)


def partition_1d(m11: float, variance: float, coeffs, g: float) -> float:
    """Z = E[exp(-g :P:(t))] under N(0, m11)."""
    import scipy.integrate

    c = ordered_poly(coeffs, variance)
    f = lambda t: math.exp(-0.5 * t * t / m11 - g * _poly(c, t)) / math.sqrt(2 * math.pi * m11)
    return scipy.integrate.quad(f, -12.0, 12.0, limit=400, epsabs=0.0, epsrel=1e-13)[0]


def gauss_hermite(M: np.ndarray, variance: float, coeffs, g, h_list, order: int):
    """(<prod_h phi(h)>, Z) by a tensor Gauss-Hermite rule, one slab per first node."""
    import scipy.special

    eta = len(M)
    x, w = scipy.special.roots_hermite(order)
    L = np.linalg.cholesky(M)
    c = ordered_poly(coeffs, variance)
    g = np.asarray(g, dtype=float)
    rest = np.stack([m.ravel() for m in np.meshgrid(*([x] * (eta - 1)), indexing="ij")], -1) \
        if eta > 1 else np.zeros((1, 0))
    wrest = np.prod(np.stack([m.ravel() for m in np.meshgrid(*([w] * (eta - 1)), indexing="ij")], -1),
                    axis=-1) if eta > 1 else np.ones(1)
    num = den = 0.0
    for x0, w0 in zip(x, w):
        pts = np.concatenate([np.full((len(rest), 1), x0), rest], axis=1)
        t = math.sqrt(2.0) * np.einsum("nk,ik->ni", pts, L)
        iw = np.exp(-(_poly(c, t) @ g)) * wrest * w0
        prod = np.ones(len(t))
        for h in h_list:
            prod = prod * np.einsum("ni,i->n", t, np.asarray(h, dtype=float))
        den += iw.sum()
        num += (iw * prod).sum()
    return num / den, den * math.pi ** (-eta / 2.0)
