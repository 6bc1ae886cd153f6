"""Independent oracles for the test suite.

Everything here is deliberately written from first principles (digit
arithmetic, brute-force character sums, literal series) and never calls the
library code paths it is used to check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

SAME = float("-inf")


# ---------------------------------------------------------------------------
# truncated additive model of the unramified field
# ---------------------------------------------------------------------------


class FieldModel:
    """Window of the unramified degree-n extension as (Z/p^T)^n.

    Points of the ambient ball (radius q^ambient) are coordinate vectors;
    subtraction is exact componentwise arithmetic mod p^T (carries included),
    and the norm exponent of a difference is ambient - min_i v_p(x_i), i.e.
    agreement of the first v digit layers.
    """

    def __init__(self, p: int, n: int, ambient: int, depth: int):
        self.p = p
        self.n = n
        self.q = p**n
        self.ambient = ambient
        self.depth = depth
        self.mod = p**depth

    def digit_to_vector(self, digit: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(digit % self.p)
            digit //= self.p
        return tuple(out)

    def from_tree_digits(self, digits) -> tuple[int, ...]:
        """Point with the given digit layers (coarsest first) and zeros below."""
        coords = [0] * self.n
        for t, digit in enumerate(digits):
            vec = self.digit_to_vector(digit)
            for i in range(self.n):
                coords[i] += vec[i] * self.p**t
        return tuple(c % self.mod for c in coords)

    def to_tree_digits(self, point, levels: int):
        """First ``levels`` digit layers of a point (coarsest first)."""
        digits = []
        coords = list(point)
        for _ in range(levels):
            layer = 0
            for i in reversed(range(self.n)):
                layer = layer * self.p + coords[i] % self.p
                coords[i] //= self.p
            digits.append(layer)
        return tuple(digits)

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple((x - y) % self.mod for x, y in zip(a, b))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % self.mod for x, y in zip(a, b))

    def norm_exponent(self, point) -> float:
        """d with |x| = q^d, or SAME for the zero vector (within the window)."""
        val = self.depth
        for c in point:
            if c == 0:
                continue
            v = 0
            while c % self.p == 0:
                v += 1
                c //= self.p
            val = min(val, v)
        if val >= self.depth:
            return SAME
        return self.ambient - val

    def random_point(self, rand) -> tuple[int, ...]:
        return tuple(rand.randrange(self.mod) for _ in range(self.n))


# ---------------------------------------------------------------------------
# brute-force character integrals (n = 1, q = p)
# ---------------------------------------------------------------------------


def ball_character_integral(p: int, m: int, d: float, unit: int = 1) -> float:
    """Integral of chi(x xi) over |xi| <= p^m for |x| = p^d, by residue sums.

    x = p^(-d) * unit; the rank-zero character is exp(2 pi i {y}) on the
    fractional part.  The integrand is constant on cosets of p^(m - J) for
    J = max(0, m + d), so the sum over p^J residues is exact.
    """
    if d == SAME:
        return float(p) ** m
    j = max(0, m + int(d))
    if j == 0:
        return float(p) ** m
    total = 0j
    denom = p**j
    for a in range(denom):
        total += cmath.exp(2j * cmath.pi * ((a * unit) % denom) / denom)
    value = (float(p) ** m / denom) * total
    assert abs(value.imag) < 1e-9
    return value.real


def shell_character_integral(p: int, m: int, d: float, unit: int = 1) -> float:
    return ball_character_integral(p, m, d, unit) - ball_character_integral(p, m - 1, d, unit)


# ---------------------------------------------------------------------------
# literal shell series (independent of the library's truncation strategy)
# ---------------------------------------------------------------------------


def shell(q: int, m: int) -> float:
    return float(q) ** m * (1.0 - 1.0 / q)


def symbol(q: int, beta_hat: float, gamma: float, m: int) -> float:
    return gamma * float(q) ** (m * beta_hat)


def series_ball_integral(q, beta_hat, gamma, m_sq, kappa, beta=1.0, floor=1e-18) -> float:
    total = 0.0
    m = kappa
    while float(q) ** (m - 1) * m_sq**-beta > floor * min(1.0, max(total, 1e-30)):
        total += shell(q, m) * (symbol(q, beta_hat, gamma, m) + m_sq) ** -beta
        m -= 1
    return total


def series_tail_integral(q, beta_hat, gamma, m_sq, kappa, beta, floor=1e-18) -> float:
    total = 0.0
    m = kappa
    while True:
        term = shell(q, m) * (symbol(q, beta_hat, gamma, m) + m_sq) ** -beta
        total += term
        if term <= floor * total:
            return total
        m += 1


def exact_shell_char(q: int, m: int, d: float) -> float:
    """Three-case closed form, restated independently for series assembly."""
    if m + d <= 0:
        return shell(q, m)
    if m + d == 1:
        return -float(q) ** (m - 1)
    return 0.0


def series_green_regularized(q, beta_hat, gamma, m_sq, kappa, d, floor=1e-18) -> float:
    """E_kappa at |x| = q^d as the literal character-weighted resolvent series."""
    total = 0.0
    m = kappa
    while float(q) ** (m - 1) / m_sq > floor * min(1.0, max(abs(total), 1e-30)):
        total += exact_shell_char(q, m, d) / (symbol(q, beta_hat, gamma, m) + m_sq)
        m -= 1
    return total


def series_green(q, beta_hat, gamma, m_sq, d, floor=1e-18) -> float:
    if d == SAME:
        raise ValueError("use a large-kappa regularized series for the origin")
    return series_green_regularized(q, beta_hat, gamma, m_sq, 1 - int(d), d, floor)


def series_covariance_entry(q, beta_hat, gamma, m_sq, l, d, floor=1e-18) -> float:
    return float(q) ** l * series_green_regularized(q, beta_hat, gamma, m_sq, -l, d, floor)


def series_l2_pairing(q, beta_hat, gamma, m_sq, kappa, k, l, g, dmat, floor=1e-16) -> float:
    """(g, E_kappa^k * g) by the literal double sum over cells plus shell series."""
    eta = len(g)
    total = 0.0
    for i in range(eta):
        for j in range(eta):
            if i == j:
                continue
            e = series_green_regularized(q, beta_hat, gamma, m_sq, kappa, dmat[i][j], floor)
            total += g[i] * g[j] * float(q) ** (2 * l) * e**k
    same = 0.0
    m = l
    while float(q) ** m > floor:
        e = series_green_regularized(q, beta_hat, gamma, m_sq, kappa, m, floor)
        same += shell(q, m) * e**k
        m -= 1
    for i in range(eta):
        total += g[i] * g[i] * float(q) ** l * same
    return total


def grid_minimum(func, lo: float, hi: float, points: int = 200_001) -> float:
    step = (hi - lo) / (points - 1)
    return min(func(lo + i * step) for i in range(points))


# ---------------------------------------------------------------------------
# tensor Gauss-Hermite quadrature of the interacting lattice measure
# ---------------------------------------------------------------------------

MAX_GH_ORDER = 512  # node computation loses accuracy beyond this
_GH_BLOCK = 600_000
GH_TOL = 1e-6


def _gh_blocks(order: int, eta: int, x: np.ndarray, w: np.ndarray):
    """Tensor Gauss-Hermite grid in memory-bounded blocks of (points, weights)."""
    if order**eta <= _GH_BLOCK or eta == 1:
        mesh = np.meshgrid(*([x] * eta), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        wmesh = np.meshgrid(*([w] * eta), indexing="ij")
        wts = np.stack([m.ravel() for m in wmesh], axis=-1).prod(axis=-1)
        yield pts, wts
        return
    for i0 in range(order):
        for pts, wts in _gh_blocks(order, eta - 1, x, w):
            lead = np.full((len(pts), 1), x[i0])
            yield np.concatenate([lead, pts], axis=1), wts * w[i0]


def wick_poly_literal(coeffs, t, variance: float):
    """sum_k a_k :t^k: with :t^k: = sum_j (-1)^j k! / (2^j j! (k-2j)!) t^(k-2j) variance^j."""
    total = 0.0
    for k, a in enumerate(coeffs):
        for j in range(k // 2 + 1):
            w = (-1) ** j * math.factorial(k) // (2**j * math.factorial(j) * math.factorial(k - 2 * j))
            total = total + a * w * t ** (k - 2 * j) * variance**j
    return total


def _quadrature_pass(cov, coeffs, g, variances, monomials, order: int):
    """Cell monomials <prod t_i^a_i> and Z = <exp(-sum g_i :P:(t_i))> under N(0, cov).

    Tensor Gauss-Hermite on t = sqrt(2) L x with L L^T = cov; ``monomials``
    are tuples of cell powers.
    """
    cov = np.asarray(cov, dtype=float)
    eta = len(cov)
    x, w = np.polynomial.hermite.hermgauss(order)
    chol = np.linalg.cholesky(cov)
    den = 0.0
    num = np.zeros(len(monomials))
    for pts, wts in _gh_blocks(order, eta, x, w):
        t = math.sqrt(2.0) * pts @ chol.T
        log_weight = np.zeros(len(t))
        for i in range(eta):
            log_weight -= g[i] * wick_poly_literal(coeffs, t[:, i], variances[i])
        iw = wts * np.exp(log_weight)
        den += float(iw.sum())
        top = max(max(powers) for powers in monomials)
        cell_powers = [[t[:, i] ** a for a in range(top + 1)] for i in range(eta)]
        for s, powers in enumerate(monomials):
            prod = iw
            for i, a in enumerate(powers):
                if a:
                    prod = prod * cell_powers[i][a]
            num[s] += float(prod.sum())
    return num / den, den * math.pi ** (-eta / 2.0)


def gauss_hermite(cov, coeffs, g, variances, monomials, order: int):
    """Monomials and Z at 2*order, or None when they moved by more than GH_TOL from order."""
    if 2 * order > MAX_GH_ORDER:
        raise ValueError(f"order {order} exceeds the stable Gauss-Hermite maximum")
    vals1, z1 = _quadrature_pass(cov, coeffs, g, variances, monomials, order)
    vals2, z2 = _quadrature_pass(cov, coeffs, g, variances, monomials, 2 * order)
    drifts = [abs(z2 - z1) / max(1.0, abs(z2))]
    drifts += [abs(b - a) / max(1.0, abs(b)) for a, b in zip(vals1, vals2)]
    if not (max(drifts) <= GH_TOL):
        return None
    return vals2, z2
