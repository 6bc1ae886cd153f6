"""Independent oracles for the test suite.

Everything here is deliberately written from first principles (digit
arithmetic, brute-force character sums, literal series) and never calls the
library code paths it is used to check.
"""

from __future__ import annotations

import cmath
import decimal
import itertools
import math
from fractions import Fraction

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

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple((x - y) % self.mod for x, y in zip(a, b))

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


def shell(q: int, m: int, num=float) -> float:
    return num(q) ** m * (1 - 1 / num(q))


def symbol(q: int, beta_hat: float, gamma: float, m: int, num=float) -> float:
    return num(gamma) * num(q) ** num(m * beta_hat)


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


def exact_shell_char(q: int, m: int, d: float, num=float) -> float:
    """Three-case closed form, restated independently for series assembly."""
    if m + d <= 0:
        return shell(q, m, num)
    if m + d == 1:
        return -num(q) ** (m - 1)
    return num(0)


def series_green_regularized(q, beta_hat, gamma, m_sq, kappa, d, floor=1e-18, num=float) -> float:
    """E_kappa at |x| = q^d as the literal character-weighted resolvent series."""
    total = num(0)
    m = kappa
    while float(q) ** (m - 1) / m_sq > floor * min(1.0, max(abs(float(total)), 1e-30)):
        total += exact_shell_char(q, m, d, num) / (symbol(q, beta_hat, gamma, m, num) + num(m_sq))
        m -= 1
    return total


def series_green(q, beta_hat, gamma, m_sq, d, floor=1e-18) -> float:
    if d == SAME:
        raise ValueError("use a large-kappa regularized series for the origin")
    return series_green_regularized(q, beta_hat, gamma, m_sq, 1 - int(d), d, floor)


def series_covariance_entry(q, beta_hat, gamma, m_sq, l, d, floor=1e-18) -> float:
    return float(q) ** l * series_green_regularized(q, beta_hat, gamma, m_sq, -l, d, floor)


def series_l2_distance(
    q, beta_hat, gamma, m_sq, kappa1, kappa2, k, l, g, dmat, floor=1e-16, num=float
) -> float:
    """(g, E_k1^k * g) - (g, E_k2^k * g) by the literal double sum, in difference form.

    Each e1^k - e2^k is written (e1 - e2) sum_a e1^a e2^(k-1-a), with e1 - e2 the
    literal sum over the shells (kappa2, kappa1], so no difference of two series
    cancels.  The sum over m and the cell pairs can: once kappa2 is well above -l
    the distance is far smaller than its terms (at q = 5, kappa2 = 10, about 1e-9
    of them), and a float sum keeps only about 8 digits.  ``num`` is the number
    type of the sum: ``decimal.Decimal`` under a wide context gives a reference there.
    """

    def power_diff(d) -> float:
        e1 = series_green_regularized(q, beta_hat, gamma, m_sq, kappa1, d, floor, num)
        e2 = series_green_regularized(q, beta_hat, gamma, m_sq, kappa2, d, floor, num)
        delta = sum(
            exact_shell_char(q, m, d, num) / (symbol(q, beta_hat, gamma, m, num) + num(m_sq))
            for m in range(kappa2 + 1, kappa1 + 1)
        )
        return delta * sum(e1**a * e2 ** (k - 1 - a) for a in range(k))

    g = [num(x) for x in g]
    eta = len(g)
    total = num(0)
    for i in range(eta):
        for j in range(eta):
            if i != j:
                total += g[i] * g[j] * num(q) ** (2 * l) * power_diff(dmat[i][j])
    same = num(0)
    m = l
    while float(q) ** m > floor:
        same += shell(q, m, num) * power_diff(m)
        m -= 1
    for i in range(eta):
        total += g[i] * g[i] * num(q) ** l * same
    return total


# ---------------------------------------------------------------------------
# the library's shell series with q and beta_hat converted to float per term
# ---------------------------------------------------------------------------
# Same truncation and the same float operations in the same order as the
# library, so results must agree exactly (==); only the conversion of
# params.q and params.beta_hat is repeated in every term.


def per_term_shell(params, m: int) -> float:
    q = params.q
    return float(q) ** m * (1.0 - 1.0 / q)


def per_term_symbol(params, m: int) -> float:
    return params.gamma_const * float(params.q) ** (m * float(params.beta_hat))


def per_term_shell_char(params, m: int, d) -> float:
    if m + d <= 0:
        return per_term_shell(params, m)
    if m + d == 1:
        return -float(params.q) ** (m - 1)
    return 0.0


def per_term_ball_integral(params, kappa: int, beta: float = 1.0, tol: float = 1e-12) -> float:
    q = float(params.q)
    msq_pow = params.m_sq**-beta
    total = 0.0
    m = kappa
    while True:
        total += per_term_shell(params, m) * (per_term_symbol(params, m) + params.m_sq) ** -beta
        bound = q ** (m - 1) * msq_pow
        if bound < tol * min(1.0, total) or bound < 1e-300:
            return total
        m -= 1


def per_term_tail_integral(params, kappa: int, beta: float, tol: float = 1e-12) -> float:
    bb = float(params.beta_hat) * beta
    q = float(params.q)
    gpow = params.gamma_const**-beta
    tail_const = (1.0 - 1.0 / q) * gpow / (1.0 - q ** (1.0 - bb))
    total = 0.0
    m = kappa
    while True:
        total += per_term_shell(params, m) * (per_term_symbol(params, m) + params.m_sq) ** -beta
        bound = tail_const * q ** (-(m + 1) * (bb - 1.0))
        if bound < tol * min(1.0, total) or bound < 1e-300:
            return total
        m += 1


def per_term_green(params, d, tol: float = 1e-12) -> float:
    if d == SAME:
        return per_term_ball_integral(params, 0, 1.0, tol / 2) + per_term_tail_integral(
            params, 1, 1.0, tol / 2
        )
    d = int(d)
    q = float(params.q)
    outer = per_term_symbol(params, 1 - d) + params.m_sq
    total = 0.0
    m = -d
    while True:
        inner = per_term_symbol(params, m) + params.m_sq
        total += per_term_shell(params, m) * (outer - inner) / (inner * outer)
        bound = q ** (m - 1) / params.m_sq
        if bound < tol * total or bound < 1e-300:
            return total
        m -= 1


def per_term_green_increment(params, kappa1: int, kappa2: int, d) -> float:
    upper = kappa1 if d == SAME else min(kappa1, 1 - int(d))
    total = 0.0
    for m in range(kappa2 + 1, upper + 1):
        total += per_term_shell_char(params, m, d) / (per_term_symbol(params, m) + params.m_sq)
    return total


# ---------------------------------------------------------------------------
# dense and exact inverses of a lattice precision matrix
# ---------------------------------------------------------------------------


def dense_inverse(entries) -> np.ndarray:
    """Cholesky solve against the identity, symmetrized."""
    import scipy.linalg  # here, so importing this module does not load scipy

    a = np.asarray(entries, dtype=float)
    m = scipy.linalg.cho_solve((scipy.linalg.cholesky(a, lower=True), True), np.eye(len(a)))
    return (m + m.T) / 2.0


def exact_inverse(entries) -> list:
    """Gauss-Jordan elimination in rational arithmetic on the float entries, as Fractions."""
    n = len(entries)
    rows = [[Fraction(float(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(np.asarray(entries))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def refine_digits(balls, q: int, depth: int) -> list:
    """The digit paths of a refinement's cells, enumerated: each ball's digits, in the order
    ``balls`` lists them, followed by every base-q suffix of length ``depth`` in increasing
    order.  The reference for ``LatticeSpec.cells`` and for the arithmetic of cell indices."""
    return [tuple(ball) + suffix for ball in balls for suffix in itertools.product(range(q), repeat=depth)]


def digit_ball_tree(digits, leaf: int, top: int, nu: int) -> dict:
    """The ball-tree fields of cells listed by their digit paths, read from the digits alone.

    The reference for ``lattice._ball_tree``: each adjacent cell pair's common prefix
    (lcp) is read from an eta x leaf digit array, a depth-c node starts wherever lcp < c,
    and ``pairs[c]`` is the first adjacent pair whose lcp is c.  Digits out of
    lexicographic order raise ValueError.
    """
    eta = len(digits)
    digits = np.array(digits, dtype=np.int64).reshape(eta, leaf)
    if not leaf:  # one cell, the whole ambient ball
        digits = np.zeros((eta, 1), dtype=np.int64)
    step = digits[1:] - digits[:-1]
    lcp = np.argmax(step != 0, axis=1)
    if np.any(step[np.arange(eta - 1), lcp] < 0):  # the first digit that differs falls
        raise ValueError("lattice cells are not in lexicographic digit order")
    lcp = lcp.astype(np.min_scalar_type(leaf))
    pairs = [None] * leaf
    for k, c in enumerate(lcp.tolist()):
        if pairs[c] is None:
            pairs[c] = (k, k + 1)
    cut = np.ones((leaf + 1, eta + 1), dtype=bool)  # cut[c, k]: a depth-c node starts at k
    cut[:, 1:-1] = lcp < np.arange(leaf + 1)[:, None]
    bounds = [row.nonzero()[0] for row in cut]
    firsts = [bounds[c + 1].searchsorted(bounds[c]) for c in range(leaf)]
    node = [b.searchsorted(np.arange(0, eta, eta // nu), "right") for b in bounds[1 : top + 1]]
    ball_classes = sum((n[:, None] == n for n in node), np.zeros((nu, nu), dtype=lcp.dtype))
    return {"eta": eta, "leaf": leaf, "top": top, "pairs": tuple(pairs), "bounds": tuple(bounds),
            "firsts": tuple(firsts), "ball_classes": ball_classes}


def per_node_tree_inverse(N):
    """The ball-tree Sherman-Morrison inverse of a precision matrix, one node at a time.

    The reference for ``lattice._tree_inverse``: it reads the same inputs (N's
    diagonal, one entry per distance class and the node table ``N.lattice.tree``), keeps
    one 40-digit ``s`` and ``den`` per node and adds each node's rank-one update
    +-v v^T entry by entry, leaf to root.  Returns (None, M), or (pivot, None)
    with the 1-based cell of the first nonpositive leaf term or den.
    """
    tree, eta = N.lattice.tree, len(N.entries)
    off, w = [], 0.0
    for pair in tree.pairs:  # w(c); a class with no pairs repeats w(c - 1)
        w = w if pair is None else float(N.entries[pair])
        off.append(w)
    bad = np.flatnonzero(~(np.diagonal(N.entries) > ([0.0] + off)[-1]))
    if bad.size:
        return int(bad[0]) + 1, None
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dec = [decimal.Decimal(0)] + [decimal.Decimal(v) for v in off]
        beta = [b - a for a, b in zip(dec, dec[1:])]
        d_prime = decimal.Decimal(float(N.entries[0, 0])) - dec[-1]
        sums = [1 / d_prime] * eta
        m = np.zeros((eta, eta))
        m.flat[:: eta + 1] = float(1 / d_prime)
        u = np.full(eta, float(1 / d_prime))
        for depth in range(tree.leaf - 1, -1, -1):
            b, node_sums = beta[depth], []
            bounds, firsts = tree.bounds[depth].tolist(), tree.firsts[depth].tolist()
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                s = sum(sums[firsts[k] : firsts[k + 1]], decimal.Decimal(0))
                den = 1 + b * s
                if not (den > 0):
                    return lo + 1, None
                node_sums.append(s / den)
                if b:
                    v = math.sqrt(float(abs(b) / den)) * u[lo:hi]
                    left = v if b < 0 else -v
                    m[lo:hi, lo:hi] += np.multiply.outer(left, v)
                    u[lo:hi] /= float(den)
            sums = node_sums
    return None, m


def inverse_residual(m, N, chunk: int = 1 << 16) -> float:
    """max |M N - I| over every entry of a dense M, with N in its tree form.

    The dense-form reference for ``lattice._ball_residual``, which forms one row of M N - I
    per region ball: here every row, for any M.  N = D' I + sum_a beta_a 1_a 1_a^T over the
    nodes of ``N.lattice.tree``, with w(c), beta_c = w(c) - w(c-1) and D' read from one pair per
    class as in ``per_node_tree_inverse``; (M N)_ij = D' M_ij + sum over the tree nodes a
    above j of beta_a (M 1_a)_i.  Row chunk by row chunk: the node sums M 1_a bottom-up,
    each level from the level below; the beta sums along each root-to-node path top-down;
    then spread to the columns.  Chunk maxima fold by ``np.maximum``, so a NaN anywhere in M
    makes the residual NaN.
    """
    tree, eta, q = N.lattice.tree, len(m), N.lattice.q
    top, leaf = tree.top, tree.leaf
    off, w = [0.0], 0.0  # w(c - 1), c = 0, ..., leaf
    for pair in tree.pairs:
        w = w if pair is None else float(N.entries[pair])
        off.append(w)
    beta = [b - a for a, b in zip(off, off[1:])]
    d_prime = float(N.entries[0, 0]) - off[-1]
    residual = np.float64(0.0)
    step = max(1, chunk // eta)
    for lo in range(0, eta, step):
        rows = slice(lo, min(lo + step, eta))
        x = np.ascontiguousarray(m[rows].T)
        sums = [x]  # sums[k]: (M 1_a) over the depth leaf - k nodes a
        for c in range(leaf - 1, top - 1, -1):
            sums.append(sums[-1].reshape(len(tree.bounds[c]) - 1, q, -1).sum(axis=1))
        for c in range(top - 1, -1, -1):
            sums.append(np.add.reduceat(sums[-1], tree.firsts[c][:-1], axis=0))
        out = np.zeros((1, x.shape[1]))  # the path sums above the root
        for c in range(top):  # the depth-c path sums, repeated down to each depth-(c+1) child
            out = np.repeat(out + beta[c] * sums[leaf - c], np.diff(tree.firsts[c]), axis=0)
        for c in range(top, leaf + 1):  # from top, spread down by strided adds; D' at the cells
            out, above = (beta[c] if c < leaf else d_prime) * sums[leaf - c], out
            out.reshape(len(above), -1, out.shape[1])[...] += above[:, None]
        out[rows].flat[:: x.shape[1] + 1] -= 1.0  # the chunk's diagonal
        residual = np.maximum(residual, np.abs(out, out=out).max())
    return float(residual)


def first_nonpositive_pivot(entries):
    """Gaussian elimination without row exchanges, in rational arithmetic on the float
    entries: the 1-based index of the first pivot <= 0, or None.

    For a symmetric matrix, None means positive definite (every leading minor is positive).
    """
    rows = [[Fraction(float(v)) for v in row] for row in np.asarray(entries)]
    for col, lead_row in enumerate(rows):
        lead = lead_row[col]
        if lead <= 0:
            return col + 1
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / lead
            rows[r] = [a - factor * b for a, b in zip(rows[r], lead_row)]
    return None


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


# ---------------------------------------------------------------------------
# the ball-tree quadrature's grid weighting before subnormal flushing
# ---------------------------------------------------------------------------


def weigh_unflushed(values: np.ndarray, log_factor: np.ndarray):
    """values * exp(log_factor) over its largest magnitude, and the log of that divisor.

    Every entry is kept, however small, subnormal results included.
    """
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(values)) + log_factor
    top = float(np.max(log_mag))
    return np.copysign(np.exp(log_mag - top), values), top
