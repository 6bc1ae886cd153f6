"""Wick (normal-ordered) powers and polynomials of Gaussian variables.

The ordered power :X^k: relative to a variance c^2 is the Hermite-type sum
sum_j (-1)^j k! / (2^j j! (k-2j)!) X^(k-2j) c^(2j); coefficients are exact
integers (computed in big-integer arithmetic and converted once), which keeps
the alternating sums stable for moderate k.  A Wick polynomial :P: is expanded
into plain powers for each cell's variance (``_ordered_monomial_coeffs``) and
evaluated by Horner's rule on those coefficients.  Also here: the triangular
change-of-variance transform between two orderings, a computable pointwise
lower bound for ordered semibounded polynomials, and the exactly summable
L2 discrepancy between two smoothing cutoffs of an ordered power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .model import (
    FieldParams,
    green_regularized,
    green_regularized_increment,
    shell_measure,
)
from .ultrametric import SAME, LatticeSpec

MAX_WICK_POWER = 40
EVAL_BLOCK_VALUES = 2**16  # values per wick_poly_eval block: 512 KiB, which stays in cache


@dataclass(frozen=True)
class WickTable:
    """Integer coefficients w_{k,j} of :X^k: = sum_j w_{k,j} X^(k-2j) c^(2j)."""

    k: int
    coefficients: tuple[int, ...]

    @property
    def floats(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.coefficients)


@lru_cache(maxsize=None)
def wick_coefficients(k: int) -> WickTable:
    """Exact coefficient table for :X^k:; guarded at k <= 40."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k > MAX_WICK_POWER:
        raise ValueError(f"power {k} exceeds the supported maximum {MAX_WICK_POWER}")
    coeffs = tuple(
        (-1) ** j * math.factorial(k) // (2**j * math.factorial(j) * math.factorial(k - 2 * j))
        for j in range(k // 2 + 1)
    )
    return WickTable(k=k, coefficients=coeffs)


def wick_power(x, k: int, variance: float):
    """Value of :x^k: ordered with respect to ``variance`` (arrays broadcast)."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    table = wick_coefficients(k).floats
    total = 0.0
    for j, w in enumerate(table):
        total = total + w * x ** (k - 2 * j) * variance**j
    return total


def wick_unpower(x, k: int, variance: float):
    """Inverse expansion: reconstructs x^k from the ordered powers :x^(k-2j):."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    total = 0.0
    for j, w in enumerate(wick_coefficients(k).coefficients):
        total = total + float(abs(w)) * wick_power(x, k - 2 * j, variance) * variance**j
    return total


def wick_change_of_variance_coeffs(k: int, var_from: float, var_to: float) -> tuple[float, ...]:
    """Coefficients c_j with :X^k:_from = sum_j c_j :X^(k-2j):_to.

    The shift is Phi = var_to - var_from and c_j = k!/(2^j j! (k-2j)!) Phi^j;
    the transform is unit upper triangular in degree, so the leading
    coefficient is preserved and composing with the reverse transform is the
    identity.
    """
    phi = var_to - var_from
    return tuple(float(abs(w)) * phi**j for j, w in enumerate(wick_coefficients(k).coefficients))


def wick_change_of_variance(k: int, var_from: float, var_to: float, x):
    """Value of :x^k:_from assembled from powers ordered w.r.t. ``var_to``."""
    if var_from < 0 or var_to < 0:
        raise ValueError("variances must be nonnegative")
    coeffs = wick_change_of_variance_coeffs(k, var_from, var_to)
    total = 0.0
    for j, c in enumerate(coeffs):
        total = total + c * wick_power(x, k - 2 * j, var_to)
    return total


@dataclass(frozen=True)
class WickPolynomial:
    """Polynomial a_s X^s + ... + a_0 acted on by Wick ordering.

    Instances may have any coefficients (degree-1 test functions are useful);
    the semiboundedness hypotheses (even degree, positive leading coefficient)
    are enforced at the entry points that rely on them.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if len(coeffs) > 1 and coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero; trim trailing zeros")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def require_semibounded(self) -> None:
        if self.degree % 2 != 0:
            raise ValueError(f"degree {self.degree} is odd; a semibounded interaction needs even degree")
        if self.coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive for a semibounded interaction")

    @property
    def coefficient_bound(self) -> float:
        """B = max_j |a_j|."""
        return max(abs(c) for c in self.coeffs)

    def ferromagnetic_form(self) -> tuple["WickPolynomial", float]:
        """Split P = Q - lambda X with Q even and lambda >= 0, or raise.

        This is the single-site shape that makes the interacting measure an
        even Ising ferromagnet (nonpositive pair couplings are checked where
        the lattice enters).
        """
        self.require_semibounded()
        lam = -self.coeffs[1] if self.degree >= 1 else 0.0
        if lam < 0:
            raise ValueError("degree-1 coefficient must be <= 0 (lambda = -a_1 must be nonnegative)")
        for j in range(3, self.degree + 1, 2):
            if self.coeffs[j] != 0.0:
                raise ValueError(f"odd-degree coefficient a_{j} != 0 breaks the even-plus-linear form")
        q_coeffs = list(self.coeffs)
        if self.degree >= 1:
            q_coeffs[1] = 0.0
        return WickPolynomial(tuple(q_coeffs)), lam

    def d_constant(self, g_l1: float) -> float:
        """Scale constant a_s ||g||_1 (1 + max_j (|a_j/a_s| + 1)^(s/(s-j)))."""
        s = self.degree
        a_s = self.coeffs[-1]
        if s == 0:
            return a_s * g_l1
        peak = max((abs(self.coeffs[j] / a_s) + 1.0) ** (s / (s - j)) for j in range(s))
        return a_s * g_l1 * (1.0 + peak)


def _ordered_monomial_coeffs(P: WickPolynomial, variance: float) -> list[float]:
    """Plain-power coefficients of :P(X): at the given ordering variance."""
    out = [0.0] * (P.degree + 1)
    for j, a in enumerate(P.coeffs):
        if a == 0.0:
            continue
        for jj, w in enumerate(wick_coefficients(j).floats):
            out[j - 2 * jj] += a * w * variance**jj
    return out


def wick_poly_cell_bound(P: WickPolynomial, variance: float) -> float:
    """Pointwise lower bound for :P(t): valid for every real t.

    Splitting the leading power evenly across the nonzero intermediate
    monomials and using X^s - c X^j >= -|c|^(s/(s-j)) for even s bounds each
    piece; the constant term passes through exactly.
    """
    P.require_semibounded()
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    s = P.degree
    mono = _ordered_monomial_coeffs(P, variance)
    a_s = mono[s]
    mid = [(r, c) for r, c in enumerate(mono) if 0 < r < s and c != 0.0]
    bound = mono[0]
    if not mid:
        return bound
    n_terms = len(mid)
    drop = 0.0
    for r, c in mid:
        drop += (1.0 / n_terms) * abs(n_terms * c / a_s) ** (s / (s - r))
    return bound - a_s * drop


def wick_poly_lower_bound(P: WickPolynomial, g_l1: float, variance: float) -> float:
    """Deterministic lower bound for :P:(g) with g >= 0 of mass ``g_l1``."""
    if g_l1 < 0:
        raise ValueError("g_l1 must be nonnegative")
    cell = wick_poly_cell_bound(P, variance)
    return g_l1 * min(cell, 0.0)


def wick_poly_eval(P: WickPolynomial, values, g, variance_per_cell):
    """Evaluate :P:(g) = sum_i g_i sum_j a_j :values_i^j: over the cells.

    ``values`` may be a vector (one configuration) or a samples-by-cells
    array; ``g`` and ``variance_per_cell`` are per-cell vectors.  Linear in g
    and equal to the plain polynomial when every variance is zero.  Rows are
    evaluated about EVAL_BLOCK_VALUES values at a time, so Horner's rule runs in
    cache; a row's value does not depend on the blocks.
    """
    values = np.asarray(values, dtype=float)
    eta = values.shape[-1]
    g, mono = _poly_table(P, g, variance_per_cell, eta)
    rows = values.reshape(-1, eta)
    out = np.empty(len(rows))
    _poly_rows(mono, g, rows, out)
    return out.reshape(values.shape[:-1])[()]


def _poly_table(P: WickPolynomial, g, variance_per_cell, eta: int):
    """g as a float vector, checked against eta cells, and the cells-by-powers table
    of :P:'s plain-power coefficients at each cell's variance."""
    g = np.asarray(g, dtype=float)
    variances = np.asarray(variance_per_cell, dtype=float)
    if g.shape != (eta,) or variances.shape != (eta,):
        raise ValueError(
            f"length mismatch: values have {eta} cells, g has {g.shape}, variances {variances.shape}"
        )
    if np.any(variances < 0):
        raise ValueError("variances must be nonnegative")
    mono = [_ordered_monomial_coeffs(P, v) for v in variances.tolist()]
    return g, np.array(mono).reshape(eta, P.degree + 1)  # (0, degree + 1) with no cells


def _poly_rows(mono: np.ndarray, g: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """:P:(g) of each row of a samples-by-cells array into ``out``, from ``_poly_table``.

    A cell of weight g = 0 adds 0, even where its value is infinite: its column is zeroed
    before the weighted sum, which keeps the summation order of every row.
    """
    step = max(1, EVAL_BLOCK_VALUES // max(1, rows.shape[1]))
    powers = mono.T[::-1]  # Horner's rule from the top coefficient
    adds = mono.any(axis=0)[::-1].tolist()  # an all-zero power adds nothing
    weightless = (g == 0).nonzero()[0]  # g is one value per cell
    buffer = np.empty((min(step, len(rows)), rows.shape[1]))
    for lo in range(0, len(rows), step):  # a cache-sized block at a time
        block = rows[lo : lo + step]
        per_cell = buffer[: len(block)]
        per_cell[...] = powers[0]
        for c, add in zip(powers[1:], adds[1:]):
            per_cell *= block
            if add:
                per_cell += c
        if weightless.size:
            per_cell[:, weightless] = 0.0
        # not `@`: a long gemv wakes OpenBLAS's helper thread, which then spins
        np.einsum("ij,j->i", per_cell, g, out=out[lo : lo + step])


def wick_l2_distance(
    params: FieldParams,
    kappa1: int,
    kappa2: int,
    k: int,
    lattice: LatticeSpec,
    g,
    tol: float = 1e-12,
) -> float:
    """Squared L2 distance between the kappa1- and kappa2-smoothed :phi^k:(g).

    Equals k! [ (g, E_k1^k * g) - (g, E_k2^k * g) ] for a level-l lattice
    function g.  Cross-cell pairs contribute q^(2l) times the difference of
    k-th powers of the smoothed Green functions at the pair distance; the
    same-cell term is a shell series that becomes exactly constant below
    scale q^(-kappa1), so the whole computation is a finite sum evaluated in
    difference form: no difference of two Green series is taken.  The sum over
    the shells still cancels once kappa2 is well above -l; at q = 5, kappa2 = 10
    it keeps about 8 digits.  The one-entry case of :func:`wick_l2_decay`.
    """
    return float(wick_l2_decay(params, kappa1, [kappa2], [k], lattice, g, tol)[0, 0])


def wick_l2_decay(
    params: FieldParams,
    kappa1: int,
    kappa2_values,
    orders,
    lattice: LatticeSpec,
    g,
    tol: float = 1e-12,
) -> np.ndarray:
    """:func:`wick_l2_distance` for every power k in ``orders`` (rows) and
    coarser cutoff kappa2 in ``kappa2_values`` (columns).

    Each smoothed Green value E_kappa(d), each increment E_kappa1(d) -
    E_kappa2(d) and the class weights of g are computed once per call, and each
    entry is summed in the same order as a lone distance.
    """
    kappa2_values = list(kappa2_values)
    if any(kappa1 < kappa2 for kappa2 in kappa2_values):
        raise ValueError("kappa1 must be >= kappa2")
    g = np.asarray(g, dtype=float)
    if g.shape != (lattice.eta,):
        raise ValueError(f"g must have one value per cell ({lattice.eta}), got {g.shape}")
    l, amb = lattice.cell_level, lattice.region.ambient_level
    q = params.q_float

    @cache
    def green(kappa, d) -> float:
        return green_regularized(params, kappa, d, tol)

    @cache
    def increment(kappa2, d) -> float:
        return green_regularized_increment(params, kappa1, kappa2, d)

    def power_diff(kappa2, k, d) -> float:
        e1, e2 = green(kappa1, d), green(kappa2, d)
        return increment(kappa2, d) * sum(e1**a * e2 ** (k - 1 - a) for a in range(k))

    # cross-cell pairs in row-major upper-triangle order, grouped by distance class
    # c (distance amb - c), nearest class first
    classes = lattice.tree.classes()  # first, so it holds the cell cap
    upper = np.triu(np.ones_like(classes, dtype=bool), 1)
    classes = classes[upper]
    weights = np.bincount(classes, weights=np.outer(2.0 * g, g)[upper])
    pairs = [(weights[c], amb - int(c)) for c in np.flatnonzero(np.bincount(classes))[::-1]]
    g_sq = float(np.sum(g * g))
    m0 = min(l, -kappa1)

    out = np.zeros((len(orders), len(kappa2_values)))
    for i, k in enumerate(orders):
        for j, kappa2 in enumerate(kappa2_values):
            if kappa2 == kappa1:
                continue
            total = 0.0
            for weight, d in pairs:
                total += weight * q ** (2 * l) * power_diff(kappa2, k, d)
            # same-cell term: exact ball value below the finer cutoff, shells above
            c1, c2, inc = green(kappa1, SAME), green(kappa2, SAME), increment(kappa2, -kappa1)
            same = q**m0 * inc * sum(c1**a * c2 ** (k - 1 - a) for a in range(k))
            for m in range(m0 + 1, l + 1):
                same += shell_measure(params, m) * power_diff(kappa2, k, m)
            total += g_sq * q**l * same
            out[i, j] = max(math.factorial(k) * total, 0.0)
    return out
