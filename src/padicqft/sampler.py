"""Gaussian lattice sampling and estimation of interacting-field moments.

The interacting measure is the lattice Gaussian (covariance from the
region-restricted operator) reweighted by exp(-:P:(g)), with the Wick
ordering taken against caller-supplied per-cell variances (the free cell
variance in the standard mixed construction).  The two estimation routes
still integrate independently: self-normalized importance sampling from the
exact Gaussian (with batch-means errors and effective-sample-size
reporting), and, for up to four cells, a deterministic quadrature that
serves as the oracle tier.  The precision matrix depends on a cell pair only
through its distance class, so the Gaussian weight factorizes over the
q-ary ball tree: each moment is an exact sum over a uniform grid, computed
as a chain of one-dimensional convolutions from the cells up to the root
(the hierarchical-model structure), and checked by doubling the grid
resolution.  A moment is an index tuple over linear forms of the field.
Every Monte Carlo estimate comes from one draw, ``_mc_draw``, whose weights
are shifted by the largest log weight, so they cannot overflow.  The weight
reads the field only on supp g and a moment only on the cells its forms or
indices name, so a draw covers just those cells, from their marginal Gaussian:
supp g for Z, supp g and supp h for a Schwinger function, and every cell a
Griffiths moment indexes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import (
    CovarianceMatrix,
    NotPositiveDefiniteError,
    _class_couplings,
    covariance_matrix,
    precision_matrix,
    sign_structure_check,
)
from .model import FieldParams, free_cell_variance
from .reporting import CheckReport, Margins
from .ultrametric import Region, _shared_indices
from .wick import EVAL_BLOCK_VALUES, WickPolynomial, _poly_rows, _poly_table, wick_poly_eval

MIN_MC_SAMPLES = 1_000
MC_BATCHES = 30
# OpenBLAS (interface/gemm.c) keeps a dgemm with m n k <= SMP_THRESHOLD_MIN *
# GEMM_MULTITHREAD_THRESHOLD on the calling thread: 65536 * 4 in its default build,
# as in numpy's bundled OpenBLAS 0.3.31, measured in BENCH_15.json; a BLAS built otherwise
# may thread these blocks again, or leave them smaller than it needs.
MC_PRODUCT_BLOCK = 2**18
LOW_ESS_THRESHOLD = 10.0
QUADRATURE_MAX_CELLS = 4
MAX_QUADRATURE_ORDER = 512  # cap on the doubled order, which bounds the grid and the run time
QUADRATURE_WINDOW = 12.0  # grid half-width in standard deviations of the widest cell
QUADRATURE_TOL = 1e-6  # order-doubling agreement gate
_LOG_FLOAT_MIN, _LOG_FLOAT_MAX = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
_LOG_KEEP = 0.5 * _LOG_FLOAT_MIN  # 2**-511 of the peak: a product of two kept weights is normal


class QuadratureError(RuntimeError):
    """Raised when doubling the quadrature order fails to reproduce the result."""


@dataclass(frozen=True)
class SchwingerEstimate:
    value: float
    std_error: float
    n_samples: int
    method: str  # "mc" | "quadrature"
    ess: float | None = None
    low_ess: bool = False
    partition: float | None = None  # Z from the same converged quadrature run


@dataclass(frozen=True)
class SourceSpec:
    """Coupling g (per cell, finite and nonnegative) and the test-function list h.

    h entries enter moments as phi(h) = sum_i h_i t_i; they must be finite, and
    are only required to be nonnegative where a correlation inequality demands it.
    """

    g: np.ndarray
    h_list: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("coupling g must be finite")
        if not np.all(g >= 0):
            raise ValueError("coupling g must be nonnegative")
        object.__setattr__(self, "g", g)
        hs = tuple(np.asarray(h, dtype=float) for h in self.h_list)
        for i, h in enumerate(hs):
            if h.shape != g.shape:
                raise ValueError("every h must have the same cell count as g")
            if not np.all(np.isfinite(h)):
                raise ValueError(f"h[{i}] must be finite")
        object.__setattr__(self, "h_list", hs)

    def require_nonnegative_h(self) -> None:
        for i, h in enumerate(self.h_list):
            if not np.all(h >= 0):
                raise ValueError(f"h[{i}] has negative entries; the inequality hypotheses need h >= 0")


def _as_variances(variances, eta: int) -> np.ndarray:
    v = np.asarray(variances, dtype=float)
    if v.ndim == 0:
        v = np.full(eta, float(v))
    if v.shape != (eta,):
        raise ValueError(f"variances must be scalar or length {eta}")
    return v


def _batch_sums(x: np.ndarray) -> np.ndarray:
    """Sums of x over MC_BATCHES consecutive equal batches; a remainder is left out."""
    size = len(x) // MC_BATCHES
    return x[: MC_BATCHES * size].reshape(MC_BATCHES, size).sum(axis=1)


def _batch_se(num: np.ndarray, den_sums: np.ndarray | None = None) -> float:
    """Batch-means standard error of the ratio sum(num) / sum(den), given den's
    ``_batch_sums``; without them, of the plain mean of num.  A batch whose den
    sum is not positive contributes 0."""
    sums = _batch_sums(num)
    if den_sums is None:
        den_sums = np.full(MC_BATCHES, float(len(num) // MC_BATCHES))
    vals = np.divide(sums, den_sums, out=np.zeros(MC_BATCHES), where=den_sums > 0)
    return float(np.std(vals, ddof=1) / math.sqrt(MC_BATCHES))


def _cholesky(matrix: np.ndarray, name: str) -> np.ndarray:
    """The lower Cholesky factor.  numpy does not report where a factorization
    fails, so a failure bisects for the smallest leading block that does not factor."""
    matrix = np.asarray_chkfinite(matrix)
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        factors, fails = 0, len(matrix)  # leading block sizes that do and do not factor
    while fails - factors > 1:
        mid = (factors + fails) // 2
        try:
            np.linalg.cholesky(matrix[:mid, :mid])
            factors = mid
        except np.linalg.LinAlgError:
            fails = mid
    raise NotPositiveDefiniteError(name, fails)


def _check_cells(cells, eta: int) -> None:
    if any(not 0 <= i < eta for i in cells):
        raise ValueError(f"a cell the estimate reads is outside 0..{eta - 1}")


def _check_source(source: SourceSpec, eta: int) -> None:
    if source.g.shape != (eta,):
        raise ValueError(f"the source has shape {source.g.shape}, the covariance matrix {eta} cells")


def _mc_draw(M, P, source, variances, seed, n_samples, cells=None):
    """An exact Gaussian draw t = z L^T on the cells S an estimate reads, its log
    weights -:P:(g), the weights shifted by their maximum (so none overflows), that
    maximum, and S: t's column j is the j-th cell of S.

    S is supp g and ``cells`` (the cells the estimate reads besides g; None for
    every cell), k cells in increasing order, so t is drawn from the marginal
    N(0, M_SS) with k normals per sample.  L is the leading k x k block of the
    Cholesky factor of M with S first, then the rest, which is the factor of M_SS.
    Factoring the whole of M keeps the positive-definiteness gate of every cell; a
    failure names the cell where the permuted factorization stops.  With every cell
    drawn the order is the identity, and L is the factor of M.  The factor is taken
    per draw: its O(eta^3 / 3) cost is at most about that of an n_samples * eta^2
    product, as n_samples >= MIN_MC_SAMPLES, but may exceed the n_samples * k^2
    product of a draw on fewer cells.
    The draw is one pass over sample blocks of about EVAL_BLOCK_VALUES values: each
    fills one reused block of normals z, k per sample, forms its rows of t and
    evaluates their -:P:(g) while they are in cache, so the draw holds t and one
    block, never a whole z.  The normals do not depend on the blocks, being one
    stream in row order.  The product runs in row blocks of at most MC_PRODUCT_BLOCK
    multiply-adds, starting at the same rows whatever the sample block, so t's bytes
    do not depend on it either; OpenBLAS runs each on the calling thread, and the
    draw costs one core.  Above 512 drawn cells one row exceeds MC_PRODUCT_BLOCK, and
    the product is formed once per sample block instead of as one-row products,
    which OpenBLAS threads anyway.
    """
    P.require_semibounded()
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    eta = M.lattice.eta
    _check_source(source, eta)
    if cells is None:
        drawn = np.arange(eta)
    else:
        _check_cells(cells, eta)
        drawn = np.array(sorted(set(np.flatnonzero(source.g).tolist()).union(cells)), dtype=int)
    order = np.concatenate([drawn, np.setdiff1d(np.arange(eta), drawn)])
    try:
        factor = _cholesky(M.entries[np.ix_(order, order)], "covariance matrix")
    except NotPositiveDefiniteError as err:
        raise NotPositiveDefiniteError("covariance matrix", int(order[err.pivot - 1]) + 1) from None
    k = len(drawn)
    lower = factor[:k, :k]
    g, mono = _poly_table(P, source.g[drawn], _as_variances(variances, eta)[drawn], k)
    width = max(k, 1)  # a draw of no cells still fills its weights block by block
    rows = MC_PRODUCT_BLOCK // width**2 or max(1, EVAL_BLOCK_VALUES // width)
    block = rows * max(1, EVAL_BLOCK_VALUES // (rows * width))  # whole product blocks
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z = np.empty((min(block, n_samples), k))
    t = np.empty((n_samples, k))
    minus_v = np.empty(n_samples)
    for lo in range(0, n_samples, block):
        z_b = z[: n_samples - lo]
        t_b, v_b = t[lo : lo + len(z_b)], minus_v[lo : lo + len(z_b)]
        rng.standard_normal(out=z_b)
        for r in range(0, len(z_b), rows):
            np.matmul(z_b[r : r + rows], lower.T, out=t_b[r : r + rows])
        _poly_rows(mono, g, t_b, v_b)
        np.negative(v_b, out=v_b)
    top = float(minus_v.max())
    w = minus_v - top
    return t, minus_v, np.exp(w, out=w), top, drawn


def effective_sample_size(weights: np.ndarray) -> float:
    s = weights.sum()
    # not np.dot: a long dot wakes OpenBLAS's helper thread, which then spins
    return float(s * s / np.sum(weights * weights))


def _mc_moments(draw, forms, moments):
    """Self-normalized moments of a ``_mc_draw``, their batch-means errors, and the ESS.

    A moment indexes the forms phi(h) (h in ``forms``), or cells if ``forms`` is None;
    the draw must cover every cell they read.  A moment's product is taken left to
    right, so a moment that starts as the one before it reuses the products of that
    prefix; only the current chain is kept."""
    t, _, w, _, drawn = draw
    wsum = w.sum()
    w_sums = _batch_sums(w)
    # not `t @ h`: a long gemv wakes OpenBLAS's helper thread, which then spins
    if forms is None:
        columns = np.ascontiguousarray(t.T)  # a strided column takes twice as long to read
        column_of = {cell: j for j, cell in enumerate(drawn.tolist())}
        moments = [tuple(column_of[i] for i in moment) for moment in moments]
    else:
        columns = [np.einsum("ij,j->i", t, h[drawn]) for h in forms]
    vals, ses = [], []
    chain, last = [], ()  # chain[k]: the product of the columns last[0..k]
    for moment in moments:
        k = 0
        while k < min(len(moment), len(chain)) and moment[k] == last[k]:
            k += 1
        del chain[k:]
        for i in moment[k:]:
            chain.append(chain[-1] * columns[i] if chain else columns[i])
        last = moment
        num = chain[-1] * w if chain else w
        vals.append(num.sum() / wsum)
        ses.append(_batch_se(num, w_sums))
    return np.array(vals), np.array(ses), effective_sample_size(w)


def _mc_schwinger(draw, source: SourceSpec) -> SchwingerEstimate:
    """The Schwinger estimate of ``schwinger_mc`` from a ``_mc_draw``."""
    moment = tuple(range(len(source.h_list)))
    vals, ses, ess = _mc_moments(draw, source.h_list, [moment])
    return SchwingerEstimate(
        value=float(vals[0]),
        std_error=float(ses[0]),
        n_samples=len(draw[0]),
        method="mc",
        ess=ess,
        low_ess=not (ess >= LOW_ESS_THRESHOLD),  # a NaN ESS counts as low
    )


def _mc_partition(draw) -> SchwingerEstimate:
    """The Z estimate of ``partition_function_mc`` from a ``_mc_draw``."""
    _, _, w, top, _ = draw
    mean = float(w.mean())
    log_z = math.log(mean) + top
    if top > _LOG_FLOAT_MAX or log_z < _LOG_FLOAT_MIN:  # a NaN draw gives a low-ESS estimate
        raise OverflowError(f"log Z = {log_z:.6g}, largest log weight {top:.6g}: out of float range")
    scale = math.exp(top)
    ess = effective_sample_size(w)
    return SchwingerEstimate(
        value=mean * scale,
        std_error=_batch_se(w) * scale,
        n_samples=len(w),
        method="mc",
        ess=ess,
        low_ess=not (ess >= LOW_ESS_THRESHOLD),  # a NaN ESS counts as low
    )


def schwinger_mc(
    M: CovarianceMatrix,
    P: WickPolynomial,
    source: SourceSpec,
    seed: int,
    n_samples: int,
    variances,
) -> SchwingerEstimate:
    """Self-normalized estimate of <phi(h_1)...phi(h_r)>_interacting.

    The empty product (r = 0) returns exactly 1 by normalization.  Standard
    errors come from 30 batch means; an effective sample size below 10 sets
    the low_ess flag rather than failing silently.  The draw covers supp g and
    supp h only.
    """
    read = {i for h in source.h_list for i in np.flatnonzero(h).tolist()}
    return _mc_schwinger(_mc_draw(M, P, source, variances, seed, n_samples, read), source)


def partition_function_mc(
    M: CovarianceMatrix,
    P: WickPolynomial,
    source: SourceSpec,
    seed: int,
    n_samples: int,
    variances,
) -> SchwingerEstimate:
    """Estimate of Z = <exp(-:P:(g))> under the lattice Gaussian, from max-shifted weights.

    The draw covers supp g only.  Raises OverflowError, giving log Z, when Z or its
    largest weight leaves the normal float range."""
    return _mc_partition(_mc_draw(M, P, source, variances, seed, n_samples, ()))


def _weigh(values: np.ndarray, log_factor: np.ndarray):
    """values * exp(log_factor) divided by its largest magnitude, and the log of that divisor.

    Entries below 2**-511 of the largest (log magnitude under ``_LOG_KEEP``) become
    signed zeros, so no product in a later convolution is subnormal; the length stays,
    because ``np.convolve``'s summation order depends on it.  A NaN stays NaN.
    """
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(values)) + log_factor
    top = float(np.max(log_mag))
    log_mag -= top
    log_mag[log_mag < _LOG_KEEP] = -np.inf
    return np.copysign(np.exp(log_mag), values), top


def _flush(arr: np.ndarray) -> np.ndarray:
    """arr with its entries below 2**-511 of its largest magnitude set to zero, in place."""
    arr[np.abs(arr) < math.exp(_LOG_KEEP) * np.max(np.abs(arr))] = 0.0
    return arr


def _cell_monomials(moment, forms, eta: int) -> dict:
    """A product of linear forms expanded multilinearly into {cell powers: coefficient}."""
    rows = [np.eye(eta)[k] if forms is None else forms[k] for k in moment]
    terms: dict = {}
    for cells in itertools.product(*(np.flatnonzero(h) for h in rows)):
        powers = tuple(np.bincount(np.array(cells, dtype=int), minlength=eta).tolist())
        terms[powers] = terms.get(powers, 0.0) + math.prod(h[i] for h, i in zip(rows, cells))
    return terms


def _tree_pass(M, P, source, variances, forms, moments, order):
    """Moments and Z summed exactly over a uniform grid by convolutions up the ball tree.

    t^T N t = D' sum t_i^2 + sum over tree nodes a of beta_depth(a) (sum of t under a)^2
    (``_class_couplings``).  A leaf is exp(-D' t^2 / 2 - g_i :P:(t)) t^a_i; a node
    convolves its children, read from the tree's node table in cell order, and
    multiplies by exp(-beta s^2 / 2).  Each array is kept at max |.| = 1 with its
    log scale alongside.  Spacing 4 / (order sqrt D'), over +-12 sd of the widest
    cell.  Every array ``np.convolve`` reads has its entries
    below 2**-511 of its peak zeroed (``_weigh``, and ``_flush`` on a product of
    three or more children), so no product in it is subnormal, which is many times
    slower; no array is trimmed, since a shorter one changes the summation order.
    """
    N = M.precision
    eta, tree = M.lattice.eta, M.lattice.tree
    bounds = [b.tolist() for b in tree.bounds]
    firsts = [f.tolist() for f in tree.firsts]
    beta, d_prime = _class_couplings(N)
    step = 4.0 / (order * math.sqrt(d_prime))
    half = math.ceil(QUADRATURE_WINDOW * math.sqrt(float(np.max(np.diag(M.entries)))) / step)
    x = step * np.arange(-half, half + 1)
    v = _as_variances(variances, eta)
    log_leaf = [
        -0.5 * d_prime * x * x - wick_poly_eval(P, x[:, None], source.g[i : i + 1], v[i : i + 1])
        for i in range(eta)
    ]
    memo: dict = {}

    def subtree(depth, k, powers):
        """(array, log scale) of the k-th node at ``depth``, memoized."""
        lo, hi = bounds[depth][k], bounds[depth][k + 1]
        key = (depth, k, powers[lo:hi])
        if key in memo:
            return memo[key]
        if depth == tree.leaf:
            memo[key] = _weigh(x ** powers[lo], log_leaf[lo])
            return memo[key]
        arr, scale = np.ones(1), 0.0
        for n, child in enumerate(range(firsts[depth][k], firsts[depth][k + 1])):
            c_arr, c_scale = subtree(depth + 1, child, powers)
            if n > 1:  # a product of two or more children, not yet weighed
                arr = _flush(arr)
            arr, scale = np.convolve(arr, c_arr), scale + c_scale
        s = step * (np.arange(len(arr)) - len(arr) // 2)
        arr, top = _weigh(arr, -0.5 * beta[depth] * s * s)
        memo[key] = arr, scale + top
        return memo[key]

    base, base_scale = subtree(0, 0, (0,) * eta)
    base_sum = float(base.sum())
    vals = np.zeros(len(moments))
    with np.errstate(over="ignore"):
        for s_i, moment in enumerate(moments):
            for powers, coeff in _cell_monomials(moment, forms, eta).items():
                arr, scale = subtree(0, 0, powers)
                vals[s_i] += coeff * (float(arr.sum()) / base_sum) * np.exp(scale - base_scale)
        sign, logdet = np.linalg.slogdet(N.entries)
        log_z = base_scale + math.log(base_sum) + eta * math.log(step / math.sqrt(2.0 * math.pi))
        z = float(np.exp(log_z + 0.5 * logdet)) if sign > 0 else math.nan
    # subtree holds itself through its closure; without this the cycle keeps the
    # memo's arrays until the next garbage collection, and peak RSS creeps
    del subtree
    if not (math.isfinite(z) and np.all(np.isfinite(vals))):
        raise QuadratureError(f"order {order}: Z = {z!r} or a moment is not finite")
    return vals, z, len(x) ** eta


def _quadrature_converged(M, P, source, variances, forms, moments, order):
    P.require_semibounded()
    eta = M.lattice.eta
    _check_source(source, eta)
    if eta > QUADRATURE_MAX_CELLS:
        raise ValueError(f"quadrature supports at most {QUADRATURE_MAX_CELLS} cells, got {eta}")
    if 2 * order > MAX_QUADRATURE_ORDER:
        raise ValueError(
            f"order {order} too large: the doubled grid exceeds the maximum order {MAX_QUADRATURE_ORDER}"
        )
    vals1, z1, _ = _tree_pass(M, P, source, variances, forms, moments, order)
    vals2, z2, points = _tree_pass(M, P, source, variances, forms, moments, 2 * order)
    drifts = [abs(z2 - z1) / max(1.0, abs(z2))]
    drifts += [abs(b - a) / max(1.0, abs(b)) for a, b in zip(vals1, vals2)]
    worst = float(np.max(drifts))  # NaN propagates, and fails the gate below
    if not (worst <= QUADRATURE_TOL):
        raise QuadratureError(
            f"order {order} -> {2 * order} changed a result by {worst:.3e} (> {QUADRATURE_TOL:.1e})"
        )
    return vals2, z2, points


def schwinger_quadrature(
    M: CovarianceMatrix,
    P: WickPolynomial,
    source: SourceSpec,
    variances,
    order: int = 40,
) -> SchwingerEstimate:
    """Deterministic value of the normalized moment, by the exact ball-tree recursion."""
    moment = tuple(range(len(source.h_list)))
    vals, z, pts = _quadrature_converged(M, P, source, variances, source.h_list, [moment], order)
    return SchwingerEstimate(
        value=float(vals[0]), std_error=0.0, n_samples=pts, method="quadrature", partition=float(z)
    )


def partition_function_quadrature(
    M: CovarianceMatrix,
    P: WickPolynomial,
    source: SourceSpec,
    variances,
    order: int = 40,
) -> SchwingerEstimate:
    est = schwinger_quadrature(M, P, SourceSpec(g=source.g), variances, order)  # Z needs no h
    return replace(est, value=est.partition, partition=None)


def default_moment_sets(eta: int):
    """Deterministic singleton and pair moment selections for the inequality checks."""
    singles = [(i,) for i in range(eta)]
    if eta <= 8:
        pair_sites = [(i, j) for i in range(eta) for j in range(i, eta)]
    else:
        pair_sites = [(i, (i + 1) % eta) for i in range(eta)]
        pair_sites += [(i, (i + eta // 2) % eta) for i in range(0, eta, max(1, eta // 8))]
    firsts = singles + [tuple(sorted(p)) for p in pair_sites]
    seconds = [((i,), (j,)) for i, j in pair_sites]
    seconds += [((i, i), (j, j)) for i, j in pair_sites]
    return firsts, seconds


def griffiths_check(
    M: CovarianceMatrix,
    P: WickPolynomial,
    source: SourceSpec,
    method: str,
    variances,
    seed: int = 0,
    n_samples: int = 100_000,
    multi_indices=None,
    pairs=None,
    tol: float = 1e-8,
    order: int = 128,
) -> CheckReport:
    """First and second correlation inequalities for the even-ferromagnet lattice.

    Hypotheses are validated up front (even-plus-linear polynomial with
    lambda >= 0, nonnegative g and h, nonpositive couplings); violations
    raise rather than report.  Quadrature checks are strict to ``tol``; Monte
    Carlo allows three standard errors.
    """
    P.ferromagnetic_form()
    source.require_nonnegative_h()
    signs = sign_structure_check(M.precision)
    if not signs.passed:
        raise ValueError(f"coupling sign hypothesis violated: {signs.violations}")
    eta = M.lattice.eta
    if multi_indices is None or pairs is None:
        d_firsts, d_seconds = default_moment_sets(eta)
        multi_indices = d_firsts if multi_indices is None else multi_indices
        pairs = d_seconds if pairs is None else pairs

    needed = sorted({tuple(sorted(m)) for m in multi_indices}
                    | {tuple(sorted(a + b)) for a, b in pairs}
                    | {tuple(sorted(m)) for pair in pairs for m in pair})
    pos = {m: i for i, m in enumerate(needed)}
    read = {i for m in needed for i in m}
    _check_cells(read, eta)  # quadrature would wrap -1 to the last cell

    if method == "quadrature":
        vals, _, _ = _quadrature_converged(M, P, source, variances, None, needed, order)
        ses = np.zeros(len(needed))
    elif method == "mc":
        draw = _mc_draw(M, P, source, variances, seed, n_samples, read)
        vals, ses, _ = _mc_moments(draw, None, needed)
    else:
        raise ValueError(f"unknown method {method!r}")

    tally = Margins("griffiths_inequalities")
    for m in multi_indices:
        key = tuple(sorted(m))
        value = float(vals[pos[key]])
        allowance = tol if method == "quadrature" else 3.0 * float(ses[pos[key]])
        tally.add(value + allowance, lambda: f"first inequality: <t^{key}> = {value:.6g} < 0")
    for a, b in pairs:
        ka, kb, kab = tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(a + b))
        diff = float(vals[pos[kab]] - vals[pos[ka]] * vals[pos[kb]])
        if method == "quadrature":
            allowance = tol
        else:
            allowance = 3.0 * float(
                math.sqrt(ses[pos[kab]] ** 2 + (vals[pos[ka]] * ses[pos[kb]]) ** 2
                          + (vals[pos[kb]] * ses[pos[ka]]) ** 2)
            )
        tally.add(diff + allowance, lambda: f"second inequality: pair {a},{b} "
                  f"correlation gap {diff:.6g} < 0")
    return tally.report()


@dataclass(frozen=True)
class RegionComparison:
    """Schwinger values on nested regions and their ordering margin."""

    small: SchwingerEstimate
    big: SchwingerEstimate
    margin: float
    allowance: float
    passed: bool

    def report(self, name: str = "schwinger_monotonicity") -> CheckReport:
        violations = ()
        if not self.passed:
            violations = (
                f"S_small = {self.small.value:.8g} exceeds S_big = {self.big.value:.8g}",
            )
        return CheckReport(name, self.passed, self.margin + self.allowance, violations)


def monotonicity_experiment(
    pi: Region,
    pi_prime: Region,
    l: int,
    params: FieldParams,
    P: WickPolynomial,
    source: SourceSpec,
    method: str,
    seed: int = 0,
    n_samples: int = 100_000,
    order: int = 40,
    tol: float = 1e-8,
) -> RegionComparison:
    """Schwinger moments must not decrease when the region is extended.

    g and the h's live on the cells of pi and are extended by zero to
    pi_prime (per-cell data of pi_prime length is accepted when it vanishes
    off the shared cells).  The Wick-ordering variance is the free cell
    variance, identical for both regions.
    """
    lat, lat_prime, idx = _shared_indices(pi, pi_prime, l)

    def extend(vec: np.ndarray, name: str) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape == (lat.eta,):
            out = np.zeros(lat_prime.eta)
            out[idx] = vec
            return out
        if vec.shape == (lat_prime.eta,):
            mask = np.ones(lat_prime.eta, dtype=bool)
            mask[idx] = False
            if np.any(vec[mask] != 0):
                raise ValueError(f"{name} is supported outside the smaller region")
            return vec
        raise ValueError(f"{name} must have {lat.eta} or {lat_prime.eta} entries")

    src_big = SourceSpec(  # first: extend checks the lengths
        g=extend(source.g, "g"), h_list=tuple(extend(h, "h") for h in source.h_list)
    )
    g_small = source.g if source.g.shape == (lat.eta,) else np.asarray(source.g)[idx]
    src_small = SourceSpec(g=g_small, h_list=tuple(
        h if h.shape == (lat.eta,) else h[idx] for h in source.h_list))
    var = free_cell_variance(params, l)
    m_small = covariance_matrix(precision_matrix(lat, params))
    m_big = covariance_matrix(precision_matrix(lat_prime, params))

    if method == "quadrature":
        s_small = schwinger_quadrature(m_small, P, src_small, var, order)
        s_big = schwinger_quadrature(m_big, P, src_big, var, order)
        allowance = tol
    elif method == "mc":
        seeds = np.random.SeedSequence(seed).spawn(2)
        s_small = schwinger_mc(m_small, P, src_small, seed, n_samples, var)
        s_big = schwinger_mc(m_big, P, src_big, int(seeds[1].generate_state(1)[0]), n_samples, var)
        allowance = 3.0 * math.sqrt(s_small.std_error**2 + s_big.std_error**2)
    else:
        raise ValueError(f"unknown method {method!r}")
    margin = s_big.value - s_small.value
    return RegionComparison(
        small=s_small, big=s_big, margin=margin, allowance=allowance, passed=margin >= -allowance
    )


@dataclass(frozen=True)
class PartitionStabilityResult:
    """Partition-function estimates under coupling rescaling, with diagnostics."""

    rho: tuple[float, ...]
    estimates: tuple[SchwingerEstimate, ...]
    identity_slack: tuple[float, ...]
    tail_thresholds: tuple[float, ...]
    tail_probabilities: tuple[float, ...]
    passed: bool

    def report(self) -> CheckReport:
        worst = np.min(
            [e.ess if e.ess is not None else math.inf for e in self.estimates]
            + list(self.identity_slack)
        )
        violations = () if self.passed else ("partition estimate degenerate or inconsistent",)
        return CheckReport("partition_stability", self.passed, float(worst), violations)


def partition_stability(
    M: CovarianceMatrix,
    P: WickPolynomial,
    source: SourceSpec,
    variances,
    rho_list=(1.0, 2.0, 4.0),
    seed: int = 0,
    n_samples: int = 50_000,
    ess_threshold: float = 100.0,
    tail_kappas: int = 6,
) -> PartitionStabilityResult:
    """Z(rho g) stays finite with healthy weights for every requested rho.

    An overflowing Z(rho g) raises OverflowError.  Also cross-checks the
    norm-scaling identity: the rho-th moment of the rho = 1 weights estimates
    Z(rho g) independently of its own run; the slack is 3 combined standard
    errors minus the gap.  A correct program fails this two-sided test by
    chance: on one cell (g = 1, rho = 1, 2, 4, 60 000 samples) on 6 of seeds
    0-399, 1.5%.  A tail histogram of -:P:(g) is included for inspection.
    """
    P.require_semibounded()
    eta = M.lattice.eta
    v = _as_variances(variances, eta)
    base_seed = np.random.SeedSequence(seed)
    seeds = base_seed.spawn(len(rho_list) + 1)
    seed1 = int(seeds[0].generate_state(1)[0])
    _, minus_v1, w1, top1, _ = _mc_draw(M, P, source, v, seed1, n_samples, ())  # on supp g

    estimates = []
    slacks = []
    ok = True
    for r_i, rho in enumerate(rho_list):
        scaled = SourceSpec(g=np.asarray(source.g) * rho, h_list=())
        est = partition_function_mc(
            M, P, scaled, int(seeds[r_i + 1].generate_state(1)[0]), n_samples, v
        )
        estimates.append(est)
        if not (math.isfinite(est.value) and (est.ess or 0.0) >= ess_threshold):
            ok = False
        # moment of the rho=1 weights targets the same Z(rho g)
        wp = w1**rho
        scale = math.exp(rho * top1)
        gap = abs(float(wp.mean()) * scale - est.value)
        combined = math.sqrt((_batch_se(wp) * scale) ** 2 + est.std_error**2)
        slack = 3.0 * combined - gap
        slacks.append(slack)
        if not (slack >= 0):
            ok = False

    s = P.degree
    positive = minus_v1[minus_v1 > 0]
    b = float(np.quantile(positive, 0.9)) if positive.size else 1.0
    thresholds = tuple(b * kk ** (s / 2.0) for kk in range(1, tail_kappas + 1))
    probs = tuple(float(np.mean(minus_v1 > thr)) for thr in thresholds)
    return PartitionStabilityResult(
        rho=tuple(float(r) for r in rho_list),
        estimates=tuple(estimates),
        identity_slack=tuple(slacks),
        tail_thresholds=thresholds,
        tail_probabilities=probs,
        passed=ok,
    )
