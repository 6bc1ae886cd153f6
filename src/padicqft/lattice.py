"""Finite ball-lattice approximation: precision and covariance matrices.

On the level-l cells of a region, the restricted operator has an exactly
computable matrix in the orthonormal basis of normalized cell indicators:
the coupling between two cells is a single-shell value of the jump kernel
(the kernel is constant on an ultrametric ball), and the diagonal is the
mass term plus a geometric-series complement integral.  Both depend on a pair
only through its distance class (the cells' common-prefix length, amb - l on
the diagonal), so the precision entries, the rows the class check expects and
the free-covariance bound are each one table per class, spread over the cell
pairs by the block fill of the lattice's ball tree (``LatticeSpec.tree``, one per
lattice; a matrix holds no tree of its own).  The same structure writes
N = D' I + sum over tree nodes a of beta_depth(a) 1_a 1_a^T, so the covariance
is inverted by one leaf-to-root Sherman-Morrison pass, the classical inverse of
an ultrametric matrix (Martinez, Michon and San Martin, SIAM J. Matrix Anal.
Appl. 15, 1994).  Below the region balls the nodes of a depth are alike, so the
pass keeps one scalar per depth there, and M is a ball-tree fill too: one value
per ball pair and per (ball, depth) block.  Every row of a fill is a permutation
of its ball's first row, so the inverse is checked by forming M N - I from N's
tree form, and the domination of a matrix the package built is read, on one row
per region ball.  Entrywise nonnegativity, domination by the free covariance,
and growth under region extension are the checkable facts.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field

import numpy as np

from .model import FieldParams, free_cell_variance, free_covariance_entry
from .reporting import CheckReport, worse
from .ultrametric import LatticeSpec, Region, _shared_indices


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix fails its positive-definiteness test at a 1-based pivot.

    The pivot is a cell index: the cell whose leaf term or whose tree node's
    denominator is nonpositive, or the cell of the column where a Cholesky
    factorization stops.
    """

    def __init__(self, matrix_name: str, pivot: int):
        self.pivot = pivot
        super().__init__(f"{matrix_name} is not positive definite (pivot {pivot})")


def _freeze(entries: np.ndarray, lattice: LatticeSpec) -> None:
    """Make ``entries`` read-only; ValueError unless it is eta x eta."""
    if entries.shape != (eta := lattice.eta, eta):
        raise ValueError(f"entries have shape {entries.shape}; {eta} cells need {(eta, eta)}")
    entries.setflags(write=False)


@dataclass(frozen=True)
class PrecisionMatrix:
    """Matrix of the restricted operator plus mass in the cell-indicator basis.

    ``lattice.tree`` is the ball tree of the cells, which holds each pair's distance class
    amb - d(i,j), amb - l on the diagonal.  ``_filled`` is set by ``precision_matrix``
    alone, whose entries are a ball-tree fill: a matrix built any other way,
    ``dataclasses.replace`` included, is not marked, and its checks read every entry.
    """

    lattice: LatticeSpec
    entries: np.ndarray
    _filled: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self):
        _freeze(self.entries, self.lattice)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Inverse of a precision matrix, on its lattice; a Monte Carlo draw takes its own
    Cholesky factor.  ``_filled`` is set by ``covariance_matrix`` alone, as
    ``PrecisionMatrix._filled`` is.
    """

    entries: np.ndarray
    precision: PrecisionMatrix
    _filled: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self):
        _freeze(self.entries, self.lattice)

    @property
    def lattice(self) -> LatticeSpec:
        return self.precision.lattice


def precision_diagonal(params: FieldParams, l: int) -> float:
    """Diagonal entry: m^2 plus the complement integral of the jump kernel.

    The integral of |y|^(-beta_hat-1) |Omega| over |y| > q^l is the geometric
    series |Omega| (1 - 1/q) q^(-beta_hat (l+1)) / (1 - q^(-beta_hat)).
    """
    q, bh = params.q_float, params.beta_hat_float
    complement = (
        -params.omega_const * params.shell_factor * q ** (-bh * (l + 1)) / (1.0 - q**-bh)
    )
    return params.m_sq + complement


def precision_offdiagonal(params: FieldParams, l: int, d: int) -> float:
    """Coupling for cells at center distance q^d: Omega q^l q^(-d(beta_hat+1)).

    The kernel is constant on the integration ball by ultrametricity, so the
    entry is one kernel value times the cell measure q^l.
    """
    q = params.q_float
    return params.omega_const * q**l * q ** (-d * (params.beta_hat_float + 1.0))


def precision_matrix(lattice: LatticeSpec, params: FieldParams) -> PrecisionMatrix:
    """Assemble the dense precision matrix from the closed-form entries.

    Every entry depends only on (distance class, l, params) through one fixed
    arithmetic path, the scalar formula evaluated once per class, so shared cell
    pairs of nested regions produce bit-identical entries (the restriction
    identity is exact).
    """
    l, amb = lattice.cell_level, lattice.region.ambient_level
    table = [precision_offdiagonal(params, l, amb - c) for c in range(amb - l)]
    table = np.array(table + [precision_diagonal(params, l)])
    n = PrecisionMatrix(lattice=lattice, entries=lattice.tree.by_class(table))
    object.__setattr__(n, "_filled", True)
    return n


def _class_entries(N: PrecisionMatrix) -> list:
    """w(c), the entry of distance class c < amb - l, read from one pair per class.

    With w(-1) = 0, a class with no pairs repeats w(c-1).
    """
    off, w = [], 0.0
    for pair in N.lattice.tree.pairs:
        w = w if pair is None else float(N.entries[pair])
        off.append(w)
    return off


def _class_couplings(N: PrecisionMatrix, num=float) -> tuple[list, float]:
    """Node couplings beta per tree depth and the leaf term D', from one pair per class.

    With w(c) the class entries (``_class_entries``), beta_c = w(c) - w(c-1) and
    D' = D - w(amb-l-1), so
    t^T N t = D' sum t_i^2 + sum over tree nodes a of beta_depth(a) (sum of t under a)^2.
    ``num`` is the number type the differences are taken in.
    """
    off = [num(0)] + [num(w) for w in _class_entries(N)]  # w(c - 1), c = 0, ..., amb - l
    return [b - a for a, b in zip(off, off[1:])], num(N.entries[0, 0]) - off[-1]


_ROW_CHUNK = 1 << 16  # entries per row chunk of a check
_NODE_DIGITS = 40  # precision of the per-node scalars, far beyond their cancellation


def _row_chunks(eta: int):
    """Row ranges of about ``_ROW_CHUNK`` entries each, covering 0..eta."""
    step = max(1, _ROW_CHUNK // eta)
    return (slice(r, min(r + step, eta)) for r in range(0, eta, step))


def _tree_inverse(N: PrecisionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of D' I + sum_a beta_a 1_a 1_a^T by Sherman-Morrison, leaf to root.

    Once every node below depth c is folded in, the matrix is block diagonal
    over the depth-c nodes.  With u = M 1 and s = sum of u over node a, folding
    a in adds -beta / den u_a u_a^T, den = 1 + beta s, and divides u_a by den.
    s is the sum of the children's s / den, so s and den are per-node scalars;
    they are carried in 40-digit decimals, because each den cancels digits and
    a float recursion compounds that loss from level to level.  The update is
    written as +-v v^T, so M stays exactly symmetric.

    One walk from the leaves to the root folds each depth's nodes in.  Below top, the
    region balls' depth, the nodes of a depth are alike: one node, of q children alike,
    stands for its whole depth, so s (still summed child by child) and den are one value
    per depth, and all balls fold as one group.  Above top each node folds alone, with u
    one value per ball.  So M holds one value per ball pair and per (ball, depth of a
    pair's deepest node), each the float fold of the same +-v v terms in the same
    deepest-first order as a per-node pass adding every update to a dense M: the
    tables (outer, inner) whose ``_BallTree.fill`` has that pass's bits.

    Every cell's leaf term N_ii - w(amb-l-1) and every den must be positive,
    or NotPositiveDefiniteError names the first failing cell, in the per-node
    pass's order (the gate argued in ``covariance_matrix``).
    """
    tree = N.lattice.tree
    eta, top, leaf = tree.eta, tree.top, tree.leaf
    w_last = ([0.0] + _class_entries(N))[-1]
    bad = np.flatnonzero(~(np.diagonal(N.entries) > w_last))
    if bad.size:
        raise NotPositiveDefiniteError("precision matrix", int(bad[0]) + 1)
    nu, q = N.lattice.region.nu, N.lattice.q
    per_ball, outer = eta // nu, np.zeros((nu, nu))
    inner = np.zeros((nu, leaf - top + 1))  # per ball and depth top..leaf of a pair's deepest node
    with decimal.localcontext() as ctx:
        ctx.prec = _NODE_DIGITS
        beta, d_prime = _class_couplings(N, decimal.Decimal)
        sums = [1 / d_prime]  # s / den per node one depth down; below top, one for the depth
        inner[:, -1] = u = np.full(nu, float(1 / d_prime))  # u: M 1 on a cell of each ball
        for depth in range(leaf - 1, -1, -1):
            b, node_sums = beta[depth], []
            if depth >= top:  # one node, of q children alike, stands for the depth
                bounds, firsts, sums = [0, eta], [0, q], sums * q
            else:
                bounds, firsts = tree.bounds[depth].tolist(), tree.firsts[depth].tolist()
                sums = sums * nu if depth == top - 1 else sums  # the region balls, alike
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                s = sum(sums[firsts[k] : firsts[k + 1]], decimal.Decimal(0))
                den = 1 + b * s
                if not (den > 0):
                    raise NotPositiveDefiniteError("precision matrix", lo + 1)
                node_sums.append(s / den)
                if b:
                    balls = slice(lo // per_ball, hi // per_ball)
                    v = math.sqrt(float(abs(b) / den)) * u[balls]
                    left = v if b < 0 else -v
                    if depth < top:
                        outer[balls, balls] += np.multiply.outer(left, v)
                    inner[balls, max(depth - top, 0) :] += (left * v)[:, None]  # the pairs it holds
                    u[balls] /= float(den)
            sums = node_sums
    np.fill_diagonal(outer, inner[:, 0])
    return outer, inner[:, 1:]


def _ball_residual(m: np.ndarray, N: PrecisionMatrix) -> np.float64:
    """max |M N - I| from one row of M per region ball, with N in its tree form.

    M and N are ball-tree fills, so every row of M N - I is a permutation of the row of
    its ball's first cell (``_BallTree.ball_rows``), and the max over those nu rows is the
    max over all eta, up to summation order.  With N = D' I + sum_a beta_a
    1_a 1_a^T, (M N)_ij = D' M_ij + sum over the tree nodes a above j of beta_a (M 1_a)_i:
    the node sums M 1_a bottom-up, each level from the level below; the beta sums along
    each root-to-node path top-down; then spread to the columns.  The rows are held
    transposed, cells down the rows, so a node sum adds contiguous rows.  Below top the
    q children of a node are side by side, so a level is summed by a q-wide reshape and
    spread back by a strided add; ``reduceat`` and ``repeat`` run only above top, on the
    nu region balls.  A NaN anywhere in M is in its ball's row too, so the residual is NaN.
    """
    tree = N.lattice.tree
    eta, top, leaf = tree.eta, tree.top, tree.leaf
    beta, d_prime = _class_couplings(N)
    x = np.ascontiguousarray(m[tree.ball_rows()].T)
    sums = [x]  # sums[k]: (M 1_a) over the depth leaf - k nodes a
    for c in range(leaf - 1, top - 1, -1):
        sums.append(sums[-1].reshape(len(tree.bounds[c]) - 1, N.lattice.q, -1).sum(axis=1))
    for c in range(top - 1, -1, -1):
        sums.append(np.add.reduceat(sums[-1], tree.firsts[c][:-1], axis=0))
    out = np.zeros((1, x.shape[1]))  # the path sums above the root
    for c in range(top):  # the depth-c path sums, repeated down to each depth-(c+1) child
        out = np.repeat(out + beta[c] * sums[leaf - c], np.diff(tree.firsts[c]), axis=0)
    for c in range(top, leaf + 1):  # from top, spread down by strided adds; D' at the cells
        out, above = (beta[c] if c < leaf else d_prime) * sums[leaf - c], out
        out.reshape(len(above), -1, out.shape[1])[...] += above[:, None]
    out.flat[:: eta + 1] -= 1.0  # the diagonal: (r * eta / nu, r), ball r's first cell
    return np.abs(out, out=out).max()


def covariance_matrix(N: PrecisionMatrix, residual_tol: float = 1e-10) -> CovarianceMatrix:
    """Invert the precision matrix up its ball tree, behind the tree's own SPD gate.

    In order: N must be finite; in the tree pass every leaf term N_ii - w(amb-l-1)
    and every node denominator den = 1 + beta s must be positive; every entry
    must equal its distance class's entry; and every entry of M N - I must be
    within residual_tol * eta.  The class check makes N exactly
    D' I + sum_a beta_a 1_a 1_a^T, so M N is formed from that tree form, with no
    dense product; and by the matrix determinant lemma, node by node, that matrix
    is positive definite when D' > 0 and every den > 0 (if and only if, when every
    beta <= 0, as in this model).  M is filled in once from the tables of
    ``_tree_inverse`` (the per-node pass's bits), so M and N are both ball-tree fills
    and the residual is formed on one row of M per region ball (``_ball_residual``).
    An N that ``precision_matrix`` built is such a fill by construction: it is checked
    finite on the same rows and its class check is skipped, so M's fill is the only
    eta x eta pass.  Any other N is checked finite and by class row chunk by row
    chunk, so no eta x eta array but M is made.
    """
    tree, eta, filled = N.lattice.tree, N.lattice.eta, N._filled
    for rows in [tree.ball_rows()] if filled else _row_chunks(eta):
        np.asarray_chkfinite(N.entries[rows])
    outer, inner = _tree_inverse(N)
    if not filled:
        table = np.array(_class_entries(N) + [N.entries[0, 0]])
        for rows in _row_chunks(eta):
            differs = tree.by_class(table, rows) != N.entries[rows]
            if differs.any():
                i, j = np.unravel_index(int(np.argmax(differs)), differs.shape)
                i += rows.start
                raise ValueError(
                    f"precision entry N[{i},{j}]={float(N.entries[i, j])!r} differs from its "
                    f"distance class's entry {float(tree.by_class(table, slice(i, i + 1))[0, j])!r}"
                )
    m = tree.fill(outer, inner)
    residual = float(_ball_residual(m, N))
    if not (residual <= residual_tol * eta):  # a NaN residual fails too
        raise ValueError(f"inverse residual {residual:.3e} exceeds {residual_tol:.1e} * eta")
    cov = CovarianceMatrix(entries=m, precision=N)
    object.__setattr__(cov, "_filled", True)
    return cov


def sign_structure_check(N: PrecisionMatrix) -> CheckReport:
    """Diagonal strictly positive, off-diagonal nonpositive; a NaN entry is a violation."""
    a = np.asarray(N.entries)
    diag = np.diag(a)
    off = a[~np.eye(len(a), dtype=bool)]
    violations = []
    worst = float(np.min(diag))
    if not (worst > 0):
        violations.append(f"nonpositive diagonal entry {worst}")
    if off.size:
        off_worst = float(np.max(off))
        worst = float(np.min([worst, -off_worst]))
        if not (off_worst <= 0):
            violations.append(f"positive off-diagonal entry {off_worst}")
    return CheckReport("precision_sign_structure", not violations, worst, tuple(violations))


def covariance_nonnegative_check(M: CovarianceMatrix, tol: float = 1e-12) -> CheckReport:
    worst = float(np.min(M.entries))
    passed = worst >= -tol
    violations = () if passed else (f"negative covariance entry {worst}",)
    return CheckReport("covariance_nonnegative", passed, worst, violations)


def restriction_check(pi: Region, pi_prime: Region, l: int, params: FieldParams) -> bool:
    """Shared cells of nested regions must carry bit-identical precision entries."""
    lat, lat_prime, idx = _shared_indices(pi, pi_prime, l)
    n_small = precision_matrix(lat, params)
    n_big = precision_matrix(lat_prime, params)
    block = np.asarray(n_big.entries)[np.ix_(idx, idx)]
    return bool(np.array_equal(np.asarray(n_small.entries), block))


def domination_check(
    M: CovarianceMatrix, params: FieldParams, tol: float = 1e-9
) -> CheckReport:
    """Lattice covariance entries never exceed the free (whole-space) covariance.

    The bound is a ball-tree fill, and so is an M that ``covariance_matrix`` built: then
    every row of the margins is a permutation of its ball's first row, and the worst
    margin first shows, in row-major order, in one of those nu rows (``ball_rows``), so
    only they are read.  Any other M is read whole, row chunk by row chunk.
    """
    l, amb = M.lattice.cell_level, M.lattice.region.ambient_level
    table = [free_covariance_entry(params, l, amb - c) for c in range(amb - l)]
    table = np.array(table + [free_cell_variance(params, l)])
    tree, eta = M.lattice.tree, M.lattice.eta
    worst, where = math.inf, None  # the first smallest margin in row-major order, or first NaN
    for rows in [tree.ball_rows()] if M._filled else _row_chunks(eta):
        margins = tree.by_class(table, rows)
        margins -= M.entries[rows]
        k = int(np.argmin(margins))  # the first NaN margin, if there is one
        if worse(margins.flat[k], worst):
            r, j = divmod(k, eta)
            worst, where = float(margins.flat[k]), (range(eta)[rows][r], j)
    violations = []
    if not (worst >= -tol):
        i, j = where
        violations.append(
            f"M[{i},{j}]={float(M.entries[i, j])!r} exceeds free covariance "
            f"{float(tree.by_class(table, slice(i, i + 1))[0, j])!r}"
        )
    return CheckReport("covariance_domination", not violations, worst, tuple(violations))


def monotonicity_check(
    pi: Region,
    pi_prime: Region,
    l: int,
    params: FieldParams,
    tol: float = 1e-9,
) -> CheckReport:
    """Covariance entries grow entrywise when the region is extended."""
    lat, lat_prime, idx = _shared_indices(pi, pi_prime, l)
    m_small = covariance_matrix(precision_matrix(lat, params))
    m_big = covariance_matrix(precision_matrix(lat_prime, params))
    block = np.asarray(m_big.entries)[np.ix_(idx, idx)]
    margins = block - np.asarray(m_small.entries)
    worst = float(np.min(margins))
    violations = []
    if not (worst >= -tol):
        i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
        violations.append(f"covariance shrank at shared pair ({i},{j}) by {-worst:.3e}")
    return CheckReport("covariance_monotonicity", not violations, worst, tuple(violations))
