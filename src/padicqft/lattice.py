"""Finite ball-lattice approximation: precision and covariance matrices.

On the level-l cells of a region, the restricted operator has an exactly
computable matrix in the orthonormal basis of normalized cell indicators:
the coupling between two cells is a single-shell value of the jump kernel
(the kernel is constant on an ultrametric ball), and the diagonal is the
mass term plus a geometric-series complement integral.  Both depend on a pair
only through its distance class (the cells' common-prefix length, amb - l on
the diagonal), which is built once per lattice; the precision entries and the
free-covariance bound are read from one table per class.  The covariance is
the dense inverse; its entrywise nonnegativity, domination by the free
covariance, and growth under region extension are the checkable facts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import FieldParams, free_cell_variance, free_covariance_entry
from .reporting import CheckReport
from .ultrametric import MAX_DENSE_CELLS, LatticeSpec, Region, refine


class NotPositiveDefiniteError(ValueError):
    """Raised when a symmetric factorization hits a nonpositive pivot."""

    def __init__(self, matrix_name: str, pivot: int):
        self.pivot = pivot
        super().__init__(f"{matrix_name} is not positive definite (pivot {pivot})")


@dataclass(frozen=True)
class PrecisionMatrix:
    """Matrix of the restricted operator plus mass in the cell-indicator basis.

    ``classes[i, j]`` is the pair's distance class amb - d(i,j), amb - l on the diagonal.
    """

    lattice: LatticeSpec
    entries: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)
        self.classes.setflags(write=False)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Inverse of a precision matrix, with its lower Cholesky factor for sampling."""

    lattice: LatticeSpec
    entries: np.ndarray
    factor: np.ndarray
    precision: PrecisionMatrix

    def __post_init__(self):
        self.entries.setflags(write=False)
        self.factor.setflags(write=False)


def distance_exponent_matrix(lattice: LatticeSpec) -> np.ndarray:
    """Pairwise center-distance exponents d(i,j); the diagonal is a placeholder.

    Vectorized longest-common-prefix over the digit rows, chunked to keep the
    boolean workspace small for large lattices.
    """
    digits = np.asarray([c.digits for c in lattice.cells], dtype=np.int64)
    eta, width = digits.shape
    amb = lattice.region.ambient_level
    out = np.empty((eta, eta), dtype=np.int64)
    chunk = max(1, 2_000_000 // max(1, eta * max(1, width)))
    for start in range(0, eta, chunk):
        rows = digits[start : start + chunk]
        if width == 0:
            prefix = np.zeros((rows.shape[0], eta), dtype=np.int64)
        else:
            neq = rows[:, None, :] != digits[None, :, :]
            first = np.argmax(neq, axis=2)
            prefix = np.where(neq.any(axis=2), first, width)
        out[start : start + chunk] = amb - prefix
    np.fill_diagonal(out, 0)  # placeholder; diagonal entries are set separately
    return out


def precision_diagonal(params: FieldParams, l: int, diagonal_mass_term: bool = True) -> float:
    """Diagonal entry: m^2 plus the complement integral of the jump kernel.

    The integral of |y|^(-beta_hat-1) |Omega| over |y| > q^l is the geometric
    series |Omega| (1 - 1/q) q^(-beta_hat (l+1)) / (1 - q^(-beta_hat)).
    """
    q = float(params.q)
    bh = float(params.beta_hat)
    complement = (
        -params.omega_const * (1.0 - 1.0 / q) * q ** (-bh * (l + 1)) / (1.0 - q**-bh)
    )
    return (params.m_sq if diagonal_mass_term else 0.0) + complement


def precision_offdiagonal(params: FieldParams, l: int, d: int) -> float:
    """Coupling for cells at center distance q^d: Omega q^l q^(-d(beta_hat+1)).

    The kernel is constant on the integration ball by ultrametricity, so the
    entry is one kernel value times the cell measure q^l.
    """
    q = float(params.q)
    return params.omega_const * q**l * q ** (-d * (float(params.beta_hat) + 1.0))


def precision_matrix(
    lattice: LatticeSpec,
    params: FieldParams,
    diagonal_mass_term: bool = True,
    max_cells: int = MAX_DENSE_CELLS,
) -> PrecisionMatrix:
    """Assemble the dense precision matrix from the closed-form entries.

    Every entry depends only on (distance class, l, params) through one fixed
    arithmetic path, evaluated once per class, so shared cell pairs of nested
    regions produce bit-identical entries (the restriction identity is exact).
    """
    eta = lattice.eta
    if eta > max_cells:
        raise ValueError(f"lattice has {eta} cells (> {max_cells}); pass max_cells to override")
    l, amb = lattice.cell_level, lattice.region.ambient_level
    prefix = amb - distance_exponent_matrix(lattice)
    np.fill_diagonal(prefix, amb - l)
    classes = prefix.astype(np.min_scalar_type(amb - l))  # one byte per pair for up to 256 classes
    q = float(params.q)
    d = amb - np.arange(amb - l + 1)
    table = params.omega_const * q**l * q ** (-(float(params.beta_hat) + 1.0) * d)
    table[amb - l] = precision_diagonal(params, l, diagonal_mass_term)
    return PrecisionMatrix(lattice=lattice, entries=table[classes], classes=classes)


def _cholesky(matrix: np.ndarray, name: str) -> np.ndarray:
    factor, info = scipy.linalg.lapack.dpotrf(np.asarray_chkfinite(matrix), lower=1, clean=1)
    if info:
        raise NotPositiveDefiniteError(name, info)
    return factor


def covariance_matrix(N: PrecisionMatrix, residual_tol: float = 1e-10) -> CovarianceMatrix:
    """Invert the precision matrix through its Cholesky factorization.

    Both factorizations (of N and of the resulting M) must succeed; the
    product M N is checked against the identity to residual_tol * eta.
    """
    eta = N.lattice.eta
    chol_n = _cholesky(np.asarray(N.entries), "precision matrix")
    m = scipy.linalg.cho_solve((chol_n, True), np.eye(eta))
    m = (m + m.T) / 2.0
    residual = float(np.max(np.abs(m @ N.entries - np.eye(eta))))
    if residual > residual_tol * eta:
        raise ValueError(f"inverse residual {residual:.3e} exceeds {residual_tol:.1e} * eta")
    factor = _cholesky(m, "covariance matrix")
    return CovarianceMatrix(lattice=N.lattice, entries=m, factor=factor, precision=N)


def sign_structure_check(N: PrecisionMatrix) -> CheckReport:
    """Diagonal strictly positive, off-diagonal nonpositive."""
    a = np.asarray(N.entries)
    diag = np.diag(a)
    off = a[~np.eye(len(a), dtype=bool)]
    violations = []
    worst = float(np.min(diag))
    if worst <= 0:
        violations.append(f"nonpositive diagonal entry {worst}")
    if off.size:
        off_worst = float(np.max(off))
        worst = min(worst, -off_worst)
        if off_worst > 0:
            violations.append(f"positive off-diagonal entry {off_worst}")
    return CheckReport("precision_sign_structure", not violations, worst, tuple(violations))


def covariance_nonnegative_check(M: CovarianceMatrix, tol: float = 1e-12) -> CheckReport:
    worst = float(np.min(M.entries))
    passed = worst >= -tol
    violations = () if passed else (f"negative covariance entry {worst}",)
    return CheckReport("covariance_nonnegative", passed, worst, violations)


def _shared_indices(pi: Region, pi_prime: Region, l: int, max_cells: int) -> tuple:
    if not pi.is_subregion_of(pi_prime):
        raise ValueError("regions are not nested: every ball of pi must be a ball of pi_prime")
    lat = refine(pi, l, max_cells)
    lat_prime = refine(pi_prime, l, max_cells)
    idx = np.asarray([lat_prime.index_of(c) for c in lat.cells], dtype=np.intp)
    return lat, lat_prime, idx


def restriction_check(
    pi: Region,
    pi_prime: Region,
    l: int,
    params: FieldParams,
    diagonal_mass_term: bool = True,
    max_cells: int = MAX_DENSE_CELLS,
) -> bool:
    """Shared cells of nested regions must carry bit-identical precision entries."""
    lat, lat_prime, idx = _shared_indices(pi, pi_prime, l, max_cells)
    n_small = precision_matrix(lat, params, diagonal_mass_term, max_cells)
    n_big = precision_matrix(lat_prime, params, diagonal_mass_term, max_cells)
    block = np.asarray(n_big.entries)[np.ix_(idx, idx)]
    return bool(np.array_equal(np.asarray(n_small.entries), block))


def domination_check(
    M: CovarianceMatrix, params: FieldParams, tol: float = 1e-9
) -> CheckReport:
    """Lattice covariance entries never exceed the free (whole-space) covariance."""
    l, amb = M.lattice.cell_level, M.lattice.region.ambient_level
    table = [free_covariance_entry(params, l, amb - c) for c in range(amb - l)]
    free = np.array(table + [free_cell_variance(params, l)])[M.precision.classes]
    margins = free - np.asarray(M.entries)
    worst = float(np.min(margins))
    violations = []
    if worst < -tol:
        i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
        violations.append(
            f"M[{i},{j}]={M.entries[i, j]!r} exceeds free covariance {free[i, j]!r}"
        )
    return CheckReport("covariance_domination", not violations, worst, tuple(violations))


def monotonicity_check(
    pi: Region,
    pi_prime: Region,
    l: int,
    params: FieldParams,
    tol: float = 1e-9,
    max_cells: int = MAX_DENSE_CELLS,
) -> CheckReport:
    """Covariance entries grow entrywise when the region is extended."""
    lat, lat_prime, idx = _shared_indices(pi, pi_prime, l, max_cells)
    m_small = covariance_matrix(precision_matrix(lat, params, max_cells=max_cells))
    m_big = covariance_matrix(precision_matrix(lat_prime, params, max_cells=max_cells))
    block = np.asarray(m_big.entries)[np.ix_(idx, idx)]
    margins = block - np.asarray(m_small.entries)
    worst = float(np.min(margins))
    violations = []
    if worst < -tol:
        i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
        violations.append(f"covariance shrank at shared pair ({i},{j}) by {-worst:.3e}")
    return CheckReport("covariance_monotonicity", not violations, worst, tuple(violations))


def write_matrix_csv(path, matrix: np.ndarray, lattice: LatticeSpec, name: str) -> None:
    """Row-major CSV with a metadata header comment line."""
    meta = (
        f"# name={name};lattice={lattice.region.serialize()};"
        f"l={lattice.cell_level};eta={lattice.eta}"
    )
    lines = [meta]
    for row in np.asarray(matrix):
        lines.append(",".join(format(v, ".17g") for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
