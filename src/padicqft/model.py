"""Radial symbol calculus on a local field with residue cardinality q.

The elliptic pseudo-differential operator acts by multiplication with the
radial symbol a(xi) = gamma * |xi|^beta_hat on the Fourier side, where
beta_hat = 2*alpha/n.  Everything here is a one-dimensional shell series:
Haar measure decomposes over the spheres |xi| = q^m, the additive character
integrates to a three-case closed form on each sphere, and the resolvent
(a + m^2)^{-1} glues them into Green functions and covariance entries.

Norm exponents are extended integers: an ``int`` d stands for |x| = q^d and
the sentinel ``SAME`` (-inf) stands for x = 0, so comparisons like
``m + d <= 0`` remain valid verbatim in the degenerate case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ultrametric import SAME

DEFAULT_TOL = 1e-12


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to them all


def _is_odd_prime(p: int) -> bool:
    """Miller-Rabin to every base in PRIME_BASES, which is exact below
    PRIME_TEST_BOUND (Sorenson and Webster, Math. Comp. 86 (2017)); a larger p
    raises ValueError."""
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"p = {p} is not below {PRIME_TEST_BOUND}, the prime test's bound")
    if p < 3 or p % 2 == 0:
        return False
    if p in PRIME_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Model parameters: field size, symbol exponent, mass, radial constants.

    ``omega_const`` is the nonpositive radial constant of the hypersingular
    (jump-kernel) form of the operator; pass None to resolve it to the unique
    value consistent with the Fourier symbol (see :func:`vladimirov_omega`).

    ``q_float``, ``beta_hat_float`` and ``shell_factor`` (1 - 1/q) are float
    constants derived from the fields once, for the shell-series loops; they
    take no part in comparison, hashing or repr.
    """

    p: int
    n: int
    alpha: Fraction
    m_sq: float
    gamma_const: float = 1.0
    omega_const: float | None = None
    q_float: float = field(init=False, repr=False, compare=False)
    beta_hat_float: float = field(init=False, repr=False, compare=False)
    shell_factor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.n not in (1, 2, 3, 4):
            raise ValueError(f"n must be in 1..4, got {self.n}")
        alpha = Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if 2 * alpha < self.n:
            raise ValueError(f"alpha must be >= n/2, got alpha={alpha} with n={self.n}")
        if not self.m_sq > 0:
            raise ValueError("m_sq must be positive")
        if not self.gamma_const > 0:
            raise ValueError("gamma_const must be positive")
        q_float = float(self.q)
        object.__setattr__(self, "q_float", q_float)
        object.__setattr__(self, "beta_hat_float", float(self.beta_hat))
        object.__setattr__(self, "shell_factor", 1.0 - 1.0 / q_float)
        if self.omega_const is None:
            object.__setattr__(self, "omega_const", vladimirov_omega_const(
                self.q, self.beta_hat_float, self.gamma_const))
        elif self.omega_const > 0:
            raise ValueError("omega_const must be nonpositive")

    @property
    def q(self) -> int:
        return self.p**self.n

    @property
    def beta_hat(self) -> Fraction:
        """Symbol exponent 2*alpha/n; the log-divergent edge case is beta_hat == 1."""
        return 2 * self.alpha / self.n

    @property
    def is_log_case(self) -> bool:
        return self.beta_hat == 1


def shell_measure(params: FieldParams, m: int) -> float:
    """Haar measure of the sphere |xi| = q^m, namely q^m (1 - 1/q)."""
    return params.q_float**m * params.shell_factor


def symbol_a(params: FieldParams, xi_norm_exponent: int) -> float:
    """Symbol value gamma * q^(m * beta_hat) on the sphere |xi| = q^m."""
    return params.gamma_const * params.q_float ** (xi_norm_exponent * params.beta_hat_float)


def character_shell_integral(params: FieldParams, m: int, x_norm_exponent: float) -> float:
    """Integral of the rank-zero additive character xi -> chi(x xi) over |xi| = q^m.

    For |x| = q^d the value is the full sphere measure when m + d <= 0 (the
    character is trivial there), the single oscillatory boundary value
    -q^(m-1) when m + d == 1, and zero beyond.  x = 0 is d = SAME.
    """
    d = x_norm_exponent
    if m + d <= 0:
        return shell_measure(params, m)
    if m + d == 1:
        return -params.q_float ** (m - 1)
    return 0.0


def resolvent_ball_integral(
    params: FieldParams, kappa: int, beta: float = 1.0, tol: float = DEFAULT_TOL
) -> float:
    """Integral of (a(xi) + m^2)^(-beta) over the ball |xi| <= q^kappa.

    Summed shell by shell downward; the remainder below level M is at most
    q^M * m^(-2 beta) (geometric tail of ratio 1/q against the integrand
    bound m^(-2 beta)).  Truncation stops once that bound drops under
    tol * min(1, partial sum), so the result is within tol of the exact
    value both absolutely and relatively.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    q, shell, bh = params.q_float, params.shell_factor, params.beta_hat_float
    gamma, m_sq = params.gamma_const, params.m_sq
    msq_pow = m_sq**-beta
    total = 0.0
    m = kappa
    while True:
        total += q**m * shell * (gamma * q ** (m * bh) + m_sq) ** -beta
        bound = q ** (m - 1) * msq_pow
        # tol * min(1, total), with the builtin call kept out of the loop
        if bound < tol * (total if total < 1.0 else 1.0) or bound < 1e-300:
            return total
        m -= 1


def resolvent_tail_integral(
    params: FieldParams, kappa: int, beta: float, tol: float = DEFAULT_TOL
) -> float:
    """Integral of (a(xi) + m^2)^(-beta) over |xi| >= q^kappa.

    Requires beta_hat * beta > 1 (otherwise the integral diverges).  The
    partial sums converge geometrically with ratio q^-(beta_hat*beta - 1)
    and the remainder bound gamma^(-beta) (1-1/q) q^(-(M+1)(bb-1)) / (1-q^(1-bb))
    controls truncation.  When bb is close to 1 the terms' powers leave float
    range before that bound falls under tol, and OverflowError is raised naming
    kappa, beta and bb.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    q, shell, bh = params.q_float, params.shell_factor, params.beta_hat_float
    gamma, m_sq = params.gamma_const, params.m_sq
    bb = bh * beta
    if bb <= 1:
        raise ValueError(
            f"divergent tail: beta_hat * beta = {bb} must exceed 1 for integrability"
        )
    tail_const = resolvent_tail_bound_constant(params, beta)
    total = 0.0
    m = kappa
    try:
        while True:
            total += q**m * shell * (gamma * q ** (m * bh) + m_sq) ** -beta
            bound = tail_const * q ** (-(m + 1) * (bb - 1.0))
            # tol * min(1, total), with the builtin call kept out of the loop
            if bound < tol * (total if total < 1.0 else 1.0) or bound < 1e-300:
                return total
            m += 1
    except OverflowError:  # a power left float range before the tail bound fell under tol
        raise OverflowError(
            f"resolvent_tail_integral: the shell series overflows float range at kappa = "
            f"{kappa}, beta = {beta} (beta_hat * beta = {bb})"
        ) from None


def c_kappa_sq(params: FieldParams, kappa: int, tol: float = DEFAULT_TOL) -> float:
    """Smoothed-field variance c_kappa^2: the beta = 1 ball integral up to q^kappa."""
    return resolvent_ball_integral(params, kappa, beta=1.0, tol=tol)


def resolvent_ball_bound_constant(params: FieldParams) -> float:
    """Explicit constant c1 with c_kappa^2 <= c1 * kappa for kappa >= 1 (alpha >= n/2)."""
    return 1.0 / params.m_sq + params.shell_factor / params.gamma_const


def resolvent_tail_bound_constant(params: FieldParams, beta: float) -> float:
    """Explicit constant c2 bounding the tail integral by c2 * q^(-kappa(beta_hat*beta-1))."""
    bb = params.beta_hat_float * beta
    if bb <= 1:
        raise ValueError("tail bound needs beta_hat * beta > 1")
    q = params.q_float
    return params.gamma_const**-beta * params.shell_factor / (1.0 - q ** (1.0 - bb))


def vladimirov_omega_const(q: int, beta_hat: float, gamma: float) -> float:
    """Radial jump-kernel constant matching the symbol gamma |xi|^beta_hat.

    The operator with Fourier symbol a(xi) also acts as an integral against
    the kernel |y|^(-beta_hat - 1) * Omega; applying both forms to the unit
    ball indicator at the origin forces
    Omega = -gamma (q^beta_hat - 1) / (1 - q^(-beta_hat - 1)),
    the unique radial constant reconciling the two representations.
    """
    qf = float(q)
    return -gamma * (qf**beta_hat - 1.0) / (1.0 - qf ** (-beta_hat - 1.0))


def vladimirov_omega(params: FieldParams) -> float:
    return vladimirov_omega_const(params.q, params.beta_hat_float, params.gamma_const)


def green_function(params: FieldParams, x_norm_exponent: float, tol: float = DEFAULT_TOL) -> float:
    """Green function E(x) of (A + m^2)^{-1} at |x| = q^d (d = SAME for x = 0).

    For finite d all spheres |xi| <= q^(-d) contribute their full measure and
    the single sphere at q^(1-d) contributes the oscillatory boundary term
    -q^(-d) (a(q^(1-d)) + m^2)^(-1); everything further cancels exactly.
    Because the shells below q^(-d) carry total measure exactly q^(-d), the
    boundary folds into the sum, leaving the manifestly nonnegative series

        E(q^d) = sum_{m <= -d} shell(m) [ (a(q^m)+m^2)^(-1) - (a(q^(1-d))+m^2)^(-1) ],

    which is evaluated with a relative-accuracy geometric tail bound (so the
    power decay at large |x| is resolved, not swamped by cancellation).  Far
    inside the unit ball the terms overflow float range (from d = -215 at
    q = 3, beta_hat = 2) and OverflowError is raised rather than a NaN.  At
    the origin the series runs over all shells: finite for beta_hat > 1,
    divergent (logarithmically) at beta_hat == 1, where the designated value
    math.inf is returned.
    """
    d = x_norm_exponent
    if d == SAME:
        if params.is_log_case:
            return math.inf
        return resolvent_ball_integral(params, 0, 1.0, tol / 2) + resolvent_tail_integral(
            params, 1, 1.0, tol / 2
        )
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = int(d)
    q, shell, bh = params.q_float, params.shell_factor, params.beta_hat_float
    gamma, m_sq = params.gamma_const, params.m_sq
    try:
        outer = gamma * q ** ((1 - d) * bh) + m_sq
        total = 0.0
        m = -d
        while True:
            inner = gamma * q ** (m * bh) + m_sq
            total += q**m * shell * (outer - inner) / (inner * outer)
            bound = q ** (m - 1) / m_sq
            if bound < tol * total or bound < 1e-300:
                break
            m -= 1
    except OverflowError:  # a power left float range
        total = math.nan
    if not math.isfinite(total):  # or a first term's numerator and denominator both overflowed
        raise OverflowError(f"green_function: the shell series overflows float range at d = {d}")
    return total


def green_regularized(
    params: FieldParams, kappa: int, x_norm_exponent: float, tol: float = DEFAULT_TOL
) -> float:
    """Green function smoothed at scale q^-kappa (Fourier cutoff |xi| <= q^kappa).

    Exactly constant (= c_kappa^2) for |x| <= q^-kappa; pointwise it increases
    to the unsmoothed Green function as the cutoff is removed.  Once the
    cutoff passes the single oscillatory shell (kappa >= 1 - d) all further
    shells vanish, so the value coincides with the unsmoothed function.
    """
    d = x_norm_exponent
    if d == SAME:
        return c_kappa_sq(params, kappa, tol)
    d = int(d)
    if kappa + d >= 1:
        return green_function(params, d, tol)
    return c_kappa_sq(params, min(kappa, -d), tol)


def green_regularized_increment(
    params: FieldParams, kappa1: int, kappa2: int, x_norm_exponent: float
) -> float:
    """Exact finite-sum difference E_kappa1(x) - E_kappa2(x) for kappa1 >= kappa2.

    Only the shells in (kappa2, kappa1] contribute, and for finite |x| = q^d
    the character kills everything above 1 - d, so the sum is short and free
    of large-term cancellation; this is the preferred route to small cutoff
    discrepancies.
    """
    if kappa1 < kappa2:
        raise ValueError("kappa1 must be >= kappa2")
    d = x_norm_exponent
    upper = kappa1 if d == SAME else min(kappa1, 1 - int(d))
    q, bh = params.q_float, params.beta_hat_float
    gamma, m_sq = params.gamma_const, params.m_sq
    total = 0.0
    for m in range(kappa2 + 1, upper + 1):
        total += character_shell_integral(params, m, d) / (gamma * q ** (m * bh) + m_sq)
    return total


def free_covariance_entry(
    params: FieldParams, l: int, d: float, tol: float = DEFAULT_TOL
) -> float:
    """Whole-space covariance between normalized level-l ball indicators.

    By Plancherel the Fourier transform of a normalized ball indicator is
    supported on |xi| <= q^-l, so the entry is q^l times the smoothed Green
    function at cutoff -l evaluated at the center distance q^d; d = SAME
    yields the free cell variance sigma_l^2 used for Wick ordering.
    """
    return params.q_float**l * green_regularized(params, -l, d, tol)


def free_cell_variance(params: FieldParams, l: int, tol: float = DEFAULT_TOL) -> float:
    """sigma_l^2 = free_covariance_entry at zero separation."""
    return free_covariance_entry(params, l, SAME, tol)
