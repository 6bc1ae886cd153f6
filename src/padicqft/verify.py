"""One-shot verification suite: every structural fact the library relies on.

Each check is numerical and self-contained: closed forms are re-derived by
literal series summation, matrix facts are exercised on seeded random
lattices, and the stochastic estimators are compared against their
deterministic quadrature counterparts.  All randomness derives from a single
seed, so the emitted report is byte-reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import lattice as lat
from . import model, sampler, wick
from .model import FieldParams
from .reporting import CheckReport, Margins, combine
from .ultrametric import SAME, BallAddress, Region, parse_region, refine

_QMAP = {3: (3, 1), 5: (5, 1), 9: (3, 2), 25: (5, 2), 27: (3, 3), 125: (5, 3)}

OMEGA_GRID_Q = (3, 5, 9, 25)
OMEGA_GRID_BH = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
BOUND_GRID_BH = (Fraction(1), Fraction(2), Fraction(3))
BOUND_GRID_BETA = (1.5, 2.0, 3.0)


def params_for(q: int, beta_hat, m_sq: float = 1.0, gamma: float = 1.0,
               omega: float | None = None) -> FieldParams:
    """FieldParams with residue cardinality q and symbol exponent beta_hat."""
    p, n = _QMAP[q]
    alpha = Fraction(beta_hat) * n / 2
    return FieldParams(p=p, n=n, alpha=alpha, m_sq=m_sq, gamma_const=gamma, omega_const=omega)


def random_region_with_level(
    rand: random.Random, q: int, max_eta: int = 64, max_nu: int = 6
) -> tuple[Region, int]:
    """A seeded random region plus a refinement level keeping eta <= max_eta."""
    amb = rand.randint(-1, 3)
    k = amb - rand.randint(0, 2)
    capacity = q ** (amb - k)
    nu = rand.randint(1, min(max_nu, capacity))
    codes = sorted(rand.sample(range(capacity), nu))  # each ball's digits, base q
    balls = [BallAddress(amb, k, tuple(c // q**e % q for e in range(amb - k - 1, -1, -1)))
             for c in codes]
    max_depth = 0
    while nu * q ** (max_depth + 1) <= max_eta:
        max_depth += 1
    l = k - rand.randint(0, max_depth)
    return Region(q=q, ambient_level=amb, ball_level=k, balls=tuple(balls)), l


def random_nested_pair(
    rand: random.Random, q: int, max_eta: int = 64, max_nu: int = 6
) -> tuple[Region, Region, int]:
    """Seeded nested regions pi inside pi_prime sharing ambient and ball level."""
    big, l = random_region_with_level(rand, q, max_eta, max_nu)
    while big.nu < 2:
        big, l = random_region_with_level(rand, q, max_eta, max_nu)
    nu_small = rand.randint(1, big.nu - 1)
    chosen = sorted(rand.sample(range(big.nu), nu_small))
    return replace(big, balls=tuple(big.balls[i] for i in chosen)), big, l


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_omega_consistency(rel_tol: float = 1e-12) -> CheckReport:
    """Fourier-side and jump-kernel-side values of the symbol must agree.

    Both sides are summed as literal shell series against the unit-ball
    indicator; the closed-form constant has to reconcile them identically.
    """
    tally = Margins("omega_consistency")
    for q in OMEGA_GRID_Q:
        for bh in OMEGA_GRID_BH:
            bhf = float(bh)
            gamma = 1.0
            omega = model.vladimirov_omega_const(q, bhf, gamma)
            spectral = 0.0
            m = 0
            while q ** ((m - 1) * (bhf + 1.0)) > 1e-18:
                spectral += q**m * (1.0 - 1.0 / q) * gamma * float(q) ** (m * bhf)
                m -= 1
            hyper = 0.0
            m = 1
            while q ** (-m * bhf) > 1e-18:
                hyper += q**m * (1.0 - 1.0 / q) * float(q) ** (-m * (bhf + 1.0))
                m += 1
            hyper *= -omega
            rel = abs(spectral - hyper) / abs(spectral)
            tally.add(rel_tol - rel, lambda: f"q={q} beta_hat={bh}: relative gap {rel:.3e}")
    return tally.report()


def check_resolvent_ball_bound(kappa_max: int = 30) -> CheckReport:
    """c_kappa^2 <= c1 * kappa with the explicit constant, kappa = 1..kappa_max."""
    tally = Margins("resolvent_ball_bound")
    for q in OMEGA_GRID_Q:
        for bh in BOUND_GRID_BH:
            for m_sq, gamma in ((1.0, 1.0), (0.5, 2.0)):
                params = params_for(q, bh, m_sq, gamma)
                c1 = model.resolvent_ball_bound_constant(params)
                for kappa in range(1, kappa_max + 1):
                    margin = c1 * kappa - model.c_kappa_sq(params, kappa)
                    tally.add(margin, lambda: f"q={q} bh={bh} kappa={kappa}: excess {-margin:.3e}")
    return tally.report()


def check_resolvent_tail_bound(kappa_max: int = 30, rel_tol: float = 1e-12) -> CheckReport:
    """Tail integral <= c2 q^(-kappa(beta_hat*beta - 1)) with the explicit constant.

    Verified to relative precision: at extreme exponents the value and the
    bound agree to the last float digit (m^2 falls below the resolution of
    a + m^2), so the comparison carries a 1e-12 relative allowance.
    """
    tally = Margins("resolvent_tail_bound")
    for q in OMEGA_GRID_Q:
        for bh in BOUND_GRID_BH:
            for beta in BOUND_GRID_BETA:
                params = params_for(q, bh)
                c2 = model.resolvent_tail_bound_constant(params, beta)
                bb = float(bh) * beta
                for kappa in range(1, kappa_max + 1):
                    bound = c2 * float(q) ** (-kappa * (bb - 1.0))
                    value = model.resolvent_tail_integral(params, kappa, beta)
                    margin = rel_tol + (bound - value) / max(bound, 1e-300)
                    tally.add(margin, lambda: f"q={q} bh={bh} beta={beta} kappa={kappa}: "
                              f"excess {-margin:.3e}")
    return tally.report()


def check_green_nonnegative() -> CheckReport:
    tally = Margins("green_nonnegative")
    for q in (3, 5, 9):
        for bh in (Fraction(1), Fraction(3, 2), Fraction(2)):
            params = params_for(q, bh)
            points = [SAME] + list(range(-12, 13))
            for d in points:  # E(0) = +inf in the log case (beta_hat = 1) passes as it is
                value = model.green_function(params, d)
                tally.add(value, lambda: f"q={q} bh={bh} d={d}: E = {value:.3e} < 0")
    return tally.report()


def check_green_increment_identity(tol: float = 1e-12) -> CheckReport:
    """Cutoff increments equal the single added shell term exactly."""
    tally = Margins("green_increment_identity")
    for q, bh in ((3, Fraction(2)), (5, Fraction(1))):
        params = params_for(q, bh)
        distances = [SAME] + list(range(-5, 6))
        # series evaluated well below the identity tolerance, once per (kappa, d)
        green = {
            (kappa, d): model.green_regularized(params, kappa, d, 1e-15)
            for kappa in range(-4, 7)
            for d in distances
        }
        for kappa in range(-3, 7):
            for d in distances:
                lhs = green[kappa, d] - green[kappa - 1, d]
                rhs = model.character_shell_integral(params, kappa, d) / (
                    model.symbol_a(params, kappa) + params.m_sq
                )
                err = abs(lhs - rhs) / max(1.0, abs(rhs))
                tally.add(tol - err, lambda: f"q={q} kappa={kappa} d={d}: gap {err:.3e}")
    return tally.report()


def check_variance_ball_identity(tol: float = 1e-12) -> CheckReport:
    """sigma_l^2 equals q^l times the literal resolvent series up to scale q^-l."""
    tally = Margins("variance_ball_identity")
    for q, bh in ((3, Fraction(2)), (5, Fraction(3, 2))):
        params = params_for(q, bh)
        for l in range(-3, 4):
            lhs = model.free_cell_variance(params, l)
            rhs = 0.0
            m = -l
            while float(q) ** (m - 1) / params.m_sq > 1e-17:
                rhs += (
                    float(q) ** m
                    * (1.0 - 1.0 / q)
                    / (params.gamma_const * float(q) ** (m * float(bh)) + params.m_sq)
                )
                m -= 1
            rhs *= float(q) ** l
            err = abs(lhs - rhs) / max(abs(rhs), 1e-30)
            tally.add(tol - err, lambda: f"q={q} l={l}: relative gap {err:.3e}")
    return tally.report()


def _lattice_suite(seed: int, count: int, qs=(3, 5), max_eta: int = 40):
    rand = random.Random(seed)
    out = []
    for i in range(count):
        q = qs[i % len(qs)]
        bh = (Fraction(1), Fraction(2))[i % 2]
        region, l = random_region_with_level(rand, q, max_eta=max_eta)
        params = params_for(q, bh)
        out.append((params, refine(region, l)))
    return out


def check_lattice_structure(seed: int, count: int = 20) -> CheckReport:
    reports = []
    for params, lattice in _lattice_suite(seed, count):
        n = lat.precision_matrix(lattice, params)
        reports.append(lat.sign_structure_check(n))
        m = lat.covariance_matrix(n)  # raises on SPD failure
        reports.append(lat.covariance_nonnegative_check(m))
        reports.append(lat.domination_check(m, params))
    return combine("lattice_structure", reports)


def check_restriction_identity(seed: int, count: int = 10) -> CheckReport:
    rand = random.Random(seed)
    tally = Margins("restriction_identity")
    for i in range(count):
        q = (3, 5)[i % 2]
        small, big, l = random_nested_pair(rand, q, max_eta=40)
        params = params_for(q, (Fraction(1), Fraction(2))[i % 2])
        same = lat.restriction_check(small, big, l, params)
        tally.add(0.0 if same else -1.0, lambda: f"case {i}: shared precision entries differ")
    return tally.report()


def check_monotonicity(seed: int, count: int = 10) -> CheckReport:
    rand = random.Random(seed)
    reports = []
    for i in range(count):
        q = (3, 5)[i % 2]
        small, big, l = random_nested_pair(rand, q, max_eta=40)
        params = params_for(q, (Fraction(1), Fraction(2))[i % 2])
        reports.append(lat.monotonicity_check(small, big, l, params))
    return combine("covariance_monotonicity", reports)


def check_wick_recursion(k_max: int = 20) -> CheckReport:
    """Coefficient tables satisfy the Hermite recursion in exact integers."""
    tally = Margins("wick_recursion")
    for k in range(1, k_max):
        nxt = wick.wick_coefficients(k + 1).coefficients
        cur = wick.wick_coefficients(k).coefficients
        prev = wick.wick_coefficients(k - 1).coefficients
        for j in range(len(nxt)):
            x_part = cur[j] if j < len(cur) else 0
            v_part = prev[j - 1] if 1 <= j <= len(prev) else 0
            tally.add(0.0 if nxt[j] == x_part - k * v_part else -1.0, lambda: f"k={k} j={j}")
    return tally.report()


def _gh_gaussian_moment(func, sigma_sq: float, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """E[func(t)] for t ~ N(0, sigma_sq) by the Gauss-Hermite rule (nodes, weights)."""
    x, w = rule
    t = math.sqrt(2.0 * sigma_sq) * x
    return float((w * func(t)).sum() / math.sqrt(math.pi))


def check_wick_orthogonality(tol: float = 1e-8) -> CheckReport:
    tally = Margins("wick_orthogonality")
    rule = np.polynomial.hermite.hermgauss(24)  # exact for the degree <= 8 integrands here
    for sigma_sq in (0.5, 1.0, 2.3):
        for j in range(5):
            for k in range(5):
                got = _gh_gaussian_moment(
                    lambda t: wick.wick_power(t, j, sigma_sq) * wick.wick_power(t, k, sigma_sq),
                    sigma_sq,
                    rule,
                )
                want = math.factorial(k) * sigma_sq**k if j == k else 0.0
                err = abs(got - want) / max(1.0, abs(want))
                tally.add(tol - err, lambda: f"sigma^2={sigma_sq} j={j} k={k}: gap {err:.3e}")
    return tally.report()


def check_wick_change_roundtrip(tol: float = 1e-12) -> CheckReport:
    tally = Margins("wick_change_roundtrip")
    for k in (2, 3, 5, 8):
        for va, vb in ((0.3, 1.7), (2.0, 0.1)):
            size = k // 2 + 1
            fw = np.zeros((size, size))
            bw = np.zeros((size, size))
            for row in range(size):
                deg = k - 2 * row
                for j, c in enumerate(wick.wick_change_of_variance_coeffs(deg, va, vb)):
                    fw[row + j, row] = c
                for j, c in enumerate(wick.wick_change_of_variance_coeffs(deg, vb, va)):
                    bw[row + j, row] = c
            scale = max(1.0, float(np.max(np.abs(fw))), float(np.max(np.abs(bw))))
            dev = float(np.max(np.abs(bw @ fw - np.eye(size)))) / scale
            tally.add(tol - dev, lambda: f"k={k} va={va} vb={vb}: deviation {dev:.3e}")
    return tally.report()


def check_wick_decay_slope(kappa1: int = 20) -> CheckReport:
    """Cutoff discrepancies shrink geometrically: fitted decay rate positive."""
    tally = Margins("wick_decay_slope")
    for q, bh in ((3, Fraction(1)), (3, Fraction(2))):
        params = params_for(q, bh)
        region = Region(q=q, ambient_level=0, ball_level=0, balls=(BallAddress(0, 0, ()),))
        lattice = refine(region, 0)
        g = np.ones(1)
        orders = (2, 3, 4)
        table = wick.wick_l2_decay(params, kappa1, range(1, 11), orders, lattice, g)
        for k, values in zip(orders, table):
            logs = np.log(values)
            slope = np.polyfit(np.arange(1, 11), logs, 1)[0]
            tau = -slope / math.log(q)
            tally.add(tau, lambda: f"q={q} bh={bh} k={k}: tau_hat = {tau:.4f} <= 0", strict=True)
    return tally.report()


def check_wick_lower_bound(seed: int, n_draws: int = 100_000) -> CheckReport:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tally = Margins("wick_lower_bound")
    polys = [
        wick.WickPolynomial((0.0, 0.0, 1.0)),
        wick.WickPolynomial((0.5, -1.0, 0.0, 0.0, 1.0)),
        wick.WickPolynomial((0.0, 2.0, -3.0, 0.0, 0.2, 0.0, 0.05)),
    ]
    for poly in polys:
        for variance in (0.0, 0.7, 2.5):
            bound = wick.wick_poly_cell_bound(poly, variance)
            x = rng.standard_normal(n_draws) * (3.0 + 2.0 * variance)
            vals = wick.wick_poly_eval(poly, x[:, None], np.ones(1), np.array([variance]))
            margin = float(vals.min() - bound)
            tally.add(margin, lambda: f"poly deg {poly.degree} var {variance}: "
                      f"violated by {-margin:.3e}")
    return tally.report()


def _default_case(nu: int):
    """At params_for(3, 2), the covariance matrix and the free cell variance of the level-0
    cells of balls 0..nu-1 of the amb = 1 tree."""
    params = params_for(3, Fraction(2))
    region = parse_region("amb=1;k=0;balls=" + ",".join(map(str, range(nu))), 3)
    m = lat.covariance_matrix(lat.precision_matrix(refine(region, 0), params))
    return m, model.free_cell_variance(params, 0)


def check_free_reduction(seed: int, n_samples: int = 20_000) -> CheckReport:
    """With g = 0 the estimator must reproduce the Gaussian covariance."""
    m, var = _default_case(3)
    poly = wick.WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
    tally = Margins("free_reduction_mc")
    for i, j in ((0, 0), (0, 1), (1, 2)):
        src = sampler.SourceSpec(g=np.zeros(3), h_list=(np.eye(3)[i], np.eye(3)[j]))
        est = sampler.schwinger_mc(m, poly, src, seed + 10 * i + j, n_samples, var)
        gap = abs(est.value - m.entries[i, j])
        tally.add(4.0 * est.std_error - gap, lambda: f"pair ({i},{j}): gap {gap:.3e} > 4 se")
    return tally.report()


def check_griffiths_quadrature() -> CheckReport:
    m, var = _default_case(2)
    poly = wick.WickPolynomial((0.0, -0.5, 0.0, 0.0, 1.0))
    src = sampler.SourceSpec(g=np.full(2, 0.2), h_list=())
    report = sampler.griffiths_check(m, poly, src, "quadrature", var)
    return replace(report, check="griffiths_quadrature")


def check_schwinger_monotonicity() -> CheckReport:
    params = params_for(3, Fraction(2))
    big, small = (parse_region(f"amb=1;k=0;balls={balls}", 3) for balls in ("0,1,2", "0,1"))
    poly = wick.WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
    src = sampler.SourceSpec(g=np.full(2, 0.1), h_list=(np.eye(2)[0], np.eye(2)[1]))
    cmp = sampler.monotonicity_experiment(small, big, 0, params, poly, src, "quadrature")
    return cmp.report()


def check_partition_stability(seed: int) -> CheckReport:
    m, var = _default_case(1)
    poly = wick.WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
    src = sampler.SourceSpec(g=np.ones(1), h_list=())
    result = sampler.partition_stability(m, poly, src, var, seed=seed, n_samples=20_000)
    return result.report()


def check_mc_quadrature_agreement(seed: int, n_samples: int = 20_000) -> CheckReport:
    m, var = _default_case(2)
    poly = wick.WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
    src = sampler.SourceSpec(g=np.full(2, 0.1), h_list=(np.eye(2)[0], np.eye(2)[1]))
    q_est = sampler.schwinger_quadrature(m, poly, src, var)
    mc_est = sampler.schwinger_mc(m, poly, src, seed, n_samples, var)
    gap = abs(q_est.value - mc_est.value)
    tally = Margins("mc_quadrature_agreement")
    tally.add(4.0 * mc_est.std_error - gap, lambda: f"gap {gap:.3e} beyond 4 se")
    return tally.report()


def run_verify(seed: int) -> list[CheckReport]:
    """The full check battery, deterministically derived from one seed."""
    ss = np.random.SeedSequence(seed)
    subs = [int(s.generate_state(1)[0]) for s in ss.spawn(8)]
    return [
        check_omega_consistency(),
        check_resolvent_ball_bound(),
        check_resolvent_tail_bound(),
        check_green_nonnegative(),
        check_green_increment_identity(),
        check_variance_ball_identity(),
        check_lattice_structure(subs[0]),
        check_restriction_identity(subs[1]),
        check_monotonicity(subs[2]),
        check_wick_recursion(),
        check_wick_orthogonality(),
        check_wick_change_roundtrip(),
        check_wick_decay_slope(),
        check_wick_lower_bound(subs[3]),
        check_free_reduction(subs[4]),
        check_griffiths_quadrature(),
        check_schwinger_monotonicity(),
        check_partition_stability(subs[5]),
        check_mc_quadrature_agreement(subs[6]),
    ]
