"""Shell calculus, resolvent integrals, Green functions, free covariance.

Frozen expected values were computed with a 40-digit literal shell-series
oracle (mpmath); the same series logic, in float form, lives in oracles.py
and is re-checked here against the library's truncation strategy.
"""

import dataclasses
import math
import time
from fractions import Fraction

import pytest

from padicqft.model import (
    PRIME_TEST_BOUND,
    FieldParams,
    _is_odd_prime,
    c_kappa_sq,
    character_shell_integral,
    free_cell_variance,
    free_covariance_entry,
    green_function,
    green_regularized,
    green_regularized_increment,
    resolvent_ball_bound_constant,
    resolvent_tail_bound_constant,
    resolvent_ball_integral,
    resolvent_tail_integral,
    shell_measure,
    symbol_a,
    vladimirov_omega,
    vladimirov_omega_const,
)
from padicqft.ultrametric import SAME

import oracles

# q = 3, beta_hat = 2, gamma = 1, m^2 = 1 reference values (40-digit oracle)
C0_SQ = 0.6435059757924683
C_MINUS1_SQ = 0.31017264245913496
GREEN_AT_1 = 0.5435059757924683
GREEN_AT_3 = 0.1435059757924683
GREEN_AT_9 = 0.010172642459134965
TAIL_K1_B2 = 0.020927405755777306


def params(p=3, n=1, alpha=1, m_sq=1.0, gamma=1.0, omega=None):
    return FieldParams(p=p, n=n, alpha=Fraction(alpha), m_sq=m_sq, gamma_const=gamma,
                       omega_const=omega)


class TestFieldParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            params(p=4)
        with pytest.raises(ValueError):
            params(p=2)
        with pytest.raises(ValueError):
            FieldParams(p=3, n=5, alpha=Fraction(3), m_sq=1.0)
        with pytest.raises(ValueError):
            params(alpha=Fraction(1, 4))  # below n/2
        with pytest.raises(ValueError):
            params(m_sq=0.0)
        with pytest.raises(ValueError):
            params(gamma=-1.0)
        with pytest.raises(ValueError):
            params(omega=0.5)

    def test_odd_prime_test_divides(self):
        # the odd composites reach the Miller-Rabin loop, the odd primes pass it
        assert not any(_is_odd_prime(p) for p in (9, 15, 21, 25, 49, 2, 1, 0, -3))
        assert all(_is_odd_prime(p) for p in (3, 5, 7, 11, 13, 47, 53))
        with pytest.raises(ValueError, match="odd prime, got 25"):
            params(p=25)

    def test_odd_prime_test_agrees_with_a_sieve(self):
        n = 200_000
        prime = bytearray([0, 0]) + bytearray([1]) * (n - 2)
        for f in range(2, math.isqrt(n) + 1):  # strike every multiple of each prime <= sqrt n
            if prime[f]:
                prime[f * f :: f] = bytes(len(range(f * f, n, f)))
        assert [p for p in range(n) if _is_odd_prime(p)] == [p for p in range(3, n, 2) if prime[p]]

    def test_odd_prime_test_rejects_pseudoprimes(self):
        carmichael = (561, 1105, 41041)
        # strong pseudoprimes to the prime bases up to 2, 7, 23 and 37
        strong = (2047, 3215031751, 3825123056546413051, 318665857834031151167461)
        assert not any(_is_odd_prime(p) for p in carmichael + strong)

    def test_odd_prime_test_is_fast_below_its_bound_and_refuses_above(self):
        start = time.perf_counter()
        assert params(p=10**18 + 3).p == 10**18 + 3
        assert time.perf_counter() - start < 0.1
        assert _is_odd_prime(PRIME_TEST_BOUND - 168)  # the largest prime below the bound
        for p in (PRIME_TEST_BOUND, 2**89 - 1):  # the bound itself, then a Mersenne prime
            with pytest.raises(ValueError, match="the prime test's bound"):
                _is_odd_prime(p)
            with pytest.raises(ValueError, match="the prime test's bound"):
                params(p=p)

    def test_derived(self):
        p = FieldParams(p=5, n=2, alpha=Fraction(3), m_sq=2.0)
        assert p.q == 25
        assert p.beta_hat == 3
        assert not p.is_log_case
        assert FieldParams(p=3, n=2, alpha=Fraction(1), m_sq=1.0).is_log_case

    def test_omega_auto_resolution(self):
        p = params()
        assert math.isclose(p.omega_const, -108.0 / 13.0, rel_tol=1e-14)

    def test_float_constants_follow_the_fields(self):
        p = params()
        assert (p.q_float, p.beta_hat_float, p.shell_factor) == (3.0, 2.0, 1.0 - 1.0 / 3.0)
        p5 = dataclasses.replace(p, p=5)
        assert (p5.q_float, p5.beta_hat_float, p5.shell_factor) == (5.0, 2.0, 1.0 - 1.0 / 5.0)
        p_alpha = dataclasses.replace(p, alpha=Fraction(3, 4))
        assert (p_alpha.q_float, p_alpha.beta_hat_float) == (3.0, 1.5)
        p_n = dataclasses.replace(p, n=2, alpha=Fraction(3))
        assert (p_n.q_float, p_n.beta_hat_float, p_n.shell_factor) == (9.0, 3.0, 1.0 - 1.0 / 9.0)

    def test_float_constants_stay_out_of_eq_hash_and_repr(self):
        a = FieldParams(p=3, n=1, alpha=Fraction(1), m_sq=1.0)
        b = FieldParams(p=3, n=1, alpha=1, m_sq=1.0)
        assert a == b and hash(a) == hash(b)
        object.__setattr__(b, "q_float", 99.0)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "FieldParams(p=3, n=1, alpha=Fraction(1, 1), m_sq=1.0, gamma_const=1.0, "
            "omega_const=-8.307692307692307)"
        )
        assert repr(FieldParams(5, 2, Fraction(3, 2), 0.5, 2.0, -1.5)) == (
            "FieldParams(p=5, n=2, alpha=Fraction(3, 2), m_sq=0.5, gamma_const=2.0, "
            "omega_const=-1.5)"
        )


# q in {3, 5, 9, 25} x beta_hat in {1, 3/2, 2, 3} x (m^2, gamma) in {(1, 1), (0.5, 2)}
PER_TERM_GRID = [
    FieldParams(p=p, n=n, alpha=Fraction(bh) * n / 2, m_sq=m_sq, gamma_const=gamma)
    for p, n in ((3, 1), (5, 1), (3, 2), (5, 2))
    for bh in (1, Fraction(3, 2), 2, 3)
    for m_sq, gamma in ((1.0, 1.0), (0.5, 2.0))
]


class TestPerTermForm:
    """The hoisted float constants give exactly the per-term-conversion values."""

    def test_ball_integral(self):
        for p in PER_TERM_GRID:
            for kappa in (-3, 0, 1, 5, 12):
                for beta in (0.5, 1.0, 2.0):
                    for tol in (1e-12, 1e-6):
                        got = resolvent_ball_integral(p, kappa, beta, tol)
                        want = oracles.per_term_ball_integral(p, kappa, beta, tol)
                        assert got == want, (p, kappa, beta, tol)

    def test_tail_integral(self):
        for p in PER_TERM_GRID:
            for kappa in (-2, 1, 4):
                for beta in (0.75, 1.0, 1.5, 3.0):
                    if float(p.beta_hat) * beta <= 1:
                        continue
                    for tol in (1e-12, 1e-6):
                        got = resolvent_tail_integral(p, kappa, beta, tol)
                        want = oracles.per_term_tail_integral(p, kappa, beta, tol)
                        assert got == want, (p, kappa, beta, tol)

    def test_green_function(self):
        for p in PER_TERM_GRID:
            for d in (SAME, -12, -4, -1, 0, 1, 3, 8):
                if d == SAME and p.is_log_case:
                    continue
                for tol in (1e-12, 1e-6):
                    assert green_function(p, d, tol) == oracles.per_term_green(p, d, tol), (p, d)

    def test_green_regularized_increment(self):
        for p in PER_TERM_GRID:
            for kappa1, kappa2 in ((20, 1), (5, -3), (3, 3), (0, -8)):
                for d in (SAME, -6, -1, 0, 2, 5):
                    got = green_regularized_increment(p, kappa1, kappa2, d)
                    want = oracles.per_term_green_increment(p, kappa1, kappa2, d)
                    assert got == want, (p, kappa1, kappa2, d)


class TestShellMeasure:
    def test_values(self):
        assert shell_measure(params(), 2) == pytest.approx(6.0, rel=1e-15)
        assert shell_measure(params(), 0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert shell_measure(params(p=5), -1) == pytest.approx(4.0 / 25.0, rel=1e-15)


class TestSymbol:
    def test_values(self):
        assert symbol_a(params(), 0) == 1.0
        assert symbol_a(params(), 2) == pytest.approx(81.0, rel=1e-15)
        p = FieldParams(p=3, n=2, alpha=Fraction(1), m_sq=1.0, gamma_const=2.0)
        assert p.beta_hat == 1
        assert symbol_a(p, -1) == pytest.approx(2.0 / 9.0, rel=1e-15)


class TestCharacterShellIntegral:
    def test_zero_point_reduces_to_shell_measure(self):
        p = params()
        for m in (-2, 0, 3):
            assert character_shell_integral(p, m, SAME) == shell_measure(p, m)

    @pytest.mark.parametrize("q", [3, 5])
    def test_against_brute_force_sums(self, q):
        p = params(p=q)
        for m in range(-2, 4):
            for d in [SAME] + list(range(-2, 4)):
                want = oracles.shell_character_integral(q, m, d)
                got = character_shell_integral(p, m, d)
                assert got == pytest.approx(want, abs=1e-9), (m, d)

    def test_unit_part_irrelevant(self):
        # the brute-force sum with a different unit multiplier agrees
        for unit in (1, 2, 4):
            assert oracles.shell_character_integral(3, 0, 1, unit) == pytest.approx(
                -1.0 / 3.0, abs=1e-9
            )
            assert oracles.shell_character_integral(3, 1, 1, unit) == pytest.approx(0.0, abs=1e-9)


class TestResolventBallIntegral:
    def test_frozen_value(self):
        assert resolvent_ball_integral(params(), 0, 1.0) == pytest.approx(C0_SQ, rel=1e-11)

    def test_large_mass_bound(self):
        # integrand is at most 1/m^2, ball has measure q^kappa
        value = resolvent_ball_integral(params(m_sq=1e6), 0, 1.0)
        assert value < 2e-6

    def test_log_case_increments(self):
        # alpha = n/2: consecutive increments approach (1 - 1/q)/gamma
        p = params(alpha=Fraction(1, 2))
        inc = c_kappa_sq(p, 25) - c_kappa_sq(p, 24)
        assert inc == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_matches_series_oracle(self):
        for q, bh, gamma, m_sq in ((3, 2.0, 1.0, 1.0), (5, 1.5, 2.0, 0.7), (3, 1.0, 1.0, 2.0)):
            p = FieldParams(p=q, n=1, alpha=Fraction(bh) / 2, m_sq=m_sq, gamma_const=gamma)
            for kappa in (-3, 0, 2, 8):
                for beta in (1.0, 2.0):
                    want = oracles.series_ball_integral(q, bh, gamma, m_sq, kappa, beta)
                    got = resolvent_ball_integral(p, kappa, beta)
                    assert got == pytest.approx(want, rel=1e-10), (q, kappa, beta)

    def test_monotone_in_kappa(self):
        p = params()
        values = [c_kappa_sq(p, k) for k in range(-5, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_ball_bound_constant(self):
        # c_kappa^2 <= (m^-2 + gamma^-1 (1-1/q)) kappa for kappa >= 1
        p = params(alpha=Fraction(1, 2))
        c1 = resolvent_ball_bound_constant(p)
        for kappa in range(1, 31):
            assert c_kappa_sq(p, kappa) <= c1 * kappa


class TestResolventTailIntegral:
    def test_frozen_value_and_bound(self):
        value = resolvent_tail_integral(params(), 1, 2.0)
        assert value == pytest.approx(TAIL_K1_B2, rel=1e-11)
        # geometric-series bound dropping m^2: (1-1/3) 3^-3 / (1-3^-3)
        assert value <= (2.0 / 3.0) * 3.0**-3 / (1 - 3.0**-3) + 1e-15
        assert math.isclose((2.0 / 3.0) * 3.0**-3 / (1 - 3.0**-3), 1.0 / 39.0, rel_tol=1e-14)

    def test_successive_ratio(self):
        # term-wise geometric domination: the first-shell ratio
        # rho_kappa = q ((a_kappa + m^2)/(a_{kappa+1} + m^2))^beta dominates
        # every later term ratio, so tail(kappa+1) <= rho_kappa tail(kappa);
        # rho_kappa decreases to q^-(beta_hat beta - 1) as the mass term fades.
        p = params()
        beta = 2.0
        limit = 3.0 ** -(float(p.beta_hat) * beta - 1.0)
        prev_rho = math.inf
        prev = resolvent_tail_integral(p, 1, beta)
        for kappa in range(2, 10):
            a_lo = symbol_a(p, kappa - 1) + p.m_sq
            a_hi = symbol_a(p, kappa) + p.m_sq
            rho = 3.0 * (a_lo / a_hi) ** beta
            cur = resolvent_tail_integral(p, kappa, beta)
            assert cur <= rho * prev * (1 + 1e-12)
            assert limit <= rho <= prev_rho
            prev, prev_rho = cur, rho
        assert prev_rho == pytest.approx(limit, rel=1e-3)

    def test_divergence_boundary_rejected(self):
        with pytest.raises(ValueError):
            resolvent_tail_integral(params(alpha=Fraction(1, 2)), 1, 1.0)

    @pytest.mark.parametrize("beta", [0.50001, 0.501])
    def test_overflow_near_the_divergence_boundary_is_typed(self, beta):
        # beta_hat * beta just above 1: the powers overflow before the tail bound falls under tol
        match = rf"resolvent_tail_integral: .* kappa = 1, beta = {beta} \(beta_hat \* beta = "
        with pytest.raises(OverflowError, match=match):
            resolvent_tail_integral(params(), 1, beta)

    def test_matches_series_oracle(self):
        p = params()
        for kappa in (0, 1, 3, 18, 30):
            for beta in (1.5, 2.0, 3.0):
                want = oracles.series_tail_integral(3, 2.0, 1.0, 1.0, kappa, beta)
                # abs=0: the tails at kappa = 18 and 30 are far below approx's default 1e-12
                got = resolvent_tail_integral(p, kappa, beta)
                assert got == pytest.approx(want, rel=1e-10, abs=0.0), (kappa, beta)

    def test_tail_bound_constant(self):
        p = params()
        for beta in (1.5, 2.0, 3.0):
            c2 = resolvent_tail_bound_constant(p, beta)
            bb = float(p.beta_hat) * beta
            for kappa in range(1, 20):
                bound = c2 * 3.0 ** (-kappa * (bb - 1.0))
                assert resolvent_tail_integral(p, kappa, beta) <= bound * (1 + 1e-12)


class TestVladimirovOmega:
    def test_frozen_values(self):
        assert vladimirov_omega(params()) == pytest.approx(-108.0 / 13.0, rel=1e-14)
        assert vladimirov_omega_const(3, 1.0, 1.0) == pytest.approx(-9.0 / 4.0, rel=1e-14)

    def test_small_exponent_limit(self):
        assert abs(vladimirov_omega_const(3, 1e-9, 1.0)) < 1e-8

    def test_solves_consistency_identity(self):
        # solve the two-representation identity numerically and compare;
        # exponents are combined per term so neither factor overflows
        for q in (3, 5, 9, 25):
            for bh in (0.5, 1.0, 2.0, 3.0):
                spectral = sum(
                    (1.0 - 1.0 / q) * float(q) ** (m * (bh + 1.0)) for m in range(0, -200, -1)
                )
                kernel_mass = sum(
                    (1.0 - 1.0 / q) * float(q) ** (-m * bh) for m in range(1, 400)
                )
                solved = -spectral / kernel_mass
                assert vladimirov_omega_const(q, bh, 1.0) == pytest.approx(solved, rel=1e-12)


class TestGreenFunction:
    def test_frozen_values(self):
        p = params()
        assert green_function(p, 0) == pytest.approx(GREEN_AT_1, rel=1e-11)
        assert green_function(p, 1) == pytest.approx(GREEN_AT_3, rel=1e-11)
        assert green_function(p, 2) == pytest.approx(GREEN_AT_9, rel=1e-11)

    def test_matches_series_oracle(self):
        for q, bh in ((3, 2.0), (5, 1.5), (3, 1.0)):
            p = FieldParams(p=q, n=1, alpha=Fraction(bh) / 2, m_sq=1.0)
            for d in range(-6, 7):
                want = oracles.series_green(q, bh, 1.0, 1.0, d)
                assert green_function(p, d) == pytest.approx(want, rel=1e-9), (q, bh, d)

    def test_nonnegative_everywhere(self):
        for q, bh in ((3, 1.0), (3, 2.0), (5, 1.5), (9, 3.0)):
            pmap = {3: (3, 1), 5: (5, 1), 9: (3, 2)}
            pp, nn = pmap[q]
            p = FieldParams(p=pp, n=nn, alpha=Fraction(bh) * nn / 2, m_sq=1.0)
            for d in range(-30, 31):
                assert green_function(p, d) >= 0.0

    @pytest.mark.parametrize("d", [-240, -250, -300, -320])
    def test_overflow_is_typed_not_nan(self, d):
        # the first terms' numerator and denominator both overflow to inf here
        with pytest.raises(OverflowError, match=f"d = {d}"):
            green_function(params(), d)

    def test_overflow_from_the_power_is_typed(self):
        with pytest.raises(OverflowError, match="d = -330"):
            green_function(params(), -330)

    def test_origin_log_case_is_designated_infinity(self):
        assert green_function(params(alpha=Fraction(1, 2)), SAME) == math.inf

    def test_origin_finite_above_log_case(self):
        p = params()
        value = green_function(p, SAME)
        want = oracles.series_ball_integral(3, 2.0, 1.0, 1.0, 0) + oracles.series_tail_integral(
            3, 2.0, 1.0, 1.0, 1, 1.0
        )
        assert value == pytest.approx(want, rel=1e-10)

    def test_log_singularity_rate(self):
        # alpha = n/2: E(q^-d)/d approaches (1 - 1/q)/gamma
        p = params(alpha=Fraction(1, 2))
        for d, tol in ((20, 2e-2), (60, 1e-4)):
            assert green_function(p, -d) / d == pytest.approx(2.0 / 3.0, rel=tol)

    def test_power_decay(self):
        # E(q^d) q^(d(beta_hat+1)) stays bounded (and converges) as d grows
        p = params()
        scaled = [green_function(p, d) * 3.0 ** (d * 3.0) for d in range(5, 25)]
        assert max(scaled) < 10.0
        assert scaled[-1] == pytest.approx(scaled[-2], rel=1e-4)


class TestGreenRegularized:
    def test_constant_inside_cutoff_scale(self):
        p = params()
        for kappa in (-2, 0, 3):
            plateau = c_kappa_sq(p, kappa)
            for d in [SAME] + list(range(-8, -kappa + 1)):
                if d != SAME and d > -kappa:
                    continue
                assert green_regularized(p, kappa, d) == pytest.approx(plateau, rel=1e-12)

    def test_pointwise_limit_to_green(self):
        p = params()
        for d in (-2, 0, 2):
            assert green_regularized(p, 40, d) == pytest.approx(green_function(p, d), rel=1e-12)

    def test_dominated_by_plateau(self):
        p = params()
        for kappa in (0, 2, 5):
            cap = c_kappa_sq(p, kappa)
            for d in range(-6, 7):
                assert green_regularized(p, kappa, d) <= cap * (1 + 1e-12)

    def test_increment_identity(self):
        p = params()
        for kappa in range(-3, 7):
            for d in [SAME] + list(range(-5, 6)):
                lhs = green_regularized(p, kappa, d, 1e-15) - green_regularized(
                    p, kappa - 1, d, 1e-15
                )
                rhs = character_shell_integral(p, kappa, d) / (symbol_a(p, kappa) + p.m_sq)
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_increment_helper_matches(self):
        p = params()
        for k1, k2 in ((5, 2), (3, -1), (0, 0)):
            for d in [SAME] + list(range(-4, 5)):
                want = green_regularized(p, k1, d, 1e-15) - green_regularized(p, k2, d, 1e-15)
                got = green_regularized_increment(p, k1, k2, d)
                assert got == pytest.approx(want, rel=1e-10, abs=5e-14)

    def test_matches_series_oracle(self):
        p = params()
        for kappa in (-2, 0, 1, 4):
            for d in range(-5, 6):
                want = oracles.series_green_regularized(3, 2.0, 1.0, 1.0, kappa, d)
                assert green_regularized(p, kappa, d) == pytest.approx(want, rel=1e-9, abs=1e-14)


class TestFreeCovariance:
    def test_frozen_variance(self):
        assert free_cell_variance(params(), 0) == pytest.approx(C0_SQ, rel=1e-11)

    def test_frozen_off_entry(self):
        got = free_covariance_entry(params(), 0, 1)
        assert got == pytest.approx(GREEN_AT_3, rel=1e-11)
        assert got == pytest.approx(C_MINUS1_SQ - 1.0 / 6.0, rel=1e-9)

    def test_decay_to_zero(self):
        p = params()
        values = [free_covariance_entry(p, 0, d) for d in range(1, 15)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12

    def test_matches_series_oracle(self):
        for l in (-2, 0, 2):
            for d in [SAME] + list(range(l + 1, l + 6)):
                want = oracles.series_covariance_entry(3, 2.0, 1.0, 1.0, l, d)
                got = free_covariance_entry(params(), l, d)
                assert got == pytest.approx(want, rel=1e-9), (l, d)

    def test_variance_scaling_identity(self):
        # sigma_l^2 = q^l * (ball integral up to q^-l), the closed identity
        p = params()
        for l in range(-3, 4):
            lhs = free_cell_variance(p, l)
            rhs = 3.0**l * resolvent_ball_integral(p, -l, 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)
