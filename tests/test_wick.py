"""Normal-ordered powers, the change of variance, lower bounds, L2 decay."""

import decimal
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicqft.wick
from padicqft import cli
from padicqft.model import (
    FieldParams,
    c_kappa_sq,
    green_regularized,
    green_regularized_increment,
    shell_measure,
)
from padicqft.ultrametric import BallAddress, Region, parse_region, refine
from padicqft.verify import check_wick_decay_slope, params_for, random_region_with_level
from padicqft.wick import (
    EVAL_BLOCK_VALUES,
    WickPolynomial,
    _ordered_monomial_coeffs,
    wick_change_of_variance,
    wick_change_of_variance_coeffs,
    wick_coefficients,
    wick_l2_decay,
    wick_l2_distance,
    wick_poly_cell_bound,
    wick_poly_eval,
    wick_poly_lower_bound,
    wick_power,
    wick_unpower,
)

import oracles


def single_cell_lattice(q=3):
    region = Region(q=q, ambient_level=0, ball_level=0, balls=(BallAddress(0, 0, ()),))
    return refine(region, 0)


class TestCoefficients:
    def test_low_orders(self):
        assert wick_coefficients(0).coefficients == (1,)
        assert wick_coefficients(2).coefficients == (1, -1)
        assert wick_coefficients(4).coefficients == (1, -6, 3)
        assert wick_coefficients(6).coefficients == (1, -15, 45, -15)

    def test_leading_is_one(self):
        for k in range(20):
            assert wick_coefficients(k).coefficients[0] == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            wick_coefficients(41)
        with pytest.raises(ValueError):
            wick_coefficients(-1)

    def test_hermite_recursion_exact(self):
        # :X^{k+1}: = X :X^k: - k c^2 :X^{k-1}: as integer coefficient identity
        for k in range(1, 40):
            nxt = wick_coefficients(k + 1).coefficients
            cur = wick_coefficients(k).coefficients
            prev = wick_coefficients(k - 1).coefficients
            for j in range(len(nxt)):
                x_part = cur[j] if j < len(cur) else 0
                v_part = prev[j - 1] if 1 <= j <= len(prev) else 0
                assert nxt[j] == x_part - k * v_part


class TestWickPower:
    def test_zero_variance_is_plain_power(self):
        for k in range(8):
            assert wick_power(1.7, k, 0.0) == pytest.approx(1.7**k, rel=1e-14)

    def test_even_power_at_origin(self):
        v = 0.83
        assert wick_power(0.0, 4, v) == pytest.approx(3 * v * v, rel=1e-14)
        assert wick_power(0.0, 2, v) == pytest.approx(-v, rel=1e-14)

    def test_recursion_on_grid(self):
        v = 1.3
        for k in range(1, 12):
            for x in np.linspace(-3, 3, 41):
                lhs = wick_power(x, k + 1, v)
                rhs = x * wick_power(x, k, v) - k * v * wick_power(x, k - 1, v)
                scale = max(1.0, abs(x) ** (k + 1), (k * v) ** ((k + 1) / 2))
                assert abs(lhs - rhs) <= 1e-12 * scale

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            wick_power(1.0, 2, -0.5)

    def test_gaussian_mean_vanishes_mc(self):
        rng = np.random.default_rng(0)
        sigma_sq = 1.9
        x = rng.standard_normal(1_000_000) * math.sqrt(sigma_sq)
        for k in range(1, 5):
            vals = wick_power(x, k, sigma_sq)
            se = vals.std() / math.sqrt(len(vals))
            assert abs(vals.mean()) <= 3.0 * se

    def test_gaussian_orthogonality_mc_and_quadrature(self):
        rng = np.random.default_rng(1)
        sigma_sq = 0.8
        x = rng.standard_normal(1_000_000) * math.sqrt(sigma_sq)
        gh_x, gh_w = np.polynomial.hermite.hermgauss(24)
        t = math.sqrt(2 * sigma_sq) * gh_x
        for j in range(5):
            for k in range(5):
                want = math.factorial(k) * sigma_sq**k if j == k else 0.0
                prod = wick_power(x, j, sigma_sq) * wick_power(x, k, sigma_sq)
                se = prod.std() / math.sqrt(len(prod))
                assert abs(prod.mean() - want) <= 4.0 * se + 1e-12
                quad = float(
                    (gh_w * wick_power(t, j, sigma_sq) * wick_power(t, k, sigma_sq)).sum()
                ) / math.sqrt(math.pi)
                assert abs(quad - want) <= 1e-8 * max(1.0, abs(want))


class TestUnpower:
    @given(st.integers(0, 8), st.floats(-10, 10), st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, k, x, v):
        # tolerance scales with the alternating sums' term magnitudes
        scale = 1.0
        for j in range(k // 2 + 1):
            c = math.factorial(k) // (2**j * math.factorial(j) * math.factorial(k - 2 * j))
            scale = max(scale, c * max(1.0, abs(x)) ** (k - 2 * j) * max(1.0, v) ** k)
        assert abs(wick_unpower(x, k, v) - x**k) <= 1e-12 * scale

    def test_inverse_of_power_k2(self):
        v = 0.77
        for x in (-2.0, 0.3, 5.5):
            assert wick_power(x, 2, v) + v == pytest.approx(x**2, rel=1e-13, abs=1e-13)

    def test_zero_variance_identity(self):
        for k in range(6):
            assert wick_unpower(2.1, k, 0.0) == pytest.approx(2.1**k, rel=1e-14)


class TestChangeOfVariance:
    def test_equal_variances_identity(self):
        for k in range(8):
            coeffs = wick_change_of_variance_coeffs(k, 1.3, 1.3)
            assert coeffs[0] == 1.0
            assert all(c == 0.0 for c in coeffs[1:])

    def test_k2_shift(self):
        # :X^2:_from = :X^2:_to + (var_to - var_from)
        va, vb = 0.4, 1.1
        for x in (-1.0, 0.0, 2.5):
            lhs = wick_change_of_variance(2, va, vb, x)
            rhs = wick_power(x, 2, vb) + (vb - va)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_value_agrees_with_direct_ordering(self):
        for k in range(1, 10):
            for va, vb in ((0.2, 1.9), (3.0, 0.0)):
                for x in (-2.2, 0.1, 1.7):
                    got = wick_change_of_variance(k, va, vb, x)
                    want = wick_power(x, k, va)
                    scale = max(1.0, abs(x) ** k, (1 + max(va, vb)) ** k * math.factorial(k))
                    assert abs(got - want) <= 1e-12 * scale

    def test_leading_coefficient_preserved(self):
        for k in range(1, 9):
            assert wick_change_of_variance_coeffs(k, 0.3, 2.0)[0] == 1.0

    def test_round_trip_composition_is_identity(self):
        for k in (2, 4, 7):
            va, vb = 0.6, 2.4
            size = k // 2 + 1
            fw = np.zeros((size, size))
            bw = np.zeros((size, size))
            for row in range(size):
                deg = k - 2 * row
                for j, c in enumerate(wick_change_of_variance_coeffs(deg, va, vb)):
                    fw[row + j, row] = c
                for j, c in enumerate(wick_change_of_variance_coeffs(deg, vb, va)):
                    bw[row + j, row] = c
            scale = max(1.0, np.max(np.abs(fw)), np.max(np.abs(bw)))
            assert np.max(np.abs(bw @ fw - np.eye(size))) <= 1e-12 * scale


class TestWickPolynomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            WickPolynomial(())
        with pytest.raises(ValueError):
            WickPolynomial((1.0, 0.0))  # trailing zero

    def test_semibounded_gate(self):
        WickPolynomial((0.0, 1.0)).degree
        with pytest.raises(ValueError):
            WickPolynomial((0.0, 1.0)).require_semibounded()
        with pytest.raises(ValueError):
            WickPolynomial((0.0, 0.0, -1.0)).require_semibounded()
        WickPolynomial((0.0, 0.0, 0.0, 0.0, 2.0)).require_semibounded()

    def test_ferromagnetic_form(self):
        q, lam = WickPolynomial((1.0, -0.5, 0.0, 0.0, 1.0)).ferromagnetic_form()
        assert lam == 0.5
        assert q.coeffs == (1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            WickPolynomial((0.0, 1.0, 0.0, 0.0, 1.0)).ferromagnetic_form()  # lambda < 0
        with pytest.raises(ValueError):
            WickPolynomial((0.0, 0.0, 0.0, 1.0, 1e-9, 0.0, 1.0)).ferromagnetic_form()

    def test_constants(self):
        poly = WickPolynomial((1.0, -4.0, 0.0, 0.0, 2.0))
        assert poly.coefficient_bound == 4.0
        assert poly.d_constant(0.5) == pytest.approx(
            2.0 * 0.5 * (1.0 + 3.0 ** (4 / 3)), rel=1e-13
        )


class TestPolyEval:
    def test_degree_one_is_weighted_sum(self):
        poly = WickPolynomial((0.0, 1.0))
        values = np.array([1.0, -2.0, 3.5])
        g = np.array([0.5, 1.0, 2.0])
        got = wick_poly_eval(poly, values, g, np.full(3, 7.7))
        assert got == pytest.approx(float(values @ g), rel=1e-14)

    def test_single_cell_square(self):
        poly = WickPolynomial((0.0, 0.0, 1.0))
        v = 0.9
        got = wick_poly_eval(poly, np.array([1.4]), np.ones(1), np.array([v]))
        assert got == pytest.approx(1.4**2 - v, rel=1e-14)

    def test_zero_weights_zero_value(self):
        poly = WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
        got = wick_poly_eval(poly, np.array([2.0, 3.0]), np.zeros(2), np.ones(2))
        assert got == 0.0

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        poly = WickPolynomial((0.5, -1.0, 2.0, 0.0, 1.0))
        t = rng.standard_normal((50, 4))
        g = rng.random(4)
        v = rng.random(4)
        batch = wick_poly_eval(poly, t, g, v)
        for i in range(50):
            assert batch[i] == pytest.approx(wick_poly_eval(poly, t[i], g, v), rel=1e-12)

    @pytest.mark.parametrize("eta", [1, 3, 27])
    def test_cell_sum_matches_fsum(self, eta):
        # positive terms (x >= 2, v <= 0.3, g > 0), so the relative error is the sum's own
        rng = np.random.default_rng(eta)
        poly = WickPolynomial((1.0, 0.0, 1.0, 0.0, 1.0))
        t = rng.uniform(2.0, 4.0, (500, eta))
        g = rng.uniform(0.1, 1.0, eta)
        v = rng.uniform(0.0, 0.3, eta)
        # one cell at unit weight is that cell's term exactly
        terms = np.stack(
            [wick_poly_eval(poly, t[:, [j]], np.ones(1), v[[j]]) for j in range(eta)], axis=1
        ) * g
        want = np.array([math.fsum(row) for row in terms])
        got = wick_poly_eval(poly, t, g, v)
        assert got.shape == (500,)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        for i in (0, 499):
            one = wick_poly_eval(poly, t[i], g, v)
            assert np.ndim(one) == 0 and one == pytest.approx(want[i], rel=1e-14, abs=0.0)
        t[7, eta - 1] = np.nan
        got = wick_poly_eval(poly, t, g, v)
        assert np.isnan(got[7]) and np.all(np.isfinite(np.delete(got, 7)))
        assert np.isnan(wick_poly_eval(poly, t[7], g, v))

    def test_infinite_entry(self):
        # Horner's rule starts from the top coefficient, so an infinite value is the
        # leading power's +inf; a cell of zero weight still makes 0 * inf = NaN
        poly = WickPolynomial((0.0, -0.5, 0.0, 0.0, 1.0))
        t = np.array([[np.inf, 1.0], [-np.inf, 1.0], [np.nan, 1.0], [1.0, 2.0]])
        for v in (0.0, 0.4):
            got = wick_poly_eval(poly, t, np.array([0.5, 0.5]), np.full(2, v))
            assert got[0] == got[1] == np.inf and np.isnan(got[2]) and np.isfinite(got[3])
            with np.errstate(invalid="ignore"):
                got = wick_poly_eval(poly, t, np.array([0.0, 0.5]), np.full(2, v))
            assert np.all(np.isnan(got[:3])) and np.isfinite(got[3])

    @pytest.mark.parametrize("eta", [1, 27, 54])
    def test_blocks_match_one_pass(self, eta):
        # bit for bit: each block of rows alone, and Horner's rule over all rows at once
        block = EVAL_BLOCK_VALUES // eta
        rng = np.random.default_rng(eta)
        poly = WickPolynomial((0.5, -1.0, 2.0, 0.0, 1.0))
        g, v = rng.random(eta), rng.random(eta)
        mono = np.array([_ordered_monomial_coeffs(poly, x) for x in v])
        for n in (1, block - 1, block, block + 1, 3 * block + 7):
            t = rng.standard_normal((n, eta))
            per_cell = np.zeros_like(t)
            for c in mono.T[::-1]:
                per_cell *= t
                per_cell += c
            got = wick_poly_eval(poly, t, g, v)
            assert np.array_equal(got, np.einsum("ij,j->i", per_cell, g)), n
            for lo in range(0, n, block):
                assert np.array_equal(got[lo : lo + block], wick_poly_eval(poly, t[lo : lo + block], g, v))
            one = wick_poly_eval(poly, t[-1], g, v)
            assert np.ndim(one) == 0 and one == got[-1]

    def test_length_mismatch(self):
        poly = WickPolynomial((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            wick_poly_eval(poly, np.ones(3), np.ones(2), np.ones(3))

    def test_matches_exact_rational_evaluation(self):
        # :x^k: from the recursion H_(k+1) = x H_k - k v H_(k-1), in exact arithmetic
        rng = np.random.default_rng(11)
        variances = np.array([0.0, 0.4, 2.5])
        g = np.array([0.7, 1.0, 1.3])
        t = 2.5 * rng.standard_normal((40, 3))
        for s in range(2, 13):
            poly = WickPolynomial(tuple(rng.uniform(-1.0, 1.0, s + 1)))
            got = wick_poly_eval(poly, t, g, variances)
            for row, value in zip(t, got):
                exact = Fraction(0)
                for x, v, gi in zip(map(Fraction, row), map(Fraction, variances), g):
                    h = [Fraction(1), x]
                    for k in range(1, s):
                        h.append(x * h[k] - k * v * h[k - 1])
                    exact += Fraction(gi) * sum(Fraction(a) * hj for a, hj in zip(poly.coeffs, h))
                assert abs(value - float(exact)) <= 1e-12 * max(1.0, abs(float(exact))), s


class TestLowerBound:
    def test_square_bound_exact(self):
        poly = WickPolynomial((0.0, 0.0, 1.0))
        assert wick_poly_lower_bound(poly, 1.0, 0.41) == pytest.approx(-0.41, rel=1e-14)

    def test_quartic_grid_oracle(self):
        poly = WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
        for v in (0.3, 1.0, 4.0):
            bound = wick_poly_cell_bound(poly, v)
            lo = -4 * (1 + v)
            grid_min = oracles.grid_minimum(
                lambda x: wick_power(x, 4, v), lo, -lo, points=40_001
            )
            assert grid_min >= bound

    def test_zero_variance_nonneg_poly(self):
        poly = WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
        assert wick_poly_lower_bound(poly, 2.0, 0.0) <= 0.0

    def test_rejects_bad_polynomials(self):
        with pytest.raises(ValueError):
            wick_poly_lower_bound(WickPolynomial((0.0, 1.0)), 1.0, 1.0)
        with pytest.raises(ValueError):
            wick_poly_lower_bound(WickPolynomial((0.0, 0.0, -1.0)), 1.0, 1.0)

    def test_never_violated_randomized(self):
        rng = np.random.default_rng(17)
        rand = random.Random(17)
        for _ in range(10):
            s = rand.choice((2, 4, 6))
            coeffs = [rand.uniform(-3, 3) for _ in range(s)] + [rand.uniform(0.1, 3)]
            poly = WickPolynomial(tuple(coeffs))
            v = rand.uniform(0, 3)
            bound = wick_poly_cell_bound(poly, v)
            x = rng.standard_normal(100_000) * (2.0 + v)
            vals = wick_poly_eval(poly, x[:, None], np.ones(1), np.array([v]))
            assert float(vals.min()) >= bound

    def test_scales_with_g_mass(self):
        poly = WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))
        b1 = wick_poly_lower_bound(poly, 1.0, 1.0)
        b3 = wick_poly_lower_bound(poly, 3.0, 1.0)
        assert b3 == pytest.approx(3 * b1, rel=1e-13)


class TestL2Distance:
    def params(self, bh=2):
        return FieldParams(p=3, n=1, alpha=Fraction(bh, 2), m_sq=1.0)

    def test_equal_cutoffs_zero(self):
        lat = single_cell_lattice()
        assert wick_l2_distance(self.params(), 5, 5, 3, lat, np.ones(1)) == 0.0

    def test_order_validated(self):
        lat = single_cell_lattice()
        with pytest.raises(ValueError):
            wick_l2_distance(self.params(), 2, 5, 2, lat, np.ones(1))

    def test_k1_plancherel_single_cell(self):
        # for k=1 and a single cell the pairing is the Fourier-side sum:
        # |g_hat|^2 = g^2 q^(2l) on the dual ball, so the cutoff difference
        # integrates the resolvent over the shells k2 < m <= min(k1, -l)
        p = self.params()
        for l in (-2, -1):
            region = Region(q=3, ambient_level=l, ball_level=l, balls=(BallAddress(l, l, ()),))
            lat = refine(region, l)
            g0 = 1.6
            for k1, k2 in ((2, 0), (1, -1), (4, 1), (5, 3)):
                got = wick_l2_distance(p, k1, k2, 1, lat, np.array([g0]))
                fourier = 0.0
                for m in range(k2 + 1, min(k1, -l) + 1):
                    fourier += oracles.shell(3, m) / (oracles.symbol(3, 2.0, 1.0, m) + 1.0)
                want = g0 * g0 * 3.0 ** (2 * l) * fourier
                assert got == pytest.approx(want, rel=1e-10, abs=1e-15), (l, k1, k2)

    def test_matches_series_oracle_k_up_to_4(self):
        p = self.params()
        region = Region(
            q=3, ambient_level=1, ball_level=0,
            balls=(BallAddress(1, 0, (0,)), BallAddress(1, 0, (2,))),
        )
        lat = refine(region, -1)
        g = np.array([0.3, 1.0, 0.7, 0.2, 0.5, 1.1])
        for k in (2, 3, 4):
            for k1, k2 in ((6, 2), (8, 5)):
                got = wick_l2_distance(p, k1, k2, k, lat, g)
                want = math.factorial(k) * oracles.series_l2_distance(
                    3, 2.0, 1.0, 1.0, k1, k2, k, -1, list(g), _dmat(lat)
                )
                assert got == pytest.approx(want, rel=1e-8, abs=0.0), (k, k1, k2)

    def test_equals_per_pair_loop_exactly(self):
        # each region and a twin listing its balls out of order, so the cells are unsorted
        rand, shuffler = random.Random(31), random.Random(32)
        bhs = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3))
        for i in range(24):
            q = (3, 5)[i % 2]
            region, l = random_region_with_level(rand, q, max_eta=60)
            p = params_for(q, bhs[i % 4])
            lat = refine(region, l)
            balls = list(region.balls)
            shuffler.shuffle(balls)
            twin = refine(replace(region, balls=tuple(balls)), l)
            g = np.array([rand.uniform(-1.0, 1.5) for _ in range(lat.eta)])
            k2 = rand.randint(-1, 3)
            k1 = k2 + rand.randint(1, 6)
            for lattice in (lat, twin):
                for k in (2, 3, 4):
                    got = wick_l2_distance(p, k1, k2, k, lattice, g)
                    assert got == _per_pair_l2_distance(p, k1, k2, k, lattice, g), (i, k)

    def test_nonincreasing_in_shared_cutoff(self):
        p = self.params()
        lat = single_cell_lattice()
        g = np.ones(1)
        for k in (2, 3, 4):
            values = [wick_l2_distance(p, 12, k2, k, lat, g) for k2 in range(0, 10)]
            assert all(v >= 0 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_decay_rate_positive(self):
        lat = single_cell_lattice()
        g = np.ones(1)
        for bh in (1, 2):
            p = self.params(bh)
            for k in (2, 3, 4):
                values = [wick_l2_distance(p, 20, k2, k, lat, g) for k2 in range(1, 11)]
                slope = np.polyfit(np.arange(1, 11), np.log(values), 1)[0]
                tau = -slope / math.log(3)
                assert tau > 0, (bh, k, tau)


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.ini"


def _counted(monkeypatch, name):
    """The argument tuples of every call to ``padicqft.wick.<name>``."""
    calls = []
    original = getattr(padicqft.wick, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(padicqft.wick, name, counting)
    return calls


class TestL2Decay:
    """The whole (k, kappa2) table from one Green table per call."""

    @pytest.mark.parametrize("q", [3, 5])
    @pytest.mark.parametrize("region", ["amb=0;k=0;balls=", "amb=2;k=0;balls=00,01,12"])
    def test_matches_series_oracle(self, q, region):
        # the oracle in 34 digits: for kappa2 well above -l the distance is about 1e-9 of its
        # terms, and a float double sum keeps only about 8 digits of it
        p = FieldParams(p=q, n=1, alpha=Fraction(1), m_sq=1.0)
        lat = refine(parse_region(region, q), 0)
        g = np.linspace(0.3, 1.4, lat.eta)
        orders, kappa2_values = (2, 3, 4), range(1, 11)
        table = wick_l2_decay(p, 20, kappa2_values, orders, lat, g)
        assert table.shape == (3, 10)
        with decimal.localcontext(prec=34):
            for row, k in zip(table, orders):
                for got, k2 in zip(row, kappa2_values):
                    want = math.factorial(k) * oracles.series_l2_distance(
                        q, 2.0, 1.0, 1.0, 20, k2, k, 0, list(g), _dmat(lat), floor=1e-28,
                        num=decimal.Decimal,
                    )
                    assert got == pytest.approx(float(want), rel=1e-8, abs=0.0), (k, k2)
                    assert got == wick_l2_distance(p, 20, k2, k, lat, g)

    def test_cli_wick_evaluates_each_green_value_once(self, monkeypatch, tmp_path):
        greens = _counted(monkeypatch, "green_regularized")
        increments = _counted(monkeypatch, "green_regularized_increment")
        assert cli.main(["wick", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path)]) == 0
        # 231 distinct (kappa, d) in the series sums and the d = SAME entries for
        # kappa = 20 and kappa2 = 1..10; one increment per (kappa2, d)
        assert len(greens) == len(set(greens)) == 242
        assert len(increments) == len(set(increments)) == 220

    def test_decay_slope_check_evaluates_each_green_value_once(self, monkeypatch):
        greens = _counted(monkeypatch, "green_regularized")
        assert check_wick_decay_slope().passed
        # two parameter sets of 231 arguments each; the arguments name the set
        assert len(greens) == len(set(greens)) == 2 * 231
        assert len({args[0] for args in greens}) == 2

    def test_order_validated_for_every_entry(self):
        lat = single_cell_lattice()
        p = FieldParams(p=3, n=1, alpha=Fraction(1), m_sq=1.0)
        with pytest.raises(ValueError, match="kappa1 must be >= kappa2"):
            wick_l2_decay(p, 5, [2, 6], [2], lat, np.ones(1))
        equal_cutoffs = wick_l2_decay(p, 5, [5, 5], [2, 3], lat, np.ones(1))
        assert np.array_equal(equal_cutoffs, np.zeros((2, 2)))


def _dmat(lat):
    eta = lat.eta
    return [[0 if i == j else int(lat.cell_distance(i, j)) for j in range(eta)] for i in range(eta)]


def _per_pair_l2_distance(params, kappa1, kappa2, k, lattice, g, tol=1e-12):
    """wick_l2_distance with its pair weights summed one cell pair at a time."""
    l = lattice.cell_level
    q = float(params.q)

    def power_diff(d):
        e1 = green_regularized(params, kappa1, d, tol)
        e2 = green_regularized(params, kappa2, d, tol)
        delta = green_regularized_increment(params, kappa1, kappa2, d)
        return delta * sum(e1**a * e2 ** (k - 1 - a) for a in range(k))

    total = 0.0
    by_distance = {}
    for i in range(lattice.eta):
        for j in range(i + 1, lattice.eta):
            d = int(lattice.cell_distance(i, j))
            by_distance[d] = by_distance.get(d, 0.0) + 2.0 * g[i] * g[j]
    for d, weight in sorted(by_distance.items()):
        total += weight * q ** (2 * l) * power_diff(d)
    c1 = c_kappa_sq(params, kappa1, tol)
    c2 = c_kappa_sq(params, kappa2, tol)
    inc = green_regularized_increment(params, kappa1, kappa2, -kappa1)
    m0 = min(l, -kappa1)
    same = q**m0 * inc * sum(c1**a * c2 ** (k - 1 - a) for a in range(k))
    for m in range(m0 + 1, l + 1):
        same += shell_measure(params, m) * power_diff(m)
    total += float(np.sum(g * g)) * q**l * same
    return max(math.factorial(k) * total, 0.0)
