"""Gaussian sampling, importance-weighted moments, inequality experiments."""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from padicqft.lattice import covariance_matrix, precision_matrix
from padicqft.model import FieldParams, free_cell_variance
from padicqft.sampler import (
    QuadratureError,
    SourceSpec,
    effective_sample_size,
    griffiths_check,
    interaction_weight,
    monotonicity_experiment,
    partition_function_mc,
    partition_function_quadrature,
    partition_stability,
    sample_field,
    schwinger_mc,
    schwinger_quadrature,
)
from padicqft.ultrametric import BallAddress, Region, parse_region, refine
from padicqft.verify import params_for, random_region_with_level
from padicqft.wick import WickPolynomial, wick_poly_lower_bound

import oracles

X4 = WickPolynomial((0.0, 0.0, 0.0, 0.0, 1.0))


def params():
    return FieldParams(p=3, n=1, alpha=Fraction(1), m_sq=1.0)


def chain_region(nu, q=3):
    return Region(q=q, ambient_level=1, ball_level=0,
                  balls=tuple(BallAddress(1, 0, (i,)) for i in range(nu)))


def chain_cov(nu, l=0):
    return covariance_matrix(precision_matrix(refine(chain_region(nu), l), params()))


@pytest.fixture(scope="module")
def cov2():
    return chain_cov(2)


@pytest.fixture(scope="module")
def cov3():
    return chain_cov(3)


VAR0 = None


def var0():
    global VAR0
    if VAR0 is None:
        VAR0 = free_cell_variance(params(), 0)
    return VAR0


class TestSampleField:
    def test_determinism(self, cov2):
        a = [s.values.copy() for s in sample_field(cov2, 123, 5)]
        b = [s.values.copy() for s in sample_field(cov2, 123, 5)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_provenance(self, cov2):
        samples = list(sample_field(cov2, 9, 3, chain=1))
        assert [s.index for s in samples] == [0, 1, 2]
        assert all(s.seed == 9 and s.chain == 1 for s in samples)

    def test_identity_covariance_unit_variance(self):
        p = params()
        lat = refine(chain_region(2), 0)
        n = precision_matrix(lat, replace_params_identity())
        m = covariance_matrix(n)
        t = np.stack([s.values for s in sample_field(m, 4, 10_000)])
        assert np.allclose(t.var(axis=0), 1.0, atol=0.05)

    def test_empirical_covariance_matches(self, cov3):
        t = np.stack([s.values for s in sample_field(cov3, 77, 100_000)])
        emp = t.T @ t / len(t)
        # entrywise within 5 standard errors of the sample second moments
        for i in range(3):
            for j in range(3):
                prods = t[:, i] * t[:, j]
                se = prods.std() / math.sqrt(len(t))
                assert abs(emp[i, j] - cov3.entries[i, j]) <= 5 * se

    def test_two_cell_correlation(self, cov2):
        t = np.stack([s.values for s in sample_field(cov2, 5, 100_000)])
        corr = np.corrcoef(t[:, 0], t[:, 1])[0, 1]
        want = cov2.entries[0, 1] / cov2.entries[0, 0]  # = 52/286
        assert abs(corr - want) < 0.015


def replace_params_identity():
    # mass-only model: unit precision, unit covariance
    return FieldParams(p=3, n=1, alpha=Fraction(1), m_sq=1.0, omega_const=0.0)


class TestInteractionWeight:
    def test_free_weight_is_one(self, cov2):
        s = next(sample_field(cov2, 1, 1))
        src = SourceSpec(g=np.zeros(2), h_list=())
        assert interaction_weight(s, X4, src, var0()) == 1.0

    def test_square_at_origin(self, cov2):
        sq = WickPolynomial((0.0, 0.0, 1.0))
        s = next(sample_field(cov2, 1, 1))
        s = replace(s, values=np.zeros(2))
        src = SourceSpec(g=np.array([1.0, 0.0]), h_list=())
        v = 0.83
        assert interaction_weight(s, sq, src, v) == pytest.approx(math.exp(v), rel=1e-12)

    def test_bounded_by_lower_bound(self, cov2):
        src = SourceSpec(g=np.full(2, 0.7), h_list=())
        cap = math.exp(-wick_poly_lower_bound(X4, float(src.g.sum()), var0()))
        for s in sample_field(cov2, 3, 200):
            assert 0.0 < interaction_weight(s, X4, src, var0()) <= cap

    def test_semibounded_required(self, cov2):
        s = next(sample_field(cov2, 1, 1))
        src = SourceSpec(g=np.zeros(2), h_list=())
        with pytest.raises(ValueError):
            interaction_weight(s, WickPolynomial((0.0, 1.0)), src, var0())


class TestSchwingerMC:
    def test_r0_exactly_one(self, cov2):
        src = SourceSpec(g=np.full(2, 0.3), h_list=())
        est = schwinger_mc(cov2, X4, src, 21, 1500, var0())
        assert est.value == 1.0
        assert est.method == "mc"

    def test_min_samples_enforced(self, cov2):
        src = SourceSpec(g=np.zeros(2), h_list=())
        with pytest.raises(ValueError):
            schwinger_mc(cov2, X4, src, 1, 999, var0())

    def test_free_two_point_reproduces_covariance(self, cov3):
        for i, j in ((0, 0), (0, 1), (1, 2)):
            src = SourceSpec(g=np.zeros(3), h_list=(np.eye(3)[i], np.eye(3)[j]))
            est = schwinger_mc(cov3, X4, src, 100 + i + 3 * j, 100_000, var0())
            assert abs(est.value - cov3.entries[i, j]) <= 4 * est.std_error

    def test_reflection_symmetry_one_point(self, cov2):
        # even interaction, lambda = 0: odd moments vanish
        src = SourceSpec(g=np.full(2, 0.2), h_list=(np.eye(2)[0],))
        est = schwinger_mc(cov2, X4, src, 31, 100_000, var0())
        assert abs(est.value) <= 3 * est.std_error

    def test_isserlis_four_point(self, cov2):
        h = np.array([1.0, 0.5])
        src2 = SourceSpec(g=np.zeros(2), h_list=(h, h))
        src4 = SourceSpec(g=np.zeros(2), h_list=(h, h, h, h))
        two = schwinger_mc(cov2, X4, src2, 41, 200_000, var0())
        four = schwinger_mc(cov2, X4, src4, 42, 200_000, var0())
        want = 3.0 * (h @ cov2.entries @ h) ** 2
        assert abs(four.value - want) <= 4 * four.std_error
        assert abs(four.value - 3.0 * two.value**2) <= 5 * four.std_error

    def test_ess_and_flag(self, cov2):
        src = SourceSpec(g=np.zeros(2), h_list=())
        est = partition_function_mc(cov2, X4, src, 5, 2000, var0())
        assert est.ess == pytest.approx(2000.0)
        assert not est.low_ess
        w = np.array([1.0, 1e-12, 1e-12])
        assert effective_sample_size(w) == pytest.approx(1.0, rel=1e-6)

    def test_determinism(self, cov2):
        src = SourceSpec(g=np.full(2, 0.1), h_list=(np.eye(2)[0], np.eye(2)[1]))
        a = schwinger_mc(cov2, X4, src, 71, 5000, var0())
        b = schwinger_mc(cov2, X4, src, 71, 5000, var0())
        assert a == b


class TestStrongCouplingMC:
    """One cell at g = 400, where exp(-:P:) overflows double range."""

    G = 400.0

    def one_cell(self):
        return SourceSpec(g=np.full(1, self.G), h_list=(np.ones(1), np.ones(1)))

    def test_schwinger_mc_stays_finite(self):
        m1 = chain_cov(1)
        v = var0()
        est = schwinger_mc(m1, X4, self.one_cell(), 7, 100_000, v)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert est.ess > 10 and not est.low_ess
        # :t^4: = (t^2 - 3v)^2 - 6v^2; the constant cancels from the ratio
        sigma = math.sqrt(m1.entries[0, 0])
        peaks = [-math.sqrt(3 * v), math.sqrt(3 * v)]

        def moment(k):
            def f(t):
                return t**k * math.exp(-0.5 * (t / sigma) ** 2 - self.G * (t * t - 3 * v) ** 2)

            return scipy.integrate.quad(f, -10, 10, points=peaks, epsabs=0, epsrel=1e-12,
                                        limit=200)[0]

        want = moment(2) / moment(0)
        assert want == pytest.approx(1.929136, abs=1e-6)
        assert abs(est.value - want) <= 4 * est.std_error

    def test_partition_mc_reports_low_ess(self):
        # Z itself overflows; its weights are not rescaled, so the ESS is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            est = partition_function_mc(chain_cov(1), X4, self.one_cell(), 7, 100_000, var0())
        assert est.low_ess

    def test_griffiths_mc_margin_finite(self, cov2):
        src = SourceSpec(g=np.full(2, self.G), h_list=())
        report = griffiths_check(cov2, X4, src, "mc", var0(), seed=3, n_samples=20_000)
        assert math.isfinite(report.worst_margin)
        assert report.passed


class TestSchwingerQuadrature:
    def test_free_two_point_exact(self, cov2):
        for i, j in ((0, 0), (0, 1)):
            src = SourceSpec(g=np.zeros(2), h_list=(np.eye(2)[i], np.eye(2)[j]))
            est = schwinger_quadrature(cov2, X4, src, var0())
            assert est.value == pytest.approx(cov2.entries[i, j], abs=1e-8)
            assert est.std_error == 0.0
            assert est.ess is None

    def test_r0_is_one(self, cov2):
        src = SourceSpec(g=np.full(2, 0.4), h_list=())
        assert schwinger_quadrature(cov2, X4, src, var0(), order=160).value == 1.0

    def test_eta_capped(self):
        lat = refine(chain_region(3), -1)  # eta = 9
        m = covariance_matrix(precision_matrix(lat, params()))
        src = SourceSpec(g=np.zeros(9), h_list=())
        with pytest.raises(ValueError):
            schwinger_quadrature(m, X4, src, free_cell_variance(params(), -1))

    def test_one_dim_against_adaptive_integration(self):
        m1 = chain_cov(1)
        v = var0()
        g = 1.0
        src = SourceSpec(g=np.array([g]), h_list=(np.ones(1), np.ones(1)))
        est = schwinger_quadrature(m1, X4, src, v, order=160)
        z_est = partition_function_quadrature(m1, X4, src, v, order=160)
        sigma = math.sqrt(m1.entries[0, 0])

        def dens(t):
            return math.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

        def boltz(t):
            return math.exp(-g * (t**4 - 6 * v * t**2 + 3 * v * v))

        z, _ = scipy.integrate.quad(lambda t: dens(t) * boltz(t), -10, 10, epsabs=1e-12)
        num, _ = scipy.integrate.quad(lambda t: t * t * dens(t) * boltz(t), -10, 10, epsabs=1e-12)
        assert z_est.value == pytest.approx(z, rel=1e-9)
        assert est.value == pytest.approx(num / z, rel=1e-9)

    def test_mc_agreement(self, cov2):
        src = SourceSpec(g=np.full(2, 0.1), h_list=(np.eye(2)[0], np.eye(2)[1]))
        q = schwinger_quadrature(cov2, X4, src, var0())
        m = schwinger_mc(cov2, X4, src, 55, 100_000, var0())
        assert abs(q.value - m.value) <= 4 * m.std_error

    def test_nonconvergence_detected(self, cov2):
        src = SourceSpec(g=np.full(2, 3.0), h_list=(np.eye(2)[0], np.eye(2)[0]))
        with pytest.raises(QuadratureError):
            schwinger_quadrature(cov2, X4, src, var0(), order=4)

    def test_nan_drift_fails_the_gate(self, cov3):
        # the default 3-cell model at g = 100: the weights overflow, both
        # orders give NaN, and a NaN drift must not count as converged
        src = SourceSpec(g=np.full(3, 100.0), h_list=(np.eye(3)[0], np.eye(3)[1]))
        with pytest.raises(QuadratureError):
            schwinger_quadrature(cov3, X4, src, var0(), order=40)

    def test_schwinger_carries_the_partition_function(self, cov2):
        src = SourceSpec(g=np.full(2, 0.2), h_list=(np.eye(2)[0], np.eye(2)[1]))
        est = schwinger_quadrature(cov2, X4, src, var0())
        assert est.partition == partition_function_quadrature(cov2, X4, src, var0()).value

    def test_free_moments_exact_at_low_order(self, cov3):
        # a Gaussian is summed exactly by the uniform grid: the error is
        # exp(-2 pi^2 order^2 / 16) at grid spacing 4 / (order sqrt D')
        for i, j in ((0, 0), (0, 1), (1, 2)):
            src = SourceSpec(g=np.zeros(3), h_list=(np.eye(3)[i], np.eye(3)[j]))
            est = schwinger_quadrature(cov3, X4, src, var0(), order=8)
            assert est.value == pytest.approx(cov3.entries[i, j], rel=1e-14)
            assert est.partition == pytest.approx(1.0, rel=1e-14)

    def test_order_cap_is_typed(self, cov2):
        src = SourceSpec(g=np.zeros(2), h_list=())
        with pytest.raises(ValueError, match="order 257 too large"):
            schwinger_quadrature(cov2, X4, src, var0(), order=257)


def _monomials(eta, degree=4):
    return [a for a in itertools.product(range(degree + 1), repeat=eta) if sum(a) <= degree]


def _unit_forms(powers):
    eta = len(powers)
    return tuple(np.eye(eta)[i] for i in range(eta) for _ in range(powers[i]))


def _tree_vs_oracle(m, coeffs, g, variance, oracle_orders):
    """Compare every cell monomial up to degree 4 and Z with the Gauss-Hermite oracle.

    Returns False when the oracle passes its own gate at none of ``oracle_orders``."""
    eta = m.lattice.eta
    monos = _monomials(eta)
    for order in oracle_orders:
        ref = oracles.gauss_hermite(m.entries, coeffs, g, np.full(eta, variance), monos, order)
        if ref is not None:
            break
    else:
        return False
    want, z_want = ref
    P = WickPolynomial(coeffs)
    for powers, value in zip(monos, want):
        est = schwinger_quadrature(m, P, SourceSpec(g=g, h_list=_unit_forms(powers)), variance)
        assert abs(est.value - value) <= 1e-9 * max(1.0, abs(value)), (powers, est.value, value)
        assert abs(est.partition - z_want) <= 1e-9 * max(1.0, z_want), (powers, est.partition)
    # a product of general linear forms expands multilinearly over the cells
    rand = random.Random(eta)
    h1, h2 = (np.array([rand.uniform(0.0, 1.0) for _ in range(eta)]) for _ in range(2))
    pair = {a: v for a, v in zip(monos, want) if sum(a) == 2}
    expect = sum(h1[i] * h2[j] * pair[tuple(np.bincount([i, j], minlength=eta))]
                 for i in range(eta) for j in range(eta))
    est = schwinger_quadrature(m, P, SourceSpec(g=g, h_list=(h1, h2)), variance)
    assert abs(est.value - expect) <= 1e-9 * max(1.0, abs(expect))
    return True


class TestTreeAgainstGaussHermite:
    """The tree recursion against the tensor Gauss-Hermite reference in tests/oracles.py."""

    def test_bundled_cases(self, cov2, cov3):
        # the suite's twelve (lambda, g, eta) cases; on three cells at g = 0.5
        # the oracle first passes its gate at order 128, about 30 s a case,
        # so those two are left out here
        compared = 0
        for lam in (0.0, 0.5):
            coeffs = (0.0, -lam, 0.0, 0.0, 1.0)
            for g in (0.1, 0.5):
                for m in (chain_cov(1), cov2, cov3):
                    eta = m.lattice.eta
                    orders = (32,) if eta == 3 else (32, 64, 128)
                    compared += _tree_vs_oracle(m, coeffs, np.full(eta, g), var0(), orders)
        assert compared == 10

    def test_random_regions(self):
        # irregular regions with up to four cells, q in {3, 5}, amb up to 3;
        # the first three have empty distance classes (no pair at class 1 or
        # 2, none at class 2, none at class 0), then seeded random regions
        rand = random.Random(606)
        cases = [(parse_region(text, q), l) for text, q, l in (
            ("amb=3;k=0;balls=000,111", 3, 0),
            ("amb=3;k=0;balls=000,011,200", 3, 0),
            ("amb=2;k=1;balls=2", 3, 0),
            ("amb=2;k=0;balls=00,01,13,40", 5, 0),
        )]
        while len(cases) < 8:
            region, l = random_region_with_level(rand, rand.choice((3, 5)), max_eta=4, max_nu=4)
            if region.ambient_level <= 3:
                cases.append((region, l))
        compared = 0
        for region, l in cases:
            params = params_for(region.q, rand.choice((Fraction(2), Fraction(3, 2))))
            m = covariance_matrix(precision_matrix(refine(region, l), params))
            eta = m.lattice.eta
            var = free_cell_variance(params, l)
            coeffs = (0.0, -rand.choice((0.0, 0.5)) * var**1.5, 0.0, 0.0, 1.0)
            # coupling in units of the cell variance, so :P: has the same shape on every cell size
            g = np.array([rand.uniform(0.0, 0.01) for _ in range(eta)]) / var**2
            orders = (8, 16) if eta == 4 else (16, 32)
            compared += _tree_vs_oracle(m, coeffs, g, var, orders)
        assert compared == len(cases)


class TestErrorScaling:
    def test_rmse_slope_is_half(self, cov2):
        # RMSE against the quadrature value over replicated runs falls like
        # n^(-1/2): log-log slope within 0.15 of -0.5
        src = SourceSpec(g=np.full(2, 0.1), h_list=(np.eye(2)[0], np.eye(2)[1]))
        truth = schwinger_quadrature(cov2, X4, src, var0()).value
        sizes = (1000, 4000, 16000, 64000)
        rmse = []
        for step, n in enumerate(sizes):
            errs = [
                schwinger_mc(cov2, X4, src, 1000 * step + rep, n, var0()).value - truth
                for rep in range(32)
            ]
            rmse.append(math.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log(sizes), np.log(rmse), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestGriffiths:
    def test_quadrature_all_cases(self, cov2, cov3):
        for lam in (0.0, 0.5):
            poly = WickPolynomial((0.0, -lam, 0.0, 0.0, 1.0))
            for g in (0.1, 0.5):
                for m in (cov2, cov3):
                    eta = m.lattice.eta
                    src = SourceSpec(g=np.full(eta, g), h_list=())
                    report = griffiths_check(m, poly, src, "quadrature", var0())
                    assert report.passed, (lam, g, eta, report.violations)

    def test_free_gaussian_pairs(self, cov2):
        src = SourceSpec(g=np.zeros(2), h_list=())
        report = griffiths_check(cov2, X4, src, "quadrature", var0())
        assert report.passed

    def test_positive_one_point_with_field(self, cov2):
        poly = WickPolynomial((0.0, -0.5, 0.0, 0.0, 1.0))
        src = SourceSpec(g=np.full(2, 0.2), h_list=())
        report = griffiths_check(
            cov2, poly, src, "quadrature", var0(), multi_indices=[(0,), (1,)], pairs=[]
        )
        assert report.passed
        assert report.worst_margin > 1e-3  # strictly positive magnetization

    def test_hypothesis_violations_rejected(self, cov2):
        src = SourceSpec(g=np.full(2, 0.1), h_list=())
        with pytest.raises(ValueError):  # lambda < 0
            griffiths_check(cov2, WickPolynomial((0.0, 0.3, 0.0, 0.0, 1.0)), src,
                            "quadrature", var0())
        with pytest.raises(ValueError):  # odd cubic term
            griffiths_check(cov2, WickPolynomial((0.0, 0.0, 0.0, 0.2, 1.0)), src,
                            "quadrature", var0())
        with pytest.raises(ValueError):  # negative h
            bad = SourceSpec(g=np.full(2, 0.1), h_list=(np.array([1.0, -0.1]),))
            griffiths_check(cov2, X4, bad, "quadrature", var0())
        with pytest.raises(ValueError):  # negative g caught at construction
            SourceSpec(g=np.array([-0.1, 0.1]), h_list=())

    def test_nan_moments_fail(self, cov2):
        # a NaN sampling factor makes every Monte Carlo moment NaN
        bad = replace(cov2, factor=np.full((2, 2), np.nan))
        src = SourceSpec(g=np.full(2, 0.1), h_list=())
        with np.errstate(invalid="ignore"):
            report = griffiths_check(bad, X4, src, "mc", var0(), seed=1, n_samples=2000)
        assert not report.passed
        assert np.isnan(report.worst_margin)

    def test_mc_matches_quadrature_verdict(self, cov3):
        poly = WickPolynomial((0.0, -0.5, 0.0, 0.0, 1.0))
        src = SourceSpec(g=np.full(3, 0.2), h_list=())
        report = griffiths_check(cov3, poly, src, "mc", var0(), seed=8, n_samples=50_000)
        assert report.passed


class TestMonotonicity:
    def test_free_case_reduces_to_covariance_ordering(self, cov2, cov3):
        src = SourceSpec(g=np.zeros(2), h_list=(np.eye(2)[0], np.eye(2)[1]))
        cmp = monotonicity_experiment(
            chain_region(2), chain_region(3), 0, params(), X4, src, "quadrature"
        )
        assert cmp.small.value == pytest.approx(cov2.entries[0, 1], abs=1e-9)
        assert cmp.big.value == pytest.approx(cov3.entries[0, 1], abs=1e-9)
        assert cmp.passed

    def test_interacting_ordered(self):
        src = SourceSpec(g=np.full(2, 0.1), h_list=(np.eye(2)[0], np.eye(2)[1]))
        cmp = monotonicity_experiment(
            chain_region(2), chain_region(3), 0, params(), X4, src, "quadrature"
        )
        assert cmp.passed
        assert cmp.margin > 1e-4

    def test_equal_regions_equal_values(self):
        src = SourceSpec(g=np.full(3, 0.1), h_list=(np.eye(3)[0], np.eye(3)[1]))
        cmp = monotonicity_experiment(
            chain_region(3), chain_region(3), 0, params(), X4, src, "quadrature"
        )
        assert abs(cmp.margin) < 1e-12

    def test_non_nested_rejected(self):
        src = SourceSpec(g=np.full(1, 0.1), h_list=())
        other = Region(q=3, ambient_level=1, ball_level=0, balls=(BallAddress(1, 0, (2,)),))
        with pytest.raises(ValueError):
            monotonicity_experiment(other, chain_region(2), 0, params(), X4, src, "quadrature")

    def test_h_supported_outside_rejected(self):
        g_big = np.zeros(3)
        g_big[:2] = 0.1
        h_bad = np.array([0.0, 0.0, 1.0])  # supported on the added ball only
        src = SourceSpec(g=g_big, h_list=(h_bad,))
        with pytest.raises(ValueError):
            monotonicity_experiment(
                chain_region(2), chain_region(3), 0, params(), X4, src, "quadrature"
            )

    def test_mc_route(self):
        src = SourceSpec(g=np.full(2, 0.1), h_list=(np.eye(2)[0], np.eye(2)[1]))
        cmp = monotonicity_experiment(
            chain_region(2), chain_region(3), 0, params(), X4, src, "mc",
            seed=17, n_samples=40_000,
        )
        assert cmp.passed


class TestRandomizedInequalitySuites:
    def test_griffiths_randomized_hypothesis_satisfying(self):
        # random even-plus-linear polynomials with lambda >= 0 and random
        # nonnegative couplings: the inequalities must hold in every case
        rand = random.Random(101)
        for _ in range(5):
            eta = rand.choice((2, 3))
            s = rand.choice((2, 4))
            coeffs = [0.0] * (s + 1)
            coeffs[s] = rand.uniform(0.2, 1.0)
            for j in range(0, s, 2):
                coeffs[j] = rand.uniform(-0.5, 0.5)
            coeffs[1] = -rand.uniform(0.0, 0.6)
            poly = WickPolynomial(tuple(coeffs))
            g = np.array([rand.uniform(0.0, 0.2) for _ in range(eta)])
            m = chain_cov(eta)
            src = SourceSpec(g=g, h_list=())
            report = griffiths_check(m, poly, src, "quadrature", var0())
            assert report.passed, (coeffs, list(g), report.violations)

    def test_monotonicity_randomized_nested(self):
        rand = random.Random(202)
        for _ in range(5):
            q = rand.choice((3, 5))
            nu_big = rand.randint(2, 3)
            nu_small = rand.randint(1, nu_big - 1)
            lam = rand.choice((0.0, 0.5))
            poly = WickPolynomial((0.0, -lam, 0.0, 0.0, 1.0))
            g = np.array([rand.uniform(0.0, 0.2) for _ in range(nu_small)])
            if lam > 0:
                h = (np.eye(nu_small)[0],)
            else:
                h = (np.eye(nu_small)[0], np.eye(nu_small)[nu_small - 1])
            cmp = monotonicity_experiment(
                chain_region(nu_small, q), chain_region(nu_big, q), 0,
                params_for(q, Fraction(2)), poly, SourceSpec(g=g, h_list=h),
                "quadrature", order=64,
            )
            assert cmp.passed, (q, nu_small, nu_big, lam, cmp.margin)


class TestPartitionStability:
    def test_free_partition_is_one(self):
        m1 = chain_cov(1)
        src = SourceSpec(g=np.zeros(1), h_list=())
        res = partition_stability(m1, X4, src, var0(), seed=2, n_samples=5000)
        assert res.passed
        for est in res.estimates:
            assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_quartic_against_adaptive_integration(self):
        m1 = chain_cov(1)
        v = var0()
        src = SourceSpec(g=np.ones(1), h_list=())
        res = partition_stability(m1, X4, src, v, seed=4, n_samples=60_000)
        assert res.passed
        sigma = math.sqrt(m1.entries[0, 0])
        for rho, est in zip(res.rho, res.estimates):
            assert est.ess is not None and est.ess > 100

            def integrand(t, r=rho):
                dens = math.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
                return dens * math.exp(-r * (t**4 - 6 * v * t**2 + 3 * v * v))

            z, _ = scipy.integrate.quad(integrand, -12, 12, epsabs=1e-12)
            assert abs(est.value - z) <= 3 * est.std_error

    def test_nan_draw_fails(self):
        m1 = chain_cov(1)
        bad = replace(m1, factor=np.full((1, 1), np.nan))
        src = SourceSpec(g=np.ones(1), h_list=())
        with np.errstate(invalid="ignore"):
            res = partition_stability(bad, X4, src, var0(), seed=2, n_samples=5000)
        assert not res.passed
        assert not res.report().passed

    def test_tail_probabilities_decay(self):
        # super-exponential shrinkage of the reweighting exponent's tail:
        # each doubling threshold cuts the mass by far more than e^-1
        m1 = chain_cov(1)
        src = SourceSpec(g=np.ones(1), h_list=())
        res = partition_stability(m1, X4, src, var0(), seed=6, n_samples=60_000)
        probs = res.tail_probabilities
        assert probs[0] > 0
        floor = 10.0 / 60_000
        for a, b in zip(probs, probs[1:]):
            assert b <= max(a * math.exp(-1.0), floor)
        assert probs[-1] == 0.0
