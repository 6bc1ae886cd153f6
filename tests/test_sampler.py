"""Gaussian sampling, importance-weighted moments, inequality experiments."""

import gc
import itertools
import math
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

import padicqft.sampler
from padicqft.lattice import NotPositiveDefiniteError, covariance_matrix, precision_matrix
from padicqft.model import FieldParams, free_cell_variance
from padicqft.sampler import (
    MC_BATCHES,
    MC_PRODUCT_BLOCK,
    QuadratureError,
    RegionComparison,
    SchwingerEstimate,
    SourceSpec,
    effective_sample_size,
    _batch_se,
    _batch_sums,
    _cholesky,
    _mc_draw,
    _weigh,
    default_moment_sets,
    griffiths_check,
    monotonicity_experiment,
    partition_function_mc,
    partition_function_quadrature,
    partition_stability,
    schwinger_mc,
    schwinger_quadrature,
)
from padicqft.ultrametric import BallAddress, Region, parse_region, refine
from padicqft.verify import params_for, random_region_with_level
from padicqft.wick import EVAL_BLOCK_VALUES, WickPolynomial, wick_poly_eval, wick_poly_lower_bound

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


def draw(m, seed, n_samples):
    """The field samples t of one Monte Carlo draw."""
    src = SourceSpec(g=np.zeros(m.lattice.eta), h_list=())
    return _mc_draw(m, X4, src, var0(), seed, n_samples)[0]


def nan_factor(monkeypatch):
    """Make every draw's Cholesky factor NaN."""
    monkeypatch.setattr(
        padicqft.sampler, "_cholesky", lambda matrix, name: np.full(matrix.shape, np.nan)
    )


class TestSampleField:
    """The exact Gaussian draw behind every Monte Carlo estimate."""

    def test_determinism(self, cov2):
        assert np.array_equal(draw(cov2, 123, 1000), draw(cov2, 123, 1000))

    def test_identity_covariance_unit_variance(self):
        lat = refine(chain_region(2), 0)
        m = covariance_matrix(precision_matrix(lat, replace_params_identity()))
        t = draw(m, 4, 10_000)
        assert np.allclose(t.var(axis=0), 1.0, atol=0.05)

    def test_empirical_covariance_matches(self, cov3):
        t = draw(cov3, 77, 100_000)
        emp = t.T @ t / len(t)
        # entrywise within 5 standard errors of the sample second moments
        for i in range(3):
            for j in range(3):
                prods = t[:, i] * t[:, j]
                se = prods.std() / math.sqrt(len(t))
                assert abs(emp[i, j] - cov3.entries[i, j]) <= 5 * se

    def test_two_cell_correlation(self, cov2):
        t = draw(cov2, 5, 100_000)
        corr = np.corrcoef(t[:, 0], t[:, 1])[0, 1]
        want = cov2.entries[0, 1] / cov2.entries[0, 0]  # = 52/286
        assert abs(corr - want) < 0.015

    def test_draw_is_seeded_normals_times_the_factor(self):
        # pins the draw's bytes: the seeded normals times the transposed Cholesky factor of M;
        # at 3 cells the 1,000 rows are one row block, whose bytes are the whole product's; at
        # 27 and 54 cells they cross row blocks and end inside one, which may move last digits;
        # the second row count crosses several sample blocks and ends inside one
        ferro = WickPolynomial((0.0, -0.5, 0.0, 0.0, 1.0))
        for nu, l, rel in [(3, 0, 0.0), (1, -3, 1e-14), (2, -3, 1e-14)]:
            m = chain_cov(nu, l)
            eta = m.lattice.eta
            rows = MC_PRODUCT_BLOCK // eta**2
            block = rows * max(1, EVAL_BLOCK_VALUES // (rows * eta))  # a sample block's rows
            factor = _cholesky(m.entries, "covariance matrix")
            src = SourceSpec(g=np.full(eta, 0.2))
            var = free_cell_variance(params(), l)
            for n in (1000, 2 * block + 1001):
                if n == 1000:
                    assert (rows >= n) if eta == 3 else (n > rows and n % rows), eta
                else:
                    assert n > 2 * block and n % block, eta
                z = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0]).standard_normal((n, eta))
                want = z @ factor.T
                t, minus_v, _, _, _ = _mc_draw(m, ferro, src, var, 9, n)
                assert np.max(np.abs(t - want)) <= rel * np.max(np.abs(want)), (eta, n)
                assert np.array_equal(minus_v, -wick_poly_eval(ferro, t, src.g, np.full(eta, var)))

    def test_marginal_draw_is_seeded_normals_times_the_leading_block(self):
        # a draw on cells S is k normals per sample times the leading k x k block of the
        # factor of M with S first, in increasing order, then the rest: the factor of M_SS
        ferro = WickPolynomial((0.0, -0.5, 0.0, 0.0, 1.0))
        for nu, l, rel in [(3, 0, 0.0), (1, -3, 1e-14), (2, -3, 1e-14)]:
            m = chain_cov(nu, l)
            eta = m.lattice.eta
            g = np.zeros(eta)
            g[eta // 2 + 1 :: 3] = 0.2
            read = {0}
            drawn = np.array(sorted(set(np.flatnonzero(g).tolist()) | read))
            k = len(drawn)
            assert 1 < k < eta and not np.array_equal(drawn, np.arange(k)), eta
            rows = MC_PRODUCT_BLOCK // k**2
            block = rows * max(1, EVAL_BLOCK_VALUES // (rows * k))  # a sample block's rows
            order = np.concatenate([drawn, np.setdiff1d(np.arange(eta), drawn)])
            lower = _cholesky(m.entries[np.ix_(order, order)], "covariance matrix")[:k, :k]
            marginal = m.entries[np.ix_(drawn, drawn)]
            assert np.max(np.abs(lower @ lower.T - marginal)) <= 1e-14 * np.max(np.abs(marginal))
            src = SourceSpec(g=g)
            var = free_cell_variance(params(), l)
            for n in (1000, 2 * block + 1001):  # within one row block; across sample blocks
                z = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0]).standard_normal((n, k))
                want = z @ lower.T
                t, minus_v, _, _, cells = _mc_draw(m, ferro, src, var, 9, n, read)
                assert np.array_equal(cells, drawn)
                assert np.max(np.abs(t - want)) <= rel * np.max(np.abs(want)), (eta, n)
                assert np.array_equal(minus_v, -wick_poly_eval(ferro, t, g[drawn], np.full(k, var)))

    def test_normals_do_not_depend_on_the_blocks(self):
        # the draw fills one reused buffer a block at a time, and relies on numpy's stream
        # giving the same normals as one call for the whole array
        n, eta, block = 5003, 27, 1000
        want = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0]).standard_normal((n, eta))
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        buf = np.empty((block, eta))
        got = np.empty((n, eta))
        for lo in range(0, n, block):
            part = buf[: n - lo]
            rng.standard_normal(out=part)
            got[lo : lo + len(part)] = part
        assert np.array_equal(got, want)

    def test_draw_holds_t_and_one_block(self):
        # no whole array of normals beside t: the draw's peak is t plus a sample block
        # and the sample-length vectors
        m = chain_cov(2, -3)
        src = SourceSpec(g=np.full(54, 0.2))
        var = free_cell_variance(params(), -3)
        tracemalloc.start()
        try:
            t = _mc_draw(m, X4, src, var, 3, 20_000)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.nbytes < peak < 1.2 * t.nbytes

    def test_product_once_per_sample_block_above_512_cells(self, monkeypatch):
        # at 729 cells one row exceeds MC_PRODUCT_BLOCK, so each sample block is one product
        m = chain_cov(1, -6)
        eta, n = m.lattice.eta, 1000
        assert eta == 729 and eta**2 > MC_PRODUCT_BLOCK
        calls = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        t = _mc_draw(m, X4, SourceSpec(g=np.full(eta, 0.2)), free_cell_variance(params(), -6), 9, n)[0]
        monkeypatch.undo()
        assert 0 < len(calls) <= math.ceil(n / (EVAL_BLOCK_VALUES // eta))
        z = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0]).standard_normal((n, eta))
        want = z @ _cholesky(m.entries, "covariance matrix").T
        assert np.max(np.abs(t - want)) <= 1e-14 * np.max(np.abs(want))

    def test_indefinite_covariance_rejected_at_draw_time(self, cov2):
        bad = replace(cov2, entries=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError, match="covariance matrix") as err:
            draw(bad, 1, 1000)
        assert err.value.pivot == 2

    def test_indefinite_outside_the_drawn_cells_rejected(self, cov3):
        # cells 1 and 2 make M indefinite; a draw on cell 2 alone factors M in the order
        # 2, 0, 1, which stops at its third pivot, and names that pivot's cell
        bad = replace(cov3, entries=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]))
        e2 = np.eye(3)[2]
        calls = [
            lambda: partition_function_mc(bad, X4, SourceSpec(g=0.1 * e2), 1, 1000, var0()),
            lambda: schwinger_mc(bad, X4, SourceSpec(g=np.zeros(3), h_list=(e2,)), 1, 1000, var0()),
        ]
        for call in calls:
            with pytest.raises(NotPositiveDefiniteError, match="covariance matrix") as err:
                call()
            assert err.value.pivot == 2

    def test_cells_outside_the_lattice_rejected(self, cov3):
        src = SourceSpec(g=np.zeros(3))
        for cells in ([3], [-1, 0]):
            with pytest.raises(ValueError, match="outside 0..2"):
                _mc_draw(cov3, X4, src, var0(), 1, 1000, cells)


class TestCholesky:
    """The draw's factor, and the pivot a failed factorization names."""

    @staticmethod
    def spd(n):
        b = np.random.default_rng(n).integers(-1, 2, (n, n)).astype(float)
        return b @ b.T + np.eye(n)  # integer entries, so the oracle's rationals stay small

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 13, 27, 40])
    def test_pivot_is_the_first_nonpositive_leading_minor(self, n):
        a = self.spd(n)
        factor = _cholesky(a, "m")
        assert np.array_equal(factor, np.tril(factor))
        assert np.allclose(factor @ factor.T, a, rtol=0, atol=1e-12 * n)
        for k in range(1, n + 1) if n <= 27 else (1, 2, 3, 20, 21, 38, 39, 40):
            # lower entry k-1 past its Schur complement: pivot k falls to about -1,
            # and the leading minors before it are untouched
            i, bad = k - 1, a.copy()
            schur = a[i, i] - a[i, :i] @ np.linalg.solve(a[:i, :i], a[:i, i]) if i else a[0, 0]
            bad[i, i] -= round(schur) + 1
            assert oracles.first_nonpositive_pivot(bad) == k
            with pytest.raises(NotPositiveDefiniteError, match=rf"^m is not .* \(pivot {k}\)$") as err:
                _cholesky(bad, "m")
            assert err.value.pivot == k, (n, k)


class CountingRng:
    """A generator that counts the normals drawn from it."""

    def __init__(self, rng):
        self.rng, self.normals = rng, 0

    def standard_normal(self, *args, **kwargs):
        out = self.rng.standard_normal(*args, **kwargs)
        self.normals += np.size(out)
        return out


@pytest.fixture
def counted_normals(monkeypatch):
    """The CountingRng of each generator a draw makes while the fixture is active."""
    made = []
    default_rng = np.random.default_rng

    def counting(*args):
        made.append(CountingRng(default_rng(*args)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting)
    return made


class TestMarginalDraw:
    """A draw covers only supp g and the cells its estimate reads."""

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 26)])
    def test_free_pair_moment_draws_two_cells(self, counted_normals, i, j):
        m = chain_cov(1, -3)
        n = 100_000
        src = SourceSpec(g=np.zeros(27), h_list=(np.eye(27)[i], np.eye(27)[j]))
        est = schwinger_mc(m, X4, src, 1000 + i + j, n, free_cell_variance(params(), -3))
        assert abs(est.value - m.entries[i, j]) <= 4 * est.std_error
        assert [rng.normals for rng in counted_normals] == [2 * n]

    def test_griffiths_default_moments_draw_every_cell(self, counted_normals, cov3):
        src = SourceSpec(g=np.array([0.2, 0.0, 0.0]))
        assert griffiths_check(cov3, X4, src, "mc", var0(), seed=1, n_samples=2000).passed
        assert [rng.normals for rng in counted_normals] == [3 * 2000]

    def test_empty_support_draws_no_normals(self, counted_normals, cov3):
        src = SourceSpec(g=np.zeros(3))
        t, minus_v, w, top, cells = _mc_draw(cov3, X4, src, var0(), 1, 1000, ())
        assert t.shape == (1000, 0) and len(cells) == 0
        assert np.all(minus_v == 0.0) and top == 0.0 and np.all(w == 1.0)
        z = partition_function_mc(cov3, X4, src, 2, 1000, var0())
        assert (z.value, z.std_error, z.ess) == (1.0, 0.0, 1000.0)
        assert schwinger_mc(cov3, X4, src, 3, 1000, var0()).value == 1.0
        assert [rng.normals for rng in counted_normals] == [0, 0, 0]



def replace_params_identity():
    # mass-only model: unit precision, unit covariance
    return FieldParams(p=3, n=1, alpha=Fraction(1), m_sq=1.0, omega_const=0.0)


class TestSourceSpec:
    @pytest.mark.parametrize("g", [[np.nan, 0.1], [np.inf, 0.1], [0.1, -np.inf]])
    def test_non_finite_coupling_rejected(self, g):
        with pytest.raises(ValueError, match="coupling g must be finite"):
            SourceSpec(g=g)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="coupling g must be nonnegative"):
            SourceSpec(g=[0.1, -0.1])

    def test_non_finite_test_function_rejected(self):
        with pytest.raises(ValueError, match=r"h\[1\] must be finite"):
            SourceSpec(g=[0.1, 0.1], h_list=(np.ones(2), np.array([np.nan, 1.0])))

    def test_negative_test_function_fails_the_inequality_hypothesis(self):
        src = SourceSpec(g=[0.1, 0.1], h_list=(np.ones(2), np.array([0.0, -1.0])))
        with pytest.raises(ValueError, match=r"h\[1\] has negative entries"):
            src.require_nonnegative_h()


class TestInteractionWeight:
    """The log weights -:P:(g) of a draw, and its weights shifted by their maximum."""

    def test_free_weight_is_one(self, cov2):
        src = SourceSpec(g=np.zeros(2), h_list=())
        _, minus_v, w, top, _ = _mc_draw(cov2, X4, src, var0(), 1, 1000)
        assert np.all(minus_v == 0.0) and top == 0.0
        assert np.all(w == 1.0)

    def test_square_at_origin(self):
        # :t^2: = t^2 - v, so the log weight at t = 0 is g v
        sq = WickPolynomial((0.0, 0.0, 1.0))
        v = 0.83
        minus_v = -wick_poly_eval(sq, np.zeros((1, 2)), np.array([1.0, 0.0]), np.full(2, v))
        assert minus_v[0] == pytest.approx(v, rel=1e-12)

    def test_bounded_by_lower_bound(self, cov2):
        src = SourceSpec(g=np.full(2, 0.7), h_list=())
        cap = -wick_poly_lower_bound(X4, float(src.g.sum()), var0())
        _, minus_v, w, top, _ = _mc_draw(cov2, X4, src, var0(), 3, 1000)
        assert np.all(minus_v <= cap)
        assert top == minus_v.max() and np.all((0.0 < w) & (w <= 1.0))

    def test_semibounded_required(self, cov2):
        src = SourceSpec(g=np.zeros(2), h_list=())
        odd = WickPolynomial((0.0, 1.0))
        with pytest.raises(ValueError, match="semibounded"):
            schwinger_mc(cov2, odd, src, 1, 1000, var0())
        with pytest.raises(ValueError, match="semibounded"):
            partition_function_mc(cov2, odd, src, 1, 1000, var0())


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


class TestVectorReductions:
    """The ESS and the form columns against math.fsum, on positive terms."""

    def test_effective_sample_size_matches_fsum(self):
        w = np.random.default_rng(3).uniform(0.0, 1.0, 20_000)
        s = math.fsum(w)
        want = s * s / math.fsum(w * w)
        assert effective_sample_size(w) == pytest.approx(want, rel=1e-14, abs=0.0)
        w[17] = np.nan
        assert math.isnan(effective_sample_size(w))

    @pytest.mark.parametrize("n", [1000, 20_011])
    def test_batch_se_matches_slice_sums(self, n):
        # the loop over batch slices that the reshaped sums replace, as the reference
        rng = np.random.default_rng(n)
        num, den = rng.standard_normal(n), rng.uniform(0.0, 1.0, n)
        size = n // MC_BATCHES
        den[2 * size : 3 * size] = 0.0  # a batch with no weight contributes 0

        def loop_se(den):
            vals = []
            for b in range(MC_BATCHES):
                sl = slice(b * size, (b + 1) * size)
                dsum = den[sl].sum()
                vals.append(num[sl].sum() / dsum if dsum > 0 else 0.0)
            return float(np.std(vals, ddof=1) / math.sqrt(MC_BATCHES))

        assert _batch_se(num, _batch_sums(den)) == loop_se(den)
        assert _batch_se(num) == loop_se(np.ones(n))

    def test_form_columns_match_fsum(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(0.5, 2.0, (20_000, 3))
        w = rng.uniform(0.0, 1.0, 20_000)
        forms = [np.array([0.3, 1.0, 0.7]), np.array([0.0, 0.5, 2.0])]
        moments = [(0,), (1,), (0, 1)]

        def moments_of(t):
            return padicqft.sampler._mc_moments((t, None, w, None, np.arange(3)), forms, moments)

        columns = [[math.fsum(x * h for x, h in zip(row, form)) for row in t.tolist()]
                   for form in forms]
        wsum = math.fsum(w)
        vals, _, _ = moments_of(t)
        for got, moment in zip(vals, moments):
            want = math.fsum(
                wi * math.prod(columns[k][i] for k in moment) for i, wi in enumerate(w.tolist())
            ) / wsum
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), moment
        t[9, 1] = np.nan
        assert np.all(np.isnan(moments_of(t)[0]))

    @staticmethod
    def _plain_moments(t, w, forms, moments):
        """One product per moment, from ones, as the reference for the shared prefixes."""
        columns = list(t.T) if forms is None else [np.einsum("ij,j->i", t, h) for h in forms]
        vals, ses = [], []
        for moment in moments:
            num = np.ones(len(t))
            for i in moment:
                num = num * columns[i]
            num = num * w
            vals.append(num.sum() / w.sum())
            ses.append(_batch_se(num, _batch_sums(w)))
        return np.array(vals), np.array(ses), effective_sample_size(w)

    @pytest.fixture(scope="class")
    def draw27(self):
        m = chain_cov(1, -3)
        src = SourceSpec(g=np.full(27, 0.2))
        ferro = WickPolynomial((0.0, -0.5, 0.0, 0.0, 1.0))
        return _mc_draw(m, ferro, src, free_cell_variance(params(), -3), 41, 20_000)

    def test_shared_prefixes_match_one_product_per_moment(self, draw27):
        t, _, w, _, _ = draw27
        firsts, seconds = default_moment_sets(27)
        griffiths = sorted({tuple(sorted(m)) for m in firsts}
                           | {tuple(sorted(a + b)) for a, b in seconds}
                           | {tuple(sorted(m)) for pair in seconds for m in pair})
        unsorted = [(3, 1, 1), (3,), (), (2, 5, 2, 5), (3, 1, 1), (3, 1), (2, 5), (), (0, 0, 0, 0), (3, 1, 1)]
        forms = [np.linspace(0.1, 1.0, 27), np.eye(27)[4], np.full(27, -0.3)]
        cases = [(None, griffiths), (None, unsorted), (forms, [(1, 0), (1, 0, 2), (), (1,), (1, 0, 2)])]
        for forms, moments in cases:
            got = padicqft.sampler._mc_moments(draw27, forms, moments)
            want = self._plain_moments(t, w, forms, moments)
            for g, x in zip(got, want):
                assert np.array_equal(g, x), moments
            for k, moment in enumerate(moments):
                if not moment:
                    assert got[0][k] == 1.0

    def test_moments_keep_one_chain_of_products(self, draw27):
        # a cache of every product would hold one sample-length vector per moment prefix
        t, _, w, _, _ = draw27
        moments = [(i, i, j, j) for i in range(27) for j in range(i, 27)]
        tracemalloc.start()
        try:
            padicqft.sampler._mc_moments(draw27, None, moments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.nbytes + 10 * w.nbytes


class TestStrongCouplingMC:
    """One cell at g = 400, where exp(-:P:) overflows double range, and Z that underflows it."""

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

    def test_partition_mc_overflow_raises(self):
        # Z = exp(988.8) is out of float range; the error gives log Z
        m1 = chain_cov(1)
        v = var0()
        with pytest.raises(OverflowError, match="log Z = ") as info:
            partition_function_mc(m1, X4, self.one_cell(), 7, 100_000, v)
        log_z = float(re.search(r"log Z = ([^,]+),", str(info.value)).group(1))
        # log Z = 6 g v^2 + log E[exp(-g (t^2 - 3v)^2)], the expectation by adaptive quadrature
        sigma = math.sqrt(m1.entries[0, 0])

        def f(t):
            return math.exp(-0.5 * (t / sigma) ** 2 - self.G * (t * t - 3 * v) ** 2) / (
                sigma * math.sqrt(2 * math.pi))

        peaks = [-math.sqrt(3 * v), math.sqrt(3 * v)]
        rest = scipy.integrate.quad(f, -10, 10, points=peaks, epsabs=0, epsrel=1e-12, limit=200)[0]
        want = 6 * self.G * v * v + math.log(rest)
        assert want == pytest.approx(988.799037, abs=1e-6)
        assert abs(log_z - want) <= 0.15  # about 5 standard errors: Z's relative error is 3%

    def test_partition_mc_underflow_raises(self):
        # a constant 800 in P gives log Z = -800 + log Z(X^4), below the normal float range
        m1 = chain_cov(1)
        v = var0()
        P = WickPolynomial((800.0, 0.0, 0.0, 0.0, 1.0))
        with pytest.raises(OverflowError, match="log Z = ") as info:
            partition_function_mc(m1, P, SourceSpec(g=np.ones(1)), 7, 100_000, v)
        log_z = float(re.search(r"log Z = ([^,]+),", str(info.value)).group(1))
        sigma = math.sqrt(m1.entries[0, 0])

        def f(t):
            return math.exp(-0.5 * (t / sigma) ** 2 - (t**4 - 6 * v * t**2 + 3 * v * v)) / (
                sigma * math.sqrt(2 * math.pi))

        want = -800.0 + math.log(scipy.integrate.quad(f, -12, 12, epsabs=1e-12)[0])
        assert abs(log_z - want) <= 0.02  # Z's relative error is about 0.4% here

    def test_nan_draw_reports_low_ess(self, monkeypatch):
        nan_factor(monkeypatch)
        with np.errstate(invalid="ignore"):
            est = partition_function_mc(chain_cov(1), X4, self.one_cell(), 7, 1000, var0())
        assert math.isnan(est.value) and est.low_ess

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

    def test_tree_pass_leaves_no_reference_cycle(self, cov3):
        # the pass's arrays are freed when it returns, not at a later garbage
        # collection, so repeated passes do not ratchet up the heap
        src = SourceSpec(g=np.full(3, 0.1))
        gc.collect()
        gc.disable()
        try:
            padicqft.sampler._tree_pass(cov3, X4, src, var0(), None, [(0,), (0, 2)], 32)
            assert gc.collect() == 0
        finally:
            gc.enable()

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


def _flush_cases(cov2, cov3):
    """(M, P, g, variance, order) of one tree pass each: the bundled cases at the
    workload's orders, the three-cell g = 0.5 pass at order 64, and a four-cell
    region at g = 5, whose 3-cell node convolves a running product."""
    cases = []
    for lam in (0.0, 0.5):
        P = WickPolynomial((0.0, -lam, 0.0, 0.0, 1.0))
        for g in (0.1, 0.5):
            for m in (chain_cov(1), cov2, cov3):
                eta = m.lattice.eta
                cases.append((m, P, np.full(eta, g), var0(), 32 if eta == 3 else 128))
    cases.append((cov3, X4, np.full(3, 0.5), var0(), 64))
    p = params_for(3, Fraction(2))
    m4 = covariance_matrix(precision_matrix(refine(parse_region("amb=2;k=0;balls=00,01,02,10", 3), 0), p))
    cases.append((m4, X4, np.full(4, 5.0), free_cell_variance(p, 0), 32))
    return cases


def _flush_pass(m, P, g, var, order):
    """Values of <t0>, <t0^2> and <t0 t_last> and Z from one tree pass (odd powers give signed arrays)."""
    moments = [(0,), (0, 0), (0, m.lattice.eta - 1)]
    vals, z, _ = padicqft.sampler._tree_pass(m, P, SourceSpec(g=g), var, None, moments, order)
    return vals, z


def _spy_convolve(monkeypatch):
    """Count np.convolve calls, the nonzero subnormal entries of their inputs, and
    the calls where a product of two nonzero input entries can be subnormal."""
    seen = {"calls": 0, "subnormal": 0, "subnormal_products": 0}
    convolve, tiny = np.convolve, np.finfo(float).tiny

    def spy(a, b, *args, **kwargs):
        seen["calls"] += 1
        seen["subnormal"] += sum(int(np.count_nonzero((x != 0) & (np.abs(x) < tiny))) for x in (a, b))
        least = [np.min(np.abs(x[x != 0]), initial=np.inf) for x in (a, b)]
        seen["subnormal_products"] += bool(least[0] * least[1] < tiny)
        return convolve(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", spy)
    return seen


class TestSubnormalFlush:
    """Grid weights below 2**-511 of their array's peak are zeroed before any convolution."""

    def test_no_subnormal_input_to_convolve(self, cov2, cov3, monkeypatch):
        seen = _spy_convolve(monkeypatch)
        for case in _flush_cases(cov2, cov3):
            _flush_pass(*case)
        assert seen["calls"] > 0
        assert seen["subnormal"] == 0
        assert seen["subnormal_products"] == 0

    def test_same_bits_as_the_unflushed_recursion(self, cov2, cov3, monkeypatch):
        seen = _spy_convolve(monkeypatch)
        for case in _flush_cases(cov2, cov3):
            vals, z = _flush_pass(*case)
            with monkeypatch.context() as mp:
                mp.setattr(padicqft.sampler, "_weigh", oracles.weigh_unflushed)
                mp.setattr(padicqft.sampler, "_flush", lambda arr: arr)
                want, z_want = _flush_pass(*case)
            assert np.array_equal(vals, want) and z == z_want, (case[2], case[4], vals, want)
        assert seen["subnormal"] > 0  # the unflushed passes do convolve subnormal weights

    def test_nan_or_inf_log_magnitude_gives_nan(self):
        ones = np.ones(3)
        for values, log_factor in (
            (np.array([1.0, np.nan, 2.0]), np.zeros(3)),
            (np.array([1.0, np.inf, 2.0]), np.zeros(3)),
            (ones, np.array([0.0, np.nan, -1.0])),
            (ones, np.array([0.0, np.inf, -1.0])),
        ):
            assert np.isnan(_weigh(values, log_factor)[0]).any()

    def test_entry_at_the_threshold_is_kept(self):
        keep = 0.5 * math.log(np.finfo(float).tiny)
        below = np.nextafter(keep, -np.inf)
        arr, top = _weigh(np.array([1.0, 1.0, -1.0, 1.0, -1.0]), np.array([0.0, keep, keep, below, below]))
        assert top == 0.0
        assert (arr[1], arr[2]) == (math.exp(keep), -math.exp(keep))
        assert arr[1] * arr[1] >= np.finfo(float).tiny  # two kept weights make a normal product
        assert (arr[3], arr[4]) == (0.0, 0.0)
        assert not np.signbit(arr[3]) and np.signbit(arr[4])

    def test_kept_entries_keep_their_bits_and_sign(self):
        rng = np.random.default_rng(18)
        values = rng.standard_normal(4001) * np.exp(rng.uniform(-300.0, 300.0, 4001))
        log_factor = rng.uniform(-300.0, 0.0, 4001)
        arr, top = _weigh(values, log_factor)
        want, want_top = oracles.weigh_unflushed(values, log_factor)
        kept = np.log(np.abs(values)) + log_factor - top >= 0.5 * math.log(np.finfo(float).tiny)
        assert top == want_top
        assert 0 < kept.sum() < len(kept) and np.any(want[~kept] != 0)
        assert np.array_equal(arr[kept], want[kept])
        assert np.all(arr[~kept] == 0.0)
        assert np.array_equal(np.signbit(arr), np.signbit(values))


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

    def test_nan_moments_fail(self, cov2, monkeypatch):
        # a NaN sampling factor makes every Monte Carlo moment NaN
        nan_factor(monkeypatch)
        src = SourceSpec(g=np.full(2, 0.1), h_list=())
        with np.errstate(invalid="ignore"):
            report = griffiths_check(cov2, X4, src, "mc", var0(), seed=1, n_samples=2000)
        assert not report.passed
        assert np.isnan(report.worst_margin)

    def test_unknown_method_rejected(self, cov2):
        src = SourceSpec(g=np.full(2, 0.1), h_list=())
        with pytest.raises(ValueError, match="unknown method 'exact'"):
            griffiths_check(cov2, X4, src, "exact", var0())

    @pytest.mark.parametrize("method", ["quadrature", "mc"])
    @pytest.mark.parametrize("cell", [-1, 2])
    def test_moment_index_outside_the_lattice_rejected(self, cov2, method, cell):
        src = SourceSpec(g=np.full(2, 0.1), h_list=())
        for indices in ({"multi_indices": [(cell,)], "pairs": []},
                        {"multi_indices": [], "pairs": [((0,), (cell,))]}):
            with pytest.raises(ValueError, match="outside 0..1"):
                griffiths_check(cov2, X4, src, method, var0(), n_samples=1000, **indices)

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

    def test_unknown_method_rejected(self):
        src = SourceSpec(g=np.full(2, 0.1), h_list=(np.eye(2)[0],))
        with pytest.raises(ValueError, match="unknown method 'exact'"):
            monotonicity_experiment(chain_region(2), chain_region(3), 0, params(), X4, src, "exact")

    def test_failing_comparison_reports_the_values(self):
        small = SchwingerEstimate(0.25, 0.01, 1000, "mc")
        big = SchwingerEstimate(0.2, 0.01, 1000, "mc")
        cmp = RegionComparison(small, big, margin=-0.05, allowance=0.03, passed=False)
        report = cmp.report()
        assert report.check == "schwinger_monotonicity" and not report.passed
        assert report.worst_margin == pytest.approx(-0.02, abs=1e-15)
        assert report.violations == ("S_small = 0.25 exceeds S_big = 0.2",)
        assert cmp.report("named").check == "named"

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

    def test_nan_draw_fails(self, monkeypatch):
        nan_factor(monkeypatch)
        src = SourceSpec(g=np.ones(1), h_list=())
        with np.errstate(invalid="ignore"):
            res = partition_stability(chain_cov(1), X4, src, var0(), seed=2, n_samples=5000)
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


class TestSourceCellCount:
    """A source has M's cell count: each engine checks it where it starts, so no
    estimate reads g or h past M's cells or short of them."""

    @staticmethod
    def _source(eta):
        return SourceSpec(g=np.full(eta, 0.1), h_list=(np.eye(eta)[0],))

    @pytest.mark.parametrize("eta", [2, 4])
    @pytest.mark.parametrize("entry", [
        lambda m, src: schwinger_quadrature(m, X4, src, var0()),
        lambda m, src: partition_function_quadrature(m, X4, src, var0()),
        lambda m, src: schwinger_mc(m, X4, src, 1, 1000, var0()),
        lambda m, src: partition_function_mc(m, X4, src, 1, 1000, var0()),
        lambda m, src: partition_stability(m, X4, src, var0(), n_samples=1000),
        lambda m, src: griffiths_check(m, X4, SourceSpec(g=src.g), "quadrature", var0()),
        lambda m, src: griffiths_check(m, X4, SourceSpec(g=src.g), "mc", var0(), n_samples=1000),
    ], ids=["schwinger_quadrature", "partition_function_quadrature", "schwinger_mc",
            "partition_function_mc", "partition_stability", "griffiths_quadrature",
            "griffiths_mc"])
    def test_other_cell_count_rejected(self, cov3, entry, eta):
        message = rf"the source has shape \({eta},\), the covariance matrix 3 cells"
        with pytest.raises(ValueError, match=message):
            entry(cov3, self._source(eta))

    @pytest.mark.parametrize("g", [0.1, np.full((3, 1), 0.1)], ids=["scalar", "column"])
    def test_source_of_another_shape_rejected(self, cov3, g):
        # one value per cell, as a vector: a scalar or a column of M's length is refused too
        shape = re.escape(str(np.shape(g)))
        with pytest.raises(ValueError, match=f"the source has shape {shape}, the covariance matrix 3"):
            schwinger_mc(cov3, X4, SourceSpec(g=g), 1, 1000, var0())
        with pytest.raises(ValueError, match=f"the source has shape {shape}, the covariance matrix 3"):
            schwinger_quadrature(cov3, X4, SourceSpec(g=g), var0())

    def test_matching_count_accepted(self, cov3):
        assert math.isfinite(schwinger_mc(cov3, X4, self._source(3), 1, 1000, var0()).value)

    def test_covariance_of_another_shape_rejected(self, cov3):
        # a hand-made M is eta x eta too, so a draw never reads a 4 x 4 M on 3 cells
        with pytest.raises(ValueError, match=r"shape \(4, 4\); 3 cells need \(3, 3\)"):
            schwinger_mc(replace(cov3, entries=0.5 * np.eye(4)), X4, self._source(3), 1, 1000, var0())

    def test_monotonicity_accepts_either_region_length(self):
        # per-cell data of the small region's length, or of the big one's vanishing off
        # the shared cells, describe the same experiment
        g, h = np.full(2, 0.1), np.eye(2)[0]
        small = SourceSpec(g=g, h_list=(h,))
        big = SourceSpec(g=np.append(g, 0.0), h_list=(np.append(h, 0.0),))
        a, b = (monotonicity_experiment(chain_region(2), chain_region(3), 0, params(), X4, src,
                                        "quadrature") for src in (small, big))
        assert (a.small.value, a.big.value) == (b.small.value, b.big.value)
        for eta in (1, 4):  # refused before g is restricted to the shared cells
            with pytest.raises(ValueError, match="g must have 2 or 3 entries"):
                monotonicity_experiment(chain_region(2), chain_region(3), 0, params(), X4,
                                        SourceSpec(g=np.full(eta, 0.1)), "quadrature")
