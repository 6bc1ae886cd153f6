"""Precision/covariance matrices: signs, SPD, restriction, domination, growth."""

import itertools
import random
import re
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import padicqft.lattice
import padicqft.ultrametric
from padicqft.lattice import (
    CovarianceMatrix,
    NotPositiveDefiniteError,
    PrecisionMatrix,
    covariance_matrix,
    domination_check,
    monotonicity_check,
    precision_diagonal,
    precision_matrix,
    precision_offdiagonal,
    restriction_check,
    sign_structure_check,
)
from padicqft.model import FieldParams, free_cell_variance, free_covariance_entry
from padicqft.sampler import _cholesky
from padicqft.ultrametric import BallAddress, LatticeSpec, Region, distance, parse_region, refine
from padicqft.verify import params_for, random_nested_pair, random_region_with_level
from padicqft.wick import wick_l2_distance

import oracles


def params(**kw):
    defaults = dict(p=3, n=1, alpha=Fraction(1), m_sq=1.0, gamma_const=1.0)
    defaults.update(kw)
    return FieldParams(**defaults)


def chain_region(nu, q=3):
    return Region(q=q, ambient_level=1, ball_level=0,
                  balls=tuple(BallAddress(1, 0, (i,)) for i in range(nu)))


class TestPrecisionMatrix:
    def test_two_cell_hand_values(self):
        lat = refine(chain_region(2), 0)
        n = precision_matrix(lat, params())
        assert n.entries[0, 0] == pytest.approx(22.0 / 13.0, rel=1e-14)
        assert n.entries[0, 1] == pytest.approx(-4.0 / 13.0, rel=1e-14)
        assert np.array_equal(n.entries, n.entries.T)

    def test_diagonal_complement_series(self):
        # diagonal complement integral equals the literal kernel series
        p = params()
        for l in (-2, 0, 1):
            got = precision_diagonal(p, l) - p.m_sq
            want = -p.omega_const * sum(
                oracles.shell(3, m) * 3.0 ** (-m * 3.0) for m in range(l + 1, l + 200)
            )
            assert got == pytest.approx(want, rel=1e-13)

    def test_zero_coupling_gives_mass_identity(self):
        lat = refine(chain_region(3), 0)
        p = params(omega_const=0.0)
        n = precision_matrix(lat, p)
        assert np.array_equal(n.entries, np.eye(3) * p.m_sq)

    def test_single_cell_positive_scalar(self):
        lat = refine(chain_region(1), 0)
        n = precision_matrix(lat, params())
        assert n.entries.shape == (1, 1)
        assert n.entries[0, 0] > 0

    def test_size_guard(self):
        region = Region(q=3, ambient_level=1, ball_level=1, balls=(BallAddress(1, 1, ()),))
        lat = refine(region, -8, max_cells=10**5)
        with pytest.raises(ValueError):
            precision_matrix(lat, params())
        with pytest.raises(ValueError, match="19683 cells"):
            wick_l2_distance(params(), 2, 1, 2, lat, np.ones(lat.eta))

    def test_translation_invariance_under_relabeling(self):
        # permuting the region's balls permutes the matrix accordingly
        rand = random.Random(5)
        region, l = random_region_with_level(rand, 3, max_eta=27)
        while region.nu < 2:
            region, l = random_region_with_level(rand, 3, max_eta=27)
        perm = list(range(region.nu))
        rand.shuffle(perm)
        permuted = Region(q=3, ambient_level=region.ambient_level,
                          ball_level=region.ball_level,
                          balls=tuple(region.balls[i] for i in perm))
        lat_a = refine(region, l)
        lat_b = refine(permuted, l)
        idx = [lat_b.index_of(c) for c in lat_a.cells]
        n_a = precision_matrix(lat_a, params())
        n_b = precision_matrix(lat_b, params())
        assert np.array_equal(n_a.entries, n_b.entries[np.ix_(idx, idx)])

    def test_entries_equal_scalar_formulas_exactly(self):
        # the per-class table reproduces the scalar closed forms bit for bit; on
        # the two fixed lattices a vectorised NumPy power is one ulp off Python's
        rand = random.Random(12)
        bhs = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3))
        cases = [(parse_region("amb=7;k=6;balls=0,1", 3), 6, params_for(3, Fraction(2))),
                 (parse_region("amb=2;k=0;balls=00,10", 5), -1, params_for(5, Fraction(3, 2)))]
        for i in range(24):
            q = (3, 5)[i % 2]
            region, l = random_region_with_level(rand, q, max_eta=60)
            cases.append((region, l, params_for(q, bhs[i % 4])))
        for region, l, p in cases:
            lat = refine(region, l)
            n = precision_matrix(lat, p)
            amb, classes = region.ambient_level, n.lattice.tree.classes()
            assert classes.dtype == np.min_scalar_type(amb - l)
            for a in range(lat.eta):
                assert n.entries[a, a] == precision_diagonal(p, l)
                assert classes[a, a] == amb - l
                for b in range(lat.eta):
                    if a != b:
                        d = lat.cell_distance(a, b)
                        assert n.entries[a, b] == precision_offdiagonal(p, l, d)
                        assert classes[a, b] == amb - d

    def test_ball_tree_built_once_per_lattice(self, monkeypatch):
        calls = []
        build = padicqft.ultrametric._ball_tree

        def counting(lat):
            calls.append(lat)
            return build(lat)

        monkeypatch.setattr(padicqft.ultrametric, "_ball_tree", counting)
        region = Region(q=3, ambient_level=1, ball_level=0,
                        balls=(BallAddress(1, 0, (0,)), BallAddress(1, 0, (2,))))
        lat = refine(region, -1)
        m = covariance_matrix(precision_matrix(lat, params()))
        assert domination_check(m, params()).passed
        assert wick_l2_distance(params(), 2, 0, 2, lat, np.full(lat.eta, 0.5)) > 0
        assert calls == [lat] and calls[0] is lat
        assert m.lattice is m.precision.lattice is lat
        assert lat.tree is lat.tree and len(calls) == 1

    def test_classes_match_pairwise_on_unsorted_regions(self):
        # a region listing its balls out of order gives the sorted listing's cells and bits
        rand = random.Random(10)
        lattices = [refine(parse_region(text, 3), l) for text, l in FIXED_REGIONS]
        whole = Region(q=3, ambient_level=1, ball_level=1, balls=(BallAddress(1, 1, ()),))
        lattices += [refine(whole, 1), refine(chain_region(1), 0)]  # one cell, leaf 0 and 1
        unsorted = sum(_out_of_order(_listing(text)) for text, _ in FIXED_REGIONS)
        for i in range(16):
            region, l = random_region_with_level(rand, (3, 5)[i % 2], max_eta=40)
            listing = _listed(region, rand)
            unsorted += _out_of_order(listing)
            lat = refine(replace(region, balls=listing), l)
            sorted_lat = refine(region, l)
            assert lat.cells == sorted_lat.cells
            p = params_for(region.q, Fraction(2))
            n, n_sorted = precision_matrix(lat, p), precision_matrix(sorted_lat, p)
            assert np.array_equal(n.entries.view(np.uint64), n_sorted.entries.view(np.uint64))
            assert np.array_equal(n.lattice.tree.classes(), n_sorted.lattice.tree.classes())
            m, m_sorted = covariance_matrix(n).entries, covariance_matrix(n_sorted).entries
            assert np.array_equal(m.view(np.uint64), m_sorted.view(np.uint64))
            lattices.append(lat)
        for lat in lattices:
            n = precision_matrix(lat, params_for(lat.q, Fraction(2)))
            amb, classes = lat.region.ambient_level, n.lattice.tree.classes()
            for a in range(lat.eta):
                assert classes[a, a] == amb - lat.cell_level
                for b in range(lat.eta):
                    if a != b:
                        assert classes[a, b] == amb - lat.cell_distance(a, b)
            _assert_node_table(n.lattice.tree, lat)
        assert unsorted >= 4


def _assert_node_table(tree, lat):
    """bounds and firsts against their definitions, from the cells' digits in cell order."""
    digits = [c.digits for c in lat.cells]
    assert digits == sorted(digits)
    assert len(tree.bounds) == tree.leaf + 1 and len(tree.firsts) == tree.leaf
    for c in range(tree.leaf + 1):
        starts = [k for k in range(1, lat.eta) if digits[k][:c] != digits[k - 1][:c]]
        assert tree.bounds[c].tolist() == [0, *starts, lat.eta]
    for c in range(tree.leaf):
        below = tree.bounds[c + 1].tolist()
        want = [next(j for j, b in enumerate(below) if b >= lo) for lo in tree.bounds[c]]
        assert tree.firsts[c].tolist() == want


class TestCovarianceMatrix:
    def test_two_cell_hand_inverse(self):
        lat = refine(chain_region(2), 0)
        m = covariance_matrix(precision_matrix(lat, params()))
        assert m.entries[0, 0] == pytest.approx(286.0 / 468.0, rel=1e-12)
        assert m.entries[0, 1] == pytest.approx(52.0 / 468.0, rel=1e-12)

    def test_three_cell_rank_one_structure(self):
        # N = aI + b(J - I) inverts to 0.5 I + (1/7) J for the hand case
        lat = refine(chain_region(3), 0)
        m = covariance_matrix(precision_matrix(lat, params()))
        assert m.entries[0, 0] == pytest.approx(0.5 + 1.0 / 7.0, rel=1e-12)
        assert m.entries[0, 1] == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_diagonal_precision_inverts_entrywise(self):
        lat = refine(chain_region(3), 0)
        p = params(omega_const=0.0, m_sq=2.5)
        m = covariance_matrix(precision_matrix(lat, p))
        assert np.allclose(m.entries, np.eye(3) / 2.5, rtol=1e-14)

    def test_non_spd_rejected_with_pivot(self):
        lat = refine(chain_region(2), 0)
        n = precision_matrix(lat, params())
        bad = np.array(n.entries)
        bad[1, 1] = -5.0
        with pytest.raises(NotPositiveDefiniteError) as err:
            covariance_matrix(replace(n, entries=bad))
        assert err.value.pivot == 2
        # leading minors 4 and 16 are positive, the determinant is -13
        n3 = precision_matrix(refine(chain_region(3), 0), params())
        bad3 = np.array([[4.0, 2.0, 1.0], [2.0, 5.0, 3.0], [1.0, 3.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            covariance_matrix(replace(n3, entries=bad3))
        assert err.value.pivot == 3

    def test_nan_input_rejected_before_factorization(self):
        lat = refine(chain_region(2), 0)
        n = precision_matrix(lat, params())
        bad = np.array(n.entries)
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs") as err:
            covariance_matrix(replace(n, entries=bad))
        assert not isinstance(err.value, NotPositiveDefiniteError)

    def test_factor_reproduces_matrix(self):
        # the sampling factor a Monte Carlo draw takes of M
        lat = refine(chain_region(3), 0)
        m = covariance_matrix(precision_matrix(lat, params()))
        factor = _cholesky(m.entries, "covariance matrix")
        assert np.allclose(factor @ factor.T, m.entries, atol=1e-14)

    def test_inverse_residual(self):
        lat = refine(chain_region(3), 0)
        m = covariance_matrix(precision_matrix(lat, params()))
        eta = lat.eta
        assert np.max(np.abs(m.entries @ m.precision.entries - np.eye(eta))) < 1e-10 * eta

    def test_nan_inverse_fails_the_residual_check(self, monkeypatch):
        n = precision_matrix(refine(chain_region(2), 0), params())
        nan = tuple(np.full_like(t, np.nan) for t in padicqft.lattice._tree_inverse(n))
        monkeypatch.setattr(padicqft.lattice, "_tree_inverse", lambda N: nan)
        with pytest.raises(ValueError, match="inverse residual nan"):
            covariance_matrix(n)


def _listed(region, rand):
    """The region's balls in a random listing order."""
    balls = list(region.balls)
    rand.shuffle(balls)
    return tuple(balls)


def _shuffled(region, rand):
    """The region built from a random listing of its balls."""
    return replace(region, balls=_listed(region, rand))


def _listing(text):
    """The digit tuples of a region text's balls, in the order the text lists them."""
    return [tuple(int(c) for c in token) for token in text.split("balls=")[1].split(",")]


def _out_of_order(listing) -> bool:
    """True when a ball listing (addresses or digit tuples) is not in digit order."""
    digits = [getattr(b, "digits", b) for b in listing]
    return digits != sorted(digits)


# the first three skip distance classes (1 and 2; 2; 0); the second and the last list
# their balls out of lexicographic order
FIXED_REGIONS = (
    ("amb=3;k=0;balls=000,111", -1),
    ("amb=3;k=0;balls=200,011,000", -1),
    ("amb=1;k=0;balls=0", -1),
    ("amb=2;k=0;balls=21,00,12,20", -2),
)


def _tree_inverse_cases():
    """The 200 acceptance-suite lattices, their twins from shuffled ball listings and the
    fixed regions, each with the ball listing its region was built from."""
    import test_acceptance

    rand = random.Random(71)
    for p, lattice, n, m in test_acceptance.matrix_suite():
        yield p, n, m, lattice.region.balls
        if lattice.region.nu > 1:
            listing = _listed(lattice.region, rand)
            twin = refine(replace(lattice.region, balls=listing), lattice.cell_level)
            n_twin = precision_matrix(twin, p)
            yield p, n_twin, covariance_matrix(n_twin), listing
    for i, (text, l) in enumerate(FIXED_REGIONS):
        p = params_for(3, (Fraction(1), Fraction(2))[i % 2])
        n = precision_matrix(refine(parse_region(text, 3), l), p)
        yield p, n, covariance_matrix(n), _listing(text)


class TestTreeInverse:
    def test_exact_on_small_lattices(self):
        # against Gauss-Jordan in rational arithmetic on the same float entries
        rand = random.Random(8)
        bhs = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3))
        cases = [(parse_region(text, 3), l) for text, l in FIXED_REGIONS[:3]]
        cases += [random_region_with_level(rand, (3, 5)[i % 2], max_eta=12) for i in range(12)]
        for i, (region, l) in enumerate(cases):
            p = params_for(region.q, bhs[i % 4])
            n = precision_matrix(refine(_shuffled(region, rand), l), p)
            got = covariance_matrix(n).entries
            want = np.array([[float(v) for v in row] for row in oracles.exact_inverse(n.entries)])
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), i

    def test_matches_dense_inverse(self):
        seen = {"unsorted": 0, "empty class": 0}
        for p, n, m, listing in _tree_inverse_cases():
            want = oracles.dense_inverse(n.entries)
            assert np.all(np.abs(m.entries - want) <= 1e-12 * np.abs(want))
            assert np.array_equal(m.entries, m.entries.T)
            seen["unsorted"] += _out_of_order(listing)
            seen["empty class"] += None in n.lattice.tree.pairs
        assert min(seen.values()) >= 4, seen

    def test_equals_the_per_node_pass(self, chunked):
        # the block fill against the per-node pass, bit for bit: the acceptance lattices,
        # their shuffled twins and FIXED_REGIONS, a q = 9 set, then 729 cells on a
        # regular region (CHUNKED_REGIONS) and an irregular one (SHUFFLED_REGION)
        cases = [(n, m.entries) for _, n, m, _ in _tree_inverse_cases()]
        rand = random.Random(24)
        bhs = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3))
        for i in range(16):
            region, l = random_region_with_level(rand, 9, max_eta=400, max_nu=8)
            n = precision_matrix(refine(region, l), params_for(9, bhs[i % 4]))
            cases.append((n, covariance_matrix(n).entries))
        cases += [chunked[text] for text in (CHUNKED_REGIONS[0], SHUFFLED_REGION)]
        both = 0  # lattices with balls above top and two depths below it
        for n, m in cases:
            pivot, want = oracles.per_node_tree_inverse(n)
            assert pivot is None
            assert np.array_equal(m.view(np.uint64), want.view(np.uint64))
            both += n.lattice.tree.top > 0 and n.lattice.tree.leaf - n.lattice.tree.top >= 2
        assert len(cases) > 300 and both >= 50, (len(cases), both)

    @pytest.mark.parametrize("cls, factor, pivot", [(3, 1.5, 1), (1, 10.0, 19)])
    def test_failing_den_names_the_per_node_pivot(self, cls, factor, pivot):
        # one class entry of a tree-form N scaled so that a den fails: at depth 3, below
        # the region balls (top = 2; every node there fails at once, so the first cell),
        # and at depth 1, above them, where node 2 of balls 20 and 21 fails first
        n = precision_matrix(refine(parse_region(FIXED_REGIONS[3][0], 3), -2), params())
        assert (n.lattice.tree.top, n.lattice.tree.leaf) == (2, 4)
        table = [n.entries[pair] for pair in n.lattice.tree.pairs] + [n.entries[0, 0]]
        table[cls] *= factor
        bad = replace(n, entries=np.array(table)[n.lattice.tree.classes()])
        assert np.all(np.diagonal(bad.entries) > table[-2])  # every leaf term passes
        assert oracles.per_node_tree_inverse(bad)[0] == pivot
        with pytest.raises(NotPositiveDefiniteError) as err:
            covariance_matrix(bad)
        assert err.value.pivot == pivot

    def test_nonpositive_denominator_is_typed(self):
        # the tree reads its coupling from N[0, 1]; the den test fires before the class check
        n = precision_matrix(refine(chain_region(2), 0), params())
        bad = np.array([[1.0, -2.0], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="precision matrix") as err:
            covariance_matrix(replace(n, entries=bad))
        assert err.value.pivot == 1


def _tree_form(n, diagonal):
    """N rebuilt from one pair per distance class, with the diagonal set to ``diagonal``."""
    table = [0.0 if pair is None else n.entries[pair] for pair in n.lattice.tree.pairs]
    return replace(n, entries=np.array(table + [diagonal])[n.lattice.tree.classes()])


class TestSpdGate:
    """The tree's leaf, denominator and class tests against exact elimination."""

    def test_matches_exact_pivots_at_the_critical_diagonal(self):
        # the lowest eigenvalue (the near-constant mode) reaches 0 at the critical diagonal
        rand = random.Random(29)
        bhs = (Fraction(1), Fraction(2), Fraction(3, 2))
        verdicts, qs, tried = [], set(), 0
        while len(verdicts) < 16 and tried < 200:
            q = (3, 5)[tried % 2]
            region, l = random_region_with_level(rand, q, max_eta=12)
            n = precision_matrix(refine(region, l), params_for(q, bhs[tried % 3]))
            tried += 1
            if np.ptp(n.entries.sum(axis=1)) == 0:  # regular: the constant mode is exact
                continue
            qs.add(q)
            off = np.array(n.entries)
            np.fill_diagonal(off, 0.0)
            critical = -np.linalg.eigvalsh(off)[0]
            for side in (-1, 1):
                m = _tree_form(n, critical * (1 + side * 1e-9))
                pivot = oracles.first_nonpositive_pivot(m.entries)
                try:
                    # an inverse this close to singular cannot meet the residual bound
                    covariance_matrix(m, residual_tol=np.inf)
                    rejected = False
                except NotPositiveDefiniteError:
                    rejected = True
                assert rejected == (pivot is not None), (tried, side, pivot)
                verdicts.append((side, rejected))
        assert len(verdicts) == 16 and qs == {3, 5}, tried
        assert all(rejected == (side < 0) for side, rejected in verdicts)

    def test_acceptance_lattices_are_accepted(self):
        import test_acceptance

        suite = test_acceptance.matrix_suite()
        assert len(suite) == 200
        for p, lattice, n, m in suite:
            assert m.precision is n
            assert np.linalg.eigvalsh(n.entries)[0] > 0

    def test_edited_pair_fails_the_class_check(self):
        n = precision_matrix(refine(parse_region(FIXED_REGIONS[3][0], 3), -2), params())
        i, j = 1, n.lattice.eta - 1
        assert (i, j) not in n.lattice.tree.pairs and (j, i) not in n.lattice.tree.pairs
        bad = np.array(n.entries)
        bad[i, j] = bad[j, i] = bad[i, j] * 1.01
        assert np.linalg.eigvalsh(bad)[0] > 0  # still symmetric positive definite
        with pytest.raises(ValueError, match=rf"N\[{i},{j}\]=.* differs from its distance class"):
            covariance_matrix(replace(n, entries=bad))


# 729 cells each, so _ROW_CHUNK // 729 = 89 rows per chunk and 9 chunks; the second
# lists the same balls out of lexicographic order, so it is the same lattice
CHUNKED_REGIONS = ("amb=1;k=0;balls=0,1,2", "amb=1;k=0;balls=2,0,1")
# balls listed out of order at unequal distances
SHUFFLED_REGION = "amb=2;k=0;balls=12,00,01"


@pytest.fixture(scope="module")
def chunked():
    """(N, M) per region of CHUNKED_REGIONS and SHUFFLED_REGION."""
    out = {}
    for text in CHUNKED_REGIONS + (SHUFFLED_REGION,):
        n = precision_matrix(refine(parse_region(text, 3), -5), params())
        out[text] = n, covariance_matrix(n).entries
    return out


# the two 2,187-cell regions of the lattice benchmark: regular, and nine scattered balls
BENCHMARK_REGIONS = (("amb=1;k=0;balls=0,1,2", -6),
                     ("amb=3;k=0;balls=001,012,020,102,111,122,200,210,221", -5))


def _dense_residual(m, n):
    return float(np.abs(m @ n.entries - np.eye(len(m))).max())


def _rounding(m, n):
    """A bound on the rounding of either form of M N in any entry: eta eps (|M| |N|)."""
    return len(m) * np.finfo(float).eps * float((np.abs(m) @ np.abs(n.entries)).max())


def _residual_cases():
    """FIXED_REGIONS; l = k (the cells are the balls), amb = k (one ball, top = 0) and
    q = 9; then seeded random lattices for q = 3 and 5, half with shuffled balls."""
    edges = [(text, 3, l) for text, l in FIXED_REGIONS]
    edges += [("amb=2;k=0;balls=00,12,20,21", 3, 0), ("amb=2;k=0;balls=21", 3, 0),
              ("amb=1;k=1;balls=", 3, -3), ("amb=2;k=2;balls=", 5, -2),
              ("amb=2;k=0;balls=08,53,54", 9, -1), ("amb=1;k=0;balls=3", 9, -2)]
    for i, (text, q, l) in enumerate(edges):
        yield precision_matrix(refine(parse_region(text, q), l), params_for(q, Fraction(1 + i % 2)))
    rand = random.Random(12)
    bhs = (Fraction(1), Fraction(2), Fraction(3, 2))
    for i in range(24):
        q = (3, 5)[i % 2]
        region, l = random_region_with_level(rand, q, max_eta=64)
        if i % 4 >= 2:
            region = _shuffled(region, rand)
        yield precision_matrix(refine(region, l), params_for(q, bhs[i % 3]))


def _block_of(n, i, j):
    """(0, (a, b)) for ``outer[a, b]`` or (1, (a, k)) for ``inner[a, k]``: the value of
    ``_tree_inverse``'s tables that the fill writes at cell pair (i, j)."""
    tree, per_ball = n.lattice.tree, n.lattice.eta // n.lattice.region.nu
    a, b, c = i // per_ball, j // per_ball, int(tree.classes()[i, j])
    return (0, (a, b)) if a != b or c == tree.top else (1, (a, c - tree.top - 1))


def _shifted_tables(n, cells, shift):
    """The tables of ``_tree_inverse(n)`` with ``shift`` added to the block of each cell pair,
    once per block."""
    tables = [np.array(t) for t in padicqft.lattice._tree_inverse(n)]
    for which, at in {_block_of(n, i, j) for i, j in cells}:
        tables[which][at] += shift
    return tuple(tables)


class TestTreeResidual:
    """The residual M N - I formed from N's tree form: on one row per region ball in
    ``covariance_matrix``, on every row in ``oracles.inverse_residual``; both against the
    dense product."""

    def test_matches_the_dense_product(self):
        # the oracle on any M: the exact one, and with symmetric and one-sided noise
        rand = np.random.default_rng(5)
        qs = set()
        for n in _residual_cases():
            qs.add(n.lattice.region.q)
            m = covariance_matrix(n).entries
            noise = rand.standard_normal(m.shape) * 1e-6
            for trial in (m, m + noise + noise.T, m + noise):  # exact, symmetric, one-sided
                got = oracles.inverse_residual(trial, n)
                want = _dense_residual(trial, n)
                assert abs(got - want) <= 2 * _rounding(trial, n), (n.lattice.region, got, want)
        assert qs == {3, 5, 9}

    @staticmethod
    def _assert_ball_rows_match(n, m):
        got = float(padicqft.lattice._ball_residual(m, n))
        bound = 2 * _rounding(m, n)
        assert abs(got - oracles.inverse_residual(m, n)) <= bound, n.lattice.region
        assert abs(got - _dense_residual(m, n)) <= bound, n.lattice.region

    def test_ball_rows_match_every_row(self):
        # _residual_cases and the 200 acceptance lattices
        import test_acceptance

        cases = list(_residual_cases()) + [n for _, _, n, _ in test_acceptance.matrix_suite()]
        for n in cases:
            self._assert_ball_rows_match(n, covariance_matrix(n).entries)
        assert len(cases) == 234

    @pytest.mark.parametrize("text, l", BENCHMARK_REGIONS)
    def test_ball_rows_match_every_row_at_2187_cells(self, text, l):
        n = precision_matrix(refine(parse_region(text, 3), l), params())
        assert n.lattice.eta == 2187
        self._assert_ball_rows_match(n, covariance_matrix(n).entries)

    @pytest.mark.parametrize("text", CHUNKED_REGIONS + (SHUFFLED_REGION,))
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("where", ["last row", "last diagonal", "first row, far column",
                                       "inside a chunk"])
    def test_shifted_entry_fails(self, monkeypatch, chunked, text, symmetric, where):
        # one entry shifted, against the oracle; then the table value of its block (and of
        # the mirror block, if symmetric), which covariance_matrix must reject
        n, m = chunked[text]
        eta = len(m)
        i, j = {"last row": (eta - 1, 0), "last diagonal": (eta - 1, eta - 1),
                "first row, far column": (3, eta - 2), "inside a chunk": (400, 401)}[where]
        cells = [(i, j), (j, i)] if symmetric else [(i, j)]
        shifted = np.array(m)
        for cell in set(cells):
            shifted[cell] += 1e-6
        residual = oracles.inverse_residual(shifted, n)
        assert abs(residual - _dense_residual(shifted, n)) <= 2 * _rounding(shifted, n)
        tables = _shifted_tables(n, cells, 1e-6)
        filled = n.lattice.tree.fill(*tables)
        assert not np.array_equal(filled, m)
        residual = float(padicqft.lattice._ball_residual(filled, n))
        assert abs(residual - _dense_residual(filled, n)) <= 2 * _rounding(filled, n)
        monkeypatch.setattr(padicqft.lattice, "_tree_inverse", lambda N: tables)
        with pytest.raises(ValueError, match="inverse residual"):
            covariance_matrix(n)

    @pytest.mark.parametrize("cell", [(728, 5), (0, 728)])
    def test_single_nan_fails(self, monkeypatch, chunked, cell):
        # the table value of the block of a cell in the last ball's rows, or in the first's
        n, m = chunked[CHUNKED_REGIONS[0]]
        tables = _shifted_tables(n, [cell], np.nan)
        assert np.isnan(n.lattice.tree.fill(*tables)[cell])
        monkeypatch.setattr(padicqft.lattice, "_tree_inverse", lambda N: tables)
        with pytest.raises(ValueError, match="inverse residual nan"):
            covariance_matrix(n)

    def test_no_square_temporary_beside_m(self, monkeypatch, chunked):
        # small chunks, so the chunk temporaries stay far below one eta x eta array; a built
        # N reads no chunk, a replaced one is checked finite and by class chunk by chunk
        monkeypatch.setattr(padicqft.lattice, "_ROW_CHUNK", 1 << 12)
        n, m = chunked[CHUNKED_REGIONS[0]]
        for matrix in (n, replace(n, entries=n.entries.copy())):
            tracemalloc.start()
            try:
                covariance_matrix(matrix)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert m.nbytes < peak < 1.25 * m.nbytes


class TestOutOfOrderLattice:
    """A region listing its balls out of order is the sorted region: same cells, same bits."""

    def test_holds_m_once(self, chunked):
        n, m = chunked[CHUNKED_REGIONS[1]]
        assert n.lattice.region.serialize() == CHUNKED_REGIONS[0]
        tracemalloc.start()
        try:
            covariance_matrix(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.nbytes < peak < 1.5 * m.nbytes

    @staticmethod
    def _assert_same_lattice(n0, m0, n1, m1):
        assert n1.lattice.cells == n0.lattice.cells
        assert np.array_equal(n1.entries.view(np.uint64), n0.entries.view(np.uint64))
        assert np.array_equal(n1.lattice.tree.classes(), n0.lattice.tree.classes())
        assert np.array_equal(m1.view(np.uint64), m0.view(np.uint64))

    def test_equals_the_sorted_lattice(self, chunked):
        (n0, m0), (n1, m1) = (chunked[text] for text in CHUNKED_REGIONS)
        self._assert_same_lattice(n0, m0, n1, m1)

    def test_irregular_region_equals_its_sorted_twin(self):
        # the full ball above is invariant under its block shift; this region is not
        pair = []
        for text in ("amb=2;k=0;balls=00,12,20,21", "amb=2;k=0;balls=21,00,12,20"):
            n = precision_matrix(refine(parse_region(text, 3), -2), params())
            pair += [n, covariance_matrix(n).entries]
        self._assert_same_lattice(*pair)



# edge lattices: the cells are the balls (l = k), one ball at the ambient level (top = 0),
# one cell that is the whole ambient ball (leaf = 0), q = 9
EDGE_LATTICES = (("amb=2;k=0;balls=00,12,20,21", 3, 0), ("amb=1;k=1;balls=", 3, -3),
                 ("amb=1;k=1;balls=", 3, 1), ("amb=2;k=0;balls=08,53,54", 9, -1))
# the benchmark's irregular region at l = -4 and four of its balls: 324 cells in 729
NESTED_4_IN_9 = ("amb=3;k=0;balls=012,102,122,210", BENCHMARK_REGIONS[1][0], -4)


def _arithmetic_cases():
    """The 200 acceptance lattices, FIXED_REGIONS, EDGE_LATTICES and the two 2,187-cell
    benchmark regions, each with its cells' digit paths enumerated by the oracle."""
    import test_acceptance

    lattices = [lattice for _, lattice, _, _ in test_acceptance.matrix_suite()]
    lattices += [refine(parse_region(text, 3), l) for text, l in FIXED_REGIONS + BENCHMARK_REGIONS]
    lattices += [refine(parse_region(text, q), l) for text, q, l in EDGE_LATTICES]
    for lat in lattices:
        region = lat.region
        depth = region.ball_level - lat.cell_level
        yield lat, oracles.refine_digits([b.digits for b in region.balls], region.q, depth)


class TestArithmeticLattice:
    """A lattice is its region and its level: the ball tree, the cells, the cell index and
    distance and the shared-cell map are arithmetic, equal to the enumerated cells and the
    digit-stream tree of ``oracles``."""

    def test_tree_fields_equal_the_digit_stream(self):
        count = 0
        for lat, digits in _arithmetic_cases():
            region, amb = lat.region, lat.region.ambient_level
            want = oracles.digit_ball_tree(digits, amb - lat.cell_level, amb - region.ball_level,
                                           region.nu)
            tree = lat.tree
            assert [f.name for f in fields(tree)] == list(want), lat
            for name, value in want.items():
                got = getattr(tree, name)
                if name in ("bounds", "firsts"):
                    assert len(got) == len(value), (lat, name)
                    for g, w in zip(got, value):
                        assert g.dtype == w.dtype and np.array_equal(g, w), (lat, name)
                elif name == "ball_classes":
                    assert got.dtype == value.dtype and np.array_equal(got, value), lat
                else:
                    assert got == value, (lat, name)
            count += 1
        assert count == 200 + len(FIXED_REGIONS) + len(BENCHMARK_REGIONS) + len(EDGE_LATTICES)

    def test_cells_index_and_distance(self):
        rand = random.Random(27)
        for lat, digits in _arithmetic_cases():
            cells, eta = lat.cells, lat.eta
            assert [c.digits for c in cells] == digits and eta == len(digits)
            assert {(c.ambient_level, c.level) for c in cells} == {
                (lat.region.ambient_level, lat.cell_level)}
            assert [lat.index_of(c) for c in cells] == list(range(eta))
            pairs = [(0, j) for j in range(eta)] + [(i, eta - 1) for i in range(eta)]
            pairs += [(rand.randrange(eta), rand.randrange(eta)) for _ in range(200)]
            for i, j in pairs:
                assert lat.cell_distance(i, j) == distance(cells[i], cells[j]), (lat, i, j)

    def test_shared_indices_equal_the_digit_lookup(self):
        rand = random.Random(28)
        cases = [random_nested_pair(rand, (3, 5)[i % 2], max_eta=100) for i in range(40)]
        small, big, l = NESTED_4_IN_9
        cases.append((parse_region(small, 3), parse_region(big, 3), l))
        for small, big, l in cases:
            lat, lat_prime, idx = padicqft.ultrametric._shared_indices(small, big, l)
            depth = small.ball_level - l
            position = {d: i for i, d in enumerate(
                oracles.refine_digits([b.digits for b in big.balls], big.q, depth))}
            want = [position[d] for d in oracles.refine_digits([b.digits for b in small.balls],
                                                               small.q, depth)]
            assert idx.dtype == np.intp and idx.tolist() == want, (small, big, l)
            assert (lat.eta, lat_prime.eta) == (len(want), len(position))
        assert (lat.eta, lat_prime.eta) == (324, 729)

    def test_matrices_and_checks_build_no_cell_address(self, monkeypatch):
        # the five entry points of the lattice round read (region, l) alone
        def no_cells(lat):
            raise AssertionError(f"{lat} read its cell addresses")

        monkeypatch.setattr(LatticeSpec, "cells", property(no_cells))
        small, big, l = NESTED_4_IN_9
        small, big = parse_region(small, 3), parse_region(big, 3)
        for text, l_bench in BENCHMARK_REGIONS:
            lat, p = refine(parse_region(text, 3), l_bench + 1), params()
            m = covariance_matrix(precision_matrix(lat, p))
            assert domination_check(m, p).passed
            assert "cells" not in vars(lat)
        assert restriction_check(small, big, l, params())
        assert monotonicity_check(small, big, l, params()).passed
        monkeypatch.undo()
        assert "cells" not in vars(lat)
        assert lat.cells[-1].digits == lat.region.balls[-1].digits + (2,) * 4  # built on a read
        assert "cells" in vars(lat)


class TestByClass:
    """``_BallTree.by_class``: any rows of the block fill, one value per distance class."""

    @staticmethod
    def _assert_rows(n, steps):
        lat, tree = n.lattice, n.lattice.tree
        digits = np.array([c.digits for c in lat.cells], dtype=np.int64).reshape(lat.eta, -1)
        # the cells' common-prefix length: amb - d(i, j), and amb - l on the diagonal
        want = np.logical_and.accumulate(digits[:, None] == digits[None], axis=2).sum(axis=2)
        if lat.eta <= 64:
            amb = lat.region.ambient_level
            for i, j in itertools.product(range(lat.eta), repeat=2):
                assert want[i, j] == amb - (lat.cell_level if i == j else lat.cell_distance(i, j))
        assert np.array_equal(tree.classes(), want)
        table = np.random.default_rng(lat.eta).standard_normal(tree.leaf + 1)
        whole = tree.by_class(table)
        assert np.array_equal(whole, table[want])
        for step in steps:
            for lo in range(0, lat.eta, step):
                rows = slice(lo, min(lo + step, lat.eta))
                assert np.array_equal(tree.by_class(table, rows), whole[rows]), (lat.region, rows)

    def test_rows_equal_the_whole_fill(self, chunked):
        # the acceptance lattices, their shuffled twins and FIXED_REGIONS, a q = 9 set, then
        # 729 cells in row chunks that cut the nodes below the region balls
        cases = [n for _, n, _, _ in _tree_inverse_cases()]
        rand = random.Random(24)
        for i in range(16):
            region, l = random_region_with_level(rand, 9, max_eta=400, max_nu=8)
            cases.append(precision_matrix(refine(region, l), params_for(9, Fraction(2))))
        for n in cases:
            self._assert_rows(n, steps=(1, 4, 7))
        for text in CHUNKED_REGIONS + (SHUFFLED_REGION,):
            self._assert_rows(chunked[text][0], steps=(padicqft.lattice._ROW_CHUNK // 729, 5, 250))
        assert {n.lattice.q for n in cases} == {3, 5, 9}

    def test_every_row_permutes_its_balls_first_row(self, chunked):
        # distinct random tables, one value per block
        cases = [n for _, n, _, _ in _tree_inverse_cases()]
        cases += [chunked[text][0] for text in CHUNKED_REGIONS + (SHUFFLED_REGION,)]
        rand = np.random.default_rng(26)
        for n in cases:
            tree, eta, nu = n.lattice.tree, n.lattice.eta, n.lattice.region.nu
            outer, inner = rand.random((nu, nu)), rand.random((nu, tree.leaf - tree.top))
            whole = tree.fill(outer, inner)
            starts = tree.ball_rows()
            assert list(range(eta)[starts]) == [a * (eta // nu) for a in range(nu)]
            assert np.array_equal(tree.fill(outer, inner, starts), whole[starts])
            firsts = np.sort(whole[starts], axis=1)
            assert np.array_equal(np.sort(whole, axis=1), firsts.repeat(eta // nu, axis=0))
            assert len(np.unique(whole)) == nu * nu + inner.size  # every block is taken
        assert {n.lattice.eta // n.lattice.region.nu for n in cases} >= {1, 3, 9, 243}

    def test_precision_holds_one_square_float_array(self):
        # N's entries are the only eta x eta array made: no class array beside them
        lat = refine(parse_region(CHUNKED_REGIONS[0], 3), -5)
        tracemalloc.start()
        try:
            n = precision_matrix(lat, params())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n.entries.nbytes <= peak < n.entries.nbytes + lat.eta**2 // 2


class TestChunkedDomination:
    """domination_check of an M without tables reads its margins row chunk by row chunk, as
    one dense argmin would."""

    @staticmethod
    def _dense_reference(n, entries):
        """The worst margin and the violation text, from one eta x eta margin array."""
        l, amb = n.lattice.cell_level, n.lattice.region.ambient_level
        table = [free_covariance_entry(params(), l, amb - c) for c in range(amb - l)]
        bound = np.array(table + [free_cell_variance(params(), l)])[n.lattice.tree.classes()]
        margins = bound - entries
        i, j = divmod(int(np.argmin(margins)), len(entries))
        text = (f"M[{i},{j}]={float(entries[i, j])!r} exceeds free covariance "
                f"{float(bound[i, j])!r}")
        return float(margins[i, j]), text

    def test_no_square_temporary(self, monkeypatch, chunked):
        # small chunks, so the chunk temporaries stay far below one eta x eta array
        monkeypatch.setattr(padicqft.lattice, "_ROW_CHUNK", 1 << 12)
        n, m = chunked[CHUNKED_REGIONS[0]]
        cov = CovarianceMatrix(entries=m, precision=n)
        tracemalloc.start()
        try:
            report = domination_check(cov, params())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 0.1 * m.nbytes

    @pytest.mark.parametrize("cells", [
        {(0, 0): 1.0, (728, 5): np.nan},  # a NaN in the last chunk, after a larger excess
        {(700, 3): 1.0, (5, 700): 1.0},  # equal excesses: the first in row-major order
        {(400, 401): 2.0, (3, 727): 1.0},  # the larger excess, in a later chunk
    ])
    def test_reports_the_dense_worst_cell(self, monkeypatch, chunked, cells):
        monkeypatch.setattr(padicqft.lattice, "_ROW_CHUNK", 1 << 12)
        n, m = chunked[CHUNKED_REGIONS[0]]
        bad = np.array(m)
        for cell, excess in cells.items():
            bad[cell] += excess
        report = domination_check(CovarianceMatrix(bad, n), params())
        worst, text = self._dense_reference(n, bad)
        assert not report.passed
        assert report.worst_margin == worst or np.isnan(report.worst_margin) and np.isnan(worst)
        assert report.violations == (text,)


def _filled_cases(chunked):
    """(params, N) of the 200 acceptance lattices, CHUNKED_REGIONS and SHUFFLED_REGION."""
    import test_acceptance

    cases = [(p, n) for p, _, n, _ in test_acceptance.matrix_suite()]
    return cases + [(params(), chunked[text][0]) for text in CHUNKED_REGIONS + (SHUFFLED_REGION,)]


class TestFilledMatrices:
    """Checks of a matrix the package built read one row per region ball, and report what
    the dense path reports on the same entries; a matrix made by ``replace`` is not marked
    filled and is read whole."""

    def test_domination_equals_the_dense_path(self, chunked):
        # M at its own parameters passes; M built at half the mass exceeds the free covariance
        # on the diagonal; M checked at a hundredth of gamma and ten times the mass exceeds it
        # off the diagonal too, often first on a mirror pair outer[a, b], outer[b, a] of equal
        # margins, where the report names the row-major first cell, a < b
        seen = {"passed": 0, "diagonal": 0, "mirror pair": 0}
        for p, n in _filled_cases(chunked):
            weak = covariance_matrix(precision_matrix(n.lattice, replace(p, m_sq=p.m_sq / 2)))
            far = replace(p, m_sq=10 * p.m_sq, gamma_const=p.gamma_const / 100)
            per_ball = n.lattice.eta // n.lattice.region.nu
            for m, at in ((covariance_matrix(n), p), (weak, p), (weak, far)):
                dense = CovarianceMatrix(m.entries, m.precision)
                assert m._filled and not dense._filled
                report = domination_check(m, at)
                assert repr(report) == repr(domination_check(dense, at))
                if report.passed:
                    seen["passed"] += 1
                    continue
                i, j = map(int, report.violations[0][2:].split("]")[0].split(","))
                seen["diagonal"] += i == j
                seen["mirror pair"] += i // per_ball < j // per_ball
        assert seen["passed"] >= 200 and seen["diagonal"] >= 100 and seen["mirror pair"] >= 15, seen

    def test_replaced_matrices_take_the_dense_path(self, chunked):
        for p, n in _filled_cases(chunked):
            m = covariance_matrix(n)
            n_copy, m_copy = replace(n, entries=n.entries.copy()), replace(m, entries=m.entries.copy())
            assert n._filled and not n_copy._filled and not m_copy._filled
            again = covariance_matrix(n_copy).entries
            assert np.array_equal(again.view(np.uint64), m.entries.view(np.uint64))
            assert repr(domination_check(m_copy, p)) == repr(domination_check(m, p))

    def test_allocation(self, chunked):
        # a built N: M's fill is the only eta x eta array; a built M: only its nu ball rows
        n, m = chunked[CHUNKED_REGIONS[0]]
        tracemalloc.start()
        try:
            cov = covariance_matrix(n)
            cov_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            report = domination_check(cov, params())
            dom_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert m.nbytes <= cov_peak < 1.1 * m.nbytes
        assert dom_peak < 64 * 1024


class TestRestriction:
    def test_equal_regions(self):
        r = chain_region(3)
        assert restriction_check(r, r, 0, params())

    def test_two_in_three(self):
        assert restriction_check(chain_region(2), chain_region(3), 0, params())

    def test_perturbed_coupling_differs(self):
        small, big = chain_region(2), chain_region(3)
        lat_s = refine(small, 0)
        lat_b = refine(big, 0)
        n_s = precision_matrix(lat_s, params())
        n_b = precision_matrix(lat_b, params(omega_const=-8.0))
        idx = [lat_b.index_of(c) for c in lat_s.cells]
        assert not np.array_equal(n_s.entries, np.asarray(n_b.entries)[np.ix_(idx, idx)])

    def test_non_nested_rejected(self):
        other = Region(q=3, ambient_level=1, ball_level=0, balls=(BallAddress(1, 0, (2,)),))
        with pytest.raises(ValueError):
            restriction_check(other, chain_region(2), 0, params())

    def test_randomized_exact(self):
        rand = random.Random(21)
        for i in range(25):
            q = (3, 5)[i % 2]
            small, big, l = random_nested_pair(rand, q, max_eta=45)
            p = params_for(q, (Fraction(1), Fraction(2))[i % 2])
            assert restriction_check(small, big, l, p)


class TestSignsAndDomination:
    def test_sign_structure_hand_case(self):
        lat = refine(chain_region(3), 0)
        report = sign_structure_check(precision_matrix(lat, params()))
        assert report.passed

    def test_nonpositive_diagonal_fails_sign_structure(self):
        n = precision_matrix(refine(chain_region(3), 0), params())
        bad = np.array(n.entries)
        bad[1, 1] = 0.0
        report = sign_structure_check(replace(n, entries=bad))
        assert not report.passed and report.worst_margin == 0.0
        assert report.violations == ("nonpositive diagonal entry 0.0",)

    def test_domination_hand_margins(self):
        # free-covariance slack of the fully-refined ball: about 6.5e-4
        lat3 = refine(chain_region(3), 0)
        m3 = covariance_matrix(precision_matrix(lat3, params()))
        report = domination_check(m3, params())
        assert report.passed
        assert abs(report.worst_margin - 6.488329353254410e-04) < 1e-5

        lat2 = refine(chain_region(2), 0)
        m2 = covariance_matrix(precision_matrix(lat2, params()))
        c11 = free_covariance_entry(params(), 0, 1)
        assert m2.entries[0, 1] <= c11
        assert c11 - m2.entries[0, 1] == pytest.approx(0.143506 - 0.111111, abs=1e-5)

    def test_zero_coupling_degenerate_sanity(self):
        # with the coupling switched off the covariance collapses to 1/m^2,
        # while the free variance still carries at least its largest shell
        lat = refine(chain_region(2), 0)
        p = params(omega_const=0.0)
        m = covariance_matrix(precision_matrix(lat, p))
        assert m.entries[0, 0] == pytest.approx(1.0 / p.m_sq, rel=1e-14)
        largest_shell = 3.0**0 * oracles.shell(3, 0) / (1.0 + 1.0)
        assert free_covariance_entry(p, 0, oracles.SAME) >= largest_shell

    def test_monotonicity_hand_case(self):
        report = monotonicity_check(chain_region(2), chain_region(3), 0, params())
        assert report.passed
        # 0.611111 <= 0.642857 and 0.111111 <= 0.142857
        assert report.worst_margin == pytest.approx(1.0 / 7.0 - 52.0 / 468.0, rel=1e-9)

    def test_monotonicity_equal_regions(self):
        r = chain_region(3)
        report = monotonicity_check(r, r, 0, params())
        assert report.passed
        assert abs(report.worst_margin) < 1e-12

    def test_nan_off_diagonal_fails_sign_structure(self):
        n = precision_matrix(refine(chain_region(3), 0), params())
        bad = np.array(n.entries)
        bad[0, 2] = bad[2, 0] = np.nan
        report = sign_structure_check(replace(n, entries=bad))
        assert not report.passed
        assert np.isnan(report.worst_margin)

    def test_nan_covariance_fails_domination(self):
        m = covariance_matrix(precision_matrix(refine(chain_region(3), 0), params()))
        bad = np.array(m.entries)
        bad[1, 2] = np.nan
        report = domination_check(replace(m, entries=bad), params())
        assert not report.passed
        assert report.violations[0].startswith("M[1,2]=")

    def test_violation_text_holds_plain_floats(self):
        n = precision_matrix(refine(parse_region("amb=1;k=0;balls=0,1", 3), 0), params())
        m = covariance_matrix(n)
        report = domination_check(replace(m, entries=2 * m.entries), params())
        assert not report.passed
        text = report.violations[0]
        assert text == (f"M[0,0]={float(2 * m.entries[0, 0])!r} exceeds free covariance "
                        f"{free_cell_variance(params(), 0)!r}")
        assert text.startswith("M[0,0]=1.22222") and "np.float64" not in text

    def test_nan_covariance_fails_monotonicity(self, monkeypatch):
        real = padicqft.lattice.covariance_matrix

        def nan_for_the_big_region(N, *args, **kwargs):
            m = real(N, *args, **kwargs)
            return replace(m, entries=np.full_like(m.entries, np.nan)) if N.lattice.eta == 3 else m

        monkeypatch.setattr(padicqft.lattice, "covariance_matrix", nan_for_the_big_region)
        report = monotonicity_check(chain_region(2), chain_region(3), 0, params())
        assert not report.passed

    def test_randomized_suite(self):
        rand = random.Random(33)
        for i in range(40):
            q = (3, 5)[i % 2]
            region, l = random_region_with_level(rand, q, max_eta=45)
            p = params_for(q, (Fraction(1), Fraction(2), Fraction(3))[i % 3])
            n = precision_matrix(refine(region, l), p)
            assert sign_structure_check(n).passed
            m = covariance_matrix(n)
            assert float(np.min(m.entries)) >= -1e-12
            assert domination_check(m, p).passed

    def test_randomized_monotonicity(self):
        rand = random.Random(44)
        for i in range(30):
            q = (3, 5)[i % 2]
            small, big, l = random_nested_pair(rand, q, max_eta=45)
            p = params_for(q, (Fraction(1), Fraction(2))[i % 2])
            assert monotonicity_check(small, big, l, p).passed


class TestCovarianceAgainstSeriesOracle:
    def test_free_entries_match_series(self):
        # the domination comparison uses entries from an independent series
        p = params()
        lat = refine(chain_region(3), -1)
        m = covariance_matrix(precision_matrix(lat, p))
        for i in range(lat.eta):
            for j in range(lat.eta):
                dd = oracles.SAME if i == j else lat.cell_distance(i, j)
                free = oracles.series_covariance_entry(3, 2.0, 1.0, 1.0, -1, dd)
                assert m.entries[i, j] <= free + 1e-9



class TestEntriesShape:
    """A matrix's entries are eta x eta: making one of another shape, directly or by
    ``replace``, raises ValueError naming both shapes, before any entry point reads it."""

    SIZES = (1, 2, 4)

    @staticmethod
    def _matrices():
        n = precision_matrix(refine(chain_region(3), 0), params())
        return n, covariance_matrix(n)

    @staticmethod
    def _raises(size):
        return pytest.raises(ValueError, match=rf"shape \({size}, {size}\); 3 cells need \(3, 3\)")

    def test_precision_of_another_shape_rejected(self):
        n, _ = self._matrices()
        for entries in (np.eye(3)[0], np.ones((3, 4)), np.ones((3, 3, 1))):
            with pytest.raises(ValueError, match=re.escape(f"shape {entries.shape};")):
                PrecisionMatrix(n.lattice, entries)
        for size in self.SIZES:
            with self._raises(size):
                PrecisionMatrix(n.lattice, np.eye(size))

    def test_covariance_matrix(self):
        n, _ = self._matrices()
        for size in self.SIZES:
            with self._raises(size):
                covariance_matrix(replace(n, entries=np.eye(size)))

    def test_sign_structure_check(self):
        n, _ = self._matrices()
        for size in self.SIZES:
            with self._raises(size):
                sign_structure_check(replace(n, entries=np.eye(size)))

    def test_domination_check(self):
        n, m = self._matrices()
        for size in self.SIZES:
            with self._raises(size):
                domination_check(replace(m, entries=np.eye(size)), params())
            with self._raises(size):
                domination_check(CovarianceMatrix(np.eye(size), n), params())

    def test_lattice_is_the_precision_matrix_lattice(self):
        # one lattice per matrix pair: M reads N's, so no two copies can disagree
        n, m = self._matrices()
        assert [f.name for f in fields(n) if f.init] == ["lattice", "entries"]
        assert [f.name for f in fields(m) if f.init] == ["entries", "precision"]
        assert m.lattice is m.precision.lattice is n.lattice
        same = CovarianceMatrix(np.array(m.entries), n)
        assert same.lattice is n.lattice and not same._filled
        assert domination_check(same, params()).passed
