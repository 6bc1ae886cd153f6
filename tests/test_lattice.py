"""Precision/covariance matrices: signs, SPD, restriction, domination, growth."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import padicqft.lattice
from padicqft.lattice import (
    NotPositiveDefiniteError,
    covariance_matrix,
    distance_exponent_matrix,
    domination_check,
    monotonicity_check,
    precision_diagonal,
    precision_matrix,
    precision_offdiagonal,
    restriction_check,
    sign_structure_check,
    write_matrix_csv,
)
from padicqft.model import FieldParams, free_covariance_entry
from padicqft.ultrametric import BallAddress, Region, refine
from padicqft.verify import params_for, random_nested_pair, random_region_with_level

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

    def test_literal_diagonal_without_mass(self):
        lat = refine(chain_region(2), 0)
        with_mass = precision_matrix(lat, params(), diagonal_mass_term=True)
        without = precision_matrix(lat, params(), diagonal_mass_term=False)
        assert with_mass.entries[0, 0] - without.entries[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert with_mass.entries[0, 1] == without.entries[0, 1]

    def test_size_guard(self):
        region = Region(q=3, ambient_level=1, ball_level=1, balls=(BallAddress(1, 1, ()),))
        lat = refine(region, -8, max_cells=10**5)
        with pytest.raises(ValueError):
            precision_matrix(lat, params())

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
        # the per-class table reproduces the scalar closed forms bit for bit
        rand = random.Random(12)
        bhs = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3))
        for i in range(24):
            q = (3, 5)[i % 2]
            region, l = random_region_with_level(rand, q, max_eta=60)
            p = params_for(q, bhs[i % 4])
            lat = refine(region, l)
            n = precision_matrix(lat, p)
            amb = region.ambient_level
            assert n.classes.dtype == np.min_scalar_type(amb - l)
            assert not n.classes.flags.writeable
            for a in range(lat.eta):
                assert n.entries[a, a] == precision_diagonal(p, l)
                assert n.classes[a, a] == amb - l
                for b in range(lat.eta):
                    if a != b:
                        d = lat.cell_distance(a, b)
                        assert n.entries[a, b] == precision_offdiagonal(p, l, d)
                        assert n.classes[a, b] == amb - d

    def test_distance_matrix_built_once_per_lattice(self, monkeypatch):
        calls = []
        build = padicqft.lattice.distance_exponent_matrix

        def counting(lat):
            calls.append(lat)
            return build(lat)

        monkeypatch.setattr(padicqft.lattice, "distance_exponent_matrix", counting)
        region = Region(q=3, ambient_level=1, ball_level=0,
                        balls=(BallAddress(1, 0, (0,)), BallAddress(1, 0, (2,))))
        m = covariance_matrix(precision_matrix(refine(region, -1), params()))
        assert domination_check(m, params()).passed
        assert len(calls) == 1

    def test_distance_matrix_matches_pairwise(self):
        rand = random.Random(9)
        for _ in range(10):
            region, l = random_region_with_level(rand, 3, max_eta=30)
            lat = refine(region, l)
            d = distance_exponent_matrix(lat)
            for i in range(lat.eta):
                for j in range(lat.eta):
                    if i != j:
                        assert d[i, j] == lat.cell_distance(i, j)


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
        lat = refine(chain_region(3), 0)
        m = covariance_matrix(precision_matrix(lat, params()))
        assert np.allclose(m.factor @ m.factor.T, m.entries, atol=1e-14)

    def test_inverse_residual(self):
        lat = refine(chain_region(3), 0)
        m = covariance_matrix(precision_matrix(lat, params()))
        eta = lat.eta
        assert np.max(np.abs(m.entries @ m.precision.entries - np.eye(eta))) < 1e-10 * eta

    def test_nan_inverse_fails_the_residual_check(self, monkeypatch):
        n = precision_matrix(refine(chain_region(2), 0), params())
        monkeypatch.setattr(padicqft.lattice.scipy.linalg, "cho_solve",
                            lambda *args, **kwargs: np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="inverse residual nan"):
            covariance_matrix(n)


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
        d = distance_exponent_matrix(lat)
        m = covariance_matrix(precision_matrix(lat, p))
        for i in range(lat.eta):
            for j in range(lat.eta):
                dd = oracles.SAME if i == j else int(d[i, j])
                free = oracles.series_covariance_entry(3, 2.0, 1.0, 1.0, -1, dd)
                assert m.entries[i, j] <= free + 1e-9


class TestCsvEmitter:
    def test_header_and_shape(self, tmp_path):
        lat = refine(chain_region(2), 0)
        n = precision_matrix(lat, params())
        path = tmp_path / "n.csv"
        write_matrix_csv(path, n.entries, lat, "precision")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# name=precision;lattice=amb=1;k=0;balls=0,1;l=0;eta=2")
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(22.0 / 13.0, rel=1e-15)
