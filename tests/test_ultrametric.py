"""Ball addresses, regions, refinement, and the translation-membership rule."""

import itertools
import random
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicqft.ultrametric import (
    SAME,
    BallAddress,
    LatticeSpec,
    Region,
    distance,
    parse_region,
    refine,
)

from padicqft.verify import random_nested_pair

from oracles import FieldModel


def ball(amb, level, digits):
    return BallAddress(amb, level, tuple(digits))


class TestBallAddress:
    def test_digit_count_enforced(self):
        with pytest.raises(ValueError):
            ball(2, 0, (1,))

    def test_level_above_ambient_rejected(self):
        with pytest.raises(ValueError):
            ball(0, 1, ())

    def test_descendants(self):
        root = ball(1, 0, (2,))
        child = root.child(1)
        assert child.digits == (2, 1)
        assert child.is_descendant_of(root)
        assert not root.is_descendant_of(child)


class TestDistance:
    def test_identity_is_same(self):
        a = ball(2, 0, (0, 1))
        assert distance(a, ball(2, 0, (0, 1))) == SAME

    def test_prefix_length_one(self):
        # q=3 tree: digits (0,1) vs (0,2) share one digit -> separation 3^1
        assert distance(ball(2, 0, (0, 1)), ball(2, 0, (0, 2))) == 1

    def test_empty_prefix(self):
        assert distance(ball(2, 0, (0, 1)), ball(2, 0, (1, 1))) == 2

    def test_symmetry_and_separation(self):
        rand = random.Random(7)
        for _ in range(200):
            amb = rand.randint(-1, 3)
            level = amb - rand.randint(1, 4)
            a = ball(amb, level, [rand.randrange(3) for _ in range(amb - level)])
            b = ball(amb, level, [rand.randrange(3) for _ in range(amb - level)])
            assert distance(a, b) == distance(b, a)
            if a.digits != b.digits:
                assert distance(a, b) > level

    def test_mismatched_trees_rejected(self):
        with pytest.raises(ValueError):
            distance(ball(2, 0, (0, 1)), ball(2, 1, (0,)))

    def test_ultrametric_inequality_exhaustive_small_tree(self):
        # every triple of the 27 leaves of the depth-3 ternary tree
        leaves = [ball(1, -2, d) for d in itertools.product(range(3), repeat=3)]

        def dist(x, y):
            value = distance(x, y)
            return -100 if value == SAME else value

        for a in leaves:
            for b in leaves:
                for c in leaves:
                    assert dist(a, c) <= max(dist(a, b), dist(b, c))

    @given(
        st.integers(0, 4),
        st.tuples(*[st.integers(0, 2)] * 4),
        st.tuples(*[st.integers(0, 2)] * 4),
        st.tuples(*[st.integers(0, 2)] * 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_ultrametric_inequality(self, amb, da, db, dc):
        a, b, c = (ball(amb, amb - 4, d) for d in (da, db, dc))

        def dist(x, y):
            value = distance(x, y)
            return amb - 100 if value == SAME else value

        assert dist(a, c) <= max(dist(a, b), dist(b, c))

    def test_distance_matches_digit_arithmetic(self):
        # the tree prefix rule agrees with exact subtraction in (Z/p^T)^n
        for p, n in ((3, 1), (3, 2), (5, 1)):
            model = FieldModel(p, n, ambient=2, depth=4)
            rand = random.Random(p * 10 + n)
            q = p**n
            for _ in range(100):
                da = [rand.randrange(q) for _ in range(4)]
                db = [rand.randrange(q) for _ in range(4)]
                a, b = ball(2, -2, da), ball(2, -2, db)
                xa = model.from_tree_digits(da)
                xb = model.from_tree_digits(db)
                assert distance(a, b) == model.norm_exponent(model.sub(xa, xb))


class TestRegion:
    def test_duplicate_balls_rejected(self):
        with pytest.raises(ValueError):
            Region(q=3, ambient_level=1, ball_level=0, balls=(ball(1, 0, (0,)), ball(1, 0, (0,))))

    def test_digit_range_rejected(self):
        with pytest.raises(ValueError):
            Region(q=3, ambient_level=1, ball_level=0, balls=(ball(1, 0, (3,)),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Region(q=3, ambient_level=1, ball_level=0, balls=())

    def test_serialization_round_trip(self):
        region = Region(
            q=3,
            ambient_level=2,
            ball_level=0,
            balls=(ball(2, 0, (0, 1)), ball(2, 0, (2, 0))),
        )
        text = region.serialize()
        assert text == "amb=2;k=0;balls=01,20"
        assert parse_region(text, 3) == region

    def test_whole_ambient_ball_serializes(self):
        region = Region(q=3, ambient_level=1, ball_level=1, balls=(ball(1, 1, ()),))
        assert parse_region(region.serialize(), 3) == region

    def test_subregion(self):
        big = Region(q=3, ambient_level=1, ball_level=0,
                     balls=tuple(ball(1, 0, (i,)) for i in range(3)))
        small = Region(q=3, ambient_level=1, ball_level=0, balls=big.balls[:2])
        assert small.is_subregion_of(big)
        assert not big.is_subregion_of(small)

    def test_listing_order_is_ignored(self):
        # a region is a set of balls: equality, hashing and the text form ignore the listing
        balls = [ball(2, 0, d) for d in ((2, 1), (0, 0), (1, 2), (2, 0))]
        regions = [Region(q=3, ambient_level=2, ball_level=0, balls=tuple(p))
                   for p in itertools.permutations(balls)]
        assert len(set(regions)) == 1 and all(r == regions[0] for r in regions)
        assert {r.serialize() for r in regions} == {"amb=2;k=0;balls=00,12,20,21"}
        assert all(r.balls == tuple(sorted(balls, key=lambda b: b.digits)) for r in regions)
        assert parse_region("amb=2;k=0;balls=21,00,12,20", 3) == regions[0]


class TestIntegerLevels:
    """Levels are integers: a numpy int is stored as an int, a float is a TypeError."""

    def test_numpy_levels_stored_as_int(self):
        b = BallAddress(np.int64(1), np.int32(0), (np.int64(2),))
        region = Region(q=3, ambient_level=np.int16(1), ball_level=np.int64(0), balls=(b,))
        lat = refine(region, np.int64(-1))
        for value in (b.ambient_level, b.level, region.ambient_level, region.ball_level,
                      lat.cell_level):
            assert type(value) is int
        assert region.serialize() == "amb=1;k=0;balls=2"
        assert lat == refine(parse_region("amb=1;k=0;balls=2", 3), -1) and lat.eta == 3

    @pytest.mark.parametrize("level", [-1.0, -1.5, 0.0])
    def test_float_levels_rejected(self, level):
        region = parse_region("amb=1;k=0;balls=0,1,2", 3)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            refine(region, level)
        with pytest.raises(TypeError):
            LatticeSpec(region, level)
        with pytest.raises(TypeError):
            Region(q=3, ambient_level=level + 2, ball_level=0, balls=region.balls)
        with pytest.raises(TypeError):
            Region(q=3, ambient_level=1, ball_level=level + 1, balls=region.balls)
        with pytest.raises(TypeError):
            BallAddress(level + 2, 0, (0,))
        with pytest.raises(TypeError):
            BallAddress(1, level + 1, (0,))

    def test_float_q_and_digits_rejected(self):
        # a float q would make eta a float, and the ball tree would read a digit 0.5 as 0
        balls = parse_region("amb=1;k=0;balls=0,1", 3).balls
        with pytest.raises(TypeError):
            Region(q=3.0, ambient_level=1, ball_level=0, balls=balls)
        with pytest.raises(TypeError):
            BallAddress(1, 0, (0.5,))
        region = Region(q=np.int64(3), ambient_level=1, ball_level=0,
                        balls=(BallAddress(1, 0, (np.int64(1),)),))
        assert type(region.q) is int
        assert refine(region, -1).eta == 3


class TestRefine:
    def test_trivial_refinement(self):
        region = Region(q=3, ambient_level=1, ball_level=0, balls=(ball(1, 0, (2,)),))
        lat = refine(region, 0)
        assert lat.eta == 1
        assert lat.cells == region.balls

    def test_single_ball_split(self):
        region = Region(q=3, ambient_level=1, ball_level=1, balls=(ball(1, 1, ()),))
        lat = refine(region, 0)
        assert lat.eta == 3
        for i, j in itertools.combinations(range(3), 2):
            assert lat.cell_distance(i, j) == 1

    def test_two_balls_two_levels(self):
        # nu=2 balls 9 apart, refined two levels down: eta = 6, cross distance 9
        region = Region(q=3, ambient_level=2, ball_level=0,
                        balls=(ball(2, 0, (0, 0)), ball(2, 0, (1, 0))))
        lat = refine(region, -1)
        assert lat.eta == 2 * 3
        # exhaustive enumeration: distances within each parent <= 0, across = 2
        for i in range(3):
            for j in range(3, 6):
                assert lat.cell_distance(i, j) == 2
        for i, j in itertools.combinations(range(3), 2):
            assert lat.cell_distance(i, j) <= 0
        assert len({c.digits for c in lat.cells}) == lat.eta

    def test_refinement_counts_and_partition(self):
        rand = random.Random(11)
        for _ in range(30):
            q = rand.choice((3, 5))
            amb = rand.randint(0, 2)
            k = amb - rand.randint(0, 1)
            capacity = q ** (amb - k)
            nu = rand.randint(1, min(4, capacity))
            codes = rand.sample(range(capacity), nu)
            balls = []
            for code in codes:
                digits = []
                for _ in range(amb - k):
                    digits.append(code % q)
                    code //= q
                balls.append(ball(amb, k, tuple(reversed(digits))))
            region = Region(q=q, ambient_level=amb, ball_level=k, balls=tuple(balls))
            depth = rand.randint(0, 2)
            lat = refine(region, k - depth)
            assert lat.eta == nu * q**depth
            assert len({c.digits for c in lat.cells}) == lat.eta
            for c in lat.cells:
                assert sum(c.is_descendant_of(b) for b in region.balls) == 1

    def test_level_above_ball_level_rejected(self):
        region = Region(q=3, ambient_level=1, ball_level=0, balls=(ball(1, 0, (0,)),))
        with pytest.raises(ValueError):
            refine(region, 1)

    def test_cells_outside_the_region_rejected(self):
        # index_of accepts an address exactly when it lies in a region ball by
        # is_descendant_of and is a cell of the spec's level, and then finds it in cells;
        # one inside at another level is rejected too
        region = Region(q=3, ambient_level=2, ball_level=1, balls=(ball(2, 1, (0,)), ball(2, 1, (2,))))
        lat = refine(region, 0)
        candidates = [ball(amb, lev, d) for amb in (2, 3) for lev in range(-1, amb + 1)
                      for d in itertools.product(range(3), repeat=amb - lev)]
        found, rejected, misleveled = [], 0, 0
        for c in candidates:
            inside = any(c.is_descendant_of(b) for b in region.balls)
            if inside and c.level == 0:
                found.append(lat.index_of(c))
                assert lat.cells[found[-1]] == c
            elif inside:
                with pytest.raises(ValueError, match="is not a level-0 cell of the region"):
                    lat.index_of(c)
                misleveled += 1
            else:
                with pytest.raises(ValueError, match="lies outside the region"):
                    lat.index_of(c)
                rejected += 1
        assert sorted(found) == list(range(lat.eta))
        assert 0 < rejected < len(candidates) and misleveled > 0

    def test_cells_at_another_level_rejected(self):
        # a level -2 cell of the ball, looked up among its level -1 cells
        region = Region(q=3, ambient_level=1, ball_level=0, balls=(ball(1, 0, (0,)),))
        with pytest.raises(ValueError, match=r"cell \(0, 2, 0\) is not a level--1 cell"):
            refine(region, -1).index_of(ball(1, -2, (0, 2, 0)))

    def test_cell_digit_of_q_or_more_rejected(self):
        # (0, 0, 3) would be the tenth cell of ball 0, or cell 0 of ball 1
        region = Region(q=3, ambient_level=1, ball_level=0, balls=(ball(1, 0, (0,)), ball(1, 0, (1,))))
        lat = refine(region, -2)
        for digits in ((0, 0, 3), (0, 3, 0), (0, 2, 7)):
            with pytest.raises(ValueError, match=re.escape(f"cell {digits} has a digit of q = 3 or more")):
                lat.index_of(ball(1, -2, digits))
        assert lat.index_of(ball(1, -2, (1, 0, 0))) == 9

    def test_cell_of_another_tree_rejected(self):
        # the same digits below an ambient ball one level up: a ball of another tree
        lat = refine(parse_region("amb=1;k=0;balls=0,1,2", 3), -1)
        assert lat.index_of(ball(1, -1, (0, 1))) == 1
        with pytest.raises(ValueError, match=r"cell \(0, 1\) lies outside the region"):
            lat.index_of(ball(2, 0, (0, 1)))
        with pytest.raises(ValueError, match=r"cell \(1,\) lies outside the region"):
            lat.index_of(ball(2, 1, (1,)))

    def test_cell_of_another_region_rejected(self):
        lat = refine(parse_region("amb=2;k=0;balls=00,12", 3), -1)
        for digits in ((0, 1, 0), (2, 2, 2), (1, 0, 0)):
            with pytest.raises(ValueError, match="lies outside the region"):
                lat.index_of(ball(2, -1, digits))
        assert [lat.index_of(ball(2, -1, (1, 2, d))) for d in range(3)] == [3, 4, 5]

    def test_cell_index_outside_the_lattice_rejected(self):
        # a negative index is not read from the end, and eta is past it
        lat = refine(parse_region("amb=1;k=0;balls=0,1,2", 3), -1)
        assert lat.cell_distance(8, 0) == 1 and lat.cell_distance(0, 1) == 0
        assert all(lat.cell_distance(i, i) == SAME for i in range(lat.eta))
        for i, j in ((-1, 0), (0, -1), (-9, -9), (9, 0), (0, 9), (10**20, 0)):
            with pytest.raises(IndexError, match=r"outside 0\.\.8"):
                lat.cell_distance(i, j)

    def test_cell_guard(self):
        region = Region(q=3, ambient_level=1, ball_level=1, balls=(ball(1, 1, ()),))
        with pytest.raises(ValueError):
            refine(region, -7)
        assert refine(region, -7, max_cells=10**5).eta == 3**8

    def test_deep_refinement_rejected_in_bounded_time(self):
        # q^(k-l) is never formed exactly: at l = -10^7 that took seconds, and at
        # l = -10^5 the cap message could not even format the integer
        region = parse_region("amb=1;k=0;balls=0,1,2", 3)
        for l in (-10**5, -10**9):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=rf"^refinement would create 3 \* 3\^{-l} cells "
                                                 r"\(> 4096\); pass a larger max_cells"):
                refine(region, l)
            with pytest.raises(ValueError, match=rf"^refinement would create 3 \* 3\^{-l} cells"):
                LatticeSpec(region, l)
            assert time.perf_counter() - start < 0.1
        with pytest.raises(ValueError, match=r"^refinement would create 6561 cells \(> 4096\)"):
            refine(region, -7)  # written out up to 64 levels
        assert refine(region, -7, max_cells=6561).eta == 6561

    def test_subregion_cells_keep_their_order_in_any_listing(self):
        # with both regions built from shuffled listings, the subregion's cells sit in the
        # superregion's refinement in the same relative order
        rand = random.Random(23)
        shuffled = 0
        for i in range(40):
            small, big, l = random_nested_pair(rand, (3, 5)[i % 2], max_eta=80)
            listings = []
            for region in (small, big):
                listing = list(region.balls)
                rand.shuffle(listing)
                shuffled += listing != list(region.balls)
                listings.append(replace(region, balls=tuple(listing)))
            lat_small, lat_big = (refine(r, l) for r in listings)
            positions = [lat_big.index_of(c) for c in lat_small.cells]
            assert positions == sorted(positions), (small, big, l)
        assert shuffled >= 20

    def test_restriction_stability(self):
        big = Region(q=3, ambient_level=1, ball_level=0,
                     balls=tuple(ball(1, 0, (i,)) for i in range(3)))
        small = Region(q=3, ambient_level=1, ball_level=0, balls=(big.balls[0], big.balls[2]))
        lat_small = refine(small, -1)
        lat_big = refine(big, -1)
        positions = [lat_big.index_of(c) for c in lat_small.cells]
        assert positions == sorted(positions)
