"""Ultrametric ball geometry in the q-ary hierarchy of a local field.

The unramified model is used throughout: the absolute value takes values in
q^Z, a ball of radius q^j has Haar measure q^j, and each ball splits into
exactly q disjoint children of radius q^{j-1}. Balls are addressed by their
digit path from a fixed ambient root ball, so distances between ball centers
reduce to longest-common-prefix arithmetic; no field-element representation
is ever needed (every downstream quantity depends only on pairwise norms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

SAME = float("-inf")
"""Sentinel distance exponent for coinciding points: q**SAME == 0."""

MAX_DENSE_CELLS = 4096  # default cell cap of a refinement and of a dense lattice matrix

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUES = {c: v for v, c in enumerate(_DIGIT_CHARS)}


@dataclass(frozen=True)
class BallAddress:
    """A ball of radius q^level inside the ambient ball of radius q^ambient_level.

    ``digits`` is the child path from the ambient root, coarsest split first.
    The digit alphabet size (q) is owned by the enclosing :class:`Region`.
    """

    ambient_level: int
    level: int
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        if self.level > self.ambient_level:
            raise ValueError(
                f"ball level {self.level} exceeds ambient level {self.ambient_level}"
            )
        if len(self.digits) != self.ambient_level - self.level:
            raise ValueError(
                f"expected {self.ambient_level - self.level} digits, got {len(self.digits)}"
            )
        if any(d < 0 for d in self.digits):
            raise ValueError("digits must be nonnegative")

    def child(self, digit: int) -> "BallAddress":
        return BallAddress(self.ambient_level, self.level - 1, self.digits + (digit,))

    def is_descendant_of(self, other: "BallAddress") -> bool:
        """True when this ball is contained in ``other`` (prefix containment)."""
        return (
            self.ambient_level == other.ambient_level
            and self.level <= other.level
            and self.digits[: len(other.digits)] == other.digits
        )

    def digit_string(self) -> str:
        if any(d >= len(_DIGIT_CHARS) for d in self.digits):
            raise ValueError(f"digits above {len(_DIGIT_CHARS) - 1} have no single-character form")
        return "".join(_DIGIT_CHARS[d] for d in self.digits)


def distance(a: BallAddress, b: BallAddress) -> float:
    """Distance exponent d between the centers of two same-level balls.

    The centers are q^d apart where d = ambient_level - (common prefix
    length); returns SAME for equal addresses.  For distinct addresses
    d > level always holds, reflecting the separation of disjoint balls.
    """
    if a.ambient_level != b.ambient_level or a.level != b.level:
        raise ValueError(
            "addresses live in different trees: "
            f"({a.ambient_level},{a.level}) vs ({b.ambient_level},{b.level})"
        )
    if a.digits == b.digits:
        return SAME
    prefix = 0
    for da, db in zip(a.digits, b.digits):
        if da != db:
            break
        prefix += 1
    return a.ambient_level - prefix


@dataclass(frozen=True)
class Region:
    """A finite union of disjoint same-radius balls inside one ambient ball.

    All balls sit at ``ball_level`` (radius q^ball_level); distinctness of
    addresses makes them pairwise disjoint with center separation > q^ball_level.
    """

    q: int
    ambient_level: int
    ball_level: int
    balls: tuple[BallAddress, ...]

    def __post_init__(self):
        object.__setattr__(self, "balls", tuple(self.balls))
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if not self.balls:
            raise ValueError("region must contain at least one ball")
        seen = set()
        for b in self.balls:
            if b.ambient_level != self.ambient_level or b.level != self.ball_level:
                raise ValueError("all balls must share the region's ambient and ball levels")
            if any(d >= self.q for d in b.digits):
                raise ValueError(f"digit out of range for q={self.q}: {b.digits}")
            if b.digits in seen:
                raise ValueError(f"duplicate ball address {b.digits}")
            seen.add(b.digits)

    @property
    def nu(self) -> int:
        return len(self.balls)

    def is_subregion_of(self, other: "Region") -> bool:
        if (self.q, self.ambient_level, self.ball_level) != (
            other.q,
            other.ambient_level,
            other.ball_level,
        ):
            return False
        theirs = {b.digits for b in other.balls}
        return all(b.digits in theirs for b in self.balls)

    def serialize(self) -> str:
        """Compact text form ``amb=<A>;k=<K>;balls=<digit-strings comma-separated>``."""
        balls = ",".join(b.digit_string() for b in self.balls)
        return f"amb={self.ambient_level};k={self.ball_level};balls={balls}"


def parse_region(text: str, q: int) -> Region:
    """Inverse of :meth:`Region.serialize`; digit strings are read from the root."""
    fields = {}
    for part in text.strip().split(";"):
        if "=" not in part:
            raise ValueError(f"malformed region field {part!r}")
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    missing = {"amb", "k", "balls"} - fields.keys()
    if missing:
        raise ValueError(f"region text missing fields: {sorted(missing)}")
    amb = int(fields["amb"])
    k = int(fields["k"])
    balls = []
    for token in fields["balls"].split(","):
        try:
            digits = tuple(_DIGIT_VALUES[c] for c in token.strip())
        except KeyError as exc:
            raise ValueError(f"bad digit character in {token!r}") from exc
        balls.append(BallAddress(amb, k, digits))
    return Region(q=q, ambient_level=amb, ball_level=k, balls=tuple(balls))


@dataclass(frozen=True)
class LatticeSpec:
    """A region refined into its level-l cells, with a stable cell indexing.

    The cells enumerate, ball by ball in region order and in lexicographic
    digit order within each ball, all q^(k-l) descendants at ``cell_level``;
    the tuple position is the cell index.
    """

    region: Region
    cell_level: int
    cells: tuple[BallAddress, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "_index", {c.digits: i for i, c in enumerate(self.cells)})
        per_ball = self.region.q ** (self.region.ball_level - self.cell_level)
        if len(self.cells) != self.region.nu * per_ball:
            raise ValueError("cell count does not match nu * q^(k-l)")
        if len(self._index) != len(self.cells):
            raise ValueError("cells must be distinct")
        for c in self.cells:
            if not any(c.is_descendant_of(b) for b in self.region.balls):
                raise ValueError(f"cell {c.digits} lies outside the region")

    @property
    def eta(self) -> int:
        return len(self.cells)

    @property
    def q(self) -> int:
        return self.region.q

    def index_of(self, cell: BallAddress) -> int:
        try:
            return self._index[cell.digits]
        except KeyError:
            raise ValueError(f"cell {cell.digits} is not part of this lattice") from None

    def cell_distance(self, i: int, j: int) -> float:
        return distance(self.cells[i], self.cells[j])


def refine(region: Region, l: int, max_cells: int = MAX_DENSE_CELLS) -> LatticeSpec:
    """Split every region ball into its q^(k-l) level-l descendants.

    Children are enumerated in lexicographic digit order, so cell indices are
    stable across runs and across region extensions (a subregion's cells
    appear in the same relative order inside any superregion's refinement).
    """
    k = region.ball_level
    if l > k:
        raise ValueError(f"refinement level {l} exceeds ball level {k}")
    per_ball = region.q ** (k - l)
    total = region.nu * per_ball
    if total > max_cells:
        raise ValueError(
            f"refinement would create {total} cells (> {max_cells}); "
            "pass a larger max_cells to override"
        )
    cells = []
    for ball in region.balls:
        for suffix in itertools.product(range(region.q), repeat=k - l):
            cells.append(BallAddress(region.ambient_level, l, ball.digits + suffix))
    return LatticeSpec(region=region, cell_level=l, cells=tuple(cells))


def complement_membership(
    region: Region, i: int, y_offset_distance: float, toward_cell: int
) -> bool:
    """Would translating ball i by the offset y keep it inside the region?

    The offset is described by its nearest point among the candidate centers
    {x_i - x_j : j over region balls}: ``toward_cell`` names the nearest j and
    ``y_offset_distance`` the distance exponent to it (SAME for an exact hit).
    Translation by y stays inside the region exactly when y lands within
    q^ball_level of one of the candidate centers, i.e. when the nearest
    distance does not exceed the ball radius.
    """
    n = region.nu
    if not (0 <= i < n):
        raise ValueError(f"ball index {i} out of range for {n} balls")
    if not (0 <= toward_cell < n):
        raise ValueError(f"ball index {toward_cell} out of range for {n} balls")
    return y_offset_distance <= region.ball_level
