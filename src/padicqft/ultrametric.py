"""Ultrametric ball geometry in the q-ary hierarchy of a local field.

The unramified model is used throughout: the absolute value takes values in
q^Z, a ball of radius q^j has Haar measure q^j, and each ball splits into
exactly q disjoint children of radius q^{j-1}. Balls are addressed by their
digit path from a fixed ambient root ball, so distances between ball centers
reduce to longest-common-prefix arithmetic; no field-element representation
is ever needed (every downstream quantity depends only on pairwise norms).
Levels, digits and q are integers.  A lattice is a region and a cell level; its cell
arithmetic and ball tree (``LatticeSpec.tree``, built once per lattice) are written here once.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

SAME = float("-inf")
"""Sentinel distance exponent for coinciding points: q**SAME == 0."""

MAX_DENSE_CELLS = 4096  # default cell cap of a refinement and of a dense lattice matrix

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUES = {c: v for v, c in enumerate(_DIGIT_CHARS)}


def _int_fields(obj, *names) -> None:
    """Store each named field as an int: a numpy int passes, a float raises TypeError."""
    for name in names:
        object.__setattr__(obj, name, operator.index(getattr(obj, name)))


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
        _int_fields(self, "ambient_level", "level")
        object.__setattr__(self, "digits", tuple(self.digits))
        if self.level > self.ambient_level:
            raise ValueError(
                f"ball level {self.level} exceeds ambient level {self.ambient_level}"
            )
        if len(self.digits) != self.ambient_level - self.level:
            raise ValueError(
                f"expected {self.ambient_level - self.level} digits, got {len(self.digits)}"
            )
        if any(operator.index(d) < 0 for d in self.digits):  # a float digit: TypeError
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
    A region is a set: ``balls`` is stored in lexicographic digit order, whatever
    order it is given in, so equality and ``serialize`` ignore the listing.
    """

    q: int
    ambient_level: int
    ball_level: int
    balls: tuple[BallAddress, ...]

    def __post_init__(self):
        _int_fields(self, "q", "ambient_level", "ball_level")
        object.__setattr__(self, "balls", tuple(sorted(self.balls, key=lambda b: b.digits)))
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

    @cached_property
    def _ball_index(self) -> dict:
        """Each ball's position in ``balls``, by its digits."""
        return {b.digits: i for i, b in enumerate(self.balls)}

    def is_subregion_of(self, other: "Region") -> bool:
        if (self.q, self.ambient_level, self.ball_level) != (
            other.q,
            other.ambient_level,
            other.ball_level,
        ):
            return False
        return all(b.digits in other._ball_index for b in self.balls)

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

    The cells are the q^(k-l) level-``cell_level`` descendants of every region ball, in
    lexicographic digit order: cell i is ball i // q^(k-l) followed by the base-q digits
    of i mod q^(k-l).  The region keeps its balls in digit order, so cell indices are
    stable across runs and listing orders, and a subregion's cells appear in the same
    relative order inside any superregion's refinement.  A count above ``max_cells`` is
    refused (``_cell_count``).  The addresses and the ball tree are built on first read of
    ``cells`` and ``tree``, once per lattice.
    """

    region: Region
    cell_level: int
    max_cells: InitVar[int] = MAX_DENSE_CELLS

    def __post_init__(self, max_cells):
        _int_fields(self, "cell_level")
        k, l = self.region.ball_level, self.cell_level
        if l > k:
            raise ValueError(f"refinement level {l} exceeds ball level {k}")
        if isinstance(count := _cell_count(self.region, l, max_cells), str):
            raise ValueError(f"{count}; pass a larger max_cells to override")

    @property
    def eta(self) -> int:
        return self.region.nu * self.q ** (self.region.ball_level - self.cell_level)

    @property
    def q(self) -> int:
        return self.region.q

    @cached_property
    def cells(self) -> tuple[BallAddress, ...]:
        """Every cell's address, in index order, built on first read."""
        return tuple(map(self._address, range(self.eta)))

    @cached_property
    def tree(self) -> _BallTree:
        """The cells read as a ball tree (``_ball_tree``), built on first read."""
        return _ball_tree(self)

    def _address(self, i: int) -> BallAddress:
        """Cell i: ball i // q^(k-l), then the base-q digits of i mod q^(k-l)."""
        if not 0 <= i < self.eta:
            raise IndexError(f"cell index {i} is outside 0..{self.eta - 1}")
        region, depth = self.region, self.region.ball_level - self.cell_level
        ball, rest = divmod(i, self.eta // region.nu)
        suffix = tuple(rest // self.q**e % self.q for e in range(depth - 1, -1, -1))
        return BallAddress(region.ambient_level, self.cell_level, region.balls[ball].digits + suffix)

    def index_of(self, cell: BallAddress) -> int:
        """The index of a level-l cell of the region; ValueError for any other ball."""
        region, top = self.region, self.region.ambient_level - self.region.ball_level
        ball, suffix = region._ball_index.get(cell.digits[:top]), cell.digits[top:]
        if ball is None or cell.ambient_level != region.ambient_level:
            raise ValueError(f"cell {cell.digits} lies outside the region")
        if cell.level != self.cell_level:
            raise ValueError(f"cell {cell.digits} is not a level-{self.cell_level} cell of the region")
        if max(suffix, default=0) >= self.q:
            raise ValueError(f"cell {cell.digits} has a digit of q = {self.q} or more")
        offset = sum(d * self.q**e for e, d in enumerate(reversed(suffix)))
        return ball * (self.eta // region.nu) + offset

    def cell_distance(self, i: int, j: int) -> float:
        """Distance exponent between the centers of cells i and j, SAME when i == j."""
        return distance(self._address(i), self._address(j))


def _shared_indices(pi: Region, pi_prime: Region, l: int) -> tuple:
    """The level-l lattices of nested regions, and each cell of pi's index in pi_prime's."""
    if not pi.is_subregion_of(pi_prime):
        raise ValueError("regions are not nested: every ball of pi must be a ball of pi_prime")
    lat, lat_prime = refine(pi, l), refine(pi_prime, l)
    big_ball_index = np.array([pi_prime._ball_index[b.digits] for b in pi.balls], dtype=np.intp)
    per_ball = lat.eta // pi.nu  # a shared ball's cells keep their order in either lattice
    return lat, lat_prime, (big_ball_index[:, None] * per_ball + np.arange(per_ball)).ravel()


@dataclass(frozen=True)
class _BallTree:
    """The lattice cells, in their lexicographic digit order, read as a q-ary ball tree.

    The cells under a depth-c tree node are a run of consecutive cells, and the distance
    class of a pair is the depth of the deepest node holding both.  ``pairs[c]`` is the
    first adjacent cell pair of class c, or None where no pair has that class.  The node
    table, per depth c = 0..leaf (depth leaf: the cells): ``bounds[c]`` holds the cells
    where the depth-c nodes start, then eta; for c < leaf, ``firsts[c]`` holds each
    depth-c node's first child among the depth-(c+1) nodes, then the count of
    depth-(c+1) nodes.  The depth-top nodes are the region balls; below them a depth-c
    node is a run of q^(leaf - c) cells.
    """

    eta: int
    leaf: int  # amb - l, the class of the diagonal
    top: int  # amb - k, the depth of the region balls
    pairs: tuple
    bounds: tuple
    firsts: tuple
    ball_classes: np.ndarray  # nu x nu: the classes of the region balls' pairs, top on the diagonal

    def fill(self, outer: np.ndarray, inner: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Rows ``rows`` of the eta x eta array that is ``outer[a, b]`` on the cell pairs of
        region balls a and b, but ``inner[a, c - top - 1]`` (row 0 for every ball, if it has
        one row) on the pairs of ball a whose deepest common node is at depth c > top.

        Each depth then overwrites, in each row, the columns of the row's depth-c node: the
        nodes below top are runs of ``size`` cells alike, so cell i's is the i // size-th.
        Every eta x eta array of a lattice is made after a fill, so the fill holds the cap.
        """
        eta, nu = self.eta, len(outer)
        if eta > MAX_DENSE_CELLS:
            raise ValueError(f"lattice has {eta} cells (> {MAX_DENSE_CELLS})")
        cells, per_ball = np.arange(eta)[rows], eta // nu
        out = outer[cells // per_ball].repeat(per_ball, axis=1)
        inner, at = inner[cells // per_ball % len(inner)], np.arange(len(cells))  # per row
        for c in range(self.top + 1, self.leaf + 1):
            size = int(self.bounds[c][1])  # cells per depth-c node
            blocks = out.reshape(len(cells), eta // size, size)
            blocks[at, cells // size] = inner[:, c - self.top - 1, None]
        return out

    def by_class(self, table: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Rows ``rows`` of the eta x eta array that is ``table[c]`` on every pair of distance
        class c; the class of a pair of region balls is ``ball_classes``, of a pair inside a
        ball the depth of its deepest node."""
        return self.fill(table[self.ball_classes], table[None, self.top + 1 :], rows)

    def ball_rows(self) -> slice:
        """The rows of the region balls' first cells.

        A fill is invariant under the automorphisms of each ball's q-ary subtree, which
        act transitively on the ball's cells, so every row of a fill, of a sum of fills and
        of a product of fills is a permutation of the row of its ball's first cell.
        """
        return slice(0, self.eta, self.eta // len(self.ball_classes))

    def classes(self) -> np.ndarray:
        """Pairwise distance classes, one byte per pair for up to 256 classes."""
        return self.by_class(np.arange(self.leaf + 1, dtype=self.ball_classes.dtype))


def _ball_tree(lattice: LatticeSpec) -> _BallTree:
    """The node tables of the cells, from the region balls' digits and the level alone.

    Above top a depth-c node is a run of region balls with the same first c digits, cut
    where two adjacent balls' common prefix is shorter than c; below top it is q^(leaf - c)
    cells, and the first pair of class c is cells q^(leaf - c - 1) - 1 and q^(leaf - c - 1).
    """
    region, eta = lattice.region, lattice.eta
    nu, q, per_ball = region.nu, region.q, eta // region.nu
    leaf, top = region.ambient_level - lattice.cell_level, region.ambient_level - region.ball_level
    digits = np.array([b.digits for b in region.balls], dtype=np.int64).reshape(nu, top)
    lcp = np.logical_and.accumulate(digits[1:] == digits[:-1], axis=1).sum(axis=1)
    pairs = [None] * top + [(q ** (leaf - c - 1) - 1, q ** (leaf - c - 1)) for c in range(top, leaf)]
    for b, c in enumerate(lcp.tolist(), 1):  # the boundary before ball b
        pairs[c] = pairs[c] or (b * per_ball - 1, b * per_ball)
    cuts = [(np.flatnonzero(lcp < c) + 1) * per_ball for c in range(top + 1)]
    bounds = [np.concatenate(([0], cut, [eta])) for cut in cuts]
    bounds += [np.arange(0, eta + 1, q ** (leaf - c)) for c in range(top + 1, leaf + 1)]
    firsts = [bounds[c + 1].searchsorted(bounds[c]) for c in range(leaf)]
    node = [b.searchsorted(np.arange(0, eta, per_ball), "right") for b in bounds[1 : top + 1]]
    # each ball's node per depth 1..top; two balls' class counts the depths where they share one
    classes = sum((n[:, None] == n for n in node), np.zeros((nu, nu), np.min_scalar_type(leaf)))
    return _BallTree(eta, leaf, top, tuple(pairs), tuple(bounds), tuple(firsts), classes)


def _cell_count(region: Region, l: int, cap: int) -> int | str:
    """nu * q^(k-l), the cell count of the level-l refinement, if it is at most cap; past
    cap, the refusal "refinement would create <count> cells (> cap)", with the count written
    out to 64 levels and as nu * q^levels beyond.  No power past q^(bits of cap) is formed
    (it passes cap already), so a deep l costs no big integer."""
    levels = region.ball_level - l
    count = region.nu * region.q ** min(levels, cap.bit_length())  # past cap iff the count is
    if count <= cap:
        return count
    cells = region.nu * region.q**levels if levels <= 64 else f"{region.nu} * {region.q}^{levels}"
    return f"refinement would create {cells} cells (> {cap})"


def refine(region: Region, l: int, max_cells: int = MAX_DENSE_CELLS) -> LatticeSpec:
    """Split every region ball into its q^(k-l) level-l descendants (``LatticeSpec``)."""
    return LatticeSpec(region, l, max_cells)
