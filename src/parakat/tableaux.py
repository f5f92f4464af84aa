"""Shapes, semistandard tableaux, keys, scanning, and row-bound tableau sets.

Tableaux are stored column-major: ``columns[j-1][i-1]`` is the value in
column j, row i.  Columns strictly increase downward, rows weakly increase
rightward, and values come from [n].  Column lengths of the shape determine
the carrel set used by every tuple-side computation: the distinct column
lengths below n, read as a divider set inside [n-1].

A latent inert 0th column holding 1..n backs the row-end conventions: the
row-end value of an empty row i is i.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import and_, attrgetter, getitem, le
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded, NotIncreasingUpper, NotUpper, ShapeMismatch
from .rperms import RPermutation
from .rtuples import (
    RSubset,
    RTuple,
    _chains,
    _check_n,
    _check_size,
    _is_int_array,
    _json_fields,
    _Memo,
    _staircase_below,
    _unchecked,
    is_r_increasing,
    is_upper,
)

DEFAULT_CAP = 10_000_000

_columns = attrgetter("columns")


def materialization_cap() -> int:
    """The one limit on tableaux (``PARAKAT_CAP``, else ``DEFAULT_CAP``): on a
    set's members in :func:`_set_below` and a shape's SSYT in :func:`_require_within_cap`."""
    raw = os.environ.get("PARAKAT_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"PARAKAT_CAP must be a nonnegative integer, got {raw!r}")


@dataclass(frozen=True)
class Shape:
    """A partition with at most n parts, padded with zeros to length n.

    >>> Shape(3, (2, 1, 0)).column_lengths
    (2, 1)
    >>> Shape(3, (2, 1, 0)).r_subset.elements
    (1, 2)
    """

    n: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        _check_n(self.n)
        if len(self.parts) != self.n:
            raise ValueError(f"expected {self.n} parts (pad with zeros), got {self.parts}")
        if not _is_int_array(self.parts, 1):
            raise ValueError(f"parts must be integers: {self.parts}")
        if any(p < 0 for p in self.parts):
            raise ValueError(f"parts must be nonnegative: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must weakly decrease: {self.parts}")
        # column_lengths builds one entry per column of the first row
        _check_size("parts[0]", self.parts[0])

    @classmethod
    def of(cls, n: int, parts: Sequence[int]) -> "Shape":
        _check_n(n)  # before the padding allocates n entries
        padded = tuple(parts) + (0,) * (n - len(parts))
        return cls(n, padded)

    @cached_property
    def column_lengths(self) -> tuple[int, ...]:
        lengths: list[int] = []
        # one pass up the weakly decreasing parts: the columns past the
        # previous part, up to part i, have exactly i boxes
        for i in range(self.n, 0, -1):
            lengths += [i] * (self.parts[i - 1] - len(lengths))
        return tuple(lengths)

    @cached_property
    def r_subset(self) -> RSubset:
        """Distinct non-trivial column lengths, as a divider set."""
        lengths = sorted({z for z in self.column_lengths if z < self.n})
        return RSubset(self.n, tuple(lengths))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Tableau:
    """A semistandard filling of a shape with values from [n]."""

    shape: Shape
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(tuple(c) for c in self.columns))
        zeta = self.shape.column_lengths
        n = self.shape.n
        if len(self.columns) != len(zeta):
            raise ValueError(f"expected {len(zeta)} columns, got {len(self.columns)}")
        for col, z in zip(self.columns, zeta):
            if len(col) != z:
                raise ValueError(f"column {col} has wrong length, expected {z}")
            if not _is_int_array(col, 1) or any(not 1 <= v <= n for v in col):
                raise ValueError(f"values must lie in [1, {n}]: {col}")
            if any(a >= b for a, b in zip(col, col[1:])):
                raise ValueError(f"columns must strictly increase: {col}")
        for left, right in zip(self.columns, self.columns[1:]):
            if any(left[i] > right[i] for i in range(len(right))):
                raise ValueError(f"rows must weakly increase: {left} | {right}")

    @property
    def n(self) -> int:
        return self.shape.n

    def rows(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for i, p in enumerate(self.shape.parts, start=1):
            if p == 0:
                break
            out.append(tuple(self.columns[j][i - 1] for j in range(p)))
        return tuple(out)

    def __str__(self) -> str:
        rws = self.rows()
        if not rws:
            return "(null tableau)"
        return "\n".join(" ".join(str(v) for v in row) for row in rws)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.shape.parts),
            "n": self.n,
            "columns": [list(c) for c in self.columns],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Tableau":
        n, parts, columns = _json_fields(d, "tableau", ("n", 0), ("lambda", 1), ("columns", 2))
        return cls(Shape.of(n, tuple(parts)), tuple(tuple(c) for c in columns))


def _column_pairs(t: Tableau, u: Tableau, verb: str) -> Iterator[tuple]:
    """The columns of ``t`` and ``u`` side by side; the two must share a shape."""
    if t.shape != u.shape:
        raise ShapeMismatch(f"cannot {verb} tableaux of different shapes")
    return zip(t.columns, u.columns)


def entrywise_le(t: Tableau, u: Tableau) -> bool:
    return all(all(map(le, tc, uc)) for tc, uc in _column_pairs(t, u, "compare"))


def minimal_tableau(shape: Shape) -> Tableau:
    """Every value equals its row index."""
    cols = tuple(tuple(range(1, z + 1)) for z in shape.column_lengths)
    return _unchecked(Tableau, shape=shape, columns=cols)


@dataclass(frozen=True)
class TableauSet:
    """An explicit, deduplicated, canonically ordered set of same-shape tableaux."""

    shape: Shape
    tableaux: tuple[Tableau, ...]

    def __post_init__(self):
        for t in self.tableaux:
            if t.shape != self.shape:
                raise ShapeMismatch("all members must share the set's shape")
        ordered = tuple(sorted(set(self.tableaux), key=_columns))
        object.__setattr__(self, "tableaux", ordered)

    @cached_property
    def _index(self) -> frozenset:
        return frozenset(self.tableaux)

    def __contains__(self, t: Tableau) -> bool:
        return t in self._index

    def __iter__(self) -> Iterator[Tableau]:
        return iter(self.tableaux)

    def __len__(self) -> int:
        return len(self.tableaux)

    def join_of_all(self) -> Tableau:
        if not self.tableaux:
            raise ValueError("empty tableau set has no join")
        # column j of the join is the entrywise maximum of every member's column j
        columns = tuple(tuple(map(max, zip(*c))) for c in zip(*map(_columns, self.tableaux)))
        return _unchecked(Tableau, shape=self.shape, columns=columns)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.shape.parts),
            "n": self.shape.n,
            "tableaux": [[list(c) for c in t.columns] for t in self.tableaux],
        }


# ---------------------------------------------------------------------------
# enumeration


def count_tableaux(shape: Shape) -> int:
    """Number of semistandard fillings, by the hook-content formula: the product
    of the contents n + j - i over the product of the hooks."""
    contents = hooks = 1
    parts = shape.parts
    conj = shape.column_lengths
    for i in range(1, shape.n + 1):
        for j in range(1, parts[i - 1] + 1):
            contents *= shape.n + j - i
            hooks *= (parts[i - 1] - j) + (conj[j - 1] - i) + 1
    return contents // hooks


def _require_within_cap(shape: Shape) -> None:
    """Refuse a shape with more SSYT than ``PARAKAT_CAP``: the cap of each shape
    that a suite reads, whether it walks the tableaux or only sizes their sets."""
    limit = materialization_cap()
    total = count_tableaux(shape)
    if total > limit:
        raise CapExceeded(f"shape {shape} has {total} tableaux, over the cap of {limit}")


def enumerate_tableaux(shape: Shape) -> Iterator[Tableau]:
    """All semistandard tableaux, each once, lexicographic in their columns
    read from the rightmost, the order of every walk below a tableau."""
    for cols in _column_walk(_below_row_ends((shape.n,) * shape.n, shape), _place, ()):
        yield _unchecked(Tableau, shape=shape, columns=cols)


@functools.lru_cache(maxsize=1)
def _columns_below(n: int) -> Callable:
    """``below(top, right)``: the strictly increasing columns with values in
    [n] below the entrywise minimum of ``top`` and ``right``, the column on
    their right (``()`` at first), shared by every walk and count over [n].

    Each listing is keyed by its bound, itself a strictly increasing column,
    so the memo holds at most one listing per subset of [n].
    """
    singles = [(v,) for v in range(n + 1)]

    def columns_below(bound: tuple) -> list:
        return list(_chains(len(bound), lambda i, part: singles[
            part[-1] + 1 if part else 1 : bound[i] + 1
        ]))

    listed = _Memo(columns_below)  # bound -> the columns below it

    def below(top: tuple, right: tuple) -> list:
        return listed[(*map(min, top, right), *top[len(right) :])]

    return below


def _column_walk(top: Tableau, step: Callable, start) -> Iterator:
    """The final states of every tableau entrywise below ``top`` that ``step`` keeps.

    The walk fills one whole column per level, from the rightmost leftwards:
    column j ranges over the columns below top_j left of the column on its
    right (:func:`_columns_below`).  ``step(state, c, right)`` returns the
    state once ``c`` is placed left of ``right`` (``()`` at first), or None
    to drop ``c``.  A step that drops nothing never dead-ends, as the column
    1, 2, ..., z lies below every bound.
    """
    tops = top.columns
    below = _columns_below(top.n)

    def options(h: int, prefix: tuple) -> list:
        right, state = prefix[-1] if prefix else ((), start)
        found = below(tops[-1 - h], right)
        return [((c, after),) for c in found if (after := step(state, c, right)) is not None]

    for placed in _chains(len(tops), options):
        yield placed[-1][1] if placed else start  # a shape without columns has one filling


def count_ideal(t: Tableau) -> int:
    """The number of tableaux entrywise below ``t``, by column transfer.

    The columns are those :func:`_column_walk` fills below ``t``, but the
    state is only the column placed on the right, which is all the next
    column reads; each state carries the number of fillings from it
    rightwards, so no tableau is built.
    """
    below = _columns_below(t.n)
    ways = {(): 1}  # the column on the right -> the fillings from it rightwards
    for top in reversed(t.columns):
        placed: Counter = Counter()
        for right, count in ways.items():
            for c in below(top, right):
                placed[c] += count
        ways = placed
    return sum(ways.values())


def _ideal_weights(t: Tableau, width: int) -> dict[int, int]:
    """The generating polynomial of the tableaux entrywise below ``t``, packed
    ``width`` bits per value (:func:`_pack`): :func:`count_ideal`'s transfer,
    with each state carrying the packed contents of the fillings from it
    rightwards, each with its count, in place of their number."""
    below, packed = _columns_below(t.n), _column_contents(t.n, width)
    ways = {(): {0: 1}}  # the column on the right -> the fillings from it rightwards
    for top in reversed(t.columns):
        placed: dict = {}
        for right, terms in ways.items():
            for c in below(top, right):
                into = placed.get(c)
                if into is None:
                    placed[c] = dict(terms)
                else:
                    for w, m in terms.items():
                        into[w] = into.get(w, 0) + m
        ways = {c: {w + packed[c]: m for w, m in terms.items()} for c, terms in placed.items()}
    out: dict = {}
    for terms in ways.values():
        for w, m in terms.items():
            out[w] = out.get(w, 0) + m
    return out


def _column_contents(n: int, width: int) -> _Memo:
    """Column -> its content, packed ``width`` bits per value of [n]."""
    values = range(1, n + 1)
    return _Memo(lambda c: _pack([v in c for v in values], width))


def _place(cols: tuple, c: tuple[int, ...], right: tuple[int, ...]) -> tuple:
    """The plain step: keep every column; the state is the columns placed."""
    return (c, *cols)


def _set_below(top: Tableau, step: Callable = _place) -> TableauSet:
    """The tableaux below ``top`` that ``step`` keeps, as an explicit set of at
    most ``PARAKAT_CAP`` members.

    The walk yields distinct tableaux of one shape, so the set is built
    unchecked; its members are sorted once by columns, since no walk yields
    them in that order.
    """
    limit, shape = materialization_cap(), top.shape
    out = []
    for cols in _column_walk(top, step, ()):
        out.append(_unchecked(Tableau, shape=shape, columns=cols))
        if len(out) > limit:
            raise CapExceeded(f"materialization exceeds cap of {limit} tableaux")
    out.sort(key=_columns)
    return _unchecked(TableauSet, shape=shape, tableaux=tuple(out))


# ---------------------------------------------------------------------------
# keys


def is_key(t: Tableau) -> bool:
    """Column value-sets weakly nest leftward."""
    sets = [set(c) for c in t.columns]
    return all(sets[j] >= sets[j + 1] for j in range(len(sets) - 1))


def _require_over(value, shape: Shape, what: str) -> None:
    """Refuse a ``what`` whose divider set is not the carrel set of ``shape``."""
    if value.r_subset != shape.r_subset:
        raise ShapeMismatch(f"{what} over {value.r_subset.elements} does not match shape {shape}")


def key_of_perm(p: RPermutation, shape: Shape) -> Tableau:
    """The key of an R-permutation: a column of length z holds the first z
    entries of ``p`` in increasing order (1..n when z = n)."""
    _require_over(p, shape, "permutation")
    lengths = shape.column_lengths
    firsts = {z: tuple(sorted(p.entries[:z])) for z in set(lengths)}
    return _unchecked(Tableau, shape=shape, columns=tuple(map(firsts.__getitem__, lengths)))


# ---------------------------------------------------------------------------
# row ends, contents, row-bound sets


def row_end_list(t: Tableau) -> RTuple:
    """Last value of each row, with empty rows reading their latent value i."""
    parts = t.shape.parts
    entries = tuple(
        t.columns[parts[i - 1] - 1][i - 1] if parts[i - 1] else i
        for i in range(1, t.n + 1)
    )
    return _unchecked(RTuple, r_subset=t.shape.r_subset, entries=entries)


def content(t: Tableau) -> tuple[int, ...]:
    """How many times each value occurs; exponent vector of the weight monomial."""
    counts = [0] * t.n
    for col in t.columns:
        for v in col:
            counts[v - 1] += 1
    return tuple(counts)


def _width(largest: int) -> int:
    """Bits per packed field to hold exponents up to ``largest``: λ1 for a content of
    shape λ, as a value occurs at most once per column, and so for every divided
    difference of x^λ, as none raises a term's largest exponent."""
    return max(largest, 1).bit_length()


def _pack(exp: Iterable[int], width: int) -> int:
    """An exponent vector as one int, ``width`` bits per variable, x1 in the top field."""
    key = 0
    for e in exp:
        key = key << width | e
    return key


def _unpack(terms: dict[int, int], n: int, width: int) -> dict[tuple[int, ...], int]:
    """Packed key -> value, as exponent vector -> value."""
    mask = (1 << width) - 1
    fields = [[key >> width * (n - 1 - j) & mask for key in terms] for j in range(n)]
    return dict(zip(zip(*fields), terms.values()))


def row_end_max(a: RTuple, shape: Shape) -> Tableau:
    """The largest tableau whose row-end list is ``a``.

    Each row ends in its entry of ``a``, as an increasing upper tuple allows,
    so this is :func:`_below_row_ends` of ``a``.
    """
    _require_over(a, shape, "tuple")
    if not (is_upper(a) and is_r_increasing(a)):
        raise NotIncreasingUpper(f"tuple is not increasing upper: {a}")
    return _below_row_ends(a.entries, shape)


def z_set(a: RTuple, shape: Shape) -> TableauSet:
    """All tableaux with row-end list ``a``, walked below its row-end maximum."""
    return _set_below(row_end_max(a, shape), _ending_in(a.entries))


def _ending_in(ends: tuple[int, ...]) -> Callable:
    """The z step: keep a column whose ending rows hold their entries of ``ends``.

    An empty row i reads i, which an increasing upper tuple holds there.
    """
    return lambda cols, c, right: (c, *cols) if c[len(right) :] == ends[len(right) : len(c)] else None


def in_row_bound_set(t: Tableau, b: RTuple) -> bool:
    """Streaming membership test: every row end at most the bound."""
    ends = row_end_list(t)
    return all(x <= y for x, y in zip(ends.entries, b.entries))


def row_bound_set(b: RTuple, shape: Shape) -> TableauSet:
    """All tableaux whose row ends are bounded by the upper tuple ``b``.

    Closed downward and under join, the set is the ideal of its maximum.
    """
    return ideal(row_bound_max(b, shape))


def row_bound_max(b: RTuple, shape: Shape) -> Tableau:
    """The largest tableau obeying the row bounds (the row-end max of b's core)."""
    _require_over(b, shape, "tuple")
    if not is_upper(b):
        raise NotUpper(f"row bounds must be upper: {b}")
    return _below_row_ends(b.entries, shape)


def _below_row_ends(bounds: Sequence[int], shape: Shape) -> Tableau:
    """The largest tableau whose row i holds values at most ``bounds[i - 1]``.

    A column of length z is the largest strictly increasing column below
    ``bounds[:z]``; each distinct length is built once.
    """
    lengths = shape.column_lengths
    tops = {z: _staircase_below(bounds[:z], (0, z)) for z in set(lengths)}
    return _unchecked(Tableau, shape=shape, columns=tuple(map(tops.__getitem__, lengths)))


# ---------------------------------------------------------------------------
# scanning (the right key)


def scanning(t: Tableau) -> Tableau:
    """The scanning tableau: final values of earliest weakly increasing paths.

    For each start column, its boxes are processed bottom to top.  A path
    carries a running value rightward through the later columns; in each
    column the open boxes are those above the boxes consumed by earlier paths
    from the same start column, and the path takes the bottommost open box
    whose value is not below the running value, skipping the column when
    there is none.  The final running value lands in the start box's
    position.

    Fixes every key, dominates its argument entrywise, and always produces a
    key.
    """
    cols = t.columns
    out = tuple(_scan_column(c, cols[j + 1 :]) for j, c in enumerate(cols))
    return _unchecked(Tableau, shape=t.shape, columns=out)


def _scan_column(col: tuple[int, ...], right: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The scanning column of ``col`` when the columns ``right`` follow it."""
    stacks = [list(k) for k in right]  # the boxes still open in each column
    out = []
    for v in reversed(col):
        for open_boxes in stacks:
            if open_boxes and open_boxes[-1] >= v:
                v = open_boxes.pop()
        out.append(v)
    out.reverse()
    return tuple(out)


def in_demazure_set(t: Tableau, y: Tableau) -> bool:
    """Streaming membership test against a key: scanning result below the key."""
    return entrywise_le(scanning(t), y)


def demazure_set(p: RPermutation, shape: Shape) -> TableauSet:
    """All tableaux whose scanning tableau sits below the key of ``p``.

    The walk prunes each column at the key, so it yields only members.
    """
    y = key_of_perm(p, shape)
    return _set_below(y, _scanning_below(y))


def _scanning_below(y: Tableau) -> Callable:
    """The Demazure step: keep a column whose scanning column lies below the key's.

    Column j of the right key reads only columns j, j+1, ... (Willis 2013),
    so each candidate is scanned once, against the columns placed.
    """
    tops = y.columns

    def step(cols: tuple, c: tuple[int, ...], right: tuple[int, ...]):
        return (c, *cols) if all(map(le, _scan_column(c, cols), tops[-1 - len(cols)])) else None

    return step


def _with_cell(shape: Shape, width: int) -> Callable:
    """The atlas step: keep every column; the state, from ``((), (), (), 0)``, is
    ``(columns, flat right key, ends of the nonempty rows, packed content)``.
    """
    packed = _column_contents(shape.n, width)

    def step(state: tuple, c: tuple[int, ...], right: tuple[int, ...]) -> tuple:
        cols, key, ends, weight = state
        return (c, *cols), _scan_column(c, cols) + key, ends + c[len(right) :], weight + packed[c]

    return step


def ideal(t: Tableau) -> TableauSet:
    """The principal ideal: all tableaux entrywise below ``t``."""
    return _set_below(t)


# ---------------------------------------------------------------------------
# every set of one shape, from one walk


class ShapeTableaux:
    """SSYT(shape), walked once and kept as numbered cells.

    A cell is the set of tableaux that share a right key (their scanning
    tableau) and a row-end list; the cells partition SSYT(shape), none empty,
    and each keeps only its members' contents, each packed into one int of
    ``width`` bits per value (by default the shape's own, :func:`_width`).
    The column walk of SSYT(shape) carries each tableau's right key, row ends
    and content, so no tableau is scanned on its own.
    A Demazure set is a union of atoms (one right key each) and a row-bound
    set a union of row-end classes, read without ``core``, so each is a set
    of cells, held as an int whose bit i stands for the i-th cell of
    ``cells``.  Two tables of masks, by value v, hold the cells whose right
    key has at most v at one box and those whose row end is at most v in one
    row; a set is the AND of one mask per box of its key or per row of its
    bound, and two sets are equal exactly when their masks are.  The sets
    are those of the walks below a maximum (:func:`demazure_set`,
    :func:`row_bound_set`), which stay the route for a single set.

    >>> atlas = ShapeTableaux(Shape.of(3, (2, 1)))
    >>> len(atlas.cells), sum(atlas.weights(atlas.all_cells).values())
    (7, 8)
    """

    def __init__(self, shape: Shape, width: int | None = None):
        _require_within_cap(shape)
        self.shape, self.width = shape, width or _width(shape.parts[0])
        self.cells: dict = {}  # (flat right key, row-end list) -> each member's packed content
        # the walk yields the ends of the nonempty rows; an empty row i reads i
        empty_rows = tuple(range(shape.n - shape.parts.count(0) + 1, shape.n + 1))
        top, step = _below_row_ends((shape.n,) * shape.n, shape), _with_cell(shape, self.width)
        for _, key, ends, weight in _column_walk(top, step, ((), (), (), 0)):
            self.cells.setdefault((key, ends + empty_rows), []).append(weight)
        self.all_cells = (1 << len(self.cells)) - 1
        keys, ends = zip(*self.cells)
        self._key_masks = _masks_at_most(keys, shape.n)  # flat key position -> value -> cells
        self._end_masks = _masks_at_most(ends, shape.n)  # row -> value -> cells

    def demazure_cells(self, y: Tableau) -> int:
        """The cells whose right key lies entrywise below the key ``y`` of the shape."""
        flat = itertools.chain.from_iterable(y.columns)
        return functools.reduce(and_, map(getitem, self._key_masks, flat), self.all_cells)

    def row_bound_cells(self, b: RTuple) -> int:
        """The cells whose row-end list lies entrywise below ``b``; never via ``core``."""
        return functools.reduce(and_, map(getitem, self._end_masks, b.entries), self.all_cells)

    def weights(self, cells: int) -> Counter:
        """Packed content -> how many tableaux of ``cells`` have it."""
        chosen = bin(cells)[:1:-1].encode().translate(_BITS)  # byte i is bit i
        members = itertools.compress(self.cells.values(), chosen)
        return Counter(itertools.chain.from_iterable(members))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _masks_at_most(rows: Sequence[tuple[int, ...]], n: int) -> list[list[int]]:
    """Per position j of the rows, ``masks[v]`` for v = 0..n: bit i is set when
    ``rows[i][j] <= v``.  Each mask is read off one bytes translation."""
    digits = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(n + 1)]  # byte x -> x <= v
    return [[int(at.translate(d), 2) for d in digits] for at in map(bytes, zip(*reversed(rows)))]


# ---------------------------------------------------------------------------
# convexity and gapless keys


def is_convex(ts: TableauSet) -> bool:
    """Convexity in the form the tableau-set dichotomy takes.

    A set is accepted when it is empty or equals the principal ideal of its
    entrywise join; an ideal holds every point between two of its members.
    """
    return not ts or ts == ideal(ts.join_of_all())


def is_gapless_key(y: Tableau) -> bool:
    """Staircase continuation across consecutive non-trivial column lengths.

    In a key, if the smallest value b that a longer column adds over the next
    shorter column does not clear that shorter column's bottom value m, the
    longer column must march from b up to m in consecutive steps.
    """
    if not is_key(y):
        raise ValueError("gapless test is defined for keys only")
    lengths = y.shape.r_subset.elements
    by_length = {len(c): c for c in y.columns}
    for h in range(len(lengths) - 1):
        col_s = by_length[lengths[h]]
        col_l = by_length[lengths[h + 1]]
        b = min(set(col_l) - set(col_s))
        m = col_s[-1]
        if b > m:
            continue
        i = col_l.index(b)
        k = col_l.index(m)
        if col_l[i : k + 1] != tuple(range(b, m + 1)):
            return False
    return True
