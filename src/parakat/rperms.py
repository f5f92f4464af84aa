"""R-permutations: carrel-sorted permutations, their chains, 312-avoidance,
the rank-tuple bijection, clump machinery, and lifting to plain permutations.

An R-permutation is a permutation of [n] that increases within each carrel;
these are the minimal-length coset representatives for the parabolic quotient
of the symmetric group cut out by R.  The 312 pattern generalizes to carrels:
a witness needs its first position in some carrel h or before it, its second
in carrel h + 1, and its third anywhere later.  The number of R-312-avoiding
R-permutations is the parabolic Catalan number; :func:`count_cnr` computes it
carrel by carrel from the gapless tuples, and ``enumerate_rperms(...,
avoiding_only=True)``, which prunes every block that would complete a
pattern, is kept as its oracle.  Filtering the whole enumeration with
:func:`is_r312_avoiding` is in turn the tests' oracle for that pruned walk.
The walks read their blocks from one memo per n, and ``_avoiding_count``
sizes the pruned walk by sharing the subtrees of starts with equal values.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotAvoiding, NotGapless
from .rtuples import (
    RSubset,
    RTuple,
    _carrel_text,
    _Memo,
    _chains,
    _check_n,
    _is_int_array,
    _json_fields,
    _staircase_below,
    _unchecked,
    is_gapless,
)


def _require_permutation(entries: Sequence[int], n: int) -> None:
    entries = tuple(entries)
    if not _is_int_array(entries, 1) or sorted(entries) != list(range(1, n + 1)):
        raise ValueError(f"entries are not a permutation of [{n}]: {entries}")


@dataclass(frozen=True)
class RPermutation:
    """A permutation of [n] that is strictly increasing on each carrel."""

    r_subset: RSubset
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        _require_permutation(self.entries, self.r_subset.n)
        for lo, hi in self.r_subset.carrels:
            seg = self.entries[lo:hi]
            if any(a >= b for a, b in zip(seg, seg[1:])):
                raise ValueError(f"entries must increase within each carrel: {self.entries}")

    @classmethod
    def of(cls, n: int, r_elements: Sequence[int], entries: Sequence[int]) -> "RPermutation":
        return cls(RSubset(n, tuple(r_elements)), tuple(entries))

    @property
    def n(self) -> int:
        return self.r_subset.n

    def __str__(self) -> str:
        return _carrel_text(self.entries, self.r_subset.qs)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "R": list(self.r_subset.elements),
            "one_line": list(self.entries),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RPermutation":
        return cls.of(*_json_fields(d, "permutation", ("n", 0), ("R", 1), ("one_line", 1)))


@dataclass(frozen=True)
class RChain:
    """A nested sequence of sets B_1 < ... < B_r with |B_h| = q_h.

    B_0 = {} and B_{r+1} = [n] are implicit; ``level(h)`` exposes them.
    """

    r_subset: RSubset
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        qs = self.r_subset.elements
        if len(self.sets) != len(qs):
            raise ValueError(f"expected {len(qs)} sets, got {len(self.sets)}")
        full = frozenset(range(1, self.r_subset.n + 1))
        prev: frozenset[int] = frozenset()
        for q, s in zip(qs, self.sets):
            if len(s) != q:
                raise ValueError(f"|B_h| = {len(s)} but q_h = {q}")
            if not (prev < s <= full and _is_int_array(tuple(s), 1)):
                raise ValueError("chain sets must be strictly nested subsets of [n]")
            prev = s

    def level(self, h: int) -> frozenset[int]:
        """B_h for h in [0, r+1]."""
        if h == 0:
            return frozenset()
        if h == self.r_subset.r + 1:
            return frozenset(range(1, self.r_subset.n + 1))
        return self.sets[h - 1]


@dataclass(frozen=True)
class ClumpDecomposition:
    """The maximal runs of consecutive integers in a finite set, in increasing order.

    >>> ClumpDecomposition.of({2, 3, 5, 6, 7, 10, 13, 14}).blocks
    ((2, 3), (5, 6, 7), (10,), (13, 14))
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        for b in self.blocks:
            if not b or not _is_int_array(b, 1) or any(y != x + 1 for x, y in zip(b, b[1:])):
                raise ValueError(f"block is not a run of consecutive integers: {b}")
        for a, b in zip(self.blocks, self.blocks[1:]):
            if b[0] <= a[-1] + 1:
                raise ValueError(f"blocks must be separated and increasing: {a}, {b}")

    @classmethod
    def of(cls, values) -> "ClumpDecomposition":
        # a run of consecutive values keeps its value minus rank
        runs = itertools.groupby(enumerate(sorted(set(values))), lambda iv: iv[1] - iv[0])
        return _unchecked(cls, blocks=tuple(tuple(v for _, v in run) for _, run in runs))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for b in self.blocks for v in b)


# ---------------------------------------------------------------------------
# plain-permutation helpers


def is_312_avoiding(word: Sequence[int]) -> bool:
    """No positions a < b < c with word[a] > word[b] < word[c] and word[a] > word[c].

    >>> is_312_avoiding((3, 1, 2))
    False
    >>> is_312_avoiding((2, 3, 1))
    True

    One pass from the right: an entry pops each larger entry c off a stack,
    as the b of a pattern, and any later entry above the least c popped is its a.
    """
    stack: list[int] = []
    low = math.inf
    for v in reversed(word):
        if v > low:
            return False
        while stack and stack[-1] > v:
            low = stack.pop()
        stack.append(v)
    return True


def inversions(word: Sequence[int]) -> int:
    """Coxeter length of a permutation in one-line notation: its pairs of
    positions whose entries fall."""
    return sum(itertools.starmap(operator.gt, itertools.combinations(word, 2)))


def reduced_word(word: Sequence[int]) -> tuple[int, ...]:
    """Adjacent-transposition positions reducing the permutation to the identity.

    Repeatedly swaps a descent pair; applying the returned positions in order
    to the identity's columns rebuilds the permutation.  Length equals
    :func:`inversions`.
    """
    w = list(word)
    out = []
    i = 0
    while i < len(w) - 1:
        if w[i] > w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
            out.append(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(out)


def _lower_cover(entries: Sequence[int]) -> tuple[int, tuple[int, ...]] | None:
    """``(i, u)`` for the first value i that sits after i + 1, and ``u`` the
    entries with the two swapped, one inversion fewer; None for the identity.
    An R-permutation's u is one over the same R, as i + 1 lies in an earlier carrel."""
    where = {v: pos for pos, v in enumerate(entries)}
    for i in range(1, len(entries)):
        if where[i + 1] < where[i]:
            u = list(entries)
            u[where[i]], u[where[i + 1]] = i + 1, i
            return i, tuple(u)
    return None


# ---------------------------------------------------------------------------
# projections, chains, avoidance


def r_projection(sigma: Sequence[int], r_subset: RSubset) -> RPermutation:
    """Sort a permutation within each carrel.

    >>> str(r_projection((2, 4, 3, 1), RSubset(4, (2,))))
    '(2,4;1,3)'
    """
    # a word of another length would lose or miss entries in the carrels
    _require_permutation(sigma, r_subset.n)
    return _unchecked(RPermutation, r_subset=r_subset, entries=_sorted_carrels(sigma, r_subset.qs))


def _sorted_carrels(sigma: Sequence[int], qs: Sequence[int]) -> tuple[int, ...]:
    """The R-projection of ``sigma`` over carrel bounds ``qs``."""
    out: list[int] = []
    lo = 0
    for hi in qs[1:]:
        out += sorted(sigma[lo:hi])
        lo = hi
    return tuple(out)


def is_r312_avoiding(p: RPermutation) -> bool:
    """No a <= q_h < b <= q_{h+1} < c with p_a > p_b < p_c and p_a > p_c."""
    return _avoids_312(p.entries, p.r_subset.qs)


def _avoids_312(e: Sequence[int], qs: Sequence[int]) -> bool:
    """R-312-avoidance of ``e`` over carrel bounds ``qs``."""
    for h in range(1, len(qs) - 2):
        q, q_next = qs[h], qs[h + 1]
        # any earlier entry above e[c] witnesses, so the left max suffices
        left_max = max(e[:q])
        for b in range(q, q_next):
            if left_max <= e[b]:
                continue
            for c in range(q_next, len(e)):
                if e[b] < e[c] < left_max:
                    return False
    return True


def to_chain(p: RPermutation) -> RChain:
    """B_h collects the entries of the first h carrels, the first q_h entries."""
    sets = tuple(frozenset(p.entries[:q]) for q in p.r_subset.elements)
    return _unchecked(RChain, r_subset=p.r_subset, sets=sets)


def from_chain(chain: RChain) -> RPermutation:
    entries: list[int] = []
    for h in range(1, chain.r_subset.r + 2):
        entries.extend(sorted(chain.level(h) - chain.level(h - 1)))
    return _unchecked(RPermutation, r_subset=chain.r_subset, entries=tuple(entries))


def is_rightmost_clump_deleting(chain: RChain) -> bool:
    """Each step deletes whole top clumps and any elements of the next clump down.

    Stepping down from B_{h+1} to B_h, the deleted elements B_{h+1} - B_h
    must hold every element of B_{h+1} above the clump of the least deleted
    one; from that clump they may take any elements, not only a top segment:
    (2;1) deletes 1, the bottom of the clump {1, 2}, and avoids R-312.
    """
    for h in range(1, chain.r_subset.r + 1):
        upper, kept = chain.level(h + 1), chain.level(h)
        top = min(upper - kept)  # the least deleted element, then its clump's top
        while top + 1 in upper:
            top += 1
        if any(v > top for v in kept):
            return False
    return True


# ---------------------------------------------------------------------------
# the rank-tuple bijection


def rank_tuple(p: RPermutation) -> RTuple:
    """Ranks of the largest entries seen so far, announced per carrel.

    After the h-th carrel, position i of carrel h records the
    (q_h - i + 1)-th largest element among the first q_h entries.

    >>> str(rank_tuple(RPermutation.of(9, (3, 8), (2, 4, 6, 1, 5, 7, 8, 9, 3))))
    '(2,4,6;5,6,7,8,9;9)'
    """
    return _unchecked(RTuple, r_subset=p.r_subset, entries=_ranks(p.entries, p.r_subset.qs))


def _ranks(e: Sequence[int], qs: Sequence[int]) -> tuple[int, ...]:
    """The rank tuple of ``e`` over carrel bounds ``qs``: the (hi - i + 1)-th
    largest of the first hi entries, at position i of the carrel ending at
    hi, is their i-th smallest.  ``seen`` holds them sorted, and each
    carrel's entries merge into it as one more run."""
    out: list[int] = []
    seen: list[int] = []
    lo = 0
    for hi in qs[1:]:
        seen += e[lo:hi]
        seen.sort()
        out += seen[lo:hi]
        lo = hi
    return tuple(out)


def pi_map(g: RTuple) -> RPermutation:
    """The R-312-avoiding permutation whose rank tuple is the gapless tuple g.

    Carrel h + 1 is filled on the right with the entries of g and on the left
    (when the carrel-boundary entry does not rise) with the largest unused
    values below it, placed in increasing order.

    >>> str(pi_map(RTuple.of(9, (3, 8), (2, 4, 6, 4, 5, 6, 7, 9, 9))))
    '(2,4,6;1,3,5,7,9;8)'
    """
    if not is_gapless(g):
        raise NotGapless(f"tuple is not gapless: {g}")
    return _pi_map(g)


def _pi_map(g: RTuple) -> RPermutation:
    """:func:`pi_map` of a tuple known to be gapless."""
    return _unchecked(RPermutation, r_subset=g.r_subset, entries=_pi_entries(g.entries, g.r_subset.qs))


def _pi_entries(e: tuple[int, ...], qs: Sequence[int]) -> tuple[int, ...]:
    """The entries of :func:`pi_map` of the gapless ``e`` over carrel bounds ``qs``.

    One pass over the carrels, with a bitmask of the values placed so far:
    where the entry drops from a to b at a boundary, the next carrel opens
    with the a - b + 1 largest unplaced values up to a, read off the mask's
    top bits, and goes on with its own entries past that run.
    """
    q = qs[1]
    entries = e[:q]
    placed = 0  # bit v is set once the value v is placed
    for v in entries:
        placed |= 1 << v
    for q_next in qs[2:]:
        a = e[q - 1]
        s = a - e[q] + 1  # how many of the carrel's entries in g lie at or below a
        block = e[q:q_next]
        if s > 0:
            free = ~placed & ((2 << a) - 2)  # the unplaced values 1, ..., a
            below = ()
            for _ in range(s):
                v = free.bit_length() - 1
                free ^= 1 << v
                below = (v, *below)
            block = below + block[s:]
        for v in block:
            placed |= 1 << v
        entries += block
        q = q_next
    return entries


# ---------------------------------------------------------------------------
# lifting avoiding R-permutations to avoiding permutations


def _lift_blocks(p: RPermutation) -> list[tuple[range, tuple[int, ...], int | None]]:
    """Per-carrel local blocks (positions, values, decreasing-threshold).

    Positions are 0-based ranges into the one-line word, and the blocks tile
    it in order.  One pass reads each carrel's values against m, the largest
    value placed before it, as :func:`_minimal_lift` does.  The values below
    m, which in an avoiding p are the largest unused ones and so join m's
    clump, and the run m + 1, m + 2, ... after them form the subclump
    straddling m; its threshold is m, and its values below m must stay in
    decreasing order.  Every other run of consecutive values is a wholly-new
    clump, with threshold None.  Before the first carrel nothing is placed.
    """
    e = p.entries
    blocks: list[tuple[range, tuple[int, ...], int | None]] = []
    m = 0
    for lo, hi in p.r_subset.carrels:
        i = lo
        if m:
            top = m
            while i < hi and e[i] <= top + 1:
                top = max(top, e[i])
                i += 1
            if i > lo:
                blocks.append((range(lo, i), e[lo:i], m))
        while i < hi:
            j = i + 1
            while j < hi and e[j] == e[j - 1] + 1:
                j += 1
            blocks.append((range(i, j), e[i:j], None))
            i = j
        m = max(m, e[hi - 1])
    return blocks


def _require_avoiding(p: RPermutation) -> None:
    if not is_r312_avoiding(p):
        raise NotAvoiding(f"not R-312-avoiding: {p}")


def minimal_lift(p: RPermutation) -> tuple[int, ...]:
    """The unique minimum-length 312-avoiding permutation projecting onto p.

    Carrel by carrel: the new values below the running maximum are placed
    first in decreasing order, then the remaining new values in increasing
    order.

    >>> minimal_lift(RPermutation.of(4, (2,), (2, 4, 1, 3)))
    (2, 4, 3, 1)
    """
    _require_avoiding(p)
    return _minimal_lift(p)


def _minimal_lift(p: RPermutation) -> tuple[int, ...]:
    """:func:`minimal_lift` of an R-312-avoiding permutation."""
    e = p.entries
    (_, q), *rest = p.r_subset.carrels
    out = list(e[:q])
    m = max(out)  # the running maximum of the entries placed
    for lo, hi in rest:
        new = e[lo:hi]  # increasing, as p is an R-permutation
        out += [v for v in reversed(new) if v < m] + [v for v in new if v > m]
        m = max(m, new[-1])
    return tuple(out)


def all_lifts(p: RPermutation) -> Iterator[tuple[int, ...]]:
    """All 312-avoiding permutations projecting onto p, in lexicographic order.

    Generated by rearranging the minimal lift clump-by-clump: each wholly-new
    clump may take any 312-avoiding arrangement; the subclump straddling the
    previous maximum may too, provided its values below that maximum stay in
    decreasing order.  The blocks tile the word in order, so a lift joins one
    arrangement of each block.

    >>> list(all_lifts(RPermutation.of(3, (1,), (1, 2, 3))))
    [(1, 2, 3), (1, 3, 2)]
    """
    _require_avoiding(p)
    return _all_lifts(p)


def _all_lifts(p: RPermutation) -> Iterator[tuple[int, ...]]:
    """:func:`all_lifts` of an R-312-avoiding permutation."""
    choices = [_arrangements(values, threshold) for _, values, threshold in _lift_blocks(p)]
    return _chains(len(choices), lambda h, _: choices[h])


@functools.cache
def _arrangements(values: tuple[int, ...], threshold: int | None) -> tuple[tuple[int, ...], ...]:
    """The 312-avoiding arrangements of ascending ``values``, those below
    ``threshold`` decreasing, in lexicographic order.  They grow value by
    value, keeping a value only where every unused one stays placeable, so
    none dead-ends and the walk costs what it yields."""

    def options(_: int, placed: tuple[int, ...]) -> list[tuple[int]]:
        unused = [v for v in values if v not in placed]
        top = max(placed, default=0)
        # below the maximum so far, only the largest unused value: a value
        # skipped between them would complete a 312 pattern later
        below = sum(1 for v in unused if v < top)
        keep = unused[max(below - 1, 0) :]
        if threshold is not None:  # the values below it go in decreasing order
            low = [v for v in unused if v < threshold]
            keep = [v for v in keep if v > threshold or v == low[-1]]
        return [(v,) for v in keep]

    return tuple(_chains(len(values), options))


# ---------------------------------------------------------------------------
# enumeration and counting


def enumerate_rperms(
    n: int, r_elements: Sequence[int], avoiding_only: bool = False
) -> Iterator[RPermutation]:
    """All R-permutations in lexicographic one-line order; with ``avoiding_only``,
    the R-312-avoiding ones.

    The walk places one carrel's block at a time.  An entry b of a later
    block below m, the largest entry placed before it, is the middle of an
    R-312 pattern exactly when some value strictly between b and m is still
    unused, as that value comes later.  So an avoiding walk keeps only
    blocks whose entries below m are the largest unused values below m;
    the largest unused values always form one, so the walk never dead-ends
    and costs what it yields.  The unpruned walk reads m as 0.  Every R over
    [n] reads its blocks from one memo per n (:func:`_block_lists`).
    """
    r = RSubset(n, tuple(r_elements))
    sizes = r.block_sizes
    blocks, bits = _block_lists(n), [1 << v for v in range(n + 1)]  # bit v: v is placed

    def options(h: int, acc: tuple[int, ...]) -> list[tuple[int, ...]]:
        return blocks[avoiding_only, sizes[h], sum(map(bits.__getitem__, acc))]

    for entries in _chains(len(sizes), options):
        yield _unchecked(RPermutation, r_subset=r, entries=entries)


@functools.lru_cache(maxsize=1)
def _block_lists(n: int) -> _Memo:
    """The blocks :func:`enumerate_rperms` may place next over [n], in its order, at
    ``(avoiding_only, size, placed)``, where bit v of ``placed`` marks v placed."""

    def blocks(key: tuple[bool, int, int]) -> list[tuple[int, ...]]:
        avoiding_only, size, placed = key
        left = [v for v in range(1, n + 1) if not placed >> v & 1]
        # m is placed's top bit, -1 if none is set; a block takes the k largest
        # unused values below m and any above it, and the larger k comes first
        cut = bisect.bisect_left(left, placed.bit_length() - 1) if avoiding_only else 0
        return [
            tuple(left[cut - k : cut]) + rest
            for k in range(min(cut, size), -1, -1)
            for rest in itertools.combinations(left[cut:], size - k)
        ]

    return _Memo(blocks)


@functools.lru_cache(maxsize=1)
def _avoiding_tallies(n: int) -> _Memo:
    """How many avoiding R-permutations over [n] complete a start, at the sizes of
    its blocks left and its ``placed`` mask: starts with one key share a subtree."""
    blocks = _block_lists(n)

    def tally(key: tuple[tuple[int, ...], int]) -> int:
        (size, *rest), placed = key
        if not rest:  # the last block, the unused values, is always admissible
            return 1
        rest = tuple(rest)
        return sum(ways[rest, placed | sum(1 << v for v in b)] for b in blocks[True, size, placed])

    ways = _Memo(tally)
    return ways


def _avoiding_count(n: int, r_elements: Sequence[int]) -> int:
    """The size of ``enumerate_rperms(n, r_elements, avoiding_only=True)``, unbuilt."""
    return _avoiding_tallies(n)[RSubset(n, tuple(r_elements)).block_sizes, 0]


def count_cnr(n: int, r_elements: Sequence[int]) -> int:
    """The parabolic Catalan number: |R-312-avoiding R-permutations|.

    Counts the gapless R-tuples instead, which :func:`pi_map` puts in
    bijection with the avoiding permutations, position by position with the
    boundary rule of ``rtuples.is_gapless_staircase``: entries are upper and
    strictly increasing within a carrel, and where the entry drops from a to
    b at a boundary the next carrel opens with the run b, b + 1, ..., a.  The
    only state carried across a boundary is the number of prefixes ending in
    each value, so the count takes O(n^2) steps.  The first carrel is filled
    in closed form, so the empty R takes O(n);
    ``enumerate_rperms(..., avoiding_only=True)`` stays as the oracle.  R is
    built, so n is checked (``rtuples._check_n``), before the table is allocated.

    >>> count_cnr(4, (1, 2, 3))
    14
    >>> count_cnr(4, ())
    1
    """
    r = RSubset(n, tuple(r_elements))
    # counts[v]: prefixes whose entry at the current position is v.  The first
    # carrel is any q_1-subset of [n], sorted, as that is always upper, so
    # comb(v - 1, q_1 - 1) of them end at v
    q1 = r.qs[1]
    counts = [0] * (n + 1)
    for v in range(q1, n + 1):
        counts[v] = math.comb(v - 1, q1 - 1)
    for lo, hi in r.carrels[1:]:
        last = counts
        for p in range(lo + 1, hi + 1):
            # nxt[v] = (prefixes ending below v) + last[v].  At p = lo + 1 the
            # terms are the previous carrel's last entries a < v and a = v;
            # later, last[v] counts the run b, ..., v that a drop from v at
            # the boundary forces, which opened at b = v - (p - lo) + 1 > lo
            below = sum(counts[:p])
            nxt = [0] * (n + 1)
            for v in range(p, n + 1):
                nxt[v] = below + last[v]
                below += counts[v]
            counts = nxt
    return sum(counts)


def count_total(n: int) -> int:
    """Sum of the parabolic Catalan numbers over all divider sets R, in one pass.

    Runs :func:`count_cnr`'s table over positions with the state (C, L): C
    the counts at the current position, L those at the last boundary (zero
    in the first carrel).  Each position p >= 2 either continues its carrel,
    (S(C) + L, L), or opens one, (S(C) + C, C), where S(C)[v] is the sum of
    C[u] over u < v.  Both steps are linear, so one table carries every R at
    once: (2 S(C) + C + L, C + L), with C kept to v >= p.  That takes
    O(n^2) steps; the sum of ``count_cnr`` over every R stays as the oracle.
    n is checked as every type that takes it checks it (``rtuples._check_n``).

    >>> count_total(4)
    56
    """
    _check_n(n)
    counts = [0] + [1] * n
    last = [0] * (n + 1)
    for p in range(2, n + 1):
        below = sum(counts[:p])
        nxt = [0] * (n + 1)
        for v in range(p, n + 1):
            nxt[v] = 2 * below + counts[v] + last[v]
            below += counts[v]
        counts, last = nxt, [c + l for c, l in zip(counts, last)]
    return sum(counts)


def project_rank_core(sigma: Sequence[int], r_subset: RSubset) -> RTuple:
    """Core of the full rank tuple of sigma, re-read against R's carrels.

    >>> str(project_rank_core((2, 4, 3, 1), RSubset(4, (2,))))
    '(2,4;3,4)'
    """
    _require_permutation(sigma, r_subset.n)
    return _unchecked(RTuple, r_subset=r_subset, entries=_projected_core(sigma, r_subset.qs))


def _projected_core(sigma: Sequence[int], qs: Sequence[int]) -> tuple[int, ...]:
    """The entries of :func:`project_rank_core` of a permutation of [n] over
    carrel bounds ``qs``: its full rank tuple, with every position its own
    carrel, is its running maximum, and the core lowers each carrel to the
    largest increasing segment below it."""
    return _staircase_below(tuple(itertools.accumulate(sigma, max)), qs)
