"""Carrel-divided tuples over [n] and their critical-list machinery.

A subset R = {q_1 < ... < q_r} of [n-1] splits the positions [n] into r+1
consecutive "carrels" (q_{h-1}, q_h], with q_0 = 0 and q_{r+1} = n.  An
R-tuple is an n-tuple with entries from [n] read against those dividers;
its text form shows the dividers as semicolons, e.g. ``(2,7,5;8,6,6,9,9;9)``
for n = 9 and R = {3, 8}.

Positions and values are 1-based everywhere in the public API.

The central structure is the critical list of an upper tuple: the per-carrel
skeleton of (index, entry) pairs that survives when each entry is lowered as
far as the entries to its right allow.  Two upper tuples are equivalent
exactly when they share a critical list; the minimum of such a class is the
core, the maximum is the shell, and when the critical list is a flag the
class meets the upper flags in the interval between the floor flag and the
ceiling flag.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainMismatch, NotFlagCriticalList, NotGapless, NotUpper

# The largest n, and the largest part of a shape, that the library takes:
# padding a shape, its column lengths and count_cnr's table grow with them
# before any other check could refuse them, and count_cnr(4096, R) with
# R = {1, ..., 4095} already takes about 5 s.
MAX_SIZE = 4096

CONSTRUCTION_KINDS = ("increasing", "shell", "gapless", "canopy", "floor", "ceiling")

# Constructions that only make sense for flag critical lists.
_FLAG_ONLY_KINDS = frozenset(("gapless", "canopy", "floor", "ceiling"))


@dataclass(frozen=True)
class RSubset:
    """A divider set R = {q_1 < ... < q_r} inside [n-1], possibly empty.

    >>> RSubset(9, (3, 8)).carrels
    ((0, 3), (3, 8), (8, 9))
    >>> RSubset(4).carrels
    ((0, 4),)
    """

    n: int
    elements: tuple[int, ...] = ()

    def __post_init__(self):
        _check_n(self.n)
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if not _is_int_array(elems, 1) or any(not 1 <= q <= self.n - 1 for q in elems):
            raise ValueError(f"elements of R must lie in [1, {self.n - 1}]: {elems}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError(f"elements of R must be strictly increasing: {elems}")

    @property
    def r(self) -> int:
        return len(self.elements)

    @cached_property
    def qs(self) -> tuple[int, ...]:
        """(q_0, q_1, ..., q_r, q_{r+1}) = (0, elements..., n)."""
        return (0, *self.elements, self.n)

    @cached_property
    def carrels(self) -> tuple[tuple[int, int], ...]:
        """Half-open index intervals (lo, hi], one per carrel."""
        qs = self.qs
        return tuple(zip(qs, qs[1:]))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.carrels)


def _carrel_text(entries: Sequence[int], qs: Sequence[int]) -> str:
    parts = []
    for lo, hi in zip(qs, qs[1:]):
        parts.append(",".join(str(e) for e in entries[lo:hi]))
    return "(" + ";".join(parts) + ")"


def _check_size(name: str, value: int) -> None:
    if value > MAX_SIZE:
        raise ValueError(f"{name}={value} exceeds the size bound of {MAX_SIZE}")


def _check_n(n) -> None:
    """The one rule for n: of type int exactly (not a bool), from 1 to ``MAX_SIZE``."""
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_size("n", n)


def _is_int_array(value, depth: int | None) -> bool:
    """Of type int exactly (JSON true and false read as bools) for ``depth`` 0,
    else an array of ``depth - 1`` such values; any array for ``depth`` None."""
    if depth == 0:
        return type(value) is int
    if not isinstance(value, (list, tuple)):
        return False
    if depth == 1:  # the types at C speed: every constructor checks its entries here
        return {int}.issuperset(map(type, value))
    return depth is None or all(_is_int_array(v, depth - 1) for v in value)


# what a JSON value of each depth must be; only a critical list's carrels have depth 3
_JSON_TYPES = {
    None: "an array",
    0: "an integer",
    1: "an array of integers",
    2: "an array of arrays of integers",
    3: "arrays of [x, y] integer pairs",
}


def _json_fields(d, what: str, *fields: tuple[str, int | None]) -> list:
    """The values of ``d`` at the ``(key, depth)`` fields' keys, in order.

    Lets every ``from_json_dict`` refuse decoded JSON with a ValueError that
    names a missing key, or a key whose value is not of its depth, before any
    arithmetic meets it.
    """
    for key, _ in fields:
        if not isinstance(d, dict) or key not in d:
            raise ValueError(f"{what} JSON lacks the key {key!r}")
    for key, depth in fields:
        if not _is_int_array(d[key], depth):
            raise ValueError(f"{what} JSON key {key!r} must hold {_JSON_TYPES[depth]}")
    return [d[key] for key, _ in fields]


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set and no checks run.

    For builders whose own construction already guarantees the invariants.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class RTuple:
    """An n-tuple over [n] equipped with carrel dividers.

    >>> t = RTuple.of(9, (3, 8), (2, 7, 5, 8, 6, 6, 9, 9, 9))
    >>> str(t)
    '(2,7,5;8,6,6,9,9;9)'
    """

    r_subset: RSubset
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        n = self.r_subset.n
        if len(self.entries) != n:
            raise ValueError(f"expected {n} entries, got {len(self.entries)}")
        if not _is_int_array(self.entries, 1) or any(not 1 <= e <= n for e in self.entries):
            raise ValueError(f"entries must lie in [1, {n}]: {self.entries}")

    @classmethod
    def of(cls, n: int, r_elements: Sequence[int], entries: Sequence[int]) -> "RTuple":
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
            "entries": list(self.entries),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RTuple":
        return cls.of(*_json_fields(d, "tuple", ("n", 0), ("R", 1), ("entries", 1)))


@dataclass(frozen=True)
class CriticalList:
    """The per-carrel critical pairs of an upper tuple, stored ascending by index.

    Each carrel h contributes a nonempty list of pairs (x, y) with x in the
    carrel, x <= y <= n, the last x equal to the carrel's right endpoint, and
    consecutive pairs (left, right) satisfying
    ``y_right - y_left > x_right - x_left``.
    """

    r_subset: RSubset
    carrels: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        carrels = tuple(tuple((x, y) for x, y in c) for c in self.carrels)
        object.__setattr__(self, "carrels", carrels)
        if not _is_int_array(carrels, 3):
            raise ValueError(f"critical pairs must be pairs of integers: {carrels}")
        spans = self.r_subset.carrels
        if len(self.carrels) != len(spans):
            raise ValueError(
                f"expected {len(spans)} carrels of pairs, got {len(self.carrels)}"
            )
        n = self.r_subset.n
        for (lo, hi), pairs in zip(spans, self.carrels):
            if not pairs:
                raise ValueError("every carrel must carry at least one critical pair")
            if pairs[-1][0] != hi:
                raise ValueError(f"last critical index in carrel must be {hi}: {pairs}")
            for x, y in pairs:
                if not (lo < x <= hi):
                    raise ValueError(f"critical index {x} outside carrel ({lo}, {hi}]")
                if not (x <= y <= n):
                    raise ValueError(f"critical pair ({x}, {y}) must satisfy x <= y <= n")
            for (xl, yl), (xr, yr) in zip(pairs, pairs[1:]):
                if not (xl < xr and yr - yl > xr - xl):
                    raise ValueError(
                        f"consecutive pairs ({xl},{yl}), ({xr},{yr}) violate the gap condition"
                    )

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All critical pairs in left-to-right order."""
        return tuple(p for carrel in self.carrels for p in carrel)

    @property
    def is_flag(self) -> bool:
        """True when the critical entries are weakly increasing left to right.

        The gap condition makes them strictly rise inside each carrel, so only
        each carrel's last entry and the next carrel's first are compared.
        """
        return all(a[-1][1] <= b[0][1] for a, b in zip(self.carrels, self.carrels[1:]))

    def __str__(self) -> str:
        carrel_strs = (
            "{" + ",".join(f"({x},{y})" for x, y in c) + "}" for c in self.carrels
        )
        return "(" + ";".join(carrel_strs) + ")"

    def to_json_dict(self) -> dict:
        return {"carrels": [[[x, y] for x, y in c] for c in self.carrels]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CriticalList":
        (carrels,) = _json_fields(d, "critical list", ("carrels", 3))
        if not all(len(pair) == 2 for c in carrels for pair in c):
            raise ValueError(f"critical list JSON key 'carrels' must hold {_JSON_TYPES[3]}")
        # n and the divider set are read off the carrel ends, so an empty
        # carrel is refused here, before the constructor could see it
        if not carrels or not all(carrels):
            raise ValueError("every carrel must carry at least one critical pair")
        elements = tuple(c[-1][0] for c in carrels[:-1])
        return cls(RSubset(carrels[-1][-1][0], elements), carrels)


@dataclass(frozen=True)
class ClassificationReport:
    """One boolean per tuple family.  ``increasing`` means increasing on each carrel."""

    upper: bool
    flag: bool
    increasing: bool
    gapless: bool
    gapless_core: bool
    shell: bool
    canopy: bool
    floor_flag: bool
    ceiling_flag: bool

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# elementary predicates


def is_upper(t: RTuple) -> bool:
    return all(e >= i for i, e in enumerate(t.entries, start=1))


def is_weakly_increasing(t: RTuple) -> bool:
    return all(a <= b for a, b in zip(t.entries, t.entries[1:]))


def is_r_increasing(t: RTuple) -> bool:
    """Strictly increasing within each carrel."""
    e = t.entries
    return all(
        all(e[i] < e[i + 1] for i in range(lo, hi - 1))
        for lo, hi in t.r_subset.carrels
    )


def is_upper_flag(t: RTuple) -> bool:
    return is_upper(t) and is_weakly_increasing(t)


# ---------------------------------------------------------------------------
# critical lists and the core map


def _critical_pairs(seg: Sequence[int], lo: int) -> tuple[tuple[int, int], ...]:
    """Critical pairs of one carrel, whose entries ``seg`` sit at lo + 1, lo + 2, ...

    Found right to left: the last position is critical, and from a critical
    index x the next critical index to its left is the largest x' with
    ``entry(x) - entry(x') > x - x'``.  So the critical entries strictly rise.
    """
    k = len(seg) - 1
    top = seg[k]
    pairs = [(lo + k + 1, top)]
    for j in range(k - 1, -1, -1):
        if top - seg[j] > k - j:
            k, top = j, seg[j]
            pairs.append((lo + j + 1, top))
    pairs.reverse()
    return tuple(pairs)


def critical_list(t: RTuple) -> CriticalList:
    """Critical pairs of an upper tuple, found right-to-left in each carrel.

    Within a carrel ending at q, the pair (q, entry at q) is always critical;
    from a critical index x, the next critical index to its left is the
    largest x' with ``entry(x) - entry(x') > x - x'``.

    >>> str(critical_list(RTuple.of(9, (3, 8), (2, 7, 5, 8, 6, 6, 9, 9, 9))))
    '({(1,2),(3,5)};{(6,6),(8,9)};{(9,9)})'
    """
    if not is_upper(t):
        raise NotUpper(f"tuple is not upper: {t}")
    return _upper_critical_list(t)


def _upper_critical_list(t: RTuple) -> CriticalList:
    """:func:`critical_list` of a tuple already known to be upper."""
    e = t.entries
    carrels = tuple(_critical_pairs(e[lo:hi], lo) for lo, hi in t.r_subset.carrels)
    return _unchecked(CriticalList, r_subset=t.r_subset, carrels=carrels)


def _gapless_critical_list(g: RTuple) -> CriticalList:
    """The critical list of a gapless tuple; NotGapless otherwise."""
    if not is_gapless(g):
        raise NotGapless(f"tuple is not gapless: {g}")
    return _upper_critical_list(g)


def _staircase_below(entries: Sequence[int], qs: Sequence[int]) -> tuple[int, ...] | None:
    """The largest tuple below ``entries`` that is upper and strictly increasing
    on each carrel of the bounds ``qs = (0, ..., n)``; None when ``entries``
    is not upper, as then no such tuple exists.

    One running minimum from the right that restarts at each carrel's end:
    entry i is ``min(entries[i], out[i + 1] - 1)``, the least
    ``entries[k] - (k - i)`` over k >= i in its carrel.  So ``out[i] - i`` is
    the least ``entries[k] - k`` over those k, which rises along the carrel:
    ``entries`` is upper exactly when each carrel's first entry is at least
    its position.
    """
    out = list(entries)
    for lo, hi in zip(qs, qs[1:]):
        low = out[hi - 1]
        for i in range(hi - 2, lo - 1, -1):
            low -= 1
            if out[i] > low:
                out[i] = low
            else:
                low = out[i]
        if low <= lo:
            return None
    return tuple(out)


def core(t: RTuple) -> RTuple:
    """The minimum member of the equivalence class of an upper tuple.

    Each carrel is lowered to the largest strictly increasing segment below
    it, which is the staircase fill of the carrel's critical pairs; the same
    scan finds a tuple that is not upper (:func:`_staircase_below`).

    >>> str(core(RTuple.of(9, (3, 8), (7, 9, 6, 5, 5, 9, 8, 9, 9))))
    '(4,5,6;4,5,7,8,9;9)'
    """
    entries = _staircase_below(t.entries, t.r_subset.qs)
    if entries is None:
        raise NotUpper(f"tuple is not upper: {t}")
    return _unchecked(RTuple, r_subset=t.r_subset, entries=entries)


def from_critical_list(c: CriticalList, kind: str) -> RTuple:
    """The unique member of the requested family whose critical list is ``c``.

    ``increasing`` and ``shell`` exist for every critical list; ``gapless``,
    ``canopy``, ``floor`` and ``ceiling`` require a flag critical list.
    """
    if kind not in CONSTRUCTION_KINDS:
        raise ValueError(f"unknown construction kind {kind!r}")
    if kind in _FLAG_ONLY_KINDS and not c.is_flag:
        raise NotFlagCriticalList(f"construction {kind!r} needs a flag critical list")
    return _from_critical_list(c.r_subset, c.carrels, kind)


def _from_critical_list(r: RSubset, carrels: Sequence, kind: str) -> RTuple:
    """:func:`from_critical_list` of the critical list with these ``carrels``
    over R, for a kind that it admits."""
    return _unchecked(RTuple, r_subset=r, entries=_fill(carrels, r.qs, kind))


def _fill(carrels: Sequence, qs: Sequence[int], kind: str) -> tuple[int, ...]:
    """The entries of :func:`from_critical_list`'s tuple of ``kind`` whose
    critical list has these ``carrels`` of pairs, over carrel bounds ``qs``."""
    n = qs[-1]
    if kind in ("increasing", "gapless", "floor"):
        entries = [0] * n
        for c, lo in zip(carrels, qs):
            prev = lo
            for x, y in c:
                for i in range(prev + 1, x + 1):
                    entries[i - 1] = y - (x - i)
                prev = x
        if kind == "floor":  # the least flag above the core: its running maximum
            entries = itertools.accumulate(entries, max)
    else:
        entries = [n] * n
        for c in carrels:
            for x, y in c:
                entries[x - 1] = y
        if kind == "ceiling":  # the greatest flag below the shell: its running min from the right
            entries = tuple(itertools.accumulate(reversed(entries), min))[::-1]
    return tuple(entries)


# ---------------------------------------------------------------------------
# family predicates built on critical lists


def _is_shell_over(
    entries: Sequence[int], pairs: Sequence[tuple[int, int]], n: int, lo: int = 0
) -> bool:
    """Every entry off the critical indices of ``pairs`` equals n.

    ``entries`` sit at positions lo + 1, lo + 2, ...: a whole tuple, or one
    carrel of it.
    """
    crit = {x for x, _ in pairs}
    return all(e == n for i, e in enumerate(entries, lo + 1) if i not in crit)


def _is_ceiling_over(
    entries: Sequence[int], pairs: Sequence[tuple[int, int]], n: int, lo: int = 0
) -> bool:
    """Each entry equals the critical entry at or next to its right in ``pairs``.

    ``entries`` sit at positions lo + 1, lo + 2, ...: a whole tuple, or one
    carrel of it.  ``n`` is unused; it keeps the signature of
    :func:`_is_shell_over`, so that either filters a carrel's segments.
    """
    i = 0
    for x, y in pairs:
        if any(e != y for e in entries[i : x - lo]):
            return False
        i = x - lo
    return True


def _is_floor_segment(seg: Sequence[int], n: int, lo: int) -> bool:
    """A weakly increasing carrel segment ``seg`` at (lo, hi] rises strictly
    after its opening run of equal entries, a run of one entry when ``lo`` is 0.

    No plateau of a floor flag starts inside a carrel, so only a later
    carrel's opening run may repeat, continuing a plateau from the previous
    carrel.  ``n`` is unused; it keeps the signature of a segment filter.
    """
    return all(a < b or (lo and b == seg[0]) for a, b in zip(seg, seg[1:]))


def _over_own_pairs(test: Callable) -> Callable:
    """The segment filter ``(seg, n, lo)`` that runs ``test``, :func:`_is_shell_over`
    or :func:`_is_ceiling_over`, on a carrel's segment against its critical pairs."""
    return lambda seg, n, lo: test(seg, _critical_pairs(seg, lo), n, lo)


def is_gapless_core(t: RTuple) -> bool:
    """Upper with a flag critical list."""
    return is_upper(t) and _upper_critical_list(t).is_flag


def is_gapless(t: RTuple) -> bool:
    """Increasing on each carrel, upper, with a flag critical list (:func:`_gapless`)."""
    return _gapless(t.entries, t.r_subset.qs)


def _gapless(e: Sequence[int], qs: Sequence[int]) -> bool:
    """Whether ``e`` is gapless over carrel bounds ``qs``.

    One scan per carrel from its right end reads the three conditions: each
    entry lies below the one on its right; the first entry is at least its
    position, which makes an increasing carrel upper; and the carrel's first
    critical entry is at least the previous carrel's last entry, which makes
    the critical list a flag, as critical entries rise within a carrel.  In an
    increasing carrel the critical entries end its runs of consecutive
    values, so the first is the last entry that the scan sees below a gap.
    """
    for lo, hi in zip(qs, qs[1:]):
        first_critical = right = e[hi - 1]
        for i in range(hi - 2, lo - 1, -1):
            v = e[i]
            if v >= right:
                return False
            if v < right - 1:
                first_critical = v
            right = v
        if right <= lo or (lo and first_critical < e[lo - 1]):
            return False
    return True


def is_gapless_staircase(t: RTuple) -> bool:
    """The boundary-staircase characterization of gapless tuples.

    An increasing upper tuple fails only at a carrel boundary where the entry
    drops: there the next carrel must open with the run of consecutive values
    ending at the boundary entry.  Agrees with :func:`is_gapless` on every
    increasing upper tuple; kept separate so the two characterizations can be
    checked against each other.
    """
    if not (is_upper(t) and is_r_increasing(t)):
        return False
    e = t.entries
    qs = t.r_subset.qs
    for h in range(1, len(qs) - 1):
        q, q_next = qs[h], qs[h + 1]
        a, b = e[q - 1], e[q]
        if a > b:
            s = a - b + 1
            if s > q_next - q:
                return False
            if any(e[q + j - 1] != b + j - 1 for j in range(1, s + 1)):
                return False
    return True


def is_shell(t: RTuple) -> bool:
    """Upper with every non-critical entry equal to n."""
    return is_upper(t) and _is_shell_over(t.entries, _upper_critical_list(t).pairs, t.n)


def is_canopy(t: RTuple) -> bool:
    return is_gapless_core(t) and is_shell(t)


def is_floor_flag(t: RTuple) -> bool:
    """Upper flag whose non-trivial plateaus each start at a carrel boundary: every
    start p, where e_{p-1} < e_p = e_{p+1} with e_0 read as 0, lies in R.

    One pass from the left: each entry is at least its position (upper) and
    at least the entry before it (flag), and the second entry of a plateau
    checks where its plateau started.
    """
    boundary = t.r_subset.elements
    prev = start = 0  # the entry before, and the position where its value began
    for p, v in enumerate(t.entries, 1):
        if v < p or v < prev:
            return False
        if v > prev:
            prev, start = v, p
        elif start == p - 1 and start not in boundary:
            return False
    return True


def is_ceiling_flag(t: RTuple) -> bool:
    """Upper flag that is constant between consecutive critical indices."""
    return is_upper_flag(t) and _is_ceiling_over(t.entries, _upper_critical_list(t).pairs, t.n)


def classify(t: RTuple) -> ClassificationReport:
    """Total classification of a tuple into all families at once.

    Non-upper tuples report ``upper=False`` and every critical-list family
    False; ``flag`` and ``increasing`` are pure conditions on the entries.
    """
    upper = is_upper(t)
    flag = is_weakly_increasing(t)
    increasing = is_r_increasing(t)
    c = _upper_critical_list(t) if upper else None
    gapless_core = upper and c.is_flag
    shell = upper and _is_shell_over(t.entries, c.pairs, t.n)
    return ClassificationReport(
        upper=upper,
        flag=flag,
        increasing=increasing,
        gapless=increasing and gapless_core,
        gapless_core=gapless_core,
        shell=shell,
        canopy=shell and gapless_core,
        floor_flag=is_floor_flag(t),
        ceiling_flag=upper and flag and _is_ceiling_over(t.entries, c.pairs, t.n),
    )


# ---------------------------------------------------------------------------
# class structure


def equivalent(a: RTuple, b: RTuple) -> bool:
    """Whether two upper tuples share a critical list (equivalently, a core)."""
    if a.r_subset != b.r_subset:
        raise DomainMismatch(f"tuples live over different carrel sets: {a} vs {b}")
    return critical_list(a) == critical_list(b)


def class_interval(t: RTuple) -> tuple[RTuple, RTuple]:
    """(minimum, maximum) of the equivalence class of an upper tuple.

    The class is exactly the entrywise interval between the core and the
    shell built on the shared critical list.
    """
    c = critical_list(t)
    return from_critical_list(c, "increasing"), from_critical_list(c, "shell")


def floor_map(g: RTuple) -> RTuple:
    """The floor flag sharing a critical list with a gapless tuple."""
    return _from_critical_list(g.r_subset, _gapless_critical_list(g).carrels, "floor")


def ceiling_map(g: RTuple) -> RTuple:
    """The ceiling flag sharing a critical list with a gapless tuple."""
    return _from_critical_list(g.r_subset, _gapless_critical_list(g).carrels, "ceiling")


# ---------------------------------------------------------------------------
# enumeration


# family: (segment kind, boundary rule, segment filter).  A segment is the
# entries of one carrel, each at least its position, of any order ("upper"),
# weakly increasing ("weak"), strictly increasing ("strict") or with its
# entries below n strictly increasing, as a shell's are ("sparse").  The boundary
# rule gives each segment the interval that the previous carrel's last entry
# must lie in, 0 before the first carrel.  Its upper end is the segment's
# first entry ("first") or first critical entry ("critical"): that makes the
# tuple weakly increasing, or its critical list a flag, as critical entries
# strictly rise inside a carrel.  "plateau" is "first", except that a segment
# opening with two or more equal entries may only continue a plateau: its
# interval is that one value.  A segment filter keeps only the segments it
# accepts: read against their critical pairs, the shell families those whose
# non-critical entries are all n and the ceiling family those constant up to
# each critical index; the floor family those that rise after their opening
# run.  Each is a condition on one carrel, as every carrel's last index is
# critical and a floor flag's plateaus may only start at a divider.
_WALKS = {
    "upper": ("upper", None, None),
    "flag": ("weak", "first", None),
    "increasing": ("strict", None, None),
    "gapless": ("strict", "critical", None),
    "gapless-core": ("upper", "critical", None),
    "floor": ("weak", "plateau", _is_floor_segment),
    "ceiling": ("weak", "first", _over_own_pairs(_is_ceiling_over)),
    "shell": ("sparse", None, _over_own_pairs(_is_shell_over)),
    "canopy": ("sparse", "critical", _over_own_pairs(_is_shell_over)),
}

FAMILIES = tuple(_WALKS)


def _chains(depth: int, options: Callable[[int, tuple], Iterable[tuple]]) -> Iterator[tuple]:
    """Every concatenation of ``depth`` pieces, depth first, without recursion.

    Piece h, a tuple, ranges over ``options(h, prefix)`` in the order given,
    where ``prefix`` is the concatenation of the pieces before it.  The walk
    keeps one ``(prefix, iterator)`` pair per open level.
    """
    if depth == 0:
        yield ()
        return
    stack = [((), iter(options(0, ())))]
    while stack:
        prefix, pieces = stack[-1]
        if len(stack) < depth:
            piece = next(pieces, None)
            if piece is not None:  # open the level below; come back for the rest
                prefix += piece
                stack.append((prefix, iter(options(len(stack), prefix))))
                continue
        else:
            for piece in pieces:
                yield prefix + piece
        stack.pop()


class _Memo(dict):
    """``fn(key)`` at each key, computed on the first lookup and kept."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _ruled_chains(first: Iterable, later: Sequence[list], last: Callable) -> Iterator[tuple]:
    """:func:`_chains` of one piece of ``first``, which streams, then one of each list
    in ``later``: a ``(piece, low, high)`` follows a prefix only if
    ``low <= last(prefix) <= high``, and each list is filtered once per boundary value."""
    admissible = [
        _Memo(lambda a, pieces=pieces: [p for p, low, high in pieces if low <= a <= high])
        for pieces in later
    ]
    return _chains(
        1 + len(later), lambda h, prefix: admissible[h - 1][last(prefix)] if h else first
    )


def _carrel_entries(n: int, lo: int, hi: int, kind: str) -> Iterator[tuple[int, ...]]:
    """The segments of a kind on carrel (lo, hi], in lexicographic order."""
    if kind == "upper":
        return itertools.product(*(range(i, n + 1) for i in range(lo + 1, hi + 1)))
    if kind == "strict":  # a strictly increasing segment from lo + 1 up is upper
        return itertools.combinations(range(lo + 1, n + 1), hi - lo)
    singles = [(v,) for v in range(n + 1)]
    if kind == "sparse":  # an entry below n lies above every earlier one below n
        return _chains(hi - lo, lambda h, s: singles[max(lo + h, 0, *(v for v in s if v < n)) + 1:])
    # weak: nondecreasing, each entry at least its position
    return _chains(hi - lo, lambda h, seg: singles[max(lo + 1 + h, seg[-1] if seg else 0):])


def _kept_segments(n: int, lo: int, hi: int, family: str) -> Iterator[tuple[int, ...]]:
    """The segments of a family's kind on carrel (lo, hi] that its filter keeps,
    in lexicographic order."""
    kind, _, keep = _WALKS[family]
    segs = _carrel_entries(n, lo, hi, kind)
    if keep is None:
        return segs
    return (s for s in segs if keep(s, n, lo))


def _ruled_segments(
    n: int, lo: int, hi: int, family: str
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each of :func:`_kept_segments` as ``(segment, low, high)``: the interval
    of the previous carrel's last entries that its boundary rule admits it
    after (see ``_WALKS``)."""
    rule = _WALKS[family][1]
    for seg in _kept_segments(n, lo, hi, family):
        high = _critical_pairs(seg, lo)[0][1] if rule == "critical" else seg[0]
        low = high if rule == "plateau" and seg[1:2] == seg[:1] else 0
        yield seg, low, (high if rule else n)


def _carrel_critical_lists(n: int, lo: int, hi: int) -> list[tuple[tuple[int, int], ...]]:
    """Every list of critical pairs of carrel (lo, hi] over [n], in lexicographic
    order, built from the index/entry constraints alone."""
    # each list is built right to left; its last pair (x, y) is its leftmost
    todo = [((hi, y),) for y in range(hi, n + 1)]
    out = []
    while todo:
        pairs = todo.pop()
        out.append(pairs[::-1])
        x, y = pairs[-1]
        # an entry at nx must sit strictly below the staircase through (x, y)
        for nx in range(lo + 1, x):
            todo += [pairs + ((nx, ny),) for ny in range(nx, y - (x - nx))]
    return sorted(out)


@lru_cache(maxsize=1)
def _carrel_lists(n: int) -> _Memo:
    """The pieces of each carrel over [n] that the walks read, listed once per n
    and keyed by ``(lo, hi, family)``: a family's :func:`_ruled_segments`, or with
    family None the carrel's critical lists, each as ``((pairs,), 0, first
    critical entry)``, the interval that makes a list of them a flag."""

    def pieces(key: tuple) -> list:
        lo, hi, family = key
        if family is None:
            return [((pairs,), 0, pairs[0][1]) for pairs in _carrel_critical_lists(n, lo, hi)]
        return list(_ruled_segments(n, lo, hi, family))

    return _Memo(pieces)


def enumerate_tuples(n: int, r_elements: Sequence[int], family: str) -> Iterator[RTuple]:
    """All members of a family, each once, in lexicographic entry order.

    The walk goes carrel by carrel (see ``_WALKS``): the first carrel's kept
    segments stream, each later carrel's are listed once per n with their
    boundary intervals (:func:`_carrel_lists`), and a later segment follows a
    tuple's start only where its interval holds the start's last entry.  The
    first carrel's kept segments all follow the empty start, whose last entry
    reads as 0.  Every tuple built is a member, so it is built unchecked.

    >>> sum(1 for _ in enumerate_tuples(4, (1, 2, 3), "gapless"))
    14
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    r = RSubset(n, tuple(r_elements))
    # an upper tuple meets no condition tied to its carrels, so the upper
    # family walks [n] as one carrel
    (_, q), *rest = ((0, n),) if family == "upper" else r.carrels
    lists = _carrel_lists(n)
    later = [lists[lo, hi, family] for lo, hi in rest]
    # without a rule every boundary value is 0, inside every interval, so one
    # list of a carrel's segments serves every start
    last = (lambda acc: acc[-1]) if _WALKS[family][1] else (lambda acc: 0)
    for entries in _ruled_chains(_kept_segments(n, 0, q, family), later, last):
        yield _unchecked(RTuple, r_subset=r, entries=entries)


def enumerate_critical_lists(
    n: int, r_elements: Sequence[int], flag_only: bool = False
) -> Iterator[CriticalList]:
    """All critical lists over (n, R), built directly from the definition.

    Independent of the tuple enumerations: pairs are generated carrel by
    carrel from the index/entry constraints alone.  With ``flag_only`` a
    carrel's pairs follow a list's start only if its first critical entry is
    at least the previous carrel's last, which makes the list a flag.
    """
    r = RSubset(n, tuple(r_elements))
    lists = _carrel_lists(n)
    first, *later = (lists[lo, hi, None] for lo, hi in r.carrels)
    # a piece admits the last critical entries up to its first; a prefix's boundary value its last
    last = (lambda acc: acc[-1][-1][1]) if flag_only else (lambda acc: 0)
    for carrels in _ruled_chains((p for p, _, _ in first), later, last):
        yield _unchecked(CriticalList, r_subset=r, carrels=carrels)


@lru_cache(maxsize=1)
def _carrel_tallies(n: int) -> _Memo:
    """Each carrel over [n] as :func:`_boundary_count` reads it, tallied once
    per n: at ``(lo, hi, family, classes)`` a ``Counter`` of its pieces'
    ``(last entry, low, high)``.  A family's pieces are its segments, read
    off :func:`_carrel_lists` on a later carrel and streamed on the first,
    so the upper family's n! segments are never held; with family None they
    are the carrel's critical lists.  With ``classes`` they are the distinct
    critical pairs of the segments, streamed once, each with the largest
    upper end among its segments: exact where every interval starts at 0,
    as for gapless cores ("critical") and upper flags ("first").
    """
    lists = _carrel_lists(n)

    def tally(key: tuple) -> Counter:
        lo, hi, family, classes = key
        if family is None:
            return Counter((pairs[-1][1], low, high) for (pairs,), low, high in lists[lo, hi, None])
        if not classes:
            pieces = lists[lo, hi, family] if lo else _ruled_segments(n, lo, hi, family)
            return Counter((seg[-1], low, high) for seg, low, high in pieces)
        critical = _WALKS[family][1] == "critical"
        highs: dict = {}
        for seg in _kept_segments(n, lo, hi, family):
            pairs = _critical_pairs(seg, lo)
            high = pairs[0][1] if critical else seg[0]
            highs[pairs] = max(high, highs.get(pairs, 0))
        return Counter((pairs[-1][1], 0, high) for pairs, high in highs.items())

    return _Memo(tally)


def _boundary_count(
    n: int, r_elements: Sequence[int], family: str | None, classes: bool = False
) -> int:
    """How many members a family has (:func:`enumerate_tuples`), or with
    ``classes`` distinct critical lists among them, or with family None flag
    critical lists (:func:`enumerate_critical_lists`), counted without one.

    One number per boundary value, the prefixes ending there, crosses the
    carrels: a piece ``(last, low, high)`` extends those ending in [low, high]
    to ``last``.  Every first carrel's piece follows the empty prefix, at 0,
    so its interval must hold 0: a floor segment repeats its opening entry
    only after a divider.
    """
    r = RSubset(n, tuple(r_elements))
    tallies = _carrel_tallies(n)
    ending = [1] + [0] * n
    for lo, hi in ((0, n),) if family == "upper" else r.carrels:
        at_most = [0, *itertools.accumulate(ending)]  # at_most[v]: prefixes ending below v
        ending = [0] * (n + 1)
        for (last, low, high), ways in tallies[lo, hi, family, classes].items():
            ending[last] += ways * (at_most[high + 1] - at_most[low])
    return sum(ending)
