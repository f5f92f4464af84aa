import dataclasses
import functools
import gc
import itertools
import operator
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from parakat.errors import CapExceeded, NotIncreasingUpper, NotUpper, ShapeMismatch
from parakat.polys import Polynomial, gen_fn
from parakat.rperms import (
    RChain,
    RPermutation,
    enumerate_rperms,
    from_chain,
    is_r312_avoiding,
    rank_tuple,
    to_chain,
)
from parakat.rtuples import (
    FAMILIES,
    MAX_SIZE,
    RTuple,
    core,
    enumerate_critical_lists,
    enumerate_tuples,
    equivalent,
    _unchecked,
)
from parakat.tableaux import (
    Shape,
    ShapeTableaux,
    Tableau,
    TableauSet,
    content,
    count_ideal,
    count_tableaux,
    demazure_set,
    entrywise_le,
    enumerate_tableaux,
    ideal,
    in_demazure_set,
    in_row_bound_set,
    is_convex,
    is_gapless_key,
    is_key,
    key_of_perm,
    minimal_tableau,
    row_bound_max,
    row_bound_set,
    row_end_list,
    row_end_max,
    scanning,
    z_set,
    _column_pairs,
    _column_walk,
    _ending_in,
    _ideal_weights,
    _pack,
    _place,
    _scanning_below,
    _set_below,
    _unpack,
    _width,
    _with_cell,
)
from parakat.verify import canonical_shape, shapes_in_range, subsets_of_interval


# ---------------------------------------------------------------------------
# the general convexity test, its lattice operations and the key of a chain:
# oracles that only the tests call


def tableau_meet(t: Tableau, u: Tableau) -> Tableau:
    """Entrywise minimum; semistandard because the lattice is distributive."""
    cols = tuple(tuple(map(min, tc, uc)) for tc, uc in _column_pairs(t, u, "meet"))
    return _unchecked(Tableau, shape=t.shape, columns=cols)


def tableau_join(t: Tableau, u: Tableau) -> Tableau:
    cols = tuple(tuple(map(max, tc, uc)) for tc, uc in _column_pairs(t, u, "join"))
    return _unchecked(Tableau, shape=t.shape, columns=cols)


def key_of_chain(chain: RChain, shape: Shape) -> Tableau:
    """The key of the R-permutation of a chain: a column of length q_h holds B_h."""
    return key_of_perm(from_chain(chain), shape)


def is_interval_closed(ts: TableauSet) -> bool:
    """Every semistandard point entrywise between two members is a member."""
    members = ts.tableaux
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            lo = tableau_meet(members[a], members[b])
            hi = tableau_join(members[a], members[b])
            if any(v not in ts for v in ideal(hi) if entrywise_le(lo, v)):
                return False
    return True

SMALL_SHAPES = [
    Shape.of(2, (1,)),
    Shape.of(3, (1, 1)),
    Shape.of(3, (2, 1)),
    Shape.of(3, (3, 1)),
    Shape.of(4, (2, 1)),
    Shape.of(4, (3, 1)),
    Shape.of(4, (2, 2)),
    Shape.of(4, (2, 2, 1)),
    Shape.of(4, (3, 2, 1)),
    Shape.of(4, (3, 3, 2)),
]


@functools.lru_cache(maxsize=None)
def tableaux_of(shape):
    return tuple(enumerate_tableaux(shape))


# ---------------------------------------------------------------------------
# shapes


def test_shape_derivations():
    sh = Shape.of(3, (2, 1))
    assert sh.column_lengths == (2, 1)
    assert sh.r_subset.elements == (1, 2)
    assert sh.size == 3
    strict = Shape.of(3, (3, 2, 1))
    assert strict.r_subset.elements == (1, 2)
    assert Shape.of(4, (4, 3, 2, 1)).r_subset.elements == (1, 2, 3)
    assert Shape.of(3, ()).r_subset.elements == ()
    assert Shape.of(3, (2, 2, 2)).r_subset.elements == ()  # all columns trivial


def test_strict_iff_full_divider_set():
    for n in range(1, 5):
        for parts in itertools.combinations_with_replacement(range(3, -1, -1), n):
            sh = Shape(n, parts)
            strict = all(a > b for a, b in zip(parts, parts[1:]))
            assert (sh.r_subset.elements == tuple(range(1, n))) == strict


def test_column_lengths_match_their_counting_definition():
    for n in range(1, 7):
        for parts in itertools.combinations_with_replacement(range(5, -1, -1), n):
            counted = tuple(sum(p >= j for p in parts) for j in range(1, parts[0] + 1))
            assert Shape(n, parts).column_lengths == counted, parts


def test_column_lengths_of_the_largest_shape_take_one_pass():
    start = time.perf_counter()
    lengths = Shape.of(MAX_SIZE, (MAX_SIZE,) * MAX_SIZE).column_lengths
    assert time.perf_counter() - start < 0.2  # the per-column count took about 1 s
    assert lengths == (MAX_SIZE,) * MAX_SIZE
    assert Shape.of(MAX_SIZE, range(MAX_SIZE, 0, -1)).column_lengths == tuple(range(MAX_SIZE, 0, -1))


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape.of(3, (1, 2))
    with pytest.raises(ValueError):
        Shape(3, (2, 1))  # not padded


# ---------------------------------------------------------------------------
# keys


def test_key_examples():
    assert key_of_perm(
        RPermutation.of(3, (2,), (2, 3, 1)), Shape.of(3, (1, 1))
    ).columns == ((2, 3),)
    assert key_of_perm(
        RPermutation.of(3, (1, 2), (3, 1, 2)), Shape.of(3, (2, 1))
    ).columns == ((1, 3), (3,))
    assert key_of_perm(
        RPermutation.of(3, (), (1, 2, 3)), Shape.of(3, ())
    ).columns == ()


def _key_by_levels(p: RPermutation, sh: Shape) -> tuple:
    """The columns of the key of ``p``, level by level: inert columns 1..n,
    then per level h from the top down the sorted set B_h of p's chain, in
    as many copies as the parts at q_h and q_{h+1} differ."""
    n, parts, qs = sh.n, sh.parts, sh.r_subset.qs
    chain = to_chain(p)
    cols = [tuple(range(1, n + 1))] * parts[n - 1]
    for h in range(sh.r_subset.r, 0, -1):
        cols += [tuple(sorted(chain.level(h)))] * (parts[qs[h] - 1] - parts[qs[h + 1] - 1])
    return tuple(cols)


def test_keys_match_the_per_level_oracle():
    # every shape with n <= 5 and at most 4 columns, and each of its R-permutations
    for n in range(1, 6):
        for parts in itertools.combinations_with_replacement(range(4, -1, -1), n):
            sh = Shape(n, parts)
            for p in enumerate_rperms(n, sh.r_subset.elements):
                y = key_of_perm(p, sh)
                assert y.columns == _key_by_levels(p, sh), (p, sh)
                assert key_of_chain(to_chain(p), sh) == y
                assert is_key(y)
                assert row_end_list(y) == rank_tuple(p)
                assert content(y)  # defined even when trivial


def test_key_of_chain_shape_mismatch():
    chain = to_chain(RPermutation.of(3, (2,), (2, 3, 1)))
    with pytest.raises(ShapeMismatch):
        key_of_chain(chain, Shape.of(3, (2, 1)))


def test_inert_columns_are_forced():
    sh = Shape.of(3, (2, 2, 2))
    (only,) = tableaux_of(sh)
    assert only.columns == ((1, 2, 3), (1, 2, 3))


# ---------------------------------------------------------------------------
# row ends and contents


def test_row_end_list_examples():
    t = Tableau(Shape.of(3, (1, 1)), ((2, 3),))
    assert str(row_end_list(t)) == "(2,3;3)"
    null = Tableau(Shape.of(3, ()), ())
    assert row_end_list(null).entries == (1, 2, 3)


def test_minimal_tableau_content_is_shape():
    for sh in SMALL_SHAPES:
        assert content(minimal_tableau(sh)) == sh.parts


def test_row_end_max_equals_brute_force_join():
    for sh in SMALL_SHAPES:
        for a in enumerate_tuples(sh.n, sh.r_subset.elements, "increasing"):
            members = [t for t in tableaux_of(sh) if row_end_list(t) == a]
            best = members[0]
            for t in members[1:]:
                best = tableau_join(best, t)
            m = row_end_max(a, sh)
            assert m == best and m in set(members)


def test_row_end_max_of_gapless_is_key():
    for sh in SMALL_SHAPES:
        for g in enumerate_tuples(sh.n, sh.r_subset.elements, "gapless"):
            assert is_key(row_end_max(g, sh))


def test_row_end_max_rejects_bad_tuples():
    sh = Shape.of(3, (1, 1))
    with pytest.raises(NotIncreasingUpper):
        row_end_max(RTuple.of(3, (2,), (3, 3, 3)), sh)
    with pytest.raises(ShapeMismatch):
        row_end_max(RTuple.of(3, (1,), (1, 2, 3)), sh)


def test_z_sets_partition_all_tableaux():
    for sh in SMALL_SHAPES:
        seen = set()
        for a in enumerate_tuples(sh.n, sh.r_subset.elements, "increasing"):
            members = z_set(a, sh)
            assert len(members) > 0
            assert all(t not in seen for t in members)
            seen.update(members.tableaux)
        assert len(seen) == count_tableaux(sh)


# ---------------------------------------------------------------------------
# row bound sets


def test_intro_row_bound_sets():
    sh = Shape.of(3, (1, 1))
    s1 = row_bound_set(RTuple.of(3, (2,), (3, 3, 3)), sh)
    s2 = row_bound_set(RTuple.of(3, (2,), (2, 3, 3)), sh)
    assert s1 == s2
    assert [t.columns for t in s1] == [((1, 2),), ((1, 3),), ((2, 3),)]
    q = row_bound_max(RTuple.of(3, (2,), (3, 3, 3)), sh)
    assert q.columns == ((2, 3),)
    assert q == row_end_max(RTuple.of(3, (2,), (2, 3, 3)), sh)


def test_row_bound_max_equals_brute_force_join():
    for sh in SMALL_SHAPES:
        for b in enumerate_tuples(sh.n, sh.r_subset.elements, "upper"):
            ends_below = lambda t: all(map(operator.le, row_end_list(t).entries, b.entries))
            below = [t for t in tableaux_of(sh) if ends_below(t)]
            q = row_bound_max(b, sh)
            assert q == functools.reduce(tableau_join, below) and q in below
            assert q == row_end_max(core(b), sh)


def test_row_bound_set_requires_upper():
    with pytest.raises(NotUpper):
        row_bound_set(RTuple.of(3, (2,), (1, 1, 3)), Shape.of(3, (1, 1)))
    with pytest.raises(ShapeMismatch):
        row_bound_set(RTuple.of(3, (1,), (3, 3, 3)), Shape.of(3, (1, 1)))


def test_row_bound_set_is_ideal_of_its_max():
    for sh in SMALL_SHAPES[:7]:
        for b in enumerate_tuples(sh.n, sh.r_subset.elements, "upper"):
            s = row_bound_set(b, sh)
            q = row_bound_max(b, sh)
            assert q in s
            assert s == ideal(q)
            assert all(in_row_bound_set(t, b) for t in s)


def test_row_bound_equivalence_matches_tuple_equivalence():
    for sh in [Shape.of(3, (2, 1)), Shape.of(4, (2, 1)), Shape.of(4, (3, 2, 1))]:
        bounds = list(enumerate_tuples(sh.n, sh.r_subset.elements, "upper"))
        sets = {b.entries: row_bound_set(b, sh) for b in bounds}
        for x, y in itertools.combinations(bounds, 2):
            assert (sets[x.entries] == sets[y.entries]) == equivalent(x, y)


# ---------------------------------------------------------------------------
# scanning


def test_scanning_worked_example():
    t = Tableau(Shape.of(3, (2, 1)), ((1, 3), (2,)))
    assert scanning(t).columns == ((2, 3), (2,))


def test_scanning_fixes_single_columns():
    sh = Shape.of(4, (1, 1, 1))
    for t in tableaux_of(sh):
        assert scanning(t) == t


def test_scanning_laws():
    for sh in SMALL_SHAPES:
        for t in tableaux_of(sh):
            s = scanning(t)
            assert is_key(s)
            assert entrywise_le(t, s)
            assert scanning(s) == s
            if is_key(t):
                assert s == t


# ---------------------------------------------------------------------------
# demazure sets


def test_demazure_examples():
    sh = Shape.of(3, (1, 1))
    d = demazure_set(RPermutation.of(3, (2,), (2, 3, 1)), sh)
    assert [t.columns for t in d] == [((1, 2),), ((1, 3),), ((2, 3),)]
    d0 = demazure_set(RPermutation.of(3, (2,), (1, 2, 3)), sh)
    assert [t.columns for t in d0] == [((1, 2),)]


def test_demazure_missing_interior_point():
    sh = Shape.of(3, (2, 1))
    p = RPermutation.of(3, (1, 2), (3, 1, 2))
    d = demazure_set(p, sh)
    y = key_of_perm(p, sh)
    box = ideal(y)
    assert len(box) == 6 and len(d) == 5
    (missing,) = [t for t in box if t not in d]
    assert missing.columns == ((1, 3), (2,))
    # the hole sits between two members, witnessing the non-convexity
    a = Tableau(sh, ((1, 3), (1,)))
    b = Tableau(sh, ((1, 3), (3,)))
    assert a in d and b in d
    assert entrywise_le(tableau_meet(a, b), missing)
    assert entrywise_le(missing, tableau_join(a, b))
    assert not is_interval_closed(d)
    assert not is_convex(d)


def test_demazure_set_max_is_key_and_contains_minimum():
    for sh in SMALL_SHAPES:
        t0 = minimal_tableau(sh)
        for p in enumerate_rperms(sh.n, sh.r_subset.elements):
            d = demazure_set(p, sh)
            y = key_of_perm(p, sh)
            assert y in d and t0 in d
            assert d.join_of_all() == functools.reduce(tableau_join, d) == y
            assert all(entrywise_le(t, y) for t in d)
            assert all(in_demazure_set(t, y) for t in d)


def test_join_of_all_is_the_pairwise_join():
    for sh in SMALL_SHAPES:
        lo = minimal_tableau(sh)
        assert ideal(lo).join_of_all() == lo  # one member
        for b in enumerate_tuples(sh.n, sh.r_subset.elements, "upper"):
            s = row_bound_set(b, sh)
            assert s.join_of_all() == functools.reduce(tableau_join, s) == row_bound_max(b, sh)


def test_convexity_dichotomy():
    for sh in SMALL_SHAPES:
        for p in enumerate_rperms(sh.n, sh.r_subset.elements):
            d = demazure_set(p, sh)
            y = key_of_perm(p, sh)
            avoiding = is_r312_avoiding(p)
            assert (d == ideal(y)) == avoiding
            assert is_convex(d) == avoiding
            assert is_gapless_key(y) == avoiding
            if avoiding:
                assert row_end_max(rank_tuple(p), sh) == y


def test_count_ideal_is_the_size_of_the_ideal():
    # the transfer count against the walked ideal: every key of every shape
    # with n <= 5 and col <= 3, and every row-bound maximum, some not a key
    keys, tops = set(), set()
    for sh in shapes_in_range(5, 3, all_shapes=True):
        r = sh.r_subset.elements
        keys.update(key_of_perm(p, sh) for p in enumerate_rperms(sh.n, r))
        tops.update(row_bound_max(b, sh) for b in enumerate_tuples(sh.n, r, "upper"))
    assert len(keys) == 1364 and not all(map(is_key, tops))
    for t in keys | tops:
        assert count_ideal(t) == len(ideal(t)), t.columns
    # a shape without columns has one filling
    assert count_ideal(minimal_tableau(Shape.of(3, ()))) == 1


def test_walks_and_counts_share_one_listing_per_n(monkeypatch):
    # the atlas walk, every key's count and the Demazure walks over [6] read
    # one memo of column listings, so no bound is listed twice
    from parakat import tableaux

    listed = Counter()

    class Recording(tableaux._Memo):
        def __missing__(self, key):
            listed[self.fn.__qualname__, key] += 1
            return super().__missing__(key)

    tableaux._columns_below.cache_clear()
    monkeypatch.setattr(tableaux, "_Memo", Recording)
    try:
        sh = Shape.of(6, (5, 4, 3, 2, 1))
        atlas = ShapeTableaux(sh)
        assert _size(atlas, atlas.all_cells) == 2**15
        perms = list(enumerate_rperms(6, sh.r_subset.elements))
        counts = [count_ideal(key_of_perm(p, sh)) for p in perms]
        assert min(counts) == 1 and max(counts) == 2**15
        for p, count in list(zip(perms, counts))[::97]:
            assert 0 < len(demazure_set(p, sh)) <= count
        bounds = [k for (name, _), k in listed.items() if name.endswith("columns_below")]
        assert 1 < len(bounds) <= 2**6 and max(listed.values()) == 1
    finally:
        tableaux._columns_below.cache_clear()


def _brute_force_set(shape, pred):
    return TableauSet(shape, tuple(t for t in tableaux_of(shape) if pred(t)))


def test_builders_match_brute_force_filter():
    # every builder walks an ideal; the oracle filters all of SSYT(shape)
    for sh in SMALL_SHAPES:
        r = sh.r_subset.elements
        for b in enumerate_tuples(sh.n, r, "upper"):
            oracle = _brute_force_set(sh, lambda t: in_row_bound_set(t, b))
            assert row_bound_set(b, sh) == oracle
        for a in enumerate_tuples(sh.n, r, "increasing"):
            oracle = _brute_force_set(sh, lambda t: row_end_list(t) == a)
            assert z_set(a, sh) == oracle
        for p in enumerate_rperms(sh.n, r):
            y = key_of_perm(p, sh)
            d = demazure_set(p, sh)
            assert d == _brute_force_set(sh, lambda t: in_demazure_set(t, y))
            assert is_interval_closed(d) == is_convex(d)
        for top in tableaux_of(sh):
            assert ideal(top) == _brute_force_set(sh, lambda t: entrywise_le(t, top))


def test_demazure_walk_matches_the_filter_of_the_key_ideal():
    # the route the pruned walk replaced stays its oracle: the key's ideal,
    # materialized into canonical order, then filtered
    for sh in [*SMALL_SHAPES, Shape.of(3, ())]:
        for p in enumerate_rperms(sh.n, sh.r_subset.elements):
            y = key_of_perm(p, sh)
            filtered = tuple(t for t in ideal(y) if in_demazure_set(t, y))
            d = demazure_set(p, sh)
            assert d.tableaux == filtered
            assert d == TableauSet(sh, filtered)


def test_demazure_walk_costs_what_it_yields():
    # 18,876 members of a 198,272-tableau ideal, whose filter took about 5 s on 2 vCPUs
    sh = Shape.of(7, (6, 5, 4, 3, 2, 1))
    p = RPermutation.of(7, (1, 2, 3, 4, 5, 6), (7, 6, 1, 2, 3, 4, 5))
    started = time.perf_counter()
    assert len(demazure_set(p, sh)) == 18876
    assert time.perf_counter() - started < 2.5


def test_z_walk_costs_what_it_yields():
    # the 32,768 tableaux of the n = 6 staircase, one z set per increasing
    # upper tuple; filtering each ideal below a row-end maximum took 4.4-5.2 s
    # on 2 vCPUs
    sh = Shape.of(6, (5, 4, 3, 2, 1))
    started = time.perf_counter()
    sizes = [len(z_set(a, sh)) for a in enumerate_tuples(sh.n, sh.r_subset.elements, "increasing")]
    assert sum(sizes) == count_tableaux(sh) and all(sizes)
    assert time.perf_counter() - started < 2


def test_shape_tableaux_cells_match_a_per_tableau_build():
    # the atlas reads each cell and content off its column walk; rebuild both per
    # tableau.  λ1 = 4 is the first shape whose packed fields are 3 bits wide,
    # and a wider packing than the shape's own weighs the same contents
    for sh, width in [
        *((sh, None) for sh in SMALL_SHAPES), (Shape.of(3, ()), None),
        (Shape.of(3, (4, 2)), None), (Shape.of(3, (2, 1)), 3), (Shape.of(4, (1, 1)), 5),
    ]:
        built: dict = {}
        for t in enumerate_tableaux(sh):
            built.setdefault(_cell(t), Counter())[content(t)] += 1
        atlas = ShapeTableaux(sh, width)
        assert atlas.width == (width or max(sh.parts[0], 1).bit_length())
        assert atlas.cells.keys() == built.keys()
        for i, cell in enumerate(atlas.cells):
            packed = Counter({_pack(exp, atlas.width): m for exp, m in built[cell].items()})
            assert atlas.weights(1 << i) == packed
        assert _size(atlas, atlas.all_cells) == count_tableaux(sh)
        assert atlas.weights(0) == Counter()


def _cell(t):
    """The cell of ``t``: its right key read column by column, and its row ends."""
    return tuple(v for col in scanning(t).columns for v in col), row_end_list(t).entries


def _size(atlas, cells):
    """The number of tableaux in the cell mask ``cells``."""
    return sum(atlas.weights(cells).values())


def _as_cells(atlas, mask):
    """The cells of a mask: bit i is the i-th cell of ``atlas.cells``."""
    return frozenset(c for i, c in enumerate(atlas.cells) if mask >> i & 1)


def _scanned_demazure_cells(atlas, y):
    """The scan route the masks replace: every cell whose right key lies below the key ``y``."""
    top = _cell(y)[0]
    return frozenset(c for c in atlas.cells if all(map(operator.le, c[0], top)))


def _scanned_row_bound_cells(atlas, b):
    """The scan route the masks replace: every cell whose row ends lie below ``b``."""
    return frozenset(c for c in atlas.cells if all(map(operator.le, c[1], b.entries)))


def test_shape_tableaux_masks_equal_the_scan_of_every_cell():
    # every key and every upper bound on every shape with n <= 4 and at most 3
    # columns, zero parts and the shapes without boxes included
    shapes = shapes_in_range(4, 3, all_shapes=True)
    assert any(0 in sh.parts[:-1] for sh in shapes) and Shape.of(4, ()) in shapes
    for sh in shapes:
        r = sh.r_subset.elements
        atlas = ShapeTableaux(sh)
        for p in enumerate_rperms(sh.n, r):
            y = key_of_perm(p, sh)
            assert _as_cells(atlas, atlas.demazure_cells(y)) == _scanned_demazure_cells(atlas, y)
        for b in enumerate_tuples(sh.n, r, "upper"):
            assert _as_cells(atlas, atlas.row_bound_cells(b)) == _scanned_row_bound_cells(atlas, b)


def test_ideal_weights_equal_the_generating_polynomial_of_the_ideal():
    # the packed transfer against the tableaux of the ideal, on every row-bound
    # maximum of every shape with n <= 4 and col <= 3, and of the n = 5 staircase
    shapes = [*shapes_in_range(4, 3, all_shapes=True), Shape.of(5, (4, 3, 2, 1))]
    seen = 0
    for sh in shapes:
        bounds = enumerate_tuples(sh.n, sh.r_subset.elements, "upper")
        tops = {row_bound_max(b, sh) for b in bounds}
        for t in tops:
            for width in {_width(sh.parts[0]), 3}:
                terms = _ideal_weights(t, width)
                assert Polynomial(sh.n, _unpack(terms, sh.n, width)) == gen_fn(ideal(t)).poly
                assert sum(terms.values()) == count_ideal(t)
        seen += len(tops)
    assert seen == 460


def test_shape_tableaux_match_the_walk_builders():
    # the walks below a maximum stay the oracle for the sets read as cells
    for sh in SMALL_SHAPES:
        r = sh.r_subset.elements
        atlas = ShapeTableaux(sh)

        def agree(cells, walked):
            assert {_cell(t) for t in walked} == _as_cells(atlas, cells)
            assert _size(atlas, cells) == len(walked)
            terms = _unpack(atlas.weights(cells), sh.n, atlas.width)
            assert Polynomial(sh.n, terms) == gen_fn(walked).poly

        perms = list(enumerate_rperms(sh.n, r))
        for p in perms:
            agree(atlas.demazure_cells(key_of_perm(p, sh)), demazure_set(p, sh))
        for b in enumerate_tuples(sh.n, r, "upper"):
            walked = row_bound_set(b, sh)
            agree(atlas.row_bound_cells(b), walked)
            # neither the filter nor the cells call core, so this is the
            # theorem that a bound and its core bound the same tableaux
            assert walked == _brute_force_set(sh, lambda t: in_row_bound_set(t, b))
        # the right keys are the keys of the R-permutations, one each, and the
        # row-end lists the increasing upper tuples
        keys = {key for key, _ in atlas.cells}
        assert len(keys) == len(perms)
        assert keys == {_cell(key_of_perm(p, sh))[0] for p in perms}
        increasing = {a.entries for a in enumerate_tuples(sh.n, r, "increasing")}
        assert {ends for _, ends in atlas.cells} == increasing
        assert _size(atlas, atlas.all_cells) == count_tableaux(sh)


def test_shape_tableaux_read_convexity_from_the_key():
    # the convexity suite's route: a Demazure set is convex exactly when it has
    # as many tableaux as the ideal below its key, and the key is a member
    for sh in SMALL_SHAPES:
        atlas = ShapeTableaux(sh)
        for p in enumerate_rperms(sh.n, sh.r_subset.elements):
            y = key_of_perm(p, sh)
            d = atlas.demazure_cells(y)
            assert (_size(atlas, d) == len(ideal(y))) == is_convex(demazure_set(p, sh))
            assert _cell(y) in _as_cells(atlas, d)


def test_shape_tableaux_validate_as_the_walk_builders_do(monkeypatch):
    sh = Shape.of(3, (2, 1))
    atlas = ShapeTableaux(sh)
    with pytest.raises(ShapeMismatch):
        atlas.demazure_cells(key_of_perm(RPermutation.of(3, (1,), (3, 1, 2)), sh))
    # the cap counts every tableau of the shape, before any is walked
    monkeypatch.setenv("PARAKAT_CAP", "8")
    atlas = ShapeTableaux(sh)
    assert _size(atlas, atlas.all_cells) == count_tableaux(sh) == 8
    monkeypatch.setenv("PARAKAT_CAP", "7")
    with pytest.raises(CapExceeded, match="has 8 tableaux, over the cap of 7"):
        ShapeTableaux(sh)


def test_gapless_key_requires_key():
    t = Tableau(Shape.of(3, (2, 1)), ((1, 3), (2,)))
    assert not is_key(t)
    with pytest.raises(ValueError):
        is_gapless_key(t)


def test_demazure_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        demazure_set(RPermutation.of(3, (2,), (2, 3, 1)), Shape.of(3, (2, 1)))


# ---------------------------------------------------------------------------
# lattice structure and sets


def test_meet_join_are_semistandard():
    sh = Shape.of(4, (3, 2, 1))
    ts = tableaux_of(sh)
    for t, u in itertools.islice(itertools.combinations(ts, 2), 300):
        for m in (tableau_meet(t, u), tableau_join(t, u)):
            assert Tableau(m.shape, m.columns) == m


def test_trusted_tableaux_pass_the_public_checks(rebuilt):
    # every builder below constructs its tableaux unchecked
    for sh in [*SMALL_SHAPES, Shape.of(3, ())]:
        r = sh.r_subset.elements
        ts = tableaux_of(sh)
        lo, top = minimal_tableau(sh), functools.reduce(tableau_join, ts)
        built = [lo, top, *ts, *ideal(top)]
        built += [scanning(t) for t in ts]
        built += [tableau_meet(t, u) for t, u in zip(ts, ts[::-1])]
        built += [key_of_perm(p, sh) for p in enumerate_rperms(sh.n, r)]
        built += [row_end_max(a, sh) for a in enumerate_tuples(sh.n, r, "increasing")]
        built += [row_bound_max(b, sh) for b in enumerate_tuples(sh.n, r, "upper")]
        for t in built:
            assert rebuilt(t) == t
        for t in ts:
            ends = row_end_list(t)
            assert rebuilt(ends) == ends


def test_trusted_sets_pass_the_public_checks(rebuilt):
    # the set builders collect their walks unchecked, in canonical order
    for sh in SMALL_SHAPES:
        r = sh.r_subset.elements
        ts = tableaux_of(sh)
        built = [demazure_set(p, sh) for p in enumerate_rperms(sh.n, r)]
        built += [row_bound_set(b, sh) for b in enumerate_tuples(sh.n, r, "upper")]
        built += [ideal(t) for t in ts]
        built += [z_set(a, sh) for a in enumerate_tuples(sh.n, r, "increasing")]
        for s in built:
            again = rebuilt(s)
            assert again == s and again.tableaux == s.tableaux
            assert all(t in s for t in s)
            assert sum(t in s for t in ts) == len(s)


def test_sizes_past_the_bound_are_refused_before_allocation():
    for make in (
        lambda: Shape.of(10**9, (1,)),
        lambda: Shape.of(3, (10**9,)),
        lambda: Shape(MAX_SIZE + 1, (0,) * (MAX_SIZE + 1)),
    ):
        with pytest.raises(ValueError, match="exceeds the size bound of 4096"):
            make()
    assert Shape.of(MAX_SIZE, (MAX_SIZE,)).size == MAX_SIZE


def test_cached_shape_data_is_invisible():
    fresh, filled = Shape.of(4, (3, 1)), Shape.of(4, (3, 1))
    assert filled.column_lengths == (2, 1, 1) and filled.r_subset.elements == (1, 2)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh) == "Shape(n=4, parts=(3, 1, 0, 0))"
    t = Tableau(filled, ((1, 2), (2,), (3,)))
    assert t.to_json_dict() == Tableau(fresh, t.columns).to_json_dict()
    assert dataclasses.replace(filled) == fresh
    moved = dataclasses.replace(filled, parts=(2, 2, 0, 0))
    assert moved == Shape.of(4, (2, 2)) and moved.column_lengths == (2, 2)
    assert moved.r_subset.elements == (2,)


def test_ideals_are_convex():
    sh = Shape.of(3, (2, 1))
    for t in tableaux_of(sh):
        assert is_convex(ideal(t))


def _brute_force_columns(shape):
    """Every choice of one increasing column per column, kept where rows weakly increase."""
    choices = [itertools.combinations(range(1, shape.n + 1), z) for z in shape.column_lengths]
    return [
        cols
        for cols in itertools.product(*choices)
        if all(all(map(operator.le, a, b)) for a, b in zip(cols, cols[1:]))
    ]


def test_tableau_walks_match_a_brute_filter():
    # the walk over SSYT and below a tableau, items and order, against a filter
    # of the product of columns, re-sorted by the columns read from the rightmost
    for sh in [*SMALL_SHAPES, Shape.of(3, ())]:
        brute = sorted(_brute_force_columns(sh), key=lambda cols: cols[::-1])
        assert [t.columns for t in enumerate_tableaux(sh)] == brute
        members = tableaux_of(sh)  # in the order of brute, as just checked
        rng = random.Random(len(members))
        for _ in range(20):
            a, b = rng.choice(members), rng.choice(members)
            hi = tableau_join(a, b)
            below = [t.columns for t in members if entrywise_le(t, hi)]
            assert list(_column_walk(hi, _place, ())) == below


def test_narrow_boxes_cost_what_they_yield():
    # 21 tableaux lie below the column (1..19, 40); a walk that first listed
    # the C(40, 20) columns of the range 1..40 would never return
    sh = Shape.of(40, (1,) * 20)
    top = Tableau(sh, (tuple(range(1, 20)) + (40,),))
    start = time.perf_counter()
    assert len(ideal(top)) == 21
    wide = Shape.of(40, (2,) * 20)
    hi = Tableau(wide, (tuple(range(1, 20)) + (40,),) * 2)
    assert sum(1 for _ in _column_walk(hi, _place, ())) == 21 * 22 // 2
    assert time.perf_counter() - start < 0.5


def test_walks_leave_no_reference_cycles():
    # a self-recursive generator closure would leave a function-cell cycle per call
    sh = Shape.of(4, (3, 2, 1))
    p = RPermutation.of(4, (1, 2, 3), (3, 1, 4, 2))
    top, y = tableaux_of(sh)[-1], key_of_perm(p, sh)
    a = rank_tuple(p)  # increasing upper, so it has a z set
    walks = [
        functools.partial(enumerate_tableaux, sh),
        functools.partial(ideal, top),
        # the column walk under each of its four steps
        functools.partial(_column_walk, top, _place, ()),
        functools.partial(_column_walk, y, _scanning_below(y), ()),
        functools.partial(_column_walk, row_end_max(a, sh), _ending_in(a.entries), ()),
        functools.partial(_column_walk, top, _with_cell(sh, 2), ((), (), (), 0)),
        functools.partial(demazure_set, p, sh),
        functools.partial(z_set, a, sh),
        functools.partial(enumerate_rperms, 5, (2, 4)),
        functools.partial(enumerate_critical_lists, 5, (2, 4)),
        *(functools.partial(enumerate_tuples, 5, (2, 4), f) for f in FAMILIES),
    ]
    for walk in walks:
        gc.collect()
        gc.disable()
        try:
            for _ in walk():
                pass
            assert gc.collect() == 0, walk
        finally:
            gc.enable()


def test_count_tableaux_matches_enumeration():
    for sh in SMALL_SHAPES:
        assert count_tableaux(sh) == len(tableaux_of(sh))
    assert count_tableaux(Shape.of(3, ())) == 1


def test_count_tableaux_known_totals():
    for n in range(1, 13):
        assert count_tableaux(Shape.of(n, range(n - 1, 0, -1))) == 2 ** (n * (n - 1) // 2)
    totals = {
        n: sum(count_tableaux(canonical_shape(n, r)) for r in subsets_of_interval(n))
        for n in (7, 8)
    }
    assert totals == {7: 4_463_641, 8: 550_769_902}


def test_materialization_cap(monkeypatch):
    sh = Shape.of(4, (3, 2, 1))
    monkeypatch.setenv("PARAKAT_CAP", "5")
    with pytest.raises(CapExceeded):
        demazure_set(RPermutation.of(4, (1, 2, 3), (4, 3, 2, 1)), sh)
    monkeypatch.setenv("PARAKAT_CAP", "1")
    # the cap counts the set's own members, not every tableau of the shape
    assert len(demazure_set(RPermutation.of(4, (1, 2, 3), (1, 2, 3, 4)), sh)) == 1
    monkeypatch.setenv("PARAKAT_CAP", "3")
    with pytest.raises(CapExceeded):
        _set_below(tableaux_of(sh)[-1])


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("PARAKAT_CAP", "2")
    with pytest.raises(CapExceeded):
        ideal(key_of_perm(RPermutation.of(3, (2,), (2, 3, 1)), Shape.of(3, (1, 1))))


def test_tableau_set_deduplicates_and_orders():
    sh = Shape.of(3, (1, 1))
    a = Tableau(sh, ((1, 2),))
    b = Tableau(sh, ((2, 3),))
    ts = TableauSet(sh, (b, a, b))
    assert [t.columns for t in ts] == [((1, 2),), ((2, 3),)]
    assert len(ts) == 2


def test_tableau_json_round_trip():
    t = Tableau(Shape.of(3, (2, 1)), ((1, 3), (3,)))
    assert Tableau.from_json_dict(t.to_json_dict()) == t
    assert t.to_json_dict() == {"lambda": [2, 1, 0], "n": 3, "columns": [[1, 3], [3]]}


def test_tableau_validation():
    sh = Shape.of(3, (2, 1))
    with pytest.raises(ValueError):
        Tableau(sh, ((1, 1), (2,)))  # column not strict
    with pytest.raises(ValueError):
        Tableau(sh, ((2, 3), (1,)))  # row decreases


# ---------------------------------------------------------------------------
# property tests


@st.composite
def shape_and_tableau(draw):
    sh = draw(st.sampled_from(SMALL_SHAPES))
    t = draw(st.sampled_from(tableaux_of(sh)))
    return sh, t


@settings(max_examples=150, deadline=None)
@given(shape_and_tableau(), shape_and_tableau())
def test_lattice_laws_random(a, b):
    sh, t = a
    sh2, u = b
    if sh != sh2:
        return
    lo = tableau_meet(t, u)
    hi = tableau_join(t, u)
    assert entrywise_le(lo, t) and entrywise_le(lo, u)
    assert entrywise_le(t, hi) and entrywise_le(u, hi)


@settings(max_examples=150, deadline=None)
@given(shape_and_tableau())
def test_scanning_random(pair):
    _, t = pair
    s = scanning(t)
    assert is_key(s) and entrywise_le(t, s) and scanning(s) == s


# ---------------------------------------------------------------------------
# independent right-key oracle via rewriting-equivalence classes


def _elementary_rewrites(word):
    out = []
    for i in range(len(word) - 2):
        a, b, c = word[i], word[i + 1], word[i + 2]
        if min(a, b) <= c < max(a, b):  # swap the first two of the triple
            out.append(word[:i] + (b, a, c) + word[i + 3 :])
        if min(b, c) < a <= max(b, c):  # swap the last two of the triple
            out.append(word[:i] + (a, c, b) + word[i + 3 :])
    return out


def _word_class(word):
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for v in _elementary_rewrites(w):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _split_decreasing(word, profile):
    blocks = []
    pos = 0
    for length in profile:
        block = word[pos : pos + length]
        if any(x <= y for x, y in zip(block, block[1:])):
            return None
        blocks.append(block)
        pos += length
    return blocks


def right_key_oracle(t):
    """Right key via column factorizations of the plactic class of the word."""
    lengths = tuple(len(c) for c in t.columns)
    word = tuple(v for col in t.columns for v in reversed(col))
    cls = _word_class(word)
    column_by_length = {}
    for length in set(lengths):
        found = set()
        for profile in set(itertools.permutations(lengths)):
            if profile[-1] != length:
                continue
            for w in cls:
                blocks = _split_decreasing(w, profile)
                if blocks is not None:
                    found.add(tuple(sorted(blocks[-1])))
        assert len(found) == 1, (t.columns, length, found)
        column_by_length[length] = found.pop()
    return Tableau(t.shape, tuple(column_by_length[len(c)] for c in t.columns))


def test_scanning_matches_plactic_right_key_oracle():
    for sh in SMALL_SHAPES:
        for t in tableaux_of(sh):
            assert scanning(t) == right_key_oracle(t), t.columns


def test_convexity_dichotomy_spot_check_n5():
    # one canonical two-divider shape beyond the exhaustive range
    sh = Shape.of(5, (2, 2, 1, 1))
    from parakat.rperms import count_cnr

    avoiding_seen = 0
    for p in enumerate_rperms(5, sh.r_subset.elements):
        d = demazure_set(p, sh)
        y = key_of_perm(p, sh)
        avoiding = is_r312_avoiding(p)
        assert (d == ideal(y)) == avoiding
        assert is_convex(d) == avoiding
        avoiding_seen += avoiding
    assert avoiding_seen == count_cnr(5, sh.r_subset.elements) == 19
