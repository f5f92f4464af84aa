import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from parakat.errors import DomainMismatch, NotFlagCriticalList, NotGapless, NotUpper
from parakat.rperms import ClumpDecomposition, RChain, RPermutation, pi_map
from parakat.rtuples import (
    CONSTRUCTION_KINDS,
    FAMILIES,
    CriticalList,
    RSubset,
    RTuple,
    _Memo,
    _boundary_count,
    _carrel_entries,
    _is_shell_over,
    _over_own_pairs,
    _staircase_below,
    ceiling_map,
    class_interval,
    classify,
    core,
    critical_list,
    enumerate_critical_lists,
    enumerate_tuples,
    equivalent,
    floor_map,
    from_critical_list,
    is_canopy,
    is_ceiling_flag,
    is_floor_flag,
    is_gapless,
    is_gapless_core,
    is_gapless_staircase,
    is_r_increasing,
    is_shell,
    is_upper,
    is_upper_flag,
    is_weakly_increasing,
)
from parakat.tableaux import Shape, Tableau

T38 = lambda entries: RTuple.of(9, (3, 8), entries)


def all_r_subsets(n):
    for k in range(n):
        yield from itertools.combinations(range(1, n), k)


# ---------------------------------------------------------------------------
# worked examples


def test_running_example_critical_list_and_core():
    t = T38((2, 7, 5, 8, 6, 6, 9, 9, 9))
    assert str(critical_list(t)) == "({(1,2),(3,5)};{(6,6),(8,9)};{(9,9)})"
    assert str(core(t)) == "(2,4,5;4,5,6,8,9;9)"


def test_core_map_example():
    assert str(core(T38((7, 9, 6, 5, 5, 9, 8, 9, 9)))) == "(4,5,6;4,5,7,8,9;9)"


@pytest.mark.parametrize(
    "entries,family,expected",
    [
        ((2, 6, 7, 4, 5, 7, 8, 9, 9), "increasing", True),
        ((3, 5, 5, 6, 4, 7, 8, 9, 9), "increasing", False),
        ((4, 5, 5, 4, 8, 7, 8, 8, 9), "gapless_core", True),
        ((4, 5, 5, 4, 8, 7, 8, 9, 9), "gapless_core", False),
        ((2, 4, 6, 4, 5, 6, 7, 9, 9), "gapless", True),
        ((2, 4, 6, 4, 6, 7, 8, 9, 9), "gapless", False),
        ((2, 4, 5, 5, 5, 6, 8, 9, 9), "floor_flag", True),
        ((2, 4, 5, 5, 5, 8, 8, 9, 9), "floor_flag", False),
        ((1, 4, 4, 5, 5, 9, 9, 9, 9), "ceiling_flag", True),
        ((1, 4, 4, 5, 5, 7, 8, 9, 9), "ceiling_flag", False),
    ],
)
def test_classification_table_rows(entries, family, expected):
    assert getattr(classify(T38(entries)), family) is expected


def test_gapless_core_example_is_not_gapless():
    rep = classify(T38((4, 5, 5, 4, 8, 7, 8, 8, 9)))
    assert rep.gapless_core and not rep.gapless


def test_floor_and_ceiling_map_examples():
    assert str(floor_map(T38((3, 4, 6, 4, 5, 6, 8, 9, 9)))) == "(3,4,6;6,6,6,8,9;9)"
    assert str(ceiling_map(T38((3, 4, 5, 4, 5, 6, 8, 9, 9)))) == "(5,5,5;6,6,6,9,9;9)"


def test_full_r_floor_and_ceiling_are_identity():
    n = 4
    full = tuple(range(1, n))
    for g in enumerate_tuples(n, full, "gapless"):
        assert floor_map(g) == g
        assert ceiling_map(g) == g


def test_critical_list_identity_full_r():
    n = 5
    t = RTuple.of(n, tuple(range(1, n)), tuple(range(1, n + 1)))
    c = critical_list(t)
    assert c.carrels == tuple(((i, i),) for i in range(1, n + 1))


def test_critical_list_hand_run_n3():
    c = critical_list(RTuple.of(3, (2,), (3, 3, 3)))
    assert c.carrels == (((2, 3),), ((3, 3),))
    assert from_critical_list(c, "increasing") == RTuple.of(3, (2,), (2, 3, 3))


def test_shell_construction_example():
    c = CriticalList(RSubset(3, (2,)), (((2, 3),), ((3, 3),)))
    shell = from_critical_list(c, "shell")
    assert shell == RTuple.of(3, (2,), (3, 3, 3))
    assert critical_list(shell) == c


def test_from_critical_list_flag_only_kinds_reject_nonflag():
    # critical entries 4, 3, 4 are not weakly increasing
    c = critical_list(RTuple.of(4, (1, 3), (4, 2, 3, 4)))
    assert not c.is_flag
    for kind in ("gapless", "canopy", "floor", "ceiling"):
        with pytest.raises(NotFlagCriticalList):
            from_critical_list(c, kind)
    from_critical_list(c, "increasing")
    from_critical_list(c, "shell")


def test_equivalent_examples():
    a = RTuple.of(3, (2,), (3, 3, 3))
    b = RTuple.of(3, (2,), (2, 3, 3))
    assert equivalent(a, b)
    assert equivalent(a, a)
    x = T38((2, 4, 6, 4, 5, 6, 7, 9, 9))
    y = T38((2, 3, 6, 4, 5, 6, 7, 9, 9))
    assert equivalent(x, y) == (core(x) == core(y))
    with pytest.raises(DomainMismatch):
        equivalent(a, RTuple.of(3, (1,), (2, 3, 3)))


def test_class_interval_examples():
    lo, hi = class_interval(RTuple.of(3, (2,), (3, 3, 3)))
    assert lo == RTuple.of(3, (2,), (2, 3, 3))
    assert hi == RTuple.of(3, (2,), (3, 3, 3))
    ui = RTuple.of(3, (2,), (1, 2, 3))
    assert class_interval(ui)[0] == ui


def test_class_interval_is_the_class_exhaustive():
    for n in range(1, 5):
        for r in all_r_subsets(n):
            tuples = list(enumerate_tuples(n, r, "upper"))
            for t in tuples:
                lo, hi = class_interval(t)
                boxed = {
                    u
                    for u in tuples
                    if all(a <= e <= b for a, e, b in zip(lo.entries, u.entries, hi.entries))
                }
                cls = {u for u in tuples if core(u) == core(t)}
                assert boxed == cls


def test_gapless_core_class_extremes():
    for n in range(1, 6):
        for r in all_r_subsets(n):
            for t in enumerate_tuples(n, r, "gapless-core"):
                lo, hi = class_interval(t)
                assert is_gapless(lo)
                assert classify(hi).canopy


# ---------------------------------------------------------------------------
# counting


def test_increasing_count_formula():
    assert sum(1 for _ in enumerate_tuples(9, (3, 8), "increasing")) == 504


def test_trivial_and_full_cases():
    assert sum(1 for _ in enumerate_tuples(5, (), "increasing")) == 1
    assert sum(1 for _ in enumerate_tuples(4, (1, 2, 3), "gapless")) == 14


def test_upper_count_is_factorial():
    import math

    for n in range(1, 6):
        assert sum(1 for _ in enumerate_tuples(n, (), "upper")) == math.factorial(n)


def test_enumeration_is_lexicographic_and_duplicate_free():
    for family in ("upper", "flag", "increasing", "gapless", "shell"):
        seen = [t.entries for t in enumerate_tuples(4, (2,), family)]
        assert seen == sorted(set(seen))


FAMILY_PREDICATES = {
    "upper": is_upper,
    "flag": is_upper_flag,
    "increasing": is_r_increasing,
    "gapless": is_gapless,
    "gapless-core": is_gapless_core,
    "floor": is_floor_flag,
    "ceiling": is_ceiling_flag,
    "shell": is_shell,
    "canopy": is_canopy,
}


def test_carrel_walk_matches_the_brute_filter():
    # the public predicates over every upper tuple, in lexicographic order
    assert set(FAMILY_PREDICATES) == set(FAMILIES)
    for n in range(1, 7):
        families = FAMILIES if n <= 5 else ("gapless-core", "floor", "shell", "canopy")
        for r in all_r_subsets(n):
            uppers = [
                RTuple.of(n, r, e)
                for e in itertools.product(*(range(i, n + 1) for i in range(1, n + 1)))
            ]
            for family in families:
                pred = FAMILY_PREDICATES[family]
                assert list(enumerate_tuples(n, r, family)) == [
                    t for t in uppers if pred(t)
                ], (n, r, family)


def test_sparse_candidates_keep_every_shell_segment():
    # the shell filter over the sparse candidates against the same filter over
    # every upper segment, on each carrel, in the same order
    keep = _over_own_pairs(_is_shell_over)
    for n in range(1, 9):
        for lo, hi in itertools.combinations(range(n + 1), 2):
            sparse = [s for s in _carrel_entries(n, lo, hi, "sparse") if keep(s, n, lo)]
            upper = [s for s in _carrel_entries(n, lo, hi, "upper") if keep(s, n, lo)]
            assert sparse == upper, (n, lo, hi)


def test_floor_walk_is_the_flag_walk_filtered_by_the_plateau_rule():
    # the floor family's segment filter and plateau boundary rule against the
    # per-tuple predicate over every upper flag, in the same order
    for n in range(1, 8):
        for r in all_r_subsets(n):
            flags = [t for t in enumerate_tuples(n, r, "flag") if is_floor_flag(t)]
            assert list(enumerate_tuples(n, r, "floor")) == flags, (n, r)


def test_equal_segments_in_two_carrels_have_their_own_critical_indices():
    for n, r, entries, expected in [
        (4, (2,), (3, 4, 3, 4), (((2, 4),), ((4, 4),))),
        (6, (2, 4), (5, 6, 5, 6, 5, 6), (((2, 6),), ((4, 6),), ((6, 6),))),
    ]:
        assert critical_list(RTuple.of(n, r, entries)).carrels == expected


def test_critical_list_enumeration_counts():
    import math

    for n in range(1, 6):
        for r in all_r_subsets(n):
            sizes = RSubset(n, r).block_sizes
            expected = math.factorial(n)
            for p in sizes:
                expected //= math.factorial(p)
            assert sum(1 for _ in enumerate_critical_lists(n, r)) == expected
            flags = sum(1 for _ in enumerate_critical_lists(n, r, flag_only=True))
            gapless = sum(1 for _ in enumerate_tuples(n, r, "gapless"))
            assert flags == gapless


def test_boundary_count_is_the_size_of_each_walk():
    # the transfer against every member the walk builds; the upper family
    # streams all n! upper tuples at every R, and the shell family at R = (),
    # so they stop at n = 5
    for n in range(1, 7):
        for r in all_r_subsets(n):
            for family in FAMILIES:
                if n == 6 and family in ("upper", "shell"):
                    continue
                walked = sum(1 for _ in enumerate_tuples(n, r, family))
                assert _boundary_count(n, r, family) == walked, (n, r, family)


def test_boundary_count_of_the_flag_critical_lists_is_their_walk():
    for n in range(1, 8):
        for r in all_r_subsets(n):
            walked = sum(1 for _ in enumerate_critical_lists(n, r, flag_only=True))
            assert _boundary_count(n, r, None) == walked, (n, r)


def test_distinct_core_counts():
    import math

    for n in range(1, 6):
        for r in all_r_subsets(n):
            sizes = RSubset(n, r).block_sizes
            expected = math.factorial(n)
            for p in sizes:
                expected //= math.factorial(p)
            cores = {core(t).entries for t in enumerate_tuples(n, r, "upper")}
            assert len(cores) == expected
            gc_cores = {core(t).entries for t in enumerate_tuples(n, r, "gapless-core")}
            assert len(gc_cores) == sum(1 for _ in enumerate_tuples(n, r, "gapless"))


# ---------------------------------------------------------------------------
# laws


def test_core_idempotent_and_below_n6():
    for n in range(1, 7):
        for r in all_r_subsets(n):
            for t in enumerate_tuples(n, r, "upper"):
                d = core(t)
                assert core(d) == d
                assert all(x <= y for x, y in zip(d.entries, t.entries))
                assert critical_list(d) == critical_list(t)
                # the staircase fill of the critical list, built without core
                assert d == from_critical_list(critical_list(t), "increasing")


def test_floor_and_ceiling_are_the_extreme_flags_of_their_class():
    for n in range(1, 6):
        for r in all_r_subsets(n):
            classes = {}
            for phi in enumerate_tuples(n, r, "flag"):
                classes.setdefault(critical_list(phi), []).append(phi.entries)
            assert len(classes) == sum(1 for _ in enumerate_critical_lists(n, r, flag_only=True))
            for c, members in classes.items():
                lo, hi = from_critical_list(c, "floor"), from_critical_list(c, "ceiling")
                assert lo.entries in members and hi.entries in members
                for m in members:
                    assert all(a <= b <= d for a, b, d in zip(lo.entries, m, hi.entries))


def test_floor_flags_are_the_floors_of_their_classes():
    # the plateau rule of is_floor_flag, which the floor walk is checked
    # against, against the floor built from each flag's own critical list
    for n in range(1, 7):
        for r in all_r_subsets(n):
            for phi in enumerate_tuples(n, r, "flag"):
                assert is_floor_flag(phi) == (phi == from_critical_list(critical_list(phi), "floor"))


def test_memo_computes_each_value_once_and_keeps_it():
    calls = []

    def fn(key):
        calls.append(key)
        return [key]

    memo = _Memo(fn)
    first = memo[3]
    assert first == [3] and memo[3] is first and memo[4] == [4]
    assert calls == [3, 4] and memo == {3: [3], 4: [4]}


def test_gapless_characterizations_agree_n6():
    for n in range(1, 7):
        for r in all_r_subsets(n):
            for t in enumerate_tuples(n, r, "increasing"):
                assert is_gapless(t) == is_gapless_staircase(t)


def test_is_flag_compares_all_critical_entries():
    for n in range(1, 7):
        for r in all_r_subsets(n):
            for c in enumerate_critical_lists(n, r):
                ys = [y for _, y in c.pairs]
                assert c.is_flag == all(a <= b for a, b in zip(ys, ys[1:]))


def test_construction_round_trips():
    for n in range(1, 6):
        for r in all_r_subsets(n):
            for c in enumerate_critical_lists(n, r):
                kinds = ["increasing", "shell"]
                if c.is_flag:
                    kinds += ["gapless", "canopy", "floor", "ceiling"]
                for kind in kinds:
                    t = from_critical_list(c, kind)
                    assert critical_list(t) == c
                    assert classify(t).as_dict()[
                        {
                            "increasing": "increasing",
                            "shell": "shell",
                            "gapless": "gapless",
                            "canopy": "canopy",
                            "floor": "floor_flag",
                            "ceiling": "ceiling_flag",
                        }[kind]
                    ]


def test_trusted_tuples_pass_the_public_checks(rebuilt):
    # the enumeration, critical_list and from_critical_list build unchecked
    for n in range(1, 6):
        for r in all_r_subsets(n):
            for family in FAMILIES:
                for t in enumerate_tuples(n, r, family):
                    assert rebuilt(t) == t
            for flag_only in (False, True):
                for c in enumerate_critical_lists(n, r, flag_only):
                    assert rebuilt(c) == c
            for t in enumerate_tuples(n, r, "upper"):
                c = critical_list(t)
                assert rebuilt(c) == c
                kinds = CONSTRUCTION_KINDS if c.is_flag else ("increasing", "shell")
                for u in (core(t), *(from_critical_list(c, kind) for kind in kinds)):
                    assert rebuilt(u) == u


def test_cached_carrel_data_is_invisible():
    fresh, filled = RSubset(9, (3, 8)), RSubset(9, (3, 8))
    assert filled.qs == (0, 3, 8, 9)
    assert filled.carrels == ((0, 3), (3, 8), (8, 9))
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh) == "RSubset(n=9, elements=(3, 8))"
    assert dataclasses.asdict(filled) == dataclasses.asdict(fresh) == {"n": 9, "elements": (3, 8)}
    assert dataclasses.replace(filled) == fresh
    moved = dataclasses.replace(filled, elements=(4,))
    assert moved == RSubset(9, (4,)) and moved.carrels == ((0, 4), (4, 9))


def test_floor_ceiling_bound_flags():
    for n in range(1, 6):
        for r in all_r_subsets(n):
            for phi in enumerate_tuples(n, r, "flag"):
                g = core(phi)
                assert is_gapless(g)
                lo = floor_map(g)
                hi = ceiling_map(g)
                assert all(a <= b <= c for a, b, c in zip(lo.entries, phi.entries, hi.entries))


def test_not_upper_errors():
    bad = RTuple.of(3, (2,), (1, 1, 1))
    with pytest.raises(NotUpper):
        critical_list(bad)
    with pytest.raises(NotUpper):
        core(bad)
    with pytest.raises(NotUpper):
        equivalent(RTuple.of(3, (2,), (3, 3, 3)), bad)
    with pytest.raises(DomainMismatch):
        equivalent(bad, RTuple.of(3, (1,), (1, 1, 1)))
    rep = classify(bad)
    assert not rep.upper and not rep.gapless_core and rep.flag


def test_classify_agrees_with_each_predicate():
    predicates = {
        "upper": is_upper,
        "flag": is_weakly_increasing,
        "increasing": is_r_increasing,
        "gapless": is_gapless,
        "gapless_core": is_gapless_core,
        "shell": is_shell,
        "canopy": is_canopy,
        "floor_flag": is_floor_flag,
        "ceiling_flag": is_ceiling_flag,
    }
    for n in range(1, 5):
        for r in all_r_subsets(n):
            for entries in itertools.product(range(1, n + 1), repeat=n):
                t = RTuple.of(n, r, entries)
                assert classify(t).as_dict() == {k: p(t) for k, p in predicates.items()}


# ---------------------------------------------------------------------------
# the one-pass kernels against the formulations they replaced


def staircase_by_accumulate(entries):
    """The largest strictly increasing sequence entrywise below ``entries``: its
    entry i is the least ``entries[k] - (k - i)`` over k >= i."""
    lows = itertools.accumulate((e + j for j, e in enumerate(reversed(entries))), min)
    return tuple(low - j for j, low in enumerate(lows))[::-1]


def core_by_carrels(t):
    """Refuse a tuple that is not upper, then lower each carrel on its own."""
    if not is_upper(t):
        raise NotUpper(f"tuple is not upper: {t}")
    e = t.entries
    staircase = (v for lo, hi in t.r_subset.carrels for v in staircase_by_accumulate(e[lo:hi]))
    return RTuple(t.r_subset, tuple(staircase))


def is_gapless_by_definition(t):
    return is_upper(t) and is_r_increasing(t) and critical_list(t).is_flag


def is_floor_flag_by_plateaus(t):
    """Every plateau start p, where e_{p-1} < e_p = e_{p+1} with e_0 read as 0, in R."""
    if not is_upper_flag(t):
        return False
    boundary = t.r_subset.elements
    e = (0, *t.entries)
    return all(p in boundary for p in range(1, t.n) if e[p - 1] < e[p] == e[p + 1])


@pytest.mark.parametrize("n", range(1, 6))
def test_one_pass_kernels_match_their_old_formulations_on_every_tuple(n):
    # every tuple in [n]^n under every R: 52,165 tuples for n <= 5
    seen = 0
    for r in all_r_subsets(n):
        qs = RSubset(n, r).qs
        for entries in itertools.product(range(1, n + 1), repeat=n):
            t = RTuple.of(n, r, entries)
            seen += 1
            upper = is_upper(t)
            staircase = _staircase_below(entries, qs)
            assert (staircase is None) == (not upper), t
            if upper:
                assert core(t) == core_by_carrels(t), t
                assert staircase == core(t).entries
            else:
                with pytest.raises(NotUpper) as info:
                    core(t)
                assert str(info.value) == f"tuple is not upper: {t}"
            gapless = is_gapless_by_definition(t)
            assert is_gapless(t) == gapless, t
            if not gapless:
                with pytest.raises(NotGapless) as info:
                    pi_map(t)
                assert str(info.value) == f"tuple is not gapless: {t}"
            assert is_floor_flag(t) == is_floor_flag_by_plateaus(t), t
    assert seen == n**n * 2 ** (n - 1)


def test_staircase_kernel_reads_each_prefix_as_one_carrel():
    # the tableau side lowers a prefix of row bounds as a single carrel
    for n in range(1, 6):
        for entries in itertools.product(range(1, n + 1), repeat=n):
            for z in range(1, n + 1):
                got = _staircase_below(entries[:z], (0, z))
                upper = all(e > i for i, e in enumerate(entries[:z]))
                assert got == (staircase_by_accumulate(entries[:z]) if upper else None)


def test_not_gapless_errors():
    t = RTuple.of(4, (1, 3), (4, 2, 3, 4))  # increasing upper, non-flag critical list
    with pytest.raises(NotGapless):
        floor_map(t)
    with pytest.raises(NotGapless):
        ceiling_map(t)


def test_gapless_maps_match_their_two_step_definition():
    # the definition tests gaplessness from its three conditions, then builds
    # from the critical list
    for n in range(1, 6):
        for r in all_r_subsets(n):
            for entries in itertools.product(range(1, n + 1), repeat=n):
                t = RTuple.of(n, r, entries)
                gapless = is_upper(t) and is_r_increasing(t) and critical_list(t).is_flag
                assert is_gapless(t) == gapless
                for kind, fmap in (("floor", floor_map), ("ceiling", ceiling_map)):
                    if gapless:
                        assert fmap(t) == from_critical_list(critical_list(t), kind)
                    else:
                        with pytest.raises(NotGapless) as exc:
                            fmap(t)
                        assert str(exc.value) == f"tuple is not gapless: {t}"


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        RSubset(4, (3, 1))
    with pytest.raises(ValueError):
        RSubset(4, (4,))
    with pytest.raises(ValueError):
        RTuple.of(3, (), (1, 2))
    with pytest.raises(ValueError):
        RTuple.of(3, (), (0, 2, 3))
    with pytest.raises(ValueError):
        CriticalList(RSubset(3, (2,)), (((2, 3), (1, 1)), ((3, 3),)))


@pytest.mark.parametrize("make, message", [
    (lambda: RSubset(2.5, (1,)), "n must be an integer, got 2.5"),
    (lambda: RSubset(True), "n must be an integer, got True"),
    (lambda: RSubset(5000), "n=5000 exceeds the size bound of 4096"),
    (lambda: RSubset(4, (1.5,)), "elements of R must lie in [1, 3]: (1.5,)"),
    (lambda: RTuple.of(3, (), (1.5, 2, 3)), "entries must lie in [1, 3]: (1.5, 2, 3)"),
    (lambda: RPermutation.of(3, (), (1.0, 2, 3)),
     "entries are not a permutation of [3]: (1.0, 2, 3)"),
    (lambda: Shape(True, (1,)), "n must be an integer, got True"),
    (lambda: Shape.of(3, (2.0, 1)), "parts must be integers: (2.0, 1, 0)"),
    (lambda: Tableau(Shape.of(2, (1,)), ((1.0,),)), "values must lie in [1, 2]: (1.0,)"),
    (lambda: CriticalList(RSubset(2), (((2.9, 2.9),),)),
     "critical pairs must be pairs of integers: (((2.9, 2.9),),)"),
    (lambda: RChain(RSubset(3, (1,)), ({1.0},)),
     "chain sets must be strictly nested subsets of [n]"),
    (lambda: ClumpDecomposition(((1.0, 2.0),)),
     "block is not a run of consecutive integers: (1.0, 2.0)"),
    # an integer out of range keeps its message
    (lambda: RSubset(4, (4,)), "elements of R must lie in [1, 3]: (4,)"),
    (lambda: RTuple.of(3, (), (0, 2, 3)), "entries must lie in [1, 3]: (0, 2, 3)"),
    (lambda: Shape.of(3, (2, -1)), "parts must be nonnegative: (2, -1, 0)"),
])
def test_every_constructor_refuses_a_non_integer(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trips():
    t = T38((2, 7, 5, 8, 6, 6, 9, 9, 9))
    assert RTuple.from_json_dict(t.to_json_dict()) == t
    c = critical_list(t)
    assert CriticalList.from_json_dict(c.to_json_dict()) == c
    assert t.to_json_dict() == {
        "n": 9,
        "R": [3, 8],
        "entries": [2, 7, 5, 8, 6, 6, 9, 9, 9],
    }
    assert c.to_json_dict() == {
        "carrels": [[[1, 2], [3, 5]], [[6, 6], [8, 9]], [[9, 9]]]
    }


def test_tuple_json_names_a_missing_or_mistyped_key():
    with pytest.raises(ValueError, match="^tuple JSON lacks the key 'entries'$"):
        RTuple.from_json_dict({"n": 3, "R": [1]})
    with pytest.raises(ValueError, match="^tuple JSON key 'entries' must hold an array of integers$"):
        RTuple.from_json_dict({"n": 3, "R": [1], "entries": ["a", 2, 3]})
    with pytest.raises(ValueError, match="^tuple JSON key 'n' must hold an integer$"):
        RTuple.from_json_dict({"n": 3.0, "R": [1], "entries": [1, 2, 3]})


def test_text_display():
    assert str(T38((2, 7, 5, 8, 6, 6, 9, 9, 9))) == "(2,7,5;8,6,6,9,9;9)"
    assert str(RTuple.of(3, (), (1, 2, 3))) == "(1,2,3)"


# ---------------------------------------------------------------------------
# property tests


@st.composite
def upper_tuples(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    r = ()
    if n > 1:
        r = tuple(sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))))
    entries = tuple(draw(st.integers(i, n)) for i in range(1, n + 1))
    return RTuple.of(n, r, entries)


@settings(max_examples=200, deadline=None)
@given(upper_tuples())
def test_core_laws_hold_on_random_tuples(t):
    d = core(t)
    assert is_upper(d) and is_r_increasing(d)
    assert core(d) == d
    assert critical_list(d) == critical_list(t)
    lo, hi = class_interval(t)
    assert lo == d
    assert all(a <= e <= b for a, e, b in zip(lo.entries, t.entries, hi.entries))
    assert equivalent(t, hi)


@settings(max_examples=200, deadline=None)
@given(upper_tuples())
def test_serialization_round_trip_random(t):
    assert RTuple.from_json_dict(t.to_json_dict()) == t
    c = critical_list(t)
    assert CriticalList.from_json_dict(c.to_json_dict()) == c
