import itertools
import math
import time
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from parakat.errors import NotAvoiding, NotGapless
from parakat.rperms import (
    ClumpDecomposition,
    RChain,
    RPermutation,
    RSubset,
    all_lifts,
    count_cnr,
    count_total,
    enumerate_rperms,
    from_chain,
    inversions,
    is_312_avoiding,
    is_r312_avoiding,
    is_rightmost_clump_deleting,
    minimal_lift,
    pi_map,
    project_rank_core,
    r_projection,
    rank_tuple,
    reduced_word,
    to_chain,
    _avoiding_count,
    _avoiding_tallies,
    _avoids_312,
    _block_lists,
    _lift_blocks,
    _lower_cover,
    _pi_map,
    _projected_core,
)
from parakat.rtuples import RTuple, core, enumerate_tuples
from parakat.verify import catalan


def all_r_subsets(n):
    for k in range(n):
        yield from itertools.combinations(range(1, n), k)


def brute_contains_r312(p):
    e, qs, n, r = p.entries, p.r_subset.qs, p.n, p.r_subset.r
    for h in range(1, r):
        for a in range(1, qs[h] + 1):
            for b in range(qs[h] + 1, qs[h + 1] + 1):
                for c in range(qs[h + 1] + 1, n + 1):
                    if e[a - 1] > e[b - 1] < e[c - 1] and e[a - 1] > e[c - 1]:
                        return True
    return False


# ---------------------------------------------------------------------------
# avoidance


def test_avoidance_table_rows():
    assert is_r312_avoiding(RPermutation.of(9, (3, 8), (2, 3, 6, 1, 4, 5, 8, 9, 7)))
    assert not is_r312_avoiding(RPermutation.of(9, (3, 8), (2, 4, 6, 1, 3, 7, 8, 9, 5)))


def test_avoidance_matches_brute_force():
    for n in range(1, 7):
        for r in all_r_subsets(n):
            for p in enumerate_rperms(n, r):
                assert is_r312_avoiding(p) == (not brute_contains_r312(p))


def test_312_avoidance_matches_a_triple_loop():
    # every permutation of length <= 7, and every word over {1, 2, 3} of length <= 7
    for n in range(8):
        perms = list(itertools.permutations(range(1, n + 1)))
        for w in perms + list(itertools.product((1, 2, 3), repeat=n)):
            contains = any(
                w[a] > w[b] < w[c] and w[a] > w[c]
                for a, b, c in itertools.combinations(range(n), 3)
            )
            assert is_312_avoiding(w) == (not contains), w
        assert sum(map(is_312_avoiding, perms)) == catalan(n)


def test_312_avoidance_matches_the_shared_r312_scan():
    # plain 312-avoidance is R-312-avoidance with every position its own carrel
    for n in range(8):
        for w in itertools.permutations(range(1, n + 1)):
            assert is_312_avoiding(w) == _avoids_312(w, range(n + 1)), w


def test_lower_cover_drops_one_inversion_and_stays_carrel_sorted():
    for n in range(1, 7):
        for r in all_r_subsets(n):
            for p in enumerate_rperms(n, r):
                cover = _lower_cover(p.entries)
                if p.entries == tuple(range(1, n + 1)):
                    assert cover is None
                    continue
                i, u = cover
                # i is the first value after i + 1, and u swaps the two
                where = {v: pos for pos, v in enumerate(p.entries)}
                assert where[i + 1] < where[i]
                assert all(where[v] < where[v + 1] for v in range(1, i))
                assert u == tuple({i: i + 1, i + 1: i}.get(v, v) for v in p.entries)
                RPermutation.of(n, r, u)  # refuses entries that are not carrel-sorted
                assert inversions(u) == inversions(p.entries) - 1


def test_short_divider_sets_are_always_avoiding():
    for n in range(1, 6):
        for r in all_r_subsets(n):
            if len(r) <= 1:
                for p in enumerate_rperms(n, r):
                    assert is_r312_avoiding(p)


# ---------------------------------------------------------------------------
# projections and chains


def test_projection_examples():
    assert r_projection((2, 4, 3, 1), RSubset(4, (2,))).entries == (2, 4, 1, 3)
    assert r_projection(range(1, 5), RSubset(4, (2,))).entries == (1, 2, 3, 4)  # any sequence
    p = RPermutation.of(4, (2,), (2, 4, 1, 3))
    assert r_projection(p.entries, p.r_subset) == p
    full = RSubset(4, (1, 2, 3))
    assert r_projection((3, 1, 4, 2), full).entries == (3, 1, 4, 2)


def test_chain_examples():
    p = RPermutation.of(4, (2,), (2, 4, 1, 3))
    assert to_chain(p).sets == (frozenset({2, 4}),)
    trivial = RPermutation.of(4, (), (1, 2, 3, 4))
    assert to_chain(trivial).sets == ()


def test_chain_round_trip_exhaustive():
    for p in enumerate_rperms(4, (1, 2)):
        assert from_chain(to_chain(p)) == p


def test_clump_decomposition_example():
    d = ClumpDecomposition.of({2, 3, 5, 6, 7, 10, 13, 14})
    assert d.blocks == ((2, 3), (5, 6, 7), (10,), (13, 14))
    assert d.support == frozenset({2, 3, 5, 6, 7, 10, 13, 14})
    # of() builds unchecked, so every decomposition it makes must pass the constructor
    for k in range(7):
        for values in itertools.combinations(range(1, 8), k):
            d = ClumpDecomposition.of(values)
            assert ClumpDecomposition(d.blocks) == d and d.support == frozenset(values)


def rightmost_clump_deleting_variants(chain: RChain) -> tuple[bool, bool, bool]:
    """Three reformulations of :func:`is_rightmost_clump_deleting`.

    (interval containment, open-interval containment, new-low-elements are the
    largest available below max(B_h)); all three agree with the clump form.
    """
    closed = True
    open_ = True
    largest = True
    for h in range(1, chain.r_subset.r + 1):
        bh = chain.level(h)
        bh1 = chain.level(h + 1)
        new = bh1 - bh
        b = min(new)
        m = max(bh)
        if not all(v in bh1 for v in range(b, m + 1)):
            closed = False
        if not all(v in bh1 for v in range(b + 1, m)):
            open_ = False
        low = sorted(v for v in new if v < m)
        available = sorted(v for v in range(1, m + 1) if v not in bh)
        if low != available[len(available) - len(low) :]:
            largest = False
    return closed, open_, largest


def test_rightmost_clump_deleting_matches_avoidance():
    for n in range(1, 7):
        for r in all_r_subsets(n):
            for p in enumerate_rperms(n, r):
                chain = to_chain(p)
                rcd = is_rightmost_clump_deleting(chain)
                assert rcd == is_r312_avoiding(p)
                assert rightmost_clump_deleting_variants(chain) == (rcd, rcd, rcd)


def test_rank_tuple_examples():
    assert (
        str(rank_tuple(RPermutation.of(9, (3, 8), (2, 4, 6, 1, 5, 7, 8, 9, 3))))
        == "(2,4,6;5,6,7,8,9;9)"
    )
    n = 5
    ident = RPermutation.of(n, tuple(range(1, n)), tuple(range(1, n + 1)))
    assert rank_tuple(ident).entries == tuple(range(1, n + 1))
    assert str(rank_tuple(RPermutation.of(3, (2,), (2, 3, 1)))) == "(2,3;3)"


def test_pi_map_examples():
    assert (
        str(pi_map(RTuple.of(9, (3, 8), (2, 4, 6, 4, 5, 6, 7, 9, 9))))
        == "(2,4,6;1,3,5,7,9;8)"
    )
    n = 4
    ident = RTuple.of(n, tuple(range(1, n)), tuple(range(1, n + 1)))
    assert pi_map(ident).entries == tuple(range(1, n + 1))
    assert pi_map(RTuple.of(3, (2,), (2, 3, 3))).entries == (2, 3, 1)
    with pytest.raises(NotGapless):
        pi_map(RTuple.of(4, (1, 3), (4, 2, 3, 4)))


def pi_map_by_pools(g):
    """Carrel by carrel: the largest unused values up to the boundary entry,
    from a sorted pool rebuilt for each carrel, then the carrel's own entries."""
    e = g.entries
    qs = g.r_subset.qs
    entries = list(e[: qs[1]])
    for h in range(1, g.r_subset.r + 1):
        q, q_next = qs[h], qs[h + 1]
        s = max(0, e[q - 1] - e[q] + 1)
        used = set(entries)
        pool = sorted(v for v in range(1, e[q - 1] + 1) if v not in used)
        entries.extend(pool[len(pool) - s :])
        entries.extend(e[q + s : q_next])
    return RPermutation(g.r_subset, tuple(entries))


def test_pi_map_matches_the_pool_route_on_every_gapless_tuple():
    seen = 0
    for n in range(1, 8):
        for r in all_r_subsets(n):
            for g in enumerate_tuples(n, r, "gapless"):
                assert _pi_map(g) == pi_map_by_pools(g), g
                seen += 1
    assert seen == sum(count_total(n) for n in range(1, 8))


def test_rank_pi_bijection():
    for n in range(1, 6):
        for r in all_r_subsets(n):
            avoiding = list(enumerate_rperms(n, r, avoiding_only=True))
            gapless = list(enumerate_tuples(n, r, "gapless"))
            assert len(avoiding) == len(gapless)
            for p in avoiding:
                assert is_r312_avoiding(pi_map(rank_tuple(p)))
                assert pi_map(rank_tuple(p)) == p
            for g in gapless:
                assert rank_tuple(pi_map(g)) == g


# ---------------------------------------------------------------------------
# lifts


def lift_blocks_by_clumps(p):
    """The lift blocks read off the chain of p and the clumps of each level."""
    chain = to_chain(p)
    blocks = []
    qs = p.r_subset.qs
    first = sorted(chain.level(1))
    pos = 0
    for blk in ClumpDecomposition.of(first).blocks:
        blocks.append((range(pos, pos + len(blk)), blk, None))
        pos += len(blk)
    for h in range(1, p.r_subset.r + 1):
        bh = chain.level(h)
        new = chain.level(h + 1) - bh
        m = max(bh)
        clumps = ClumpDecomposition.of(chain.level(h + 1)).blocks
        e = next(i for i, blk in enumerate(clumps) if m in blk)
        sub = tuple(sorted(set(clumps[e]) & new))
        pos = qs[h]
        if sub:
            blocks.append((range(pos, pos + len(sub)), sub, m))
            pos += len(sub)
        for blk in clumps[e + 1 :]:
            blocks.append((range(pos, pos + len(blk)), blk, None))
            pos += len(blk)
    return blocks


def test_lift_blocks_match_the_chain_and_clump_route():
    for n in range(1, 8):
        for r in all_r_subsets(n):
            for p in enumerate_rperms(n, r, avoiding_only=True):
                assert _lift_blocks(p) == lift_blocks_by_clumps(p), p


def test_minimal_lift_examples():
    assert minimal_lift(RPermutation.of(4, (2,), (2, 4, 1, 3))) == (2, 4, 3, 1)
    assert minimal_lift(
        RPermutation.of(9, (3, 8), (2, 3, 6, 1, 4, 5, 8, 9, 7))
    ) == (2, 3, 6, 5, 4, 1, 8, 9, 7)
    full = RPermutation.of(4, (1, 2, 3), (2, 4, 3, 1))
    assert minimal_lift(full) == full.entries


def test_lift_rejects_containing():
    p = RPermutation.of(9, (3, 8), (2, 4, 6, 1, 3, 7, 8, 9, 5))
    with pytest.raises(NotAvoiding):
        minimal_lift(p)
    with pytest.raises(NotAvoiding):
        list(all_lifts(p))


def test_all_lifts_against_brute_force():
    for n in range(1, 7):
        perms312 = [
            w for w in itertools.permutations(range(1, n + 1)) if is_312_avoiding(w)
        ]
        for r in all_r_subsets(n):
            rs = RSubset(n, r)
            for p in enumerate_rperms(n, r, avoiding_only=True):
                lifts = list(all_lifts(p))
                assert lifts == sorted(
                    w for w in perms312 if r_projection(w, rs) == p
                )
                ml = minimal_lift(p)
                assert ml in lifts
                lo = inversions(ml)
                assert all(inversions(w) > lo for w in lifts if w != ml)
                psi = rank_tuple(p)
                for w in lifts:
                    assert project_rank_core(w, rs) == psi


def test_all_lifts_costs_what_it_yields():
    # one lift among the 11! arrangements of the block below the first carrel's 12
    p = RPermutation.of(12, (1,), (12, *range(1, 12)))
    started = time.perf_counter()
    assert list(all_lifts(p)) == [tuple(range(12, 0, -1))]
    assert time.perf_counter() - started < 0.5
    # no divider: one block of 10 values, and its C_10 = 16796 arrangements
    assert sum(1 for _ in all_lifts(RPermutation.of(10, (), range(1, 11)))) == catalan(10)


def test_projection_of_avoiding_is_avoiding():
    for n in range(1, 7):
        perms312 = [
            w for w in itertools.permutations(range(1, n + 1)) if is_312_avoiding(w)
        ]
        for r in all_r_subsets(n):
            rs = RSubset(n, r)
            for w in perms312:
                assert is_r312_avoiding(r_projection(w, rs))


# ---------------------------------------------------------------------------
# counting


def test_catalan_sequence():
    assert [count_cnr(n, tuple(range(1, n))) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    for n in range(1, 17):
        assert count_cnr(n, tuple(range(1, n))) == catalan(n), n


def test_trivial_case_counts_one():
    for n in range(1, 15):
        assert count_cnr(n, ()) == 1
    # the first carrel is filled in closed form, so a lone carrel costs O(n)
    assert count_cnr(3000, ()) == 1


def test_one_divider_counts_the_first_carrel():
    # every R-permutation avoids (a witness spans three carrels) and is fixed
    # by the content of its first carrel
    for n in range(2, 15):
        for k in range(1, n):
            assert count_cnr(n, (k,)) == math.comb(n, k), (n, k)
    assert count_cnr(3000, (2999,)) == 3000


def test_count_cnr_frozen_value_n4():
    # independent in-test filter over the 12 carrel-sorted permutations
    brute = sum(
        1 for p in enumerate_rperms(4, (1, 2)) if not brute_contains_r312(p)
    )
    assert brute == 9
    assert count_cnr(4, (1, 2)) == 9


def test_count_total_two_routes():
    for n in range(1, 6):
        by_gapless = sum(
            sum(1 for _ in enumerate_tuples(n, r, "gapless")) for r in all_r_subsets(n)
        )
        assert count_total(n) == by_gapless


def test_count_cnr_matches_the_avoidance_filter():
    for n in range(1, 8):
        for r in all_r_subsets(n):
            by_filter = sum(1 for _ in enumerate_rperms(n, r, avoiding_only=True))
            assert count_cnr(n, r) == by_filter, (n, r)


def test_avoiding_walk_is_the_avoidance_filter():
    # the pruned walk yields the filtered enumeration, item for item
    for n in range(1, 8):
        for r in all_r_subsets(n):
            walked = list(enumerate_rperms(n, r, avoiding_only=True))
            filtered = [p for p in enumerate_rperms(n, r) if is_r312_avoiding(p)]
            assert walked == filtered, (n, r)
    for r in all_r_subsets(8):
        assert sum(1 for _ in enumerate_rperms(8, r, avoiding_only=True)) == count_cnr(8, r), r


def test_walk_is_the_carrel_sorted_permutations():
    # an oracle that shares no code with the walk: every permutation of [n] in
    # lexicographic order, kept where it rises inside each carrel, and for the
    # pruned walk where it avoids R-312 as well
    for n in range(1, 8):
        perms = list(itertools.permutations(range(1, n + 1)))
        for r in all_r_subsets(n):
            rs = RSubset(n, r)
            rises = [i for i in range(n - 1) if i + 1 not in r]
            sorted_ = [w for w in perms if all(w[i] < w[i + 1] for i in rises)]
            avoiding = [w for w in sorted_ if is_r312_avoiding(RPermutation(rs, w))]
            assert [p.entries for p in enumerate_rperms(n, r)] == sorted_, (n, r)
            walked = [p.entries for p in enumerate_rperms(n, r, avoiding_only=True)]
            assert walked == avoiding, (n, r)


def test_avoiding_count_is_the_size_of_the_pruned_walk():
    for n in range(1, 9):
        for r in all_r_subsets(n):
            walked = sum(1 for _ in enumerate_rperms(n, r, avoiding_only=True))
            assert _avoiding_count(n, r) == walked, (n, r)


def test_avoiding_count_sums_to_count_total():
    for n in range(1, 11):
        assert sum(_avoiding_count(n, r) for r in all_r_subsets(n)) == count_total(n), n


def test_avoiding_count_validates_r_like_the_constructor():
    for n, r in [(0, ()), (4, (0,)), (4, (4,)), (4, (2, 2)), (4, (3, 1))]:
        with pytest.raises(ValueError) as expected:
            RSubset(n, r)
        with pytest.raises(ValueError) as got:
            _avoiding_count(n, r)
        assert str(got.value) == str(expected.value)


def test_avoiding_count_shares_subtrees():
    # every R at n = 9 from empty memos; the walk would build 275,808 permutations
    _block_lists.cache_clear()
    _avoiding_tallies.cache_clear()
    started = time.perf_counter()
    assert sum(_avoiding_count(9, r) for r in all_r_subsets(9)) == 275_808
    assert time.perf_counter() - started < 1.0


def test_avoiding_walk_costs_what_it_yields():
    # the filter would walk all 10! = 3,628,800 permutations to keep C_10 of them
    started = time.perf_counter()
    walked = sum(1 for _ in enumerate_rperms(10, range(1, 10), avoiding_only=True))
    assert walked == catalan(10) == 16796
    assert time.perf_counter() - started < 1.0


def test_count_total_known_values():
    assert count_total(9) == 275_808
    assert count_total(12) == 58_510_912


def test_count_total_is_the_sum_of_count_cnr_over_every_r():
    for n in range(1, 11):
        assert count_total(n) == sum(count_cnr(n, r) for r in all_r_subsets(n)), n


def test_count_total_costs_one_table():
    started = time.perf_counter()
    count_total(1000)
    assert time.perf_counter() - started < 2.0


def test_count_cnr_validates_r_like_the_constructor():
    for n, r in [(0, ()), (4, (0,)), (4, (4,)), (4, (2, 2)), (4, (3, 1))]:
        with pytest.raises(ValueError) as expected:
            RSubset(n, r)
        with pytest.raises(ValueError) as got:
            count_cnr(n, r)
        assert str(got.value) == str(expected.value)


def test_count_total_refuses_n_below_one_like_count_cnr():
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
            count_total(n)
    assert count_total(1) == 1
    with pytest.raises(ValueError, match="^n=4097 exceeds the size bound of 4096$"):
        count_total(4097)


def test_enumerate_rperms_lex_and_sizes():
    for n in range(1, 6):
        for r in all_r_subsets(n):
            perms = [p.entries for p in enumerate_rperms(n, r)]
            assert perms == sorted(perms)
            sizes = RSubset(n, r).block_sizes
            expected = math.factorial(n)
            for q in sizes:
                expected //= math.factorial(q)
            assert len(perms) == expected


def test_trusted_rperms_pass_the_public_checks(rebuilt):
    # the enumeration, r_projection, pi_map and from_chain build unchecked
    for n in range(1, 6):
        for r in all_r_subsets(n):
            rs = RSubset(n, r)
            for p in enumerate_rperms(n, r):
                assert rebuilt(p) == p
                assert rebuilt(from_chain(to_chain(p))) == p
            for w in itertools.permutations(range(1, n + 1)):
                q = r_projection(w, rs)
                assert rebuilt(q) == q
            for g in enumerate_tuples(n, r, "gapless"):
                q = pi_map(g)
                assert rebuilt(q) == q


# ---------------------------------------------------------------------------
# helpers


def test_reduced_word_rebuilds_permutation():
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            word = reduced_word(w)
            assert len(word) == inversions(w)
            x = list(w)
            for j in word:
                x[j - 1], x[j] = x[j], x[j - 1]
            assert x == sorted(x)


def test_inversions_count_the_falling_pairs_of_every_permutation():
    # the pair-count definition: positions a < b with word[a] > word[b]
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            falling = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
            assert inversions(w) == falling, w


def full_rank_tuple(sigma: Sequence[int]) -> RTuple:
    """Rank tuple of a plain permutation (every position its own carrel)."""
    n = len(sigma)
    p = RPermutation.of(n, tuple(range(1, n)), tuple(sigma))
    return rank_tuple(p)


def test_full_rank_tuple_is_running_maximum():
    assert full_rank_tuple((2, 4, 3, 1)).entries == (2, 4, 4, 4)
    assert str(full_rank_tuple((3, 1, 2))) == "(3;3;3)"


def test_project_rank_core_matches_the_rank_tuple_route(rebuilt):
    # the running-maximum route against the core of the checked full rank tuple
    for n in range(1, 8):
        perms312 = [
            w for w in itertools.permutations(range(1, n + 1)) if is_312_avoiding(w)
        ]
        for r in all_r_subsets(n):
            rs = RSubset(n, r)
            for w in perms312:
                got = project_rank_core(w, rs)
                assert got == core(RTuple(rs, full_rank_tuple(w).entries)), (w, r)
                assert rebuilt(got) == got


def test_project_rank_core_matches_the_per_carrel_staircase_on_every_permutation():
    # the running maximum lowered carrel by carrel, each carrel a running
    # minimum of its own
    def staircase(entries):
        lows = itertools.accumulate((e + j for j, e in enumerate(reversed(entries))), min)
        return tuple(low - j for j, low in enumerate(lows))[::-1]

    for n in range(1, 7):
        for r in all_r_subsets(n):
            rs = RSubset(n, r)
            for w in itertools.permutations(range(1, n + 1)):
                psi = tuple(itertools.accumulate(w, max))
                expected = tuple(v for lo, hi in rs.carrels for v in staircase(psi[lo:hi]))
                assert _projected_core(w, rs.qs) == expected, (w, r)


def test_project_rank_core_refuses_a_word_that_is_no_permutation_of_n():
    rs = RSubset(3, (1,))
    for word in [(1, 2), (1, 2, 3, 4), (1, 1, 2), (2, 3, 4), (0, 1, 2)]:
        with pytest.raises(ValueError, match=r"not a permutation of \[3\]"):
            project_rank_core(word, rs)


def test_validation():
    with pytest.raises(ValueError):
        RPermutation.of(3, (), (1, 1, 2))
    with pytest.raises(ValueError):
        RPermutation.of(3, (1,), (2, 3, 1))  # second carrel (3, 1) not increasing
    with pytest.raises(ValueError, match="^permutation JSON lacks the key 'one_line'$"):
        RPermutation.from_json_dict({"n": 3, "R": []})
    with pytest.raises(ValueError, match="^permutation JSON key 'n' must hold an integer$"):
        RPermutation.from_json_dict({"n": "3", "R": [], "one_line": [1, 2, 3]})
    # r_projection takes a word from outside and checks it as the constructor does
    # a longer word is refused too, not cut to its first n entries
    for word in [(1, 1, 2), (1, 2), (2, 3, 4), (3, 1, 2, 4)]:
        with pytest.raises(ValueError, match=r"not a permutation of \[3\]"):
            r_projection(word, RSubset(3, (1,)))


@st.composite
def random_rperm(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    r = ()
    if n > 1:
        r = tuple(sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))))
    word = draw(st.permutations(list(range(1, n + 1))))
    return r_projection(tuple(word), RSubset(n, r))


@settings(max_examples=200, deadline=None)
@given(random_rperm())
def test_chain_round_trip_random(p):
    assert from_chain(to_chain(p)) == p
    assert RPermutation.from_json_dict(p.to_json_dict()) == p


@settings(max_examples=100, deadline=None)
@given(random_rperm(max_n=6))
def test_rank_tuple_lands_in_increasing_upper_random(p):
    psi = rank_tuple(p)
    from parakat.rtuples import is_r_increasing, is_upper

    assert is_upper(psi) and is_r_increasing(psi)
    if is_r312_avoiding(p):
        assert pi_map(psi) == p


def test_rank_tuples_and_chains_pass_the_public_checks(rebuilt):
    # rank_tuple and to_chain build unchecked; the rank tuple is checked
    # against its definition, the d-th largest of each carrel's prefix
    for n in range(1, 6):
        for r in all_r_subsets(n):
            qs = RSubset(n, r).qs
            for p in enumerate_rperms(n, r):
                chain = to_chain(p)
                assert rebuilt(chain) == chain
                psi = rank_tuple(p)
                assert rebuilt(psi) == psi
                expected = [
                    sorted(p.entries[:q], reverse=True)[q - i]
                    for lo, q in zip(qs, qs[1:])
                    for i in range(lo + 1, q + 1)
                ]
                assert list(psi.entries) == expected
