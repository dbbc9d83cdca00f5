"""Filtered complexes of permutation strings: enumeration, faces, actions."""

import re
import struct
import time
import tracemalloc
import weakref
from array import array
from collections import defaultdict
from functools import lru_cache
from itertools import accumulate
from random import Random

import pytest

from becochains import complexes
from becochains.complexes import (
    Complex,
    _filled,
    _or_lanes,
    _spread,
    _typecode,
    count_by_degree,
    get_complex,
    is_nondegenerate,
    simplex_from_text,
    simplex_text,
)
from becochains.perms import act, all_perms
from reference import faces, in_filtration, swap_count, walker_step, weak_order_counts

# Published per-degree table sizes for the small filtered complexes.
COUNTS = {
    (2, 2): [2, 2],
    (3, 2): [6, 30, 36, 12],
    (4, 2): [24, 552, 2496, 4704, 4416, 2064, 384],
    (2, 3): [2, 2, 2],
    (3, 3): [6, 30, 150, 360, 420, 228, 48],
}

COUNTS_4_3_PREFIX = [24, 552, 12696, 133200, 725136, 2329152]


def test_swap_count_examples():
    s = simplex_from_text("132|312|231")
    # labels 1,2: orders 12, 12, 21 -> one change
    assert swap_count(s, 1, 2) == 1
    # labels 1,3: orders 13, 31, 31 -> one change
    assert swap_count(s, 1, 3) == 1
    # labels 2,3: orders 32, 32, 23 -> one change
    assert swap_count(s, 2, 3) == 1
    assert in_filtration(s, 2)
    zig = simplex_from_text("12|21|12|21")
    assert swap_count(zig, 1, 2) == 3
    assert not in_filtration(zig, 2)
    assert in_filtration(zig, 4)


def test_degree_and_nondegeneracy():
    s = simplex_from_text("123|132")
    assert len(s) == 2
    assert is_nondegenerate(s)
    assert not is_nondegenerate(simplex_from_text("123|123"))


def test_counts_match_published_tables():
    for (k, t), table in COUNTS.items():
        assert count_by_degree(k, t, len(table) - 1) == table


def test_counts_4_3_low_degrees():
    assert count_by_degree(4, 3, 5) == COUNTS_4_3_PREFIX


def test_t2_counts_match_weak_order_chains():
    """count_by_degree at t = 2 against chains of inversion sets, through (5, 2)."""
    for (k, t), table in COUNTS.items():
        if t == 2:
            assert weak_order_counts(k, len(table) - 1) == table
    assert count_by_degree(5, 2, 4) == weak_order_counts(5, 4)
    # The widest walker key: 720 levels and 15 label pairs.
    assert count_by_degree(6, 2, 3) == weak_order_counts(6, 3)


def test_counts_divisible_by_group_order():
    import math

    for (k, t), table in COUNTS.items():
        assert all(n % math.factorial(k) == 0 for n in table)


def test_enumeration_matches_counts():
    for deg, expected in enumerate(COUNTS[(3, 2)]):
        assert len(get_complex(3, 2).index(deg)) == expected
    assert len(get_complex(4, 2).index(2)) == 2496


def test_top_degree_bound():
    cx = get_complex(3, 2)
    assert cx.top_degree == 3
    assert get_complex(4, 2).top_degree == 6
    assert get_complex(3, 3).top_degree == 6


def test_group_action_preserves_tables():
    sims = set(get_complex(3, 2).simplices(2))
    for g in all_perms(3):
        relabeled = {tuple(act(g, p) for p in s) for s in sims}
        assert relabeled == sims


@lru_cache(maxsize=None)
def _brute_force_tables(k, t, top):
    """Every filtered nondegenerate string of degree 0..top, sorted per degree.

    Faces of such strings are again such strings, so the candidates of one
    degree are the strings whose front and back faces lie in the degree
    below; each candidate is then tested in full.
    """
    perms = all_perms(k)
    level = [(p,) for p in perms]
    out = [level]
    for _ in range(top):
        below = set(level)
        candidates = [s + (p,) for s in level for p in perms if s[1:] + (p,) in below]
        level = sorted(s for s in candidates if is_nondegenerate(s) and in_filtration(s, t))
        out.append(level)
    return out


@pytest.mark.parametrize("k, t, top", [(3, 2, 3), (4, 2, 6), (3, 3, 4), (4, 3, 2)])
def test_tables_match_brute_force_references(k, t, top):
    cx = Complex(k, t)
    for d, sims in enumerate(_brute_force_tables(k, t, top)):
        codes = list(cx.index(d))
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert cx.simplices(d) == sims
        if d:
            expected = [
                [-1 if f is None else cx.index_of(f) for _, f in faces(s)] for s in sims
            ]
            assert len(cx.face_indices(d)) == len(sims)
            assert [list(row) for row in zip(*cx.face_indices(d).columns)] == expected
        for p in range(d + 1):
            fronts, backs = cx.front_back(p, d - p)
            assert list(fronts) == [cx.index_of(s[: p + 1]) for s in sims]
            assert list(backs) == [cx.index_of(s[p:]) for s in sims]


def test_face_and_front_back_tables_in_any_order():
    """Tables asked for top-down, at the edges and above the top, against the references."""
    cx = Complex(4, 2)
    top = cx.top_degree
    front_back_2_3 = cx.front_back(2, 3)
    faces_5 = cx.face_indices(5)
    faces_of = {d: cx.face_indices(d) for d in range(1, top + 2)}
    front_back_of = {
        (p, d - p): cx.front_back(p, d - p) for d in range(top + 2) for p in range(d + 1)
    }
    assert faces_of[5] is faces_5
    assert front_back_of[(2, 3)] == front_back_2_3
    assert len(faces_of[top + 1]) == 0
    assert [list(col) for col in faces_of[top + 1].columns] == [[]] * (top + 2)
    for above in (front_back_of[(0, top + 1)], front_back_of[(top, 1)], cx.front_back(top + 1, 2)):
        assert tuple(map(list, above)) == ([], [])
    with pytest.raises(ValueError):
        cx.face_indices(0)
    tables = _brute_force_tables(4, 2, top)
    at = [{s: i for i, s in enumerate(sims)} for sims in tables]
    for d in range(1, top + 1):
        expected = [[-1 if f is None else at[d - 1][f] for _, f in faces(s)] for s in tables[d]]
        assert [list(row) for row in zip(*faces_of[d].columns)] == expected
    for d, sims in enumerate(tables):
        for p in range(d + 1):
            assert tuple(map(list, front_back_of[(p, d - p)])) == (
                [at[p][s[: p + 1]] for s in sims],
                [at[d - p][s[p:]] for s in sims],
            )


def test_tables_extend_in_place():
    cx = Complex(4, 2)
    cx.index(1)
    rows = cx.face_indices(1)
    cx.index(6)
    # The next extension reads one walker step per parent, not one key per simplex.
    assert len(cx._frontier) == len(cx.index(5))
    straight = Complex(4, 2)
    straight.index(6)
    assert [list(cx.index(d)) for d in range(7)] == [list(straight.index(d)) for d in range(7)]
    assert cx.face_indices(1) is rows


def test_tables_are_flat_arrays():
    """Each (4, 2) table is an array of the narrowest typecode its values need.

    A level takes 5 bits, so codes of degree d take 5(d + 1) bits; the 24
    levels fit a byte; no table has more than 32768 simplices, so every index
    column, above the top degree too, is 'h'. Single steps are stored columns.
    """
    cx = Complex(4, 2)
    top = cx.top_degree
    faces_of = {d: cx.face_indices(d) for d in range(1, top + 2)}
    splits = {(p, d - p): cx.front_back(p, d - p) for d in range(top + 2) for p in range(d + 1)}
    assert [cx.index(d).typecode for d in range(top + 2)] == list("BHHIIIQQ")
    assert [cx._lasts[d].typecode for d in range(1, top + 1)] == ["B"] * top
    assert [cx._children[d].typecode for d in range(1, top + 1)] == ["B"] * top
    for table in faces_of.values():
        assert [col.typecode for col in table.columns] == ["h"] * len(table.columns)
    for fronts, backs in splits.values():
        assert (fronts.typecode, backs.typecode) == ("h", "h")
    for p in range(1, top):
        assert splits[(p, 1)][0] is faces_of[p + 1].columns[-1]
        assert splits[(1, p)][1] is faces_of[p + 1].columns[0]


def _assert_faces_match_on_sample(cx, deg, seed):
    """The face columns of 500 seeded degree-deg simplices against index_of of their faces."""
    columns = cx.face_indices(deg).columns
    for i in Random(seed).sample(range(len(cx.index(deg))), 500):
        expected = [-1 if f is None else cx.index_of(f) for _, f in faces(cx.simplex(deg, i))]
        assert [col[i] for col in columns] == expected


def test_index_columns_widen_past_32768_simplices():
    """(4, 3): tables 2 and 3 have 12696 and 133200 simplices; degree-4 codes take 25 bits."""
    cx = Complex(4, 3)
    assert cx.index(4).typecode == "I"
    assert {col.typecode for col in cx.face_indices(3).columns} == {"h"}
    assert {col.typecode for col in cx.face_indices(4).columns} == {"i"}
    splits = [cx.front_back(p, 4 - p) for p in range(5)]
    assert [f.typecode + b.typecode for f, b in splits] == ["hi", "hi", "hh", "ih", "ih"]
    _assert_faces_match_on_sample(cx, 3, 2023)
    _assert_faces_match_on_sample(cx, 4, 2024)


@pytest.mark.parametrize("k, deg, levels", [(5, 2, "B"), (6, 1, "H")])
def test_level_arrays_widen_past_256_levels(k, deg, levels):
    """(5, 2) has 120 levels, (6, 2) has 720 and up to 719 children per simplex.

    Table 1 of (5, 2) has 14280 simplices and table 0 of (6, 2) 720, so both
    face tables checked are 'h' columns.
    """
    cx = Complex(k, 2)
    assert {col.typecode for col in cx.face_indices(deg).columns} == {"h"}
    assert {cx._lasts[d].typecode for d in range(1, deg + 1)} == {levels}
    assert {cx._children[d].typecode for d in range(1, deg + 1)} == {levels}
    assert max(cx._children[1]) == len(cx.perms) - 1
    _assert_faces_match_on_sample(cx, deg, 2025)


@pytest.mark.parametrize("n, typecode", [(32768, "h"), (32769, "i")])
def test_typecode_of_a_column_into_n_simplices(n, typecode):
    """Such a column holds -1 for a degenerate face and 0..n - 1."""
    assert _typecode(n - 1, signed=True) == typecode
    assert list(_filled(typecode, [-1, n - 1])) == [-1, n - 1]


@pytest.mark.parametrize(
    "width, typecode",
    [(8, "B"), (9, "H"), (16, "H"), (17, "I"), (32, "I"), (33, "Q"), (64, "Q"), (65, None)],
)
def test_typecode_of_codes_of_a_bit_width(width, typecode):
    """(2, 2) packs a level in one bit, so codes of degree width - 1 take width bits.

    No typecode holds 65 bits, so such codes raise rather than fall back to a list.
    """
    cx = Complex(2, 2)
    largest = (1 << width) - 1
    if typecode is None:
        with pytest.raises(ValueError, match=f"degree {width - 1} take {width} bits"):
            cx._table(width - 1, [0, largest])
        return
    table = cx._table(width - 1, [0, largest])
    assert table.typecode == typecode
    assert list(table) == [0, largest]


def test_a_value_too_wide_for_its_typecode_raises():
    """No table wraps silently: packing a value one past the typecode's range fails."""
    for typecode in "BHIQ":
        with pytest.raises(struct.error):
            _filled(typecode, [0, 1 << 8 * array(typecode).itemsize])
    for typecode in "hi":
        with pytest.raises(struct.error):
            _filled(typecode, [-1, 1 << 8 * array(typecode).itemsize - 1])


def _all_tables(k, t):
    """Every stored and built table of (k, t): codes, last levels, child counts, faces, splits."""
    cx = Complex(k, t)
    top = cx.top_degree
    return {
        "codes": [cx.index(d) for d in range(top + 1)],
        "lasts": [cx._lasts[d] for d in range(1, top + 1)],
        "children": [cx._children[d] for d in range(1, top + 1)],
        "faces": [cx.face_indices(d).columns for d in range(1, top + 1)],
        "splits": [cx.front_back(p, d - p) for d in range(top + 1) for p in range(d + 1)],
    }


@lru_cache(maxsize=None)
def _default_tables(k, t):
    return _all_tables(k, t)


@pytest.mark.parametrize("k, t", [(4, 2), (3, 3)])
@pytest.mark.parametrize("chunk", [1, 7])
def test_tables_do_not_depend_on_the_chunk_length(k, t, chunk, monkeypatch):
    """Chunks of 1 and 7 entries cut some parent's children apart; 2^14 cuts no table here."""
    expected = _default_tables(k, t)
    monkeypatch.setattr(complexes, "_CHUNK", chunk)
    tables = _all_tables(k, t)
    edges = {
        start // chunk != (start + n - 1) // chunk
        for counts in tables["children"]
        for start, n in zip(accumulate(counts, initial=0), counts) if n
    }
    assert True in edges
    for name, values in expected.items():
        assert tables[name] == values, name


@pytest.mark.parametrize("k, t, deg, width", [(4, 3, 12, 65), (5, 2, 9, 70)])
def test_codes_past_64_bits_raise_before_any_degree_is_built(k, t, deg, width):
    """The lowest such degrees, at or below the top, each after millions of lower simplices."""
    cx = Complex(k, t)
    assert deg <= cx.top_degree and (deg + 1) * cx.bits == width
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"degree {deg} take {width} bits"):
        cx.index(deg)
    assert time.perf_counter() - start < 1
    assert cx._built_to == 0 and list(cx._tables) == [0]
    assert len(cx.index(1)) == count_by_degree(k, t, 1)[1]  # the complex is still usable


def test_walker_move_table_holds_a_few_bytes_per_move():
    """720 * 719 moves at (6, 2): about 2.1 MB as arrays of 4-byte keys, 21 MB as int objects."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        walker = complexes._Walker(6, 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(map(len, walker._moves)) == 720 * 719
    assert held < 4 << 20, held


@pytest.mark.parametrize("k, t, top", [(3, 2, None), (4, 2, None), (3, 3, None), (4, 3, 3), (5, 2, 3)])
def test_walker_steps_match_the_per_level_reference(k, t, top):
    """Every key reached from every level, through the top degree or degree 3.

    The strings are counted per key on the way, so the counts check
    count_by_degree, which starts from the identity only.
    """
    w = complexes._Walker(k, t)
    top = w.top_degree if top is None else top
    level, counts = dict.fromkeys(range(len(w.perms)), 1), []
    for _ in range(top + 1):
        counts.append(sum(level.values()))
        longer = defaultdict(int)
        for key, n in level.items():
            nexts, keys = w.step(key)
            assert (array(w.levels, nexts).tolist(), keys.tolist()) == walker_step(k, t, key)
            for child in keys:
                longer[child] += n
        level = longer
    assert count_by_degree(k, t, top) == counts
    assert (not level) == (top == w.top_degree)


@pytest.mark.parametrize(
    "lane, level, bits",
    [("B", "B", 3), ("H", "B", 5), ("I", "B", 8), ("Q", "B", 7),
     ("H", "H", 10), ("I", "H", 10), ("Q", "H", 10)],
)
@pytest.mark.parametrize("chunk", [7, 1 << 14])
def test_spread_and_lane_or_match_a_per_element_reference(lane, level, bits, chunk, monkeypatch):
    """Each lane holding its largest value, and 10-bit levels in 2 bytes, as at (6, 1).

    A level put in the wrong bytes of its lane, or its bytes in the wrong
    order, gives another code.
    """
    monkeypatch.setattr(complexes, "_CHUNK", chunk)
    largest = (1 << 8 * array(lane).itemsize) - 1
    rng = Random(bits)
    parents = [largest >> bits, 0, 1, rng.randrange(largest >> bits), largest >> bits]
    counts = [3, 0, 1, 9, 5]
    per_child = [p for p, c in zip(parents, counts) for _ in range(c)]
    assert _spread(lane, parents, counts).tolist() == per_child
    lasts = array(level, [(1 << bits) - 1, 0] + [rng.randrange(1 << bits) for _ in per_child[2:]])
    codes = _spread(lane, [p << bits for p in parents], counts)
    _or_lanes(codes, lasts)
    assert codes.typecode == lane
    assert codes.tolist() == [(p << bits) | n for p, n in zip(per_child, lasts)]
    assert codes[0] == largest


def test_front_back_keeps_no_column_it_builds():
    """Splits of more than one step on both sides are built per call and held by the caller only."""
    cx = Complex(4, 2)
    for d in range(4, cx.top_degree + 1):
        for p in range(2, d - 1):
            refs = [weakref.ref(column) for column in cx.front_back(p, d - p)]
            assert [ref() is None for ref in refs] == [True, True]


def test_front_back_across_large_ancestor_blocks():
    """(4, 3) degree 4 on a seeded sample: each degree-1 simplex heads a block of about 1300.

    The references bisect the codes, so they share no step with the columns.
    """
    cx = Complex(4, 3)
    sample = Random(2022).sample(range(len(cx.index(4))), 2000)
    sims = [cx.simplex(4, i) for i in sample]
    for p in (1, 2, 3):
        fronts, backs = cx.front_back(p, 4 - p)
        assert [fronts[i] for i in sample] == [cx.index_of(s[: p + 1]) for s in sims]
        assert [backs[i] for i in sample] == [cx.index_of(s[p:]) for s in sims]


def test_degrees_above_the_top_are_empty_arrays_of_any_width():
    """(2, 2) packs a level in one bit, so its codes of degree 64 would take 65 bits."""
    cx = Complex(2, 2)
    assert cx.bits == 1 and cx.top_degree == 1
    for deg in (2, 63, 64, 200):
        assert isinstance(cx.index(deg), array) and len(cx.index(deg)) == 0
    assert cx.index(64) is cx.index(64)


def test_face_table_above_the_top_is_one_shared_empty_column_and_not_cached():
    """Above the top a degree-d table still has d + 1 columns, all of them one empty array."""
    cx = get_complex(3, 2)
    cached = len(cx._face_tables)
    tracemalloc.start()
    try:
        table = cx.face_indices(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 0 and len(table.columns) == 10 ** 6 + 1
    assert all(col is table.columns[0] for col in table.columns)
    assert len(cx._face_tables) == cached
    assert peak < 16 << 20, peak


def test_simplicial_identities():
    # d_m d_l = d_{l} d_{m+1} for l <= m, on nondegenerate parts
    for s in get_complex(3, 2).simplices(3)[:12]:
        fs = dict(faces(s))
        for m in range(1, 4):
            for l in range(m):
                a = fs[m]
                left = dict(faces(a))[l] if a is not None else None
                b = fs[l]
                right = dict(faces(b))[m - 1] if b is not None else None
                if left is not None and right is not None:
                    assert left == right


def test_faces_stay_in_filtration():
    idx1 = set(get_complex(3, 2).simplices(1))
    for s in get_complex(3, 2).simplices(2):
        for _, f in faces(s):
            if f is not None:
                assert len(f) == 2
                assert in_filtration(f, 2)
                assert f in idx1


def test_lower_filtration_included_in_higher():
    lo = set(get_complex(3, 2).simplices(2))
    hi = set(get_complex(3, 3).simplices(2))
    assert lo < hi


def test_index_roundtrip():
    cx = get_complex(4, 2)
    for i in (0, 1, 5, 100, len(cx.index(1)) - 1):
        assert cx.index_of(cx.simplex(1, i)) == i


def test_index_of_a_simplex_outside_the_table_raises():
    with pytest.raises(ValueError, match=r"12\|21\|12"):
        get_complex(2, 2).index_of(simplex_from_text("12|21|12"))


@pytest.mark.parametrize("k, t", [(3, 3), (4, 2)])
def test_index_of_round_trips_every_simplex(k, t):
    cx = get_complex(k, t)
    for d in range(cx.top_degree + 1):
        assert [cx.index_of(s) for s in cx.simplices(d)] == list(range(len(cx.index(d))))


@pytest.mark.parametrize("k, t", [(3, 3), (4, 2)])
def test_index_of_codes_between_and_beyond_the_table_raise(k, t):
    """Constant strings are degenerate: below the first code, above the last, or between two."""
    cx = get_complex(k, t)
    first, second, last = cx.perms[0], cx.perms[1], cx.perms[-1]
    for d in range(1, cx.top_degree + 1):
        codes = cx.index(d)
        below, between, above = ((p,) * (d + 1) for p in (first, second, last))
        assert cx.pack(below) < codes[0] < cx.pack(between) < codes[-1] < cx.pack(above)
        for s in (below, between, above):
            message = f"simplex not in the table: {simplex_text(s)}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cx.index_of(s)


def test_index_of_rejects_a_simplex_of_another_length_or_arity():
    """The degree of a simplex is read off its length.

    A one-level string packs to a stored degree-1 code, but resolves in degree 0.
    A string longer than the top degree allows, one of another arity and the
    empty string lie in no table.
    """
    cx = get_complex(4, 2)
    short = (cx.perms[1],)
    assert cx.pack(short) == cx.index(1)[0]
    assert cx.index_of(short) == 1
    too_long = (cx.perms[0], cx.perms[1]) * 4
    for s in (too_long, simplex_from_text("123|132"), ()):
        message = f"simplex not in the table: {simplex_text(s)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cx.index_of(s)


def test_simplex_text_roundtrip():
    for text in ("123", "132|312", "1234|2134|2143"):
        assert simplex_text(simplex_from_text(text)) == text


def test_unsupported_parameters_raise():
    with pytest.raises(ValueError):
        count_by_degree(3, 2, 99)
