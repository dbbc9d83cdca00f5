"""Permutation words, projections, and block substitution."""

import pytest

from becochains.perms import (
    act,
    all_perms,
    block_substitute,
    ordered_pairs,
    pair_flags,
    perm_from_text,
    perm_text,
    project,
)
from reference import compose, identity, inverse


def test_identity_and_inverse():
    # relabelling by a permutation and by its inverse undo each other
    for k in range(1, 6):
        e = identity(k)
        for p in all_perms(k):
            assert act(p, inverse(p)) == e
            assert act(inverse(p), p) == e


def test_compose_anchor():
    # relabelling composes one-line words: (231) after (312) is the identity
    assert act((2, 3, 1), (3, 1, 2)) == (1, 2, 3)
    assert act((3, 1, 2), (2, 3, 1)) == (1, 2, 3)
    assert act((2, 1, 3), (1, 3, 2)) == (2, 3, 1)


def test_all_perms_sorted_and_complete():
    ps = all_perms(4)
    assert len(ps) == 24
    assert list(ps) == sorted(ps)
    assert len(set(ps)) == 24


def test_act_is_group_action():
    for g in all_perms(3):
        for h in all_perms(3):
            for p in all_perms(3):
                assert act(g, act(h, p)) == act(compose(g, h), p)
    assert act(identity(3), (2, 3, 1)) == (2, 3, 1)


def test_act_relabels_letters():
    # relabelling by g = (2,1,3) swaps letters 1 and 2 in the word
    assert act((2, 1, 3), (1, 2, 3)) == (2, 1, 3)
    assert act((2, 1, 3), (3, 1, 2)) == (3, 2, 1)


def test_project_pair_keeps_relative_order():
    assert project((3, 1, 2), (1, 2)) == (1, 2)
    assert project((3, 1, 2), (1, 3)) == (2, 1)
    assert project((3, 1, 2), (2, 3)) == (2, 1)
    assert project((2, 1, 4, 3), (2, 3)) == (1, 2)
    # the order of the labels in the tag names the pattern's letters
    assert project((3, 1, 2), (2, 1)) == (2, 1)


def test_project_triple_keeps_relative_order():
    # letters 1,2,3 inside (4,3,1,2) read 3,1,2
    assert project((4, 3, 1, 2), (1, 2, 3)) == (3, 1, 2)
    assert project((4, 3, 1, 2), (1, 2, 4)) == (3, 1, 2)
    assert project((4, 3, 1, 2), (2, 3, 4)) == (3, 2, 1)


def test_project_rejects_bad_labels():
    # repeated labels, labels past the arity or below 1, and a word that is no permutation
    for p, labels in (((3, 1, 2), (1, 1)), ((3, 1, 2), (1, 4)), ((3, 1, 2), (0, 1)),
                      ((4, 3, 1, 2), (1, 2, 2)), ((4, 3, 1, 2), (1, 2, 5))):
        with pytest.raises(ValueError, match="distinct and in 1.."):
            project(p, labels)
    with pytest.raises(ValueError, match="not a permutation word"):
        project((3, 3, 2), (1, 2))


def test_project_triple_surjective_on_fibers():
    # every three-letter word lifts to exactly four four-letter words
    from collections import Counter

    counts = Counter(project(p, (1, 2, 3)) for p in all_perms(4))
    assert set(counts) == set(all_perms(3))
    assert all(v == 4 for v in counts.values())


def test_project_equivariance():
    # projecting after relabelling within the kept letters matches acting on the image
    for p in all_perms(4):
        assert project(act((2, 1, 3, 4), p), (1, 2, 3)) == act(
            (2, 1, 3), project(p, (1, 2, 3))
        )


def test_block_substitute_expands_one_letter():
    # splitting letter 2 of (1,2) into a two-letter block
    assert block_substitute((1, 2), 2, (1, 2)) == (1, 2, 3)
    assert block_substitute((1, 2), 2, (2, 1)) == (1, 3, 2)
    assert block_substitute((2, 1), 1, (2, 1)) == (3, 2, 1)
    # inner letters stay adjacent in value, outer letters shift
    assert block_substitute((3, 1, 2), 1, (1, 2)) == (4, 1, 2, 3)


def test_block_substitute_degenerate_inputs():
    with pytest.raises(ValueError):
        block_substitute((1, 2), 3, (1, 2))


def test_pair_flags_counts_inversions():
    pairs = ordered_pairs(3)
    assert pairs == ((1, 2), (1, 3), (2, 3))
    flags = pair_flags((3, 1, 2), pairs)
    # letters 1,2 in order; 1,3 and 2,3 inverted
    assert [(flags >> m) & 1 for m in range(3)] == [0, 1, 1]


def test_perm_text_roundtrip():
    for p in all_perms(4):
        assert perm_from_text(perm_text(p)) == p
    assert perm_text((3, 1, 2)) == "312"
    assert perm_from_text("4321") == (4, 3, 2, 1)
