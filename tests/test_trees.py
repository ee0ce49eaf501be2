import numpy as np
import pytest

from totpcount import (
    ExplicitTree,
    NotInTreeError,
    ParseError,
    exact_size,
    full_binary_tree,
    load_tree,
    materialize,
    random_tree,
    save_tree,
    truncate,
)


def test_children_full_binary_root():
    tree = full_binary_tree(2)
    assert tree.children(()) == ((0,), (1,))


def test_children_chain_tree():
    tree = ExplicitTree([(), (1,), (1, 1)])
    assert tree.children((1,)) == ((1, 1),)


def test_children_single_root():
    tree = ExplicitTree([()])
    assert tree.children(()) == ()


def test_children_outside_tree_is_an_error():
    tree = ExplicitTree([(), (1,)])
    with pytest.raises(NotInTreeError):
        tree.children((0,))


def test_prefix_closure_enforced():
    with pytest.raises(ValueError):
        ExplicitTree([(), (1, 1)])
    with pytest.raises(ValueError):
        ExplicitTree([(1,)])  # nonempty without root


def test_declared_height_must_cover_nodes():
    with pytest.raises(ValueError):
        ExplicitTree([(), (1,)], height=0)


def test_truncate_examples():
    fb = full_binary_tree(2)
    assert truncate(fb, 0) == ExplicitTree([()], height=0)
    assert truncate(fb, 1) == ExplicitTree([(), (0,), (1,)], height=1)
    chain_tree = ExplicitTree([(), (1,), (1, 1)])
    assert truncate(chain_tree, 1) == ExplicitTree([(), (1,)], height=1)


def test_truncate_out_of_range():
    fb = full_binary_tree(2)
    with pytest.raises(ValueError):
        truncate(fb, 3)
    with pytest.raises(ValueError):
        truncate(fb, -1)


def test_truncate_composition(rng):
    for _ in range(20):
        h = int(rng.integers(1, 7))
        tree = random_tree(rng, h, child_prob=0.6)
        i = int(rng.integers(0, h + 1))
        j = int(rng.integers(0, i + 1))
        twice = truncate(truncate(tree, i), j)
        once = truncate(tree, min(i, j))
        assert twice == once


def test_truncate_at_height_is_identity_on_size():
    fb = full_binary_tree(3)
    assert exact_size(truncate(fb, 3)) == exact_size(fb)


def test_exact_size_examples():
    assert exact_size(full_binary_tree(2)) == 7
    assert exact_size(ExplicitTree([(), (1,), (1, 1)])) == 3
    assert exact_size(ExplicitTree([])) == 0


def test_empty_tree_is_first_class():
    tree = ExplicitTree([], height=4)
    assert tree.is_empty
    assert () not in tree


def test_materialize_preserves_declared_height():
    tree = ExplicitTree([(), (0,)], height=5)
    assert materialize(tree) is tree
    assert materialize(truncate(tree, 1)).height == 1


def test_iter_nodes_covers_everything(rng):
    tree = random_tree(rng, 5, child_prob=0.6)
    assert set(tree.iter_nodes()) == tree.nodes


def test_random_tree_is_prefix_closed_and_tall(rng):
    for _ in range(10):
        h = int(rng.integers(1, 9))
        tree = random_tree(rng, h, child_prob=0.5)
        assert tree.height == h
        assert max(len(p) for p in tree.nodes) == h  # spine forces full depth
        ExplicitTree(tree.nodes)  # re-validates prefix closure


def test_random_tree_max_nodes_caps_the_size():
    # The forced path of a height-5 tree has 6 nodes, so a cap of 3 cannot hold.
    with pytest.raises(ValueError):
        random_tree(np.random.default_rng(0), 5, max_nodes=3)
    with pytest.raises(ValueError):
        random_tree(np.random.default_rng(0), 0, max_nodes=0, ensure_height=False)
    for h in range(1, 7):
        for cap in (h + 1, h + 2, 2 * h + 3):
            tree = random_tree(np.random.default_rng(cap), h, child_prob=0.9, max_nodes=cap)
            assert len(tree.nodes) <= cap
            assert max(len(p) for p in tree.nodes) == h


def test_tree_file_roundtrip(tmp_path, rng):
    tree = random_tree(rng, 4, child_prob=0.6)
    path = tmp_path / "t.tree"
    save_tree(tree, path)
    loaded = load_tree(path)
    assert loaded.nodes == tree.nodes


def test_tree_file_root_token(tmp_path):
    path = tmp_path / "root.tree"
    path.write_text("-\n01\n0\n1\n", encoding="utf-8")
    tree = load_tree(path)
    assert tree.nodes == {(), (0,), (1,), (0, 1)}


def test_tree_file_rejects_bad_characters(tmp_path):
    path = tmp_path / "bad.tree"
    path.write_text("-\n0x\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_tree(path)


def test_tree_file_rejects_prefix_violation(tmp_path):
    path = tmp_path / "gap.tree"
    path.write_text("-\n11\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_tree(path)
