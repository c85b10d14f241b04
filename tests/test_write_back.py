"""Tests for the shared greedy write-back planner."""

import numpy as np
import pytest

from repro.memory.block import Block
from repro.oram.stash import Stash
from repro.oram.tree import ArrayTreeStorage, TreeStorage
from repro.utils.bits import common_level
from repro.oram.write_back import greedy_write_back, plan_greedy_write_back


def make_tree(depth=3, bucket=2):
    return TreeStorage(depth, [bucket] * (depth + 1), block_size_bytes=64)


class TestGreedyWriteBack:
    def test_block_on_accessed_path_goes_to_leaf(self):
        tree = make_tree()
        stash = Stash()
        stash.add(Block(1, leaf=5))
        placement = plan_greedy_write_back(tree, stash, leaf=5)
        assert placement[3][0].block_id == 1
        assert len(stash) == 0

    def test_unrelated_block_can_only_reach_root(self):
        tree = make_tree()
        stash = Stash()
        # Leaf 0 and leaf 7 diverge immediately below the root.
        stash.add(Block(1, leaf=0))
        placement = plan_greedy_write_back(tree, stash, leaf=7)
        assert list(placement.keys()) == [0]

    def test_respects_bucket_capacity(self):
        tree = make_tree(bucket=1)
        stash = Stash()
        for block_id in range(5):
            stash.add(Block(block_id, leaf=6))
        placement = plan_greedy_write_back(tree, stash, leaf=6)
        placed = sum(len(blocks) for blocks in placement.values())
        assert placed == 4  # one per level (depth 3 + root)
        assert len(stash) == 1

    def test_respects_existing_occupancy(self):
        tree = make_tree(bucket=1)
        tree.bucket(0, 0).add(Block(99, leaf=0))
        stash = Stash()
        stash.add(Block(1, leaf=0))  # accessed path is leaf 7: only root is shared
        placement = plan_greedy_write_back(tree, stash, leaf=7)
        assert placement == {}
        assert len(stash) == 1

    def test_placement_respects_path_prefix_invariant(self):
        rng = np.random.default_rng(0)
        tree = make_tree(depth=4, bucket=2)
        stash = Stash()
        for block_id in range(30):
            stash.add(Block(block_id, leaf=int(rng.integers(0, 16))))
        accessed_leaf = 9
        placement = plan_greedy_write_back(tree, stash, accessed_leaf)
        for level, blocks in placement.items():
            for block in blocks:
                assert common_level(block.leaf, accessed_leaf, 4) >= level

    def test_empty_stash_produces_empty_placement(self):
        tree = make_tree()
        assert plan_greedy_write_back(tree, Stash(), leaf=0) == {}


class TestGreedyCoreMatchesReference:
    """``greedy_write_back`` against ``plan_greedy_write_back`` directly.

    Random uniform and fat geometries, random pre-occupied buckets on the
    target path and a random stash: the array core must pick the same
    blocks, for the same levels, in the same slot order, and leave the same
    stash behind.
    """

    @staticmethod
    def _geometry(rng, fat):
        depth = int(rng.integers(2, 7))
        base = int(rng.integers(1, 4))
        if fat:
            return depth, [base + depth - level for level in range(depth + 1)]
        return depth, [base] * (depth + 1)

    @pytest.mark.parametrize("fat", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_same_blocks_levels_and_slot_order(self, seed, fat):
        rng = np.random.default_rng(seed)
        depth, caps = self._geometry(rng, fat)
        num_leaves = 1 << depth
        leaf = int(rng.integers(0, num_leaves))
        ref_tree = TreeStorage(depth, caps, block_size_bytes=64)
        arr_tree = ArrayTreeStorage(depth, caps, block_size_bytes=64)
        slots = arr_tree.slot_array
        occ = arr_tree.bucket_occupancies
        node_base = [(1 << level) - 1 for level in range(depth + 1)]
        next_id = 0
        # Pre-occupy every bucket on the target path with blocks whose own
        # paths pass through it (full, partly full or empty).
        for level in range(depth + 1):
            node = leaf >> (depth - level)
            used = int(rng.integers(0, caps[level] + 1))
            for i in range(used):
                low = node << (depth - level)
                block_leaf = int(rng.integers(low, low + (1 << (depth - level))))
                ref_tree.bucket(level, leaf).add(Block(next_id, leaf=block_leaf))
                slots[arr_tree.level_base[level] + node * caps[level] + i] = next_id
                next_id += 1
            occ[node_base[level] + node] = used
        ref_stash = Stash()
        stash_map: dict[int, int] = {}
        for _ in range(int(rng.integers(0, 4 * (depth + 1)))):
            block_leaf = int(rng.integers(0, num_leaves))
            ref_stash.add(Block(next_id, leaf=block_leaf))
            stash_map[next_id] = block_leaf
            next_id += 1

        placement = plan_greedy_write_back(ref_tree, ref_stash, leaf)
        ref_tree.write_path(leaf, placement)
        groups: list[list[int]] = [[] for _ in range(depth + 1)]
        greedy_write_back(
            stash_map,
            groups,
            arr_tree.bucket_capacities,
            arr_tree.level_base,
            node_base,
            slots,
            occ,
            depth,
            leaf,
        )

        for level in range(depth + 1):
            node = leaf >> (depth - level)
            start = arr_tree.level_base[level] + node * caps[level]
            used = int(occ[node_base[level] + node])
            expected = [block.block_id for block in ref_tree.bucket(level, leaf)]
            assert slots[start : start + used].tolist() == expected
            assert (slots[start + used : start + caps[level]] == -1).all()
        assert list(stash_map) == ref_stash.block_ids
        assert all(not group for group in groups)
