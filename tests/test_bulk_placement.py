"""Trusted-setup bulk placement on the array tree.

``ArrayTreeStorage.bulk_place_ordered`` places ``PLACE_CHUNK`` blocks per
vectorized pass; the result must equal the per-object
``TreeStorage.try_place_on_path`` loop exactly (slots, occupancies,
overflow ids and their order).  The LAORAM initial placement built on it
must run in place, with chunk-sized temporaries only.
"""

import tracemalloc

import numpy as np
import pytest

import repro.oram.engine as engine_module
import repro.oram.tree as tree_module
from repro.core.config import LAORAMConfig
from repro.core.fast_laoram import FastLAORAMClient
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan
from repro.exceptions import StashOverflowError
from repro.memory.block import Block
from repro.oram.config import ORAMConfig
from repro.oram.tree import ArrayTreeStorage, TreeStorage


def reference_place(depth, caps, batches):
    """The scalar loop, batch after batch; returns (slots, occ, overflows)."""
    tree = TreeStorage(depth, caps, block_size_bytes=8)
    overflows = []
    for block_ids, leaves in batches:
        overflow = []
        for block_id, leaf in zip(block_ids.tolist(), leaves.tolist()):
            if not tree.try_place_on_path(Block(block_id, leaf=leaf)):
                overflow.append(block_id)
        overflows.append(overflow)
    # The array tree's flat layout: level by level, node by node, each
    # bucket's occupied slots first in insertion order.
    slots, occ = [], []
    for index in range(tree.num_buckets):
        bucket = tree.bucket_by_index(index)
        ids = [block.block_id for block in bucket]
        slots.extend(ids + [-1] * (bucket.capacity - len(ids)))
        occ.append(len(ids))
    return np.asarray(slots), np.asarray(occ), overflows


def array_place(depth, caps, batches):
    tree = ArrayTreeStorage(depth, caps, block_size_bytes=8)
    overflows = [
        tree.bulk_place_ordered(block_ids, leaves).tolist()
        for block_ids, leaves in batches
    ]
    return tree.slot_array.copy(), tree.bucket_occupancies.copy(), overflows


def assert_same_placement(depth, caps, batches):
    ref_slots, ref_occ, ref_overflow = reference_place(depth, caps, batches)
    slots, occ, overflow = array_place(depth, caps, batches)
    assert np.array_equal(slots, ref_slots)
    assert np.array_equal(occ, ref_occ)
    assert overflow == ref_overflow


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 37 blocks, so small trees span many chunks."""
    monkeypatch.setattr(tree_module, "PLACE_CHUNK", 37)


class TestBulkPlaceOrderedMatchesScalarLoop:
    @pytest.mark.parametrize("num_blocks", [1, 36, 37, 38, 200, 1000])
    def test_sizes_spanning_several_chunks(self, small_chunks, num_blocks):
        rng = np.random.default_rng(num_blocks)
        depth, caps = 7, (6, 5, 5, 4, 4, 4, 4, 4)
        leaves = rng.integers(0, 1 << depth, size=num_blocks)
        assert_same_placement(depth, caps, [(np.arange(num_blocks), leaves)])

    def test_heavy_overflow_reaches_root_and_stash(self, small_chunks):
        # 500 blocks on 4 of 64 leaves: the deep buckets fill at once and
        # leftovers climb through the shared top levels into the stash.
        rng = np.random.default_rng(7)
        depth, caps = 6, (3, 2, 2, 2, 2, 2, 2)
        leaves = rng.choice(np.asarray([0, 1, 33, 63]), size=500)
        ref_slots, ref_occ, ref_overflow = reference_place(
            depth, caps, [(np.arange(500), leaves)]
        )
        assert ref_occ[0] == caps[0]  # the root is full
        assert len(ref_overflow[0]) > 400
        assert_same_placement(depth, caps, [(np.arange(500), leaves)])

    def test_permuted_priority_order(self, small_chunks):
        rng = np.random.default_rng(11)
        depth, caps = 5, (4, 3, 3, 2, 2, 2)
        block_ids = rng.permutation(300)
        leaves = rng.integers(0, 1 << depth, size=300)
        assert_same_placement(depth, caps, [(block_ids, leaves)])

    def test_starts_from_a_partly_filled_tree(self, small_chunks):
        rng = np.random.default_rng(13)
        depth, caps = 5, (4, 3, 3, 2, 2, 2)
        ids = rng.permutation(240)
        leaves = rng.integers(0, 1 << depth, size=240)
        batches = [(ids[:90], leaves[:90]), (ids[90:], leaves[90:])]
        assert_same_placement(depth, caps, batches)

    def test_default_chunk_size_across_chunk_boundaries(self):
        num_blocks = 2 * tree_module.PLACE_CHUNK + 321
        rng = np.random.default_rng(3)
        depth = 13
        caps = (5,) * 4 + (4,) * (depth - 3)
        leaves = rng.integers(0, 1 << depth, size=num_blocks)
        assert_same_placement(depth, caps, [(np.arange(num_blocks), leaves)])

    def test_empty_input(self):
        tree = ArrayTreeStorage(3, (2, 2, 2, 2), block_size_bytes=8)
        overflow = tree.bulk_place_ordered(
            np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert overflow.size == 0
        assert tree.real_block_count() == 0


class TestInitialPlacementMemory:
    def test_placement_reuses_the_tree_and_bounds_temporaries(self):
        num_blocks = 1 << 17
        engine = FastLAORAMClient(
            LAORAMConfig(
                oram=ORAMConfig(num_blocks=num_blocks, block_size_bytes=64, seed=5),
                superblock_size=4,
            )
        )
        trace = np.random.default_rng(9).integers(0, num_blocks, size=1 << 15)
        plan = Preprocessor(4, engine.config.num_leaves, rng=engine.rng).build_plan(
            trace
        )
        slots = engine.tree.slot_array
        tracemalloc.start()
        try:
            engine.apply_initial_placement(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Relaid in place: the same arrays, every block present.
        assert engine.tree.slot_array is slots
        assert engine.total_real_blocks() == num_blocks
        # A rebuilt tree alone would allocate slots.nbytes; the chunked
        # placement stays far below it.
        assert peak < slots.nbytes // 3, (peak, slots.nbytes)

    def test_bulk_load_chunks_match_one_pass(self, monkeypatch):
        config = ORAMConfig(num_blocks=3000, block_size_bytes=64, seed=21)
        whole = FastLAORAMClient(LAORAMConfig(oram=config, superblock_size=4))
        monkeypatch.setattr(engine_module, "PLACE_CHUNK", 97)
        monkeypatch.setattr(tree_module, "PLACE_CHUNK", 41)
        chunked = FastLAORAMClient(LAORAMConfig(oram=config, superblock_size=4))
        assert np.array_equal(whole.tree.slot_array, chunked.tree.slot_array)
        assert np.array_equal(
            whole.tree.bucket_occupancies, chunked.tree.bucket_occupancies
        )
        assert list(whole.stash.items()) == list(chunked.stash.items())

    def test_overflow_raises_after_every_block_is_placed(self, monkeypatch):
        monkeypatch.setattr(engine_module, "PLACE_CHUNK", 16)
        config = ORAMConfig(
            num_blocks=256, block_size_bytes=64, seed=3, stash_capacity=8
        )
        engine = FastLAORAMClient(LAORAMConfig(oram=config, superblock_size=4))
        # Every block planned onto leaf 0: far more than one path holds.
        plan = LookaheadPlan(
            np.arange(256),
            np.zeros(64, dtype=np.int64),
            superblock_size=4,
            num_leaves=engine.config.num_leaves,
        )
        with pytest.raises(StashOverflowError):
            engine.apply_initial_placement(plan)
        assert engine.total_real_blocks() == 256
