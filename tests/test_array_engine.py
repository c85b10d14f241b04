"""Tests for the array-backed engines: invariants, equivalence, regressions.

Covers the vectorized ``ArrayPathORAM`` / ``FastLAORAMClient`` stack (dict
stash, slot-array tree, plan-array execution), its decision-for-decision
equivalence with the per-object engines, and regression tests for the
plan-consumption and stash-iteration bugs fixed alongside it.
"""

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.core.fast_laoram import FastLAORAMClient
from repro.core.laoram import LAORAMClient
from repro.core.superblock import LookaheadPlan
from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError, StashOverflowError
from repro.oram.array_path_oram import ArrayPathORAM
from repro.oram.config import ORAMConfig
from repro.oram.path_oram import PathORAM
from repro.oram.tree import ArrayTreeStorage


def make_laoram_config(num_blocks=256, superblock_size=4, seed=13, **oram_kwargs):
    return LAORAMConfig(
        oram=ORAMConfig(
            num_blocks=num_blocks, block_size_bytes=64, seed=seed, **oram_kwargs
        ),
        superblock_size=superblock_size,
    )


def assert_engine_consistent(engine):
    """Block conservation plus position-map / tree-leaf / stash coherence."""
    num_blocks = engine.config.num_blocks
    depth = engine.config.depth
    pm = engine.position_map
    assert engine.total_real_blocks() == num_blocks
    seen: list[int] = []
    if isinstance(engine.tree, ArrayTreeStorage):
        for level, node, ids in engine.tree.iter_node_ids():
            for block_id in ids.tolist():
                seen.append(block_id)
                # Path-prefix invariant: a stored block's assigned path must
                # pass through the bucket holding it.
                assert pm.get(block_id) >> (depth - level) == node
        for block_id, leaf in engine.stash.items():
            seen.append(block_id)
            # The stash's leaf entry must agree with the position map.
            assert leaf == pm.get(block_id)
    else:
        for block in engine.tree.iter_blocks():
            seen.append(block.block_id)
            assert block.leaf == pm.get(block.block_id)
        for block in engine.stash:
            seen.append(block.block_id)
            assert block.leaf == pm.get(block.block_id)
    assert sorted(seen) == list(range(num_blocks))


class TestDictStash:
    """The array backend's stash is a plain ``{id: leaf}`` dict."""

    def test_order_follows_the_reference_stash(self):
        config = ORAMConfig(
            num_blocks=256, block_size_bytes=64, seed=4, bucket_size=1,
            background_eviction=False,
        )
        fast = ArrayPathORAM(config)
        reference = PathORAM(config)
        trace = ZipfTraceGenerator(256, exponent=1.1, seed=6).generate(600)
        fast.run_trace(trace.addresses)
        reference.run_trace(trace.addresses)
        assert type(fast.stash) is dict and len(fast.stash) > 1
        assert list(fast.stash) == reference.stash.block_ids
        assert all(type(leaf) is int for leaf in fast.stash.values())
        assert fast.stash == {b.block_id: b.leaf for b in reference.stash}
        # Detach + insert moves an id to the end, as on the reference.
        first = next(iter(fast.stash))
        assert fast._stash_detach(first) == first
        assert fast._stash_detach(first) is None
        fast._stash_insert(first, 3)
        assert list(fast.stash)[-1] == first and fast.stash[first] == 3

    def test_capacity_is_checked_after_the_merge(self):
        config = ORAMConfig(num_blocks=64, block_size_bytes=64, seed=1, stash_capacity=2)
        engine = ArrayPathORAM(config)
        engine.stash.clear()
        engine._stash_insert(1, 0)
        engine._stash_insert(2, 1)
        with pytest.raises(StashOverflowError):
            engine._stash_insert(3, 2)
        # The overflowing entry is kept: the engine never drops a block.
        assert list(engine.stash) == [1, 2, 3]


class TestEngineEquivalence:
    """LAORAM-specific equivalence sweeps (fat tree x superblock size).

    The family-by-family equivalence guarantee lives in
    ``tests/test_engine_equivalence.py``; this class keeps the LAORAM
    configuration sweep that exercises geometries the cross-family harness
    does not.
    """

    @pytest.mark.parametrize("fat_tree", [False, True])
    @pytest.mark.parametrize("superblock_size", [2, 4, 8])
    def test_run_trace_counters_match(self, fat_tree, superblock_size):
        trace = ZipfTraceGenerator(512, exponent=1.2, seed=5).generate(6_000)
        config = make_laoram_config(
            num_blocks=512, superblock_size=superblock_size, fat_tree=fat_tree
        )
        reference = LAORAMClient(config)
        reference.run_trace(trace.addresses)
        fast = FastLAORAMClient(config)
        fast.run_trace(trace.addresses)
        assert fast.statistics == reference.statistics
        assert np.array_equal(
            fast.position_map.as_array(), reference.position_map.as_array()
        )
        assert list(fast.stash) == reference.stash.block_ids

    def test_payloads_round_trip_identically(self):
        config = make_laoram_config(num_blocks=128, superblock_size=4)
        rng = np.random.default_rng(3)
        reads = rng.integers(0, 128, size=200).tolist()
        writes = rng.integers(0, 128, size=64).tolist()
        values = [f"payload-{i}" for i in range(len(writes))]
        outputs = []
        for cls in (LAORAMClient, FastLAORAMClient):
            engine = cls(config)
            engine.write_many(writes, values)
            outputs.append(engine.access_many(reads))
        assert outputs[0] == outputs[1]


class TestRandomizedInvariants:
    """Mixed workloads keep both engines conserving every block."""

    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    def test_mixed_workload_invariants(self, engine_cls):
        num_blocks = 256
        config = make_laoram_config(num_blocks=num_blocks, superblock_size=4)
        engine = engine_cls(config)
        rng = np.random.default_rng(17)
        trace = rng.integers(0, num_blocks, size=2_048)
        engine.run_trace(trace)
        assert_engine_consistent(engine)
        for _ in range(10):
            op = rng.integers(0, 3)
            if op == 0:
                ids = rng.integers(0, num_blocks, size=int(rng.integers(1, 40)))
                engine.access_many(ids.tolist())
            elif op == 1:
                ids = rng.integers(0, num_blocks, size=int(rng.integers(1, 20)))
                engine.write_many(
                    ids.tolist(), [f"v{int(b)}" for b in ids]
                )
            else:
                engine.access(int(rng.integers(0, num_blocks)))
            assert_engine_consistent(engine)
        assert engine.statistics.logical_accesses > 2_048

    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    def test_windowed_trace_invariants(self, engine_cls):
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=128, block_size_bytes=32, seed=29),
            superblock_size=4,
            lookahead_accesses=256,
        )
        trace = ZipfTraceGenerator(128, seed=8).generate(1_500)
        engine = engine_cls(config)
        engine.run_trace(trace.addresses)
        assert_engine_consistent(engine)


class TestPlacementRegressions:
    """Regression coverage for the two initial-placement bugfixes."""

    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    def test_placement_with_populated_stash_conserves_blocks(self, engine_cls):
        # Placement must cope with a populated stash (the state bulk-load
        # overflow leaves behind): move a few whole paths into the stash,
        # then re-lay the table out.  Popping stash entries mid-iteration
        # would skip or corrupt blocks here.
        config = make_laoram_config(num_blocks=256, superblock_size=2, seed=3)
        engine = engine_cls(config)
        leaves = {engine.position_map.get(b) for b in range(16)}
        if isinstance(engine, FastLAORAMClient):
            for leaf in leaves:
                ids = engine.tree.read_path_ids(leaf)
                engine.stash.update(
                    zip(ids.tolist(), engine.position_map.leaves[ids].tolist())
                )
        else:
            for leaf in leaves:
                for block in engine.tree.read_path(leaf):
                    engine.stash.add(block)
        assert len(engine.stash) > 0
        trace = np.arange(256, dtype=np.int64)
        plan = engine.preprocess(trace)
        engine.apply_initial_placement(plan)
        assert_engine_consistent(engine)

    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    def test_placement_consumes_first_occurrence(self, engine_cls):
        # Block 9 is planned in bins 1 (leaf 6) and 2 (leaf 1).  Placement
        # uses occurrence 0's leaf (6); the first subsequent reassignment
        # must move on to occurrence 1's leaf (1).  Before the fix the same
        # leaf 6 was handed out twice, a linkable repeated-leaf observation.
        config = make_laoram_config(num_blocks=64, superblock_size=2, seed=5)
        engine = engine_cls(config)
        plan = LookaheadPlan(
            np.asarray([1, 2, 9, 3, 9, 4]),
            np.asarray([3, 6, 1]),
            superblock_size=2,
            num_leaves=engine.config.num_leaves,
        )
        engine.set_plan(plan)
        engine.apply_initial_placement(plan)
        assert engine.position_map.get(9) == 6
        engine.access(9)  # trace cursor 0 < occurrence index 2
        assert engine.position_map.get(9) == 1
        assert_engine_consistent(engine)

    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    def test_placement_only_applies_to_first_window(self, engine_cls):
        # Windowed traces plan window by window; placement may only run on
        # the first window (it requires a counter at zero), and disabling
        # reinitialisation must hold for every window.  The seed code left
        # ``first_window`` latched True when reinitialisation was off.
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=64, block_size_bytes=32, seed=31),
            superblock_size=2,
            lookahead_accesses=64,
        )
        trace = ZipfTraceGenerator(64, seed=4).generate(300)
        engine = engine_cls(config)
        engine.run_trace(trace.addresses)  # placement on window 1 only
        assert_engine_consistent(engine)
        engine_no_init = engine_cls(config)
        engine_no_init.run_trace(trace.addresses, reinitialize_placement=False)
        assert_engine_consistent(engine_no_init)

    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    def test_placement_rejected_after_accesses(self, engine_cls):
        config = make_laoram_config(num_blocks=64, superblock_size=2)
        engine = engine_cls(config)
        plan = engine.preprocess(np.arange(64, dtype=np.int64))
        engine.access(0)
        with pytest.raises(ConfigurationError):
            engine.apply_initial_placement(plan)


class TestPlanLeafValidation:
    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    def test_out_of_range_plan_leaf_rejected(self, engine_cls):
        # A plan built for a wider tree must fail at the first remap on both
        # engines; the fast engine's direct position-map writes used to slip
        # past PositionMap.set validation.
        config = make_laoram_config(num_blocks=64, superblock_size=2)
        engine = engine_cls(config)
        bad_leaf = engine.config.num_leaves + 5
        plan = LookaheadPlan(
            np.asarray([1, 2, 1, 4]),
            np.asarray([3, bad_leaf]),
            superblock_size=2,
            num_leaves=2 * engine.config.num_leaves,
        )
        engine.set_plan(plan)
        with pytest.raises(ConfigurationError):
            engine.access_many([1, 2])


class TestHarnessIntegration:
    def test_build_engine_fast_selects_vectorized_twins(self):
        from repro.experiments.configs import build_engine

        oram = ORAMConfig(num_blocks=128, block_size_bytes=32, seed=1)
        assert isinstance(build_engine("PathORAM", oram, fast=True), ArrayPathORAM)
        assert isinstance(
            build_engine("Normal/S4", oram, fast=True), FastLAORAMClient
        )
        assert isinstance(build_engine("Normal/S4", oram), LAORAMClient)
        # Families without a twin raise the typed exception (still a
        # ConfigurationError subclass for older callers).
        with pytest.raises(ConfigurationError):
            build_engine("Insecure", oram, fast=True)

    def test_run_configuration_fast_matches_reference(self):
        from repro.datasets.base import AccessTrace
        from repro.experiments.runner import run_configuration

        oram = ORAMConfig(num_blocks=128, block_size_bytes=32, seed=1)
        rng = np.random.default_rng(12)
        addresses = rng.integers(0, 128, size=1_000).astype(np.int64)
        trace = AccessTrace("unit", 128, addresses)
        reference = run_configuration("Fat/S4", trace, oram, seed=5)
        fast = run_configuration("Fat/S4", trace, oram, seed=5, fast=True)
        assert fast.snapshot == reference.snapshot
