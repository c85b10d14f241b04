"""Behavioural tests for the LAORAM client."""

import numpy as np
import pytest

from repro.core.config import LAORAMConfig
from repro.core.fast_laoram import FastLAORAMClient
from repro.core.laoram import LAORAMClient
from repro.core.superblock import SuperblockBin
from repro.datasets.permutation import PermutationTraceGenerator
from repro.datasets.zipf import ZipfTraceGenerator
from repro.exceptions import ConfigurationError
from repro.oram.base import AccessOp
from repro.oram.config import ORAMConfig
from repro.oram.path_oram import PathORAM


@pytest.fixture
def config():
    return LAORAMConfig(
        oram=ORAMConfig(num_blocks=256, block_size_bytes=64, seed=13),
        superblock_size=4,
    )


class TestConstruction:
    def test_requires_laoram_config(self):
        with pytest.raises(ConfigurationError):
            LAORAMClient(ORAMConfig(num_blocks=64))

    def test_describe_matches_paper_notation(self, config):
        assert LAORAMClient(config).describe() == "Normal/S4"
        fat = LAORAMConfig(oram=config.oram.with_overrides(fat_tree=True), superblock_size=8)
        assert LAORAMClient(fat).describe() == "Fat/S8"

    def test_superblock_size_property(self, config):
        assert LAORAMClient(config).superblock_size == 4


class TestRunTrace:
    def test_all_accesses_are_served(self, config, permutation_trace):
        client = LAORAMClient(config)
        client.run_trace(permutation_trace.addresses)
        assert client.statistics.logical_accesses == len(permutation_trace)

    def test_block_conservation(self, config, permutation_trace):
        client = LAORAMClient(config)
        client.run_trace(permutation_trace.addresses)
        assert client.total_real_blocks() == 256

    def test_fewer_path_reads_than_pathoram(self, config, permutation_trace):
        """The headline effect: superblocks cut path reads by roughly S."""
        client = LAORAMClient(config)
        client.run_trace(permutation_trace.addresses)
        baseline = PathORAM(config.oram.with_overrides(seed=99))
        baseline.access_many(permutation_trace.addresses)
        assert (
            client.statistics.total_paths_touched
            < baseline.statistics.total_paths_touched
        )

    def test_windowed_lookahead(self, permutation_trace):
        config = LAORAMConfig(
            oram=ORAMConfig(num_blocks=256, block_size_bytes=64, seed=13),
            superblock_size=4,
            lookahead_accesses=64,
        )
        client = LAORAMClient(config)
        client.run_trace(permutation_trace.addresses)
        assert client.statistics.logical_accesses == len(permutation_trace)

    def test_payloads_survive_run_trace(self, config, permutation_trace):
        client = LAORAMClient(config)
        client.load_payloads({i: f"row{i}".encode() for i in range(256)})
        client.run_trace(permutation_trace.addresses)
        assert client.read(17) == b"row17"


class TestSuperblockAccess:
    def test_access_superblock_returns_payloads_in_order(self, config):
        client = LAORAMClient(config)
        client.load_payloads({i: bytes([i]) for i in range(256)})
        superblock = SuperblockBin(0, 0, block_ids=(3, 10, 3, 200), leaf=0)
        payloads = client.access_superblock(superblock)
        assert payloads == [bytes([3]), bytes([10]), bytes([3]), bytes([200])]

    def test_duplicate_blocks_in_bin_cost_one_fetch(self, config):
        client = LAORAMClient(config)
        superblock = SuperblockBin(0, 0, block_ids=(7, 7, 7, 7), leaf=0)
        client.access_superblock(superblock)
        assert client.statistics.path_reads <= 1

    def test_access_many_groups_into_bins(self, config):
        client = LAORAMClient(config)
        client.access_many(list(range(16)))
        stats = client.statistics
        assert stats.logical_accesses == 16
        # At most one path read per bin of four plus any eviction dummies.
        assert stats.path_reads <= 16

    def test_write_many_round_trip(self, config):
        client = LAORAMClient(config)
        ids = [3, 9, 30, 77, 100]
        client.write_many(ids, [f"payload-{i}".encode() for i in ids])
        for block_id in ids:
            assert client.read(block_id) == f"payload-{block_id}".encode()

    def test_write_many_counts_accesses_and_batches(self, config):
        client = LAORAMClient(config)
        client.write_many(list(range(16)), [b"x"] * 16)
        stats = client.statistics
        assert stats.logical_accesses == 16
        assert stats.path_reads <= 16

    def test_write_many_length_mismatch_rejected(self, config):
        client = LAORAMClient(config)
        with pytest.raises(ConfigurationError):
            client.write_many([1, 2], [b"only-one"])


class TestInitialPlacement:
    def test_placement_uses_first_occurrence_path(self, config):
        client = LAORAMClient(config)
        plan = client.preprocess([4, 9, 4, 30])
        client.apply_initial_placement(plan)
        assert client.position_map.get(4) == plan.bins[0].leaf
        assert client.position_map.get(30) == plan.bins[0].leaf

    def test_placement_preserves_block_count_and_payloads(self, config):
        client = LAORAMClient(config)
        client.load_payloads({5: b"five"})
        plan = client.preprocess(np.arange(256))
        client.apply_initial_placement(plan)
        assert client.total_real_blocks() == 256
        assert client.read(5) == b"five"

    def test_placement_after_accesses_is_rejected(self, config):
        client = LAORAMClient(config)
        client.read(0)
        plan = client.preprocess([1, 2, 3, 4])
        with pytest.raises(ConfigurationError):
            client.apply_initial_placement(plan)

    def test_first_epoch_is_coalesced_after_placement(self, config):
        """With plan-driven initial placement a bin costs ~1 read from access one."""
        client = LAORAMClient(config)
        trace = PermutationTraceGenerator(256, seed=1).generate(256)
        client.run_trace(trace.addresses)
        stats = client.statistics
        assert stats.path_reads <= len(trace) // config.superblock_size + 8


class TestPlanFallback:
    def test_single_access_without_plan_behaves_like_pathoram(self, config):
        client = LAORAMClient(config)
        client.read(3)
        assert client.statistics.logical_accesses == 1
        assert client.statistics.path_reads <= 1

    def test_blocks_outside_plan_get_random_paths(self, config):
        client = LAORAMClient(config)
        client.preprocess([1, 2, 3, 4])
        client.read(200)  # not in the plan
        assert 0 <= client.position_map.get(200) < config.oram.num_leaves

    def test_trace_cursor_advances(self, config):
        client = LAORAMClient(config)
        before = client.trace_cursor
        client.read(1)
        assert client.trace_cursor == before + 1


def _oracle_config(recursive: bool) -> LAORAMConfig:
    # chi=4 over 256 blocks with a 256-byte cutoff builds two recursion
    # levels, so remaps go through charged recursive position-map walks.
    return LAORAMConfig(
        oram=ORAMConfig(
            num_blocks=256,
            block_size_bytes=32,
            seed=17,
            recursive_posmap=recursive,
            posmap_positions_per_block=4,
            posmap_cutoff_bytes=256,
        ),
        superblock_size=4,
    )


def _stash_ids(engine):
    """Stashed block ids in insertion order, on either backend."""
    stash = engine.stash
    return list(stash) if isinstance(stash, dict) else stash.block_ids


class TestPrecomputedRemapOracle:
    """``run_trace`` (precomputed remaps) == the plan executed bin by bin.

    ``run_trace`` hands each bin the leaves of ``plan_bin_remaps()``;
    ``access_superblock`` asks the plan with ``consume_next_leaf`` per
    remap.  Both must make the same decisions on either backend and with
    either position map.
    """

    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    @pytest.mark.parametrize("recursive", [False, True])
    def test_run_trace_matches_bin_by_bin_execution(self, engine_cls, recursive):
        trace = ZipfTraceGenerator(256, exponent=1.2, seed=9).generate(1500).addresses
        fused = engine_cls(_oracle_config(recursive))
        fused.run_trace(trace)

        stepped = engine_cls(_oracle_config(recursive))
        plan = stepped.preprocess(trace)
        stepped.apply_initial_placement(plan)
        for superblock in plan.bins:
            stepped.access_superblock(superblock)

        assert fused.statistics == stepped.statistics
        assert np.array_equal(
            fused.position_map.as_array(), stepped.position_map.as_array()
        )
        assert _stash_ids(fused) == _stash_ids(stepped)
        assert fused.trace_cursor == stepped.trace_cursor == trace.size
        # The consumption state left in the plan must agree too: later
        # reassignments get the same answers.
        later = [fused.plan.consume_next_leaf(b, -1) for b in range(256)]
        assert later == [plan.consume_next_leaf(b, -1) for b in range(256)]
        if recursive:
            assert fused.statistics.posmap_path_reads > 0


class TestRunTraceSignature:
    @pytest.mark.parametrize("engine_cls", [LAORAMClient, FastLAORAMClient])
    def test_positional_ops_argument_is_rejected(self, config, engine_cls):
        # The base contract is run_trace(block_ids, ops, payloads); a
        # positional op must not be taken for ``reinitialize_placement``
        # and silently turn a write trace into reads.
        client = engine_cls(config)
        with pytest.raises(TypeError):
            client.run_trace([1, 2, 3, 4], AccessOp.WRITE)
        assert client.statistics.logical_accesses == 0
