"""The LAORAM client: PathORAM machinery driven by lookahead superblocks.

LAORAM keeps PathORAM's tree, stash, position map and eviction logic (and
therefore its obliviousness argument), but changes two things:

* **Superblock-granularity access.**  The trace is processed in the bins the
  preprocessor formed.  All blocks of a bin that already sit in the stash are
  served for free; the remaining blocks are grouped by their current path and
  each distinct path is fetched exactly once.  After a warm-up epoch most of
  a bin's blocks share one path, so a bin of ``S`` accesses costs roughly one
  path read instead of ``S``.
* **Plan-driven remapping.**  When a block is written back, its new path is
  the path of the superblock bin in which it is next accessed (falling back
  to a uniformly random path when the plan has no future occurrence).  Since
  every bin's path was drawn uniformly and independently of the block's
  identity, the observable access pattern stays identical to PathORAM's
  (Section VI of the paper).

The fat-tree option lives entirely in :class:`~repro.oram.config.ORAMConfig`,
so the same client runs both the "Normal" and "Fat" configurations of the
evaluation.

LAORAM is one protocol mixin over two storage backends, like RingORAM and
PrORAM.  :class:`LookaheadClientMixin` holds the plan, the trace cursor,
the initial placement and the planning ``run_trace``; everything else is
the engine's.  It supplies exactly the two differences: the engine's
``access_many``/``write_many`` chunk on superblock boundaries
(``_chunk_length``), and every access — a bin, a chunk or a single
``access`` (a batch of one) — runs the engine's shared batched step
(:meth:`~repro.oram.engine.TreeORAMEngine._access_batch`) with the cursor
parked on the bin's last index, so the plan supplies the remap leaves.
:class:`LAORAMClient` puts it over the per-object engine and
:class:`~repro.core.fast_laoram.FastLAORAMClient` over the array engine;
they differ only in the storage hooks.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.memory.accounting import TrafficCounter
from repro.memory.timing import TimingModel
from repro.oram.eviction import EvictionPolicy
from repro.oram.path_oram import PathORAM
from repro.core.config import LAORAMConfig
from repro.core.preprocessor import Preprocessor
from repro.core.superblock import LookaheadPlan, SuperblockBin


class LookaheadClientMixin:
    """The LAORAM protocol over any tree-ORAM storage backend.

    The mixin owns the constructor, the preprocessor, the installed plan,
    the trace cursor, the trusted-setup initial placement and the planning
    ``run_trace``.  The engine's ``access``, ``access_many`` and
    ``write_many`` serve everything else through two overrides: the chunk
    length (:meth:`_chunk_length`) and the cursor around each batch
    (:meth:`_access_batch`).  The only backend-specific part is the storage
    hook that re-places every block in block-id order
    (``_relayout_tree(by_id=True)``).
    """

    laoram_config: LAORAMConfig

    #: LAORAM's batching is the superblock bin itself (:meth:`_chunk_length`
    #: chunks on bin boundaries), so the engine's ``batch_size`` chunking
    #: does not apply.  Each bin still runs through the shared batched step
    #: :meth:`_access_batch`.
    SUPPORTS_BATCHED_ACCESS = False

    #: Scalar leaf draws: the preprocessor and the bin-path draws pull from
    #: the same generator as ``_draw_leaf``, so prefetching leaf draws in
    #: blocks would reorder the stream relative to the reference client.
    LEAF_DRAW_BLOCK = 0

    def __init__(
        self,
        config: LAORAMConfig,
        timing: Optional[TimingModel] = None,
        counter: Optional[TrafficCounter] = None,
        eviction: Optional[EvictionPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        observer=None,
        allocator=None,
    ):
        if not isinstance(config, LAORAMConfig):
            raise ConfigurationError(
                f"{type(self).__name__} requires an LAORAMConfig"
            )
        super().__init__(
            config.oram,
            timing=timing,
            counter=counter,
            eviction=eviction,
            rng=rng,
            observer=observer,
            allocator=allocator,
        )
        self.laoram_config = config
        self.preprocessor = Preprocessor(
            superblock_size=config.superblock_size,
            num_leaves=config.oram.num_leaves,
            rng=self.rng,
        )
        self._plan: Optional[LookaheadPlan] = None
        self._trace_cursor = 0
        # Remap leaves of the bin being executed by _execute_plan (``-1`` =
        # uniform fallback), in the order the batch step remaps its blocks.
        self._bin_remaps: Optional[Iterator[int]] = None

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    @property
    def plan(self) -> Optional[LookaheadPlan]:
        """The lookahead plan currently guiding path reassignment."""
        return self._plan

    def set_plan(self, plan: LookaheadPlan) -> None:
        """Install a preprocessor-produced plan for subsequent accesses."""
        self._plan = plan

    def preprocess(self, addresses: Sequence[int] | np.ndarray, start_index: int = 0) -> LookaheadPlan:
        """Run the preprocessor over ``addresses`` and install the plan."""
        plan = self.preprocessor.build_plan(addresses, start_index=start_index)
        self.set_plan(plan)
        return plan

    def apply_initial_placement(self, plan: LookaheadPlan) -> None:
        """Lay the table out so each block starts on its first planned path.

        This is a trusted-setup operation (the same trust assumption PathORAM
        makes for its initial bulk load): it may only run before the first
        adversary-visible access, and it is not charged to the traffic
        counters.  The first planned occurrence of every placed block is
        marked consumed so the first in-trace reassignment cannot be handed
        the same leaf again (which an adversary could link).  Blocks are
        re-placed in block-id order, the order of the initial bulk load;
        payloads are preserved.

        Only the planned ``(block id, leaf)`` pairs are materialised
        (:meth:`LookaheadPlan.first_leaves`), and the array backend
        re-places into its existing tree arrays a chunk of ids at a time,
        so placement costs little memory beyond what the store already
        holds.
        """
        if self.counter.logical_accesses:
            raise ConfigurationError(
                "initial placement can only be applied before any access"
            )
        self.position_map.load_many(*plan.first_leaves(self.config.num_blocks))
        plan.consume_first_occurrences(self.config.num_blocks)
        self._relayout_tree(by_id=True)

    # ------------------------------------------------------------------
    # Trace-level entry points
    # ------------------------------------------------------------------
    def run_trace(
        self,
        addresses: Sequence[int] | np.ndarray,
        *,
        reinitialize_placement: bool = True,
    ) -> None:
        """Preprocess and execute a full access trace at superblock granularity.

        When ``lookahead_accesses`` is set the trace is preprocessed in
        windows of that many accesses, modelling a preprocessor with bounded
        memory; otherwise the whole trace is planned at once.

        ``reinitialize_placement`` applies the first window's plan to the
        initial data layout: the embedding table is loaded into the ORAM tree
        during trusted setup (before the adversary observes anything), so the
        client is free to choose each block's initial path, and choosing the
        path of the block's first planned superblock means even first-time
        accesses are coalesced.  Every bin path is still drawn uniformly and
        independently, so the observable access pattern is unchanged.  The
        reinitialisation is only permitted before any adversary-visible
        access has been issued.  It is keyword-only so that the base
        engine's positional ``ops`` argument cannot be silently absorbed.
        """
        addr = np.asarray(addresses, dtype=np.int64)
        window = self.laoram_config.lookahead_accesses or addr.size
        offset = 0
        first_window = True
        while offset < addr.size:
            chunk = addr[offset : offset + window]
            plan = self.preprocess(chunk, start_index=offset)
            if first_window and reinitialize_placement:
                self.apply_initial_placement(plan)
            # The first window is over regardless of whether placement ran;
            # leaving the flag set would mis-apply placement mid-trace.
            first_window = False
            self._execute_plan(plan)
            offset += window

    def _execute_plan(self, plan: LookaheadPlan) -> None:
        """Execute every bin of a preprocessor-built ``plan`` from its arrays.

        The whole window's remap leaves are precomputed in one vectorized
        pass (:meth:`LookaheadPlan.plan_bin_remaps`) and handed to
        :meth:`_choose_new_leaf` bin by bin, replacing a plan lookup per
        remap with the identical answers.
        """
        remaps, final_consumed = plan.plan_bin_remaps()
        try:
            for (start_index, block_ids, _), bin_remaps in zip(
                plan.iter_bin_arrays(), remaps
            ):
                self._bin_remaps = iter(bin_remaps)
                self._trace_cursor = start_index
                self._access_batch(block_ids.tolist())
        finally:
            self._bin_remaps = None
        plan.apply_consumption(final_consumed)

    def access_superblock(
        self,
        superblock: SuperblockBin,
        new_payloads: Optional[dict[int, object]] = None,
    ) -> list[Optional[object]]:
        """Serve every access of one superblock bin; payloads in bin order.

        ``new_payloads`` turns the corresponding accesses into writes.
        """
        self._trace_cursor = superblock.start_index
        return self._access_batch(list(superblock.block_ids), new_payloads)

    def _access_batch(
        self,
        block_ids: list[int],
        new_payloads: Optional[dict[int, object]] = None,
    ) -> list[Optional[object]]:
        """Serve one bin starting at the cursor, then advance past it.

        With the cursor parked on the bin's last index,
        :meth:`_choose_new_leaf` hands each block the path of its next
        planned occurrence after the bin.
        """
        end_index = self._trace_cursor + len(block_ids)
        self._trace_cursor = end_index - 1
        payloads = super()._access_batch(block_ids, new_payloads)
        self._trace_cursor = end_index
        return payloads

    def _chunk_length(self) -> int:
        """Length of the next ad-hoc bin so it ends on a superblock boundary.

        Bin boundaries are aligned to the global access index, so they
        coincide with the boundaries the preprocessor used when planning
        the trace.  Never ``None``: the engine's ``access_many`` would then
        call this mixin's planning :meth:`run_trace`.
        """
        size = self.laoram_config.superblock_size
        return size - (self._trace_cursor % size)

    @property
    def trace_cursor(self) -> int:
        """Number of planned accesses consumed so far (plan lookup position)."""
        return self._trace_cursor

    # ------------------------------------------------------------------
    # Remapping
    # ------------------------------------------------------------------
    def _choose_new_leaf(self, block_id: int) -> int:
        """Path of the block's next planned bin after the cursor.

        Inside :meth:`_execute_plan` the answers come from the window's
        precomputed remaps, consumed in the order the batch step remaps a
        bin's distinct blocks; otherwise the plan is asked directly.
        """
        if self._bin_remaps is not None:
            return self._planned_leaf(next(self._bin_remaps))
        plan = self._plan
        if plan is None:
            return self._draw_leaf()
        return self._planned_leaf(plan.consume_next_leaf(block_id, self._trace_cursor))

    def _planned_leaf(self, leaf: Optional[int]) -> int:
        """The plan's leaf, or a uniform draw when it has none (``None``/``-1``)."""
        if leaf is None or leaf == -1:
            return self._draw_leaf()
        return leaf

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def superblock_size(self) -> int:
        """Configured superblock size ``S``."""
        return self.laoram_config.superblock_size

    def describe(self) -> str:
        """Configuration label in the paper's notation (e.g. ``"Fat/S4"``)."""
        return self.laoram_config.describe()


class LAORAMClient(LookaheadClientMixin, PathORAM):
    """Look-ahead ORAM client (the paper's contribution), per-object backend."""
