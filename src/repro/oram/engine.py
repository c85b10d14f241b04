"""Shared tree-ORAM engine core: one control flow, two storage backends.

Every tree-based scheme in this package (PathORAM, PrORAM, RingORAM, LAORAM)
runs the same skeleton — position-map lookup, path read into the stash,
greedy occupancy-aware write-back, threshold-triggered background eviction —
over one of two storage representations:

* :class:`ObjectStorageEngine` keeps :class:`~repro.memory.block.Block`
  objects in per-bucket lists and a dict stash (the reference engines);
* :class:`ArrayStorageEngine` keeps block ids in
  :class:`~repro.oram.tree.ArrayTreeStorage` slot arrays and a plain
  ``{id: leaf}`` dict stash, with payloads in a client-side store (the
  vectorized engines).

:class:`TreeORAMEngine` owns the control flow and all counter/timing
charges; backends implement a small set of storage hooks (``_fetch_path``,
``_commit_write_back``, stash attach/detach/lookup).  Because the hooks are
decision-free — every choice (which leaf, which eviction victim) is made in
shared code or replicated exactly by the vectorized planner — a reference
engine and its array twin draw from the RNG in the same order and produce
bit-identical :class:`~repro.memory.accounting.TrafficSnapshot` counters for
a fixed seed.  That equivalence is enforced per family by
``tests/test_engine_equivalence.py`` and the CI throughput gate.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import (
    BlockNotFoundError,
    ConfigurationError,
    StashOverflowError,
)
from repro.memory.accounting import TrafficCounter, TrafficSnapshot
from repro.memory.block import Block
from repro.memory.timing import TimingModel
from repro.oram.base import AccessOp, ObliviousMemory
from repro.oram.config import ORAMConfig
from repro.oram.eviction import EvictionPolicy
from repro.oram.position_map import PositionMap
from repro.oram.recursive_posmap import RecursivePositionMap
from repro.oram.shm import ArrayAllocator
from repro.oram.stash import Stash
from repro.oram.tree import PLACE_CHUNK, ArrayTreeStorage, TreeStorage
from repro.oram.write_back import (
    greedy_write_back,
    plan_batched_write_back,
    plan_greedy_write_back,
)
from repro.utils.rng import make_rng


class TreeORAMEngine(ObliviousMemory):
    """Tree-ORAM access/eviction control flow over abstract storage hooks.

    Subclasses provide the storage representation (tree, stash, payloads)
    through the hooks in the "storage hooks" section; protocol variants
    (PrORAM superblocks, RingORAM online reads) override :meth:`access`
    while reusing the shared internals (`_read_path_into_stash`,
    `_write_back`, background eviction, counters).

    One access step: :meth:`_access_batch` (one stash sweep, one grouped
    multi-path read, one grouped write-back) serves :meth:`access` as a
    batch of one, every :meth:`access_many`/:meth:`write_many` chunk and
    every LAORAM bin.  ``batch_size`` opts a PathORAM-protocol engine into
    chunking by it (:meth:`_chunk_length`); protocol variants whose
    ``access`` does more than the PathORAM sequence set
    ``SUPPORTS_BATCHED_ACCESS = False`` and always take :meth:`run_trace`,
    whatever ``batch_size`` says.
    """

    #: Whether ``batch_size`` chunking through :meth:`_access_batch` is
    #: valid for this engine.  Protocol mixins that override ``access``
    #: (RingORAM online reads, PrORAM superblocks) and LAORAM (which chunks
    #: on its bins) disable it.
    SUPPORTS_BATCHED_ACCESS = True

    #: Leaf draws per vectorized RNG refill in :meth:`_draw_leaf`.  0 keeps
    #: scalar draws; the array backend prefetches in blocks.  A sized
    #: ``integers(0, n, size=k)`` call consumes the generator stream exactly
    #: like ``k`` scalar calls, so both settings yield the same leaf
    #: sequence for a seed — but engines whose protocol interleaves its own
    #: direct generator use after setup (LAORAM's lookahead planner) must
    #: pin this to 0 so those draws stay in stream order.
    LEAF_DRAW_BLOCK = 0

    def __init__(
        self,
        config: ORAMConfig,
        timing: Optional[TimingModel] = None,
        counter: Optional[TrafficCounter] = None,
        eviction: Optional[EvictionPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        observer=None,
        batch_size: Optional[int] = None,
        allocator: Optional[ArrayAllocator] = None,
    ):
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1 when set")
        self.config = config
        self.timing = timing if timing is not None else TimingModel()
        self.counter = counter if counter is not None else TrafficCounter()
        self.rng = rng if rng is not None else make_rng(config.seed)
        self.eviction = eviction if eviction is not None else EvictionPolicy(
            enabled=config.background_eviction,
            trigger_threshold=config.eviction_threshold,
            drain_target=config.eviction_target,
        )
        self.observer = observer
        self.batch_size = batch_size
        # Array allocation hook: a shared-memory pool here puts the tree
        # slots and the position map into attachable segments so a parent
        # process can snapshot shard state without serialization.
        self.allocator = allocator
        self.tree = self._make_tree()
        self.stash = self._make_stash()
        if config.recursive_posmap:
            # Both constructors make the identical initial-label draw from
            # the engine RNG, so dense and recursive engines consume the
            # stream identically and stay decision-identical.
            self.position_map = RecursivePositionMap(
                num_blocks=config.num_blocks,
                num_leaves=config.num_leaves,
                rng=self.rng,
                allocator=allocator,
                positions_per_block=config.posmap_positions_per_block,
                cutoff_bytes=config.posmap_cutoff_bytes,
                metadata_bytes_per_block=config.metadata_bytes_per_block,
                counter=self.counter,
                timing=self.timing,
                seed=config.seed,
            )
        else:
            self.position_map = PositionMap(
                num_blocks=config.num_blocks,
                num_leaves=config.num_leaves,
                rng=self.rng,
                allocator=allocator,
            )
        self._stash_hits = 0
        # Buffered leaf draws (see _draw_leaf); an exhausted position on an
        # empty buffer forces the first refill.
        self._leaf_buf: list[int] = []
        self._leaf_buf_pos = 0
        # Hot-path caches: ``ORAMConfig.depth``/``num_leaves`` are derived
        # properties recomputed on every read, which adds up at millions of
        # accesses (geometry is immutable, so caching is safe).
        self._depth = config.depth
        self._num_leaves = config.num_leaves

    # ------------------------------------------------------------------
    # ObliviousMemory interface
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self.config.num_blocks

    @property
    def statistics(self) -> TrafficSnapshot:
        return self.counter.snapshot()

    @property
    def simulated_time_s(self) -> float:
        return self.timing.elapsed_s

    @property
    def server_memory_bytes(self) -> int:
        return self.tree.server_memory_bytes

    @property
    def stash_occupancy(self) -> int:
        """Current number of blocks held in the client stash."""
        return len(self.stash)

    @property
    def stash_hits(self) -> int:
        """Accesses served directly from the stash without a path read."""
        return self._stash_hits

    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Perform one oblivious access to ``block_id``: a batch of one.

        :meth:`_access_batch` on a one-element batch is exactly the PathORAM
        sequence — stash hit or one path read, serve, remap, write-back,
        background eviction.
        """
        updates = {block_id: new_payload} if op is AccessOp.WRITE else None
        return self._access_batch([block_id], updates)[0]

    def run_trace(
        self,
        block_ids: Sequence[int],
        ops=None,
        payloads: Optional[Sequence[object]] = None,
    ) -> list[Optional[object]]:
        """Execute a whole access sequence in one call.

        Sequential semantics: identical results, counters, timing, RNG
        stream and stash state to calling :meth:`access` once per element.
        ``ops`` may be omitted (all reads), one :class:`AccessOp` applied to
        every access, or a per-access sequence; ``payloads`` requires
        ``ops`` and supplies the per-access write payloads.  Numpy integer
        arrays are accepted and drained with one bulk ``tolist``.

        Layers override this with fused drivers (the array backends) or a
        planning pipeline (LAORAM's lookahead preprocessor); the sequential
        contract is the same for all of them, so callers never need to know
        which they hold.
        """
        ids = block_ids.tolist() if isinstance(block_ids, np.ndarray) else block_ids
        op_seq, payload_seq = self._normalize_trace_args(len(ids), ops, payloads)
        access = self.access
        if op_seq is None:
            return [access(block_id) for block_id in ids]
        return [
            access(block_id, op, payload)
            for block_id, op, payload in zip(ids, op_seq, payload_seq)
        ]

    def _normalize_trace_args(self, n: int, ops, payloads):
        """Expand/validate ``run_trace``'s op and payload arguments.

        Returns ``(None, None)`` for the common all-reads case so drivers
        can keep a branch-free fast path, else two length-``n`` sequences.
        """
        if ops is None:
            if payloads is not None:
                raise ConfigurationError("run_trace payloads require ops")
            return None, None
        if isinstance(ops, AccessOp):
            op_seq: Sequence[AccessOp] = [ops] * n
        else:
            op_seq = list(ops)
            if len(op_seq) != n:
                raise ConfigurationError("ops must match block_ids in length")
        if payloads is None:
            payload_seq: Sequence[object] = [None] * n
        else:
            if len(payloads) != n:
                raise ConfigurationError("payloads must match block_ids in length")
            payload_seq = payloads
        return op_seq, payload_seq

    def _chunk_length(self) -> Optional[int]:
        """Length of the next :meth:`access_many` chunk, or ``None``.

        ``None`` sends the whole request through :meth:`run_trace` — the
        sequential semantics, served by whatever driver the engine fuses it
        with.  Engines configured with a ``batch_size`` whose protocol
        admits the generic batch (``SUPPORTS_BATCHED_ACCESS``) chunk by
        it; LAORAM chunks on superblock boundaries.
        """
        size = self.batch_size
        if size is None or size <= 1 or not self.SUPPORTS_BATCHED_ACCESS:
            return None
        return size

    def access_many(self, block_ids: Sequence[int]) -> list[Optional[object]]:
        """Access several blocks, one :meth:`_access_batch` per chunk.

        Chunks are :meth:`_chunk_length` long: one grouped multi-path read
        and one grouped write-back per chunk instead of a path pair per
        access.  Without a chunk length this delegates to :meth:`run_trace`.
        """
        if self._chunk_length() is None:
            return self.run_trace(block_ids)
        ids = self._coerce_id_list(block_ids)
        payloads: list[Optional[object]] = []
        offset = 0
        while offset < len(ids):
            chunk = ids[offset : offset + self._chunk_length()]
            payloads.extend(self._access_batch(chunk))
            offset += len(chunk)
        return payloads

    def write_many(
        self, block_ids: Sequence[int], payloads: Sequence[object]
    ) -> None:
        """Write several blocks; chunked exactly like :meth:`access_many`.

        Duplicate ids within a chunk keep the last payload, mirroring a
        sequential write stream.
        """
        if len(block_ids) != len(payloads):
            raise ConfigurationError("block_ids and payloads must have equal length")
        if self._chunk_length() is None:
            self.run_trace(block_ids, ops=AccessOp.WRITE, payloads=payloads)
            return
        ids = self._coerce_id_list(block_ids)
        offset = 0
        while offset < len(ids):
            end = offset + self._chunk_length()
            chunk = ids[offset:end]
            self._access_batch(chunk, dict(zip(chunk, payloads[offset:end])))
            offset += len(chunk)

    @staticmethod
    def _coerce_id_list(block_ids: Sequence[int]) -> list[int]:
        """Plain-int id list; bulk ``tolist`` for arrays, no per-element int()."""
        if isinstance(block_ids, np.ndarray):
            return block_ids.tolist()
        return [int(block_id) for block_id in block_ids]

    def _access_batch(
        self,
        block_ids: list[int],
        new_payloads: Optional[dict[int, object]] = None,
    ) -> list[Optional[object]]:
        """Serve one batch of accesses with grouped reads and write-backs.

        Blocks already in the stash are served for free, the rest are
        grouped by their current path (first-encounter order) and every
        distinct path is fetched once, each distinct block is remapped via
        :meth:`_choose_new_leaf` in first-occurrence order, and all fetched
        paths are written back together through :meth:`_write_back_many`.
        This is every access's step: :meth:`access` is a batch of one, and
        LAORAM's mixin serves every bin here, with ``_choose_new_leaf``
        answering from the lookahead plan instead of a uniform draw.  Every
        step runs through the storage
        hooks, so the reference and array backends execute it
        decision-for-decision identically.
        """
        # oblivious: allow[OBL001] batch emptiness equals the public batch size
        if not block_ids:
            return []
        for block_id in block_ids:
            self._check_block_id(block_id)
        self.counter.record_logical_access(len(block_ids))
        self.timing.charge_client_overhead(len(block_ids))

        # One handle per distinct block, in first-occurrence order.
        handles = {block_id: self._stash_lookup(block_id) for block_id in block_ids}
        # oblivious: allow[OBL001] the batched protocol fetches only the miss
        # set's distinct paths by design (LAORAM superblock-style grouped
        # read); the per-batch path count is the protocol's observable
        missing = [b for b, handle in handles.items() if handle is None]
        self._stash_hits += len(handles) - len(missing)
        read_leaves: list[int] = []
        # oblivious: allow[OBL001] grouped fetch over the deduped miss set;
        # see the comprehension above
        if missing:
            distinct: dict[int, None] = {}
            # oblivious: allow[OBL002] iterates the miss set to collect its
            # distinct paths — the reveal sanctioned above
            for block_id in missing:
                distinct.setdefault(self.position_map.get(block_id), None)
            read_leaves = list(distinct)
            self._read_paths_into_stash(read_leaves, dummy=False)
            # oblivious: allow[OBL002] post-fetch integrity sweep of the same
            # miss set; failures abort the run loudly
            for block_id in missing:
                handle = self._stash_lookup(block_id)
                # oblivious: allow[OBL001] integrity check; aborts the run
                if handle is None:
                    raise BlockNotFoundError(
                        f"block {block_id} missing from both stash and its path"
                    )
                handles[block_id] = handle

        serve = self._serve
        payloads: list[Optional[object]] = []
        for block_id in block_ids:
            handle = handles[block_id]
            # oblivious: allow[OBL001] client-side payload routing; serving
            # from the stash handle touches no server-visible state
            if new_payloads is not None and block_id in new_payloads:
                payloads.append(serve(handle, AccessOp.WRITE, new_payloads[block_id]))
            else:
                payloads.append(serve(handle, AccessOp.READ, None))

        remap = self._remap
        # oblivious: allow[OBL002] one remap per distinct requested id: the
        # trip count is the request's distinct-id count, not stash content
        for handle in handles.values():
            remap(handle)

        self._write_back_many(read_leaves)
        self._maybe_background_evict()
        self.counter.observe_stash(len(self.stash))
        return payloads

    # ------------------------------------------------------------------
    # Shared internals (counter/timing charges live here, not in backends)
    # ------------------------------------------------------------------
    def _draw_leaf(self) -> int:
        """Draw one uniform leaf from the engine's RNG.

        With :data:`LEAF_DRAW_BLOCK` set, draws are prefetched in blocks via
        one vectorized ``integers`` call and handed out one at a time —
        hundreds of scalar generator calls collapse into one dispatch plus a
        list index.  The stream consumption is identical either way (see the
        class attribute), so blocked and scalar engines make the same
        decisions for a seed.
        """
        block = self.LEAF_DRAW_BLOCK
        if not block:
            return int(self.rng.integers(0, self._num_leaves))
        pos = self._leaf_buf_pos
        buf = self._leaf_buf
        if pos == len(buf):
            buf = self.rng.integers(0, self._num_leaves, size=block).tolist()
            self._leaf_buf = buf
            pos = 0
        self._leaf_buf_pos = pos + 1
        return buf[pos]

    def _choose_new_leaf(self, block_id: int) -> int:
        """Uniformly random new path; LAORAM overrides this with its plan."""
        return self._draw_leaf()

    def _read_path_into_stash(self, leaf: int, dummy: bool) -> None:
        """Fetch a full path from the server into the stash."""
        num_buckets, num_bytes = self.tree.path_cost(leaf)
        self._fetch_path(leaf)
        self.counter.record_path_read(num_buckets, num_bytes, dummy=dummy)
        self.timing.charge_path_transfer(num_buckets, num_bytes)
        if self.observer is not None:
            self.observer.observe_path(leaf, dummy=dummy)

    def _read_paths_into_stash(
        self, leaves: Sequence[int], dummy: bool = False
    ) -> None:
        """Fetch several full paths into the stash.

        Default: one :meth:`_read_path_into_stash` per leaf, in order.  The
        array backend overrides this with a single deduplicated multi-path
        gather that yields the same stash contents in the same order (and
        identical per-path charges/observations).
        """
        for leaf in leaves:
            self._read_path_into_stash(leaf, dummy=dummy)

    def _write_back(self, leaf: int) -> None:
        """Greedily write stash blocks back onto the path to ``leaf``."""
        self._commit_write_back(leaf)
        num_buckets, num_bytes = self.tree.path_cost(leaf)
        self.counter.record_path_write(num_buckets, num_bytes)
        self.timing.charge_path_transfer(num_buckets, num_bytes)

    def _write_back_many(self, leaves: Sequence[int]) -> None:
        """Write back every path of one batch (superblock bin or access batch).

        Default: one :meth:`_write_back` per leaf, in order — the reference
        semantics.  The array backend overrides this with the cross-path
        batched planner, which commits a bit-identical placement in one
        scatter.
        """
        for leaf in leaves:
            self._write_back(leaf)

    def _maybe_background_evict(self) -> None:
        """Run the dummy-read eviction loop when the stash is too full.

        Always single-path episodes, even under the batched access protocol:
        a read-one-write-one dummy access drains the stash monotonically,
        whereas a grouped k-path episode floods the stash with every path's
        blocks before any write-back and — on deep trees, where random paths
        only share buckets near the root — leaves most of that flood behind,
        so the drain target recedes and every episode runs to the dummy cap.
        """
        # oblivious: allow[OBL001] occupancy-triggered background eviction is
        # the engine's documented policy; episodes are deliberately observable
        # (counted, charged, and studied by the multi-tenant experiments)
        if not self.eviction.should_trigger(len(self.stash)):
            return
        self.counter.record_background_eviction()
        dummy_reads = 0
        # oblivious: allow[OBL002] eviction episode length tracks occupancy by
        # design — same documented policy as the trigger above
        while self.eviction.should_continue(len(self.stash), dummy_reads):
            self.dummy_access()
            dummy_reads += 1

    def dummy_access(self) -> None:
        """Read and write back one random path without touching any block."""
        leaf = self._draw_leaf()
        self._read_path_into_stash(leaf, dummy=True)
        self._write_back(leaf)

    def _check_block_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.config.num_blocks:
            raise BlockNotFoundError(
                f"block {block_id} outside [0, {self.config.num_blocks})"
            )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def total_real_blocks(self) -> int:
        """Blocks present across tree and stash (must equal ``num_blocks``)."""
        return self.tree.real_block_count() + len(self.stash)

    #: Client-side bookkeeping per stashed block: the (id, leaf) pair the
    #: stash tracks alongside the payload (one dict entry on the array
    #: backend, the equivalent attributes on a per-object ``Block``), counted
    #: as two int64 words.
    STASH_ENTRY_OVERHEAD_BYTES = 16

    def client_memory_bytes(self) -> int:
        """Client memory: position map (incl. recursion levels) plus stash.

        Stash entries are charged at ``block_size_bytes`` plus the id/leaf
        bookkeeping — *not* at ``stored_block_bytes``, whose
        ``metadata_bytes_per_block`` component (MACs) exists only on the
        server wire format and is never held by the client.  The position
        map term covers the dense array or, under ``recursive_posmap``,
        the recursion top map, per-level stash residue and open walks.
        """
        stash_bytes = len(self.stash) * (
            self.config.block_size_bytes + self.STASH_ENTRY_OVERHEAD_BYTES
        )
        return self.position_map.client_memory_bytes() + stash_bytes

    # ------------------------------------------------------------------
    # Storage hooks (implemented by the backends below)
    # ------------------------------------------------------------------
    def _make_tree(self):
        """Build the server-side tree storage for ``self.config``."""
        raise NotImplementedError

    def _make_stash(self):
        """Build the client-side stash."""
        raise NotImplementedError

    def _bulk_load(self) -> None:
        """Trusted-setup placement of every block onto its initial path."""
        raise NotImplementedError

    def load_payloads(self, payloads: dict[int, object]) -> None:
        """Install payloads during trusted setup (no traffic charged)."""
        raise NotImplementedError

    def _stash_lookup(self, block_id: int):
        """Handle of a stashed block (Block or id), or ``None`` if absent."""
        raise NotImplementedError

    def _stash_detach(self, block_id: int):
        """Remove a block from the stash, returning its handle (or ``None``)."""
        raise NotImplementedError

    def _stash_reattach(self, handle) -> None:
        """Re-insert a previously detached handle, keeping its current leaf."""
        raise NotImplementedError

    def _stash_insert(self, handle, leaf: int) -> None:
        """Insert a detached handle with a (possibly new) assigned leaf."""
        raise NotImplementedError

    def _update_leaf(self, block_id: int, leaf: int) -> None:
        """Reassign a *stashed* block's leaf in the position map and stash."""
        raise NotImplementedError

    def _serve(self, handle, op: AccessOp, new_payload: Optional[object]):
        """Apply the read/write to a stashed block and return its payload."""
        raise NotImplementedError

    def _remap(self, handle) -> None:
        """Assign a stashed block a fresh leaf via :meth:`_choose_new_leaf`."""
        raise NotImplementedError

    def _fetch_path(self, leaf: int) -> None:
        """Move every real block on the path to ``leaf`` into the stash."""
        raise NotImplementedError

    def _commit_write_back(self, leaf: int) -> None:
        """Plan and commit the greedy write-back onto the path to ``leaf``."""
        raise NotImplementedError

    def _remove_from_path(self, leaf: int, block_id: int):
        """Remove ``block_id`` from a bucket on the path (RingORAM online read)."""
        raise NotImplementedError

    def _relayout_tree(self, by_id: bool = False) -> None:
        """Rebuild the tree layout under the current position map (setup only).

        Blocks are re-placed as deep as possible on their paths, in
        tree-iteration order (bucket index, then slot) followed by stash
        order, or in block-id order with ``by_id`` (the bulk-load order).
        """
        raise NotImplementedError


class ObjectStorageEngine(TreeORAMEngine):
    """Per-object storage backend: Block objects, list buckets, dict stash."""

    def __init__(self, config: ORAMConfig, **kwargs):
        super().__init__(config, **kwargs)
        self._bulk_load()

    # -- construction ---------------------------------------------------
    def _make_tree(self) -> TreeStorage:
        return TreeStorage(
            depth=self.config.depth,
            bucket_capacities=self.config.bucket_capacities(),
            block_size_bytes=self.config.block_size_bytes,
            metadata_bytes_per_block=self.config.metadata_bytes_per_block,
        )

    def _make_stash(self) -> Stash:
        return Stash(capacity=self.config.stash_capacity)

    def _bulk_load(self) -> None:
        """Place every block on its initial path; overflow goes to the stash.

        Initial placement is a trusted setup step performed before the
        adversary starts observing, so it is not charged to the traffic
        counters.
        """
        for block_id in range(self.config.num_blocks):
            leaf = self.position_map.peek(block_id)
            block = Block(block_id=block_id, leaf=leaf, payload=None)
            if not self.tree.try_place_on_path(block):
                self.stash.add(block)

    def load_payloads(self, payloads: dict[int, object]) -> None:
        """Install payloads for blocks during trusted setup (no traffic charged)."""
        remaining = dict(payloads)
        for block in self.stash:
            if block.block_id in remaining:
                block.payload = remaining.pop(block.block_id)
        if remaining:
            for block in self.tree.iter_blocks():
                if block.block_id in remaining:
                    block.payload = remaining.pop(block.block_id)
                    if not remaining:
                        break
        if remaining:
            raise BlockNotFoundError(
                f"{len(remaining)} payload block ids not present in the ORAM"
            )

    # -- stash hooks ----------------------------------------------------
    def _stash_lookup(self, block_id: int) -> Optional[Block]:
        return self.stash.get(block_id)

    def _stash_detach(self, block_id: int) -> Optional[Block]:
        return self.stash.pop(block_id)

    def _stash_reattach(self, handle: Block) -> None:
        self.stash.add(handle)

    def _stash_insert(self, handle: Block, leaf: int) -> None:
        handle.leaf = leaf
        self.stash.add(handle)

    def _update_leaf(self, block_id: int, leaf: int) -> None:
        block = self.stash.get(block_id)
        block.leaf = leaf
        self.position_map.set(block_id, leaf)

    # -- access hooks ---------------------------------------------------
    def _serve(
        self, handle: Block, op: AccessOp, new_payload: Optional[object]
    ) -> Optional[object]:
        if op is AccessOp.WRITE:
            handle.payload = new_payload
        return handle.payload

    def _remap(self, handle: Block) -> None:
        """Assign the block a fresh path and update the position map."""
        new_leaf = self._choose_new_leaf(handle.block_id)
        handle.leaf = new_leaf
        self.position_map.set(handle.block_id, new_leaf)

    def _fetch_path(self, leaf: int) -> None:
        for block in self.tree.read_path(leaf):
            self.stash.add(block)

    def _commit_write_back(self, leaf: int) -> None:
        placement = self._plan_write_back(leaf)
        self.tree.write_path(leaf, placement)

    def _plan_write_back(self, leaf: int) -> dict[int, list[Block]]:
        """Choose which stash blocks go to which level of the accessed path."""
        return plan_greedy_write_back(self.tree, self.stash, leaf)

    def _remove_from_path(self, leaf: int, block_id: int) -> Optional[Block]:
        for index in self.tree.path_bucket_indices(leaf):
            block = self.tree.bucket_by_index(index).remove(block_id)
            if block is not None:
                return block
        return None

    def _relayout_tree(self, by_id: bool = False) -> None:
        """Re-place every block under the current position map (trusted setup).

        Blocks are taken in tree-iteration order (bucket index, then slot)
        followed by stash insertion order, or sorted by id, exactly the
        orders the array backend replays, so both backends produce the same
        layout.  Payloads travel with their blocks.
        """
        blocks = list(self.tree.iter_blocks()) + list(self.stash)
        if by_id:
            blocks.sort(key=attrgetter("block_id"))
        self.tree = self._make_tree()
        self.stash.clear()
        for block in blocks:
            block.leaf = self.position_map.peek(block.block_id)
            if not self.tree.try_place_on_path(block):
                self.stash.add(block)


def _fused_fetch(read_ids, pm, stash_map, leaf):
    """Read one path into the dict stash (fused trace drivers).

    ``read_ids`` empties the path and returns its real block ids, compacted
    by one vectorized mask so only the real blocks a path carries are
    touched (not every slot).  Leaves come through one position-map
    ``take`` and the dict absorbs the pairs via C-level ``update(zip(...))``
    — marginally ahead of a per-id ``pm.item`` loop at PathORAM's ~9 real
    ids per path and clearly ahead on RingORAM evict paths, which carry
    several times that.  Compaction preserves root-to-leaf slot order, the
    order :meth:`ArrayStorageEngine._fetch_path` inserts in.
    """
    ids = read_ids(leaf)
    stash_map.update(zip(ids.tolist(), pm.take(ids).tolist()))


class ArrayStorageEngine(TreeORAMEngine):
    """Array storage backend: id slot arrays, dict stash, client payload store.

    The handle for a stashed block is its integer id.  The stash is a plain
    insertion-ordered ``dict`` of block id -> assigned leaf (all Python
    ints), which every hook below and the fused trace drivers work on
    directly; its iteration order is the reference stash's, so write-back
    victims match.  Payloads live in a client-side dict (payload location
    never affects traffic, so keeping it out of the simulated server
    removes all per-block object churn from the hot path).
    """

    #: The array backend prefetches leaf draws in blocks (see
    #: :meth:`TreeORAMEngine._draw_leaf`); stream-identical to scalar draws.
    LEAF_DRAW_BLOCK = 512

    def __init__(self, config: ORAMConfig, **kwargs):
        super().__init__(config, **kwargs)
        self._payloads: dict[int, object] = {}
        # greedy_write_back scratch: per-level groups (left empty between
        # calls) and each level's first breadth-first bucket index.
        self._wb_groups: list[list[int]] = [[] for _ in range(self._depth + 1)]
        self._wb_node_base = [(1 << level) - 1 for level in range(self._depth + 1)]
        self._bulk_load()

    # -- construction ---------------------------------------------------
    def _make_tree(self) -> ArrayTreeStorage:
        return ArrayTreeStorage(
            depth=self.config.depth,
            bucket_capacities=self.config.bucket_capacities(),
            block_size_bytes=self.config.block_size_bytes,
            metadata_bytes_per_block=self.config.metadata_bytes_per_block,
            allocator=self.allocator,
        )

    def _make_stash(self) -> dict[int, int]:
        return {}

    def _bulk_load(self) -> None:
        """Place every block into the tree according to its initial path.

        Ids are placed ``PLACE_CHUNK`` at a time in ascending order, each
        chunk's leaves read through the charge-free ``peek_many`` channel,
        so no map-sized copy or id range is ever materialised.  Overflow
        goes to the stash in ascending id order, exactly as the per-object
        bulk load does.  The stash capacity is checked once every block is
        placed, so an overflowing engine still holds all of them.
        """
        pm = self.position_map
        num_blocks = self.config.num_blocks
        for start in range(0, num_blocks, PLACE_CHUNK):
            stop = min(start + PLACE_CHUNK, num_blocks)
            ids = np.arange(start, stop, dtype=np.int64)
            overflow = self.tree.bulk_place_ordered(ids, pm.peek_many(ids))
            self.stash.update(zip(overflow.tolist(), pm.peek_many(overflow).tolist()))
        self._check_stash_capacity()

    def load_payloads(self, payloads: dict[int, object]) -> None:
        """Install payloads for blocks during trusted setup (no traffic charged)."""
        for block_id in payloads:
            if not 0 <= block_id < self.config.num_blocks:
                raise BlockNotFoundError(
                    f"payload block id {block_id} not present in the ORAM"
                )
        self._payloads.update(payloads)

    # -- stash hooks ----------------------------------------------------
    def _check_stash_capacity(self) -> None:
        """Raise once a merge has pushed the stash past its capacity.

        The check follows the merge, so an overflowing engine still holds
        every block; the counters match the reference, whose stash raises
        before the failing path read is charged.
        """
        capacity = self.config.stash_capacity
        if capacity is not None and len(self.stash) > capacity:
            raise StashOverflowError(
                f"stash exceeded its capacity of {capacity} blocks"
            )

    def _stash_merge(self, ids: np.ndarray, leaves: np.ndarray) -> None:
        """Append fetched id/leaf pairs to the stash, in array order."""
        if ids.size:
            self.stash.update(zip(ids.tolist(), leaves.tolist()))
            self._check_stash_capacity()

    def _stash_lookup(self, block_id: int) -> Optional[int]:
        if block_id in self.stash:
            return block_id
        return None

    def _stash_detach(self, block_id: int) -> Optional[int]:
        if self.stash.pop(block_id, None) is None:
            return None
        return block_id

    def _stash_reattach(self, handle: int) -> None:
        # peek: the block is in hand (just detached), so its leaf tag is
        # client-readable without an oblivious position-map access.
        self._stash_insert(handle, self.position_map.peek(handle))

    def _stash_insert(self, handle: int, leaf: int) -> None:
        self.stash[handle] = leaf
        self._check_stash_capacity()

    def _update_leaf(self, block_id: int, leaf: int) -> None:
        self.position_map.set(block_id, leaf)
        self.stash[block_id] = leaf

    # -- access hooks ---------------------------------------------------
    def _serve(
        self, handle: int, op: AccessOp, new_payload: Optional[object]
    ) -> Optional[object]:
        if op is AccessOp.WRITE:
            self._payloads[handle] = new_payload
        return self._payloads.get(handle)

    def _remap(self, handle: int) -> None:
        """Assign the stashed block a fresh path (position map + stash leaf)."""
        leaf = self._choose_new_leaf(handle)
        self.position_map.set(handle, leaf)
        self.stash[handle] = leaf

    def _fetch_path(self, leaf: int) -> None:
        ids = self.tree.read_path_ids(leaf)
        # peek_many: fetched blocks carry their leaf tags on the wire.
        self._stash_merge(ids, self.position_map.peek_many(ids))

    def _read_paths_into_stash(
        self, leaves: Sequence[int], dummy: bool = False
    ) -> None:
        """Fetch several paths with one deduplicated multi-path gather.

        :meth:`ArrayTreeStorage.read_paths_ids` returns exactly the ids a
        sequential per-leaf loop would (shared buckets counted at their
        first path only), in the same order, so one merge leaves the stash
        bit-identical to the default implementation.  Per-path charges and
        observer events are preserved one per leaf.  A capped stash takes
        the per-path loop, so an overflow raises at the same path, with
        the same charges, as the sequential reads.
        """
        if len(leaves) < 2 or self.config.stash_capacity is not None:
            for leaf in leaves:
                self._read_path_into_stash(leaf, dummy=dummy)
            return
        ids = self.tree.read_paths_ids(np.asarray(leaves, dtype=np.int64))
        self._stash_merge(ids, self.position_map.peek_many(ids))
        observer = self.observer
        for leaf in leaves:
            num_buckets, num_bytes = self.tree.path_cost(leaf)
            self.counter.record_path_read(num_buckets, num_bytes, dummy=dummy)
            self.timing.charge_path_transfer(num_buckets, num_bytes)
            if observer is not None:
                observer.observe_path(leaf, dummy=dummy)

    # -- fused trace driver ---------------------------------------------
    def run_trace(
        self,
        block_ids: Sequence[int],
        ops=None,
        payloads: Optional[Sequence[object]] = None,
    ) -> list[Optional[object]]:
        """Fused sequential driver (see :meth:`TreeORAMEngine.run_trace`).

        Falls back to the generic per-access loop whenever this engine's
        decisions are not the plain PathORAM sequence the fused core
        replicates: an overridden ``access`` (protocol mixins ship their own
        fused drivers), a plan-driven ``_choose_new_leaf`` (LAORAM), a
        custom eviction policy class, or a position map that does not
        declare ``DIRECT_LEAF_WRITES`` (the fused core writes the dense
        leaf array directly, which would bypass recursion charging).
        """
        cls = type(self)
        if (
            cls.access is not TreeORAMEngine.access
            or cls._choose_new_leaf is not TreeORAMEngine._choose_new_leaf
            or type(self.eviction) is not EvictionPolicy
            or not self.position_map.DIRECT_LEAF_WRITES
        ):
            return TreeORAMEngine.run_trace(self, block_ids, ops, payloads)
        return self._run_trace_fused(block_ids, ops, payloads)

    def _run_trace_fused(
        self,
        block_ids: Sequence[int],
        ops=None,
        payloads: Optional[Sequence[object]] = None,
        before_access=None,
        fallback=None,
    ) -> list[Optional[object]]:
        """One-loop execution of a whole trace with zero steady-state allocation.

        The driver runs the PathORAM access sequence on the engine's own
        dict stash with all attribute lookups hoisted to locals, accumulates
        counters and simulated time in plain Python scalars, and flushes
        them to the engine on exit.  Steady-state work per access is a
        handful of in-place numpy calls on preallocated scratch plus
        pure-Python dict/list operations — no numpy allocation at all.

        ``before_access(block_id)`` is a per-access protocol hook (PrORAM
        locality tracking): returning truthy routes the access through
        ``fallback(block_id, op, payload)`` with the counters, timing and
        leaf buffer flushed before and re-read after, so arbitrary protocol
        code can interleave with the fused loop.
        """
        ids = block_ids.tolist() if isinstance(block_ids, np.ndarray) else block_ids
        n = len(ids)
        op_seq, payload_seq = self._normalize_trace_args(n, ops, payloads)
        if fallback is None:
            fallback = self.access
        results: list[Optional[object]] = [None] * n

        WRITE = AccessOp.WRITE
        num_blocks = self.config.num_blocks
        num_leaves = self._num_leaves
        tree = self.tree
        stash_map = self.stash
        counter = self.counter
        timing = self.timing
        eviction = self.eviction
        observer = self.observer
        capacity = self.config.stash_capacity
        depth = self._depth

        pm = self.position_map.leaves
        pm_item = pm.item
        payload_store = self._payloads
        payload_get = payload_store.get
        slots = memoryview(tree.slot_array)
        caps = tree.bucket_capacities
        level_base = tree.level_base
        node_base = self._wb_node_base
        groups = self._wb_groups
        # Occupancy is maintained eagerly: the path read zeroes its buckets'
        # occupancies in one scatter and the write-back reads and writes each
        # visited level's count through a memoryview.  Deferring it (lazy
        # reads + one vectorized rebuild per sync) measured ~4.5 us/access
        # amortized at 30k-access traces, so eager wins despite touching
        # occupancy on every single access.
        occ = memoryview(tree.bucket_occupancies)
        read_ids = tree.read_path_ids
        fetch = _fused_fetch
        write_back = greedy_write_back

        path_buckets, path_bytes = tree.path_cost(0)
        dt_path = timing.path_transfer_delta(path_buckets, path_bytes)
        dt_client = timing.client_overhead_us * 1e-6

        rng_integers = self.rng.integers
        draw_block = self.LEAF_DRAW_BLOCK or 512
        leaf_buf = self._leaf_buf
        leaf_pos = self._leaf_buf_pos

        evict_enabled = eviction.enabled
        trigger = eviction.trigger_threshold
        should_continue = eviction.should_continue

        # Deferred accumulators (flushed by sync_out, exact under any
        # grouping for the ints; the float repeats the per-charge += order
        # so even simulated time is bit-identical).
        logical = path_reads = path_writes = dummy_reads = 0
        buckets_read = buckets_written = bytes_read = bytes_written = 0
        episodes = hits = 0
        stash_peak = counter.stash_peak
        elapsed = timing.elapsed_s
        history = counter.stash_history if counter.record_stash_history else None

        def sync_out():
            """Flush every accumulator into engine state."""
            nonlocal logical, path_reads, path_writes, dummy_reads
            nonlocal buckets_read, buckets_written, bytes_read, bytes_written
            nonlocal episodes, hits
            self._leaf_buf = leaf_buf
            self._leaf_buf_pos = leaf_pos
            counter.add_bulk(
                logical,
                path_reads,
                path_writes,
                dummy_reads,
                buckets_read,
                buckets_written,
                bytes_read,
                bytes_written,
                stash_peak,
                episodes,
            )
            logical = path_reads = path_writes = dummy_reads = 0
            buckets_read = buckets_written = bytes_read = bytes_written = 0
            episodes = 0
            timing.set_elapsed(elapsed)
            self._stash_hits += hits
            hits = 0

        def sync_in():
            """Re-read engine state after a fallback access ran on it."""
            nonlocal leaf_buf, leaf_pos, stash_peak, elapsed
            leaf_buf = self._leaf_buf
            leaf_pos = self._leaf_buf_pos
            stash_peak = counter.stash_peak
            elapsed = timing.elapsed_s

        try:
            for index in range(n):
                block_id = ids[index]
                # oblivious: allow[OBL001] bounds check against the public
                # num_blocks; invalid ids abort the run loudly
                if block_id < 0 or block_id >= num_blocks:
                    raise BlockNotFoundError(
                        f"block {block_id} outside [0, {num_blocks})"
                    )
                # oblivious: allow[OBL001] protocol hook: PrORAM's merge
                # trigger (declassified in pr_oram.py) routes through the
                # reference access, whose traffic is charged identically
                if before_access is not None and before_access(block_id):
                    sync_out()
                    try:
                        if op_seq is None:
                            results[index] = fallback(block_id, AccessOp.READ, None)
                        else:
                            results[index] = fallback(
                                block_id, op_seq[index], payload_seq[index]
                            )
                    finally:
                        sync_in()
                    continue
                logical += 1
                elapsed += dt_client

                # oblivious: allow[OBL001] fused replay of access()'s stash-hit
                # fast path — hits counted and charged the same way
                if block_id in stash_map:
                    hits += 1
                    leaf = None
                else:
                    leaf = pm_item(block_id)
                    fetch(read_ids, pm, stash_map, leaf)
                    # oblivious: allow[OBL001] stash-capacity check: overflow
                    # is PathORAM's stated failure event and aborts the run
                    # before the read is charged, as in the sequential loop
                    if capacity is not None and len(stash_map) > capacity:
                        raise StashOverflowError(
                            f"stash exceeded its capacity of {capacity} blocks"
                        )
                    path_reads += 1
                    buckets_read += path_buckets
                    bytes_read += path_bytes
                    elapsed += dt_path
                    if observer is not None:
                        observer.observe_path(leaf, dummy=False)
                    # oblivious: allow[OBL001] integrity check; aborts the run
                    if block_id not in stash_map:
                        raise BlockNotFoundError(
                            f"block {block_id} missing from both stash and its path"
                        )

                # Serve from the client payload store, then remap.
                if op_seq is not None and op_seq[index] is WRITE:
                    payload = payload_seq[index]
                    payload_store[block_id] = payload
                    results[index] = payload
                else:
                    results[index] = payload_get(block_id)
                if leaf_pos == len(leaf_buf):
                    leaf_buf = rng_integers(0, num_leaves, size=draw_block).tolist()
                    leaf_pos = 0
                new_leaf = leaf_buf[leaf_pos]
                leaf_pos += 1
                pm[block_id] = new_leaf
                stash_map[block_id] = new_leaf

                if leaf is not None:
                    write_back(
                        stash_map,
                        groups,
                        caps,
                        level_base,
                        node_base,
                        slots,
                        occ,
                        depth,
                        leaf,
                    )
                    path_writes += 1
                    buckets_written += path_buckets
                    bytes_written += path_bytes
                    elapsed += dt_path

                occupancy = len(stash_map)
                # oblivious: allow[OBL001] fused replay of the documented
                # occupancy-triggered background eviction policy
                if evict_enabled and occupancy > trigger:
                    episodes += 1
                    dummies = 0
                    # oblivious: allow[OBL002] episode length tracks occupancy
                    # by design — same documented policy as the trigger
                    while should_continue(occupancy, dummies):
                        if leaf_pos == len(leaf_buf):
                            leaf_buf = rng_integers(
                                0, num_leaves, size=draw_block
                            ).tolist()
                            leaf_pos = 0
                        dummy_leaf = leaf_buf[leaf_pos]
                        leaf_pos += 1
                        fetch(read_ids, pm, stash_map, dummy_leaf)
                        # oblivious: allow[OBL001] stash-capacity check:
                        # overflow aborts the run loudly
                        if capacity is not None and len(stash_map) > capacity:
                            raise StashOverflowError(
                                f"stash exceeded its capacity of {capacity} blocks"
                            )
                        dummy_reads += 1
                        buckets_read += path_buckets
                        bytes_read += path_bytes
                        elapsed += dt_path
                        if observer is not None:
                            observer.observe_path(dummy_leaf, dummy=True)
                        write_back(
                            stash_map,
                            groups,
                            caps,
                            level_base,
                            node_base,
                            slots,
                            occ,
                            depth,
                            dummy_leaf,
                        )
                        path_writes += 1
                        buckets_written += path_buckets
                        bytes_written += path_bytes
                        elapsed += dt_path
                        dummies += 1
                        occupancy = len(stash_map)

                # oblivious: allow[OBL001] client-side metrics (stash peak
                # tracking); no server traffic
                if occupancy > stash_peak:
                    stash_peak = occupancy
                if history is not None:
                    history.append(occupancy)
        finally:
            sync_out()
        return results

    #: Whether :meth:`_write_back_many` uses the cross-path batched planner.
    #: The plan it commits is bit-identical to the sequential per-path loop
    #: (asserted by tests/test_batched_write_back.py and the equivalence
    #: harness), so this stays on by default; the differential tests and the
    #: benchmark's per-path mode flip it off per instance.
    batched_write_back = True

    #: Path count below which :meth:`_write_back_many` takes the per-path
    #: loop even with ``batched_write_back`` on.  The batched planner's
    #: fixed setup (a (k, stash) xor/frexp/argsort pass plus the per-path
    #: gather matrices) only amortizes across enough paths.  Measured per
    #: call on identical state (table in docs/performance.md): per-path
    #: wins on Fat/S4 bins (k <= 4, ~25-40%), Fat/S8 bins break even from
    #: k=5, PathORAM batches break even at k=6-7 and the planner wins from
    #: k=8 (1.05-1.14x, ~1.6x at B=64).
    BATCHED_WB_MIN_PATHS = 8

    def _write_back_many(self, leaves: Sequence[int]) -> None:
        """Write back a batch of paths via the cross-path batched planner.

        Small batches (below :data:`BATCHED_WB_MIN_PATHS` — including the
        single-leaf case, the overwhelmingly common one for the
        single-access protocols) keep the per-path greedy write-back;
        larger batches plan the union of paths in one vectorized pass and
        commit with one scatter into the tree.  Both routes commit
        bit-identical placements, so the threshold is purely a throughput
        choice.
        """
        if len(leaves) < self.BATCHED_WB_MIN_PATHS or not self.batched_write_back:
            for leaf in leaves:
                self._write_back(leaf)
            return
        stash = self.stash
        # oblivious: allow[OBL001] client-side planner gate; the batch's paths
        # are written back and charged in full below regardless
        if stash:
            victims, slots, buckets, occupancies = plan_batched_write_back(
                self.tree, stash, leaves
            )
            self.tree.commit_batch_write(slots, victims, buckets, occupancies)
            # oblivious: allow[OBL002] client-side removal of the planned
            # victims from the stash; the paths' write cost is fixed
            for victim in victims:
                del stash[victim]
        for leaf in leaves:
            num_buckets, num_bytes = self.tree.path_cost(leaf)
            self.counter.record_path_write(num_buckets, num_bytes)
            self.timing.charge_path_transfer(num_buckets, num_bytes)

    def _commit_write_back(self, leaf: int) -> None:
        """Greedy write-back onto the path to ``leaf`` (:func:`greedy_write_back`)."""
        tree = self.tree
        greedy_write_back(
            self.stash,
            self._wb_groups,
            tree.bucket_capacities,
            tree.level_base,
            self._wb_node_base,
            memoryview(tree.slot_array),
            memoryview(tree.bucket_occupancies),
            self._depth,
            leaf,
        )

    def _remove_from_path(self, leaf: int, block_id: int) -> Optional[int]:
        if self.tree.remove_on_path(leaf, block_id):
            return block_id
        return None

    def _relayout_tree(self, by_id: bool = False) -> None:
        """Re-place every block under the current position map (trusted setup).

        Replays the per-object relayout exactly — blocks are taken in
        tree-iteration order (bucket index, then slot) followed by stash
        insertion order, and each is placed as deep as possible on its
        (updated) path — but runs it as one priority-ordered bulk placement
        (:meth:`ArrayTreeStorage.bulk_place_ordered`) instead of a scalar
        placement per block, so PrORAM's static superblock relayout at setup
        is a handful of vectorized passes.  Overflow enters the stash in the
        same priority order the scalar loop would have used.  The tree is
        emptied in place, never rebuilt.  Every block is present, so
        block-id order (``by_id``) is the initial bulk load.
        """
        if by_id:
            self.tree.clear()
            self.stash.clear()
            self._bulk_load()
            return
        ordered = np.concatenate(
            [
                self.tree.all_block_ids(),
                np.fromiter(self.stash, np.int64, len(self.stash)),
            ]
        )
        self.tree.clear()
        self.stash.clear()
        pm = self.position_map
        overflow = self.tree.bulk_place_ordered(ordered, pm.peek_many(ordered))
        self._stash_merge(overflow, pm.peek_many(overflow))
