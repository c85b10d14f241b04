"""Superblock bins and the lookahead plan produced by the preprocessor.

A *superblock bin* is a group of ``S`` consecutive future embedding-table
accesses that the preprocessor assigns to one uniformly random path.  The
*lookahead plan* is the metadata the preprocessor ships to the trainer GPU:
for every block it records, in trace order, which bin (and therefore which
path) each future occurrence belongs to.  When the client writes a block back
it asks the plan for the block's next occurrence and uses that bin's path as
the block's new position, so that by the time the bin is processed all of its
blocks sit on a single path.

The plan is built from the window's address array and one leaf per bin,
and stored as flat numpy arrays (occurrence indices and bin leaves grouped
by block id via one stable argsort) so that million-access windows can be
planned without per-access Python work.  :class:`SuperblockBin` objects
are built only for callers that want the object-level view
(:attr:`LookaheadPlan.bins`); the engines iterate the underlying arrays
directly through :meth:`LookaheadPlan.iter_bin_arrays`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class SuperblockBin:
    """One group of consecutive future accesses sharing a path.

    Attributes:
        bin_id: Sequential id of the bin within the plan.
        start_index: Trace index of the first access in the bin.
        block_ids: The accessed block ids, in trace order (duplicates kept).
        leaf: The uniformly random path assigned to the bin.
    """

    bin_id: int
    start_index: int
    block_ids: tuple[int, ...]
    leaf: int

    @property
    def end_index(self) -> int:
        """Trace index of the last access in the bin."""
        return self.start_index + len(self.block_ids) - 1

    @property
    def unique_block_ids(self) -> tuple[int, ...]:
        """Distinct block ids in the bin, preserving first-occurrence order."""
        seen: dict[int, None] = {}
        for block_id in self.block_ids:
            seen.setdefault(block_id, None)
        return tuple(seen.keys())

    def __len__(self) -> int:
        return len(self.block_ids)


class LookaheadPlan:
    """Future-path metadata for a window of the access trace.

    Internally the plan keeps three parallel arrays sorted by ``(block id,
    occurrence index)``: the block id, the global trace index and the bin
    leaf of every planned access.  A per-block occurrence lookup is one
    ``bisect`` over a memoryview of the occurrence array within the
    block's range; no per-access Python objects are created.  Initial
    placement reads only the planned ``(block id, first leaf)`` pairs
    (:meth:`first_leaves`), never a table-sized array.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        bin_leaves: np.ndarray,
        superblock_size: int,
        num_leaves: int,
        start_index: int = 0,
    ):
        """Build a plan from a window's address and bin-leaf arrays.

        ``addresses`` is the access stream of the window, whose first access
        sits at trace index ``start_index``; ``bin_leaves`` holds one
        uniformly random leaf per bin of ``superblock_size`` consecutive
        accesses (the last bin may be short).  No :class:`SuperblockBin`
        objects are created until a caller asks for :attr:`bins`.
        """
        if num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        if superblock_size < 1:
            raise ValueError("superblock_size must be >= 1")
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        bin_leaves = np.ascontiguousarray(bin_leaves, dtype=np.int64)
        n = addresses.size
        expected_bins = -(-n // superblock_size) if n else 0
        if bin_leaves.size != expected_bins:
            raise ValueError(
                f"need {expected_bins} bin leaves for {n} accesses, "
                f"got {bin_leaves.size}"
            )
        self._addresses = addresses
        self._bin_leaves = bin_leaves
        self._superblock_size = superblock_size
        self._start_index = start_index
        self._num_leaves = num_leaves
        self._num_accesses = int(n)
        # Group occurrences by block id with one stable sort; within a block
        # the occurrence indices stay in increasing trace order.  The sort
        # order becomes each occurrence's bin index in place.
        order = np.argsort(addresses, kind="stable")
        self._sorted_ids = addresses[order]
        self._sorted_occ = order + start_index
        np.floor_divide(order, superblock_size, out=order)
        self._sorted_leaf = bin_leaves[order]
        del order
        # Per-block ranges from one boundary pass over the sorted ids (the
        # ids are already sorted, so no second sort as in ``np.unique``).
        boundary = np.empty(n, dtype=bool)
        boundary[:1] = True
        np.not_equal(self._sorted_ids[1:], self._sorted_ids[:-1], out=boundary[1:])
        self._starts = np.flatnonzero(boundary)
        del boundary
        self._uniq = self._sorted_ids[self._starts]
        self._ends = np.append(self._starts[1:], n)
        # Highest occurrence index already handed out by consume_next_leaf,
        # per planned block (``-1`` = none); ensures every planned path is
        # used as a reassignment at most once.
        self._consumed = np.full(self._uniq.size, -1, dtype=np.int64)
        # Per-access lookups (next_leaf / consume_next_leaf / occurrences)
        # find the block's position among the planned blocks in a dict,
        # then read zero-copy memoryviews of the per-block and per-access
        # arrays and bisect the block's occurrence range: ~10x faster than
        # per-call searchsorted on tiny array views, and no per-access
        # Python objects.  The dict is built lazily so the vectorized window
        # execution (plan_bin_remaps) never pays for it.
        self._occ_view = memoryview(self._sorted_occ)
        self._leaf_view = memoryview(self._sorted_leaf)
        self._starts_view = memoryview(self._starts)
        self._ends_view = memoryview(self._ends)
        self._consumed_view = memoryview(self._consumed)
        self._index: Optional[dict[int, int]] = None

    def _block_index(self, block_id: int) -> Optional[int]:
        """Position of ``block_id`` among the planned blocks, ``None`` if unplanned."""
        if self._index is None:
            self._index = dict(zip(self._uniq.tolist(), range(self._uniq.size)))
        return self._index.get(block_id)

    # ------------------------------------------------------------------
    @property
    def bins(self) -> tuple[SuperblockBin, ...]:
        """Every superblock bin in trace order, as objects."""
        return tuple(
            SuperblockBin(
                bin_id=bin_id,
                start_index=start_index,
                block_ids=tuple(block_ids.tolist()),
                leaf=leaf,
            )
            for bin_id, (start_index, block_ids, leaf) in enumerate(
                self.iter_bin_arrays()
            )
        )

    def iter_bin_arrays(self) -> Iterator[tuple[int, np.ndarray, int]]:
        """Yield ``(start_index, block_ids, leaf)`` per bin without objects.

        This is the hot-path iteration the engines use: block ids stay
        numpy slices of the window's address array.
        """
        size = self._superblock_size
        leaves = self._bin_leaves.tolist()
        for bin_id, offset in enumerate(range(0, self._addresses.size, size)):
            yield (
                self._start_index + offset,
                self._addresses[offset : offset + size],
                leaves[bin_id],
            )

    @property
    def num_leaves(self) -> int:
        """Number of paths the plan draws from."""
        return self._num_leaves

    @property
    def num_accesses(self) -> int:
        """Total number of accesses covered by the plan."""
        return self._num_accesses

    @property
    def max_block_id(self) -> int:
        """Largest block id planned in this window (``-1`` for an empty plan)."""
        return int(self._uniq[-1]) if self._uniq.size else -1

    def __len__(self) -> int:
        return int(self._bin_leaves.size)

    def __iter__(self) -> Iterable[SuperblockBin]:
        return iter(self.bins)

    # ------------------------------------------------------------------
    def next_leaf(self, block_id: int, after_index: int) -> Optional[int]:
        """Path of the bin holding ``block_id``'s next occurrence after ``after_index``.

        Returns ``None`` when the block does not appear again within the
        planned window, in which case the client falls back to a uniformly
        random path (the plan then carries no information about the block).
        """
        index = self._block_index(block_id)
        if index is None:
            return None
        end = self._ends_view[index]
        pos = bisect_right(self._occ_view, after_index, self._starts_view[index], end)
        if pos >= end:
            return None
        return self._leaf_view[pos]

    def consume_next_leaf(self, block_id: int, after_index: int) -> Optional[int]:
        """Like :meth:`next_leaf`, but each planned occurrence is used once.

        Consecutive reassignments of the same block (for example a fetch
        immediately followed by a gradient write-back) must receive paths of
        *different* future occurrences, otherwise an adversary would observe
        the same leaf several times in close succession and could link those
        accesses.  Consuming occurrences makes every reassignment an
        independent uniform draw, exactly as in PathORAM.
        """
        index = self._block_index(block_id)
        if index is None:
            return None
        end = self._ends_view[index]
        occ = self._occ_view
        floor = max(after_index, self._consumed_view[index])
        pos = bisect_right(occ, floor, self._starts_view[index], end)
        if pos >= end:
            return None
        self._consumed_view[index] = occ[pos]
        return self._leaf_view[pos]

    def first_leaves(self, num_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """``(block_ids, leaves)``: each planned block's first-occurrence leaf.

        Used by trusted-setup initial placement: block ``b`` should start on
        the path of the superblock bin containing its first planned access.
        Only ids below ``num_blocks`` are reported, in ascending order; the
        arrays are as long as the window's distinct blocks, never
        ``num_blocks``.
        """
        mask = (self._uniq >= 0) & (self._uniq < num_blocks)
        return self._uniq[mask], self._sorted_leaf[self._starts[mask]]

    def consume_first_occurrences(self, num_blocks: int) -> None:
        """Mark occurrence 0 of every planned block (id < ``num_blocks``) consumed.

        Initial placement uses each block's first planned path; without
        consuming that occurrence the first in-trace reassignment could be
        handed the *same* leaf again, producing a linkable repeated-leaf
        observation.  Equivalent to ``consume_next_leaf(b, -1)`` per block.
        """
        mask = (self._uniq >= 0) & (self._uniq < num_blocks)
        first = self._sorted_occ[self._starts[mask]]
        np.maximum(self._consumed[mask], first, out=first)
        self._consumed[mask] = first

    def plan_bin_remaps(
        self,
    ) -> tuple[list[list[int]], tuple[np.ndarray, np.ndarray]]:
        """Precompute every bin's remap leaves for a pure window execution.

        When ``run_trace`` executes this window bin by bin, the sequence of
        ``consume_next_leaf`` calls is fully determined by the trace: each
        bin asks once per distinct block with ``after_index`` = the bin's end,
        so the answer is always the leaf of the block's *next* bin (or a
        uniform fallback when there is none).  That makes the whole window
        precomputable in a handful of array passes.

        Returns ``(remaps, final_consumed)``: ``remaps[j]`` lists, for bin
        ``j``'s distinct blocks in first-occurrence order, the next bin's
        leaf or ``-1`` (fallback draw); ``final_consumed`` is the
        ``(block_ids, occurrence_indices)`` array pair of consumption state
        the equivalent call sequence leaves behind, to be applied via
        :meth:`apply_consumption`.
        """
        n = self._num_accesses
        size = self._superblock_size
        if n == 0:
            return [], (self._uniq, self._uniq)  # both empty: nothing planned
        sid = self._sorted_ids
        socc = self._sorted_occ
        bin_idx = (socc - self._start_index) // size
        # First occurrence of each (block, bin) pair, in (block, occ) order.
        block_boundary = np.empty(n, dtype=bool)
        block_boundary[0] = True
        np.not_equal(sid[1:], sid[:-1], out=block_boundary[1:])
        bin_boundary = np.empty(n, dtype=bool)
        bin_boundary[0] = True
        bin_boundary[1:] = block_boundary[1:] | (bin_idx[1:] != bin_idx[:-1])
        first = np.nonzero(bin_boundary)[0]
        fb_block = sid[first]
        fb_bin = bin_idx[first]
        fb_occ = socc[first]
        entries = first.size
        values = np.full(entries, -1, dtype=np.int64)
        if entries > 1:
            has_next = np.nonzero(fb_block[1:] == fb_block[:-1])[0]
            values[has_next] = self._bin_leaves[fb_bin[has_next + 1]]
        # Bins are contiguous occurrence ranges, so sorting the entries by
        # occurrence groups them by bin in first-occurrence order.
        order = np.argsort(fb_occ, kind="stable")
        sorted_values = values[order].tolist()
        counts = np.bincount(
            fb_bin[order], minlength=-(-n // size)
        ).tolist()
        remaps: list[list[int]] = []
        position = 0
        for count in counts:
            remaps.append(sorted_values[position : position + count])
            position += count
        # Final consumption state: a block appearing in >= 2 bins ends with
        # its last bin's first occurrence consumed (the last successful
        # consume); single-bin blocks leave no new state behind.
        last_of_block = np.empty(entries, dtype=bool)
        last_of_block[-1] = True
        np.not_equal(fb_block[1:], fb_block[:-1], out=last_of_block[:-1])
        first_of_block = np.empty(entries, dtype=bool)
        first_of_block[0] = True
        first_of_block[1:] = last_of_block[:-1]
        multi_last = last_of_block & ~first_of_block
        final_consumed = (fb_block[multi_last], fb_occ[multi_last])
        return remaps, final_consumed

    def apply_consumption(
        self, final_consumed: tuple[np.ndarray, np.ndarray]
    ) -> None:
        """Install the consumption state computed by :meth:`plan_bin_remaps`."""
        block_ids, occ = final_consumed
        index = np.searchsorted(self._uniq, block_ids)
        self._consumed[index] = np.maximum(self._consumed[index], occ)

    def occurrences(self, block_id: int) -> list[int]:
        """Trace indices at which ``block_id`` is accessed within the window."""
        index = self._block_index(block_id)
        if index is None:
            return []
        return self._sorted_occ[self._starts[index] : self._ends[index]].tolist()

    def metadata_bytes(self) -> int:
        """Size of the (block id, future path) metadata the preprocessor ships.

        One (block id, path) pair per planned access.  The id field is sized
        by the widest planned block id and the path field by ``num_leaves``,
        both rounded up to whole bytes — a 2^25-leaf tree needs 4 path bytes,
        a 16-leaf test tree just one.
        """
        if self._num_accesses == 0:
            return 0
        max_id = int(self._uniq[-1]) if self._uniq.size else 0
        id_bytes = max(1, (max(max_id, 0).bit_length() + 7) // 8)
        leaf_bytes = max(1, ((self._num_leaves - 1).bit_length() + 7) // 8)
        return self._num_accesses * (id_bytes + leaf_bytes)
