"""Client-side stash: trusted temporary storage for blocks awaiting eviction.

:class:`Stash` holds :class:`~repro.memory.block.Block` objects for the
reference per-object engine.  The vectorized engine needs no class of its
own: its stash is a plain insertion-ordered ``dict`` mapping block id to
assigned leaf (payloads live in an engine-level store).  Both follow dict
ordering — removal plus re-insertion moves an id to the end, and iteration
follows insertion order — the ordering the greedy write-back planner uses
for tie-breaking, so the two engines pick identical eviction victims.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.exceptions import StashOverflowError
from repro.memory.block import Block


class Stash:
    """Trusted client buffer holding blocks that could not be written back.

    The stash lives in the trainer GPU's HBM in the paper's setting, so its
    accesses are invisible to the adversary.  An optional hard capacity lets
    experiments detect configurations whose stash would overflow a realistic
    client memory budget.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("stash capacity must be >= 1 when set")
        self._capacity = capacity
        self._entries: dict[int, Block] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._entries

    def __iter__(self) -> Iterator[Block]:
        return iter(self._entries.values())

    @property
    def capacity(self) -> Optional[int]:
        """Hard limit on stash occupancy, or ``None`` for unbounded."""
        return self._capacity

    @property
    def block_ids(self) -> list[int]:
        """Identifiers of every stashed block."""
        return list(self._entries.keys())

    def add(self, block: Block) -> None:
        """Insert a block; replaces any existing entry with the same id."""
        if (
            self._capacity is not None
            and block.block_id not in self._entries
            and len(self._entries) >= self._capacity
        ):
            raise StashOverflowError(
                f"stash exceeded its capacity of {self._capacity} blocks"
            )
        self._entries[block.block_id] = block

    def get(self, block_id: int) -> Optional[Block]:
        """Return the stashed block with ``block_id`` without removing it."""
        return self._entries.get(block_id)

    def pop(self, block_id: int) -> Optional[Block]:
        """Remove and return the stashed block with ``block_id``."""
        return self._entries.pop(block_id, None)

    def clear(self) -> None:
        """Remove every entry (used only by tests)."""
        self._entries.clear()
