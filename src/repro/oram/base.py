"""Abstract interface implemented by every (oblivious or not) memory engine."""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Iterable, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.memory.accounting import TrafficSnapshot


class AccessOp(enum.Enum):
    """Kind of logical access issued by the application."""

    READ = "read"
    WRITE = "write"


class ObliviousMemory(ABC):
    """Common interface of the memory engines in this package.

    Implementations include the insecure baseline, PathORAM, PrORAM,
    RingORAM and the LAORAM client.  The interface is block oriented: the
    application addresses logical blocks (embedding rows) and receives the
    stored payload back.
    """

    @abstractmethod
    def access(
        self,
        block_id: int,
        op: AccessOp = AccessOp.READ,
        new_payload: Optional[object] = None,
    ) -> Optional[object]:
        """Perform one logical access and return the block's payload."""

    def read(self, block_id: int) -> Optional[object]:
        """Convenience wrapper for a read access."""
        return self.access(block_id, AccessOp.READ)

    def write(self, block_id: int, payload: object) -> None:
        """Convenience wrapper for a write access."""
        self.access(block_id, AccessOp.WRITE, new_payload=payload)

    def access_many(self, block_ids: Sequence[int] | Iterable[int]) -> list[Optional[object]]:
        """Access a sequence of blocks; subclasses may batch these."""
        return [self.access(int(block_id)) for block_id in block_ids]

    def write_many(self, block_ids: Sequence[int], payloads: Sequence[object]) -> None:
        """Write a sequence of blocks in order; subclasses may batch these."""
        if len(block_ids) != len(payloads):
            raise ConfigurationError("block_ids and payloads must have equal length")
        for block_id, payload in zip(block_ids, payloads):
            self.write(int(block_id), payload)

    @property
    @abstractmethod
    def statistics(self) -> TrafficSnapshot:
        """Traffic counters accumulated so far."""

    @property
    @abstractmethod
    def simulated_time_s(self) -> float:
        """Simulated elapsed time according to the timing model."""

    @property
    @abstractmethod
    def num_blocks(self) -> int:
        """Number of logical blocks managed by this memory."""

    @property
    @abstractmethod
    def server_memory_bytes(self) -> int:
        """Server-side storage footprint."""
