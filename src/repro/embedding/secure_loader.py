"""Bridges embedding rows and ORAM blocks.

The :class:`SecureEmbeddingStore` owns the protected embedding table: rows are
loaded into the ORAM as block payloads at setup, fetched through oblivious
accesses during training, and written back after gradient updates.  The same
store works over any :class:`~repro.oram.base.ObliviousMemory` implementation
(insecure baseline, PathORAM, PrORAM, RingORAM, LAORAM), which is what lets
the examples compare engines end to end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.oram.base import ObliviousMemory
from repro.embedding.table import EmbeddingTable


class SecureEmbeddingStore:
    """Embedding table whose rows live inside an oblivious memory engine.

    Every ``fetch_rows``/``update_rows`` call hands the whole batch to the
    engine's ``access_many``/``write_many``, which batch it however the
    engine does (LAORAM bins, an engine's ``batch_size`` chunks, or one
    fused trace).
    """

    def __init__(self, memory: ObliviousMemory, table: EmbeddingTable):
        if memory.num_blocks < table.num_rows:
            raise ConfigurationError(
                f"ORAM holds {memory.num_blocks} blocks but the table has "
                f"{table.num_rows} rows"
            )
        self.memory = memory
        self.dim = table.dim
        self.num_rows = table.num_rows
        self.row_nbytes = table.row_nbytes
        payloads = {row: table.weights[row].copy() for row in range(table.num_rows)}
        # Both PathORAM-family engines and the insecure baseline expose
        # load_payloads as a trusted-setup bulk load.
        memory.load_payloads(payloads)

    # ------------------------------------------------------------------
    def fetch_rows(self, row_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Obliviously fetch the embedding vectors for ``row_ids``."""
        ids = self._validate(row_ids)
        payloads = self.memory.access_many(ids.tolist())
        rows = np.zeros((ids.size, self.dim), dtype=np.float32)
        for index, payload in enumerate(payloads):
            if payload is not None:
                rows[index] = payload
        return rows

    def update_rows(self, row_ids: Sequence[int] | np.ndarray, values: np.ndarray) -> None:
        """Obliviously write updated embedding vectors back.

        The whole batch goes to the engine's ``write_many``, so rows sharing
        a path are written back together wherever the engine batches.
        Duplicate ids within a batch keep their last value, mirroring a
        sequential write stream.
        """
        ids = self._validate(row_ids)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (ids.size, self.dim):
            raise ConfigurationError("values shape mismatch")
        self.memory.write_many(ids.tolist(), [value.copy() for value in values])

    def materialize(self) -> EmbeddingTable:
        """Read every row back out (test helper verifying data integrity)."""
        table = EmbeddingTable(self.num_rows, self.dim, seed=0)
        rows = self.fetch_rows(np.arange(self.num_rows))
        table.weights[:] = rows
        return table

    # ------------------------------------------------------------------
    def _validate(self, row_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ConfigurationError("row_ids must be one-dimensional")
        if ids.size == 0:
            raise ConfigurationError("row_ids must be non-empty")
        if ids.min() < 0 or ids.max() >= self.num_rows:
            raise ConfigurationError("row id outside table")
        return ids
