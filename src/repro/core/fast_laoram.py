"""Array-backed LAORAM client: the vectorized twin of :class:`LAORAMClient`.

Combines :class:`~repro.core.laoram.LookaheadClientMixin` (the whole LAORAM
protocol: plan, trace windowing, initial placement, bin execution through
the engine's batched access step) with the vectorized
:class:`~repro.oram.array_path_oram.ArrayPathORAM` storage backend, exactly
as :class:`~repro.core.laoram.LAORAMClient` combines it with the per-object
one.  Only the storage hooks differ: multi-path reads are one deduplicated
gather, write-backs run the array greedy core (the cross-path batched
planner for bins of ``BATCHED_WB_MIN_PATHS`` paths or more) and the
initial placement is the per-level bulk placement.

Both backends draw from the RNG in the same order and pick the same
write-back victims, so a fixed seed yields bit-identical traffic counters
while this one runs an order of magnitude faster (see
``benchmarks/bench_engine_throughput.py``).
"""

from __future__ import annotations

from repro.oram.array_path_oram import ArrayPathORAM
from repro.core.laoram import LookaheadClientMixin


class FastLAORAMClient(LookaheadClientMixin, ArrayPathORAM):
    """Look-ahead ORAM client over the array-backed execution engine."""
