"""The four basic access patterns of Table I (SCS, CCS, SCRA, CCRA).

All sources share the same skeleton: an evenly interleaved read/write
schedule (:func:`~repro.traffic.mix.direction_sequence`) and a per-
direction address generator.  Addresses are aligned to the burst size, so
every generated transaction is AXI3-legal by construction (a power-of-two
burst never crosses a 4 KB boundary when size-aligned).

* **SCS** — single-channel strided: master ``m`` streams through the
  memory of *its own* pseudo-channel (the manual 1:1 partitioning used by
  prior accelerator work).  Reads and writes stream through disjoint
  halves of the local capacity.
* **CCS** — cross-channel strided: data lies globally contiguous and
  every master requests the globally subsequent chunk in turn.  Under the
  vendor's contiguous address map this collapses onto one PCH — the
  hot-spot of Fig. 3b; under the MAO's interleaving it spreads over all
  channels.
* **SCRA** — random inside the master's own channel.
* **CCRA** — random over the whole device, ≤512 B per transaction.

Random sources draw addresses from a per-master ``numpy`` generator in
vectorized batches (the hot loop only pops precomputed integers).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..axi.transaction import AxiTransaction
from ..core.address_map import AddressMap, ContiguousMap
from ..errors import ConfigError
from ..params import BYTES_PER_BEAT, HbmPlatform, DEFAULT_PLATFORM
from ..types import Direction, Pattern, RWRatio, TWO_TO_ONE
from .mix import direction_sequence

_RANDOM_BATCH = 4096


class PatternSource:
    """Common skeleton of all pattern traffic sources."""

    def __init__(
        self,
        master: int,
        platform: HbmPlatform,
        burst_len: int,
        rw: RWRatio = TWO_TO_ONE,
    ) -> None:
        if not 1 <= burst_len <= 16:
            raise ConfigError(f"burst_len must be 1..16, got {burst_len}")
        self.master = master
        self.platform = platform
        self.burst_len = burst_len
        self.burst_bytes = burst_len * BYTES_PER_BEAT
        self.rw = rw
        self._schedule = direction_sequence(rw)
        self._sched_idx = 0
        self.generated = 0

    # -- protocol --------------------------------------------------------------

    def next_txn(self, cycle: int) -> Optional[AxiTransaction]:
        d = self._schedule[self._sched_idx]
        self._sched_idx = (self._sched_idx + 1) % len(self._schedule)
        addr = self._next_address(d)
        if addr is None:
            return None
        self.generated += 1
        return AxiTransaction(self.master, d, addr, self.burst_len,
                              validate=False)

    def _next_address(self, direction: Direction) -> Optional[int]:
        raise NotImplementedError


class ScsSource(PatternSource):
    """Single-channel strided: stream within the master's own PCH."""

    def __init__(
        self,
        master: int,
        platform: HbmPlatform = DEFAULT_PLATFORM,
        burst_len: int = 16,
        rw: RWRatio = TWO_TO_ONE,
        address_map: Optional[AddressMap] = None,
    ) -> None:
        super().__init__(master, platform, burst_len, rw)
        self.address_map = address_map or ContiguousMap(platform)
        self.pch = platform.local_pch_of_master(master)
        half = platform.pch_capacity // 2
        self._base = {Direction.READ: 0, Direction.WRITE: half}
        self._size = half
        self._offset = {Direction.READ: 0, Direction.WRITE: 0}

    def _next_address(self, direction: Direction) -> Optional[int]:
        off = self._offset[direction]
        local = self._base[direction] + off
        self._offset[direction] = (off + self.burst_bytes) % self._size
        return self.address_map.global_of(self.pch, local)


class CcsSource(PatternSource):
    """Cross-channel strided: globally contiguous collective stream."""

    #: Default working-set size per direction (fits inside one PCH so the
    #: contiguous map exhibits the paper's hot-spot behaviour).
    DEFAULT_REGION = 64 * 1024 * 1024

    def __init__(
        self,
        master: int,
        platform: HbmPlatform = DEFAULT_PLATFORM,
        burst_len: int = 16,
        rw: RWRatio = TWO_TO_ONE,
        read_base: int = 0,
        write_base: Optional[int] = None,
        region_size: int = DEFAULT_REGION,
        num_masters: Optional[int] = None,
    ) -> None:
        super().__init__(master, platform, burst_len, rw)
        self.num_masters = num_masters or platform.num_masters
        self.region_size = region_size
        self._base = {
            Direction.READ: read_base,
            Direction.WRITE: write_base if write_base is not None
            else read_base + region_size,
        }
        self._step = {Direction.READ: 0, Direction.WRITE: 0}

    def _next_address(self, direction: Direction) -> Optional[int]:
        k = self._step[direction]
        self._step[direction] = k + 1
        chunk = (k * self.num_masters + self.master) * self.burst_bytes
        return self._base[direction] + chunk % self.region_size


class _RandomMixin:
    """Vectorized random-offset drawing (batched numpy)."""

    def _init_random(self, seed: int, span_chunks: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._span = span_chunks
        self._batch: Optional[np.ndarray] = None
        self._batch_idx = 0

    def _next_chunk_index(self) -> int:
        if self._batch is None or self._batch_idx >= len(self._batch):
            self._batch = self._rng.integers(
                0, self._span, size=_RANDOM_BATCH, dtype=np.int64)
            self._batch_idx = 0
        v = int(self._batch[self._batch_idx])
        self._batch_idx += 1
        return v


class ScraSource(PatternSource, _RandomMixin):
    """Single-channel random access inside the master's own PCH."""

    def __init__(
        self,
        master: int,
        platform: HbmPlatform = DEFAULT_PLATFORM,
        burst_len: int = 16,
        rw: RWRatio = TWO_TO_ONE,
        address_map: Optional[AddressMap] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(master, platform, burst_len, rw)
        self.address_map = address_map or ContiguousMap(platform)
        self.pch = platform.local_pch_of_master(master)
        self._init_random(seed * 1000003 + master,
                          platform.pch_capacity // self.burst_bytes)

    def _next_address(self, direction: Direction) -> Optional[int]:
        local = self._next_chunk_index() * self.burst_bytes
        return self.address_map.global_of(self.pch, local)


class CcraSource(PatternSource, _RandomMixin):
    """Cross-channel random access over the whole device (≤512 B chunks)."""

    def __init__(
        self,
        master: int,
        platform: HbmPlatform = DEFAULT_PLATFORM,
        burst_len: int = 16,
        rw: RWRatio = TWO_TO_ONE,
        seed: int = 0,
        span_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(master, platform, burst_len, rw)
        span = span_bytes if span_bytes is not None else platform.total_capacity
        self._init_random(seed * 1000003 + master, span // self.burst_bytes)

    def _next_address(self, direction: Direction) -> Optional[int]:
        return self._next_chunk_index() * self.burst_bytes


def make_pattern_sources(
    pattern: Pattern,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    burst_len: int = 16,
    rw: RWRatio = TWO_TO_ONE,
    address_map: Optional[AddressMap] = None,
    seed: int = 0,
) -> List[PatternSource]:
    """One source per bus master for a Table I pattern.

    ``address_map`` is only needed for the single-channel patterns (so the
    master targets *its own* PCH regardless of the mapping the fabric
    applies); cross-channel patterns generate global addresses and let the
    fabric's map decide where they land.
    """
    n = platform.num_masters
    if pattern is Pattern.SCS:
        return [ScsSource(m, platform, burst_len, rw, address_map)
                for m in range(n)]
    if pattern is Pattern.CCS:
        return [CcsSource(m, platform, burst_len, rw) for m in range(n)]
    if pattern is Pattern.SCRA:
        return [ScraSource(m, platform, burst_len, rw, address_map, seed)
                for m in range(n)]
    if pattern is Pattern.CCRA:
        return [CcraSource(m, platform, burst_len, rw, seed) for m in range(n)]
    raise ConfigError(f"unknown pattern {pattern!r}")
