"""Struct-of-arrays (SoA) views of per-pseudo-channel DRAM state.

This module holds the adapters that move the *model's* scalar per-PCH
state in and out of a numpy layout indexed by pseudo-channel.
:class:`DramStateSoA` captures every mutable field of the 32
:class:`~repro.dram.pch.PseudoChannel` objects (bus meters, bank page
tables, refresh clocks, diagnostic counters) into one array per field —
``bus_free`` becomes a ``float64[num_pch]`` vector, ``open_row`` a
``int64[num_pch, banks]`` matrix, and so on.

Two uses:

* the cross-engine property tests drive the same workload through the
  fast and legacy loops and compare :meth:`DramStateSoA.digest`
  fingerprints — a single hash over the full SoA image — to prove the
  fast tier leaves *model* state (not just reports) bit-identical;
* ``capture`` -> ``restore`` round-trips are the save/load primitive the
  hypothesis suite exercises for exactness (floats pass through
  untouched; ``None`` sentinels survive the integer encoding).

The adapters are deliberately one-shot (capture/restore), not live
mirrors: per-PCH *service* is order-sensitive (FR-FCFS picks, same-ID
ordering) and stays scalar in the model itself.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

from .pch import PseudoChannel

#: Integer stand-in for ``last_miss_delta[d] is None`` (no prior miss in
#: direction ``d``).  Real deltas are row-index differences, far inside
#: int64 range, so the extreme value can never collide.
DELTA_NONE = np.iinfo(np.int64).min

#: ``PchCounters`` fields mirrored into the counter matrix, in order.
COUNTER_FIELDS: Tuple[str, ...] = (
    "txns_serviced", "beats_transferred", "read_beats", "write_beats",
    "turnarounds", "port_stalls", "miss_gaps", "refreshes",
    "ecc_corrected", "ecc_uncorrectable")


class DramStateSoA:
    """All mutable per-PCH DRAM state, one numpy array per field."""

    __slots__ = (
        "bus_free", "last_dir", "miss_streak", "last_miss_row",
        "last_miss_delta", "chan_debt", "next_refresh", "refresh_bank",
        "open_row", "next_act", "last_act_any",
        "activates", "row_hits", "conflicts", "counters")

    def __init__(self, num_pch: int, num_banks: int) -> None:
        self.bus_free = np.zeros(num_pch, dtype=np.float64)
        self.last_dir = np.zeros(num_pch, dtype=np.int64)
        self.miss_streak = np.zeros(num_pch, dtype=np.int64)
        self.last_miss_row = np.zeros((num_pch, 2), dtype=np.int64)
        self.last_miss_delta = np.zeros((num_pch, 2), dtype=np.int64)
        self.chan_debt = np.zeros((num_pch, 2), dtype=np.float64)
        self.next_refresh = np.zeros(num_pch, dtype=np.float64)
        self.refresh_bank = np.zeros(num_pch, dtype=np.int64)
        self.open_row = np.zeros((num_pch, num_banks), dtype=np.int64)
        self.next_act = np.zeros((num_pch, num_banks), dtype=np.float64)
        self.last_act_any = np.zeros(num_pch, dtype=np.float64)
        self.activates = np.zeros(num_pch, dtype=np.int64)
        self.row_hits = np.zeros(num_pch, dtype=np.int64)
        self.conflicts = np.zeros(num_pch, dtype=np.int64)
        self.counters = np.zeros(
            (num_pch, len(COUNTER_FIELDS)), dtype=np.int64)

    # -- scalar <-> array ----------------------------------------------------

    @classmethod
    def capture(cls, pchs: Sequence[PseudoChannel]) -> "DramStateSoA":
        """Snapshot ``pchs`` into a fresh SoA image."""
        if not pchs:
            raise ValueError("capture needs at least one pseudo-channel")
        soa = cls(len(pchs), len(pchs[0].banks.open_row))
        soa.refresh(pchs)
        return soa

    def refresh(self, pchs: Sequence[PseudoChannel]) -> None:
        """Re-read every field of ``pchs`` into this image in place."""
        for i, pch in enumerate(pchs):
            self.bus_free[i] = pch.bus_free
            self.last_dir[i] = pch.last_dir
            self.miss_streak[i] = pch.miss_streak
            self.last_miss_row[i] = pch.last_miss_row
            self.last_miss_delta[i] = [
                DELTA_NONE if d is None else d for d in pch.last_miss_delta]
            self.chan_debt[i] = pch.chan_debt
            self.next_refresh[i] = pch.next_refresh
            self.refresh_bank[i] = pch.refresh_bank
            banks = pch.banks
            self.open_row[i] = banks.open_row
            self.next_act[i] = banks.next_act
            self.last_act_any[i] = banks.last_act_any
            self.activates[i] = banks.activates
            self.row_hits[i] = banks.row_hits
            self.conflicts[i] = banks.conflicts
            c = pch.counters
            for j, name in enumerate(COUNTER_FIELDS):
                self.counters[i, j] = getattr(c, name)

    def restore(self, pchs: Sequence[PseudoChannel]) -> None:
        """Write this image back onto ``pchs``, field for field."""
        if len(pchs) != len(self.bus_free):
            raise ValueError(
                f"image holds {len(self.bus_free)} PCHs, got {len(pchs)}")
        for i, pch in enumerate(pchs):
            pch.bus_free = float(self.bus_free[i])
            pch.last_dir = int(self.last_dir[i])
            pch.miss_streak = int(self.miss_streak[i])
            pch.last_miss_row = [int(v) for v in self.last_miss_row[i]]
            pch.last_miss_delta = [
                None if v == DELTA_NONE else int(v)
                for v in self.last_miss_delta[i]]
            pch.chan_debt = [float(v) for v in self.chan_debt[i]]
            pch.next_refresh = float(self.next_refresh[i])
            pch.refresh_bank = int(self.refresh_bank[i])
            banks = pch.banks
            banks.open_row = [int(v) for v in self.open_row[i]]
            banks.next_act = [float(v) for v in self.next_act[i]]
            banks.last_act_any = float(self.last_act_any[i])
            banks.activates = int(self.activates[i])
            banks.row_hits = int(self.row_hits[i])
            banks.conflicts = int(self.conflicts[i])
            c = pch.counters
            for j, name in enumerate(COUNTER_FIELDS):
                setattr(c, name, int(self.counters[i, j]))

    # -- fingerprinting --------------------------------------------------------

    def arrays(self) -> List[np.ndarray]:
        """Every field array, in declaration order."""
        return [getattr(self, name) for name in self.__slots__]

    def digest(self) -> str:
        """SHA-256 over the raw bytes of every array (layout-stable)."""
        return soa_digest(self.arrays())


def soa_digest(arrays: Sequence[np.ndarray]) -> str:
    """Order-sensitive SHA-256 fingerprint of a sequence of arrays.

    Hashes each array's shape alongside its bytes so ``[1, 2] + [3]``
    and ``[1] + [2, 3]`` cannot collide.
    """
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
