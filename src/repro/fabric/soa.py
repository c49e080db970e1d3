"""Struct-of-arrays views of interconnect and master-port state.

Companion of :mod:`repro.dram.soa` for the other state planes of the
model:

* :class:`ArbStateSoA` — the arbitration plane: one entry per
  :class:`~repro.fabric.links.ArbOutput` (bus meters, round-robin
  pointers, booked pending work, stall counters, in-flight heads);
* :class:`McStateSoA` — the controller plane: shared command meters,
  accept counters, last-pop cycles and queue/pending occupancy per
  :class:`~repro.dram.controller.MemoryController`;
* :class:`MasterStateSoA` — the credit plane: outstanding counts,
  pacing meters and retry/NACK counters per
  :class:`~repro.axi.master.MasterPort`.

Occupancy columns (FIFO/queue/heap lengths, in-flight heads) are
*projections*: they fingerprint container state that cannot be rebuilt
from a scalar, so :meth:`restore` writes back only the scalar fields and
leaves projections untouched.  ``capture`` -> ``restore`` -> ``capture``
is exact on an unchanged model, which is what the hypothesis round-trip
suite pins down; :func:`~repro.dram.soa.soa_digest` over the full image
(projections included) is what the cross-engine state tests compare.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..axi.master import MasterPort
from ..dram.controller import MemoryController
from .links import ArbOutput


class ArbStateSoA:
    """One row per arbitrated output bus."""

    #: Scalar fields written back by :meth:`restore`.
    SCALARS = ("busy_until", "last_input", "reserved", "pending_in",
               "granted_flits", "busy_weight", "grant_stalls")

    __slots__ = ("busy_until", "last_input", "reserved", "pending_in",
                 "granted_flits", "busy_weight", "grant_stalls",
                 "inflight_len", "inflight_head")

    def __init__(self, n: int) -> None:
        self.busy_until = np.zeros(n, dtype=np.float64)
        self.last_input = np.zeros(n, dtype=np.int64)
        self.reserved = np.zeros(n, dtype=np.int64)
        self.pending_in = np.zeros(n, dtype=np.int64)
        self.granted_flits = np.zeros(n, dtype=np.int64)
        self.busy_weight = np.zeros(n, dtype=np.float64)
        self.grant_stalls = np.zeros(n, dtype=np.int64)
        self.inflight_len = np.zeros(n, dtype=np.int64)
        self.inflight_head = np.zeros(n, dtype=np.float64)

    @classmethod
    def capture(cls, outputs: Sequence[ArbOutput]) -> "ArbStateSoA":
        soa = cls(len(outputs))
        soa.refresh(outputs)
        return soa

    def refresh(self, outputs: Sequence[ArbOutput]) -> None:
        for i, o in enumerate(outputs):
            for name in self.SCALARS:
                getattr(self, name)[i] = getattr(o, name)
            infl = o.in_flight
            self.inflight_len[i] = len(infl)
            self.inflight_head[i] = infl[0][0] if infl else math.inf

    def restore(self, outputs: Sequence[ArbOutput]) -> None:
        if len(outputs) != len(self.busy_until):
            raise ValueError(
                f"image holds {len(self.busy_until)} outputs, "
                f"got {len(outputs)}")
        for i, o in enumerate(outputs):
            o.busy_until = float(self.busy_until[i])
            o.last_input = int(self.last_input[i])
            o.reserved = int(self.reserved[i])
            o.pending_in = int(self.pending_in[i])
            o.granted_flits = int(self.granted_flits[i])
            o.busy_weight = float(self.busy_weight[i])
            o.grant_stalls = int(self.grant_stalls[i])

    def arrays(self) -> List[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]


class McStateSoA:
    """One row per memory controller."""

    __slots__ = ("cmd_free", "accepts", "last_pop", "queue_len",
                 "pending_len", "pending_head")

    def __init__(self, n_mc: int, pch_per_mc: int) -> None:
        self.cmd_free = np.zeros(n_mc, dtype=np.float64)
        self.accepts = np.zeros(n_mc, dtype=np.int64)
        self.last_pop = np.zeros(n_mc, dtype=np.int64)
        self.queue_len = np.zeros((n_mc, pch_per_mc), dtype=np.int64)
        self.pending_len = np.zeros(n_mc, dtype=np.int64)
        self.pending_head = np.zeros(n_mc, dtype=np.float64)

    @classmethod
    def capture(cls, mcs: Sequence[MemoryController]) -> "McStateSoA":
        if not mcs:
            raise ValueError("capture needs at least one controller")
        soa = cls(len(mcs), len(mcs[0].pchs))
        soa.refresh(mcs)
        return soa

    def refresh(self, mcs: Sequence[MemoryController]) -> None:
        for i, mc in enumerate(mcs):
            self.cmd_free[i] = mc.cmd_free
            self.accepts[i] = mc.accepts
            self.last_pop[i] = mc.last_pop
            self.queue_len[i] = [len(q) for q in mc.queues]
            pend = mc._pending
            self.pending_len[i] = len(pend)
            self.pending_head[i] = pend[0][0] if pend else math.inf

    def restore(self, mcs: Sequence[MemoryController]) -> None:
        if len(mcs) != len(self.cmd_free):
            raise ValueError(
                f"image holds {len(self.cmd_free)} controllers, "
                f"got {len(mcs)}")
        for i, mc in enumerate(mcs):
            mc.cmd_free = float(self.cmd_free[i])
            mc.accepts = int(self.accepts[i])
            mc.last_pop = int(self.last_pop[i])

    def arrays(self) -> List[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]


class MasterStateSoA:
    """One row per bus-master port."""

    #: Scalar fields written back by :meth:`restore`.
    SCALARS = ("outstanding", "next_issue", "issued", "completed",
               "read_issued", "write_issued", "retries", "nacks",
               "unrecoverable")

    __slots__ = ("outstanding", "next_issue", "issued", "completed",
                 "read_issued", "write_issued", "retries", "nacks",
                 "unrecoverable", "staged", "retry_len", "retry_head")

    def __init__(self, n: int) -> None:
        self.outstanding = np.zeros(n, dtype=np.int64)
        self.next_issue = np.zeros(n, dtype=np.float64)
        self.issued = np.zeros(n, dtype=np.int64)
        self.completed = np.zeros(n, dtype=np.int64)
        self.read_issued = np.zeros(n, dtype=np.int64)
        self.write_issued = np.zeros(n, dtype=np.int64)
        self.retries = np.zeros(n, dtype=np.int64)
        self.nacks = np.zeros(n, dtype=np.int64)
        self.unrecoverable = np.zeros(n, dtype=np.int64)
        self.staged = np.zeros(n, dtype=np.int64)
        self.retry_len = np.zeros(n, dtype=np.int64)
        self.retry_head = np.zeros(n, dtype=np.float64)

    @classmethod
    def capture(cls, masters: Sequence[MasterPort]) -> "MasterStateSoA":
        soa = cls(len(masters))
        soa.refresh(masters)
        return soa

    def refresh(self, masters: Sequence[MasterPort]) -> None:
        for i, mp in enumerate(masters):
            for name in self.SCALARS:
                getattr(self, name)[i] = getattr(mp, name)
            self.staged[i] = mp._staged is not None
            retry = mp._retry
            self.retry_len[i] = len(retry)
            self.retry_head[i] = retry[0][0] if retry else math.inf

    def restore(self, masters: Sequence[MasterPort]) -> None:
        if len(masters) != len(self.outstanding):
            raise ValueError(
                f"image holds {len(self.outstanding)} masters, "
                f"got {len(masters)}")
        for i, mp in enumerate(masters):
            mp.outstanding = int(self.outstanding[i])
            mp.next_issue = float(self.next_issue[i])
            mp.issued = int(self.issued[i])
            mp.completed = int(self.completed[i])
            mp.read_issued = int(self.read_issued[i])
            mp.write_issued = int(self.write_issued[i])
            mp.retries = int(self.retries[i])
            mp.nacks = int(self.nacks[i])
            mp.unrecoverable = int(self.unrecoverable[i])

    def arrays(self) -> List[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]
