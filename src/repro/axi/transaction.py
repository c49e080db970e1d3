"""AXI3 burst transactions.

A transaction is one AXI read or write burst: ``burst_len`` beats of
``BYTES_PER_BEAT`` (32) bytes starting at ``address``.  AXI3 limits INCR
bursts to 16 beats and forbids bursts that cross a 4 KB address boundary;
:func:`check_burst_legal` enforces both.

Transactions are the unit that flows through the interconnect and memory
controllers in the cycle simulation, so the class is deliberately a
``__slots__`` mutable object rather than a frozen dataclass — millions of
them are created per simulation run and attribute access is on the hot
path (see the optimization guide: avoid needless allocation in inner
loops).
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..errors import AxiProtocolError
from ..params import BYTES_PER_BEAT, MAX_BURST_LEN
from ..types import Direction

_AXI_BOUNDARY = 4096

_txn_counter = itertools.count()

#: Completion status codes (``AxiTransaction.status``).
STATUS_OK = 0
#: The fabric bounced the transaction (e.g. its pseudo-channel went
#: offline under a degradation policy); the master may retry.
STATUS_NACK = 1
#: Read data was corrupted beyond the SECDED code's correction
#: capability; the master may retry (a re-read can succeed).
STATUS_POISONED = 2

STATUS_NAMES = {STATUS_OK: "ok", STATUS_NACK: "nack",
                STATUS_POISONED: "poisoned"}


def check_burst_legal(address: int, burst_len: int) -> None:
    """Validate an AXI3 INCR burst.

    Raises :class:`~repro.errors.AxiProtocolError` if the burst length is
    outside 1..16, the address is not beat-aligned, or the burst crosses a
    4 KB boundary (AXI A3.4.1).
    """
    if not 1 <= burst_len <= MAX_BURST_LEN:
        raise AxiProtocolError(
            f"AXI3 burst length must be 1..{MAX_BURST_LEN}, got {burst_len}")
    if address < 0:
        raise AxiProtocolError(f"negative address {address:#x}")
    if address % BYTES_PER_BEAT:
        raise AxiProtocolError(
            f"address {address:#x} not aligned to the {BYTES_PER_BEAT} B beat size")
    last = address + burst_len * BYTES_PER_BEAT - 1
    if address // _AXI_BOUNDARY != last // _AXI_BOUNDARY:
        raise AxiProtocolError(
            f"burst {address:#x}+{burst_len * BYTES_PER_BEAT} crosses a 4 KB boundary")


class AxiTransaction:
    """One AXI3 read or write burst travelling through the system.

    Attributes double as the simulator's bookkeeping: ``issue_cycle`` is
    stamped when the master issues the address, ``complete_cycle`` when the
    last read beat returns (reads) or the write response arrives (writes).
    ``row`` and ``bank`` are the DRAM row and bank of ``local``, decoded
    once when a memory controller accepts the transaction into a
    scheduler queue, so the scheduler scores its reorder window without
    dividing again; like ``pch`` and ``local`` they are ``-1`` until
    then, and a NACKed transaction is decoded again when its retry is
    accepted.

    Parameters
    ----------
    master:
        Index of the issuing bus master.
    direction:
        :data:`~repro.types.Direction.READ` or ``WRITE``.
    address:
        Global byte address of the first beat.
    burst_len:
        Number of beats (1..16).
    axi_id:
        AXI transaction ID.  Transactions with the same ID must complete in
        order; distinct IDs may be reordered (this is what Fig. 6 sweeps).
    validate:
        Skip protocol validation when ``False`` (hot paths that generate
        known-legal addresses).
    """

    __slots__ = (
        "uid", "master", "direction", "address", "burst_len", "axi_id",
        "pch", "local", "row", "bank", "issue_cycle", "accept_cycle",
        "complete_cycle", "beats_done", "hops", "status", "retries",
    )

    def __init__(
        self,
        master: int,
        direction: Direction,
        address: int,
        burst_len: int,
        axi_id: int = 0,
        *,
        validate: bool = True,
    ) -> None:
        if validate:
            check_burst_legal(address, burst_len)
        self.uid: int = next(_txn_counter)
        self.master = master
        self.direction = direction
        self.address = address
        self.burst_len = burst_len
        self.axi_id = axi_id
        #: Destination pseudo-channel; filled in by the address map.
        self.pch: int = -1
        #: Local (within-PCH) byte offset; filled in by the address map.
        self.local: int = -1
        #: DRAM row and bank of ``local``; decoded by the memory
        #: controller that accepts the transaction into its queue.
        self.row: int = -1
        self.bank: int = -1
        #: Cycle the master issued the address phase.
        self.issue_cycle: int = -1
        #: Cycle the memory controller accepted the transaction.
        self.accept_cycle: int = -1
        #: Cycle of the last data beat / write response at the master.
        self.complete_cycle: int = -1
        #: Data beats already transferred back to (reads) or from (writes)
        #: the master.
        self.beats_done: int = 0
        #: Lateral hops the transaction traversed (diagnostics).
        self.hops: int = 0
        #: Completion status (:data:`STATUS_OK` / ``NACK`` / ``POISONED``).
        self.status: int = STATUS_OK
        #: Times this transaction was NACKed/poisoned and re-issued.
        self.retries: int = 0

    # -- derived properties --------------------------------------------------

    @property
    def is_read(self) -> bool:
        return self.direction is Direction.READ

    @property
    def is_write(self) -> bool:
        return self.direction is Direction.WRITE

    @property
    def num_bytes(self) -> int:
        return self.burst_len * BYTES_PER_BEAT

    @property
    def end_address(self) -> int:
        """One past the last byte touched."""
        return self.address + self.num_bytes

    @property
    def latency(self) -> Optional[int]:
        """Round-trip latency in fabric cycles, or ``None`` if in flight."""
        if self.complete_cycle < 0 or self.issue_cycle < 0:
            return None
        return self.complete_cycle - self.issue_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RD" if self.is_read else "WR"
        return (f"AxiTransaction(#{self.uid} {kind} m{self.master} "
                f"addr={self.address:#x} bl={self.burst_len} id={self.axi_id} "
                f"pch={self.pch})")
