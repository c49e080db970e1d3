"""Per-bank DRAM row state.

A pseudo-channel's local address space is striped over rows of
``row_bytes`` bytes; row ``r`` lives in bank ``r % num_banks``.  Each bank
remembers its open row and the earliest cycle it may activate again
(``t_rc`` after its previous activate).  Activates to *different* banks may
be pipelined every ``t_rrd`` cycles, which is what lets streaming access
hide row changes while same-bank ping-pong (long strides, Fig. 5) cannot.
"""

from __future__ import annotations

from ..params import DramTiming


class BankSet:
    """Row/activate state of all banks of one pseudo-channel."""

    __slots__ = ("timing", "open_row", "next_act", "last_act_any",
                 "activates", "row_hits", "conflicts")

    def __init__(self, timing: DramTiming) -> None:
        self.timing = timing
        n = timing.num_banks
        #: Open row per bank; -1 means closed (power-up state).
        self.open_row = [-1] * n
        #: Earliest cycle each bank may activate again (tRC rule).
        self.next_act = [0.0] * n
        #: Most recent activate on *any* bank (tRRD rule).
        self.last_act_any = -1.0e18
        self.activates = 0
        self.row_hits = 0
        #: Misses that closed a *different* open row first (precharge
        #: paid); ``activates - conflicts`` opened a cold bank.
        self.conflicts = 0

    def bank_of(self, local_addr: int) -> int:
        row = local_addr // self.timing.row_bytes
        return row % self.timing.num_banks

    def would_hit(self, local_addr: int) -> bool:
        """Whether an access to ``local_addr`` would hit the open row
        (used by the controller's FR-FCFS-style scheduler)."""
        row = local_addr // self.timing.row_bytes
        return self.open_row[row % self.timing.num_banks] == row

    def access(self, local_addr: int, earliest: float) -> tuple[float, bool]:
        """Perform the row management for an access starting no earlier than
        ``earliest``.

        Returns ``(column_ready, was_hit)``: the cycle from which column
        commands may issue, and whether the access hit the open row.
        """
        t = self.timing
        row = local_addr // t.row_bytes
        bank = row % t.num_banks
        if self.open_row[bank] == row:
            self.row_hits += 1
            return earliest, True
        # Row miss: (precharge if a row is open, then) activate.
        act = earliest
        nxt = self.next_act[bank]
        if nxt > act:
            act = nxt
        rrd_ready = self.last_act_any + t.t_rrd
        if rrd_ready > act:
            act = rrd_ready
        if self.open_row[bank] < 0:
            penalty = t.t_rcd
        else:
            penalty = t.t_rp + t.t_rcd
            self.conflicts += 1
        self.open_row[bank] = row
        self.next_act[bank] = act + t.t_rc
        self.last_act_any = act
        self.activates += 1
        return act + penalty, False

    def park(self, until: float) -> None:
        """Block all activates until ``until`` and close every row.

        Used by the fault model (refresh storm / thermal throttle): a
        storm of back-to-back refreshes closes the open rows and keeps
        the banks busy, so the first access afterwards pays a full
        activate on a cold bank.
        """
        for bank in range(self.timing.num_banks):
            if self.next_act[bank] < until:
                self.next_act[bank] = until
            self.open_row[bank] = -1

    @property
    def hit_rate(self) -> float:
        total = self.activates + self.row_hits
        return self.row_hits / total if total else 0.0
