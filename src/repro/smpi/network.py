"""Link graph with per-link contention for the discrete-event clock.

A transfer from rank *s* to rank *d* occupies every link on its path
for its whole duration α + β·bytes.  The path depends on the machine's
declared topology:

``crossbar``
    Each rank owns a transmit NIC link and a receive NIC link; the path
    is ``(tx[s], rx[d])``.  Disjoint pairs of ranks communicate at full
    bandwidth, but fan-in to one receiver (or fan-out from one sender)
    serializes on that rank's NIC — the behaviour that makes a direct
    P-message gather cost P·(α + β·s) at the root while a binomial tree
    costs log P rounds.

``shared-bus``
    One fabric link carries every transfer; total interconnect
    throughput is a single link's bandwidth (classic bus Ethernet).

Contention is modelled as a FIFO per link: a transfer starts at
``max(ready, next_free of every path link)`` and pushes each link's
``next_free`` to its completion time.  The event loop in
:mod:`repro.smpi.timing` replays sends in deterministic global clock
order, so the queues — and therefore every predicted time — are
reproducible run to run.
"""

from __future__ import annotations


class Link:
    """One directed link: busy until ``next_free``."""

    __slots__ = ("name", "next_free", "busy_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.next_free = 0.0
        self.busy_seconds = 0.0  # total occupied time (utilization)


class LinkGraph:
    """The machine's links plus the path rule for point-to-point."""

    def __init__(
        self,
        nranks: int,
        alpha: float,
        beta: float,
        topology: str = "crossbar",
    ) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        if topology not in ("crossbar", "shared-bus"):
            raise ValueError(f"unknown topology {topology!r}")
        self.nranks = nranks
        self.alpha = alpha
        self.beta = beta
        self.topology = topology
        #: per rank: its transmit and its receive NIC link
        self.tx = [Link(f"tx{r}") for r in range(nranks)]
        self.rx = [Link(f"rx{r}") for r in range(nranks)]
        self._bus = Link("bus") if topology == "shared-bus" else None

    def path(self, src: int, dst: int) -> tuple[Link, ...]:
        """Links a ``src -> dst`` transfer occupies, in order."""
        if src == dst:
            return ()
        if self._bus is not None:
            return (self.tx[src], self._bus, self.rx[dst])
        return (self.tx[src], self.rx[dst])

    def transfer(
        self, src: int, dst: int, nbytes: int, ready: float
    ) -> float:
        """Schedule one message; returns its arrival time.

        ``ready`` is the moment the sender hands the message to the
        network.  The transfer starts once every path link is free and
        holds all of them for α + β·bytes; a rank-local copy
        (``src == dst``) is free.
        """
        links = self.path(src, dst)
        if not links:
            return ready
        start = ready
        for link in links:
            if link.next_free > start:
                start = link.next_free
        end = start + self.alpha + self.beta * nbytes
        for link in links:
            link.next_free = end
            link.busy_seconds += end - start
        return end

    def utilization(self, horizon: float) -> dict[str, float]:
        """Busy fraction of each link over ``[0, horizon]``."""
        if horizon <= 0:
            return {}
        links = list(self.tx) + list(self.rx)
        if self._bus is not None:
            links.append(self._bus)
        return {
            link.name: link.busy_seconds / horizon
            for link in links
            if link.busy_seconds > 0
        }
