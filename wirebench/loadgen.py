"""The load generator: one asyncio thread, two gateway connections.

Logical clients are multiplexed over the two connections through the
per-frame ``client_id``. Every reply frame is stamped the moment the
connection's reader task routes it, and counted per request id, so a
lost or duplicated reply is visible.

Open loop: requests are sent on a schedule fixed in advance, and a
request's latency runs from when it was *due*, so a stall also counts
against the requests queued behind it; ``lag`` is how late the sender
actually sent. Closed loop: each logical client sends its next request
when the previous reply arrives; latency runs from the send, and
``lag`` is the turnaround from a reply's arrival to the next send.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.gateway import GatewayClient

#: How long stragglers may take after the last send.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Rec:
    """One request and what came back for it."""

    id: str
    kind: str  # "localize" or "track"
    window: object  # scenario.Window
    frame: Dict
    due: Optional[float] = None  # open loop only
    sent: Optional[float] = None
    arrived: Optional[float] = None
    reply: Optional[Dict] = None
    replies: int = 0
    timed: bool = False
    seq: int = -1  # closed loop: the client's request number

    @property
    def latency(self) -> Optional[float]:
        if self.arrived is None:
            return None
        start = self.due if self.due is not None else self.sent
        return self.arrived - start


class Ledger:
    """Every request sent in a run, by id; counts every reply frame."""

    def __init__(self):
        self.recs: Dict[str, Rec] = {}
        self.stray = 0  # reply frames for ids never sent

    def add(self, rec: Rec) -> Rec:
        if rec.id in self.recs:
            raise ValueError(f"request id {rec.id!r} sent twice")
        self.recs[rec.id] = rec
        return rec

    def arrive(self, frame: Dict, now: float) -> None:
        rec = self.recs.get(str(frame.get("id")))
        if rec is None:
            self.stray += 1
            return
        rec.replies += 1
        if rec.replies == 1:
            rec.arrived = now
            rec.reply = frame


class TimedClient(GatewayClient):
    """A gateway client that stamps and counts every routed frame."""

    def __init__(self, host, port, client_id, ledger: Ledger):
        super().__init__(host, port, client_id, timeout_s=None)
        self.ledger = ledger

    def _route(self, frame: Dict) -> None:
        if frame.get("type") in ("reply", "error"):
            self.ledger.arrive(frame, time.monotonic())
        super()._route(frame)


class Wire:
    """The two connections and the bookkeeping around each send."""

    def __init__(self, clients: Sequence[TimedClient], ledger: Ledger):
        self.clients = list(clients)
        self.ledger = ledger
        self.tasks: set = set()
        self.lags: List[tuple] = []  # (send time, lag seconds)

    def client_for(self, index: int) -> TimedClient:
        return self.clients[index % len(self.clients)]

    async def request(self, rec: Rec, connection: int) -> Dict:
        """Send now and wait for the reply (closed loop)."""
        self.ledger.add(rec)
        rec.sent = time.monotonic()
        return await self.client_for(connection).request(rec.frame)

    def fire(self, rec: Rec, connection: int) -> None:
        """Send now without waiting (open loop)."""
        task = asyncio.ensure_future(self.request(rec, connection))
        self.tasks.add(task)
        task.add_done_callback(self._settled)

    def _settled(self, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        if not task.cancelled():
            task.exception()  # retrieved; a lost reply shows as missing

    async def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> None:
        if self.tasks:
            await asyncio.wait(list(self.tasks), timeout=timeout)
        for task in list(self.tasks):
            task.cancel()


@dataclass(order=True)
class Event:
    """One open-loop send: due ``offset`` seconds after the start."""

    offset: float
    order: int
    make: Callable = field(compare=False)  # () -> (Rec, connection)


async def open_loop(wire: Wire, events: Sequence[Event], start: float,
                    timed_from: float, timed_to: float) -> None:
    """Send every event at its due time; record how late each went."""
    for event in sorted(events):
        due = start + event.offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        rec, connection = event.make()
        rec.due = due
        rec.timed = timed_from <= due < timed_to
        wire.lags.append((due, time.monotonic() - due))
        wire.fire(rec, connection)
    await wire.drain()


async def closed_loop(wire: Wire, clients: int, make: Callable,
                      timed_from: float, timed_to: float) -> None:
    """``clients`` logical clients, one request in flight each.

    ``make(client, k)`` builds client ``client``'s ``k``-th request.
    Clients stop sending at ``timed_to``.
    """

    async def one(client: int) -> None:
        k = 0
        last_arrival = None
        while True:
            now = time.monotonic()
            if now >= timed_to:
                return
            if last_arrival is not None:
                wire.lags.append((now, now - last_arrival))
            rec = make(client, k)
            rec.timed = timed_from <= now < timed_to
            try:
                await wire.request(rec, client)
            except Exception:  # dead connection: the reply counts missing
                return
            last_arrival = rec.arrived if rec.arrived is not None \
                else time.monotonic()
            k += 1

    await asyncio.wait_for(
        asyncio.gather(*(one(c) for c in range(clients))),
        timeout=(timed_to - time.monotonic()) + DRAIN_TIMEOUT_S,
    )


def lag_samples(lags: Sequence[tuple], lo: float, hi: float) -> List[float]:
    """Lags of the sends that fell inside ``[lo, hi)``."""
    return [lag for at, lag in lags if lo <= at < hi]
