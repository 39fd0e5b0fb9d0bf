"""Simulated message network.

Used by the BFT replication library (control-tier replicas exchanging
protocol messages) and by worker nodes sending digests/heartbeats to the
trusted tier.  Latency is sampled per message from a seeded stream, so
runs are reproducible; per-link partitions and drop rules model the
adversary's (limited) network powers — recall the paper's system model
forbids the adversary from *preventing* communication, but a Byzantine
*endpoint* may still refuse to send (omission).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.common.errors import SimulationError
from repro.simulation.events import EventLoop
from repro.telemetry import DISABLED

MessageHandler = Callable[[str, Any], None]

#: Delay rule: (sender, receiver, message) -> extra latency seconds to
#: add on top of the sampled base latency (0 for "no opinion").  Models
#: adversarial delay spikes on selected links without reordering the
#: underlying latency stream.
DelayRule = Callable[[str, str, Any], float]


@dataclass(frozen=True)
class LatencyModel:
    """Uniform latency in ``[base, base + jitter]`` seconds."""

    base: float = 0.001
    jitter: float = 0.002

    def sample(self, rng: random.Random) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.random() * self.jitter


class NetworkFilter(Protocol):
    """Hook deciding whether a message is delivered.

    Implementations model Byzantine senders (selective omission) or test
    scenarios (partitions).  Return ``True`` to deliver.
    """

    def __call__(self, sender: str, receiver: str, message: Any) -> bool: ...


class Topology:
    """Named regions with a WAN latency matrix for cross-region sends.

    Endpoints are assigned to regions with :meth:`assign`; unassigned
    endpoints (and same-region pairs) keep the network's flat LAN
    :class:`LatencyModel`.  Cross-region sends use the per-pair model
    from ``links`` when one exists, else the default ``wan`` model —
    still one sample per message from the same seeded stream, so adding
    a topology never reorders latency draws.
    """

    def __init__(
        self,
        regions: tuple[str, ...] | list[str],
        wan: LatencyModel | None = None,
        links: dict[tuple[str, str], LatencyModel] | None = None,
    ) -> None:
        self.regions = tuple(regions)
        if len(set(self.regions)) != len(self.regions):
            raise SimulationError("topology regions must be unique")
        self.wan = wan or LatencyModel(base=0.08, jitter=0.02)
        self._links: dict[tuple[str, str], LatencyModel] = {}
        for (a, b), model in (links or {}).items():
            for region in (a, b):
                if region not in self.regions:
                    raise SimulationError(f"unknown region in link: {region!r}")
            self._links[(a, b)] = model
        self._assignments: dict[str, str] = {}

    def assign(self, endpoint: str, region: str) -> None:
        if region not in self.regions:
            raise SimulationError(f"unknown region: {region!r}")
        self._assignments[endpoint] = region

    def region_of(self, endpoint: str) -> str | None:
        return self._assignments.get(endpoint)

    def members(self, region: str) -> list[str]:
        return sorted(
            endpoint
            for endpoint, assigned in self._assignments.items()
            if assigned == region
        )

    def link_model(self, sender: str, receiver: str) -> LatencyModel | None:
        """WAN model for a cross-region pair, ``None`` for LAN traffic."""
        source = self._assignments.get(sender)
        sink = self._assignments.get(receiver)
        if source is None or sink is None or source == sink:
            return None
        return self._links.get((source, sink), self.wan)


class _InFlight:
    """A scheduled-but-undelivered message, re-checkable by new filters."""

    __slots__ = ("sender", "receiver", "message", "dropped", "send_ref")

    def __init__(
        self, sender: str, receiver: str, message: Any, send_ref: int = 0
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.message = message
        self.dropped = False
        #: Trace id of the ``net.send`` event when causal tracing is on
        #: (0 otherwise) — the message id the matching ``net.recv``
        #: refers back to.  Lives on the in-flight entry, never on the
        #: message object itself, so payloads/digests are untouched.
        self.send_ref = send_ref


class SimNetwork:
    """Point-to-point message delivery over the event loop.

    Endpoints register a handler by name; :meth:`send` schedules delivery
    after a sampled latency.  Messages between live endpoints are never
    reordered per-link beyond what latency jitter induces, matching an
    asynchronous network without FIFO guarantees.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: random.Random,
        latency: LatencyModel | None = None,
        telemetry=None,
    ) -> None:
        self.loop = loop
        self.rng = rng
        self.latency = latency or LatencyModel()
        self.topology: Topology | None = None
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._handlers: dict[str, MessageHandler] = {}
        self._filters: list[NetworkFilter] = []
        self._delay_rules: list[DelayRule] = []
        self._in_flight: list[_InFlight] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Rejected by an installed filter (partition / selective drop).
        self.messages_filtered = 0
        #: Receiver unknown at delivery time (crashed or unregistered).
        self.messages_undeliverable = 0
        self.bytes_sent = 0

    @property
    def messages_dropped(self) -> int:
        """Total losses, whatever the cause (filtered + undeliverable)."""
        return self.messages_filtered + self.messages_undeliverable

    def register(self, name: str, handler: MessageHandler) -> None:
        """Register (or replace) the endpoint called ``name``."""
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def is_registered(self, name: str) -> bool:
        return name in self._handlers

    def set_topology(self, topology: Topology | None) -> None:
        """Attach (or clear) the region topology for WAN latency."""
        self.topology = topology

    def add_filter(self, rule: NetworkFilter) -> None:
        """Install a delivery filter (all filters must approve delivery).

        The new filter also re-checks messages already in flight: a
        message delayed past a partition's installation is dropped, not
        delivered late once the partition heals — links that go down
        lose the packets they were carrying.
        """
        self._filters.append(rule)
        for entry in self._in_flight:
            if not entry.dropped and not rule(
                entry.sender, entry.receiver, entry.message
            ):
                entry.dropped = True
                self.messages_filtered += 1
                self._count("network_messages_dropped", cause="filtered")

    def remove_filter(self, rule: NetworkFilter) -> None:
        self._filters.remove(rule)

    def add_delay(self, rule: DelayRule) -> None:
        """Install a delay rule; extra latencies from all rules add up."""
        self._delay_rules.append(rule)

    def remove_delay(self, rule: DelayRule) -> None:
        self._delay_rules.remove(rule)

    def _count(self, counter: str, **labels) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(counter, **labels).inc()

    def send(self, sender: str, receiver: str, message: Any, size_bytes: int = 0) -> None:
        """Send ``message``; delivery happens asynchronously (or never, if
        the receiver is unknown or a filter rejects it)."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self._count("network_messages_sent")
        for rule in self._filters:
            if not rule(sender, receiver, message):
                self.messages_filtered += 1
                self._count("network_messages_dropped", cause="filtered")
                return
        model = self.latency
        if self.topology is not None:
            wan = self.topology.link_model(sender, receiver)
            if wan is not None:
                model = wan
        delay = model.sample(self.rng)
        for rule in self._delay_rules:
            delay += max(rule(sender, receiver, message), 0.0)
        tracer = self.telemetry.tracer
        causal = self.telemetry.causal and tracer.enabled
        send_ref = 0
        if causal:
            # The send event's own trace id doubles as the message id:
            # the recv event carries it as ``mid``, giving the causal
            # DAG a send->recv edge without mutating the message.
            attrs = {
                "sender": sender,
                "receiver": receiver,
                "kind": type(message).__name__,
                "size": size_bytes,
            }
            # Protocol messages expose their round: seq/view make the
            # causal analysis's per-round grouping message-granular.
            seq = getattr(message, "seq", None)
            if seq is not None:
                attrs["seq"] = seq
            view = getattr(message, "view", None)
            if view is not None:
                attrs["view"] = view
            send_ref = tracer.event("net.send", **attrs)
        entry = _InFlight(sender, receiver, message, send_ref=send_ref)
        self._in_flight.append(entry)

        def deliver() -> None:
            self._in_flight.remove(entry)
            if entry.dropped:
                # Caught by a filter installed while in flight; already
                # counted when the filter swept it.
                return
            handler = self._handlers.get(receiver)
            if handler is None:
                # Receiver crashed/unregistered meanwhile: silently drop,
                # as a real datagram network would.
                self.messages_undeliverable += 1
                self._count("network_messages_dropped", cause="undeliverable")
                if causal:
                    tracer.event(
                        "net.lost", mid=entry.send_ref, cause="undeliverable"
                    )
                return
            self.messages_delivered += 1
            self._count("network_messages_delivered")
            if causal:
                recv_ref = tracer.event(
                    "net.recv",
                    mid=entry.send_ref,
                    sender=sender,
                    receiver=receiver,
                    kind=type(message).__name__,
                )
                # Everything the handler records — protocol spans,
                # follow-up sends — parents to this delivery, which is
                # exactly the causal chain.
                tracer.push_context(recv_ref)
                try:
                    handler(sender, message)
                finally:
                    tracer.pop_context()
            else:
                handler(sender, message)

        self.loop.schedule(delay, deliver, label=f"net:{sender}->{receiver}")

    def broadcast(self, sender: str, receivers: list[str], message: Any, size_bytes: int = 0) -> None:
        """Send ``message`` to every receiver independently.

        Receivers are visited in sorted order so latency-stream
        consumption — and therefore the whole downstream simulation —
        does not depend on the caller's list ordering.
        """
        for receiver in sorted(receivers):
            self.send(sender, receiver, message, size_bytes)



def partition(groups: list[set[str]]) -> NetworkFilter:
    """Build a filter that only delivers within a group.

    Endpoints absent from every group communicate freely.
    """

    def rule(sender: str, receiver: str, message: Any) -> bool:
        for group in groups:
            sender_in = sender in group
            receiver_in = receiver in group
            if sender_in != receiver_in:
                return False
        return True

    return rule


def selective_drop(
    endpoints: set[str], probability: float, rng: random.Random
) -> NetworkFilter:
    """Endpoint network fault: messages *from* ``endpoints`` are dropped
    with ``probability`` (a Byzantine endpoint refusing to send — the
    adversary may silence its own nodes, never the network at large)."""

    def rule(sender: str, receiver: str, message: Any) -> bool:
        if sender not in endpoints:
            return True
        return rng.random() >= probability

    return rule


def asymmetric_partition(sources: set[str], sinks: set[str]) -> NetworkFilter:
    """One-way partition: ``sources`` cannot reach ``sinks``, but the
    reverse direction still flows — the classic asymmetric WAN failure
    where a region can hear the world but not answer it."""

    def rule(sender: str, receiver: str, message: Any) -> bool:
        return not (sender in sources and receiver in sinks)

    return rule


def region_outage(topology: Topology, region: str) -> NetworkFilter:
    """Region failure: every message into *or* out of ``region`` is
    dropped.  Endpoints without a region assignment are unaffected."""
    if region not in topology.regions:
        raise SimulationError(f"unknown region: {region!r}")

    def rule(sender: str, receiver: str, message: Any) -> bool:
        return (
            topology.region_of(sender) != region
            and topology.region_of(receiver) != region
        )

    return rule


def delay_spike(
    endpoints: set[str],
    extra_seconds: float,
    rng: random.Random,
    probability: float = 1.0,
) -> DelayRule:
    """Endpoint network fault: messages from ``endpoints`` arrive late by
    ``extra_seconds`` (with ``probability``) — a slow link rather than a
    lossy one, so protocol timeouts fire while data still arrives."""

    def rule(sender: str, receiver: str, message: Any) -> float:
        if sender not in endpoints:
            return 0.0
        if probability < 1.0 and rng.random() >= probability:
            return 0.0
        return extra_seconds

    return rule
