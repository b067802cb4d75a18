"""Seeded inputs for the certification benchmark.

Everything here is built from the workload seed and nothing else, through
the public ``repro.workloads`` and ``repro.dataplane.elements`` APIs.  Each
pipeline is paired with a *template label* ("router-4/opt6",
"router-3-renamed", ...): the key of the committed expected-verdict table
in ``expected_verdicts.json``.  A label names everything a verdict depends
on; table contents do not appear in it because every generated route table
carries a default route, so a lookup never drops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.dataplane import Pipeline
from repro.dataplane.elements import NAT, NetFlow
from repro.net.checksum import internet_checksum
from repro.verify import CrashFreedom, destination_reachability
from repro.workloads import (
    PacketWorkload,
    churned_fleet_catalog,
    fleet_catalog,
    ip_router_elements,
    ip_router_pipeline,
    nat_gateway_pipeline,
    random_routing_table,
    synthetic_pipeline,
    well_formed_ip_packet,
)

#: Packet length every job is verified at.  Longer inputs leave the
#: decidable range: IPOptions at 28 bytes with max_options=8 takes more
#: than 120 s per element.
INPUT_LENGTHS = (24,)
DESTINATION = 0x0A000001
#: Elements allowed to drop packets to DESTINATION (malformed headers,
#: expired TTLs).  Exemptions name elements, as the property API does.
EXEMPT = ("check_ip", "gw_check", "dec_ttl", "lookup")
PROPERTY_KEYS = ("crash_freedom", "reachability")

#: One cold job per value in every cycle, so each cycle carries the same
#: IPOptions work whatever the seed (max_options sets its symbex cost).
MAX_OPTIONS = (2, 3, 4, 6)
SYNTHETIC_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3))

#: Prefix lengths of every generated route table, after its default route.
ROUTE_SHAPE = (8, 16, 24, 24, 32)

#: Size of the warm catalog the churn stream edits.
FLEET_SIZE = 96
#: Edits per block of the churn stream, shuffled within the block so every
#: seed sends the same mix.  An options edit re-runs symbex the first time
#: its variant appears: the rare, heavy edit.  ``rename`` edits are left
#: out: recertify reuses a router's reachability verdict for its renamed
#: copy although the property exempts elements by name, so the reused
#: verdict is wrong (test_perfbench.py reproduces it).
EDIT_BLOCK = (
    ("routes", 4),
    ("rewire", 4),
    ("add", 4),
    ("remove", 4),
    ("options", 1),
)
#: fleet_catalog's template cycle, by catalog index % 6.
FLEET_LABELS = (
    "router-2",
    "router-3",
    "router-4/opt8",
    "nat-gateway",
    "synthetic-3x2",
    "monitored-router",
)

Labeled = List[Tuple[str, Pipeline]]


def properties() -> list:
    """The property set every job checks, in PROPERTY_KEYS order."""
    return [
        CrashFreedom(),
        destination_reachability(DESTINATION, exempt_elements=set(EXEMPT)),
    ]


def _routes(rng: random.Random) -> Tuple[Tuple[str, int], ...]:
    """A seeded ``random_routing_table`` of fixed shape (ROUTE_SHAPE prefix lengths).

    Table size and prefix lengths set the cost of table fingerprints and
    lookups, so only the addresses vary with the seed.
    """
    while True:
        table = random_routing_table(len(ROUTE_SHAPE), ports=1, seed=rng.randrange(1 << 30))
        lengths = sorted(int(prefix.rsplit("/", 1)[1]) for prefix, _port in table[1:])
        if lengths == sorted(ROUTE_SHAPE):
            return tuple(table)


# -- cold jobs ------------------------------------------------------------------------


@dataclass(frozen=True)
class ColdJob:
    """One independent certification request: a six-pipeline router-family catalog."""

    index: int
    routes: Tuple[Tuple[str, int], ...]
    max_options: int
    synthetic: Tuple[int, int]
    order: Tuple[int, ...]

    def catalog(self) -> Labeled:
        """Fresh pipeline objects (elements hold state, so never reuse them)."""
        routes = list(self.routes)
        prefix = f"job{self.index}"
        elements, branches = self.synthetic

        def monitored(name: str) -> Pipeline:
            chain = ip_router_elements(3, routes=routes) + [
                NetFlow(name="edge_netflow"),
                NAT(name="edge_nat"),
            ]
            return Pipeline.chain(chain, name=name)

        slots = [
            ("router-2", lambda name: ip_router_pipeline(2, routes=routes, name=name)),
            ("router-3", lambda name: ip_router_pipeline(3, routes=routes, name=name)),
            (
                f"router-4/opt{self.max_options}",
                lambda name: ip_router_pipeline(
                    4, routes=routes, max_options=self.max_options, name=name
                ),
            ),
            ("nat-gateway", lambda name: nat_gateway_pipeline(name=name)),
            (
                f"synthetic-{elements}x{branches}",
                lambda name: synthetic_pipeline(elements, branches, name=name),
            ),
            ("monitored-router", monitored),
        ]
        labeled = []
        for position, slot in enumerate(self.order):
            label, build = slots[slot]
            labeled.append((label, build(f"{prefix}-{position}-{label}")))
        return labeled


def cold_jobs(seed: int) -> List[ColdJob]:
    """One cycle of cold jobs: every MAX_OPTIONS value and synthetic shape once."""
    rng = random.Random(seed)
    values = list(MAX_OPTIONS)
    shapes = list(SYNTHETIC_SHAPES)
    rng.shuffle(values)
    rng.shuffle(shapes)
    jobs = []
    for index, (max_options, synthetic) in enumerate(zip(values, shapes)):
        order = list(range(6))
        rng.shuffle(order)
        jobs.append(
            ColdJob(
                index=index,
                routes=_routes(rng),
                max_options=max_options,
                synthetic=synthetic,
                order=tuple(order),
            )
        )
    return jobs


# -- churn stream ---------------------------------------------------------------------


@dataclass(frozen=True)
class Edit:
    """One operator edit: ``churned_fleet_catalog(FLEET_SIZE, mutation, target)``."""

    mutation: str
    target: Optional[int]


def _targets(mutation: str) -> Sequence[int]:
    templates = {"routes": (0, 1, 2), "rename": (0, 1, 2), "rewire": (1, 2), "options": (2,)}
    if mutation in templates:
        return [i for i in range(FLEET_SIZE) if i % 6 in templates[mutation]]
    return range(FLEET_SIZE)


def churn_stream(seed: int, length: int) -> List[Edit]:
    """A seeded stream of single edits to ``fleet_catalog(FLEET_SIZE)``.

    The warm catalog itself keeps fleet_catalog's default routes, so every
    seed fills the same stores and only the edit order and targets vary.
    """
    rng = random.Random(seed)
    edits: List[Edit] = []
    while len(edits) < length:
        block = [mutation for mutation, count in EDIT_BLOCK for _ in range(count)]
        rng.shuffle(block)
        for mutation in block:
            target = None if mutation == "add" else rng.choice(_targets(mutation))
            edits.append(Edit(mutation, target))
    return edits[:length]


def churn_labels(edit: Optional[Edit]) -> List[str]:
    """Template labels of the warm catalog (``edit=None``) or of its edited copy."""
    labels = [FLEET_LABELS[index % 6] for index in range(FLEET_SIZE)]
    if edit is None:
        return labels
    if edit.mutation == "add":
        labels.append("nat-gateway")
    elif edit.mutation == "remove":
        del labels[edit.target]
    elif edit.mutation == "options":
        labels[edit.target] = "router-4/opt4"
    elif edit.mutation in ("rename", "rewire"):
        base, _, options = labels[edit.target].partition("/")
        suffix = "renamed" if edit.mutation == "rename" else "rewired"
        labels[edit.target] = f"{base}-{suffix}" + (f"/{options}" if options else "")
    return labels


def churn_catalog(edit: Optional[Edit]) -> List[Pipeline]:
    """The warm catalog (``edit=None``) or the catalog after one edit."""
    if edit is None:
        return fleet_catalog(FLEET_SIZE)
    return churned_fleet_catalog(FLEET_SIZE, edit.mutation, target=edit.target)


# -- concrete packets for the oracle --------------------------------------------------


def sweep_packets(seed: int, count: int) -> List[bytes]:
    """Seeded concrete packets, fitted to the verified input length.

    Mixes ``repro.workloads.packets``' valid, malformed and random packets
    with IPv4 packets carrying option bytes (the IPOptions paths).  Each
    IPv4-looking packet is cut to INPUT_LENGTHS[0] bytes with its total
    length and header checksum patched, so it reaches past CheckIPHeader.
    """
    length = INPUT_LENGTHS[0]
    rng = random.Random(seed)
    quarter = max(1, count // 4)
    mixed = PacketWorkload(
        valid=quarter, malformed=quarter, random_blobs=quarter, seed=seed
    ).packets()
    for _ in range(count - len(mixed)):
        options = bytes(rng.choice((0, 1, 7, 68, 130, 148)) for _ in range(4))
        mixed.append(
            well_formed_ip_packet(dst="10.0.0.1", ttl=rng.randrange(1, 4), options=options)
        )
    fitted = []
    for packet in mixed:
        data = bytearray(packet[:length].ljust(length, b"\0"))
        if data[0] >> 4 == 4 and rng.random() < 0.75:
            data[2:4] = length.to_bytes(2, "big")
            header = min(length, (data[0] & 0x0F) * 4)
            data[10:12] = b"\0\0"
            data[10:12] = internet_checksum(bytes(data[:header])).to_bytes(2, "big")
        fitted.append(bytes(data))
    return fitted
