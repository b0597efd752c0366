"""Seeded inputs for the serve workloads: a base graph and an op stream.

Every session maintains ``Reach``/``Goal`` over a graph of disjoint
15-node components.  Each component is a random spanning tree rooted at
its source node plus a few extra edges (18 edges per component), and
``S`` marks each component's root.  The op stream is about 40%
single-edge inserts, 30% retracts and 30% ``query Goal``; inserts only
add absent edges inside one component and retracts only remove present
edges, so no op is refused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

PROGRAM = (
    "Reach(x,y) <- E(x,y). "
    "Reach(x,y) <- E(x,z), Reach(z,y). "
    "Goal(y) <- S(x), Reach(x,y)."
)
COMPONENT_NODES = 15
COMPONENT_EDGES = 18
#: shares of the op mix; the rest are ``query Goal``
INSERT_SHARE = 0.4
RETRACT_SHARE = 0.3

#: an edge between abstract ``(component, index)`` nodes
Edge = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Op:
    kind: str  # "insert" | "retract" | "query"
    edge: tuple[Any, Any] | None = None


@dataclass
class SessionInputs:
    """One client's session: its base facts, op stream and final base."""

    base_edges: list[tuple[int, int]]
    sources: list[int]
    ops: list[Op]
    final_edges: set[tuple[int, int]]


def base_graph(rng: random.Random, components: int) -> list[Edge]:
    """Edges between abstract nodes ``(component, index)``, root index 0."""
    edges: list[Edge] = []
    for c in range(components):
        chosen: set[Edge] = set()
        for k in range(1, COMPONENT_NODES):
            chosen.add(((c, rng.randrange(k)), (c, k)))
        while len(chosen) < COMPONENT_EDGES:
            u, v = rng.sample(range(COMPONENT_NODES), 2)
            chosen.add(((c, u), (c, v)))
        edges.extend(sorted(chosen))
    return edges


def _absent_edge(rng: random.Random, components: int, edges: set[Edge]) -> Edge:
    while True:
        c = rng.randrange(components)
        u, v = rng.sample(range(COMPONENT_NODES), 2)
        if ((c, u), (c, v)) not in edges:
            return (c, u), (c, v)


def _shape(segment: int, client: int, components: int,
           ops: int) -> tuple[list[Edge], list[Op], set[Edge]]:
    """Base graph and op stream over abstract nodes."""
    rng = random.Random(f"e2ebench:shape:{segment}:{client}:{components}")
    base = base_graph(rng, components)
    edges = set(base)
    stream: list[Op] = []
    full = components * COMPONENT_NODES * (COMPONENT_NODES - 1)
    for _ in range(ops):
        draw = rng.random()
        if draw < INSERT_SHARE + RETRACT_SHARE:
            # an empty base cannot shrink and a complete one cannot grow
            insert = (draw < INSERT_SHARE or not edges) and len(edges) < full
            if insert:
                stream.append(Op("insert", _absent_edge(rng, components, edges)))
                edges.add(stream[-1].edge)
            else:
                stream.append(Op("retract", rng.choice(sorted(edges))))
                edges.discard(stream[-1].edge)
        else:
            stream.append(Op("query"))
    return base, stream, edges


def session_inputs(
    seed: int, segment: int, client: int, *, components: int, ops: int
) -> SessionInputs:
    """The deterministic inputs of one client in one run segment.

    The graph shapes and the op pattern depend on the segment and client
    only; the seed draws the node labels (a permutation inside every
    component).  So every seed gives different facts and a different op
    stream, but runs with different seeds do the same amount of
    maintenance work, and the run-to-run spread measures the system
    rather than the luck of the draw.
    """
    base, stream, final = _shape(segment, client, components, ops)
    rng = random.Random(f"e2ebench:labels:{seed}:{segment}:{client}")
    labels = [rng.sample(range(COMPONENT_NODES), COMPONENT_NODES)
              for _ in range(components)]

    def node(abstract: tuple[int, int]) -> int:
        c, k = abstract
        return c * 100 + labels[c][k]

    def edge(e: Edge) -> tuple[int, int]:
        return node(e[0]), node(e[1])

    return SessionInputs(
        base_edges=[edge(e) for e in base],
        sources=[node((c, 0)) for c in range(components)],
        ops=[Op(op.kind, None if op.edge is None else edge(op.edge))
             for op in stream],
        final_edges={edge(e) for e in final},
    )
