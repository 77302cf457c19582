"""Goal-bounded route search against the unbounded search it replaced.

``oracle_route`` is the full Dijkstra over (hops, occupancy, push order)
that ``_Scheduler.route`` ran before it pruned by free-grid distance. On
seeded random scheduler states -- pending latches, cells at and near
context capacity, claimed operand ports of the consumer -- both must return
the same path, including ``None``.
"""

import heapq
import random

import pytest

from windmill.arch import TopologyKind
from windmill.interconnect import Direction, neighbor_map
from windmill.mapper import _Scheduler
from windmill.plugins import standard_machine

from test_e2e import make_arch

TOPOLOGIES = (TopologyKind.MESH2D, TopologyKind.TORUS, TopologyKind.ONE_HOP)


def oracle_route(sched, src, dst):
    """The unbounded search: every reachable cell is settled in order."""
    if src == dst:
        return None
    params = sched.machine.params
    ports = neighbor_map(params.topology, (params.rows, params.cols))
    back = [None]
    pq = [(0, 0, 0, src)]
    seen = set()
    while pq:
        hops, occ, i, coord = heapq.heappop(pq)
        if coord == dst:
            path = []
            while i:
                i, frm, (drive, to, entry) = back[i]
                path.append((frm, drive, to, entry))
            return path[::-1]
        if coord in seen:
            continue
        seen.add(coord)
        for drive, to in sorted(ports[coord].items(), key=lambda x: x[0].name):
            entry = drive.opposite
            if to in seen or (to, entry) in sched.pending:
                continue
            if to == dst:
                extra = 0
            else:
                extra = sched.op_count.get(to, 0)
                if extra >= sched.capacity:
                    continue
            back.append((i, coord, (drive, to, entry)))
            heapq.heappush(pq, (hops + 1, occ + extra, len(back) - 1, to))
    return None


def random_state(rng, topology):
    """A scheduler mid-map: some latches pending, some cells near or at
    capacity, and src/dst pairs with claimed operand ports at dst."""
    size = rng.randint(4, 8)
    capacity = rng.randint(2, 8)
    sched = _Scheduler(standard_machine(make_arch(size, size, topology)), capacity)
    ports = neighbor_map(topology, (size, size))
    cells = sorted(ports)
    p_pending, p_busy = rng.choice((0.05, 0.2, 0.4)), rng.choice((0.1, 0.3, 0.6))
    for cell in cells:
        for drive, to in ports[cell].items():
            if rng.random() < p_pending:
                sched.pending.add((to, drive.opposite))
        if rng.random() < p_busy:
            sched.op_count[cell] = capacity - rng.randint(0, 2)
        elif rng.random() < 0.5:
            sched.op_count[cell] = rng.randint(0, capacity)
    queries = []
    for _ in range(12):
        src, dst = rng.choice(cells), rng.choice(cells)
        claimed = set(rng.sample(list(Direction), rng.randint(0, 3)))
        queries.append((src, dst, claimed))
    return sched, queries


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.value)
def test_bounded_route_matches_unbounded(topology):
    rng = random.Random(f"route-oracle/{topology.value}")
    raised = unreachable = 0
    for _ in range(120):
        sched, queries = random_state(rng, topology)
        free = _Scheduler(sched.machine, sched.capacity)
        for src, dst, claimed in queries:
            # a claimed operand port holds an arrival its consumer has not consumed
            added = {(dst, d) for d in claimed} - sched.pending
            sched.pending |= added
            got = sched.route(src, dst)
            assert got == oracle_route(sched, src, dst), (src, dst, claimed)
            sched.pending -= added
            if src == dst:
                continue
            # the table's distance is the length of an unconstrained search
            distance = sched.hops_to(dst)[src]
            assert distance == len(oracle_route(free, src, dst))
            if got is None:
                unreachable += 1
            elif len(got) > distance:
                raised += 1
    # both retry outcomes occur: a path longer than the first bound, and none
    assert raised > 50 and unreachable > 50
