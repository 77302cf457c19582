"""Dataflow-graph compiler for the language of ``dfg.py``, in three passes.

``_lower`` rewrites the graph into machine ops: directives become affine
memory ops, ``sel p a b`` a mask-and-merge of two predicated passes, and
constants fold into a consumer's immediate field when they fit or else
materialize as a shift-add chain. ``_place`` then puts each op on a cell,
greedily, in a demand-driven topological order (consumers fire as soon as
their operands exist), minimizing summed one-step link distance to placed
predecessors with a light spreading penalty. Last, ``_Scheduler.schedule``
routes and steps the placed ops. Values travel as chains of single-target
sends and ROUTE hops; a node with one remote consumer drives the first link
straight from its datapath, anything else parks in the accumulator and
sends from there. Chains are routed lazily -- when their consumer, or a
reuse of the producer's accumulator, demands them -- and each is scheduled
atomically, with every input latch alternating strictly between one
scheduled arrival and its consumption. That alternation is what makes the
one-deep elastic links of the array deliver tokens in exactly the order the
schedule consumes them, whatever dynamic stalls occur; a congestion-blocked
node simply retries after other nodes drain their arrivals.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from operator import add

from .arch import ArchParams, ExecMode, PeType
# parse_dfg and reference_execute stay bound here: the bench reads them as mapper.*
from .dfg import _OPS, Dfg, parse_dfg, reference_execute, topo_order, toposort  # noqa: F401
from .errors import Unmappable
from .interconnect import Direction
from .pe import (_DIR_BY_SEL, _DST_DIR, MASK32, MEMORY_OPS, ConfigWord, DstSel, Opcode,
                 SrcSel, pack_bitstream, to_signed32)
from .plugins import MachineRecord, standard_machine


# --- lowering -------------------------------------------------------------------


@dataclass
class _LNode:
    """Lowered node: one machine op plus its operand sources."""

    id: str
    opcode: Opcode
    srcs: list            # ("node", id) | ("imm", value) | ("none",)
    imm: int = 0          # affine address for in/out memory ops
    affine: bool = False


def _lower(dfg: Dfg) -> list[_LNode]:
    """Rewrite the DFG into machine-level nodes: directives become affine
    memory ops, ternary selects expand, constants fold or materialize."""
    # nodes and out directives in a demand-driven dependency order: a ready
    # unit with operands precedes a ready source (input or constant), so
    # every value is consumed as soon as possible, which keeps in-flight
    # route arrivals bounded by the fanout frontier rather than the whole
    # input set. Ties break on file position. Constants are folded or
    # materialized on demand; they never gate.
    deps = {}
    for kind, key in dfg.decls:
        refs = dfg.nodes[key].operands if kind == "node" else (dfg.outputs[key][0],)
        deps[(kind, key)] = [("node", r) for r in refs if dfg.nodes[r].op != "const"]
    units = toposort(deps, {u: (0 if ds else 1, i)
                            for i, (u, ds) in enumerate(deps.items())})
    if len(units) != len(deps):
        topo_order(dfg)   # raises CyclicGraph: only a loop leaves units out
    consts = {nid: to_signed32(node.value)
              for nid, node in dfg.nodes.items() if node.op == "const"}
    lnodes: list[_LNode] = []
    synth = 0
    materialized: dict[str, str] = {}

    def fresh(tag: str) -> str:
        nonlocal synth
        synth += 1
        return f"${tag}.{synth}"

    def materialize_value(value: int, base: str) -> str:
        """Emit ops computing a constant; returns the producing node id."""
        if -0x8000 <= value <= 0x7FFF:
            nid = fresh(base)
            lnodes.append(_LNode(nid, Opcode.ADD, [("imm", value & 0xFFFF), ("none",)]))
            return nid
        hi = materialize_value(value >> 8, base)
        sh = fresh(base)
        lnodes.append(_LNode(sh, Opcode.SHL, [("node", hi), ("imm", 8)]))
        lo = fresh(base)
        lnodes.append(_LNode(lo, Opcode.ADD, [("node", sh), ("imm", value & 0xFF)]))
        return lo

    def operand(ref: str, can_fold: bool) -> tuple:
        if ref in consts:
            v = consts[ref]
            if can_fold and -0x8000 <= v <= 0x7FFF:
                return ("imm", v & 0xFFFF)
            if ref not in materialized:
                materialized[ref] = materialize_value(v, ref)
            return ("node", materialized[ref])
        return ("node", ref)

    def binary_srcs(refs):
        """Fold constants into the single immediate field; a second operand
        may share the immediate only when it has the same value."""
        srcs = []
        folded = None
        for ref in refs:
            can = folded is None or (ref in consts and consts[ref] == folded)
            src = operand(ref, can)
            if src[0] == "imm" and folded is None:
                folded = consts[ref]
            srcs.append(src)
        return srcs

    def memory_op(nid: str, opcode: Opcode, data: tuple, addr):
        """A bound address (an int), or a constant one in 0..0xFFFF, makes an
        affine op; any other address is an operand, evaluated after ``data``."""
        if addr in consts and 0 <= consts[addr] <= 0xFFFF:
            addr = consts[addr]
        if isinstance(addr, int):
            lnodes.append(_LNode(nid, opcode, [data, ("none",)], imm=addr, affine=True))
        else:
            lnodes.append(_LNode(nid, opcode, [data, operand(addr, False)]))

    for kind, key in units:
        if kind == "out":
            nid, addr = dfg.outputs[key]
            memory_op(f"$out{key}", Opcode.STORE, operand(nid, False), addr)
            continue
        node = dfg.nodes[key]
        nid = node.id
        if node.op == "const":
            continue  # folded or materialized on demand
        if node.op == "in":
            memory_op(nid, Opcode.LOAD, ("none",), node.addr)
        elif node.op == "load":
            memory_op(nid, Opcode.LOAD, ("none",), node.operands[0])
        elif node.op == "store":
            addr_ref, val_ref = node.operands
            memory_op(nid, Opcode.STORE, operand(val_ref, False), addr_ref)
        elif node.op == "sel":
            # sel p a b -> (a if p != 0) | (b if p == 0); the predicate is
            # normalized to 0/1 first since p may be any 32-bit value
            p_ref, a_ref, b_ref = node.operands
            p = operand(p_ref, False)
            neg = _LNode(fresh(nid), Opcode.CMP_LT, [p, ("imm", 0)])
            pos = _LNode(fresh(nid), Opcode.CMP_LT, [("imm", 0), p])
            nz = _LNode(fresh(nid), Opcode.OR, [("node", neg.id), ("node", pos.id)])
            inv = _LNode(fresh(nid), Opcode.XOR, [("node", nz.id), ("imm", 1)])
            t = _LNode(fresh(nid), Opcode.SEL, [("node", nz.id), operand(a_ref, False)])
            f = _LNode(fresh(nid), Opcode.SEL, [("node", inv.id), operand(b_ref, False)])
            merged = _LNode(nid, Opcode.OR, [("node", t.id), ("node", f.id)])
            lnodes += [neg, pos, nz, inv, t, f, merged]
        else:
            lnodes.append(_LNode(nid, _OPS[node.op], binary_srcs(node.operands)))
    return lnodes


def _check_memory_order(dfg: Dfg):
    """Refuse two memory ops whose address spans may overlap when one writes
    (``store`` or ``out``), unless the other is a read that feeds the write
    through operand edges, so the write waits for it. Spans: in/out addresses
    and constants are exact, ``and`` is at most its least operand, ``add``
    sums its operands' unless that may wrap, and anything else may be any
    word. Both walks are iterative, so a long chain cannot overflow."""
    nodes, spans = dfg.nodes, {}

    def span(ref):
        stack = [ref]
        while stack:
            node = nodes[stack[-1]]
            if node.op in ("add", "and") and (todo := [r for r in node.operands
                                                       if r not in spans]):
                stack += todo
                continue
            stack.pop()
            lo, hi = 0, MASK32
            if node.op == "const":
                lo = hi = node.value & MASK32
            elif node.op == "and":
                hi = min(spans[r][1] for r in node.operands)
            elif node.op == "add":
                (lo0, hi0), (lo1, hi1) = (spans[r] for r in node.operands)
                if hi0 + hi1 <= MASK32:
                    lo, hi = lo0 + lo1, hi0 + hi1
            spans[node.id] = (lo, hi)
        return spans[ref]

    @cache
    def feeds(roots):   # roots and every node they read, transitively
        seen, stack = set(roots), list(roots)
        while stack:
            new = set(nodes[stack.pop()].operands) - seen
            seen |= new
            stack += new
        return seen

    ops = []   # (name, lowest, highest address, a write's operands or None), in file order
    for kind, key in dfg.decls:
        if kind == "out":
            nid, addr = dfg.outputs[key]
            ops.append((f"out {key}", addr, addr, (nid,)))
        elif (node := nodes[key]).op == "in":
            ops.append((key, node.addr, node.addr, None))
        elif node.op in ("load", "store"):
            ops.append((key, *span(node.operands[0]),
                        node.operands if node.op == "store" else None))
    for k, (b, b_lo, b_hi, b_roots) in enumerate(ops):
        for a, a_lo, a_hi, a_roots in ops[:k]:
            if a_lo > b_hi or b_lo > a_hi or not (a_roots or b_roots):
                continue
            if a_roots and b_roots or (b if a_roots else a) not in feeds(a_roots or b_roots):
                raise Unmappable(f"memory ops {a} and {b} may touch one word in an "
                                 "order the machine does not keep")


# --- mapping ---------------------------------------------------------------------


# latch direction <-> operand / destination select, from the PE's tables
_SRC_DIR = {d: s for s, d in _DIR_BY_SEL.items()}
_DIR_DST = {d: s for s, d in _DST_DIR.items()}


@dataclass(slots=True)
class MicroOp:
    """One scheduled machine op on one PE."""

    pe: tuple
    step: int
    opcode: Opcode
    src0: SrcSel = SrcSel.NONE
    src1: SrcSel = SrcSel.NONE
    dst: DstSel = DstSel.NONE
    imm: int = 0
    node: str = ""


@dataclass
class Mapping:
    params: ArchParams
    placement: dict[str, tuple] = field(default_factory=dict)
    schedule: dict[str, int] = field(default_factory=dict)
    routes: dict[tuple, list] = field(default_factory=dict)
    micro_ops: list[MicroOp] = field(default_factory=list)

    @property
    def schedule_length(self) -> int:
        return max((op.step for op in self.micro_ops), default=0)

    def route_op_count(self) -> int:
        return sum(1 for op in self.micro_ops if op.opcode is Opcode.ROUTE)

    def pes_used(self) -> set:
        return {op.pe for op in self.micro_ops}


def _hops(ports, start) -> dict:
    """The fewest links from ``start`` to each cell it reaches over the port
    table, by BFS. Links are two-way, so these are the distances back to
    ``start`` too."""
    dist, frontier = {start: 0}, [start]
    for cell in frontier:
        for coord in ports[cell].values():
            if coord not in dist:
                dist[coord] = dist[cell] + 1
                frontier.append(coord)
    return dist


def _route_tables(machine: MachineRecord):
    """Each cell's (drive, to, entry, (to, entry)) links in route's tie-break
    order, the last field being the link's key in ``pending``; and
    ``hops_to(dst)[cell]``, the fewest links from cell to dst on the free
    grid, absent if there is none."""
    ports = machine.ports
    links = {coord: tuple((d, to, d.opposite, (to, d.opposite))
                          for d, to in sorted(out.items(), key=lambda x: x[0].name))
             for coord, out in ports.items()}
    return links, cache(lambda dst: _hops(ports, dst))   # at most one entry per cell


def _pools(machine: MachineRecord):
    """Placement pools, GPEs then LSUs: (cells in raster order, cell ->
    index, ``row``), where ``row(p)[j]`` is the fewest one-step links from
    cell p to cells[j] on the free grid, or rows + cols if none joins them:
    longer than a standard grid's paths, short of ``_place``'s blocked key."""
    far = machine.params.rows + machine.params.cols
    steps = {cell: {d: to for d, to in out.items() if not d.is_two_hop}
             for cell, out in machine.ports.items()}
    hops_from = cache(lambda p: _hops(steps, p))   # one BFS per cell serves both pools

    def pool(pe_type):
        cells = tuple(rc for rc, t, _ in machine.cells if t is pe_type)

        @cache   # at most one entry per cell
        def row(p):
            dist = hops_from(p)
            return tuple(dist.get(cell, far) for cell in cells)
        return cells, {pe: j for j, pe in enumerate(cells)}, row
    return pool(PeType.GPE), pool(PeType.LSU)


def _place(lnodes: list[_LNode], consumers: dict, machine: MachineRecord,
           capacity: int) -> dict[str, tuple]:
    """Greedy placement in lowering order: each node takes its pool's cell
    of least key, op estimate + summed distance to placed predecessors,
    + ``crowded`` if remote while its entry latches are spoken for; a full
    cell, or co-location not directly behind the accumulator owner, is
    ``blocked``. min() keeps the first least key: coordinate order breaks ties."""
    params = machine.params
    placement: dict[str, tuple] = {}
    acc_owner: dict[tuple, str] = {}
    remote_consumers: dict[tuple, int] = {}
    crowded = capacity + 2 * (params.rows + params.cols)   # above any distance + estimate
    blocked = 2 * crowded
    alu_pool, mem_pool = (
        (cells, index, [0 if capacity > 0 else blocked] * len(cells),
         [0] * len(cells),   # validated grids give every cell two ports or more
         dist)
        for cells, index, dist in machine.derived(_pools))

    for ln in lnodes:
        cells, index, estimate, crowding, dist = (
            mem_pool if ln.opcode in MEMORY_OPS else alu_pool)
        if not cells:
            raise Unmappable("no PE of the required type available", ln.id)
        pred_pes = [placement[s[1]] for s in ln.srcs if s[0] == "node"]
        key = spread = estimate
        if pred_pes:
            spread = dist(pred_pes[0])
            for pe in pred_pes[1:]:
                spread = list(map(add, spread, dist(pe)))
            key = list(map(add, map(add, estimate, spread), crowding))
            for pe in set(pred_pes) & index.keys():
                j = index[pe]
                owners = {s[1] for s in ln.srcs if s[0] == "node" and placement[s[1]] == pe}
                if owners != {acc_owner.get(pe)}:
                    key[j] = blocked
                elif not spread[j]:
                    key[j] -= crowding[j]
        j = key.index(min(key))
        if key[j] >= blocked:
            raise Unmappable("PE capacity exhausted during placement", ln.id)
        pe = cells[j]
        placement[ln.id] = pe
        n = estimate[j] + 1 + len(consumers[ln.id])
        estimate[j] = n if n < capacity else blocked
        if pred_pes and spread[j]:
            remote_consumers[pe] = remote_consumers.get(pe, 0) + 1
            if remote_consumers[pe] >= len(machine.ports[pe]) - 1:
                crowding[j] = crowded
        if ln.opcode is not Opcode.STORE:
            acc_owner[pe] = ln.id
    return placement


class _Scheduler:
    """Routing and step assignment over a finished placement.

    Invariants maintained:
      * per PE, steps strictly increase in scheduling order (``next_free``);
      * each input latch alternates one scheduled arrival / one scheduled
        consumption (``pending`` + ``last_consume``), which aligns runtime
        token order with schedule order on the one-deep elastic links;
      * a node co-placed with a predecessor reads it from the accumulator,
        legal only when nothing overwrote the accumulator in between
        (enforced by ``_place``).
    """

    def __init__(self, machine: MachineRecord, capacity: int):
        self.machine = machine
        self.capacity = capacity
        self.links, self.hops_to = machine.derived(_route_tables)
        self.next_free: dict[tuple, int] = {}
        self.last_consume: dict[tuple, int] = {}
        self.pending: set = set()          # (coord, entry dir) with an unconsumed arrival
        self.ops: list[MicroOp] = []
        self.op_count: dict[tuple, int] = {}
        # (producer, consumer) -> (operand select, entry latch or None, ready step)
        self.arrivals: dict[tuple[str, str], tuple] = {}
        self.routes: dict[tuple, list] = {}
        self.node_step: dict[str, int] = {}
        self.acc_owner: dict[tuple, str] = {}   # PE -> node whose value parks in acc

    def emit(self, op: MicroOp):
        self.ops.append(op)
        self.next_free[op.pe] = op.step + 1
        self.op_count[op.pe] = self.op_count.get(op.pe, 0) + 1

    def consume(self, pe, entry: Direction, step: int):
        self.last_consume[(pe, entry)] = step
        self.pending.discard((pe, entry))

    def route(self, src, dst) -> list | None:
        """Deterministic cheapest path src -> dst.

        Every hop must enter a latch with no pending arrival, the final one
        too, so no two unconsumed operands of one consumer share a port;
        transit cells at context capacity are impassable. Among shortest
        paths, the one through the least-occupied cells wins.

        A push whose hops plus free-grid distance to dst exceed ``bound``,
        first src's distance, is pruned; until dst is reached, ``bound`` rises
        to the least pruned length. Shortest paths keep every push, in order,
        so the path is the one an unpruned search finds. Raises Unmappable
        when no link path joins src to dst.
        """
        if src == dst:
            return None
        links, pending, op_count, capacity = (self.links, self.pending, self.op_count,
                                              self.capacity)
        to_dst = self.hops_to(dst)
        heappush, heappop = heapq.heappush, heapq.heappop
        bound = to_dst.get(src)
        if bound is None:   # no amount of waiting opens a path
            raise Unmappable(f"no link path from {src} to {dst}")
        while True:
            # heap entries are (hops, occ, i, cell); back[i] = (i of the entry
            # whose cell was left, that cell, link taken), unwound on success
            back = [None]
            pq = [(0, 0, 0, src)]
            seen = set()
            pruned = []   # hops + distance of each pruned push
            while pq:
                hops, occ, i, coord = heappop(pq)
                if coord == dst:
                    path = []
                    while i:
                        i, frm, link = back[i]
                        path.append((frm, link[0], link[1], link[2]))
                    path.reverse()
                    return path
                if coord in seen:
                    continue
                seen.add(coord)
                hops += 1
                for link in links[coord]:
                    to = link[1]
                    if to in seen or link[3] in pending:
                        continue
                    if to == dst:
                        extra = 0
                    else:
                        extra = op_count.get(to, 0)
                        if extra >= capacity:
                            continue  # no room for another transit hop
                    length = hops + to_dst[to]
                    if length > bound:
                        pruned.append(length)
                        continue
                    back.append((i, coord, link))
                    heappush(pq, (hops, occ + extra, len(back) - 1, to))
            if not pruned:
                return None
            bound = min(pruned)

    def schedule(self, lnodes: list[_LNode], placement: dict, consumers: dict):
        """Schedule every node once its operands are; a congestion-blocked
        node retries after the others, until a full pass makes no progress.
        Raises Unmappable then, or when a PE needs more context words than
        ``capacity``."""
        self.placement, self.consumers = placement, consumers   # read by chain and unit
        work = deque(lnodes)
        fails_in_row = 0
        while work:
            ln = work.popleft()
            ready = all(src[1] in self.node_step for src in ln.srcs if src[0] == "node")
            if ready and self.unit(ln):
                fails_in_row = 0
                continue
            work.append(ln)
            fails_in_row += 1
            if fails_in_row > len(work):
                raise Unmappable("routing congestion never cleared", ln.id)
        for pe, n in sorted(self.op_count.items()):
            if n > self.capacity:
                worst = max((o for o in self.ops if o.pe == pe), key=lambda o: o.step)
                raise Unmappable(
                    f"PE {pe} needs {n} context words, capacity {self.capacity}", worst.node)

    def chain(self, v: str, cid: str, fused_op: MicroOp | None = None) -> bool:
        """Route and schedule one value chain v -> cid. All or nothing."""
        src_pe, dst_pe = self.placement[v], self.placement[cid]
        path = self.route(src_pe, dst_pe)
        if path is None:
            return False
        first = path[0]
        if fused_op is not None:
            fused_op.dst = _DIR_DST[first[1]]
            prev_step = self.node_step[v]
        else:
            send = MicroOp(src_pe, max(self.next_free.get(src_pe, 1), self.node_step[v] + 1),
                           Opcode.ROUTE, SrcSel.ACC, SrcSel.NONE, _DIR_DST[first[1]],
                           node=f"{v}>")
            self.emit(send)
            prev_step = send.step
        prev_entry = first[3]
        for frm, drive, to, entry in path[1:]:
            s = max(self.next_free.get(frm, 1), prev_step + 1,
                    self.last_consume.get((frm, prev_entry), 0) + 1)
            self.emit(MicroOp(frm, s, Opcode.ROUTE, _SRC_DIR[prev_entry], SrcSel.NONE,
                              _DIR_DST[drive], node=f"{v}>{cid}"))
            self.consume(frm, prev_entry, s)
            prev_step, prev_entry = s, entry
        self.pending.add((dst_pe, prev_entry))
        self.arrivals[(v, cid)] = (_SRC_DIR[prev_entry], prev_entry, prev_step)
        self.routes[(v, cid)] = [src_pe] + [h[2] for h in path]
        return True

    def unit(self, ln: _LNode) -> bool:
        """Attempt to schedule one lowered node. Chain scheduling is
        idempotent, so a congestion failure here can simply retry after
        other units consume their in-flight arrivals."""
        placement, routes = self.placement, self.routes
        pe = placement[ln.id]
        # every operand chain must exist before this op can be ordered
        for src in ln.srcs:
            if src[0] == "node" and placement[src[1]] != pe \
                    and (src[1], ln.id) not in routes and not self.chain(src[1], ln.id):
                return False
        # the accumulator is about to be reused: drain its deferred chains
        owner = self.acc_owner.get(pe)
        if owner is not None:
            for cid in self.consumers[owner]:
                if placement[cid] != pe and (owner, cid) not in routes \
                        and not self.chain(owner, cid):
                    return False

        sels: list[SrcSel] = []
        step = self.next_free.get(pe, 1)
        reads: list[Direction] = []
        for src in ln.srcs:
            if src[0] == "none":
                sels.append(SrcSel.NONE)
            elif src[0] == "imm":
                sels.append(SrcSel.IMM)
            else:
                sel, entry, ready = self.arrivals[(src[1], ln.id)]
                sels.append(sel)
                step = max(step, ready + 1)
                if entry is not None:
                    reads.append(entry)
        for entry in reads:
            step = max(step, self.last_consume.get((pe, entry), 0) + 1)
        op = MicroOp(pe, step, ln.opcode, *sels[:2],
                     imm=ln.imm if ln.affine else _imm_of(ln.srcs), node=ln.id)
        self.emit(op)
        self.node_step[ln.id] = step
        for entry in set(reads):
            self.consume(pe, entry, step)

        outs = self.consumers[ln.id]
        if outs:
            local = [cid for cid in outs if placement[cid] == pe]
            for cid in local:
                self.arrivals[(ln.id, cid)] = (SrcSel.ACC, None, step)
            if local or len(outs) > 1 or not self.chain(ln.id, outs[0], fused_op=op):
                # accumulator form: the value parks in acc and each chain
                # is routed lazily, when its consumer (or an accumulator
                # flush) demands it; this keeps in-flight arrivals scarce
                op.dst = DstSel.ACC
                self.acc_owner[pe] = ln.id
        return True


def map_dfg(dfg: Dfg, machine: MachineRecord | ArchParams) -> Mapping:
    """Compile a validated DFG onto ``machine``, or the standard one of
    ArchParams: lower, place, then route and schedule."""
    if isinstance(machine, ArchParams):
        machine = standard_machine(machine)
    params = machine.params
    if params.exec_mode is ExecMode.SCMD:
        raise Unmappable("the mapper emits per-PE contexts; row-shared "
                         "configuration streams are not supported yet")
    lnodes = _lower(dfg)
    capacity = params.context_capacity() - 1  # one word reserved for HALT
    half_words = params.sm_words // 2
    for ln in lnodes:
        if ln.affine and not 0 <= ln.imm < half_words:
            raise Unmappable(
                f"bound address {ln.imm} outside the {half_words}-word space", ln.id)
    _check_memory_order(dfg)
    # each node's distinct consumers, in lowering order
    consumers: dict[str, list[str]] = {ln.id: [] for ln in lnodes}
    for ln in lnodes:
        for ref in {src[1] for src in ln.srcs if src[0] == "node"}:
            consumers[ref].append(ln.id)
    placement = _place(lnodes, consumers, machine, capacity)
    sched = _Scheduler(machine, capacity)
    sched.schedule(lnodes, placement, consumers)
    mapping = Mapping(params, placement, sched.node_step, sched.routes, sched.ops)
    _check_legal(mapping, machine)
    return mapping


def _imm_of(srcs: list) -> int:
    for s in srcs:
        if s[0] == "imm":
            return s[1] & 0xFFFF
    return 0


def _check_legal(mapping: Mapping, machine: MachineRecord):
    """Exhaustive legality: one op per (PE, step), routes follow the
    machine's links, memory ops sit on LSUs."""
    params = machine.params
    seen = set()
    for op in mapping.micro_ops:
        key = (op.pe, op.step)
        if key in seen:   # each op is emitted at or after _Scheduler.next_free[pe]
            raise Unmappable(f"two ops share {key}", op.node)
        seen.add(key)
        if op.opcode in MEMORY_OPS:
            if params.pe_type(*op.pe) is not PeType.LSU:   # placed from the LSU pool
                raise Unmappable(f"memory op on non-LSU {op.pe}", op.node)
    for (src, dst), path in mapping.routes.items():
        for a, b in zip(path, path[1:]):
            if b not in machine.ports[a].values():   # route walks the port table's links
                raise Unmappable(f"route {src}->{dst} uses non-link {a}->{b}", src)


# --- emission ---------------------------------------------------------------------


def emit_bitstream(mapping: Mapping) -> bytes:
    """Per-PE configuration words implementing the mapping, plus a HALT."""
    per_pe: dict[tuple, list[MicroOp]] = {}
    for op in mapping.micro_ops:
        per_pe.setdefault(op.pe, []).append(op)
    records = []
    for pe in sorted(per_pe):
        words = []
        for op in sorted(per_pe[pe], key=lambda o: o.step):
            words.append(ConfigWord(op.opcode, op.src0, op.src1, op.dst, op.imm & 0xFFFF,
                                    iter_count=1))
        words.append(ConfigWord(opcode=Opcode.HALT))
        records.append((pe[0], pe[1], words))
    return pack_bitstream(records)
