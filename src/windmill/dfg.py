"""Dataflow-graph language: the DFG text format and its reference executor.

DFG text format (normative grammar in docs/formats.md)::

    # comment
    in  a 0          # node a loads shared-memory word 0
    in  b 1
    t1  add a b      # node line: <id> <op> <operand ids...>
    c4  const 7
    t2  mul t1 c4
    out t2 16        # store node t2's value to word 16

Ops: add sub mul and or xor shl shr lt sel load store const, plus the
in/out directives. ``load``/``store`` take their address from an operand
(the non-affine path); in/out bind fixed addresses. ``sel p a b`` is a ternary select.

``reference_execute`` is the independent correctness oracle: plain
topological evaluation with the same 32-bit wrapping semantics as the PE
ALU. For every mappable DFG, simulating the emitted bitstream must
reproduce its output image bit for bit. This module shares no code with
the compiler that the oracle judges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import CyclicGraph, ParseError, UnboundOperand
from .pe import MASK32, Opcode, alu_eval

_OPS = {
    "add": Opcode.ADD, "sub": Opcode.SUB, "mul": Opcode.MUL,
    "and": Opcode.AND, "or": Opcode.OR, "xor": Opcode.XOR,
    "shl": Opcode.SHL, "shr": Opcode.SHR, "lt": Opcode.CMP_LT,
    "sel": Opcode.SEL,
    "load": Opcode.LOAD, "store": Opcode.STORE,
}

_ARITY = {op: {"sel": 3, "load": 1}.get(op, 2) for op in _OPS}


@dataclass(frozen=True)
class DfgNode:
    id: str
    op: str                      # in | const | store-directive | op token
    operands: tuple = ()
    value: int | None = None     # const payload
    addr: int | None = None      # in/out binding


@dataclass
class Dfg:
    nodes: dict[str, DfgNode] = field(default_factory=dict)   # in file order
    outputs: list[tuple[str, int]] = field(default_factory=list)
    # declarations in file order: ("node", id) | ("out", output index)
    decls: list[tuple[str, object]] = field(default_factory=list)


def parse_dfg(text: str) -> Dfg:
    dfg = Dfg()
    out_addrs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        if head == "in":
            if len(tokens) != 3:
                raise ParseError("in directive needs: in <id> <addr>", lineno)
            _add_node(dfg, DfgNode(tokens[1], "in", addr=_addr(tokens[2], lineno)), lineno)
        elif head == "out":
            if len(tokens) != 3:
                raise ParseError("out directive needs: out <id> <addr>", lineno)
            _check_ident(tokens[1], lineno)
            addr = _addr(tokens[2], lineno)
            if addr in out_addrs:
                raise ParseError(f"duplicate out address {addr}", lineno)
            out_addrs.add(addr)
            dfg.decls.append(("out", len(dfg.outputs)))
            dfg.outputs.append((tokens[1], addr))
        else:
            if len(tokens) < 2:
                raise ParseError(f"node line needs: <id> <op> ...", lineno)
            node_id, op = tokens[0], tokens[1].lower()
            if op == "const":
                if len(tokens) != 3:
                    raise ParseError("const needs one literal operand", lineno)
                _add_node(dfg, DfgNode(node_id, "const", value=_num(tokens[2], lineno)),
                          lineno)
                continue
            if op not in _OPS:
                raise ParseError(f"unknown op {op!r}", lineno)
            operands = tuple(tokens[2:])
            if len(operands) != _ARITY[op]:
                raise ParseError(
                    f"{op} takes {_ARITY[op]} operands, got {len(operands)}", lineno)
            _add_node(dfg, DfgNode(node_id, op, operands), lineno)
    _validate(dfg)
    return dfg


def _num(token: str, lineno: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", lineno)


def _addr(token: str, lineno: int) -> int:
    # a negative address would index the image from its end
    addr = _num(token, lineno)
    if addr < 0:
        raise ParseError(f"negative address {addr}", lineno)
    return addr


def _check_ident(token: str, lineno: int):
    # [A-Za-z_][A-Za-z0-9_]*, which keeps lowering's own ``$out<k>`` names free
    if not (token.isascii() and token.isidentifier()):
        raise ParseError(f"bad identifier {token!r}: want [A-Za-z_][A-Za-z0-9_]*", lineno)


def _add_node(dfg: Dfg, node: DfgNode, lineno: int):
    _check_ident(node.id, lineno)
    if node.id in dfg.nodes:
        raise ParseError(f"duplicate node id {node.id!r}", lineno)
    dfg.nodes[node.id] = node
    dfg.decls.append(("node", node.id))


def _validate(dfg: Dfg):
    if not dfg.nodes and not dfg.outputs:
        raise ParseError("empty dataflow graph", 1)
    readers = [(f"node {node.id!r}", node.operands) for node in dfg.nodes.values()]
    readers += [("out directive", (node_id,)) for node_id, _ in dfg.outputs]
    for reader, refs in readers:
        for ref in refs:
            if ref not in dfg.nodes:
                raise UnboundOperand(f"{reader} references unknown {ref!r}")
            if dfg.nodes[ref].op == "store":
                raise UnboundOperand(f"{reader} reads store node {ref!r}")
    topo_order(dfg)


def toposort(deps: dict, rank: dict | None = None) -> list:
    """Kahn's algorithm over ``deps`` (unit -> the units it waits on, repeats
    allowed). Among ready units the lowest ``rank`` goes first; ranks must be
    distinct and default to each unit's position in ``deps``. Units on or
    behind a cycle are left out of the result."""
    if rank is None:
        rank = {u: i for i, u in enumerate(deps)}
    indeg = {u: len(ds) for u, ds in deps.items()}
    consumers = {u: [] for u in deps}
    for u, ds in deps.items():
        for d in ds:
            consumers[d].append(u)
    ready = [(rank[u], u) for u, n in indeg.items() if n == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        u = heapq.heappop(ready)[1]
        out.append(u)
        for c in consumers[u]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, (rank[c], c))
    return out


def topo_order(dfg: Dfg) -> list[str]:
    """Complete topological order, ties to the earliest declaration; raises
    CyclicGraph for a graph with a loop."""
    out = toposort({nid: node.operands for nid, node in dfg.nodes.items()})
    if len(out) != len(dfg.nodes):
        done = set(out)
        raise CyclicGraph(f"cycle through {[nid for nid in dfg.nodes if nid not in done][:8]}")
    return out


# --- reference executor --------------------------------------------------------


def reference_execute(dfg: Dfg, image) -> list[int]:
    """Topological scalar evaluation with the PE's wrapping semantics.

    Returns a copy of the image with all out/store effects applied.
    """
    order = topo_order(dfg)
    mem = list(image)
    values: dict[str, int] = {}

    def inside(addr, kind):
        if not 0 <= addr < len(mem):
            raise UnboundOperand(f"{kind} address {addr} outside the image")
        return addr

    for nid in order:
        node = dfg.nodes[nid]
        if node.op == "in":
            values[nid] = mem[inside(node.addr, "input")] & MASK32
        elif node.op == "const":
            values[nid] = node.value & MASK32
        elif node.op == "load":
            values[nid] = mem[inside(values[node.operands[0]], "input")]
        elif node.op == "store":
            addr, val = node.operands
            mem[inside(values[addr], "store")] = values[val]
        elif node.op == "sel":
            p, a, b = (values[r] for r in node.operands)
            values[nid] = a if p != 0 else b
        else:
            a, b = (values[r] for r in node.operands)
            values[nid] = alu_eval(_OPS[node.op], a, b)
    for nid, addr in dfg.outputs:
        if not 0 <= addr < len(mem):
            mem.extend([0] * (addr + 1 - len(mem)))
        mem[addr] = values[nid]
    return mem
