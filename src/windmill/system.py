"""System-level simulator: RPUs, host bridge, command protocol, and the ring.

An RPU is one PE array plus its private banked scratchpad (behind the
round-robin access interface) and a DMA controller. RPUs sit on a ring;
each may read its clockwise neighbor's scratchpad through one extra
arbitrated requester port, two cycles slower than a local access.

The host is a transaction-level command stream. Each command decodes
through the register transformation table (RTT), the HostBridge's map from
opcode to action, and its action and operands queue on the target RPUs in
issue order:

    0x01 load_config    <mask> <config_id>
    0x02 load_data      <mask> <ext> <sm> <len> [staging]
    0x03 launch         <mask>
    0x04 store_results  <mask> <sm> <ext> <len>
    0x05 load_manifest  <mask> <n> <a b c d> * n

The canonical run is the four-step protocol: load configurations, load
data, launch, store results. Launch ticks the machine until every PE with
a loaded context raises its done flag (bounded by a cycle limit); the
finish signal flips the ping-pong half ownership so a queued DMA batch can
stream the next phase's data behind the next compute phase.

A controller PE drives the same action queue without the host: its RTT
destination writes ``(opcode << 12) | operand`` words, the opcode decoded
through the same table and queued in the cycle it is written, the operand
read by action as a config id or a manifest descriptor, so a multi-phase
workload needs host commands only for the initial setup.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache

from .arch import ArchParams
from .errors import (AddressOutOfRange, CycleLimitExceeded, DeadlockDetected, ParseError,
                     ProtocolOrderViolation, SimulationError, UnknownOpcode)
from .interconnect import SharedRegFile
from .memory import BankedSram, DmaController, PaiArbiter, Request, TransferBatch
from .pe import PE, predecode, record_holders, validate_bitstream

DEFAULT_CYCLE_LIMIT = 1_000_000


# --- host command decode -----------------------------------------------------


@dataclass(frozen=True)
class HostCommand:
    opcode: int
    args: tuple


# operands a transfer command cannot do without, named in its error
_REQUIRED_OPERANDS = {"load_data": "ext, sm, length", "store_results": "sm, ext, length"}


def decode(rtt: Mapping, cmd: HostCommand) -> tuple[str, int, tuple]:
    """``cmd`` through the RTT: its action, RPU mask and operands."""
    action = rtt.get(cmd.opcode)
    if action is None:
        raise UnknownOpcode(f"host opcode {cmd.opcode:#04x} not in RTT")
    if not cmd.args:
        raise UnknownOpcode(f"command {cmd.opcode:#04x} missing the RPU mask")
    mask, *args = cmd.args
    required = _REQUIRED_OPERANDS.get(action)
    if required is not None and len(args) < 3:
        raise UnknownOpcode(f"{action} needs {required} operands")
    return action, mask, tuple(args)


def parse_script(text: str) -> list[HostCommand]:
    """Host command script: one `OPCODE arg...` line per command, unsigned hex."""
    commands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # int() would take a sign, and a negative operand indexes from the end
        if any(t[0] in "+-" for t in line.split()):
            raise ParseError(f"signed token in {line!r}", lineno)
        try:
            tokens = [int(t, 16) for t in line.split()]
        except ValueError:
            raise ParseError(f"non-hex token in {line!r}", lineno)
        commands.append(HostCommand(tokens[0], tuple(tokens[1:])))
    return commands


# --- statistics ---------------------------------------------------------------


@dataclass
class SimStats:
    total_cycles: int = 0
    pe_active_cycles: int = 0
    pe_idle_cycles: int = 0
    bank_conflicts: int = 0
    arbiter_grants: int = 0
    dma_stall_cycles: int = 0
    pingpong_toggles: int = 0
    host_commands: int = 0
    sreg_conflicts: int = 0
    grants_per_lsu: dict = field(default_factory=dict)
    pe_active: dict = field(default_factory=dict)

    def csv_header(self) -> str:
        return ",".join(self.CSV_COLUMNS)

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, c)) for c in self.CSV_COLUMNS)


# the counters, in field order; the per-LSU and per-PE dicts stay out of the CSV
SimStats.CSV_COLUMNS = tuple(f.name for f in fields(SimStats) if f.type == "int")


# --- one RPU -------------------------------------------------------------------


_NO_HALVES = frozenset()   # the halves and banks a cycle without grants touches


class RpuStatus:
    IDLE = "idle"
    CONFIGURED = "configured"
    RUNNING = "running"
    DONE = "done"


class Rpu:
    """PE array + private scratchpad + DMA + controller action queue.

    Also the bus facade the PEs tick against: latch, shared-register and
    memory accesses all go through this object using start-of-cycle
    snapshots, with effects applied together at the end of the cycle. Only
    the live PEs in the awake set tick; an event that can move a PE wakes it
    (``end_cycle``). The PEs are built at the first ``load_config``: ring
    reads need none.
    """

    def __init__(self, rpu_id: int, machine, ext_memory: list[int]):
        self.id = rpu_id
        params = machine.params
        self.machine = machine
        dims = (params.rows, params.cols)
        self.pes: dict[tuple[int, int], PE] = {}
        self.sram = BankedSram(params.sm_banks, params.bank_depth, params.bank_width)
        self.half_words = self.sram.words // 2
        self.pai = PaiArbiter(params.sm_banks, machine.pai_order)
        self.dma = DmaController(ext_memory, self.half_words)
        self.sregs = SharedRegFile(params.shared_reg_mode, dims)
        self.queue: list[tuple[str, tuple | None]] = []   # (action, operands)
        self.manifest: list[tuple] = []
        self.status = RpuStatus.IDLE
        self.live: list[PE] = []   # PEs of the running phase not yet done, by coord
        self.awake: dict[PE, None] = {}   # the live PEs that tick next cycle, in wake order
        self.running_cycles = 0
        self.action_log: list[str] = []
        # staged cycle effects; PE.tick appends the latch ones straight to these lists
        self.consumes: list = []     # (PE, entry direction) of a latch a fired word pulled
        self.deliveries: list = []   # (receiving PE, entry direction, value)
        self._responses: dict = {}   # LSU coord -> (cycle it is readable in, word read or written)
        self.now = 0   # the cycle the PEs tick in
        # ring: outgoing reads, sorted, and the LSU awaiting a remote value
        self.ring_out: list = []   # (cycle posted, LSU coord, relative address)
        self.ring_wait = None
        # per-cycle access halves, for the ping-pong safety assertion
        self.cycle_pea_halves: set[int] | frozenset = _NO_HALVES
        self.cycle_dma_half: int | None = None

    # -- configuration actions -------------------------------------------

    def load_config(self, config: tuple):
        """Load a config in the form ``SystemSim.register_config`` keeps: each
        holder takes its record's code by reference."""
        if not self.pes:
            self.pes = {rc: PE(rc, ports) for rc, _, ports in self.machine.cells}
        for pe in self.pes.values():
            if pe._code:
                pe.load_context(())
        for holders, code in config:
            for rc in holders:
                self.pes[rc].load_context(code)
        self.status = RpuStatus.CONFIGURED

    def launch(self):
        if self.status != RpuStatus.CONFIGURED:
            raise ProtocolOrderViolation(
                f"rpu {self.id}: launch from {self.status!r}, expected configured")
        for pe in self.pes.values():
            pe.launch_reset()
        self.live = [pe for pe in self.pes.values() if not pe.done]   # raster order
        self.awake = dict.fromkeys(self.live)
        self.sregs.clear()
        self.status = RpuStatus.RUNNING

    def store_results(self, sm_addr: int, length: int) -> list[int]:
        """Read a half-relative region out of the DMA-owned half: after the
        finish toggle, the last phase's results. The streamed batch bound to
        that toggle refills the half; one queued ahead may not overlap it."""
        self.check_region("results", sm_addr, length)
        dma = self.dma
        b = dma.streamed[dma.toggles] if dma.toggles < len(dma.streamed) else None
        if b is not None and max(sm_addr, b.sm_addr) < min(sm_addr + length, b.sm_addr + b.length):
            raise ProtocolOrderViolation(
                f"rpu {self.id}: results region {sm_addr}+{length} of phase {dma.toggles} "
                f"overlaps streamed batch (ext {b.ext_addr}, sm {b.sm_addr}, len {b.length}), "
                "queued ahead of the store to refill that half")
        base = dma.half * self.half_words + sm_addr
        return self.sram.data[base:base + length]

    def check_region(self, what: str, sm_addr: int, length: int):
        """A host transfer's half-relative region must lie in the half space."""
        if length and sm_addr + length > self.half_words:
            raise AddressOutOfRange(f"{what} region {sm_addr}+{length} outside half space")

    # -- bus facade for PE.tick -------------------------------------------

    def sreg_read(self, coord, idx):
        return self.sregs.read(coord, idx)

    def sreg_write(self, coord, idx, value):
        self.sregs.write(coord, idx, value)

    def mem_request(self, coord, op, addr, data=None):
        if addr >= self.sram.words:
            # remote window: read-only access to the clockwise neighbor
            rel = addr - self.sram.words
            if rel >= self.half_words:   # past the window: its range is the fault
                raise AddressOutOfRange(f"remote address {rel} outside half space")
            if op != "read":
                raise AddressOutOfRange(f"remote window is read-only (addr {addr})")
            # the port forwards the earliest posted read first, then the lowest LSU
            insort(self.ring_out, (self.now, coord, rel))
            return
        if addr >= self.half_words:
            raise AddressOutOfRange(
                f"PE address {addr} outside the half space ({self.half_words} words)")
        phys = addr + self.dma.array_half * self.half_words
        self.pai.post(Request(coord, op, phys, data))

    def mem_response(self, coord):
        response = self._responses.get(coord)
        if response is None or response[0] > self.now:
            return None
        del self._responses[coord]
        return response[1]

    def rtt_action(self, coord, imm16):
        """Queue the action the machine's RTT decodes the payload's nibble to, in
        issue order; validation kept RTT payloads on the CPE and their nibbles
        on the actions a controller may queue."""
        action, operand = self.machine.rtt[imm16 >> 12], imm16 & 0xFFF
        if action == "load_config":
            operands = (operand,)
        elif action == "launch":
            operands = None   # a chained launch: it continues its phase's cycle count
        elif operand < len(self.manifest):
            operands = self.manifest[operand]
        else:
            raise UnknownOpcode(f"controller descriptor {operand} not in manifest")
        self.queue.append((action, operands))

    # -- cycle advance ------------------------------------------------------

    def tick_pes(self, now: int):
        """Tick a snapshot of the awake PEs in cycle ``now``. A PE whose tick
        changes nothing, or holds its decoded word for a missing operand,
        leaves the awake set until ``end_cycle`` wakes it; one that finishes
        leaves it and ``live``. Every effect of a tick is staged until
        ``end_cycle`` (latch effects on the ``deliveries`` and ``consumes``
        lists) or sorted on arrival, so the order the PEs are visited in
        changes no run."""
        self.now = now
        awake = self.awake
        for pe in list(awake):   # a list: tuple snapshots measured ~0.3 MB more peak RSS
            if not pe.tick(self):
                del awake[pe]
            elif pe.done:
                del awake[pe]
                self.live.remove(pe)

    def end_cycle(self, system):
        """Apply the cycle's staged ``consumes`` and ``deliveries``, then step
        memory and the DMA. A wake is precise, and covers every event that
        can move a held or blocked PE: a delivery wakes its receiver only if
        the decoded word waiting to fire pulls that latch, a consume wakes
        the driver (symmetric ports) only if its write-back waits on that
        latch, and a shared-register commit wakes every live PE. A PE holds
        its word in the tick that finds an operand missing, so a deadlock is
        reported in the cycle the last live PE is held or blocked."""
        awake = self.awake
        for pe, direction in self.consumes:   # a word pulls each latch once
            del pe.latch[direction]
            driver = self.pes[pe.ports[direction]]
            if driver.w_slot is not None and driver.w_slot[0][6] is direction:
                awake[driver] = None
        self.consumes.clear()
        for pe, direction, value in self.deliveries:
            if direction in pe.latch:   # symmetric ports: one driver, and it found the latch free
                raise SimulationError(f"latch overrun at {pe.coord} {direction}")
            pe.latch[direction] = value
            if pe.d_slot is not None and direction in pe.d_slot[0][3]:
                awake[pe] = None
        self.deliveries.clear()
        if self.sregs.pending:
            self.sregs.commit()
            self.awake = dict.fromkeys(self.live)

        # a grant's response is readable the next cycle, a ring grant's one
        # transit cycle later at its origin, the counterclockwise neighbor. A
        # posted address is in range, so a grant reads and writes the data
        # unchecked; banks and depth are powers of two, so this is its half
        blocked = halves = _NO_HALVES
        if self.pai.pending:
            sram, now, half_words = self.sram, system.stats.total_cycles, self.half_words
            data = sram.data
            blocked, halves = set(), set()
            for bank, req in self.pai.arbitrate(sram):
                addr = req.addr
                blocked.add(bank)
                halves.add(addr // half_words)
                if req.op == "read":
                    value = data[addr]
                    if req.requester == ("ring",):
                        origin = system.rpus[self.id - 1]
                        if origin.ring_wait is None:   # only tick posts one, setting it
                            raise SimulationError("ring response with no waiting LSU")
                        origin._responses[origin.ring_wait] = (now + 2, value)
                        origin.ring_wait = None
                        continue
                else:
                    value = req.data
                    data[addr] = value & sram.mask
                self._responses[req.requester] = (now + 1, value)
        self.cycle_pea_halves = halves

        dma = self.dma   # not dma.idle(): inline on the hot path
        self.cycle_dma_half = dma.step(self.sram, blocked) if dma.active or dma.queue else None
        # the launch rule keeps staging out of a phase; a streamed batch fills the DMA's half
        if self.cycle_dma_half in halves and self.status == RpuStatus.RUNNING:
            raise SimulationError(
                f"rpu {self.id}: DMA and array touched half {self.cycle_dma_half}")

        if self.status == RpuStatus.RUNNING:
            self.running_cycles += 1
            if not self.live:
                self.status = RpuStatus.DONE
                self.dma.request_toggle()
            elif not self.awake:
                # no PE waits on memory, and only a PE can wake another
                raise DeadlockDetected(
                    f"rpu {self.id}: deadlock after {self.running_cycles} cycles: "
                    + "; ".join(pe.waiting_on(self) for pe in self.live))
            elif self.running_cycles >= system.cycle_limit:
                raise CycleLimitExceeded(
                    f"rpu {self.id}: no completion within {system.cycle_limit} cycles")

    def only_dma_pending(self) -> bool:
        """Nothing but the DMA can move: not running; no arbiter request,
        memory response or ring transfer; and any queued head waits on the DMA."""
        return (self.status != RpuStatus.RUNNING and not self.pai.pending
                and not self._responses and not self.ring_out and self.ring_wait is None
                and (not self.queue or self.head_waits()))

    def quiescent(self) -> bool:
        return not self.queue and self.dma.idle() and self.only_dma_pending()

    def starved(self) -> bool:
        """Only the DMA is left, and its next batch waits for a flip that no
        phase is left to request: no action queued, no phase running."""
        dma = self.dma
        return (dma.active is None and bool(dma.queue) and dma.queue[0].epoch > dma.toggles
                and not self.queue and self.only_dma_pending())

    def head_waits(self) -> bool:
        """A launch waits as the DMA's launch rule says, a store for a deferred
        flip: the results it reads land in the DMA's half at that flip."""
        head = self.queue[0][0]
        if head == "launch":
            return self.dma.launch_waits()
        return head == "store_results" and self.dma.flip_pending


class SystemSim:
    """All RPUs, the host bridge, external memory, and the tick loop. A cycle
    visits only the RPUs a command or a ring transfer made busy, by id. It
    runs a ``plugins.MachineRecord``; ArchParams stand for the standard one."""

    def __init__(self, machine, data_image: list[int] | None = None,
                 cycle_limit: int = DEFAULT_CYCLE_LIMIT):
        if isinstance(machine, ArchParams):
            from .plugins import standard_machine   # plugins builds on this module
            machine = standard_machine(machine)
        self.machine = machine
        self.params = machine.params
        self.ext_memory = list(data_image or [])
        self.cycle_limit = cycle_limit
        self.rpus = [Rpu(i, machine, self.ext_memory) for i in range(self.params.rpu_count)]
        self._active: list[Rpu] = []
        self.configs: dict[int, tuple] = {}   # config id -> the form ``Rpu.load_config`` loads
        self.script: deque[HostCommand] = deque()   # the commands not yet dispatched
        self.results_buffer: dict[int, int] = {}
        self.stats = SimStats()
        self.trace_hook = None

    # -- host-side setup ----------------------------------------------------

    def register_config(self, config_id: int, records: list):
        """Validate a config against the machine every RPU shares, once per
        machine and config content, and keep the form it loads in."""
        self.configs[config_id] = _loadable(
            self.machine, tuple((row, col, tuple(words)) for row, col, words in records))

    def submit_script(self, commands: list[HostCommand]):
        self.script.extend(commands)

    # -- ring plumbing --------------------------------------------------------

    def clockwise(self, rpu_id: int) -> "Rpu":
        return self.rpus[(rpu_id + 1) % len(self.rpus)]

    def _activate(self, rpu: Rpu):
        if rpu not in self._active:
            insort(self._active, rpu, key=lambda r: r.id)

    # -- command dispatch -----------------------------------------------------

    def _dispatch_one_command(self):
        cmd = self.script.popleft()
        self.stats.host_commands += 1
        action, mask, a = decode(self.machine.rtt, cmd)
        if action == "load_manifest":
            if not a or len(a) < 1 + 4 * a[0]:
                raise UnknownOpcode("load_manifest operand stream too short")
            entries = [tuple(a[1 + 4 * i: 5 + 4 * i]) for i in range(a[0])]
            for rpu in self._targets(mask):
                rpu.manifest = entries
            return
        for rpu in self._targets(mask):
            rpu.queue.append((action, a))
            self._activate(rpu)

    def _targets(self, mask: int) -> list[Rpu]:
        return [r for r in self.rpus if mask & (1 << r.id)]

    def _controller_step(self, rpu: Rpu):
        """Carry out the queue head of an RPU that is not running, unless it waits."""
        if rpu.head_waits():
            return
        action, args = rpu.queue[0]
        if action == "load_config":
            config_id = args[0] if args else 0
            config = self.configs.get(config_id)
            if config is None:
                raise UnknownOpcode(f"config {config_id} never registered")
            rpu.load_config(config)
        elif action == "load_data":
            ext, sm, length, staging = (*args, 1)[:4]   # staging defaults to 1
            rpu.check_region("data", sm, length)
            if rpu.dma.enqueue(TransferBatch(ext, sm, length, staging=bool(staging))):
                raise ProtocolOrderViolation(
                    f"rpu {rpu.id}: late streamed batch (ext {ext}, sm {sm}, len {length}): the "
                    f"flip that hands its half to phase {len(rpu.dma.streamed) + 1} is "
                    "already requested")
        elif action == "launch":
            rpu.launch()
            if args is not None:   # a host launch; a chained one continues its phase's count
                rpu.running_cycles = 0
        elif action == "store_results":
            sm, ext, length = args[:3]
            for i, w in enumerate(rpu.store_results(sm, length)):
                self.results_buffer[ext + i] = w
        rpu.queue.pop(0)
        rpu.action_log.append(action)

    # -- main loop -------------------------------------------------------------

    def tick(self) -> bool:
        """One cycle; True when an RPU is still running after it."""
        if self.script:
            self._dispatch_one_command()
        active = self._active
        for rpu in tuple(active):   # a forwarded read activates the neighbor
            # a running RPU's queue waits for its finish
            if rpu.queue and rpu.status != RpuStatus.RUNNING:
                self._controller_step(rpu)
            # only this RPU posts to its clockwise neighbor's ring port, and its ring_wait
            # is set from that post to the grant: the port is free exactly when it is None.
            # A read posted in an earlier cycle crosses the ring in this one.
            if rpu.ring_out and rpu.ring_wait is None:
                _, rpu.ring_wait, rel = rpu.ring_out.pop(0)
                neighbor = self.clockwise(rpu.id)
                phys = rel + neighbor.dma.array_half * neighbor.half_words
                neighbor.pai.post(Request(("ring",), "read", phys))
                self._activate(neighbor)
        now = self.stats.total_cycles
        for rpu in active:
            if rpu.awake:
                rpu.tick_pes(now)
        running = 0
        for rpu in active:
            rpu.end_cycle(self)
            running += rpu.status == RpuStatus.RUNNING
        self.stats.total_cycles += 1
        if self.trace_hook is not None:
            self.trace_hook(self)
        if running < len(active):   # a running RPU is never quiescent
            for rpu in [r for r in active if r.status != RpuStatus.RUNNING and r.quiescent()]:
                active.remove(rpu)   # and from the next cycle on touches no half
                rpu.cycle_pea_halves, rpu.cycle_dma_half = _NO_HALVES, None
        return running > 0

    def quiescent(self) -> bool:
        return not self.script and not self._active

    def run(self):
        """Tick until quiescent; the stats cover the cycles run, also when a
        run-time fault ends the run. A run ends as each wait has its bound:
        see docs/formats.md, "Run-time faults"."""
        running = False   # a running RPU keeps the system busy and streams no DMA alone
        try:
            while running or not self.quiescent():
                skip = 0 if running else self._dma_only_cycles()
                if skip:
                    for rpu in self._active:
                        rpu.dma.stream(rpu.sram, skip)
                    self.stats.total_cycles += skip
                else:
                    running = self.tick()
        finally:
            self._finalize_stats()
        return self.stats

    def _dma_only_cycles(self) -> int:
        """Coming cycles that only stream one DMA word per busy RPU, short of
        the last word of a batch, which ``tick`` writes.
        None under a ``trace_hook``, which observes every cycle. Once the
        script is drained and every busy RPU is starved, nothing can move:
        that is a protocol fault, raised here in the cycle it begins."""
        if self.script:
            return 0
        if self._active and all(map(Rpu.starved, self._active)):
            rpu = self._active[0]
            b = rpu.dma.queue[0]
            raise ProtocolOrderViolation(
                f"rpu {rpu.id}: streamed batch (ext {b.ext_addr}, sm {b.sm_addr}, len {b.length}) "
                f"waits for flip {b.epoch}, but no phase is left to request it")
        if self.trace_hook is not None:
            return 0
        left = []
        for rpu in self._active:
            batch = rpu.dma.active
            if batch is None or not rpu.only_dma_pending():
                return 0
            left.append(batch.length - batch.progress - 1)
        return min(left, default=0)

    def _finalize_stats(self):
        st = self.stats
        st.bank_conflicts = sum(r.pai.conflicts for r in self.rpus)
        st.arbiter_grants = sum(sum(r.pai.grant_counts.values()) for r in self.rpus)
        st.dma_stall_cycles = sum(r.dma.stall_cycles for r in self.rpus)
        st.pingpong_toggles = sum(r.dma.toggles for r in self.rpus)
        st.sreg_conflicts = sum(r.sregs.conflicts for r in self.rpus)
        m = self.machine
        st.grants_per_lsu, st.pe_active = {}, {}
        for r in self.rpus:   # by RPU id, then the machine's cell order
            counts = r.pai.grant_counts
            st.grants_per_lsu.update(((r.id, rc), counts[rc]) for rc in m.lsu_report_order)
            if r.pes:   # built in cell order
                st.pe_active.update(((r.id, rc), pe.active_cycles) for rc, pe in r.pes.items())
            else:   # a PE never built (its RPU never configured) was never active
                st.pe_active.update(dict.fromkeys([(r.id, rc) for rc, _, _ in m.cells], 0))
        st.pe_active_cycles = sum(st.pe_active.values())
        st.pe_idle_cycles = st.total_cycles * len(st.pe_active) - st.pe_active_cycles

    def results_words(self, length: int, base: int = 0) -> list[int]:
        return [self.results_buffer.get(base + i, 0) for i in range(length)]


# bounded, since it holds each machine it keys; 16 covers a host that cycles a
# handful of configs per machine on fresh SystemSims, such as six kernels on two
# machines or nine ring-stage configs on one (an LRU smaller than such a cycle never
# hits); a failed validation raises and is never kept
@lru_cache(maxsize=16)
def _loadable(machine, records: tuple) -> tuple:
    """``records``, validated against ``machine``, in the form ``Rpu.load_config``
    loads: per record, its holders and one shared tuple of pre-decoded words."""
    validate_bitstream(machine, records)
    return tuple((record_holders(machine.params, row, col), predecode(words))
                 for row, col, words in records)


def four_step_script(load_len: int, result_addr: int, result_len: int) -> list[HostCommand]:
    """The canonical host flow against RPU 0: load config 0, stream the
    first ``load_len`` image words in, launch, copy the result region back."""
    return [HostCommand(0x01, (0x1, 0)), HostCommand(0x02, (0x1, 0, 0, load_len, 1)),
            HostCommand(0x03, (0x1,)), HostCommand(0x04, (0x1, result_addr, 0, result_len))]


def run_protocol(system: SystemSim, records: list, image: list[int],
                 result_addr: int, result_len: int) -> tuple[list[int], SimStats]:
    """The canonical 4-step host flow against RPU 0.

    Loads the bitstream, streams the image into the scratchpad, launches
    until done, and copies the result region back to the host buffer.
    """
    system.ext_memory.clear()
    system.ext_memory.extend(image)
    system.register_config(0, records)
    system.submit_script(four_step_script(len(image), result_addr, result_len))
    stats = system.run()
    return system.results_words(result_len), stats
