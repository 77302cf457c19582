"""Banked scratchpad, parallel access interface, and double-buffered DMA.

The scratchpad is ``sm_banks`` single-ported banks of ``bank_depth`` 32-bit
words, word-interleaved on the low address bits so unit-stride streams are
conflict free. Each bank grants at most one access per cycle; the grant goes
to the first requester strictly after the bank's round-robin pointer in
cyclic order, losers stall and retry. A granted load responds with the word
it read, a store with the word it wrote, one cycle after the grant.

Double buffering splits every bank in half on the top row-address bit. The
DMA controller owns one half (initially half 1) and streams queued batches
into it one word per cycle; the compute array only ever touches the other
half. The array's finish signal flips ownership; a flip requested mid-batch
is deferred until the batch completes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AddressOutOfRange, SimulationError


class BankedSram:
    """Word-addressed banked SRAM. Bank = low bits, row = high bits."""

    def __init__(self, banks: int, depth: int, width: int = 32):
        self.banks = banks
        self.depth = depth
        self.width = width
        self.words = banks * depth
        self.data = [0] * self.words

    def _check(self, addr: int):
        if not 0 <= addr < self.words:
            raise AddressOutOfRange(f"address {addr} outside {self.words} words")

    def bank_of(self, addr: int) -> int:
        self._check(addr)
        return addr % self.banks

    def row_of(self, addr: int) -> int:
        self._check(addr)
        return addr // self.banks

    def read(self, addr: int) -> int:
        self._check(addr)
        return self.data[addr]

    def write(self, addr: int, value: int):
        self._check(addr)
        self.data[addr] = value & ((1 << self.width) - 1)

    def half_of(self, addr: int) -> int:
        """Ping-pong half: top bit of the row address."""
        return self.row_of(addr) // (self.depth // 2)


@dataclass(slots=True)
class Request:
    requester: object          # LSU coord, or ("ring",) for the ring port
    op: str                    # "read" | "write"
    addr: int                  # physical word address
    data: int | None = None


class PaiArbiter:
    """Per-bank round-robin arbitration over the pending LSU requests.

    ``order`` fixes the cyclic requester order (LSU coordinates in raster
    order, with the ring port last). Each requester holds at most one
    pending request; it stays pending until granted.
    """

    def __init__(self, n_banks: int, order: tuple):
        self.order = order
        self._pos = dict(zip(order, range(len(order))))
        self.rr_pointer = [len(self.order) - 1] * n_banks  # so index 0 wins first
        self.pending: dict[object, Request] = {}
        self.grant_counts: dict[object, int] = dict.fromkeys(order, 0)
        self.conflicts = 0
        self.total_requests = 0

    def post(self, request: Request):
        if request.requester in self.pending:
            raise SimulationError(
                f"requester {request.requester} posted while its request is pending")
        self.pending[request.requester] = request
        self.total_requests += 1

    def arbitrate(self, sram: BankedSram) -> list[tuple[int, Request]]:
        """Pick one winner per contested bank and advance its pointer; each
        grant is the bank and the posted request itself."""
        pointer, n = self.rr_pointer, len(self.order)
        nearest: dict[int, int] = {}   # bank -> winner's distance past its pointer
        for requester, req in self.pending.items():
            bank = sram.bank_of(req.addr)
            distance = (self._pos[requester] - pointer[bank] - 1) % n
            if distance < nearest.get(bank, n):
                nearest[bank] = distance
        self.conflicts += len(self.pending) - len(nearest)   # each contender past a winner
        grants = []
        for bank in sorted(nearest):
            winner_pos = pointer[bank] = (pointer[bank] + 1 + nearest[bank]) % n
            requester = self.order[winner_pos]
            self.grant_counts[requester] += 1
            grants.append((bank, self.pending.pop(requester)))
        return grants


@dataclass
class TransferBatch:
    """One queued DMA job: copy ``length`` words from external memory into
    the scratchpad, at one word per cycle."""

    ext_addr: int
    sm_addr: int               # half-relative word address
    length: int
    staging: bool = False      # pre-launch load: half chosen by the array side
    progress: int = 0


class DmaController:
    """Streams transfer batches into the DMA-owned scratchpad half.

    Staging batches (pre-launch loads) target the array's half and start
    immediately. The j-th streamed batch (phase-j data, 1-based) is gated on
    j-1 completed ping-pong toggles, which is exactly "the half I own now is
    the half this batch belongs in". The array's finish signal flips
    ownership; a flip requested mid-batch is deferred until the batch
    completes, never dropped.
    """

    def __init__(self, ext_memory: list[int], half_words: int):
        self.ext = ext_memory
        self.half_words = half_words
        self.half = 1                     # DMA-owned half at reset
        self.queue: list[TransferBatch] = []
        self.active: TransferBatch | None = None
        self._active_half = 0
        self.streamed_started = 0
        self.completed = 0
        self.toggles = 0
        self._toggle_pending = False
        self.stall_cycles = 0

    @property
    def array_half(self) -> int:
        return 1 - self.half

    def enqueue(self, batch: TransferBatch):
        self.queue.append(batch)

    def idle(self) -> bool:
        return self.active is None and not self.queue

    def stages_before_flip(self) -> bool:
        """A staging batch streams before the next flip: the active batch, or
        one queued ahead of a streamed batch that waits for the flip."""
        if self.active is not None and self.active.staging:
            return True
        free = self.toggles >= self.streamed_started   # one streamed batch may still start
        for batch in self.queue:
            if batch.staging:
                return True
            if not free:
                return False
            free = False
        return False

    def request_toggle(self):
        """Finish signal from the array; deferred while a batch is in flight."""
        if self.active is not None:
            self._toggle_pending = True
        else:
            self._apply_toggle()

    def _apply_toggle(self):
        self.half = 1 - self.half
        self.toggles += 1
        self._toggle_pending = False

    def step(self, sram: BankedSram, blocked_banks: set[int]) -> int | None:
        """Advance one cycle. Returns the bank written this cycle, if any.

        ``blocked_banks`` are banks already granted to the array this cycle;
        the array wins same-bank ties, the DMA stalls and retries.
        """
        if self.active is None:
            if self.queue:
                head = self.queue[0]
                if head.staging:
                    self.active = self.queue.pop(0)
                    self._active_half = self.array_half
                elif self.toggles >= self.streamed_started:
                    self.active = self.queue.pop(0)
                    self._active_half = self.half
                    self.streamed_started += 1
            if self.active is None:
                return None
        batch = self.active
        bank = None
        if batch.progress < batch.length:   # a zero-length batch writes nothing
            bank = sram.bank_of(self._addr(batch.progress))
            if bank in blocked_banks:
                self.stall_cycles += 1
                return None
            self.stream(sram, 1)
        if batch.progress >= batch.length:
            self.active = None
            self.completed += 1
            if self._toggle_pending:
                self._apply_toggle()
        return bank

    def stream(self, sram: BankedSram, n: int):
        """What ``n`` unblocked ``step`` calls write, short of the batch end."""
        batch = self.active
        for i in range(batch.progress, batch.progress + n):
            ext_idx = batch.ext_addr + i
            sram.write(self._addr(i), self.ext[ext_idx] if ext_idx < len(self.ext) else 0)
        batch.progress += n

    def _addr(self, i: int) -> int:
        """Physical scratchpad address of word ``i`` of the active batch."""
        return self.active.sm_addr + i + self._active_half * self.half_words
