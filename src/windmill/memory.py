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
is deferred until the batch completes. The DMA also owns the launch rule: a
phase may launch unless a flip is deferred or a batch due in its half has
not landed.

An address is checked once, where it enters: a PE's in ``Rpu.mem_request``,
a host region's in ``Rpu.check_region``; the SRAM's words are indexed unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SimulationError


class BankedSram:
    """Word-addressed banked SRAM: bank = ``addr % banks``, half = top row bit."""

    def __init__(self, banks: int, depth: int, width: int = 32):
        self.banks = banks
        self.words = banks * depth
        self.mask = (1 << width) - 1
        self.data = [0] * self.words


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
        grant is the bank and the posted request itself. Posted addresses are
        in range, so the bank is taken unchecked."""
        pointer, n, banks = self.rr_pointer, len(self.order), sram.banks
        nearest: dict[int, int] = {}   # bank -> winner's distance past its pointer
        for requester, req in self.pending.items():
            bank = req.addr % banks
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
    staging: bool = False      # pre-launch load, into the half its epoch's phase runs on
    progress: int = 0
    epoch: int = 0             # the flips landed before it streams; bound when queued
    half: int = 0              # the half it fills; bound when queued


class DmaController:
    """Streams transfer batches into the scratchpad and owns the launch rule.

    ``enqueue`` binds each batch to its epoch, the flips landed before it
    streams: the max of the last batch's, the flips requested so far and, for
    the j-th streamed batch (phase j+1's data), flip j-1. A staging batch
    fills its epoch's array half, a streamed one the DMA's, which the next
    flip hands to the array. A flip requested mid-batch is deferred until the
    batch completes; a phase waits for it and for each batch that fills its
    half (``launch_waits``), so no second finish comes while one is deferred.
    """

    def __init__(self, ext_memory: list[int], half_words: int):
        self.ext = ext_memory
        self.half_words = half_words
        self.queue: list[TransferBatch] = []
        self.active: TransferBatch | None = None
        self.streamed: list[TransferBatch] = []   # by the flip each follows
        self.epoch = 0                    # the last queued batch's
        self.toggles = 0
        self.flip_pending = False         # a finish signal waits for the active batch
        self.stall_cycles = 0

    @property
    def half(self) -> int:
        """The DMA-owned half: half 1 at reset, flipped by each toggle."""
        return 1 - self.toggles % 2

    @property
    def array_half(self) -> int:
        return self.toggles % 2

    def enqueue(self, batch: TransferBatch) -> bool:
        """Queue ``batch``, bound to its epoch and half. True if it is late: a
        streamed batch queued once the flip that hands its half to the array is requested."""
        flip = 0
        if not batch.staging:
            flip = len(self.streamed)
            self.streamed.append(batch)
        batch.epoch = self.epoch = max(self.epoch, self.toggles + self.flip_pending, flip)
        batch.half = batch.epoch % 2 if batch.staging else 1 - batch.epoch % 2
        self.queue.append(batch)
        return not batch.staging and batch.epoch > flip

    def idle(self) -> bool:
        return self.active is None and not self.queue

    def launch_waits(self) -> bool:
        """A phase waits for a deferred flip and for each batch due in its half."""
        batches = self.queue if self.active is None else [self.active, *self.queue]
        return self.flip_pending or any(
            b.epoch <= self.toggles and b.half == self.array_half for b in batches)

    def request_toggle(self):
        """Finish signal from the array; deferred while a batch is in flight."""
        if self.active is not None:
            self.flip_pending = True
        else:
            self.toggles += 1

    def step(self, sram: BankedSram, blocked_banks: set[int]) -> int | None:
        """Advance one cycle. Returns the half written this cycle, if any.

        ``blocked_banks`` are banks already granted to the array this cycle;
        the array wins same-bank ties, the DMA stalls and retries.
        """
        batch = self.active
        if batch is None:   # a batch starts once its epoch has begun
            if not self.queue or self.queue[0].epoch > self.toggles:
                return None
            batch = self.active = self.queue.pop(0)
        half = None
        if batch.progress < batch.length:   # a zero-length batch writes nothing
            half = batch.half
            if (batch.sm_addr + batch.progress + half * self.half_words) % sram.banks in blocked_banks:
                self.stall_cycles += 1
                return None
            self.stream(sram, 1)
        if batch.progress >= batch.length:
            self.active = None
            if self.flip_pending:   # the deferred flip lands
                self.flip_pending = False
                self.toggles += 1
        return half

    def stream(self, sram: BankedSram, n: int):
        """What ``n`` unblocked ``step`` calls write, short of the batch end."""
        batch = self.active
        base = batch.sm_addr + batch.half * self.half_words
        data, mask = sram.data, sram.mask
        for i in range(batch.progress, batch.progress + n):
            ext_idx = batch.ext_addr + i
            data[base + i] = (self.ext[ext_idx] if ext_idx < len(self.ext) else 0) & mask
        batch.progress += n
