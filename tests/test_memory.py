"""Banked SRAM, round-robin arbitration, and the ping-pong DMA."""

import random
from dataclasses import replace

import pytest

from windmill.errors import SimulationError, ValidationError
from windmill.arch import PeType, standard_preset, validate
from windmill.memory import BankedSram, DmaController, PaiArbiter, Request, TransferBatch


def lsu_ids(n=28):
    return [("lsu", i) for i in range(n)]


class TestSram:
    def test_half_split_on_top_row_bit(self):
        """Every access takes the bank as ``addr % banks``, the low address
        bits, and the ping-pong half as ``addr // half_words``, the top bit of
        the row address ``addr // banks``. Over every bank count and depth up
        to 64 x 256 that ``validate`` accepts (powers of two), and every
        address, both hold."""
        base = standard_preset()
        shapes = []
        for banks in range(1, 65):
            for depth in range(1, 257):
                try:
                    validate(replace(base, sm_banks=banks, bank_depth=depth))
                except ValidationError:
                    continue
                shapes.append((banks, depth))
        assert len(shapes) == 7 * 8   # banks 1..64, depth 2..256
        for banks, depth in shapes:
            sram = BankedSram(banks, depth)
            half_words = sram.words // 2   # as the RPU keeps it
            addrs = range(sram.words)
            assert sram.words == len(sram.data) == banks * depth
            assert [a % banks for a in addrs] == [a & (banks - 1) for a in addrs]
            assert [a // half_words for a in addrs] == [a // banks // (depth // 2) for a in addrs]


class BruteForceArbiter:
    """Independent re-implementation used as the grant/conflict oracle."""

    def __init__(self, order, n_banks):
        self.order = list(order)
        self.pointer = {b: len(order) - 1 for b in range(n_banks)}
        self.grants = {r: 0 for r in order}
        self.conflicts = 0

    def cycle(self, requests, sram):
        granted = []
        per_bank = {}
        for req, addr in sorted(requests.items(), key=lambda kv: self.order.index(kv[0])):
            per_bank.setdefault(addr % sram.banks, []).append(req)
        for bank, reqs in sorted(per_bank.items()):
            self.conflicts += max(0, len(reqs) - 1)
            n = len(self.order)
            start = self.pointer[bank]
            best = min(reqs, key=lambda r: (self.order.index(r) - start - 1) % n)
            self.pointer[bank] = self.order.index(best)
            self.grants[best] += 1
            granted.append(best)
        return granted


def general_arbitrate(pai, sram):
    """The by-bank reference that ``PaiArbiter.arbitrate``'s one scan must
    match on every pending set: each bank's contenders gathered in a list,
    the winner the one nearest past the bank's pointer."""
    by_bank = {}
    for req in pai.pending.values():
        by_bank.setdefault(req.addr % sram.banks, []).append(pai._pos[req.requester])
    grants = []
    for bank in sorted(by_bank):
        contenders = by_bank[bank]
        pai.conflicts += len(contenders) - 1
        start = pai.rr_pointer[bank]
        n = len(pai.order)
        winner_pos = min(contenders, key=lambda p: (p - start - 1) % n)
        pai.rr_pointer[bank] = winner_pos
        requester = pai.order[winner_pos]
        req = pai.pending.pop(requester)
        pai.grant_counts[requester] += 1
        grants.append((bank, req))
    return grants


class TestArbiter:
    def test_single_requester_granted_immediately(self):
        sram = BankedSram(16, 256)
        pai = PaiArbiter(16, lsu_ids())
        request = Request(("lsu", 5), "read", 3)
        pai.post(request)
        grants = pai.arbitrate(sram)
        assert grants == [(3, request)] and grants[0][1] is request

    def test_saturating_fairness(self):
        """28 LSUs hammering one bank for 28k cycles: exactly 1000 grants each."""
        sram = BankedSram(16, 256)
        order = lsu_ids(28)
        pai = PaiArbiter(16, order)
        for cycle in range(28_000):
            for r in order:
                if r not in pai.pending:
                    pai.post(Request(r, "read", 0))   # bank 0 for everyone
            granted = pai.arbitrate(sram)
            assert len(granted) == 1
        assert set(pai.grant_counts[r] for r in order) == {1000}
        assert pai.conflicts == 27 * 28_000

    def test_conflict_free_parallel_grants(self):
        sram = BankedSram(16, 256)
        order = lsu_ids(16)
        pai = PaiArbiter(16, order)
        for i, r in enumerate(order):
            pai.post(Request(r, "read", i))          # 16 distinct banks
        granted = pai.arbitrate(sram)
        assert len(granted) == 16
        assert pai.conflicts == 0

    def test_window_fairness_bound(self):
        """Over any window of continuous contention, grant counts differ <= 1."""
        sram = BankedSram(8, 64)
        order = lsu_ids(5)
        pai = PaiArbiter(8, order)
        for cycle in range(997):
            for r in order:
                if r not in pai.pending:
                    pai.post(Request(r, "read", 8))  # same bank
            pai.arbitrate(sram)
            counts = [pai.grant_counts[r] for r in order]
            assert max(counts) - min(counts) <= 1

    def test_matches_brute_force_on_random_traces(self):
        rng = random.Random(99)
        sram = BankedSram(8, 64)
        order = lsu_ids(12)
        pai = PaiArbiter(8, order)
        oracle = BruteForceArbiter(order, 8)
        backlog = {}
        for _ in range(3000):
            for r in order:
                if r not in backlog and rng.random() < 0.4:
                    backlog[r] = rng.randrange(512)
            for r, addr in backlog.items():
                if r not in pai.pending:
                    pai.post(Request(r, "read", addr))
            granted = pai.arbitrate(sram)
            expected = oracle.cycle(dict(backlog), sram)
            assert sorted(map(str, (req.requester for _, req in granted))) \
                == sorted(map(str, expected))
            for _, req in granted:
                del backlog[req.requester]
        assert pai.grant_counts == oracle.grants
        assert pai.conflicts == oracle.conflicts

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_general_path_on_every_pending_set(self, seed):
        """Pending sets of one request up to every requester, the ring port
        included, over every bank, for cycles enough that the pointers wrap:
        the same grants in the same order, pointers, conflicts and counts."""
        params = standard_preset()
        order = (*(c for c in params.coords() if params.pe_type(*c) is PeType.LSU), ("ring",))
        sram = BankedSram(params.sm_banks, params.bank_depth)
        pai, ref = PaiArbiter(params.sm_banks, order), PaiArbiter(params.sm_banks, order)
        rng = random.Random(seed)
        sizes = set()
        for _ in range(4000):
            idle = [r for r in order if r not in pai.pending]
            if idle and (not pai.pending or rng.random() < 0.6):
                # mostly one new request, now and then a burst of up to all of them
                k = rng.randint(1, len(idle)) if rng.random() < 0.2 else 1
                for r in rng.sample(idle, k):
                    op = rng.choice(("read", "write"))
                    addr = rng.randrange(sram.words)
                    data = rng.getrandbits(32) if op == "write" else None
                    pai.post(Request(r, op, addr, data))
                    ref.post(Request(r, op, addr, data))
            sizes.add(len(pai.pending))
            assert pai.arbitrate(sram) == general_arbitrate(ref, sram)
            assert pai.pending == ref.pending
            assert pai.rr_pointer == ref.rr_pointer
            assert pai.conflicts == ref.conflicts
            assert pai.grant_counts == ref.grant_counts
        assert {1, len(order)} <= sizes and ref.conflicts > 0
        assert ref.grant_counts[("ring",)] > 0

    def test_stall_retry_semantics(self):
        """A losing request stays pending and wins a later cycle."""
        sram = BankedSram(16, 256)
        pai = PaiArbiter(16, lsu_ids(2))
        pai.post(Request(("lsu", 0), "read", 0))
        pai.post(Request(("lsu", 1), "read", 16))    # same bank 0
        first = pai.arbitrate(sram)
        assert [req.requester for _, req in first] == [("lsu", 0)]
        assert ("lsu", 1) in pai.pending
        second = pai.arbitrate(sram)
        assert [req.requester for _, req in second] == [("lsu", 1)]

    def test_second_post_for_one_requester_raises(self):
        """One pending request per requester, enforced even under -O."""
        pai = PaiArbiter(16, lsu_ids(2))
        pai.post(Request(("lsu", 0), "read", 0))
        with pytest.raises(SimulationError):
            pai.post(Request(("lsu", 0), "read", 1))
        assert pai.pending[("lsu", 0)].addr == 0
        assert pai.total_requests == 1


class TestDma:
    def make(self, ext, depth=16, banks=4):
        sram = BankedSram(banks, depth)
        dma = DmaController(ext, sram.words // 2)
        return sram, dma

    def test_initial_half_and_toggle(self):
        _, dma = self.make([])
        assert dma.half == 1
        dma.request_toggle()
        assert dma.half == 0

    def test_double_toggle_involution(self):
        _, dma = self.make([])
        dma.request_toggle()
        dma.request_toggle()
        assert dma.half == 1 and dma.toggles == 2

    def test_staging_batch_lands_in_array_half(self):
        ext = list(range(100, 110))
        sram, dma = self.make(ext)
        dma.enqueue(TransferBatch(0, 0, 10, staging=True))
        for _ in range(10):
            dma.step(sram, set())
        assert dma.idle() and dma.toggles == 0
        assert sram.data[:10] == ext   # array half = 0

    def test_toggle_deferred_until_batch_completes(self):
        ext = list(range(8))
        sram, dma = self.make(ext)
        dma.enqueue(TransferBatch(0, 0, 8, staging=True))
        dma.step(sram, set())
        dma.request_toggle()
        assert dma.half == 1                      # deferred mid-batch
        for _ in range(7):
            dma.step(sram, set())
        assert dma.idle() and sram.data[:8] == ext
        assert dma.half == 0 and dma.toggles == 1   # applied at completion

    def test_streamed_batch_waits_for_its_half(self):
        ext = list(range(64))
        sram, dma = self.make(ext)
        dma.enqueue(TransferBatch(0, 0, 4, staging=True))
        dma.enqueue(TransferBatch(4, 0, 4))       # phase-1 data
        dma.enqueue(TransferBatch(8, 0, 4))       # phase-2 data
        for _ in range(8):
            dma.step(sram, set())
        half = sram.words // 2
        # staging + first streamed done, the phase-2 batch still queued
        assert sram.data[:half + 4] == [0, 1, 2, 3] + [0] * (half - 4) + [4, 5, 6, 7]
        assert dma.active is None and len(dma.queue) == 1 and dma.toggles == 0
        assert dma.step(sram, set()) is None      # phase-2 gated on a toggle
        dma.request_toggle()
        for _ in range(4):
            dma.step(sram, set())
        assert dma.idle() and dma.toggles == 1
        # phase-1 words went to the DMA-owned half 1, phase-2 to half 0
        assert sram.data[half:half + 4] == [4, 5, 6, 7]
        assert sram.data[:4] == [8, 9, 10, 11]

    def test_stages_before_flip(self):
        """A staging batch holds the launch while it is active or queued in the
        epoch that has begun; one streamed batch may start before the flip, so
        a staging batch behind it still holds it. The second streamed batch
        follows the flip, and the staging batch behind it takes that epoch."""
        sram, dma = self.make(list(range(64)))
        assert not dma.launch_waits()
        for ext in range(0, 10, 2):   # staging, streamed, staging, streamed, staging
            dma.enqueue(TransferBatch(ext, 0, 2, staging=ext % 4 == 0))
        for _ in range(6):   # staging, streamed, staging: two words each
            assert dma.launch_waits()
            dma.step(sram, set())
        # the second streamed batch waits for the flip, the staging one behind it too
        half = sram.words // 2
        assert sram.data[:2] == [4, 5] and sram.data[half:half + 2] == [2, 3]
        assert dma.active is None and len(dma.queue) == 2 and dma.toggles == 0
        assert [(b.epoch, b.half) for b in dma.queue] == [(1, 0), (1, 1)]
        assert not dma.launch_waits()
        dma.request_toggle()
        assert dma.launch_waits()

    def test_staging_batch_queued_while_a_flip_is_deferred(self):
        """It takes the next epoch and fills the half the next phase runs on,
        and the next launch waits for the flip and then for the batch."""
        sram, dma = self.make(list(range(64)))
        dma.enqueue(TransferBatch(0, 0, 4))   # phase 2's data, into the DMA's half 1
        dma.step(sram, set())
        dma.request_toggle()                  # phase 1 ends mid-batch
        staged = TransferBatch(8, 4, 2, staging=True)
        assert not dma.enqueue(staged) and dma.flip_pending
        assert (staged.epoch, staged.half) == (1, 1)
        for _ in range(3):   # the streamed batch's last three words, then the flip lands
            assert dma.launch_waits()
            dma.step(sram, set())
        assert not dma.flip_pending and dma.array_half == 1 and dma.launch_waits()
        for _ in range(2):
            dma.step(sram, set())
        assert dma.idle() and not dma.launch_waits()
        half = sram.words // 2
        assert sram.data[half:half + 6] == [0, 1, 2, 3, 8, 9] and not any(sram.data[:half])

    def test_blocked_bank_stalls(self):
        ext = [1, 2, 3]
        sram, dma = self.make(ext)
        dma.enqueue(TransferBatch(0, 0, 3, staging=True))
        assert dma.step(sram, {0}) is None        # bank 0 busy with the array
        assert dma.stall_cycles == 1
        assert dma.step(sram, set()) == 0
