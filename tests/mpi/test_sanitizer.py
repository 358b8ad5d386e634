"""Tests for the runtime message sanitizer (``sanitize=True``)."""

import threading
import warnings

import pytest

from repro.mpi.cluster import SimCluster
from repro.mpi.simcomm import DeadlockError, MessageLeakError, PayloadMutationError
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def cluster(n, **kw):
    kw.setdefault("cost_model", FAST)
    kw.setdefault("deadlock_timeout", 20.0)
    return SimCluster(n, **kw)


class TestPayloadMutation:
    def test_mutate_after_send_raises(self):
        """The canonical MPI003 race, caught at runtime."""
        mutated = threading.Event()

        def fn(comm):
            if comm.rank == 0:
                payload = [1, 2, 3]
                comm.send(payload, dest=1)
                payload.append(4)  # noqa: MPI003 - deliberate race under test
                mutated.set()
                return None
            assert mutated.wait(timeout=10.0)
            return comm.recv(source=0)

        with pytest.raises(RuntimeError) as exc_info:
            cluster(2, sanitize=True).run(fn)
        assert isinstance(exc_info.value.__cause__, PayloadMutationError)

    def test_clean_exchange_passes(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"k": [1, 2]}, dest=1)
                return None
            return comm.recv(source=0)

        results, _ = cluster(2, sanitize=True).run(fn)
        assert results[1] == {"k": [1, 2]}

    def test_collectives_pass_under_sanitizer(self):
        def fn(comm):
            data = comm.bcast(list(range(8)), root=0)
            total = comm.allreduce(comm.rank)
            parts = comm.allgather(data[comm.rank % len(data)])
            return (data, total, parts)

        size = 5
        results, _ = cluster(size, sanitize=True).run(fn)
        for data, total, parts in results:
            assert data == list(range(8))
            assert total == sum(range(size))
            assert parts == [r % 8 for r in range(size)]

    def test_unpicklable_payload_skips_fingerprint(self):
        """No digest can be taken, so the sanitizer must not crash."""

        def fn(comm):
            if comm.rank == 0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    comm.send(threading.Lock(), dest=1)
                return None
            received = comm.recv(source=0)
            return type(received).__name__

        results, _ = cluster(2, sanitize=True).run(fn)
        assert "lock" in results[1].lower()

    def test_mutation_not_detected_without_sanitize(self):
        """Default mode keeps the old permissive behavior."""
        mutated = threading.Event()

        def fn(comm):
            if comm.rank == 0:
                payload = [1]
                comm.send(payload, dest=1)
                payload.append(2)  # noqa: MPI003 - deliberate race under test
                mutated.set()
                return None
            assert mutated.wait(timeout=10.0)
            return comm.recv(source=0)

        results, _ = cluster(2).run(fn)
        assert results[1] == [1, 2]  # receiver observes the race silently


class TestMessageLeak:
    def test_unconsumed_message_raises_at_shutdown(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("orphan", dest=1, tag=7)

        with pytest.raises(MessageLeakError, match=r"0->1 tag 7"):
            cluster(2, sanitize=True).run(fn)

    def test_unconsumed_message_ignored_without_sanitize(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("orphan", dest=1, tag=7)

        cluster(2).run(fn)  # no error: leak detection is opt-in

    def test_rank_error_takes_precedence_over_leak(self):
        """A failing rank reports its own error, not the leak it caused."""

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
                raise ValueError("boom")
            comm.advance(0.0)  # rank 1 exits without receiving

        with pytest.raises(RuntimeError, match="boom"):
            cluster(2, sanitize=True).run(fn)


# -- protocol scenarios ------------------------------------------------------
#
# Point-to-point and collective mistakes that only show across ranks: a
# send no rank receives, a receive no rank feeds, cyclic waits, a
# collective only some ranks reach, and a payload the receiver uses as
# the wrong type.  The sanitizer, with a short deadlock timeout, is the
# check that catches each of them.

SCENARIO_TIMEOUT = 0.5


def orphan_send(comm):
    """Rank 0 ships a message rank 1 never collects."""
    if comm.rank == 0:
        comm.send([1, 2, 3], dest=1, tag=3)
    return comm.rank


def starved_recv(comm):
    """Rank 1 waits for a message no rank ever sends."""
    if comm.rank == 1:
        return comm.recv(source=0, tag=9)
    return None


def pairwise_swap(comm):
    """Ranks 0 and 1 both post their recv first: head-to-head wait."""
    if comm.rank == 0:
        got = comm.recv(source=1)
        comm.send("from-zero", dest=1)
    elif comm.rank == 1:
        got = comm.recv(source=0)
        comm.send("from-one", dest=0)
    else:
        got = None
    return got


def ring_exchange(comm):
    """Every rank receives from the left before sending right."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    incoming = comm.recv(source=left)
    comm.send(incoming, dest=right)
    return incoming


def sync_lengths(comm, counts):
    """Every rank must call this together: it runs an allgather."""
    return comm.allgather(len(counts))


def skewed_driver(comm, items):
    """Only rank 0 reaches the helper's collective."""
    if comm.rank == 0:
        sizes = sync_lengths(comm, items)
    else:
        sizes = None
    return sizes


def per_item_reduce(comm, items):
    """A reduce per local item: the trip count differs across ranks."""
    totals = []
    for chunk in items[comm.rank]:
        totals.append(comm.reduce(len(chunk), root=0))
    return totals


def ship_flags(comm):
    """Rank 0 sends a dict; rank 1 uses it as a list."""
    if comm.rank == 0:
        comm.send({"trim": True}, dest=1)
        return None
    if comm.rank == 1:
        flags = comm.recv(source=0)
        flags.append("done")
        return flags
    return None


def reduce_step(comm, value):
    total = comm.gather(value, root=0)
    if comm.rank == 0:
        merged = sum(total)
    else:
        merged = None
    return comm.bcast(merged, root=0)


def clean_driver(comm):
    """Matched ring exchange followed by a symmetric gather + bcast."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    token = comm.sendrecv({"origin": comm.rank}, dest=right, source=left)
    token.update({"hops": 1})
    return reduce_step(comm, len(token))


class TestProtocolScenarios:
    @pytest.mark.parametrize(
        "fn, n_ranks, args",
        [
            pytest.param(starved_recv, 2, (), id="starved_recv"),
            pytest.param(pairwise_swap, 2, (), id="pairwise_swap"),
            pytest.param(ring_exchange, 3, (), id="ring_exchange"),
            pytest.param(skewed_driver, 2, ([1, 2],), id="skewed_driver"),
            # the root has more items than rank 1: its second recv starves
            pytest.param(
                per_item_reduce, 2, ([["a", "b"], ["c"]],), id="per_item_reduce"
            ),
        ],
    )
    def test_blocked_receive_raises_deadlock(self, fn, n_ranks, args):
        sim = cluster(n_ranks, sanitize=True, deadlock_timeout=SCENARIO_TIMEOUT)
        with pytest.raises(RuntimeError, match="failed") as exc_info:
            sim.run(fn, *args)
        cause = exc_info.value.__cause__
        assert isinstance(cause, DeadlockError)
        assert "timed out receiving" in str(cause)

    @pytest.mark.parametrize(
        "fn, args, leak",
        [
            pytest.param(
                orphan_send, (), r"rank 0->1 tag 3: 1 message", id="orphan_send"
            ),
            # rank 1 has more items than the root: its extra send is never read
            pytest.param(
                per_item_reduce,
                ([["a"], ["b", "c"]],),
                r"rank 1->0 tag -1005: 1 message",
                id="per_item_reduce",
            ),
        ],
    )
    def test_unreceived_send_raises_leak(self, fn, args, leak):
        sim = cluster(2, sanitize=True, deadlock_timeout=SCENARIO_TIMEOUT)
        with pytest.raises(MessageLeakError, match=leak):
            sim.run(fn, *args)

    def test_payload_type_mismatch_surfaces_receiver_error(self):
        sim = cluster(2, sanitize=True, deadlock_timeout=SCENARIO_TIMEOUT)
        with pytest.raises(RuntimeError, match="rank 1 failed") as exc_info:
            sim.run(ship_flags)
        assert isinstance(exc_info.value.__cause__, AttributeError)
        assert "append" in str(exc_info.value.__cause__)

    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    def test_clean_protocol_runs_clean(self, n_ranks):
        sim = cluster(n_ranks, sanitize=True, deadlock_timeout=SCENARIO_TIMEOUT)
        results, _ = sim.run(clean_driver)
        assert results == [2 * n_ranks] * n_ranks
