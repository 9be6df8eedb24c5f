"""Tests for the discrete-event kernel."""

from __future__ import annotations

import hashlib
import heapq
import json

import pytest

from repro.obs.tracing import SpanTracer
from repro.sim.clock import seconds_from_ticks, ticks_from_seconds
from repro.sim.errors import SchedulingError
from repro.sim.kernel import EventHandle, Kernel

#: SHA-256 of the kernel spans after :func:`_mixed_workload`, one
#: ``[seconds] event label`` line per span (:func:`_render_spans`): the
#: format this digest was first pinned in.
CHURN_TRACE_DIGEST = "1e1d6ec98b431ae5e713ae84ea0d9bcf45a3d39f9ee9fd0ff1b732e64becaea2"
#: SHA-256 of ``repr()`` of the ``(tick, ident)`` firing order it returns.
CHURN_ORDER_DIGEST = "8f3e2659cabbdbf5e07ecb52a409ba119b70e4352007496b153b65d4e1bab28d"
#: SHA-256 of ``json.dumps(spans.records(), sort_keys=True)`` for the
#: same run: pins span ids, parents and end ticks too.
CHURN_SPANS_DIGEST = "5f3a55aad2619a4ca9b8662b5e6019d137612349a842248eea4b762da9bf221f"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _render_spans(spans: SpanTracer) -> str:
    return "\n".join(
        f"[{seconds_from_ticks(s.start_tick):12.6f}s] {'event':<12} {s.name}"
        for s in spans.spans
    )


def _mixed_workload(kernel: Kernel) -> list[tuple[int, int]]:
    """A deterministic schedule/post/cancel/nested-event churn.

    Uses a private LCG (not ``random``) so the decision stream depends
    only on the firing order; any change in that order desynchronises
    the stream and cascades into a different trace.
    """
    log: list[tuple[int, int]] = []
    state = 987654321

    def rnd(bound: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) % (1 << 31)
        return state % bound

    handles = []

    def make_callback(ident: int):
        def callback() -> None:
            log.append((kernel.now, ident))
            if rnd(4) == 0:
                kernel.post(
                    rnd(7), make_callback(1000 + ident), label=f"nested:{ident}"
                )
            if handles and rnd(3) == 0:
                handles.pop(rnd(len(handles))).cancel()

        return callback

    for ident in range(150):
        tick = rnd(400)
        if rnd(2):
            handles.append(
                kernel.schedule_at(tick, make_callback(ident), label=f"evt:{ident}")
            )
        else:
            kernel.post_at(tick, make_callback(ident), label=f"evt:{ident}")
    kernel.run_until(500)
    return log


class TestScheduling:
    def test_event_fires_at_scheduled_time(self, kernel):
        fired_at = []
        kernel.schedule_at(100, lambda: fired_at.append(kernel.now))
        kernel.run_until(200)
        assert fired_at == [100]

    def test_relative_schedule(self, kernel):
        kernel.run_until(50)
        fired_at = []
        kernel.schedule(25, lambda: fired_at.append(kernel.now))
        kernel.run_until(100)
        assert fired_at == [75]

    def test_same_tick_fires_in_insertion_order(self, kernel):
        order = []
        kernel.schedule_at(10, lambda: order.append("a"))
        kernel.schedule_at(10, lambda: order.append("b"))
        kernel.schedule_at(10, lambda: order.append("c"))
        kernel.run_until(10)
        assert order == ["a", "b", "c"]

    def test_events_fire_in_time_order_regardless_of_insertion(self, kernel):
        order = []
        kernel.schedule_at(30, lambda: order.append(30))
        kernel.schedule_at(10, lambda: order.append(10))
        kernel.schedule_at(20, lambda: order.append(20))
        kernel.run_until(100)
        assert order == [10, 20, 30]

    def test_scheduling_in_past_raises(self, kernel):
        kernel.run_until(100)
        with pytest.raises(SchedulingError):
            kernel.schedule_at(99, lambda: None)

    def test_negative_delay_raises(self, kernel):
        with pytest.raises(SchedulingError):
            kernel.schedule(-1, lambda: None)

    def test_scheduling_at_now_is_allowed(self, kernel):
        kernel.run_until(10)
        fired = []
        kernel.schedule_at(10, lambda: fired.append(True))
        kernel.run_until(10)
        assert fired == [True]

    def test_event_may_schedule_further_events(self, kernel):
        log = []

        def first():
            log.append("first")
            kernel.schedule(5, lambda: log.append("second"))

        kernel.schedule_at(10, first)
        kernel.run_until(20)
        assert log == ["first", "second"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, kernel):
        fired = []
        handle = kernel.schedule_at(10, lambda: fired.append(True))
        handle.cancel()
        kernel.run_until(20)
        assert fired == []

    def test_cancel_is_idempotent(self, kernel):
        handle = kernel.schedule_at(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_fired_event_is_not_pending(self, kernel):
        # Firing drops the callback, which is how a later cancel() knows
        # there is no queued entry left to tombstone.
        handle = kernel.schedule_at(10, lambda: None)
        kernel.run_until(10)
        assert handle.callback is None and not handle.cancelled

    def test_pending_events_count_skips_cancelled(self, kernel):
        kernel.schedule_at(10, lambda: None)
        handle = kernel.schedule_at(20, lambda: None)
        handle.cancel()
        assert kernel.pending_events == 1


class TestRunUntil:
    def test_clock_reaches_target_even_with_empty_heap(self, kernel):
        kernel.run_until(500)
        assert kernel.now == 500

    def test_events_beyond_target_stay_queued(self, kernel):
        fired = []
        kernel.schedule_at(100, lambda: fired.append(True))
        kernel.run_until(50)
        assert fired == []
        kernel.run_until(150)
        assert fired == [True]

    def test_event_exactly_at_target_fires(self, kernel):
        fired = []
        kernel.schedule_at(100, lambda: fired.append(True))
        kernel.run_until(100)
        assert fired == [True]

    def test_run_until_backwards_raises(self, kernel):
        kernel.run_until(100)
        with pytest.raises(SchedulingError):
            kernel.run_until(50)

    def test_run_until_seconds(self, kernel):
        kernel.run_until(ticks_from_seconds(1.0))
        assert kernel.now == 3200

    def test_step_returns_false_when_empty(self, kernel):
        assert kernel.step() is False

    def test_step_fires_one_event(self, kernel):
        fired = []
        kernel.schedule_at(5, lambda: fired.append(1))
        kernel.schedule_at(6, lambda: fired.append(2))
        assert kernel.step() is True
        assert fired == [1]

    def test_events_fired_counter(self, kernel):
        for tick in range(5):
            kernel.schedule_at(tick, lambda: None)
        kernel.run_until(10)
        assert kernel.events_fired == 5


class TestPostFastPath:
    """``post``/``post_at``: handle-free scheduling, same semantics."""

    def test_post_at_fires_at_scheduled_time(self, kernel):
        fired_at = []
        kernel.post_at(100, lambda: fired_at.append(kernel.now))
        kernel.run_until(200)
        assert fired_at == [100]

    def test_post_is_relative_to_now(self, kernel):
        kernel.run_until(50)
        fired_at = []
        kernel.post(25, lambda: fired_at.append(kernel.now))
        kernel.run_until(100)
        assert fired_at == [75]

    def test_post_at_in_past_raises(self, kernel):
        kernel.run_until(100)
        with pytest.raises(SchedulingError):
            kernel.post_at(99, lambda: None)

    def test_post_negative_delay_raises(self, kernel):
        with pytest.raises(SchedulingError):
            kernel.post(-1, lambda: None)

    def test_post_interleaves_with_schedule_in_seq_order(self, kernel):
        order = []
        kernel.schedule_at(10, lambda: order.append("a"))
        kernel.post_at(10, lambda: order.append("b"))
        kernel.schedule_at(10, lambda: order.append("c"))
        kernel.post_at(10, lambda: order.append("d"))
        kernel.run_until(10)
        assert order == ["a", "b", "c", "d"]

    def test_post_counts_toward_pending_and_fired(self, kernel):
        kernel.post_at(5, lambda: None)
        kernel.post(7, lambda: None)
        assert kernel.pending_events == 2
        kernel.run_until(10)
        assert kernel.pending_events == 0
        assert kernel.events_fired == 2

    def test_labelled_post_is_traced(self):
        spans = SpanTracer()
        kernel = Kernel(spans=spans)
        kernel.post_at(10, lambda: None, label="posted")
        kernel.run_until(10)
        assert [(s.name, s.category, s.start_tick) for s in spans.spans] == [
            ("posted", "kernel", 10)
        ]

    def test_nested_post_from_callback(self, kernel):
        log = []

        def first():
            log.append(kernel.now)
            kernel.post(5, lambda: log.append(kernel.now))

        kernel.post_at(10, first)
        kernel.run_until(20)
        assert log == [10, 15]

    def test_same_tick_post_from_firing_callback(self, kernel):
        # A callback posting at the *current* tick must fire within the
        # same run, after the events already queued for that tick.
        order = []

        def first():
            order.append("first")
            kernel.post(0, lambda: order.append("nested"))

        kernel.post_at(10, first)
        kernel.post_at(10, lambda: order.append("second"))
        kernel.run_until(10)
        assert order == ["first", "second", "nested"]


class TestLookaheadSeams:
    """reserve_seq / post_reserved / queue / drain_bound: what a private
    timeline needs to keep exact (tick, seq) order with the heap."""

    def test_reserved_seq_keeps_its_place_among_later_posts(self, kernel):
        order = []
        kernel.post_at(10, lambda: order.append("first"))
        seq = kernel.reserve_seq()
        kernel.post_at(10, lambda: order.append("third"))
        kernel.post_reserved(10, seq, lambda: order.append("second"))
        kernel.post_at(10, lambda: order.append("fourth"))
        kernel.run_until(10)
        assert order == ["first", "second", "third", "fourth"]

    def test_reserve_advances_like_a_post(self, kernel):
        first = kernel.reserve_seq()
        kernel.post_at(5, lambda: None)
        assert kernel.queue[0][1] == first + 1
        assert kernel.reserve_seq() == first + 2
        assert kernel.pending_events == 1

    def test_post_reserved_goes_through_post_at(self, kernel, monkeypatch):
        calls = []
        original = type(kernel).post_at

        def spy(self, tick, callback, label=""):
            calls.append((tick, self._seq, label))
            return original(self, tick, callback, label)

        monkeypatch.setattr(type(kernel), "post_at", spy)
        seq = kernel.reserve_seq()
        kernel.reserve_seq()
        kernel.post_reserved(7, seq, lambda: None, "wake")
        assert calls == [(7, seq, "wake")]
        assert kernel.reserve_seq() == seq + 2  # the counter is restored

    def test_post_reserved_in_past_raises(self, kernel):
        kernel.run_until(10)
        seq = kernel.reserve_seq()
        with pytest.raises(SchedulingError):
            kernel.post_reserved(5, seq, lambda: None)

    def test_drain_bound_per_run_mode(self, kernel):
        bounds = []
        kernel.post_at(3, lambda: bounds.append(kernel.drain_bound))
        kernel.post_at(8, lambda: bounds.append(kernel.drain_bound))
        kernel.run_until(5)
        kernel.step()
        assert bounds == [5, 8]


class TestPendingCounterChurn:
    """``pending_events`` stays exact under schedule/cancel/fire churn."""

    def test_counter_tracks_naive_recount(self, kernel):
        # Deterministic churn: schedule, cancel some, fire some, then
        # compare against a model maintained the slow way.
        expected = 0
        handles = []
        for i in range(50):
            handles.append(kernel.schedule_at(i * 3, lambda: None))
            expected += 1
        for i in range(0, 50, 4):
            handles[i].cancel()
            expected -= 1
        assert kernel.pending_events == expected

        kernel.run_until(60)  # fires ticks 0..60 → positions 0..20
        fired = sum(
            1 for i, h in enumerate(handles) if i * 3 <= 60 and i % 4 != 0
        )
        expected -= fired
        assert kernel.pending_events == expected

        # Re-schedule on top of the partially drained queue.
        for i in range(10):
            handles.append(kernel.schedule(5 + i, lambda: None))
            expected += 1
        assert kernel.pending_events == expected
        kernel.run_until(1000)
        assert kernel.pending_events == 0

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_exact_inside_a_running_drain(self, traced):
        kernel = Kernel(spans=SpanTracer() if traced else None)
        seen: list[tuple[int, int]] = []

        def naive_recount() -> int:
            return sum(
                1
                for _, _, payload in kernel.queue
                if not isinstance(payload, EventHandle) or payload.callback is not None
            )

        def probe() -> None:
            seen.append((kernel.pending_events, naive_recount()))

        doomed = kernel.schedule_at(9, lambda: None, label="doomed")
        for tick in range(8):
            kernel.post_at(tick, probe, label="probe")
        kernel.post_at(3, doomed.cancel)
        kernel.post_at(4, lambda: kernel.post(10, probe))
        kernel.run_until(20)
        assert len(seen) == 9
        assert all(counted == recounted for counted, recounted in seen), seen

    def test_cancel_after_fire_does_not_underflow(self, kernel):
        handle = kernel.schedule_at(10, lambda: None)
        kernel.run_until(10)
        assert kernel.pending_events == 0
        handle.cancel()
        assert kernel.pending_events == 0

    def test_double_cancel_counts_once(self, kernel):
        keep = kernel.schedule_at(20, lambda: None)
        handle = kernel.schedule_at(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert kernel.pending_events == 1
        assert keep.callback is not None

    def test_cancel_from_callback_mid_drain(self, kernel):
        # Cancelling a later same-tick event from inside a firing
        # callback must stop it firing and keep the count exact.
        fired = []
        victim = kernel.schedule_at(10, lambda: fired.append("victim"))

        def assassin():
            fired.append("assassin")
            victim.cancel()

        kernel.schedule_at(5, assassin)
        kernel.run_until(20)
        assert fired == ["assassin"]
        assert kernel.pending_events == 0

    def test_mass_cancellation_triggers_compaction(self, kernel):
        # Cancel enough to outnumber the live entries and exceed the
        # compaction floor; the survivors must be untouched.
        survivors = [kernel.schedule_at(500 + i, lambda: None) for i in range(20)]
        doomed = [kernel.schedule_at(100 + i, lambda: None) for i in range(120)]
        for handle in doomed:
            handle.cancel()
        assert kernel.pending_events == 20
        fired_before = kernel.events_fired
        kernel.run_until(1000)
        assert kernel.events_fired - fired_before == 20
        assert kernel.pending_events == 0
        assert all(h.callback is None and not h.cancelled for h in survivors)


class TestRunUntilPeek:
    """``run_until`` never pops an event beyond the target tick."""

    def test_no_pop_when_head_is_beyond_target(self, kernel, monkeypatch):
        kernel.schedule_at(100, lambda: None)

        def forbidden_pop(_heap):
            raise AssertionError("run_until popped an event beyond the target")

        monkeypatch.setattr(heapq, "heappop", forbidden_pop)
        kernel.run_until(50)  # must peek, not pop
        assert kernel.now == 50
        assert kernel.pending_events == 1

    def test_deferred_event_fires_later_unchanged(self, kernel):
        fired_at = []
        kernel.schedule_at(100, lambda: fired_at.append(kernel.now))
        for target in (10, 50, 99):
            kernel.run_until(target)
            assert fired_at == []
        kernel.run_until(100)
        assert fired_at == [100]


class TestGoldenChurn:
    """Firing order under churn, pinned by digest rather than by a
    second queue implementation."""

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_mixed_workload_matches_pinned_digests(self, traced):
        spans = SpanTracer() if traced else None
        kernel = Kernel(spans=spans)
        order = _mixed_workload(kernel)
        if spans is not None:
            assert _sha256(_render_spans(spans)) == CHURN_TRACE_DIGEST
            assert (
                _sha256(json.dumps(spans.records(), sort_keys=True))
                == CHURN_SPANS_DIGEST
            )
        assert _sha256(repr(order)) == CHURN_ORDER_DIGEST
        assert (kernel.events_fired, kernel.pending_events) == (162, 0)

    def test_step_visits_time_then_insertion_order(self, kernel):
        order: list[tuple[int, str]] = []
        for ident in ("a", "b", "c"):
            kernel.schedule_at(10, lambda i=ident: order.append((kernel.now, i)))
        kernel.schedule_at(5, lambda: order.append((kernel.now, "early")))
        kernel.schedule_at(20, lambda: order.append((kernel.now, "late")))
        while kernel.step():
            pass
        assert order == [
            (5, "early"),
            (10, "a"),
            (10, "b"),
            (10, "c"),
            (20, "late"),
        ]
