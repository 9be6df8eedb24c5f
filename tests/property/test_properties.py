"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import EmpiricalCDF, summarize
from repro.bluetooth.address import BDAddr
from repro.bluetooth.btclock import CLKN_WRAP, BluetoothClock
from repro.bluetooth.constants import NUM_INQUIRY_FREQUENCIES, TICKS_PER_TRAIN_PASS
from repro.bluetooth.hopping import (
    PeriodicWindows,
    Train,
    TrainStrategy,
    periodic_inquiry,
    train_of_position,
    tx_offset_of_position,
)
from repro.core.tracker import PresenceTracker
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStream
from tests.bluetooth.test_address import bdaddr_from_parts
from tests.bluetooth.test_hopping import enumerate_transmissions

# -- kernel ---------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
@settings(max_examples=50)
def test_kernel_fires_in_nondecreasing_time_order(times):
    kernel = Kernel()
    fired = []
    for t in times:
        kernel.schedule_at(t, lambda t=t: fired.append(kernel.now))
    kernel.run_until(10_001)
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    st.lists(
        st.tuples(st.integers(0, 5_000), st.booleans()), min_size=1, max_size=40
    )
)
@settings(max_examples=50)
def test_kernel_cancelled_events_never_fire(entries):
    kernel = Kernel()
    fired = []
    handles = []
    for t, cancel in entries:
        handles.append((kernel.schedule_at(t, lambda t=t: fired.append(t)), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    kernel.run_until(5_001)
    expected = sorted(t for (t, cancel) in entries if not cancel)
    assert sorted(fired) == expected


# -- addresses ----------------------------------------------------------------


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_bdaddr_parse_format_roundtrip(value):
    text = BDAddr(value).format()
    assert len(text) == 17 and int(text.replace(":", ""), 16) == value


@given(
    st.integers(0, (1 << 16) - 1),
    st.integers(0, (1 << 8) - 1),
    st.integers(0, (1 << 24) - 1),
)
def test_bdaddr_parts_roundtrip(nap, uap, lap):
    addr = bdaddr_from_parts(nap, uap, lap)
    assert addr.lap == lap
    assert addr.value >> 24 == (nap << 8) | uap


# -- clock -------------------------------------------------------------------


@given(st.integers(0, CLKN_WRAP - 1), st.integers(0, 1 << 30))
def test_clock_phase_change_period(offset, tick):
    clock = BluetoothClock(offset=offset)
    delta = clock.ticks_to_next_phase_change(tick)
    assert 1 <= delta <= 4096
    phase_now = clock.clkn(tick) // 4096
    assert clock.clkn(tick + delta - 1) // 4096 == phase_now
    assert clock.clkn(tick + delta) // 4096 == (phase_now + 1) % (CLKN_WRAP // 4096)


# -- hopping -------------------------------------------------------------------


@given(
    window=st.integers(64, 2048),
    period_extra=st.integers(0, 4096),
    start=st.integers(0, 1000),
    position=st.integers(0, NUM_INQUIRY_FREQUENCIES - 1),
    from_tick=st.integers(0, 12_000),
    strategy=st.sampled_from(list(TrainStrategy)),
    start_train=st.sampled_from(list(Train)),
)
@settings(max_examples=60, deadline=None)
def test_next_tx_matches_brute_force(
    window, period_extra, start, position, from_tick, strategy, start_train
):
    schedule = periodic_inquiry(
        window_ticks=window,
        period_ticks=window + period_extra,
        start=start,
        strategy=strategy,
        start_train=start_train,
    )
    horizon = 16_000
    expected = next(
        (
            tick
            for tick, pos in sorted(enumerate_transmissions(schedule, horizon))
            if pos == position and tick >= from_tick
        ),
        None,
    )
    assert schedule.next_tx_of_position(position, from_tick, horizon) == expected


@given(st.integers(0, NUM_INQUIRY_FREQUENCIES - 1))
def test_tx_offset_in_pass_bounds(position):
    offset = tx_offset_of_position(position)
    assert 0 <= offset < TICKS_PER_TRAIN_PASS
    # Offsets identify the transmit half-slots of even slots only.
    slot = offset // 2
    assert slot % 2 == 0


@given(
    st.integers(1, 500),
    st.integers(0, 2000),
    st.integers(0, 20_000),
)
@settings(max_examples=60)
def test_periodic_windows_containing_consistent(window, start, probe):
    windows = PeriodicWindows(
        start=start, window_ticks=window, period_ticks=window + 250
    )
    containing = windows.containing(probe)
    if containing is not None:
        assert containing.contains(probe)
        assert windows.is_active(probe)
    else:
        assert not windows.is_active(probe)


# -- tracker -------------------------------------------------------------------


@given(
    st.lists(
        st.lists(st.integers(0, 5), unique=True, max_size=6),
        min_size=1,
        max_size=30,
    ),
    st.integers(1, 3),
)
@settings(max_examples=60)
def test_tracker_deltas_replay_to_current_state(cycles, threshold):
    """Folding the reported deltas must reproduce the tracker's state."""
    tracker = PresenceTracker(miss_threshold=threshold)
    believed: set[BDAddr] = set()
    for index, seen_values in enumerate(cycles):
        seen = [BDAddr(v) for v in seen_values]
        deltas = tracker.observe_cycle(seen, tick=index * 100)
        for addr in deltas.new_presences:
            assert addr not in believed  # presence only reported on change
            believed.add(addr)
        for addr in deltas.new_absences:
            assert addr in believed  # absence only for present devices
            believed.remove(addr)
    assert believed == tracker.present_devices


@given(
    st.lists(st.booleans(), min_size=1, max_size=40),
    st.integers(1, 4),
)
@settings(max_examples=60)
def test_tracker_single_device_hysteresis(seen_flags, threshold):
    """A device is absent iff it missed >= threshold consecutive cycles."""
    tracker = PresenceTracker(miss_threshold=threshold)
    device = BDAddr(1)
    ever_present = False
    misses = 0
    for index, seen in enumerate(seen_flags):
        tracker.observe_cycle([device] if seen else [], tick=index)
        if seen:
            ever_present = True
            misses = 0
        elif ever_present:
            misses += 1
    if not ever_present:
        expected_present = False
    else:
        expected_present = misses < threshold
    assert (device in tracker.present_devices) == expected_present


# -- statistics ---------------------------------------------------------------


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_summary_bounds(values):
    summary = summarize(values)
    # Allow for floating-point accumulation error in the mean.
    slack = 1e-6 * (abs(summary.minimum) + abs(summary.maximum) + 1.0)
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.std >= 0


@given(
    st.lists(
        st.one_of(st.none(), st.floats(0, 100)), min_size=1, max_size=100
    )
)
def test_cdf_monotone_and_bounded(samples):
    cdf = EmpiricalCDF.from_samples(samples)
    grid = [0.0, 1.0, 5.0, 25.0, 50.0, 100.0, 1000.0]
    curve = cdf.sample_curve(grid)
    assert curve == sorted(curve)
    assert all(0.0 <= v <= 1.0 for v in curve)
    assert curve[-1] == cdf.completion_fraction


# -- rng ------------------------------------------------------------------------


@given(st.integers(0, 2**32), st.text(min_size=1, max_size=10))
def test_rng_streams_reproducible(seed, name):
    a = RandomStream(seed, name)
    b = RandomStream(seed, name)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


# -- pathfinding ------------------------------------------------------------------


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_dijkstra_triangle_inequality(data):
    """d(a,c) <= d(a,b) + d(b,c) for all sampled triples."""
    from repro.core.pathfinding import AllPairsPaths, Graph

    node_count = data.draw(st.integers(3, 10))
    nodes = [f"n{i}" for i in range(node_count)]
    graph = Graph()
    for node in nodes:
        graph.add_node(node)
    # Spanning tree keeps it connected.
    for i in range(1, node_count):
        parent = nodes[data.draw(st.integers(0, i - 1))]
        graph.add_edge(nodes[i], parent, data.draw(st.floats(0.1, 50.0)))
    a, b, c = (
        data.draw(st.sampled_from(nodes)),
        data.draw(st.sampled_from(nodes)),
        data.draw(st.sampled_from(nodes)),
    )
    all_pairs = AllPairsPaths(graph)
    d_ab = all_pairs.path(a, b).total_distance_m
    d_bc = all_pairs.path(b, c).total_distance_m
    d_ac = all_pairs.path(a, c).total_distance_m
    assert d_ac <= d_ab + d_bc + 1e-9
