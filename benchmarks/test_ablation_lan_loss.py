"""Ablation: BIPS under a lossy LAN, with and without soft-state refresh.

The paper's delta-only reporting (§2) assumes the office Ethernet never
drops a message.  This bench measures what loss does to end-to-end
tracking accuracy and how much the reproduction's soft-state refresh
(presence re-assertion every N cycles) buys back — the classic
hard-state-vs-soft-state trade.
"""

from __future__ import annotations

from conftest import save_result

from repro.analysis.tables import render_table
from repro.building.layouts import academic_department
from repro.core.config import BIPSConfig
from repro.core.simulation import BIPSSimulation

SEEDS = range(600, 608)


def _walked_sim(
    loss: float, refresh: int, seed: int, user_count: int = 6, seconds: float = 500.0
) -> BIPSSimulation:
    """``user_count`` users walking four hops each, run for ``seconds``."""
    sim = BIPSSimulation(
        plan=academic_department(),
        config=BIPSConfig(
            seed=seed,
            lan_loss_probability=loss,
            refresh_interval_cycles=refresh,
        ),
    )
    rooms = sim.plan.room_ids()
    rng = sim.rng.child("loss-ablation")
    for index in range(user_count):
        userid = f"u-{index}"
        sim.add_user(userid, f"U{index}")
        sim.login(userid)
        sim.walk(userid, start_room=rng.choice(rooms), hops=4,
                 start_at_seconds=rng.uniform(0.0, 30.0))
    sim.run(until_seconds=seconds)
    return sim


def _one_run(loss: float, refresh: int, seed: int) -> tuple[float, float]:
    """Returns (mean accuracy, fraction of users correctly attributed
    at the end of the run)."""
    user_count = 6
    sim = _walked_sim(loss, refresh, seed, user_count)
    correct_at_end = 0
    for index in range(user_count):
        user = sim.user(f"u-{index}")
        truth = user.timeline.room_at(sim.kernel.now - 1)
        belief = sim.server.location_db.current_room(user.device.address)
        if truth == belief:
            correct_at_end += 1
    return sim.tracking_report().mean_accuracy, correct_at_end / user_count


def _cell(loss: float, refresh: int) -> tuple[float, float]:
    accuracies, finals = [], []
    for seed in SEEDS:
        accuracy, final = _one_run(loss, refresh, seed)
        accuracies.append(accuracy)
        finals.append(final)
    return sum(accuracies) / len(accuracies), sum(finals) / len(finals)


def _run_grid():
    grid = {}
    for loss in (0.0, 0.3):
        for refresh in (0, 4):
            grid[(loss, refresh)] = _cell(loss, refresh)
    rows = []
    for loss in (0.0, 0.3):
        for refresh in (0, 4):
            accuracy, final = grid[(loss, refresh)]
            rows.append(
                [
                    f"{loss:.0%}",
                    "delta only" if refresh == 0 else "refresh/4 cycles",
                    f"{accuracy * 100:.1f}%",
                    f"{final * 100:.1f}%",
                ]
            )
    save_result(
        "ablation_lan_loss",
        render_table(
            ["LAN loss", "reporting", "mean accuracy", "correct at end"],
            rows,
            title=(
                "Tracking vs LAN loss, 8 seeds x 6 walking users, 500 s "
                "(soft-state refresh heals stranded attributions)"
            ),
        ),
    )
    return grid


def test_lan_loss_and_refresh(benchmark):
    grid = benchmark.pedantic(_run_grid, rounds=1, iterations=1)

    # Lossless: both configurations track well.
    assert grid[(0.0, 0)][0] > 0.80
    assert grid[(0.0, 4)][0] > 0.80

    # Loss hurts pure delta reporting.
    assert grid[(0.3, 0)][0] < grid[(0.0, 0)][0]

    # Soft-state refresh wins where it should: devices stranded with a
    # wrong final attribution are healed within a refresh period.
    assert grid[(0.3, 4)][1] > grid[(0.3, 0)][1]
    assert grid[(0.3, 4)][1] > 0.9
    # ...and does not hurt overall accuracy.
    assert grid[(0.3, 4)][0] >= grid[(0.3, 0)][0] - 0.02


def test_e2e_with_loss_smoke(benchmark):
    sim = benchmark.pedantic(
        lambda: _walked_sim(0.1, 0, seed=BIPSConfig().seed, user_count=5, seconds=400.0),
        rounds=1,
        iterations=1,
    )
    assert sim.lan.stats.dropped > 0
    assert sim.tracking_report().mean_accuracy > 0.5
