"""Tests for seeded random streams."""

from __future__ import annotations

import random

import pytest

from repro.sim.rng import RandomStream, bit_source, derive_seed, randint_width


def _randint_loop(draw, high):
    """``randint(0, high)`` as the swarm draws a backoff: ``width`` bits
    from the stream's ``getrandbits``, again while above ``high``."""
    width = randint_width(high)
    value = draw(width)
    while value > high:
        value = draw(width)
    return value


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_different_names_differ(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_different_roots_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_structure_matters(self):
        assert derive_seed(42, "ab", "c") != derive_seed(42, "a", "bc")


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(7, "x")
        b = RandomStream(7, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_children_are_independent_of_parent_draws(self):
        a = RandomStream(7, "x")
        a_child_first = a.child("c").random()
        b = RandomStream(7, "x")
        for _ in range(100):
            b.random()  # drawing from the parent...
        assert b.child("c").random() == a_child_first  # ...does not move the child

    def test_sibling_children_differ(self):
        root = RandomStream(7)
        assert root.child("a").random() != root.child("b").random()

    def test_randint_bounds(self):
        stream = RandomStream(1)
        values = [stream.randint(3, 5) for _ in range(200)]
        assert set(values) <= {3, 4, 5}
        assert {3, 5} <= set(values)

    def test_uniform_bounds(self):
        stream = RandomStream(2)
        values = [stream.uniform(1.0, 2.0) for _ in range(100)]
        assert all(1.0 <= v <= 2.0 for v in values)

    def test_backoff_slots_range(self):
        draw = bit_source(RandomStream(3))
        values = [_randint_loop(draw, 1023) for _ in range(2000)]
        assert min(values) >= 0
        assert max(values) <= 1023
        # Uniform over 0..1023 should hit both tails in 2000 draws.
        assert min(values) < 64
        assert max(values) > 960

    def test_choice_and_sample(self):
        stream = RandomStream(4)
        items = ["a", "b", "c"]
        assert stream.choice(items) in items
        assert sorted(stream.sample(items, 2))[0] in items

    def test_name_tracks_path(self):
        stream = RandomStream(7, "exp").child("slave", "3")
        assert stream.name == "exp/slave/3"


class TestRandintLoop:
    @pytest.mark.parametrize("high", [0, 1, 2, 63, 1023, 1024, 4095])
    def test_equals_randint_draw_for_draw(self, high):
        # The inline loop consumes the stream exactly as randint does:
        # every value and every rejected draw, in order.
        for seed in range(50):
            stream = RandomStream(seed, "draws")
            draw = bit_source(stream)
            reference = random.Random(stream.seed)
            looped = [_randint_loop(draw, high) for _ in range(200)]
            assert looped == [reference.randint(0, high) for _ in range(200)]
            assert stream.random() == reference.random()
