"""Tests for the seeded random source."""

from repro.rng import RandomSource


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomSource(5)
        b = RandomSource(5)
        assert [a.int_between(0, 100) for _ in range(20)] == \
            [b.int_between(0, 100) for _ in range(20)]

    def test_different_seeds_diverge(self):
        a = RandomSource(5)
        b = RandomSource(6)
        assert [a.int_between(0, 10**9) for _ in range(5)] != \
            [b.int_between(0, 10**9) for _ in range(5)]

    def test_fork_is_deterministic_but_independent(self):
        a = RandomSource(5).fork()
        b = RandomSource(5).fork()
        assert a.seed == b.seed
        assert a.seed != 5


class TestDraws:
    def test_flip_bounds(self):
        rng = RandomSource(1)
        assert all(rng.flip(1.0) for _ in range(10))
        assert not any(rng.flip(0.0) for _ in range(10))

    def test_int_between_inclusive(self):
        rng = RandomSource(2)
        values = {rng.int_between(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_choice_empty_raises(self):
        import pytest

        with pytest.raises(IndexError):
            RandomSource(1).choice([])

    def test_sample_size(self):
        rng = RandomSource(3)
        assert len(rng.sample([1, 2, 3, 4], 2)) == 2

    def test_weighted_choice_respects_zero_weight(self):
        rng = RandomSource(4)
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0])
                 for _ in range(50)}
        assert picks == {"a"}

    def test_short_text_length_bound(self):
        rng = RandomSource(6)
        assert all(len(rng.short_text(5)) <= 5 for _ in range(100))

    def test_identifier(self):
        assert RandomSource(1).identifier("t", 3) == "t3"
