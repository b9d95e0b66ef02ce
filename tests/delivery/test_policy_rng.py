"""DeliveryPolicy backoff and the seeded deterministic RNG helper."""

import pytest

from repro.delivery import DeliveryPolicy
from repro.util.rng import SeededRng


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = [SeededRng(42).random() for _ in range(10)]
        b = [SeededRng(42).random() for _ in range(10)]
        assert a == b

    def test_different_seeds_differ(self):
        assert SeededRng(1).next_u64() != SeededRng(2).next_u64()

    def test_values_in_unit_interval(self):
        rng = SeededRng(7)
        for _ in range(1000):
            assert 0.0 <= rng.random() < 1.0

    def test_uniform_range(self):
        rng = SeededRng(3)
        for _ in range(1000):
            assert -1.0 <= rng.uniform(-1.0, 1.0) < 1.0

    def test_randrange_bound(self):
        rng = SeededRng(9)
        seen = {rng.randrange(5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}

    def test_fork_is_label_stable(self):
        # forks derive from the construction seed, not the draw position:
        # draws on the parent must not perturb a child's stream
        parent = SeededRng(11)
        before = [parent.fork("jitter").random() for _ in range(3)]
        parent2 = SeededRng(11)
        for _ in range(50):
            parent2.random()
        after = [parent2.fork("jitter").random() for _ in range(3)]
        assert before == after

    def test_fork_labels_are_independent_streams(self):
        parent = SeededRng(11)
        assert parent.fork("a").next_u64() != parent.fork("b").next_u64()

    def test_no_global_random_state(self):
        import random

        state = random.getstate()
        rng = SeededRng(5)
        for _ in range(100):
            rng.random()
            rng.fork("x").uniform(0, 1)
        assert random.getstate() == state


class TestDeliveryPolicy:
    def test_defaults_valid(self):
        policy = DeliveryPolicy()
        assert policy.max_attempts >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DeliveryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            DeliveryPolicy(base_backoff=-1.0)
        with pytest.raises(ValueError):
            DeliveryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            DeliveryPolicy(message_ttl=0.0)

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = DeliveryPolicy(
            base_backoff=1.0, backoff_multiplier=2.0, max_backoff=100.0, jitter=0.0
        )
        rng = SeededRng(0)
        delays = [policy.backoff(n, rng) for n in range(1, 5)]
        assert delays == [1.0, 2.0, 4.0, 8.0]

    def test_backoff_caps_at_max(self):
        policy = DeliveryPolicy(
            base_backoff=1.0, backoff_multiplier=10.0, max_backoff=5.0, jitter=0.0
        )
        assert policy.backoff(6, SeededRng(0)) == 5.0

    def test_jitter_stays_within_band(self):
        policy = DeliveryPolicy(
            base_backoff=1.0, backoff_multiplier=1.0, max_backoff=1.0, jitter=0.2
        )
        rng = SeededRng(1)
        for _ in range(500):
            delay = policy.backoff(1, rng)
            assert 0.8 <= delay <= 1.2

    def test_jittered_backoff_is_deterministic(self):
        policy = DeliveryPolicy(jitter=0.3)
        a = [policy.backoff(n, SeededRng(4).fork("j")) for n in range(1, 6)]
        b = [policy.backoff(n, SeededRng(4).fork("j")) for n in range(1, 6)]
        assert a == b
