import numpy as np

from tivis.rng import Xoshiro256, derive_seed


def test_sequential_determinism():
    a = Xoshiro256(123)
    b = Xoshiro256(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a = [Xoshiro256(1).next_u64() for _ in range(4)]
    b = [Xoshiro256(2).next_u64() for _ in range(4)]
    assert a != b


def test_random_range():
    rng = Xoshiro256(5)
    vals = [rng.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < np.mean(vals) < 0.6


def test_randint_bounds_and_coverage():
    rng = Xoshiro256(9)
    draws = [rng.randint(7) for _ in range(2000)]
    assert set(draws) == set(range(7))


def test_shuffle_is_permutation():
    rng = Xoshiro256(11)
    seq = list(range(50))
    shuffled = list(seq)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == seq
    assert shuffled != seq  # astronomically unlikely to be identity


def test_derive_seed_independence():
    s = derive_seed(42, 1, 2)
    assert s != derive_seed(42, 1, 3)
    assert s != derive_seed(42, 2, 2)
    assert s == derive_seed(42, 1, 2)

