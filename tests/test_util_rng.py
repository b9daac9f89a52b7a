"""Unit tests for the deterministic RNG."""

import math

import pytest

from repro.util.rng import (
    SWEEP_BASE,
    DeterministicRng,
    derive_seed,
    sweep_seed,
)


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(123)
        b = DeterministicRng(123)
        assert [a.next_u64() for _ in range(50)] == [
            b.next_u64() for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.next_u64() for _ in range(8)] != [
            b.next_u64() for _ in range(8)
        ]

    def test_zero_seed_is_usable(self):
        rng = DeterministicRng(0)
        assert rng.next_u64() != rng.next_u64()

    def test_state_snapshot_roundtrip(self):
        rng = DeterministicRng(7)
        rng.next_u64()
        state = rng.getstate()
        first = [rng.next_u64() for _ in range(5)]
        rng.setstate(state)
        assert [rng.next_u64() for _ in range(5)] == first


class TestDraws:
    def test_randint_bounds(self):
        rng = DeterministicRng(9)
        draws = [rng.randint(3, 9) for _ in range(500)]
        assert min(draws) >= 3 and max(draws) <= 9
        assert set(draws) == set(range(3, 10))  # all values reachable

    def test_randint_single_value(self):
        rng = DeterministicRng(9)
        assert rng.randint(4, 4) == 4

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).randint(5, 4)

    def test_random_in_unit_interval(self):
        rng = DeterministicRng(11)
        draws = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in draws)
        assert abs(sum(draws) / len(draws) - 0.5) < 0.05

    def test_choice(self):
        rng = DeterministicRng(13)
        seq = ["a", "b", "c"]
        assert set(rng.choice(seq) for _ in range(100)) == {"a", "b", "c"}

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).choice([])

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(17)
        xs = list(range(20))
        ys = list(xs)
        rng.shuffle(ys)
        assert sorted(ys) == xs
        assert ys != xs  # overwhelmingly likely with 20 elements

    def test_exponential_mean(self):
        rng = DeterministicRng(19)
        draws = [rng.exponential(100.0) for _ in range(5000)]
        assert all(d >= 0 for d in draws)
        assert math.isclose(sum(draws) / len(draws), 100.0, rel_tol=0.1)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).exponential(0)


class TestDerivation:
    def test_derive_is_deterministic(self):
        assert derive_seed(42, "thread", 3) == derive_seed(42, "thread", 3)

    def test_derive_depends_on_path(self):
        seeds = {
            derive_seed(42),
            derive_seed(42, "thread", 3),
            derive_seed(42, "thread", 4),
            derive_seed(42, "rep", 3),
            derive_seed(43, "thread", 3),
        }
        assert len(seeds) == 5

    def test_derive_order_sensitive(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_derive_pinned_golden_values(self):
        """Seed derivation is a cross-version, cross-process contract:
        these exact values must never change (they anchor every
        benchmark number and the parallel engine's cache keys)."""
        assert derive_seed(42, "thread", 3) == 3168927947649419450
        assert derive_seed(0x5EED, "rep", 1) == 18408472694590742212
        assert derive_seed(7, b"x") == 9223092079984049216

    def test_derive_rejects_unstable_path_types(self):
        """Reprs of floats, enums and dataclasses are not stable
        contracts; such path elements must be rejected loudly."""
        import enum
        from dataclasses import dataclass

        class Color(enum.Enum):
            RED = 1

        @dataclass
        class Box:
            x: int = 0

        for bad in (1.5, None, Color.RED, Box(), ("a",), ["a"], {"a": 1}):
            with pytest.raises(TypeError):
                derive_seed(42, bad)

    def test_derive_accepts_str_int_bytes(self):
        assert derive_seed(1, "s", 2, b"b") == derive_seed(1, "s", 2, b"b")

    def test_spawn_creates_independent_stream(self):
        parent = DeterministicRng(5)
        child = parent.spawn("x")
        parent_draws = [parent.next_u64() for _ in range(4)]
        child_draws = [child.next_u64() for _ in range(4)]
        assert parent_draws != child_draws
        # respawning yields the same child stream
        child2 = DeterministicRng(5).spawn("x")
        assert [child2.next_u64() for _ in range(4)] == child_draws


class TestSweepSeedConvention:
    """The repo-wide seed-namespace convention: every sweep-style tool
    derives per-run seeds as ``sweep_seed(namespace, scenario, index)``.
    The fault campaign uses ``("campaign", scenario.name, i)`` with ``i``
    1-based; the schedule checker's random walks use
    ``("check", scenario, k)`` with ``k`` 0-based."""

    def test_is_derive_seed_under_the_shared_base(self):
        assert SWEEP_BASE == 0x5EED
        assert sweep_seed("campaign", "pri-handoff", 3) == derive_seed(
            SWEEP_BASE, "campaign", "pri-handoff", 3
        )

    def test_namespaces_do_not_collide(self):
        assert sweep_seed("campaign", "handoff", 1) != sweep_seed(
            "check", "handoff", 1
        )

    def test_pinned_golden_values(self):
        """Cross-tool contract: campaign runs and check walks are cached
        and replayed by these exact seeds; they must never change."""
        assert (
            sweep_seed("campaign", "storm-philosophers", 1)
            == 11269112642143351037
        )
        assert (
            sweep_seed("campaign", "pri-handoff", 3)
            == 9584731509515884707
        )
        assert sweep_seed("check", "handoff", 0) == 12093481353707224010
        assert sweep_seed("check", "handoff", 1) == 12093482453218852221

    def test_campaign_uses_the_convention(self, monkeypatch):
        """The campaign's per-run VM seed is exactly the convention's
        derivation — no tool-private salting."""
        import repro.faults.campaign as campaign
        from repro.bench.workloads import lookup_scenario

        calls = []

        def spy(namespace, scenario, index, **kwargs):
            calls.append((namespace, scenario, index))
            return sweep_seed(namespace, scenario, index, **kwargs)

        monkeypatch.setattr(campaign, "sweep_seed", spy)
        scenario = lookup_scenario("campaign", "storm-philosophers")
        campaign.run_one(scenario, 1)
        assert calls == [("campaign", scenario.name, 1)]
