"""Tests for deterministic randomness derivation."""

import random

import pytest

from repro.rng import derive, rng_for, weighted_choice


class TestDerive:
    def test_deterministic(self):
        assert derive(7, "a", "b") == derive(7, "a", "b")

    def test_labels_matter(self):
        assert derive(7, "a", "b") != derive(7, "a", "c")

    def test_seed_matters(self):
        assert derive(7, "a") != derive(8, "a")

    def test_label_order_matters(self):
        assert derive(7, "a", "b") != derive(7, "b", "a")

    def test_no_concatenation_ambiguity(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive(1, "ab", "c") != derive(1, "a", "bc")

    def test_int_labels_accepted(self):
        assert derive(1, "x", 3) == derive(1, "x", "3")

    def test_output_is_64_bit(self):
        value = derive(123, "y")
        assert 0 <= value < 2**64

    @pytest.mark.parametrize(
        "args, expected",
        [
            pytest.param((7, "adnet", "popcash"), 3163705943645562952, id="str-labels"),
            pytest.param((7,), 8719647946811673230, id="no-labels"),
            pytest.param((7, "x", 3, "é", -1), 2459963092221207162, id="int-non-ascii"),
            pytest.param((0, "template", "attack/a"), 4800330723934715271, id="template"),
        ],
    )
    def test_pinned_outputs(self, args, expected):
        # Every seed of every world hangs off these bytes: the label path
        # str(seed) + ("/" + str(label))*, utf-8, SHA-256, first 8 bytes.
        assert derive(*args) == expected


class TestRngFor:
    def test_independent_streams(self):
        rng_a = rng_for(7, "component-a")
        rng_b = rng_for(7, "component-b")
        assert [rng_a.random() for _ in range(5)] != [rng_b.random() for _ in range(5)]

    def test_reproducible_streams(self):
        first = [rng_for(7, "x").random() for _ in range(3)]
        second = [rng_for(7, "x").random() for _ in range(3)]
        assert first == second


class TestWeightedChoice:
    def test_respects_weights_statistically(self):
        rng = random.Random(0)
        picks = [weighted_choice(rng, ["a", "b"], [9.0, 1.0]) for _ in range(2000)]
        assert 0.8 < picks.count("a") / len(picks) < 0.99

    def test_single_item(self):
        rng = random.Random(0)
        assert weighted_choice(rng, ["only"], [1.0]) == "only"

    def test_zero_weight_item_never_chosen(self):
        rng = random.Random(0)
        picks = {weighted_choice(rng, ["a", "b"], [1.0, 0.0]) for _ in range(200)}
        assert picks == {"a"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), [], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), ["a"], [1.0, 2.0])

    def test_non_positive_total_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), ["a", "b"], [0.0, 0.0])
