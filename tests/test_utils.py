"""Unit tests for :mod:`repro.utils`."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DecodingError
from repro.utils import (
    Table,
    bits_to_bytes,
    bits_to_int,
    bounded_draw,
    bytes_to_bits,
    check_in_range,
    check_positive,
    check_power_of_two,
    check_probability,
    check_type,
    format_float,
    format_ratio_cell,
    hamming_distance,
    hamming_weight,
    int_to_bits,
    make_rng,
    parity,
    spawn_rngs,
)


class TestBitOps:
    def test_int_to_bits_msb_first(self):
        assert int_to_bits(5, 4).tolist() == [0, 1, 0, 1]

    def test_int_to_bits_lsb_first(self):
        assert int_to_bits(5, 4, msb_first=False).tolist() == [1, 0, 1, 0]

    def test_int_to_bits_rejects_negative(self):
        with pytest.raises(DecodingError):
            int_to_bits(-1, 4)

    def test_int_to_bits_rejects_overflow(self):
        with pytest.raises(DecodingError):
            int_to_bits(16, 4)

    def test_int_to_bits_rejects_zero_width(self):
        with pytest.raises(DecodingError):
            int_to_bits(0, 0)

    def test_bits_to_int_roundtrip(self):
        for value in (0, 1, 5, 255, 1023):
            assert bits_to_int(int_to_bits(value, 12)) == value

    def test_bits_to_int_lsb_first(self):
        assert bits_to_int([1, 0, 1], msb_first=False) == 5

    def test_bits_to_int_rejects_non_binary(self):
        with pytest.raises(DecodingError):
            bits_to_int([0, 2, 1])

    def test_bits_to_int_rejects_2d(self):
        with pytest.raises(DecodingError):
            bits_to_int(np.zeros((2, 2)))

    def test_bytes_to_bits_and_back(self):
        data = b"\xa5\x0f"
        bits = bytes_to_bits(data)
        assert bits.tolist() == [1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1]
        assert bits_to_bytes(bits) == data

    def test_bytes_to_bits_empty(self):
        assert bytes_to_bits(b"").size == 0

    def test_bits_to_bytes_rejects_partial_byte(self):
        with pytest.raises(DecodingError):
            bits_to_bytes([1, 0, 1])

    def test_hamming_weight(self):
        assert hamming_weight([0, 1, 1, 0, 1]) == 3

    def test_hamming_distance(self):
        assert hamming_distance([0, 1, 1], [1, 1, 0]) == 2

    def test_hamming_distance_shape_mismatch(self):
        with pytest.raises(DecodingError):
            hamming_distance([0, 1], [0, 1, 1])

    def test_parity(self):
        assert parity([1, 1, 0]) == 0
        assert parity([1, 1, 1]) == 1
        assert parity([]) == 0


class TestValidation:
    def test_check_type_accepts(self):
        assert check_type("x", 3, int) == 3

    def test_check_type_rejects(self):
        with pytest.raises(ConfigurationError):
            check_type("x", 3.0, int)

    def test_check_type_tuple_message(self):
        with pytest.raises(ConfigurationError, match="int or float"):
            check_type("x", "a", (int, float))

    def test_check_positive_strict(self):
        assert check_positive("x", 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            check_positive("x", 0.0)

    def test_check_positive_non_strict(self):
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ConfigurationError):
            check_positive("x", -1.0, strict=False)

    def test_check_in_range_inclusive(self):
        assert check_in_range("x", 5, 0, 5) == 5
        with pytest.raises(ConfigurationError):
            check_in_range("x", 6, 0, 5)

    def test_check_in_range_exclusive(self):
        with pytest.raises(ConfigurationError):
            check_in_range("x", 5, 0, 5, inclusive=False)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.5)

    def test_check_power_of_two(self):
        assert check_power_of_two("n", 8) == 8
        for bad in (0, -4, 6):
            with pytest.raises(ConfigurationError):
                check_power_of_two("n", bad)


class TestTables:
    def test_format_float(self):
        assert format_float(1.2345) == "1.23"
        assert format_float(float("nan")) == "n/a"
        assert format_float(float("inf")) == "inf"

    def test_format_ratio_cell(self):
        assert format_ratio_cell(72.004, 0.456) == "72.00/0.46"

    def test_table_renders_header_and_rows(self):
        table = Table(title="demo", columns=["a", "bb"])
        table.add_row([1, "xy"])
        rendered = table.render()
        assert "demo" in rendered
        assert "a" in rendered and "bb" in rendered
        assert "xy" in rendered

    def test_table_rejects_wrong_row_width(self):
        table = Table(title="demo", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_table_column_alignment(self):
        table = Table(title="t", columns=["col", "x"])
        table.add_row(["longvalue", "1"])
        lines = table.render().splitlines()
        header_cells = lines[2].split("|")
        row_cells = lines[4].split("|")
        assert len(header_cells[0]) == len(row_cells[0])


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(7).integers(0, 100, 10)
        b = make_rng(7).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_make_rng_different_seeds(self):
        a = make_rng(1).integers(0, 1000, 10)
        b = make_rng(2).integers(0, 1000, 10)
        assert not np.array_equal(a, b)

    def test_spawn_rngs_count(self):
        rngs = spawn_rngs(3, 5)
        assert len(rngs) == 5

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(3, 2)
        assert not np.array_equal(rngs[0].integers(0, 1000, 10), rngs[1].integers(0, 1000, 10))

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class _RecordingBits:
    """``getrandbits`` that logs every (width, word) it hands out."""

    def __init__(self, seed):
        self._source = random.Random(seed).getrandbits
        self.words = []

    def __call__(self, k):
        word = self._source(k)
        self.words.append((k, word))
        return word


class TestBoundedDraw:
    """``bounded_draw`` is the NoC simulators' deflection-draw definition."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bounds=st.lists(st.integers(1, 16), min_size=1, max_size=40),
    )
    def test_rejection_sampling_over_bit_length_words(self, seed, bounds):
        """Each draw reads ``n.bit_length()``-bit words, rejects every word
        >= n and returns the first one below n."""
        source = _RecordingBits(seed)
        for n in bounds:
            start = len(source.words)
            value = bounded_draw(source, n)
            drawn = source.words[start:]
            assert all(k == n.bit_length() for k, _ in drawn)
            assert all(word >= n for _, word in drawn[:-1])
            assert drawn[-1][1] == value
            assert 0 <= value < n

    def test_same_seed_same_stream(self):
        a = random.Random(7).getrandbits
        b = random.Random(7).getrandbits
        assert [bounded_draw(a, 3) for _ in range(50)] == [
            bounded_draw(b, 3) for _ in range(50)
        ]
        c = random.Random(8).getrandbits
        d = random.Random(7).getrandbits
        assert [bounded_draw(c, 16) for _ in range(50)] != [
            bounded_draw(d, 16) for _ in range(50)
        ]

    def test_bound_one_rejects_every_set_bit(self):
        """n=1 reads 1-bit words until a zero: the heaviest word consumption."""
        source = _RecordingBits(7)
        for _ in range(300):
            start = len(source.words)
            assert bounded_draw(source, 1) == 0
            assert [word for _, word in source.words[start:]] == [1] * (
                len(source.words) - start - 1
            ) + [0]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 15, 16])
    def test_covers_exactly_the_range(self, n):
        getrandbits = random.Random(1000 + n).getrandbits
        values = {bounded_draw(getrandbits, n) for _ in range(50 * n)}
        assert values == set(range(n))
