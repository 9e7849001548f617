"""Unit tests for formatting helpers and seeded RNG construction."""

import pytest

from repro.utils.format import format_si, render_table
from repro.utils.rng import derive_seed, make_rng


class TestFormat:
    def test_format_si(self):
        assert format_si(2_655_064) == "2.66M"
        assert format_si(1_000) == "1.00K"
        assert format_si(12) == "12"
        assert format_si(2.5e9) == "2.50G"

    def test_render_table_alignment(self):
        out = render_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].split()[-1] == "1.50"

    def test_render_table_title(self):
        out = render_table(["x"], [["1"]], title="T")
        assert out.splitlines()[0] == "T"

    def test_render_table_row_length_checked(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(42, "queries", 17) == derive_seed(42, "queries", 17)

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(42, "x", i) for i in range(100)}
        assert len(seeds) == 100

    def test_label_separator_unambiguous(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_make_rng_reproducible(self):
        a = make_rng(7, "stream").random(5)
        b = make_rng(7, "stream").random(5)
        assert (a == b).all()
