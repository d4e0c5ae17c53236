"""CSV parsing, bootstrap resampling, smoothing, and bundled fixtures."""

import numpy as np
import pytest

from maxent_effects.datasets import fixture_path, marginal_table, stratified_table
from maxent_effects.errors import (
    DegenerateTableError,
    ParameterError,
    TableParseError,
    UndefinedStatisticError,
)
from maxent_effects.model import CategoryCounts, StratifiedTable, odds_ratio
from maxent_effects.tables import load_table, loads_table, resample_table, smooth_table

RNG_SEED = 60173

BASIC = """category,exposure,outcome,count
a,0,1,8
a,1,1,26
a,0,0,613
a,1,0,193
"""


class TestParsing:
    def test_cells_map_to_exposure_outcome_pairs(self):
        table = loads_table(BASIC)
        (cat,) = table.categories
        assert (cat.n01, cat.n11, cat.n00, cat.n10) == (8, 26, 613, 193)
        assert cat.total == 840

    def test_category_order_follows_first_appearance(self):
        text = (
            "category,exposure,outcome,count\n"
            "young,0,0,5\nold,0,0,7\nyoung,1,1,3\n"
        )
        assert loads_table(text).labels == ("young", "old")

    def test_repeated_cells_accumulate(self):
        text = (
            "category,exposure,outcome,count\n"
            "a,0,1,8\na,0,0,1\na,0,1,4\n"
        )
        (cat,) = loads_table(text).categories
        assert cat.n01 == 12

    def test_absent_cells_are_zero(self):
        text = "category,exposure,outcome,count\na,1,1,10\n"
        (cat,) = loads_table(text).categories
        assert (cat.n01, cat.n11, cat.n00, cat.n10) == (0, 10, 0, 0)

    def test_float_counts_accepted(self):
        text = "category,exposure,outcome,count\na,0,0,2.5\na,1,1,0.5\n"
        (cat,) = loads_table(text).categories
        assert cat.n00 == 2.5
        assert cat.total == 3.0

    def test_whitespace_and_blank_lines_tolerated(self):
        text = (
            "category,exposure,outcome,count\n"
            "\n"
            " a , 0 , 1 , 8 \n"
            "  \n"
            "a,0,0,2\n"
        )
        (cat,) = loads_table(text).categories
        assert cat.label == "a"
        assert cat.n01 == 8

    def test_crlf_accepted(self):
        table = loads_table(BASIC.replace("\n", "\r\n"))
        assert table.categories[0].n10 == 193

    def test_header_case_insensitive(self):
        table = loads_table(
            "Category,Exposure,Outcome,Count\na,0,0,1\na,1,1,2\n"
        )
        assert table.labels == ("a",)


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(TableParseError, match="line 1"):
            loads_table("")

    def test_wrong_header(self):
        with pytest.raises(TableParseError, match="line 1"):
            loads_table("category,treated,outcome,count\na,0,0,1\n")

    def test_header_only(self):
        with pytest.raises(TableParseError, match="no data rows"):
            loads_table("category,exposure,outcome,count\n")

    def test_bad_exposure_flags_the_line(self):
        text = "category,exposure,outcome,count\na,0,0,1\na,2,0,5\n"
        with pytest.raises(TableParseError, match="line 3"):
            loads_table(text)

    def test_bad_outcome_flags_the_line(self):
        text = "category,exposure,outcome,count\na,0,yes,1\n"
        with pytest.raises(TableParseError, match="line 2.*outcome"):
            loads_table(text)

    def test_non_numeric_count(self):
        with pytest.raises(TableParseError, match="line 2.*count"):
            loads_table("category,exposure,outcome,count\na,0,0,many\n")

    def test_negative_count(self):
        with pytest.raises(TableParseError, match="line 2"):
            loads_table("category,exposure,outcome,count\na,0,0,-3\n")

    def test_non_finite_count(self):
        with pytest.raises(TableParseError, match="line 2"):
            loads_table("category,exposure,outcome,count\na,0,0,inf\n")

    def test_wrong_field_count(self):
        with pytest.raises(TableParseError, match="line 2.*4 fields"):
            loads_table("category,exposure,outcome,count\na,0,0\n")

    def test_empty_label(self):
        with pytest.raises(TableParseError, match="line 2"):
            loads_table("category,exposure,outcome,count\n,0,0,1\n")

    def test_all_zero_category_is_degenerate(self):
        with pytest.raises(DegenerateTableError):
            loads_table("category,exposure,outcome,count\na,0,0,0\n")


class TestLoadFile:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(BASIC, encoding="utf-8")
        assert load_table(path).categories == loads_table(BASIC).categories

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("﻿" + BASIC, encoding="utf-8")
        assert load_table(path).categories[0].n01 == 8

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_table(tmp_path / "absent.csv")


class TestResample:
    def test_fixed_seed_reproduces_the_replicate(self):
        table = stratified_table()
        first = resample_table(table, np.random.default_rng(RNG_SEED))
        second = resample_table(table, np.random.default_rng(RNG_SEED))
        assert np.array_equal(first.counts_matrix(), second.counts_matrix())

    def test_total_and_labels_preserved(self):
        table = stratified_table()
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            replicate = resample_table(table, rng)
            assert replicate.total == table.total
            assert replicate.labels == table.labels

    def test_successive_replicates_differ(self):
        table = stratified_table()
        rng = np.random.default_rng(RNG_SEED)
        first = resample_table(table, rng)
        second = resample_table(table, rng)
        assert not np.array_equal(first.counts_matrix(), second.counts_matrix())

    def test_advances_rng_by_one_multinomial_draw(self):
        table = marginal_table()
        used = np.random.default_rng(RNG_SEED)
        manual = np.random.default_rng(RNG_SEED)
        resample_table(table, used)
        counts = table.counts_matrix().ravel()
        manual.multinomial(int(round(counts.sum())), counts / counts.sum())
        # both generators are now in the same state
        assert used.integers(1 << 30) == manual.integers(1 << 30)

    def test_cell_frequencies_stay_close_on_large_tables(self):
        table = marginal_table()
        counts = table.counts_matrix().ravel()
        target = counts / counts.sum()
        rng = np.random.default_rng(RNG_SEED)
        replicate = resample_table(table, rng)
        drawn = replicate.counts_matrix().ravel() / table.total
        assert np.max(np.abs(drawn - target)) < 0.02

    def test_total_beyond_the_int64_range_is_a_parameter_error(self):
        table = loads_table(
            "category,exposure,outcome,count\na,0,1,1e19\na,1,1,3\na,0,0,2\na,1,0,4\n"
        )
        with pytest.raises(ParameterError, match=r"table of 1e\+19 individuals"):
            resample_table(table, np.random.default_rng(RNG_SEED))


class TestSmooth:
    def test_adds_half_to_every_cell_by_default(self):
        table = loads_table(BASIC)
        smoothed = smooth_table(table)
        (cat,) = smoothed.categories
        assert (cat.n01, cat.n11, cat.n00, cat.n10) == (8.5, 26.5, 613.5, 193.5)
        assert smoothed.total == table.total + 2.0

    def test_makes_degenerate_odds_ratio_finite(self):
        table = StratifiedTable(
            (CategoryCounts("a", 0.0, 12.0, 30.0, 18.0),)
        )
        with pytest.raises(UndefinedStatisticError):
            odds_ratio(table.pooled())
        smoothed = smooth_table(table)
        assert odds_ratio(smoothed.pooled()) > 0.0


class TestFixtures:
    def test_marginal_counts(self):
        table = marginal_table()
        assert table.n_categories == 1
        (cat,) = table.categories
        assert (cat.n01, cat.n11, cat.n00, cat.n10) == (81, 796, 4201, 1680)
        assert table.total == 6758

    def test_stratified_layout(self):
        table = stratified_table()
        assert table.n_categories == 10
        assert table.total == 6758
        assert len(set(table.labels)) == 10

    def test_stratified_pools_to_marginal(self):
        pooled = stratified_table().pooled()
        (marginal,) = marginal_table().categories
        assert pooled.as_array().tolist() == marginal.as_array().tolist()

    def test_fixture_paths_load(self):
        for name in ("table1.csv", "table2.csv"):
            table = load_table(fixture_path(name))
            assert table.total == 6758
