from datetime import date

import numpy as np
import pytest

from conftest import make_corpus
from sentistock.errors import CalendarMismatchError, MissingScoreError, UnparseableRowError
from sentistock.ingest import StockSeries
from sentistock.mapping import (
    DailySentimentSeries,
    MemoryKernel,
    class_contribution,
    daily_aggregate,
    join_with_stock,
    load_master_csv,
    memory_weighted_map,
    stock_only_master,
    write_master_csv,
)
from sentistock.sentiment import ScoreTable, SentimentScore
from sentistock.synth import trading_calendar


def oracle_memory_map(raw, memory_days, mode):
    """Brute-force double loop over days and lags."""
    raw = list(raw)
    if mode == "recency":
        kernel = [memory_days - i + 1 for i in range(1, memory_days + 1)]
    else:
        kernel = list(range(1, memory_days + 1))
    denom = float(sum(kernel))
    out = []
    for d in range(len(raw)):
        total = 0.0
        for i in range(1, memory_days + 1):
            if d - i >= 0:
                total += kernel[i - 1] * raw[d - i]
        out.append(total / denom)
    return np.array(out)


def daily_series(values, start=date(2023, 1, 2)):
    values = np.asarray(values, dtype=float)
    calendar = trading_calendar(start, values.size)
    zero = np.zeros_like(values)
    return DailySentimentSeries(calendar=calendar, positive=values, negative=zero, neutral=zero)


def make_stock(n, start=date(2023, 1, 2)):
    close = np.linspace(10, 20, n)
    return StockSeries(
        symbol="T",
        dates=trading_calendar(start, n),
        open=close * 0.99,
        high=close * 1.01,
        low=close * 0.98,
        close=close,
        volume=np.full(n, 100.0),
    )


class TestClassContribution:
    def test_positive_one_hot(self):
        score = SentimentScore(p_pos=0.7, p_neg=0.2, p_neu=0.1, label="positive")
        assert class_contribution(score) == (0.7, 0.0, 0.0)

    def test_pure_neutral(self):
        score = SentimentScore(p_pos=0.0, p_neg=0.0, p_neu=1.0, label="neutral")
        assert class_contribution(score) == (0.0, 0.0, 1.0)

    def test_negative_one_hot(self):
        score = SentimentScore(p_pos=0.2, p_neg=0.7, p_neu=0.1, label="negative")
        assert class_contribution(score) == (0.0, 0.7, 0.0)


class TestDailyAggregate:
    def table_for(self, corpus, probs):
        table = ScoreTable(variants=["cleaned_prosus"])
        for tweet, p in zip(corpus, probs):
            table.entries[(tweet.id, "cleaned_prosus")] = SentimentScore.from_probabilities(*p)
        return table

    def test_single_tweet_mean(self):
        corpus = make_corpus([("1", "2023-01-03", "x")])
        table = self.table_for(corpus, [(0.8, 0.1, 0.1)])
        calendar = trading_calendar(date(2023, 1, 2), 4)
        daily = daily_aggregate(table, "cleaned_prosus", corpus, calendar)
        expected = np.zeros(4)
        expected[1] = 0.8
        np.testing.assert_allclose(daily.positive, expected)
        np.testing.assert_allclose(daily.negative, 0)
        np.testing.assert_allclose(daily.neutral, 0)

    def test_two_tweets_averaged(self):
        corpus = make_corpus([("1", "2023-01-02", "x"), ("2", "2023-01-02", "y")])
        table = self.table_for(corpus, [(0.6, 0.2, 0.2), (1.0, 0.0, 0.0)])
        calendar = trading_calendar(date(2023, 1, 2), 2)
        daily = daily_aggregate(table, "cleaned_prosus", corpus, calendar)
        assert daily.positive[0] == pytest.approx(0.8)

    def test_weekend_tweet_rolls_forward(self):
        # 2023-01-07 is a Saturday; next trading day is Monday 2023-01-09
        corpus = make_corpus([("1", "2023-01-07", "x")])
        table = self.table_for(corpus, [(0.9, 0.05, 0.05)])
        calendar = [date(2023, 1, 6), date(2023, 1, 9), date(2023, 1, 10)]
        daily = daily_aggregate(table, "cleaned_prosus", corpus, calendar)
        np.testing.assert_allclose(daily.positive, [0.0, 0.9, 0.0])

    def test_tweet_after_last_day_dropped(self):
        corpus = make_corpus([("1", "2023-02-01", "x")])
        table = self.table_for(corpus, [(1.0, 0.0, 0.0)])
        calendar = trading_calendar(date(2023, 1, 2), 3)
        daily = daily_aggregate(table, "cleaned_prosus", corpus, calendar)
        np.testing.assert_allclose(daily.positive, 0)

    def test_missing_score(self):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        table = ScoreTable(variants=["cleaned_prosus"])
        with pytest.raises(MissingScoreError):
            daily_aggregate(table, "cleaned_prosus", corpus, trading_calendar(date(2023, 1, 2), 2))


class TestMemoryWeightedMap:
    def test_zero_input_zero_output(self):
        daily = daily_series(np.zeros(40))
        mapped = memory_weighted_map(daily, MemoryKernel(30, "recency"))
        np.testing.assert_array_equal(mapped.positive, 0)

    @pytest.mark.parametrize("mode", ["recency", "literal"])
    @pytest.mark.parametrize("memory_days", [1, 5, 30])
    def test_constant_input_reproduced_in_steady_state(self, mode, memory_days):
        daily = daily_series(np.full(80, 0.5))
        mapped = memory_weighted_map(daily, MemoryKernel(memory_days, mode))
        np.testing.assert_allclose(mapped.positive[memory_days:], 0.5, atol=1e-12)

    def test_hand_computed_m2_recency(self):
        # raw = [0, 1, 0, 0]; day index 2: (k1*raw[1] + k2*raw[0]) / (k1+k2) = 2/3
        daily = daily_series([0.0, 1.0, 0.0, 0.0])
        mapped = memory_weighted_map(daily, MemoryKernel(2, "recency"))
        np.testing.assert_allclose(mapped.positive, [0.0, 0.0, 2 / 3, 1 / 3], atol=1e-15)

    def test_hand_computed_m2_literal(self):
        daily = daily_series([0.0, 1.0, 0.0, 0.0])
        mapped = memory_weighted_map(daily, MemoryKernel(2, "literal"))
        np.testing.assert_allclose(mapped.positive, [0.0, 0.0, 1 / 3, 2 / 3], atol=1e-15)

    @pytest.mark.parametrize("mode", ["recency", "literal"])
    def test_oracle_equivalence(self, mode):
        rng = np.random.default_rng(17)
        for memory_days in (1, 5, 30):
            for _ in range(10):
                n = int(rng.integers(2, 120))
                raw = rng.uniform(0, 1, n)
                mapped = memory_weighted_map(daily_series(raw), MemoryKernel(memory_days, mode))
                np.testing.assert_allclose(
                    mapped.positive, oracle_memory_map(raw, memory_days, mode), atol=1e-12, rtol=0
                )

    def test_m1_modes_coincide_and_shift(self):
        raw = np.random.default_rng(5).uniform(0, 1, 30)
        rec = memory_weighted_map(daily_series(raw), MemoryKernel(1, "recency"))
        lit = memory_weighted_map(daily_series(raw), MemoryKernel(1, "literal"))
        np.testing.assert_array_equal(rec.positive, lit.positive)
        np.testing.assert_allclose(rec.positive[1:], raw[:-1], atol=1e-15)
        assert rec.positive[0] == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(9)
        for mode in ("recency", "literal"):
            raw = rng.uniform(0, 1, 100)
            mapped = memory_weighted_map(daily_series(raw), MemoryKernel(7, mode))
            assert np.all(mapped.positive >= 0) and np.all(mapped.positive <= 1)

    def test_shift_equivariance_in_steady_state(self):
        rng = np.random.default_rng(13)
        raw = rng.uniform(0, 1, 60)
        shifted = np.concatenate([[0.0], raw[:-1]])
        kernel = MemoryKernel(5, "recency")
        a = memory_weighted_map(daily_series(raw), kernel).positive
        b = memory_weighted_map(daily_series(shifted), kernel).positive
        np.testing.assert_allclose(b[kernel.memory_days + 1 :], a[kernel.memory_days : -1], atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        raw = rng.uniform(0, 1, 50)
        kernel = MemoryKernel(6, "literal")
        full = memory_weighted_map(daily_series(raw), kernel).positive
        half = memory_weighted_map(daily_series(0.5 * raw), kernel).positive
        np.testing.assert_allclose(half, 0.5 * full, atol=1e-12)


class TestJoinWithStock:
    def mapped_for(self, calendar, value=0.0):
        n = len(calendar)
        return DailySentimentSeries(
            calendar=list(calendar),
            positive=np.full(n, value),
            negative=np.zeros(n),
            neutral=np.zeros(n),
        )

    def test_column_cardinality(self):
        stock = make_stock(5)
        master = join_with_stock(self.mapped_for(stock.calendar, 0.3), stock)
        assert len(master.columns) == 8
        assert master.n_rows == 5
        assert master.target_column == "Close"

    def test_calendar_mismatch_reports_first_diff(self):
        stock = make_stock(5)
        other = trading_calendar(date(2023, 1, 2), 5)
        other[2] = date(2024, 6, 1)
        with pytest.raises(CalendarMismatchError) as exc:
            join_with_stock(self.mapped_for(other), stock)
        assert exc.value.date == date(2024, 6, 1)

    def test_length_mismatch(self):
        stock = make_stock(5)
        with pytest.raises(CalendarMismatchError):
            join_with_stock(self.mapped_for(stock.calendar[:4]), stock)

    def test_zero_sentiment_pass_through(self):
        stock = make_stock(4)
        master = join_with_stock(self.mapped_for(stock.calendar), stock)
        np.testing.assert_array_equal(master.columns["sent_pos"], 0)
        np.testing.assert_array_equal(master.columns["Close"], stock.close)


class TestMasterCsv:
    def test_round_trip(self, tmp_path):
        stock = make_stock(6)
        master = stock_only_master(stock)
        path = tmp_path / "master.csv"
        write_master_csv(master, path)
        reloaded = load_master_csv(path)
        assert reloaded.calendar == master.calendar
        assert reloaded.column_names == master.column_names
        for name in master.columns:
            np.testing.assert_array_equal(reloaded.columns[name], master.columns[name])

    def write_with_row(self, tmp_path, line):
        path = tmp_path / "master.csv"
        write_master_csv(stock_only_master(make_stock(4)), path)
        rows = path.read_text().splitlines()
        rows[2] = line
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_ragged_row_names_line(self, tmp_path):
        path = self.write_with_row(tmp_path, "2020-01-03,1.0,2.0")
        with pytest.raises(UnparseableRowError) as exc:
            load_master_csv(path)
        assert exc.value.line_number == 3

    def test_nan_value_names_line(self, tmp_path):
        path = self.write_with_row(tmp_path, "2020-01-03,1.0,2.0,nan,1.5,100.0")
        with pytest.raises(UnparseableRowError) as exc:
            load_master_csv(path)
        assert exc.value.line_number == 3
