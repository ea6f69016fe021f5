import re
from bisect import bisect_left
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import corpus_of, make_corpus
from sentistock.errors import (
    EmptySeriesError,
    MissingColumnError,
    MissingScoreError,
    UnparseableRowError,
)
from sentistock.ingest import TARGET_COLUMN, MasterDataset, Tweet, load_master_csv, write_stock_csv
from sentistock.mapping import (
    MemoryKernel,
    class_contributions,
    daily_aggregate,
    join_with_stock,
    memory_weighted_map,
)
from sentistock.sentiment import ScoreTable
from sentistock.synth import trading_calendar
from test_sentiment import argmax_label


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


def oracle_daily_aggregate(table, variant, corpus, calendar):
    """The per-tweet loop: each tweet's labelled-class probability, added in corpus order."""
    n = len(calendar)
    sums = np.zeros((3, n))
    counts = np.zeros(n)
    rows = dict(zip(table.tweet_ids, table.probabilities(variant).tolist()))
    for tweet in corpus:
        day_index = bisect_left(calendar, tweet.date)
        if day_index >= n:
            continue
        score = rows[tweet.id]
        channel = ("positive", "negative", "neutral").index(argmax_label(*score))
        sums[channel, day_index] += score[channel]
        counts[day_index] += 1
    occupied = counts > 0
    channels = np.zeros_like(sums)
    channels[:, occupied] = sums[:, occupied] / counts[occupied]
    return channels


def daily_series(values):
    values = np.asarray(values, dtype=float)
    zero = np.zeros_like(values)
    return {"sent_pos": values, "sent_neg": zero, "sent_neu": zero}


def make_stock(n, start=date(2023, 1, 2)):
    close = np.linspace(10, 20, n)
    return MasterDataset(
        symbol="T",
        calendar=trading_calendar(start, n),
        columns={
            "Open": close * 0.99,
            "High": close * 1.01,
            "Low": close * 0.98,
            "Close": close,
            "Volume": np.full(n, 100.0),
        },
    )


class TestClassContribution:
    def test_positive_one_hot(self):
        assert class_contributions(np.array([[0.7, 0.2, 0.1]])).tolist() == [[0.7, 0.0, 0.0]]

    def test_pure_neutral(self):
        assert class_contributions(np.array([[0.0, 0.0, 1.0]])).tolist() == [[0.0, 0.0, 1.0]]

    def test_negative_one_hot(self):
        assert class_contributions(np.array([[0.2, 0.7, 0.1]])).tolist() == [[0.0, 0.7, 0.0]]


class TestDailyAggregate:
    def test_single_tweet_mean(self):
        corpus = make_corpus([("1", "2023-01-03", "x")])
        probs = np.array([(0.8, 0.1, 0.1)])
        calendar = trading_calendar(date(2023, 1, 2), 4)
        daily = daily_aggregate(probs, corpus.ordinals, calendar)
        expected = np.zeros(4)
        expected[1] = 0.8
        np.testing.assert_allclose(daily["sent_pos"], expected)
        np.testing.assert_allclose(daily["sent_neg"], 0)
        np.testing.assert_allclose(daily["sent_neu"], 0)

    def test_two_tweets_averaged(self):
        corpus = make_corpus([("1", "2023-01-02", "x"), ("2", "2023-01-02", "y")])
        probs = np.array([(0.6, 0.2, 0.2), (1.0, 0.0, 0.0)])
        calendar = trading_calendar(date(2023, 1, 2), 2)
        daily = daily_aggregate(probs, corpus.ordinals, calendar)
        assert daily["sent_pos"][0] == pytest.approx(0.8)

    def test_weekend_tweet_rolls_forward(self):
        # 2023-01-07 is a Saturday; next trading day is Monday 2023-01-09
        corpus = make_corpus([("1", "2023-01-07", "x")])
        probs = np.array([(0.9, 0.05, 0.05)])
        calendar = [date(2023, 1, 6), date(2023, 1, 9), date(2023, 1, 10)]
        daily = daily_aggregate(probs, corpus.ordinals, calendar)
        np.testing.assert_allclose(daily["sent_pos"], [0.0, 0.9, 0.0])

    def test_tweet_after_last_day_dropped(self):
        corpus = make_corpus([("1", "2023-02-01", "x")])
        probs = np.array([(1.0, 0.0, 0.0)])
        calendar = trading_calendar(date(2023, 1, 2), 3)
        daily = daily_aggregate(probs, corpus.ordinals, calendar)
        np.testing.assert_allclose(daily["sent_pos"], 0)

    def test_matches_per_tweet_oracle_bit_for_bit(self):
        rng = np.random.default_rng(5)
        # exact ties of every kind, then random rows
        ties = [(0.5, 0.0, 0.5), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (1 / 3, 1 / 3, 1 / 3),
                (0.4, 0.4, 0.2), (0.2, 0.4, 0.4), (0.4, 0.2, 0.4), (0.0, 0.0, 1.0)]
        for case in range(30):
            calendar = trading_calendar(date(2023, 1, 2), int(rng.integers(1, 40)))
            span = (calendar[-1] - calendar[0]).days
            n_tweets = int(rng.integers(0, 400))
            # from two days before the first trading day to five after the last:
            # weekend tweets roll forward, late tweets are dropped
            offsets = np.sort(rng.integers(-2, span + 6, n_tweets))
            tweets = [Tweet(id=f"t{i}", date=calendar[0] + timedelta(days=int(o)),
                            raw_text="") for i, o in enumerate(offsets)]
            corpus = corpus_of(tweets)
            probs = rng.dirichlet(np.ones(3), n_tweets)
            tied = rng.random(n_tweets) < 0.3
            probs[tied] = np.array(ties)[rng.integers(0, len(ties), int(tied.sum()))]
            table = ScoreTable(tweet_ids=[t.id for t in tweets], scores={"v": probs})
            daily = daily_aggregate(probs, corpus.ordinals, calendar)
            expected = oracle_daily_aggregate(table, "v", corpus, calendar)
            for channel, values in zip(expected, (daily["sent_pos"], daily["sent_neg"], daily["sent_neu"])):
                assert values.tobytes() == channel.tobytes(), f"case {case}"

    def test_missing_score(self):
        table = ScoreTable(tweet_ids=["1"])
        with pytest.raises(MissingScoreError, match="no scores for variant 'cleaned_prosus'"):
            table.probabilities("cleaned_prosus")


class TestMemoryKernel:
    @pytest.mark.parametrize("changes, message", [
        ({"memory_days": 2.5}, "memory_days must be an integer, not 2.5"),
        ({"memory_days": True}, "memory_days must be an integer, not True"),
        ({"mode": None}, "mode must be a string, not None"),
        ({"memory_days": 0}, "memory_days must be >= 1, not 0"),
    ], ids=["float", "bool", "mode-none", "zero"])
    def test_bad_value_names_its_field(self, changes, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            MemoryKernel(**changes)


class TestMemoryWeightedMap:
    def test_zero_input_zero_output(self):
        daily = daily_series(np.zeros(40))
        mapped = memory_weighted_map(daily, MemoryKernel(30, "recency"))
        np.testing.assert_array_equal(mapped["sent_pos"], 0)

    @pytest.mark.parametrize("mode", ["recency", "literal"])
    @pytest.mark.parametrize("memory_days", [1, 5, 30])
    def test_constant_input_reproduced_in_steady_state(self, mode, memory_days):
        daily = daily_series(np.full(80, 0.5))
        mapped = memory_weighted_map(daily, MemoryKernel(memory_days, mode))
        np.testing.assert_allclose(mapped["sent_pos"][memory_days:], 0.5, atol=1e-12)

    def test_hand_computed_m2_recency(self):
        # raw = [0, 1, 0, 0]; day index 2: (k1*raw[1] + k2*raw[0]) / (k1+k2) = 2/3
        daily = daily_series([0.0, 1.0, 0.0, 0.0])
        mapped = memory_weighted_map(daily, MemoryKernel(2, "recency"))
        np.testing.assert_allclose(mapped["sent_pos"], [0.0, 0.0, 2 / 3, 1 / 3], atol=1e-15)

    def test_hand_computed_m2_literal(self):
        daily = daily_series([0.0, 1.0, 0.0, 0.0])
        mapped = memory_weighted_map(daily, MemoryKernel(2, "literal"))
        np.testing.assert_allclose(mapped["sent_pos"], [0.0, 0.0, 1 / 3, 2 / 3], atol=1e-15)

    @pytest.mark.parametrize("mode", ["recency", "literal"])
    def test_oracle_equivalence(self, mode):
        rng = np.random.default_rng(17)
        for memory_days in (1, 5, 30):
            for _ in range(10):
                n = int(rng.integers(2, 120))
                raw = rng.uniform(0, 1, n)
                mapped = memory_weighted_map(daily_series(raw), MemoryKernel(memory_days, mode))
                np.testing.assert_allclose(
                    mapped["sent_pos"], oracle_memory_map(raw, memory_days, mode), atol=1e-12, rtol=0
                )

    def test_m1_modes_coincide_and_shift(self):
        raw = np.random.default_rng(5).uniform(0, 1, 30)
        rec = memory_weighted_map(daily_series(raw), MemoryKernel(1, "recency"))
        lit = memory_weighted_map(daily_series(raw), MemoryKernel(1, "literal"))
        np.testing.assert_array_equal(rec["sent_pos"], lit["sent_pos"])
        np.testing.assert_allclose(rec["sent_pos"][1:], raw[:-1], atol=1e-15)
        assert rec["sent_pos"][0] == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(9)
        for mode in ("recency", "literal"):
            raw = rng.uniform(0, 1, 100)
            mapped = memory_weighted_map(daily_series(raw), MemoryKernel(7, mode))
            assert np.all(mapped["sent_pos"] >= 0) and np.all(mapped["sent_pos"] <= 1)

    def test_shift_equivariance_in_steady_state(self):
        rng = np.random.default_rng(13)
        raw = rng.uniform(0, 1, 60)
        shifted = np.concatenate([[0.0], raw[:-1]])
        kernel = MemoryKernel(5, "recency")
        a = memory_weighted_map(daily_series(raw), kernel)["sent_pos"]
        b = memory_weighted_map(daily_series(shifted), kernel)["sent_pos"]
        np.testing.assert_allclose(b[kernel.memory_days + 1 :], a[kernel.memory_days : -1], atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_day_channels_map_to_zeros(self, n):
        mapped = memory_weighted_map(daily_series(np.ones(n)), MemoryKernel(5, "recency"))
        assert list(mapped) == ["sent_pos", "sent_neg", "sent_neu"]
        for values in mapped.values():
            assert values.tolist() == [0.0] * n

    def test_linearity(self):
        rng = np.random.default_rng(21)
        raw = rng.uniform(0, 1, 50)
        kernel = MemoryKernel(6, "literal")
        full = memory_weighted_map(daily_series(raw), kernel)["sent_pos"]
        half = memory_weighted_map(daily_series(0.5 * raw), kernel)["sent_pos"]
        np.testing.assert_allclose(half, 0.5 * full, atol=1e-12)


class TestJoinWithStock:
    def mapped_for(self, calendar, value=0.0):
        n = len(calendar)
        return {"sent_pos": np.full(n, value), "sent_neg": np.zeros(n), "sent_neu": np.zeros(n)}

    def test_column_cardinality(self):
        stock = make_stock(5)
        master = join_with_stock(self.mapped_for(stock.calendar, 0.3), stock)
        assert len(master.columns) == 8
        assert master.n_rows == 5
        assert TARGET_COLUMN in master.columns

    def test_length_mismatch(self):
        stock = make_stock(5)
        with pytest.raises(ValueError, match="sent_pos"):
            join_with_stock(self.mapped_for(stock.calendar[:4]), stock)

    def test_zero_sentiment_pass_through(self):
        stock = make_stock(4)
        master = join_with_stock(self.mapped_for(stock.calendar), stock)
        np.testing.assert_array_equal(master.columns["sent_pos"], 0)
        np.testing.assert_array_equal(master.columns["Close"], stock.columns["Close"])


class TestMasterCsv:
    def test_round_trip(self, tmp_path):
        stock = make_stock(6)
        master = stock
        path = tmp_path / "master.csv"
        write_stock_csv(master, path)
        reloaded = load_master_csv(path)
        assert reloaded.calendar == master.calendar
        assert list(reloaded.columns) == list(master.columns)
        for name in master.columns:
            np.testing.assert_array_equal(reloaded.columns[name], master.columns[name])

    def write_with_row(self, tmp_path, line):
        path = tmp_path / "master.csv"
        write_stock_csv(make_stock(4), path)
        rows = path.read_text().splitlines()
        rows[2] = line
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_empty_file(self, tmp_path):
        path = tmp_path / "master.csv"
        path.write_text("")
        with pytest.raises(MissingColumnError, match="Date"):
            load_master_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "master.csv"
        write_stock_csv(make_stock(4), path)
        with open(path, "a", newline="") as fh:
            fh.write("\r\n")
        assert load_master_csv(path).n_rows == 4

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "master.csv"
        path.write_text("Date,Close\n")
        with pytest.raises(EmptySeriesError):
            load_master_csv(path)

    def test_unsorted_rows_load_sorted(self, tmp_path):
        path = tmp_path / "master.csv"
        path.write_text("Date,Close,sent_pos\n2020-01-06,3.0,0.5\n2020-01-02,1.0,0.25\n2020-01-03,2.0,0.0\n")
        master = load_master_csv(path)
        assert master.calendar == [date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]
        assert master.columns["Close"].tolist() == [1.0, 2.0, 3.0]
        assert master.columns["sent_pos"].tolist() == [0.25, 0.0, 0.5]

    def test_repeated_date_names_line(self, tmp_path):
        path = tmp_path / "master.csv"
        path.write_text("Date,Close\n2020-01-03,2.0\n2020-01-02,1.0\n2020-01-03,3.0\n")
        with pytest.raises(UnparseableRowError, match="duplicate date 2020-01-03") as exc:
            load_master_csv(path)
        assert exc.value.line_number == 4

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "master.csv"
        path.write_text("Date,Close,Close\n2020-01-02,1.0,2.0\n")
        with pytest.raises(UnparseableRowError, match="Close") as exc:
            load_master_csv(path)
        assert exc.value.line_number == 1

    def test_ragged_row_names_line(self, tmp_path):
        path = self.write_with_row(tmp_path, "2020-01-03,1.0,2.0")
        with pytest.raises(UnparseableRowError) as exc:
            load_master_csv(path)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("day", ["20200103", "2020-W01-5"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, day):
        path = self.write_with_row(tmp_path, f"{day},1.0,2.0,0.5,1.5,100.0")
        with pytest.raises(UnparseableRowError) as exc:
            load_master_csv(path)
        assert exc.value.line_number == 3

    def test_nan_value_names_line(self, tmp_path):
        path = self.write_with_row(tmp_path, "2020-01-03,1.0,2.0,nan,1.5,100.0")
        with pytest.raises(UnparseableRowError) as exc:
            load_master_csv(path)
        assert exc.value.line_number == 3
