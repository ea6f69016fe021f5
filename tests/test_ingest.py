import json
import re
from datetime import date

import numpy as np
import pytest

from sentistock.errors import (
    EmptyCorpusError,
    EmptySeriesError,
    MissingColumnError,
    UnparseableRecordError,
    UnparseableRowError,
)
from sentistock.ingest import clean_tweet, clean_tweets, load_stock_csv, load_tweets, write_stock_csv


def reference_clean_tweet(raw):
    """The per-tweet cleaning rules, one regex substitution at a time."""
    text = raw.lower()
    text = re.sub(r"(?:https?://|www\.)\S+", " ", text)
    text = re.sub(r"@\w+", " ", text)
    text = re.sub(r"\s+", " ", text)
    text = re.sub(r"[^a-z0-9 ]", "", text)
    return re.sub(r"\s+", " ", text).strip()


class TestCleanTweet:
    def test_url_mention_hashtag(self):
        assert clean_tweet("Great results! https://t.co/x #Markets @user") == "great results markets"

    def test_empty(self):
        assert clean_tweet("") == ""

    def test_whitespace_and_symbols(self):
        assert clean_tweet("GDP   up 7%") == "gdp up 7"

    def test_newlines_and_tabs(self):
        assert clean_tweet("up\tand\naway") == "up and away"

    def test_www_url(self):
        assert clean_tweet("see www.example.com/x now") == "see now"

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        alphabet = list("abcXYZ019 \t\n!@#$%^&*().,:/?'\"#-_=+~`éΩ")
        for _ in range(200):
            raw = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            once = clean_tweet(raw)
            assert clean_tweet(once) == once

    def test_output_invariants(self):
        rng = np.random.default_rng(8)
        alphabet = list("abz01 #@!https://t.co/QRS\n\t")
        for _ in range(200):
            raw = "".join(rng.choice(alphabet, size=rng.integers(0, 80)))
            out = clean_tweet(raw)
            assert out == out.lower()
            assert "http" not in out or "http" in raw.lower().replace("https://", "").replace("http://", "")
            assert "@" not in out and "#" not in out
            assert "  " not in out
            assert out == out.strip()
            assert all(c.isalnum() or c == " " for c in out)


class TestCleanTweets:
    # Unicode whitespace (\x1c-\x1f, NEL, no-break and ideographic space),
    # line breaks, 'İ' (lowercases to two code points) and URL/mention/'#'
    # pieces that can run into one another.
    PIECES = list("aZ9 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000\u2028!@#%./:_é\u0130") + [
        "http://", "https://", "www.", "@", "#", "x.co/", "@user", "#tag", "\u200b"]

    def test_empty_list(self):
        assert clean_tweets([]) == []

    def test_texts_cleaned_apart(self):
        raws = ["A\nhttps://t.co/x\n@b", "", "#Up\u3000\u0130stanbul", "\n", "www.x.com@y#z"]
        assert clean_tweets(raws) == [reference_clean_tweet(raw) for raw in raws]
        assert clean_tweets(raws) == ["a", "", "up istanbul", "", ""]

    def test_matches_per_tweet_rules(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            raws = ["".join(rng.choice(self.PIECES, size=rng.integers(0, 30)))
                    for _ in range(rng.integers(0, 6))]
            expected = [reference_clean_tweet(raw) for raw in raws]
            assert clean_tweets(raws) == expected
            assert [clean_tweet(raw) for raw in raws] == expected


class TestLoadStockCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2023-01-02,9,11,9,10,100\n"
            "2023-01-03,10,12,10,11,100\n"
            "2023-01-04,11,13,11,12,100\n"
        )
        series = load_stock_csv(path)
        assert len(series) == 3
        assert list(series.close) == [10.0, 11.0, 12.0]
        assert series.calendar == [date(2023, 1, 2), date(2023, 1, 3), date(2023, 1, 4)]

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2023-01-03,10,12,10,11,100\n"
            "2023-01-02,9,11,9,10,100\n"
        )
        series = load_stock_csv(path)
        assert series.calendar == [date(2023, 1, 2), date(2023, 1, 3)]

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2023-01-02,9,11,9,10,100\n"
            "2023-01-02,10,12,10,11,100\n"
        )
        with pytest.raises(UnparseableRowError):
            load_stock_csv(path)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("Date,Open,High,Low,Volume\n2023-01-02,9,11,9,100\n")
        with pytest.raises(MissingColumnError, match="Close"):
            load_stock_csv(path)

    def test_empty_series(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("Date,Open,High,Low,Close,Volume\n")
        with pytest.raises(EmptySeriesError):
            load_stock_csv(path)

    def test_bad_row_carries_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2023-01-02,9,11,9,10,100\n"
            "not-a-date,10,12,10,11,100\n"
        )
        with pytest.raises(UnparseableRowError) as exc:
            load_stock_csv(path)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("day", ["20230103", "2023-W01-2"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, day):
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2023-01-02,9,11,9,10,100\n"
            f"{day},10,12,10,11,100\n"
        )
        with pytest.raises(UnparseableRowError) as exc:
            load_stock_csv(path)
        assert exc.value.line_number == 3

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume,AdjClose\n2023-01-02,9,11,9,10,100,9.9\n"
        )
        series = load_stock_csv(path)
        assert len(series) == 1

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "out.csv"
        base = 50 + np.cumsum(rng.uniform(-1, 1, 20))
        original = load_stock_csv_from_arrays(tmp_path, base)
        write_stock_csv(original, path)
        reloaded = load_stock_csv(path, symbol=original.symbol)
        assert reloaded.calendar == original.calendar
        for col in ("open", "high", "low", "close", "volume"):
            np.testing.assert_array_equal(getattr(reloaded, col), getattr(original, col))


def load_stock_csv_from_arrays(tmp_path, close):
    from sentistock.synth import trading_calendar
    from sentistock.ingest import StockSeries

    n = len(close)
    return StockSeries(
        symbol="T",
        dates=trading_calendar(date(2022, 3, 1), n),
        open=close * 0.99,
        high=close * 1.02,
        low=close * 0.97,
        close=np.asarray(close, dtype=float),
        volume=np.arange(n, dtype=float) + 10,
    )


class TestLoadTweets:
    def test_reordered_ascending(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"date": "2023-01-02", "text": "b"}) + "\n"
            + json.dumps({"date": "2023-01-01", "text": "a"}) + "\n"
        )
        corpus = load_tweets(path)
        assert [t.date.isoformat() for t in corpus] == ["2023-01-01", "2023-01-02"]

    def test_missing_text_field(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"date": "2023-01-01"}) + "\n")
        with pytest.raises(UnparseableRecordError):
            load_tweets(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(EmptyCorpusError):
            load_tweets(path)

    def test_auto_ids_and_pos_text(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"date": "2023-01-01", "text": "a", "pos_text": "a_DT"}) + "\n"
            + json.dumps({"date": "2023-01-02", "text": "b"}) + "\n"
        )
        corpus = load_tweets(path)
        assert [t.id for t in corpus] == ["0", "1"]
        assert corpus.tweets[0].pos_tagged_text == "a_DT"
        assert corpus.tweets[1].pos_tagged_text is None

    def test_invariants_hold_after_load(self, tweets_jsonl):
        corpus = load_tweets(tweets_jsonl)
        ids = [t.id for t in corpus]
        assert len(set(ids)) == len(ids)
        for prev, cur in zip(corpus.tweets, corpus.tweets[1:]):
            assert prev.date <= cur.date
        for tweet in corpus:
            cleaned = tweet.cleaned_text
            assert cleaned == cleaned.lower()
            assert "@" not in cleaned and "http" not in cleaned


    @pytest.mark.parametrize("record, field", [
        ({"date": "2020-01-02", "text": 5}, "text"),
        ({"date": "2020-01-02", "text": None}, "text"),
        ({"date": "2020-01-02", "text": ["a"]}, "text"),
        ({"date": "2020-01-02", "text": "a", "pos_text": 5}, "pos_text"),
        ({"date": "2020-01-02", "text": "a", "pos_text": {"a": "DT"}}, "pos_text"),
    ])
    def test_non_string_text_names_line(self, tmp_path, record, field):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"date": "2020-01-01", "text": "a"}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(UnparseableRecordError, match=f"line 2: {field} is a ") as exc:
            load_tweets(path)
        assert exc.value.line_number == 2

    def test_cleaned_as_one_batch(self, tmp_path):
        raws = ["Up @a https://x.co", "", "#Gain\u3000\u0130", "two\nlines"]
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps({"id": str(i), "date": "2020-01-02", "text": raw}) + "\n"
                                for i, raw in enumerate(raws)))
        corpus = load_tweets(path)
        assert [t.raw_text for t in corpus] == raws
        assert [t.cleaned_text for t in corpus] == [reference_clean_tweet(raw) for raw in raws]


class TestTimestampedDates:
    @pytest.mark.parametrize("stamp, day", [
        ("2020-01-02", "2020-01-02"),
        ("2020-01-02T10:11:12Z", "2020-01-02"),
        ("2020-01-02T00:00:00Z", "2020-01-02"),  # UTC midnight opens the day
        ("2020-01-01T23:59:59.999Z", "2020-01-01"),  # and the second before it closes the previous one
        ("2020-01-02T05:29:59+05:30", "2020-01-01"),  # 23:59:59 UTC
        ("2020-01-02T05:30:00+05:30", "2020-01-02"),  # 00:00:00 UTC
        ("2020-01-01T19:00:00-05:00", "2020-01-02"),
        ("2020-01-02 10:11", "2020-01-02"),  # no offset: taken as UTC
    ])
    def test_utc_calendar_day(self, tmp_path, stamp, day):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"date": stamp, "text": "a"}) + "\n")
        assert load_tweets(path).tweets[0].date == date.fromisoformat(day)

    @pytest.mark.parametrize("stamp", ["2020-01-02T25:00:00Z", "2020-01-02T10:11:12+0530",
                                       "2020-01-02T10", "2020-01-02Z", "20200102", "2020-W01-3"])
    def test_malformed_timestamp_names_line(self, tmp_path, stamp):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"date": "2020-01-01", "text": "a"}) + "\n"
                        + json.dumps({"date": stamp, "text": "b"}) + "\n")
        with pytest.raises(UnparseableRecordError) as exc:
            load_tweets(path)
        assert exc.value.line_number == 2
