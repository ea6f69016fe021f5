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
from sentistock import synth
from sentistock.ingest import (
    Tweet,
    TweetCorpus,
    clean_tweets,
    load_master_csv,
    load_stock_csv,
    load_tweets,
    parse_tweet_date,
    write_csv,
    write_stock_csv,
    write_tweets,
)


def reference_clean_tweet(raw):
    """The per-tweet cleaning rules, one regex substitution at a time."""
    text = raw.lower()
    text = re.sub(r"(?:https?://|www\.)\S+", " ", text)
    text = re.sub(r"@\w+", " ", text)
    text = re.sub(r"\s+", " ", text)
    text = re.sub(r"[^a-z0-9 ]", "", text)
    return re.sub(r"\s+", " ", text).strip()


def reference_load_tweets(path):
    """The per-line loader: one json.loads and one Tweet row per line, rows
    sorted by date at the end."""
    tweets = []
    seen_ids = set()
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.rstrip("\n"))
                raw = record["text"]
                d = parse_tweet_date(str(record["date"]))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
                raise UnparseableRecordError(line_no, str(exc)) from exc
            pos_text = record.get("pos_text")
            if not isinstance(raw, str):
                raise UnparseableRecordError(line_no, f"text is a {type(raw).__name__}, not a string")
            if not isinstance(pos_text, (str, type(None))):
                raise UnparseableRecordError(
                    line_no, f"pos_text is a {type(pos_text).__name__}, not a string")
            tweet_id = record.get("id")
            if tweet_id is None:
                tweet_id = len(tweets)
            elif type(tweet_id) not in (str, int):
                raise UnparseableRecordError(
                    line_no, f"id is a {type(tweet_id).__name__}, not a string or an integer")
            tweet_id = str(tweet_id)
            if tweet_id in seen_ids:
                raise UnparseableRecordError(line_no, f"duplicate id {tweet_id!r}")
            seen_ids.add(tweet_id)
            tweets.append(Tweet(tweet_id, d, raw, pos_text))
    if not tweets:
        raise EmptyCorpusError(f"no tweet records in {path}")
    tweets.sort(key=lambda t: t.date)
    return tweets


def reference_merge(files):
    """The rows of several files, ids prefixed with the file index, sorted by date."""
    tweets = [tweet._replace(id=f"{index}:{tweet.id}")
              for index, path in enumerate(files) for tweet in reference_load_tweets(path)]
    tweets.sort(key=lambda t: t.date)
    return tweets


def cleaned_rows(loaded):
    """Each row with its cleaned text: a corpus's raw texts cleaned as one batch
    by clean_tweets, the oracle's rows each cleaned alone."""
    if isinstance(loaded, TweetCorpus):
        return list(zip(loaded, clean_tweets(loaded.raw_texts)))
    return [(tweet, reference_clean_tweet(tweet.raw_text)) for tweet in loaded]


def loader_outcome(loader, *paths):
    """What a loader does with its files: its cleaned_rows, or its error's type, line and text."""
    try:
        loaded = loader(*paths)
    except (UnparseableRecordError, EmptyCorpusError) as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)
    return cleaned_rows(loaded)


def reference_merge_outcome(files):
    """What loading several files gives: reference_merge's cleaned_rows, or the
    error of the first file that fails, its path before its line."""
    for path in files:
        outcome = loader_outcome(reference_load_tweets, path)
        if not isinstance(outcome, list):
            error, line_number, message = outcome
            return error, line_number, message if line_number is None else f"{path}: {message}"
    return cleaned_rows(reference_merge(files))


class TestCleanTweet:
    def test_url_mention_hashtag(self):
        assert clean_tweets(["Great results! https://t.co/x #Markets @user"])[0] == "great results markets"

    def test_empty(self):
        assert clean_tweets([""])[0] == ""

    def test_whitespace_and_symbols(self):
        assert clean_tweets(["GDP   up 7%"])[0] == "gdp up 7"

    def test_newlines_and_tabs(self):
        assert clean_tweets(["up\tand\naway"])[0] == "up and away"

    def test_www_url(self):
        assert clean_tweets(["see www.example.com/x now"])[0] == "see now"

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        alphabet = list("abcXYZ019 \t\n!@#$%^&*().,:/?'\"#-_=+~`éΩ")
        for _ in range(200):
            raw = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            once = clean_tweets([raw])[0]
            assert clean_tweets([once])[0] == once

    def test_output_invariants(self):
        rng = np.random.default_rng(8)
        alphabet = list("abz01 #@!https://t.co/QRS\n\t")
        for _ in range(200):
            raw = "".join(rng.choice(alphabet, size=rng.integers(0, 80)))
            out = clean_tweets([raw])[0]
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
            assert [clean_tweets([raw])[0] for raw in raws] == expected


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
        assert series.n_rows == 3
        assert list(series.columns["Close"]) == [10.0, 11.0, 12.0]
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

    def test_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2023-01-02,9,11,9,10,100\n"
            "\n"
            "not-a-date,10,12,10,11,100\n"
        )
        with pytest.raises(UnparseableRowError) as exc:
            load_stock_csv(path)
        assert exc.value.line_number == 4

    def test_short_row_names_field_count(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("Date,Open,High,Low,Close,Volume\n2023-01-03,10,12\n")
        with pytest.raises(UnparseableRowError, match="expected 6 fields, got 3") as exc:
            load_stock_csv(path)
        assert exc.value.line_number == 2

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("Date,Open,High,Low,Close,Volume,Close\n2023-01-02,9,11,9,10,100,10\n")
        with pytest.raises(UnparseableRowError, match="Close") as exc:
            load_stock_csv(path)
        assert exc.value.line_number == 1

    @pytest.mark.parametrize("load", [load_stock_csv, load_master_csv])
    def test_byte_order_mark_ignored(self, tmp_path, load):
        """A UTF-8 BOM, as spreadsheet programs write "CSV UTF-8", is not part of the Date name."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_stock_csv(three_row_series(), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected, loaded = load(plain), load(marked)
        assert loaded.calendar == expected.calendar
        assert list(loaded.columns) == list(expected.columns)
        for name, values in expected.columns.items():
            np.testing.assert_array_equal(loaded.columns[name], values)

    @pytest.mark.parametrize("column, value, ok", [
        ("Close", "nan", False),
        ("High", "inf", False),
        ("Open", "0", False),
        ("Open", "-1", False),
        ("Volume", "-1", False),
        ("Volume", "0", True),
    ])
    def test_price_and_volume_check(self, tmp_path, column, value, ok):
        """Prices must be finite and > 0, volume finite and >= 0; a bad row is
        reported by its own line even though it sorts first."""
        row = {"Date": "2023-01-02", "Open": "9", "High": "11", "Low": "9", "Close": "10", "Volume": "100"}
        row[column] = value
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2023-01-03,10,12,10,11,100\n"
            + ",".join(row.values()) + "\n"
            "2023-01-04,11,13,11,12,100\n"
        )
        if ok:
            assert load_stock_csv(path).columns[column][0] == float(value)
            return
        with pytest.raises(UnparseableRowError) as exc:
            load_stock_csv(path)
        assert exc.value.line_number == 3

    def test_first_bad_price_line_in_file_reported(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2023-01-05,10,12,10,11,-5\n"
            "2023-01-02,0,11,9,10,100\n"
        )
        with pytest.raises(UnparseableRowError, match="volume") as exc:
            load_stock_csv(path)
        assert exc.value.line_number == 2

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
        assert series.n_rows == 1

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "out.csv"
        base = 50 + np.cumsum(rng.uniform(-1, 1, 20))
        original = load_stock_csv_from_arrays(tmp_path, base)
        write_stock_csv(original, path)
        reloaded = load_stock_csv(path, symbol=original.symbol)
        assert reloaded.calendar == original.calendar
        for col in ("Open", "High", "Low", "Close", "Volume"):
            np.testing.assert_array_equal(reloaded.columns[col], original.columns[col])

    def test_written_bytes(self, tmp_path):
        """The stock CSV format: a Date header, then ISO days and each value's float repr."""
        path = tmp_path / "s.csv"
        write_stock_csv(three_row_series(), path)
        assert path.read_bytes() == (
            b"Date,Open,High,Low,Close,Volume\r\n"
            b"2022-03-01,9.9,10.5,9.75,10.0,100.0\r\n"
            b"2022-03-02,0.1,0.30000000000000004,0.1,0.2,0.0\r\n"
            b"2022-03-03,1e-05,123456789.0,1e-05,12345.678,1e+16\r\n"
        )


def three_row_series():
    """A 3-row stock series whose values need repr's shortest round-trip digits."""
    from sentistock.ingest import MasterDataset
    from sentistock.synth import trading_calendar

    return MasterDataset(
        symbol="T",
        calendar=trading_calendar(date(2022, 3, 1), 3),
        columns={
            "Open": np.array([9.9, 0.1, 1e-5]),
            "High": np.array([10.5, 0.1 + 0.2, 123456789.0]),
            "Low": np.array([9.75, 0.1, 1e-5]),
            "Close": np.array([10.0, 0.2, 12345.678]),
            "Volume": np.array([100.0, 0.0, 1e16]),
        },
    )


def load_stock_csv_from_arrays(tmp_path, close):
    from sentistock.synth import trading_calendar
    from sentistock.ingest import MasterDataset

    n = len(close)
    return MasterDataset(
        symbol="T",
        calendar=trading_calendar(date(2022, 3, 1), n),
        columns={
            "Open": close * 0.99,
            "High": close * 1.02,
            "Low": close * 0.97,
            "Close": np.asarray(close, dtype=float),
            "Volume": np.arange(n, dtype=float) + 10,
        },
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
        assert [t.pos_tagged_text for t in corpus] == ["a_DT", None]

    def test_invariants_hold_after_load(self, tweets_jsonl):
        corpus = load_tweets(tweets_jsonl)
        ids = [t.id for t in corpus]
        assert len(set(ids)) == len(ids)
        rows = list(corpus)
        for prev, cur in zip(rows, rows[1:]):
            assert prev.date <= cur.date
        for cleaned in clean_tweets(corpus.raw_texts):
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
        assert clean_tweets(corpus.raw_texts) == [reference_clean_tweet(raw) for raw in raws]


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
        assert [t.date for t in load_tweets(path)] == [date.fromisoformat(day)]

    @pytest.mark.parametrize("stamp", ["2020-01-02T25:00:00Z", "2020-01-02T10:11:12+0530",
                                       "2020-01-02T10", "2020-01-02Z", "20200102", "2020-W01-3"])
    def test_malformed_timestamp_names_line(self, tmp_path, stamp):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"date": "2020-01-01", "text": "a"}) + "\n"
                        + json.dumps({"date": stamp, "text": "b"}) + "\n")
        with pytest.raises(UnparseableRecordError) as exc:
            load_tweets(path)
        assert exc.value.line_number == 2


class TestUndecodableByte:
    """A byte that is not UTF-8 is reported at its own line, lines counted as
    the loader counts them, unless an earlier line is bad. Text is decoded in
    8 KiB blocks, so the byte goes in the first block and in a later one,
    where the earlier bad line shares its block."""

    CASES = [(3, None, 3), (3, 2, 2), (3, 5, 3), (401, None, 401), (401, 399, 399), (401, 450, 401)]

    @staticmethod
    def write(path, lines, bad, bad_line, error_at, newline):
        lines[bad - 1] = lines[bad - 1].replace(b"12", b"1\xff2", 1)
        if error_at:
            lines[error_at - 1] = bad_line
        path.write_bytes(newline.join(lines) + newline)
        assert (len(newline.join(lines[:bad])) > 8192) == (bad > 100)
        return path

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad, error_at, reported", CASES)
    def test_tweet_file(self, tmp_path, newline, bad, error_at, reported):
        lines = [b'{"date": "2020-01-12", "text": "growth today"}'] * 600
        path = self.write(tmp_path / "t.jsonl", lines, bad, b'{"date": "2020-13-02", "text": "x"}',
                          error_at, newline)
        with pytest.raises(UnparseableRecordError) as exc:
            load_tweets(path)
        assert exc.value.line_number == reported
        if reported == bad:
            assert str(exc.value) == (f"line {bad}: 'utf-8' codec can't decode byte 0xff in position 19: "
                                      "invalid start byte")
        else:
            assert str(exc.value) == f"line {reported}: month must be in 1..12"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad, error_at, reported", CASES)
    def test_stock_file(self, tmp_path, newline, bad, error_at, reported):
        days = [date.fromordinal(date(2020, 1, 1).toordinal() + i).isoformat().encode() for i in range(599)]
        lines = [b"Date,Open,High,Low,Close,Volume"] + [day + b",10.5,12.5,9.5,11.5,1000" for day in days]
        path = self.write(tmp_path / "s.csv", lines, bad, b"2019-01-01,10.5,x,9.5,11.5,1000", error_at, newline)
        with pytest.raises(UnparseableRowError) as exc:
            load_stock_csv(path)
        assert exc.value.line_number == reported
        if reported == bad:
            assert str(exc.value) == (f"line {bad}: 'utf-8' codec can't decode byte 0xff in position 17: "
                                      "invalid start byte")
        else:
            assert str(exc.value) == f"line {reported}: could not convert string to float: 'x'"


class TestLoaderMatchesPerLineOracle:
    DATES = ["2020-01-02", "2020-01-03", "2020-01-04", "2019-12-31", "2020-01-02T23:30:00-05:00",
             "2020-01-03 00:10", "2020-01-02T10:00:00Z", "2020-01-05T01:00:00+05:30"]
    PIECES = ["growth", "crash", " ", "\t", "\n", "#Up", "@who", "https://x.co/a", "\u00e9", "\u3000",
              "\u0130", "\ufeff", "\"", "\\", "{", "}", "[", "]", ","]
    # Blank lines in the loader's sense: nothing but whitespace, JSON's or not.
    BLANKS = ["", " ", "\t", "\xa0", "\u3000 ", "\x0c", "\r"]

    def random_lines(self, rng, n):
        lines = []
        for i in range(n):
            record = {"date": str(rng.choice(self.DATES)),
                      "text": "".join(rng.choice(self.PIECES, size=rng.integers(0, 8)))}
            kind = rng.random()
            if kind < 0.7:  # null counts as absent; an integer id is kept as its decimal string
                record["id"] = f"x{i}" if kind < 0.5 else None if kind < 0.6 else i
            if rng.random() < 0.7:
                record["pos_text"] = record["text"].upper() if rng.random() < 0.8 else None
            text = json.dumps(record, ensure_ascii=bool(rng.random() < 0.5))
            lines.append(str(rng.choice(["", " ", "\t", " \t "])) + text + str(rng.choice(["", " ", "\r"])))
            if rng.random() < 0.1:
                lines.append(str(rng.choice(self.BLANKS)))
        return lines

    def write(self, path, lines, newline="\n"):
        path.write_bytes(newline.join(lines).encode() + (newline.encode() if lines else b""))
        return path

    def test_random_corpora(self, tmp_path):
        rng = np.random.default_rng(21)
        for case in range(150):
            path = self.write(tmp_path / "t.jsonl", self.random_lines(rng, int(rng.integers(0, 60))))
            want = loader_outcome(reference_load_tweets, path)
            assert loader_outcome(load_tweets, path) == want, f"case {case}"
            if isinstance(want, list):
                corpus = load_tweets(path)
                assert corpus.ordinals.dtype == np.int64
                assert corpus.ordinals.tolist() == [t.date.toordinal() for t, _ in want]

    def test_merged_corpora(self, tmp_path):
        rng = np.random.default_rng(22)
        for case in range(40):
            files = [self.write(tmp_path / f"t{k}.jsonl", self.random_lines(rng, int(rng.integers(1, 40))))
                     for k in range(int(rng.integers(2, 4)))]
            merged = load_tweets(*files)
            assert merged.sources == len(files)
            assert cleaned_rows(merged) == cleaned_rows(reference_merge(files)), f"case {case}"
            assert merged.ordinals.dtype == np.int64

    def test_random_corruption_in_merged_files(self, tmp_path):
        """The first file with a bad line or no record fails the load, named
        before the line it fails at; an error of a later file is not reached."""
        rng = np.random.default_rng(24)
        corruptions = ['{"date": "2020-01-02", "text": "a"', '{"date": "2020-13-02", "text": "a"}',
                       '{"id": "x0", "date": "2020-01-02", "text": "a"}', '[1, 2]']
        for case in range(60):
            files = []
            for k in range(int(rng.integers(2, 4))):
                lines = self.random_lines(rng, int(rng.integers(0, 20)))
                if rng.random() < 0.3:
                    lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(corruptions)))
                files.append(self.write(tmp_path / f"t{k}.jsonl", lines))
            assert loader_outcome(load_tweets, *files) == reference_merge_outcome(files), f"case {case}"

    def test_files_without_ids(self, tmp_path):
        """Each file numbers its missing ids from 0, so they repeat across files
        and differ only by their file index."""
        files = [self.write(tmp_path / "a.jsonl", ['{"date": "2020-01-03", "text": "a0"}',
                                                   '{"date": "2020-01-02", "text": "a1"}']),
                 self.write(tmp_path / "b.jsonl", ['{"date": "2020-01-04", "text": "b0"}',
                                                   '{"date": "2020-01-01", "text": "b1"}'])]
        corpus = load_tweets(*files)
        assert corpus.ids == ["1:1", "0:1", "0:0", "1:0"]
        assert cleaned_rows(corpus) == cleaned_rows(reference_merge(files))
        rows, ambiguous = corpus.id_rows()
        assert ambiguous == {"0", "1"}
        assert {name: rows[name] for name in corpus.ids} == {"1:1": 0, "0:1": 1, "0:0": 2, "1:0": 3}

    def test_same_day_tweets_keep_file_order(self, tmp_path):
        day = "2020-01-02"
        files = [self.write(tmp_path / f"t{k}.jsonl", [f'{{"id": "{k}{i}", "date": "{day}", "text": "t"}}'
                                                     for i in range(3)]) for k in range(2)]
        corpus = load_tweets(*files)
        assert corpus.ids == ["0:00", "0:01", "0:02", "1:10", "1:11", "1:12"]
        assert cleaned_rows(corpus) == cleaned_rows(reference_merge(files))

    def test_id_repeated_across_files_is_kept(self, tmp_path):
        """Ids are checked for repeats within each file only."""
        files = [self.write(tmp_path / f"t{k}.jsonl", [self.GOOD]) for k in range(2)]
        assert load_tweets(*files).ids == ["0:g", "1:g"]

    def test_empty_second_file(self, tmp_path):
        files = [self.write(tmp_path / "t0.jsonl", [self.GOOD]), self.write(tmp_path / "t1.jsonl", ["", " "])]
        with pytest.raises(EmptyCorpusError, match=f"^no tweet records in {re.escape(str(files[1]))}$"):
            load_tweets(*files)

    @pytest.mark.parametrize("second, reason", [
        (b'{"date": "2020-01-06", "text": ', "Expecting value: line 1 column 32 (char 31)"),
        (b'{"date": "2020-01-06", "text": "fl\xffat"}',
         "'utf-8' codec can't decode byte 0xff in position 34: invalid start byte"),
    ], ids=["bad-json", "undecodable-byte"])
    def test_bad_line_in_second_file_names_the_file(self, tmp_path, second, reason):
        first = self.write(tmp_path / "t0.jsonl", [self.GOOD])
        path = tmp_path / "t1.jsonl"
        path.write_bytes(self.GOOD.encode() + b"\n" + second + b"\n")
        with pytest.raises(UnparseableRecordError) as exc:
            load_tweets(first, path)
        assert isinstance(exc.value, UnparseableRowError)
        assert exc.value.line_number == 2
        assert str(exc.value) == f"{path}: line 2: {reason}"
        with pytest.raises(UnparseableRecordError) as alone:  # one file: the message names no file
            load_tweets(path)
        assert str(alone.value) == f"line 2: {reason}"

    def test_random_corruption_reported_alike(self, tmp_path):
        rng = np.random.default_rng(23)
        corruptions = ['{"date": "2020-01-02", "text": "a"', '{"date": "2020-01-02", "text": "a"} x',
                       '{"date": "2020-13-02", "text": "a"}', '{"date": "2020-01-02"}', '[1, 2]',
                       '{"date": "2020-01-02", "text": 3}', '{"id": "x0", "date": "2020-01-02", "text": "a"}',
                       '\ufeff{"date": "2020-01-02", "text": "a"}', '\xa0{"date": "2020-01-02", "text": "a"}',
                       '{"a": [{}', '{}]}', '{"b": 1}, {"c": 2}',
                       '{"id": 1.0, "date": "2020-01-02", "text": "a"}',
                       '{"id": false, "date": "2020-01-02", "text": "a"}']
        for case in range(150):
            lines = self.random_lines(rng, int(rng.integers(1, 30)))
            for _ in range(int(rng.integers(1, 3))):
                lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(corruptions)))
            path = self.write(tmp_path / "t.jsonl", lines, newline=str(rng.choice(["\n", "\r\n"])))
            assert loader_outcome(load_tweets, path) == loader_outcome(reference_load_tweets, path), \
                f"case {case}"

    GOOD = '{"id": "g", "date": "2020-01-02", "text": "growth"}'

    @pytest.mark.parametrize("lines, error, line_number", [
        pytest.param(['{"date": "2020-01-02", "text": "a"}', "", '{"date": "2020-01-02", "text": '],
                     UnparseableRecordError, 3, id="bad-json"),
        pytest.param([GOOD, '{"date": "2020-01-02", "text": "a"} {"x": 1}'], UnparseableRecordError, 2,
                     id="trailing-data"),
        pytest.param([GOOD, '{"date": "2020-01-03", "text": "a"}, {"date": "2020-01-03", "text": "b"}'],
                     UnparseableRecordError, 2, id="two-objects-on-a-line"),
        pytest.param([GOOD, '{"a": [{}', '{}]}'], UnparseableRecordError, 2, id="object-split-over-lines"),
        pytest.param([GOOD, '\ufeff{"date": "2020-01-02", "text": "a"}'], UnparseableRecordError, 2,
                     id="bom"),
        pytest.param([GOOD, '\xa0{"date": "2020-01-02", "text": "a"}'], UnparseableRecordError, 2,
                     id="no-break-space"),
        pytest.param([GOOD, '{"date": "2020-01-02"}'], UnparseableRecordError, 2, id="missing-text"),
        pytest.param([GOOD, '{"text": "a"}'], UnparseableRecordError, 2, id="missing-date"),
        pytest.param([GOOD, '{"date": "2020-01-02", "text": ["a"]}'], UnparseableRecordError, 2,
                     id="non-string-text"),
        pytest.param([GOOD, '{"date": "2020-01-02", "text": "a", "id": "g"}'], UnparseableRecordError, 2,
                     id="duplicate-id"),
        pytest.param([GOOD, '{"date": "2020-02-30", "text": "a"}', '{"date": '], UnparseableRecordError, 2,
                     id="bad-date-before-bad-json"),
        pytest.param([GOOD + "\r", '{"date": "2020-01-02", "text": "a"}\r', "{\r"], UnparseableRecordError, 3,
                     id="crlf"),
        pytest.param(["", " \t ", "\xa0", "\u3000", "\x0c"], EmptyCorpusError, None, id="blanks-only"),
        pytest.param(['{"id": null, "date": "2020-01-02", "text": "a"}',
                      '{"id": null, "date": "2020-01-03", "text": "b"}',
                      '{"id": "1", "date": "2020-01-03", "text": "c"}'], UnparseableRecordError, 3,
                     id="null-ids"),
        pytest.param([GOOD, '{"id": true, "date": "2020-01-02", "text": "a"}'], UnparseableRecordError, 2,
                     id="bool-id"),
        pytest.param([GOOD, '{"id": 1.0, "date": "2020-01-02", "text": "a"}'], UnparseableRecordError, 2,
                     id="float-id"),
        pytest.param([GOOD, '{"id": [1], "date": "2020-01-02", "text": "a"}'], UnparseableRecordError, 2,
                     id="list-id"),
    ])
    def test_errors_match_oracle(self, tmp_path, lines, error, line_number):
        path = self.write(tmp_path / "t.jsonl", lines)
        got = loader_outcome(load_tweets, path)
        assert got == loader_outcome(reference_load_tweets, path)
        assert got[:2] == (error, line_number)
        if line_number is not None:
            assert f"line {line_number}" in got[2]

    def test_null_and_integer_ids(self, tmp_path):
        lines = ['{"id": null, "date": "2020-01-02", "text": "a"}',
                 '{"id": 7, "date": "2020-01-03", "text": "b"}',
                 '{"date": "2020-01-06", "text": "c"}',
                 '{"id": null, "date": "2020-01-07", "text": "d"}']
        path = self.write(tmp_path / "t.jsonl", lines)
        assert load_tweets(path).ids == ["0", "7", "2", "3"]
        lines.append('{"id": true, "date": "2020-01-08", "text": "e"}')
        with pytest.raises(UnparseableRecordError) as exc:
            load_tweets(self.write(tmp_path / "t.jsonl", lines))
        assert str(exc.value) == "line 5: id is a bool, not a string or an integer"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_bad_json_error_names_one_line(self, tmp_path, newline):
        # the decoder's own position counts within the bad line, not past its line break
        lines = ['{"date": "2020-01-02", "text": "growth"}', '{"date": "2020-01-03", "text": "crash"}',
                 '{"date": "2020-01-06", "text": ', '{"date": "2020-01-07", "text": "flat"}']
        with pytest.raises(UnparseableRecordError) as exc:
            load_tweets(self.write(tmp_path / "t.jsonl", lines, newline=newline))
        assert str(exc.value) == "line 3: Expecting value: line 1 column 32 (char 31)"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_crlf_and_blank_lines_load_alike(self, tmp_path, newline):
        lines = ["", self.GOOD, " \t", "\xa0", '{"date": "2020-01-01", "text": "Crash!", "pos_text": "x"}',
                 "\u3000"]
        path = self.write(tmp_path / "t.jsonl", lines, newline=newline)
        rows = cleaned_rows(load_tweets(path))
        assert rows == cleaned_rows(reference_load_tweets(path))
        assert [(t.id, cleaned) for t, cleaned in rows] == [("1", "crash"), ("g", "growth")]


def reference_write_tweets(corpus, path):
    """The per-row writer: one json.dumps of one record per Tweet row."""
    with open(path, "w") as fh:
        for tweet in corpus:
            record = {"id": tweet.id, "date": tweet.date.isoformat(), "text": tweet.raw_text}
            if tweet.pos_tagged_text is not None:
                record["pos_text"] = tweet.pos_tagged_text
            fh.write(json.dumps(record) + "\n")


def hard_corpus():
    """Texts that JSON must escape, a tweet without pos_text, and several tweets a day."""
    raws = ['say "hi"', "back\\slash \\n", "ctrl \x00\x1f\t\n\r end", "caf\u00e9 \u6f22\u5b57 \U0001f600",
            "line\u2028sep", "", "plain"]
    pos = ['"q"_NN', None, "x\ty", "\u00e9_JJ", None, "", "plain_NN"]
    ordinals = [date(2020, 1, 3).toordinal()] * 3 + [date(2019, 12, 31).toordinal()] * 4
    ids = ['a"1', "b\\2", "c", "d\u00e9", "e", "f", "g"]
    return TweetCorpus.by_date(ids, ordinals, raws, pos)


class TestWriteTweets:
    @pytest.fixture(params=["hard", "grid_e2e_seed0"])
    def corpus(self, request):
        if request.param == "hard":
            return hard_corpus()
        # the size of the benchmark's grid_e2e inputs at seed 0: 5,943 tweets
        calendar = synth.random_walk_stock(300, seed=0).calendar
        return synth.random_tweets(calendar, per_day=20, seed=7919)

    def test_bytes_match_per_row_dumps(self, tmp_path, corpus):
        write_tweets(corpus, tmp_path / "got.jsonl")
        reference_write_tweets(corpus, tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_load_round_trip(self, tmp_path, corpus):
        write_tweets(corpus, tmp_path / "t.jsonl")
        loaded = load_tweets(tmp_path / "t.jsonl")
        assert loaded.ids == corpus.ids
        assert loaded.ordinals.tolist() == corpus.ordinals.tolist()
        assert loaded.raw_texts == corpus.raw_texts
        assert loaded.pos_texts == corpus.pos_texts


class TestWriteCsv:
    EDGES = (-0.0, 1e16, 1e-05, 0.1, float("nan"), float("inf"))

    @pytest.mark.parametrize("line_end", ["\r\n", "\n"], ids=["crlf", "lf"])
    def test_values_written_as_their_explicit_text(self, tmp_path, line_end):
        """Each field is the text explicit formatting gives: repr(float(x))
        for a Python or numpy float, isoformat for a date, "" for None, str
        for an int; a string holding a comma is one quoted field."""
        floats = [*self.EDGES, *map(np.float64, self.EDGES)]
        assert type(floats[-1]) is np.float64
        values = [*floats, date(2020, 1, 2), None, 3, "BRK,B"]
        by_hand = [*(repr(float(x)) for x in floats), date(2020, 1, 2).isoformat(), "", str(3), "BRK,B"]
        header = [f"c{i}" for i in range(len(values))]
        write_csv(tmp_path / "values.csv", header, [values], line_end)
        write_csv(tmp_path / "text.csv", header, [by_hand], line_end)
        got = (tmp_path / "values.csv").read_bytes()
        assert got == (tmp_path / "text.csv").read_bytes()
        assert got.split(line_end.encode())[1] == b"-0.0,1e+16,1e-05,0.1,nan,inf," * 2 + b'2020-01-02,,3,"BRK,B"'
