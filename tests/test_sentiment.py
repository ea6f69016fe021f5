import numpy as np
import pytest

from conftest import corpus_of, make_corpus
from sentistock.errors import (
    AmbiguousTweetIdError,
    MissingColumnError,
    MissingVariantTextError,
    ProbabilityRowInvalidError,
    ScorerUnavailableError,
    UnknownTweetIdError,
    UnparseableRowError,
)
from sentistock import sentiment
from sentistock.ingest import Tweet, load_tweets, write_tweets
from sentistock.sentiment import (
    DEFAULT_NEGATIVE_WORDS,
    DEFAULT_POSITIVE_WORDS,
    LABELS,
    SCORE_COLUMNS,
    VARIANTS,
    labels,
    load_precomputed_scores,
    score_corpus,
    score_texts,
    write_scores_csv,
)


def argmax_label(p_pos: float, p_neg: float, p_neu: float) -> str:
    """Argmax class with ties broken neutral > positive > negative."""
    label = "neutral"
    best = p_neu
    if p_pos > best:
        label, best = "positive", p_pos
    if p_neg > best:
        label, best = "negative", p_neg
    return label


def label_of(row) -> str:
    """The class name labels gives one (p_pos, p_neg, p_neu) row."""
    return LABELS[int(labels(np.asarray([row], dtype=float))[0])]


def score_text(text):
    """One text's (p_pos, p_neg, p_neu) row as Python floats."""
    return tuple(score_texts([text])[0].tolist())


def reference_lexicon_probabilities(text):
    """The lexicon formula for one text, in Python floats."""
    tokens = text.split()
    if not tokens:
        return (0.0, 0.0, 1.0)
    c_pos = sum(map(DEFAULT_POSITIVE_WORDS.__contains__, tokens))
    c_neg = sum(map(DEFAULT_NEGATIVE_WORDS.__contains__, tokens))
    hits = c_pos + c_neg
    u = (c_pos - c_neg) / max(1, hits)
    s = hits / len(tokens)
    p_pos = s * max(0.0, u)
    p_neg = s * max(0.0, -u)
    return (p_pos, p_neg, 1.0 - p_pos - p_neg)


def reference_scores(texts):
    return np.array([reference_lexicon_probabilities(text) for text in texts],
                    dtype=float).reshape(-1, 3)


def entries(table):
    """Every (p_pos, p_neg, p_neu) row the table holds, keyed by (tweet id, variant);
    variants that failed to score hold none."""
    return {(tweet_id, variant): tuple(row)
            for variant, scores in table.scores.items() if isinstance(scores, np.ndarray)
            for tweet_id, row in zip(table.tweet_ids, scores.tolist())}


class TestSentimentScore:
    """The class rule, sentiment.labels, on (p_pos, p_neg, p_neu) rows."""

    def test_argmax_label(self):
        assert label_of((0.7, 0.2, 0.1)) == "positive"
        assert label_of((0.1, 0.8, 0.1)) == "negative"

    def test_tie_break_neutral_over_positive(self):
        assert label_of((0.5, 0.0, 0.5)) == "neutral"

    def test_tie_break_positive_over_negative(self):
        assert label_of((0.5, 0.5, 0.0)) == "positive"

    def test_matches_oracle_on_ties_and_random_rows(self):
        rng = np.random.default_rng(3)
        ties = [(0.5, 0.0, 0.5), (0.25, 0.25, 0.5), (0.4, 0.2, 0.4),  # p_pos == p_neu
                (0.5, 0.5, 0.0), (0.4, 0.4, 0.2), (0.1, 0.1, 0.8),  # p_neg == p_pos
                (0.0, 0.5, 0.5), (0.2, 0.4, 0.4),  # p_neg == p_neu
                (1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
        probs = rng.dirichlet(np.ones(3), 500)
        tied = rng.random(500) < 0.4
        probs[tied] = np.array(ties)[rng.integers(0, len(ties), int(tied.sum()))]
        probs = np.concatenate([np.array(ties), probs])
        got = labels(probs)
        assert got.shape == (len(probs),)
        assert [LABELS[i] for i in got] == [argmax_label(*row) for row in probs.tolist()]
        assert labels(np.zeros((0, 3))).shape == (0,)


class TestScoreTweet:
    """score_texts on one text at a time."""

    def test_counts_formula(self):
        # c+=2, c-=1, n=3: u=1/3, s=1 -> p_pos=1/3, p_neg=0, p_neu=2/3
        p_pos, p_neg, p_neu = score_text("growth growth crash")
        assert p_pos == pytest.approx(1 / 3, abs=1e-12)
        assert p_neg == 0.0
        assert p_neu == pytest.approx(2 / 3, abs=1e-12)
        assert p_pos > p_neg
        assert label_of((p_pos, p_neg, p_neu)) == "neutral"  # argmax rule; p_neu dominates here

    def test_zero_hits_is_neutral(self):
        score = score_text("nothing to see here")
        assert score == (0.0, 0.0, 1.0)
        assert label_of(score) == "neutral"

    def test_single_negative_hit(self):
        score = score_text("crash")
        assert score == (0.0, 1.0, 0.0)
        assert label_of(score) == "negative"

    def test_empty_text_is_neutral(self):
        assert label_of(score_text("")) == "neutral"

    def test_deterministic(self):
        for text in ("growth crash growth", "crash crash", "hello"):
            a = score_text(text)
            b = score_text(text)
            assert a == b

    def test_appending_positive_word_never_decreases_p_pos(self):
        rng = np.random.default_rng(11)
        words = ["growth", "crash", "flat", "open", "close"]
        for _ in range(300):
            text = " ".join(rng.choice(words, size=rng.integers(1, 12)))
            before = score_text(text)[0]
            after = score_text(text + " growth")[0]
            assert after >= before - 1e-15


class TestLexiconScores:
    def test_word_lists_are_disjoint(self):
        # each lexicon word has one bit; a word in both lists would count for one only
        assert DEFAULT_POSITIVE_WORDS and DEFAULT_NEGATIVE_WORDS
        assert not DEFAULT_POSITIVE_WORDS & DEFAULT_NEGATIVE_WORDS

    def test_bit_identical_to_per_text_formula(self):
        rng = np.random.default_rng(21)
        words = ["up", "high", "down", "low", "wild", "flat", "x", "", " ", "\t", "\u3000"]
        for _ in range(300):
            texts = [" ".join(rng.choice(words, size=rng.integers(0, 12)))
                     for _ in range(rng.integers(0, 9))]
            assert score_texts(texts).tobytes() == reference_scores(texts).tobytes()

    def test_empty_texts_and_signed_zeros(self):
        texts = ["", "   ", "flat", "up down", "wild", "down", "up", "", "high low", "low high flat"]
        got = score_texts(texts)
        assert got.shape == (10, 3)
        assert got.tobytes() == reference_scores(texts).tobytes()
        assert got[8:].tolist() == [[0.0, 0.0, 1.0]] * 2  # u = 0 with hits
        assert not np.signbit(got).any()
        assert score_texts([]).shape == (0, 3)

    def test_score_tweet_uses_the_same_formula(self):
        for text in ("growth growth crash", "", "crash", "flat"):
            assert score_text(text) == reference_lexicon_probabilities(text)


class TestScoreTextsInBlocks:
    def test_blocks_bit_identical_to_one_pass(self, monkeypatch):
        rng = np.random.default_rng(4)
        words = ["growth", "crash", "gain", "loss", "flat", "day", "record", "low", "\u3000", "\t"]
        texts = [" ".join(rng.choice(words, size=rng.integers(0, 9))) for _ in range(2600)]
        blocked = score_texts(texts)
        assert len(texts) > 2 * sentiment._TOKEN_BLOCK
        assert blocked.tobytes() == reference_scores(texts).tobytes()
        for block in (len(texts), 1, 7):
            monkeypatch.setattr(sentiment, "_TOKEN_BLOCK", block)
            assert score_texts(texts).tobytes() == blocked.tobytes(), block


class TestScoreCorpus:
    def test_cardinality(self):
        corpus = make_corpus([("1", "2023-01-02", "growth"), ("2", "2023-01-03", "crash"),
                              ("3", "2023-01-04", "flat day")])
        table = score_corpus(None, corpus, ["cleaned_prosus", "cleaned_yiyanghkust"])
        assert len(entries(table)) == 6

    def test_missing_pos_text(self):
        from datetime import date

        tweet = Tweet(id="1", date=date(2023, 1, 2), raw_text="x",
                      pos_tagged_text=None)
        corpus = corpus_of([tweet])
        with pytest.raises(MissingVariantTextError):
            score_corpus(None, corpus, ["pos_prosus"]).probabilities("pos_prosus")

    def test_text_form_scored_once_and_failures_kept_per_variant(self):
        from datetime import date

        tweets = [Tweet(id="1", date=date(2023, 1, 2), raw_text="growth",
                        pos_tagged_text=None)]
        table = score_corpus(None, corpus_of(tweets), list(VARIANTS) + ["bogus"])
        assert table.variants == list(VARIANTS) + ["bogus"]
        assert table.probabilities("cleaned_prosus") is table.probabilities("cleaned_yiyanghkust")
        assert table.probabilities("cleaned_prosus").tolist() == [[1.0, 0.0, 0.0]]
        for variant in ("pos_prosus", "pos_yiyanghkust"):
            with pytest.raises(MissingVariantTextError) as exc:
                table.probabilities(variant)
            assert exc.value.variant == variant
        with pytest.raises(ValueError):
            table.probabilities("bogus")

    def test_missing_pos_text_fails_pos_variants_only(self):
        """The first tweet that lacks pos_text is named by each pos variant's
        own error; the cleaned variants still score every tweet."""
        from datetime import date

        tweets = [Tweet(id=str(i), date=date(2023, 1, 2 + i), raw_text="growth",
                        pos_tagged_text=None if i in (1, 2) else "growth") for i in range(4)]
        table = score_corpus(None, corpus_of(tweets), list(VARIANTS))
        for variant in ("cleaned_prosus", "cleaned_yiyanghkust"):
            assert table.probabilities(variant).tolist() == [[1.0, 0.0, 0.0]] * 4
        for variant in ("pos_prosus", "pos_yiyanghkust"):
            with pytest.raises(MissingVariantTextError) as exc:
                table.probabilities(variant)
            assert (exc.value.tweet_id, exc.value.variant) == ("1", variant)
            assert str(exc.value) == f"tweet '1' has no text for variant {variant!r}"

    def test_stored_scores_satisfy_invariants(self):
        corpus = make_corpus([("1", "2023-01-02", "growth crash growth"),
                              ("2", "2023-01-03", "crash crash flat")])
        table = score_corpus(None, corpus, list(VARIANTS))
        for score in entries(table).values():
            assert abs(sum(score) - 1.0) <= 1e-6
            probs = dict(zip(LABELS, score))
            assert probs[label_of(score)] == max(probs.values())


class TestPrecomputedScores:
    def write_scores(self, tmp_path, rows):
        path = tmp_path / "scores.csv"
        lines = ["tweet_id,variant,p_pos,p_neg,p_neu"]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_argmax_label_assigned(self, tmp_path):
        corpus = make_corpus([("7", "2023-01-02", "x")])
        path = self.write_scores(tmp_path, [("7", "cleaned_prosus", 0.9, 0.05, 0.05)])
        table = load_precomputed_scores(path, corpus)
        assert label_of(table.probabilities("cleaned_prosus")[0]) == "positive"

    def test_small_deviation_renormalized(self, tmp_path):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = self.write_scores(tmp_path, [("1", "cleaned_prosus", 0.5, 0.3, 0.2005)])
        score = load_precomputed_scores(path, corpus).probabilities("cleaned_prosus")[0].tolist()
        assert abs(score[0] + score[1] + score[2] - 1.0) <= 1e-9

    def test_large_deviation_rejected(self, tmp_path):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = self.write_scores(tmp_path, [("1", "cleaned_prosus", 0.6, 0.4, 0.2)])
        with pytest.raises(ProbabilityRowInvalidError):
            load_precomputed_scores(path, corpus)

    @pytest.mark.parametrize("row", [(2.0, -1.0, 0.0), ("nan", 0.5, 0.5)])
    def test_not_a_distribution_rejected(self, tmp_path, row):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = self.write_scores(tmp_path, [("1", "cleaned_prosus", *row)])
        with pytest.raises(ProbabilityRowInvalidError, match="line 2"):
            load_precomputed_scores(path, corpus)

    def test_unknown_tweet_id(self, tmp_path):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = self.write_scores(tmp_path, [("99", "cleaned_prosus", 1, 0, 0)])
        with pytest.raises(UnknownTweetIdError):
            load_precomputed_scores(path, corpus)

    @pytest.mark.parametrize("column", SCORE_COLUMNS)
    def test_missing_column_named(self, tmp_path, column):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        row = dict(zip(SCORE_COLUMNS, ("1", "cleaned_prosus", "1", "0", "0")))
        del row[column]
        path = tmp_path / "scores.csv"
        path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        with pytest.raises(MissingColumnError) as excinfo:
            load_precomputed_scores(path, corpus)
        assert str(excinfo.value) == f"no {column} column in {path}"

    @pytest.mark.parametrize("row", [
        ("1",),
        ("1", "cleaned_prosus", 0.5, 0.5),
        ("1", "cleaned_prosus", "abc", 0.5, 0.5),
        ("1", "bogus", 1, 0, 0),
        ("1", "cleaned_prosus", 1, 0, 0, 9),
    ])
    def test_malformed_row_names_line(self, tmp_path, row):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = self.write_scores(tmp_path, [("1", "pos_prosus", 1, 0, 0), row])
        with pytest.raises(UnparseableRowError) as exc:
            load_precomputed_scores(path, corpus)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("row, count", [(("1", "cleaned_prosus", 1, 0), 4),
                                            (("1", "cleaned_prosus", 1, 0, 0, 9), 6)])
    def test_field_count_named(self, tmp_path, row, count):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = self.write_scores(tmp_path, [row])
        with pytest.raises(UnparseableRowError, match=f"line 2: expected 5 fields, got {count}"):
            load_precomputed_scores(path, corpus)

    def test_repeated_column_rejected(self, tmp_path):
        """A header naming p_pos twice is an error, not a read of its later column."""
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = tmp_path / "scores.csv"
        path.write_text("tweet_id,variant,p_pos,p_neg,p_neu,p_pos\n1,cleaned_prosus,0.2,0.1,0.2,0.7\n")
        with pytest.raises(UnparseableRowError, match="p_pos") as exc:
            load_precomputed_scores(path, corpus)
        assert exc.value.line_number == 1

    def test_byte_order_mark_ignored(self, tmp_path):
        corpus = make_corpus([("1", "2023-01-02", "x"), ("2", "2023-01-03", "y")])
        plain = self.write_scores(tmp_path, [("1", "cleaned_prosus", 0.25, 0.3125, 0.4375),
                                             ("2", "cleaned_prosus", 0.1, 0.2, 0.7)])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert entries(load_precomputed_scores(marked, corpus)) == entries(load_precomputed_scores(plain, corpus))

    def test_repeated_row_rejected(self, tmp_path):
        """A second row for one (tweet, variant) is an error at its own line,
        which names the earlier one, not a silent overwrite."""
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = self.write_scores(tmp_path, [("1", "cleaned_prosus", 1, 0, 0), ("1", "pos_prosus", 1, 0, 0),
                                            ("1", "cleaned_prosus", 0, 1, 0)])
        with pytest.raises(UnparseableRowError, match="line 4: tweet '1', variant 'cleaned_prosus' "
                                                      "was already scored at line 2"):
            load_precomputed_scores(path, corpus)

    def test_line_number_counts_blank_lines(self, tmp_path):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        path = tmp_path / "scores.csv"
        path.write_text("tweet_id,variant,p_pos,p_neg,p_neu\n1,pos_prosus,1,0,0\n\n99,pos_prosus,1,0,0\n")
        with pytest.raises(UnknownTweetIdError, match="line 4:"):
            load_precomputed_scores(path, corpus)

    def test_pass_through_bit_for_bit(self, tmp_path):
        corpus = make_corpus([("1", "2023-01-02", "x")])
        rows = [("1", v, 0.25, 0.3125, 0.4375) for v in VARIANTS]
        path = self.write_scores(tmp_path, rows)
        table = score_corpus(path, corpus, list(VARIANTS))
        assert len(entries(table)) == 4
        for variant in VARIANTS:
            assert entries(table)["1", variant] == (0.25, 0.3125, 0.4375)

    def test_incomplete_precomputed_table(self, tmp_path):
        corpus = make_corpus([("1", "2023-01-02", "x"), ("2", "2023-01-03", "y")])
        path = self.write_scores(tmp_path, [("1", "cleaned_prosus", 1, 0, 0)])
        with pytest.raises(ScorerUnavailableError):
            score_corpus(path, corpus, ["cleaned_prosus"]).probabilities("cleaned_prosus")

    def test_written_bytes(self, tmp_path):
        """The score CSV format: CRLF line ends, each probability's float repr, and a
        field quoted only when it holds a comma."""
        table = sentiment.ScoreTable(["1", "a,b"], {
            "cleaned_prosus": np.array([[0.25, 0.3125, 0.4375], [0.1, 0.2, 0.7]]),
            "pos_prosus": np.array([[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]),
        })
        path = tmp_path / "out.csv"
        write_scores_csv(table, path)
        third = "0.3333333333333333"
        assert path.read_bytes() == (
            b"tweet_id,variant,p_pos,p_neg,p_neu\r\n"
            b"1,cleaned_prosus,0.25,0.3125,0.4375\r\n"
            b"1,pos_prosus,1.0,0.0,0.0\r\n"
            b'"a,b",cleaned_prosus,0.1,0.2,0.7\r\n'
            + f'"a,b",pos_prosus,{third},{third},{third}\r\n'.encode()
        )

    def test_round_trip_via_writer(self, tmp_path):
        corpus = make_corpus([("1", "2023-01-02", "growth"), ("2", "2023-01-03", "crash")])
        table = score_corpus(None, corpus, ["cleaned_prosus"])
        path = tmp_path / "out.csv"
        write_scores_csv(table, path)
        reloaded = load_precomputed_scores(path, corpus)
        assert entries(reloaded) == entries(table)


class TestMergedCorpusScores:
    def merged(self, tmp_path):
        """The corpus of two tweet files that both hold an id '1'."""
        files = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        write_tweets(make_corpus([("1", "2023-01-02", "x"), ("a", "2023-01-03", "y")]), files[0])
        write_tweets(make_corpus([("1", "2023-01-02", "z"), ("b", "2023-01-04", "w")]), files[1])
        return load_tweets(*files)

    def write_scores(self, tmp_path, ids):
        path = tmp_path / "scores.csv"
        rows = [f"{i},cleaned_prosus,{0.1 * k},0.0,{1 - 0.1 * k}" for k, i in enumerate(ids)]
        path.write_text("\n".join(["tweet_id,variant,p_pos,p_neg,p_neu"] + rows) + "\n")
        return path

    def test_rows_match_by_own_or_merged_id(self, tmp_path):
        corpus = self.merged(tmp_path)
        path = self.write_scores(tmp_path, ["0:1", "a", "1:1", "b"])
        table = score_corpus(path, corpus, ["cleaned_prosus"])
        by_id = dict(zip(table.tweet_ids, table.probabilities("cleaned_prosus")[:, 0].tolist()))
        assert by_id == pytest.approx({"0:1": 0.0, "0:a": 0.1, "1:1": 0.2, "1:b": 0.3})

    def test_own_and_merged_id_of_one_tweet_repeat(self, tmp_path):
        """'a' is tweet 0:a's own id in its file, so a row for each repeats."""
        path = self.write_scores(tmp_path, ["0:a", "b", "a"])
        with pytest.raises(UnparseableRowError, match="line 4: tweet '0:a', variant 'cleaned_prosus' "
                                                      "was already scored at line 2"):
            load_precomputed_scores(path, self.merged(tmp_path))

    def test_id_of_two_files_is_ambiguous(self, tmp_path):
        path = self.write_scores(tmp_path, ["0:1", "a", "1", "b"])
        with pytest.raises(AmbiguousTweetIdError, match="line 4: tweet id '1'"):
            load_precomputed_scores(path, self.merged(tmp_path))

    @pytest.mark.parametrize("row, error", [
        ("9,cleaned_prosus,1,0,0", UnknownTweetIdError),
        ("1,cleaned_prosus,1,0,0", AmbiguousTweetIdError),
        ("a,cleaned_prosus,0.6,0.4,0.2", ProbabilityRowInvalidError),
    ], ids=["unknown", "ambiguous", "not-a-distribution"])
    def test_row_error_carries_its_line_number(self, tmp_path, row, error):
        """Each error of a score row is an UnparseableRowError whose line
        number, blank lines counted, is the one its message starts with."""
        path = tmp_path / "scores.csv"
        path.write_text(f"tweet_id,variant,p_pos,p_neg,p_neu\n0:1,pos_prosus,1,0,0\n\n{row}\n")
        with pytest.raises(error) as exc:
            load_precomputed_scores(path, self.merged(tmp_path))
        assert isinstance(exc.value, UnparseableRowError)
        assert exc.value.line_number == 4 and str(exc.value).startswith("line 4: ")
