"""Per-tweet sentiment scoring.

Scores come from one of two sources: a precomputed score CSV, with header
``tweet_id,variant,p_pos,p_neg,p_neu``, through which scores computed
externally by transformer models enter, when one is named; otherwise the
package's deterministic lexicon (useful for tests and offline experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (
    AmbiguousTweetIdError,
    MissingScoreError,
    MissingVariantTextError,
    ProbabilityRowInvalidError,
    ScorerUnavailableError,
    UnknownTweetIdError,
    UnparseableRowError,
)
from .ingest import TweetCorpus, clean_tweets, read_csv, write_csv

# Canonical scoring variants, in the order used for result-table features 1-4.
VARIANTS = ("cleaned_prosus", "cleaned_yiyanghkust", "pos_prosus", "pos_yiyanghkust")

# The precomputed-score CSV header, one row per (tweet, variant).
SCORE_COLUMNS = ("tweet_id", "variant", "p_pos", "p_neg", "p_neu")

# The text form each variant scores, cleaned raw or POS-tagged; variants of one form share scores.
TEXT_FORMS = dict(zip(VARIANTS, ("cleaned",) * 2 + ("pos",) * 2))
# Texts tokenised at once, which bounds the tokens held in memory.
_TOKEN_BLOCK = 1024

DEFAULT_POSITIVE_WORDS = frozenset(
    """
    gain gains growth profit profits rally surge soar boom bullish upgrade
    beat record strong rise rising recovery rebound outperform optimistic
    positive expansion win wins success breakthrough high
    """.split()
)

DEFAULT_NEGATIVE_WORDS = frozenset(
    """
    loss losses crash collapse plunge plummet slump bearish downgrade miss
    weak fall falling decline drop recession layoffs fraud scandal default
    negative fear risk selloff bankruptcy low
    """.split()
)
# Each lexicon word's bit: 1 if positive, 2 if negative (the lists share no word).
_LEXICON = {**dict.fromkeys(DEFAULT_POSITIVE_WORDS, 1), **dict.fromkeys(DEFAULT_NEGATIVE_WORDS, 2)}

# Class names, in the column order of a (p_pos, p_neg, p_neu) row.
LABELS = ("positive", "negative", "neutral")


def labels(probabilities: np.ndarray) -> np.ndarray:
    """Each (p_pos, p_neg, p_neu) row's argmax class as an index into LABELS.

    Ties break neutral > positive > negative.
    """
    p_pos, p_neg, p_neu = probabilities.T
    positive = p_pos > p_neu
    return np.where(p_neg > np.where(positive, p_pos, p_neu), 1, np.where(positive, 0, 2))


@dataclass
class ScoreTable:
    """Per variant, an (n_tweets, 3) array of (p_pos, p_neg, p_neu) rows in
    ``tweet_ids`` order, or the error that kept the variant from being
    scored, raised when the variant is read so that it fails alone."""

    tweet_ids: list[str]
    scores: dict[str, np.ndarray | Exception] = field(default_factory=dict)

    @property
    def variants(self) -> list[str]:
        return list(self.scores)

    def probabilities(self, variant: str) -> np.ndarray:
        """The variant's (n_tweets, 3) array; raises the error it failed with."""
        scores = self.scores.get(variant)
        if scores is None:
            raise MissingScoreError(f"no scores for variant {variant!r}")
        if isinstance(scores, Exception):
            raise scores
        return scores


def score_texts(texts: list[str]) -> np.ndarray:
    """The (len(texts), 3) lexicon probabilities (p_pos, p_neg, p_neu) of the texts.

    With hit counts c+ and c- of DEFAULT_POSITIVE_WORDS and DEFAULT_NEGATIVE_WORDS
    among whitespace tokens and n tokens total:
    u = (c+ - c-) / max(1, c+ + c-), s = (c+ + c-) / n, p_pos = s*max(u, 0),
    p_neg = s*max(-u, 0), p_neu = 1 - p_pos - p_neg. No hits (or empty text)
    scores neutral. Deterministic for fixed texts.
    """
    n_tokens = np.empty(len(texts), dtype=np.int64)
    c_pos, c_neg = counts = np.zeros((2, len(texts)), dtype=np.int64)
    for start in range(0, len(texts), _TOKEN_BLOCK):
        tokens, lengths = [], []
        for text_tokens in map(str.split, texts[start:start + _TOKEN_BLOCK]):
            lengths.append(len(text_tokens))
            tokens += text_tokens
        block = slice(start, start + len(lengths))
        n_tokens[block] = lengths
        owner = np.repeat(np.arange(len(lengths)), n_tokens[block])
        kind = np.fromiter(map(_LEXICON.get, tokens, repeat(0)), dtype=np.int8, count=len(tokens))
        for hits, bit in zip(counts, (1, 2)):
            hits[block] = np.bincount(owner[(kind & bit) != 0], minlength=len(lengths))
    total = c_pos + c_neg
    u = (c_pos - c_neg) / np.maximum(1, total)
    # An empty text has no hits, so s is 0 and the text scores neutral.
    s = total / np.maximum(1, n_tokens)
    # max(0, u) keeping Python's +0.0 where u is 0, which np.maximum need not.
    p_pos = s * np.where(u > 0, u, 0.0)
    p_neg = s * np.where(-u > 0, -u, 0.0)
    return np.stack([p_pos, p_neg, 1.0 - p_pos - p_neg], axis=1)


def score_corpus(scores_file: str | Path | None, corpus: TweetCorpus,
                 variants: list[str] | tuple[str, ...] = VARIANTS) -> ScoreTable:
    """Score every tweet for every requested variant.

    A named score file is read once, and errors in the file raise here;
    without one the lexicon scores each text form (the raw texts cleaned by
    clean_tweets, or the POS texts) once per call, shared by its variants. A
    variant that cannot be scored keeps its error in the table: ValueError if
    unknown, MissingVariantTextError if a tweet lacks its POS text,
    ScorerUnavailableError if the precomputed scores miss a tweet.
    """
    table = ScoreTable(tweet_ids=corpus.ids)
    loaded = None if scores_file is None else load_precomputed_scores(scores_file, corpus)
    by_form: dict[str, np.ndarray | None] = {}  # None for a form some tweet lacks
    for variant in variants:
        if variant not in TEXT_FORMS:
            table.scores[variant] = ValueError(f"unknown variant {variant!r}")
        elif loaded is not None:
            table.scores[variant] = loaded.scores[variant]
        else:
            form = TEXT_FORMS[variant]
            if form not in by_form:
                texts = clean_tweets(corpus.raw_texts) if form == "cleaned" else corpus.pos_texts
                by_form[form] = None if None in texts else score_texts(texts)
            table.scores[variant] = by_form[form] if by_form[form] is not None else (
                MissingVariantTextError(corpus.ids[corpus.pos_texts.index(None)], variant))
    return table


def load_precomputed_scores(path: str | Path, corpus: TweetCorpus) -> ScoreTable:
    """Load externally computed scores, validating probability rows.

    A row's ``tweet_id`` names a tweet as TweetCorpus.id_rows does: one that
    names two tweets raises AmbiguousTweetIdError, one naming none
    UnknownTweetIdError. Rows of non-negative probabilities summing within
    1e-3 of 1 are renormalized; others raise ProbabilityRowInvalidError. A variant that
    misses a tweet maps to ScorerUnavailableError. Besides the errors of ingest.read_csv (a missing
    or repeated column, a row of the wrong field count), an unknown variant, a non-numeric
    probability or a second row for one (tweet, variant) raises UnparseableRowError.
    """
    rows, ambiguous = corpus.id_rows()
    arrays = {variant: np.full((len(corpus), 3), np.nan) for variant in VARIANTS}
    seen: dict[tuple[int, str], int] = {}  # (tweet row, variant) -> its line
    csv_rows = read_csv(path, SCORE_COLUMNS)
    _, header = next(csv_rows)
    fields = [header.index(col) for col in SCORE_COLUMNS]
    for line_no, row in csv_rows:
        tweet_id, variant, *numbers = (row[i] for i in fields)
        if tweet_id in ambiguous:
            raise AmbiguousTweetIdError(line_no, f"tweet id {tweet_id!r} names more than one "
                                        "tweet; use the merged id '<file index>:<id>'")
        if tweet_id not in rows:
            raise UnknownTweetIdError(line_no, f"tweet id {tweet_id!r} not in corpus")
        if variant not in VARIANTS:
            raise UnparseableRowError(line_no, f"unknown variant {variant!r}")
        try:
            p = [float(v) for v in numbers]
        except ValueError as exc:
            raise UnparseableRowError(line_no, str(exc)) from exc
        total = sum(p)
        if min(p) < 0 or not abs(total - 1.0) <= 1e-3:
            raise ProbabilityRowInvalidError(line_no, f"tweet {tweet_id!r}, variant {variant!r}: "
                                             f"probabilities {p} are not a distribution")
        first_line = seen.setdefault((rows[tweet_id], variant), line_no)
        if first_line != line_no:
            raise UnparseableRowError(line_no, f"tweet {corpus.ids[rows[tweet_id]]!r}, variant "
                                      f"{variant!r} was already scored at line {first_line}")
        arrays[variant][rows[tweet_id]] = [v / total for v in p]
    table = ScoreTable(tweet_ids=corpus.ids)
    for variant, probabilities in arrays.items():
        missing = np.flatnonzero(np.isnan(probabilities[:, 0]))
        table.scores[variant] = probabilities if missing.size == 0 else ScorerUnavailableError(
            f"no precomputed score for tweet {table.tweet_ids[missing[0]]!r}, variant {variant!r}")
    return table


def write_scores_csv(table: ScoreTable, path: str | Path) -> None:
    """Write a score table in the precomputed-score CSV format; a variant
    that failed to score raises its error before the file is opened."""
    arrays = {variant: table.probabilities(variant).tolist() for variant in table.variants}
    write_csv(path, SCORE_COLUMNS, ((tweet_id, variant, *scores[row])
                                    for row, tweet_id in enumerate(table.tweet_ids)
                                    for variant, scores in arrays.items()))
