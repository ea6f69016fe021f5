"""Per-tweet sentiment scoring.

Two scorer kinds are supported: a deterministic lexicon scorer (useful for
tests and offline experiments) and a pass-through loader for scores computed
externally by transformer models. Externally computed scores arrive as CSV
with header ``tweet_id,variant,p_pos,p_neg,p_neu``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AmbiguousTweetIdError,
    MissingColumnError,
    MissingScoreError,
    MissingVariantTextError,
    ProbabilityRowInvalidError,
    ScorerUnavailableError,
    UnknownTweetIdError,
    UnparseableRowError,
)
from .ingest import TweetCorpus

# Canonical scoring variants, in the order used for result-table features 1-4.
VARIANTS = ("cleaned_prosus", "cleaned_yiyanghkust", "pos_prosus", "pos_yiyanghkust")

# The precomputed-score CSV header, one row per (tweet, variant).
SCORE_COLUMNS = ("tweet_id", "variant", "p_pos", "p_neg", "p_neu")

# The TweetCorpus column each variant scores; variants reading the same one share scores.
TEXT_FORMS = dict(zip(VARIANTS, ("cleaned_texts",) * 2 + ("pos_texts",) * 2))
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


@dataclass
class ScorerConfig:
    """Selects and parameterizes a scorer.

    ``kind`` is ``"lexicon"`` or ``"precomputed"``; the latter requires
    ``source`` to point at a score CSV.
    """

    kind: str = "lexicon"
    source: str | Path | None = None
    positive_words: frozenset[str] = DEFAULT_POSITIVE_WORDS
    negative_words: frozenset[str] = DEFAULT_NEGATIVE_WORDS

    def __post_init__(self):
        if self.kind not in ("lexicon", "precomputed"):
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.kind == "precomputed" and self.source is None:
            raise ValueError("precomputed scorer needs a source file")


def score_texts(config: ScorerConfig, texts: list[str]) -> np.ndarray:
    """The (len(texts), 3) lexicon probabilities (p_pos, p_neg, p_neu) of the texts.

    With hit counts c+ and c- among whitespace tokens and n tokens total:
    u = (c+ - c-) / max(1, c+ + c-), s = (c+ + c-) / n, p_pos = s*max(u, 0),
    p_neg = s*max(-u, 0), p_neu = 1 - p_pos - p_neg. No hits (or empty text)
    scores neutral. Deterministic for fixed config and texts.
    """
    if config.kind != "lexicon":
        raise ScorerUnavailableError(
            "text scoring needs the lexicon scorer; precomputed scores are "
            "looked up by tweet id via load_precomputed_scores"
        )
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
        for hits, words in zip(counts, (config.positive_words, config.negative_words)):
            mask = np.fromiter(map(words.__contains__, tokens), dtype=bool, count=len(tokens))
            hits[block] = np.bincount(owner[mask], minlength=len(lengths))
    total = c_pos + c_neg
    u = (c_pos - c_neg) / np.maximum(1, total)
    # An empty text has no hits, so s is 0 and the text scores neutral.
    s = total / np.maximum(1, n_tokens)
    # max(0, u) keeping Python's +0.0 where u is 0, which np.maximum need not.
    p_pos = s * np.where(u > 0, u, 0.0)
    p_neg = s * np.where(-u > 0, -u, 0.0)
    return np.stack([p_pos, p_neg, 1.0 - p_pos - p_neg], axis=1)


def _score_text_form(config: ScorerConfig, corpus: TweetCorpus, form: str) -> np.ndarray | str:
    """Lexicon probabilities of one text form of every tweet, or the id of
    the first tweet that lacks that form."""
    texts = getattr(corpus, form)
    if None in texts:
        return corpus.ids[texts.index(None)]
    return score_texts(config, texts)


def score_corpus(
    config: ScorerConfig, corpus: TweetCorpus, variants: list[str] | tuple[str, ...] = VARIANTS
) -> ScoreTable:
    """Score every tweet for every requested variant.

    The lexicon scorer scores each text form once per tweet; variants that
    read the same form share its array. A precomputed config reads its file
    once, and errors in the file raise here. A variant that cannot be scored
    keeps its error in the table: ValueError if unknown,
    MissingVariantTextError if a tweet lacks its text form,
    ScorerUnavailableError if the precomputed scores miss a tweet.
    """
    table = ScoreTable(tweet_ids=corpus.ids)
    loaded = load_precomputed_scores(config.source, corpus) if config.kind == "precomputed" else None
    by_form: dict[str, np.ndarray | str] = {}
    for variant in variants:
        if variant not in TEXT_FORMS:
            table.scores[variant] = ValueError(f"unknown variant {variant!r}")
        elif loaded is not None:
            table.scores[variant] = loaded.scores[variant]
        else:
            form = TEXT_FORMS[variant]
            if form not in by_form:
                by_form[form] = _score_text_form(config, corpus, form)
            scored = by_form[form]
            table.scores[variant] = (MissingVariantTextError(scored, variant)
                                     if isinstance(scored, str) else scored)
    return table


def load_precomputed_scores(path: str | Path, corpus: TweetCorpus) -> ScoreTable:
    """Load externally computed scores, validating probability rows.

    A row's ``tweet_id`` is a corpus id or, in a corpus merged from several
    files (ids ``<file index>:<id>``), a tweet's id in its own file; one that
    names two tweets raises AmbiguousTweetIdError, one naming none
    UnknownTweetIdError. Rows of non-negative probabilities summing within
    1e-3 of 1 are renormalized; others raise ProbabilityRowInvalidError. A variant that
    misses a tweet maps to ScorerUnavailableError. A header missing one of SCORE_COLUMNS raises
    MissingColumnError naming the column and the file; a short row, an unknown variant or a
    non-numeric probability UnparseableRowError.
    """
    rows: dict[str, int] = {}
    ambiguous: set[str] = set()
    for row, tweet_id in enumerate(corpus.ids):
        for key in (tweet_id, tweet_id.partition(":")[2]) if corpus.sources > 1 else (tweet_id,):
            if rows.setdefault(key, row) != row:
                ambiguous.add(key)
    arrays = {variant: np.full((len(corpus), 3), np.nan) for variant in VARIANTS}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for col in SCORE_COLUMNS:
            if col not in (reader.fieldnames or []):
                raise MissingColumnError(f"no {col} column in {path}")
        for row in reader:
            line_no = reader.line_num
            if None in row.values():
                raise UnparseableRowError(line_no, f"fewer fields than the header's {len(reader.fieldnames)}")
            tweet_id = row["tweet_id"]
            variant = row["variant"]
            if tweet_id in ambiguous:
                raise AmbiguousTweetIdError(f"line {line_no}: tweet id {tweet_id!r} names more than "
                                            "one tweet; use the merged id '<file index>:<id>'")
            if tweet_id not in rows:
                raise UnknownTweetIdError(f"line {line_no}: tweet id {tweet_id!r} not in corpus")
            if variant not in VARIANTS:
                raise UnparseableRowError(line_no, f"unknown variant {variant!r}")
            try:
                p = [float(row[k]) for k in SCORE_COLUMNS[2:]]
            except ValueError as exc:
                raise UnparseableRowError(line_no, str(exc)) from exc
            total = sum(p)
            if min(p) < 0 or not abs(total - 1.0) <= 1e-3:
                raise ProbabilityRowInvalidError(
                    f"line {line_no}: tweet {tweet_id!r}, variant {variant!r}: "
                    f"probabilities {p} are not a distribution"
                )
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_COLUMNS)
        for row, tweet_id in enumerate(table.tweet_ids):
            for variant, scores in arrays.items():
                writer.writerow((tweet_id, variant, *map(repr, scores[row])))
