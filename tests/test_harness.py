import csv
import dataclasses
import json
import logging
import math
import re
import weakref

import numpy as np
import pytest

from conftest import make_master
from sentistock import errors, harness, neuralnet, sentiment, synth
from sentistock.dataset import inverse_transform
from sentistock.errors import ConfigError, PipelineError
from sentistock.harness import (
    ExperimentConfig,
    emit_report,
    fingerprint,
    load_config,
    run_grid,
    run_master,
)
from sentistock.ingest import (
    TweetCorpus,
    clean_tweets,
    load_stock_csv,
    load_tweets,
    write_stock_csv,
    write_tweets,
)
from sentistock.mapping import MasterDataset, MemoryKernel
from sentistock.sentiment import VARIANTS


def fast_config(**kwargs):
    defaults = dict(
        hidden_units=4,
        epochs=3,
        batch_size=16,
        patience=5,
        lookbacks=[3],
        split_ratio=0.8,
        seed=0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.fixture
def synthetic_inputs(tmp_path):
    stock = synth.random_walk_stock(n_days=80, seed=1, symbol="SYN")
    stock_path = tmp_path / "SYN.csv"
    write_stock_csv(stock, stock_path)

    corpus = synth.random_tweets(stock.calendar, per_day=1.0, seed=2)
    tweets_path = tmp_path / "tweets.jsonl"
    write_tweets(corpus, tweets_path)
    return stock_path, tweets_path


class TestRunPipeline:
    """The whole pipeline for one (variant, lookback) cell, run as a grid."""

    def test_without_sentiment_on_monotone_series(self, tmp_path):
        from datetime import date

        from sentistock.ingest import MasterDataset
        from sentistock.synth import trading_calendar

        close = np.linspace(10.0, 40.0, 60)
        stock = MasterDataset(
            symbol="MONO", calendar=trading_calendar(date(2020, 1, 1), 60),
            columns={"Open": close * 0.99, "High": close * 1.01, "Low": close * 0.98,
                     "Close": close, "Volume": np.full(60, 100.0)},
        )
        path = tmp_path / "MONO.csv"
        write_stock_csv(stock, path)
        cfg = fast_config(stock_file=str(path), with_sentiment=False)
        masters = harness.build_masters(cfg, stock)
        assert list(masters) == ["none"] and masters["none"] is stock
        [record] = run_grid(cfg)
        assert record.ok and record.variant == "none"
        report = record.report
        for value in (report.mae, report.rmse, report.r2, report.acc):
            assert np.isfinite(value)

    def test_with_sentiment_adds_three_channels(self, synthetic_inputs):
        stock_path, tweets_path = synthetic_inputs
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          variants=["cleaned_prosus"])
        [master] = harness.build_masters(cfg, load_stock_csv(stock_path)).values()
        assert len(master.columns) == 8
        [record] = run_grid(cfg)
        assert record.ok and record.variant == "cleaned_prosus"

    def test_deterministic_reports(self, synthetic_inputs):
        stock_path, tweets_path = synthetic_inputs
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          variants=["cleaned_prosus"])
        [a] = run_grid(cfg)
        [b] = run_grid(cfg)
        assert a.report == b.report
        assert a.fingerprint == b.fingerprint

    def test_stage_tagged_errors(self, tmp_path):
        cfg = fast_config(stock_file=str(tmp_path / "missing.csv"), with_sentiment=False)
        with pytest.raises(PipelineError) as exc:
            run_grid(cfg)
        assert exc.value.stage == "load_stock"

    def test_missing_stock_file_is_a_config_error(self, tmp_path):
        """No stock file is a bad config, like sentiment with no tweet file, not a
        failed load_stock stage; it is raised before any output directory is made."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="^stock_file is required$") as exc:
            run_grid(fast_config(with_sentiment=False, output_dir=str(out)))
        assert type(exc.value) is ConfigError
        assert not out.exists()

    def test_result_files_do_not_depend_on_input_location(self, synthetic_inputs, tmp_path):
        """Copies of the inputs in a deeper directory, written to another output
        directory, give byte-identical result files, records included."""
        stock_path, tweets_path = synthetic_inputs
        deep = tmp_path / "copies" / "deeper"
        deep.mkdir(parents=True)
        for path in (stock_path, tweets_path):
            (deep / path.name).write_bytes(path.read_bytes())

        def grid(stock, tweets, out):
            run_grid(fast_config(stock_file=str(stock), tweet_files=[str(tweets)],
                                 variants=["cleaned_prosus", "pos_prosus"], lookbacks=[2, 3], output_dir=str(out)))
            return {p.name: p.read_bytes() for p in out.iterdir()}

        first = grid(stock_path, tweets_path, tmp_path / "out")
        second = grid(deep / stock_path.name, deep / tweets_path.name, tmp_path / "elsewhere" / "out2")
        assert len(first) == 13 and sum(name.endswith("_record.json") for name in first) == 4
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_record_is_strict_json_without_validation(self, synthetic_inputs, tmp_path):
        """No validation windows: val_score is null in the record, not NaN, and empty in the summary."""
        stock_path, tweets_path = synthetic_inputs
        out = tmp_path / "out"
        run_grid(fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                             variants=["cleaned_prosus"], validation_split=0, output_dir=str(out)))

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        record = json.loads((out / "SYN_cleaned_prosus_w3_record.json").read_text(), parse_constant=reject)
        assert record["error"] is None and record["report"]["val_score"] is None
        [row] = csv.DictReader((out / "summary_SYN.csv").read_text().splitlines())
        assert row["val_score"] == "" and row["r2"] != ""

    def test_artifacts_written(self, synthetic_inputs, tmp_path):
        stock_path, tweets_path = synthetic_inputs
        out = tmp_path / "out"
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          variants=["cleaned_prosus"], output_dir=str(out))
        run_grid(cfg)
        assert (out / "SYN_cleaned_prosus_w3_loss.csv").exists()
        assert (out / "SYN_cleaned_prosus_w3_pred.csv").exists()
        assert (out / "SYN_cleaned_prosus_w3_record.json").exists()


class TestRunGrid:
    def test_cell_cardinality(self, synthetic_inputs):
        stock_path, tweets_path = synthetic_inputs
        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tweets_path)],
            variants=["cleaned_prosus", "cleaned_yiyanghkust"], lookbacks=[2, 3],
        )
        records = run_grid(cfg)
        assert len(records) == 4
        assert all(r.ok for r in records)

    def test_failures_isolated(self, tmp_path, synthetic_inputs, caplog):
        stock_path, _ = synthetic_inputs
        # tweets without pos_text make pos_* variants fail at the score stage
        tweets_path = tmp_path / "nopos.jsonl"
        with open(tweets_path, "w") as fh:
            fh.write(json.dumps({"date": "2020-01-02", "text": "strong growth"}) + "\n")
            fh.write(json.dumps({"date": "2020-01-03", "text": "crash fears"}) + "\n")
        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tweets_path)],
            variants=["cleaned_prosus", "pos_prosus"], lookbacks=[2, 3],
        )
        with caplog.at_level(logging.WARNING):
            records = run_grid(cfg)
        ok = [r for r in records if r.ok]
        failed = [r for r in records if not r.ok]
        assert len(ok) == 2 and len(failed) == 2
        assert all(r.variant == "pos_prosus" for r in failed)
        assert all(r.failed_stage == "score" for r in failed)
        # every failed cell is logged, also one whose master failed
        assert [m.split(":")[0] for m in caplog.messages if "failed" in m] == [
            "cell (pos_prosus, 2) failed at score", "cell (pos_prosus, 3) failed at score"]

    def test_oversized_lookbacks_skipped_with_warning(self, synthetic_inputs, caplog):
        stock_path, tweets_path = synthetic_inputs  # 80 days -> 16 test rows
        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tweets_path)],
            variants=["cleaned_prosus"], lookbacks=[3, 60],
        )
        with caplog.at_level(logging.WARNING):
            records = run_grid(cfg)
        assert len(records) == 1
        assert records[0].lookback == 3
        assert any("skipping lookback 60" in m for m in caplog.messages)

    def test_every_lookback_skipped_is_a_config_error(self, synthetic_inputs, tmp_path):
        stock_path, tweets_path = synthetic_inputs  # 80 days -> 16 test rows
        out = tmp_path / "out"
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          lookbacks=[8, 60], output_dir=str(out))
        with pytest.raises(ConfigError, match=r"\[8, 60\].* 16 rows"):
            run_grid(cfg)
        assert not out.exists()

    def test_paper_lookbacks(self, tmp_path, caplog):
        """Lookbacks up to 94 on a 950-day series: 190 test rows, so 95 is
        the first lookback the skip rule drops."""
        stock = synth.random_walk_stock(n_days=950, seed=3, symbol="PAPER")
        stock_path = tmp_path / "PAPER.csv"
        write_stock_csv(stock, stock_path)
        tweets_path = tmp_path / "tweets.jsonl"
        write_tweets(synth.random_tweets(stock.calendar, per_day=1.0, seed=4), tweets_path)
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          variants=["cleaned_prosus"], epochs=1, batch_size=32,
                          lookbacks=[30, 60, 90, 94, 95])
        with caplog.at_level(logging.WARNING):
            records = run_grid(cfg)
        assert [m for m in caplog.messages if "skipping" in m] == [
            "skipping lookback 95: test set has only 190 rows"]
        assert [r.lookback for r in records] == [30, 60, 90, 94]
        for r in records:
            assert r.ok, r.error
            n_windows = 190 - r.lookback
            assert r.report.n_samples == len(r.predicted) == n_windows
            assert r.test_dates == stock.calendar[760 + r.lookback:]
            np.testing.assert_allclose(r.actual, stock.columns["Close"][760 + r.lookback:])

    def test_corpus_freed_before_training(self, synthetic_inputs, tmp_path, monkeypatch):
        """Also when a variant's master fails: its stored error holds no frame."""
        stock_path, tweets_path = synthetic_inputs
        nopos = tmp_path / "nopos.jsonl"  # pos_prosus fails to score
        corpus = load_tweets(tweets_path)
        write_tweets(dataclasses.replace(corpus, pos_texts=[None] * len(corpus)), nopos)
        corpora = []

        def recording_loader(path):  # one file, so this corpus is the grid's own
            corpus = load_tweets(path)
            corpora.append(weakref.ref(corpus))
            return corpus

        alive = []
        real_train = harness.nn.train

        def recording_train(*args, **kwargs):
            alive.append(corpora[0]() is not None)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness.nn, "train", recording_train)
        for path, n_ok in ((tweets_path, 4), (nopos, 2)):
            corpora.clear()
            alive.clear()
            cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(path)],
                              variants=["cleaned_prosus", "pos_prosus"], lookbacks=[2, 3])
            records = run_grid(cfg, tweet_loader=recording_loader)
            assert sum(r.ok for r in records) == n_ok
            assert alive == [False] * n_ok, path.name

    def test_without_sentiment_never_reads_tweets(self, synthetic_inputs):
        stock_path, tweets_path = synthetic_inputs

        def poisoned_loader(path):
            raise AssertionError(f"tweet file {path} was read")

        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tweets_path)],
            with_sentiment=False, lookbacks=[3],
        )
        records = run_grid(cfg, tweet_loader=poisoned_loader)
        assert len(records) == 1 and records[0].ok
        assert records[0].variant == "none"

    def test_tweet_files_read_once_per_grid(self, synthetic_inputs, tmp_path):
        stock_path, tweets_path = synthetic_inputs
        second = tmp_path / "tweets2.jsonl"
        second.write_bytes(tweets_path.read_bytes())
        calls = []

        def counting_loader(*paths):
            calls.append(paths)
            return load_tweets(*paths)

        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tweets_path), str(second)],
            variants=["cleaned_prosus", "cleaned_yiyanghkust", "pos_prosus"], lookbacks=[2, 3],
        )
        records = run_grid(cfg, tweet_loader=counting_loader)
        assert len(records) == 6 and all(r.ok for r in records)
        assert calls == [(str(tweets_path), str(second))]

    def test_each_text_form_scored_once_per_grid(self, synthetic_inputs, monkeypatch):
        stock_path, tweets_path = synthetic_inputs
        scored = []
        real = sentiment.score_texts

        def recording(texts):
            scored.extend(texts)
            return real(texts)

        monkeypatch.setattr(sentiment, "score_texts", recording)
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)], lookbacks=[2, 3])
        records = run_grid(cfg)
        assert len(records) == 8 and all(r.ok for r in records)
        corpus = load_tweets(tweets_path)
        assert sorted(scored) == sorted(clean_tweets(corpus.raw_texts) + corpus.pos_texts)

    @pytest.mark.parametrize("variants, from_file, cleanings", [
        pytest.param(list(VARIANTS), False, 1, id="lexicon"),
        pytest.param(list(VARIANTS), True, 0, id="score-file"),
        pytest.param(["pos_prosus", "pos_yiyanghkust"], False, 0, id="pos-only"),
    ])
    def test_raw_texts_cleaned_once_for_the_lexicon(self, synthetic_inputs, tmp_path, monkeypatch,
                                                    variants, from_file, cleanings):
        """The lexicon cleans every raw text in one call that both cleaned
        variants share; scores from a file or POS variants alone clean nothing."""
        stock_path, tweets_path = synthetic_inputs
        corpus = load_tweets(tweets_path)
        scores_file = None
        if from_file:
            scores_file = str(tmp_path / "scores.csv")
            sentiment.write_scores_csv(sentiment.score_corpus(None, corpus), scores_file)
        calls = []
        real = sentiment.clean_tweets

        def recording(raws):
            calls.append(list(raws))
            return real(raws)

        monkeypatch.setattr(sentiment, "clean_tweets", recording)
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          scores_file=scores_file, variants=variants)
        records = run_grid(cfg)
        assert len(records) == len(variants) and all(r.ok for r in records)
        assert calls == [corpus.raw_texts] * cleanings

    def test_posless_corpus_fails_only_pos_cells(self, synthetic_inputs, tmp_path):
        stock_path, tweets_path = synthetic_inputs
        nopos = tmp_path / "nopos.jsonl"
        with open(tweets_path) as src, open(nopos, "w") as dst:
            for line in src:
                record = json.loads(line)
                del record["pos_text"]
                dst.write(json.dumps(record) + "\n")

        def grid(name, variants):
            out = tmp_path / name
            cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(nopos)],
                              variants=variants, lookbacks=[2, 3], output_dir=str(out))
            return run_grid(cfg), out

        records, all_out = grid("all", list(VARIANTS))
        failed = {(r.variant, r.failed_stage) for r in records if not r.ok}
        assert failed == {("pos_prosus", "score"), ("pos_yiyanghkust", "score")}
        assert sum(r.ok for r in records) == 4
        _, cleaned_out = grid("cleaned", ["cleaned_prosus", "cleaned_yiyanghkust"])
        cell_files = sorted(p.name for p in cleaned_out.iterdir() if not p.name.startswith("summary_"))
        assert len(cell_files) == 4 * 3
        for name in cell_files:
            assert (all_out / name).read_bytes() == (cleaned_out / name).read_bytes(), name

    def test_two_tweet_files_with_precomputed_scores(self, synthetic_inputs, tmp_path):
        stock_path, tweets_path = synthetic_inputs
        second = tmp_path / "more.jsonl"
        with open(tweets_path) as src, open(second, "w") as dst:
            for line in src:
                record = json.loads(line)
                record["id"] = f"more-{record['id']}"
                dst.write(json.dumps(record) + "\n")
        scores = tmp_path / "scores.csv"
        with open(scores, "w") as fh:
            fh.write("tweet_id,variant,p_pos,p_neg,p_neu\n")
            for path in (tweets_path, second):
                for tweet in load_tweets(path):  # keyed by the ids in their own files
                    fh.write(f"{tweet.id},cleaned_prosus,0.6,0.3,0.1\n")
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path), str(second)],
                          scores_file=str(scores), variants=["cleaned_prosus"], lookbacks=[2, 3])
        records = run_grid(cfg)
        assert len(records) == 2 and all(r.ok for r in records), [r.error for r in records]

    def test_scores_file_picks_the_scorer(self, synthetic_inputs, tmp_path):
        """A grid whose config names a score file builds each variant's master
        from those scores; without one, from the lexicon's."""
        stock_path, tweets_path = synthetic_inputs
        stock, corpus = load_stock_csv(stock_path), load_tweets(tweets_path)
        rng = np.random.default_rng(3)
        scores = tmp_path / "scores.csv"
        sentiment.write_scores_csv(sentiment.ScoreTable(corpus.ids, {
            variant: rng.dirichlet(np.ones(3), len(corpus)) for variant in VARIANTS}), scores)
        with_file = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                                scores_file=str(scores))
        without_file = dataclasses.replace(with_file, scores_file=None)
        hashes = {}
        for cfg, table in ((with_file, sentiment.load_precomputed_scores(scores, corpus)),
                           (without_file, sentiment.score_corpus(None, corpus))):
            masters = harness.build_masters(cfg, stock)
            for variant in VARIANTS:
                expected = harness.build_master(cfg, variant, stock, corpus, table)
                hashes[cfg.scores_file, variant] = harness.master_data_hash(masters[variant])
                assert hashes[cfg.scores_file, variant] == harness.master_data_hash(expected), variant
        assert all(hashes[str(scores), v] != hashes[None, v] for v in VARIANTS)

    def test_planted_variant_beats_noise_variants(self, tmp_path):
        """Four variants of one score file: pos_prosus's daily sentiment sets
        the next close, the other three are Dirichlet noise. Each cell trains
        on its own variant's master, and by the median over three grid seeds
        the planted variant's test RMSE beats every noise variant's, as
        acceptance test 6 asks of sentiment against none."""
        from datetime import date

        rng = np.random.default_rng(0)
        n_days, planted = 150, "pos_prosus"
        calendar = synth.trading_calendar(date(2020, 1, 1), n_days)
        # With memory_days=1 master row d holds day d-1's tweet, whose p_pos sets close[d+1].
        p_pos = rng.uniform(0.5, 1.0, n_days - 1)
        close = np.full(n_days, 100.0)
        close[2:] += 20.0 * (p_pos[:-1] - 0.75) + rng.normal(0.0, 0.5, n_days - 2)
        stock = MasterDataset(calendar, {"Open": close * 0.99, "High": close * 1.01, "Low": close * 0.98,
                                         "Close": close, "Volume": np.full(n_days, 1000.0)}, symbol="PLANT")
        write_stock_csv(stock, tmp_path / "stock.csv")
        texts = ["flat"] * (n_days - 1)
        write_tweets(TweetCorpus([str(i) for i in range(n_days - 1)],
                                 np.array([d.toordinal() for d in calendar[:-1]]), texts, texts),
                     tmp_path / "tweets.jsonl")
        scores = {variant: rng.dirichlet(np.ones(3), n_days - 1) for variant in VARIANTS}
        scores[planted] = np.stack([p_pos, np.zeros_like(p_pos), 1.0 - p_pos], axis=1)
        ids = load_tweets(tmp_path / "tweets.jsonl").ids
        sentiment.write_scores_csv(sentiment.ScoreTable(ids, {
            variant: rows[[int(i) for i in ids]] for variant, rows in scores.items()}), tmp_path / "scores.csv")

        cfg = fast_config(stock_file=str(tmp_path / "stock.csv"), tweet_files=[str(tmp_path / "tweets.jsonl")],
                          scores_file=str(tmp_path / "scores.csv"), memory_days=1, hidden_units=8, epochs=30,
                          patience=30, learning_rate=0.01, lookbacks=[5], metric_units="scaled")
        masters = harness.build_masters(cfg, load_stock_csv(tmp_path / "stock.csv"))
        assert len({harness.master_data_hash(m) for m in masters.values()}) == len(VARIANTS)
        rmse = {variant: [] for variant in VARIANTS}
        for seed in (0, 4, 8):  # each grid's four cells take seeds seed..seed+3
            grid = dataclasses.replace(cfg, seed=seed)
            records = run_grid(grid)
            assert [r.variant for r in records] == list(VARIANTS) and all(r.ok for r in records)
            for r in records:
                assert r.fingerprint == fingerprint(grid, r.variant, r.lookback, r.seed, masters[r.variant])
                rmse[r.variant].append(r.report.rmse)
        median = {variant: float(np.median(values)) for variant, values in rmse.items()}
        for variant in VARIANTS:
            if variant != planted:
                assert median[planted] <= 0.8 * median[variant], median

    def test_missing_scores_file_fails_every_cell(self, synthetic_inputs, tmp_path):
        """A named score file is read, so a grid whose config names a missing
        one fails every cell at stage score, with an error naming the file."""
        stock_path, tweets_path = synthetic_inputs
        missing = tmp_path / "missing.csv"
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          variants=["cleaned_prosus", "pos_prosus"], lookbacks=[2, 3],
                          scores_file=str(missing))
        records = run_grid(cfg)
        assert len(records) == 4
        assert all(r.failed_stage == "score" and str(missing) in r.error for r in records)

    def test_output_dir_made_before_any_cell_trains(self, synthetic_inputs, tmp_path, monkeypatch):
        """An output directory that cannot be made is a ConfigError naming it,
        raised before the first cell trains."""
        stock_path, tweets_path = synthetic_inputs
        out = tmp_path / "outfile"
        out.write_text("")
        cells = []
        real_run_master = harness.run_master

        def recording_run_master(master, cfg, variant, lookback, *args, **kwargs):
            cells.append((variant, lookback))
            return real_run_master(master, cfg, variant, lookback, *args, **kwargs)

        monkeypatch.setattr(harness, "run_master", recording_run_master)
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          variants=["cleaned_prosus"], lookbacks=[2, 3], output_dir=str(out))
        with pytest.raises(ConfigError, match=f"cannot create output directory {re.escape(str(out))}: "):
            run_grid(cfg)
        assert cells == []
        assert out.read_text() == ""

    def test_tweet_load_failure_fails_every_cell(self, synthetic_inputs, tmp_path):
        stock_path, _ = synthetic_inputs
        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tmp_path / "missing.jsonl")],
            variants=["cleaned_prosus", "pos_prosus"], lookbacks=[2, 3],
        )
        records = run_grid(cfg)
        assert len(records) == 4
        assert all(r.failed_stage == "load_tweets" for r in records)

    def test_each_result_file_written_once(self, synthetic_inputs, tmp_path, monkeypatch):
        import builtins

        stock_path, tweets_path = synthetic_inputs
        out = tmp_path / "grid_out"
        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tweets_path)],
            variants=["cleaned_prosus", "cleaned_yiyanghkust"], lookbacks=[2, 3],
            output_dir=str(out),
        )
        opened = []
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if any(flag in mode for flag in "wax+"):
                opened.append(str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        run_grid(cfg)
        monkeypatch.undo()
        assert len(opened) == len(set(opened)), sorted(opened)
        # 1 summary + 4 cells x (loss, pred, record)
        assert sorted(opened) == sorted(str(p) for p in out.iterdir())
        assert len(opened) == 13

    def test_interrupt_stops_grid(self, synthetic_inputs, monkeypatch):
        stock_path, _ = synthetic_inputs

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness.nn, "train", interrupted)
        cfg = fast_config(stock_file=str(stock_path), with_sentiment=False, lookbacks=[2, 3])
        with pytest.raises(KeyboardInterrupt):
            run_grid(cfg)

    def test_summary_has_failure_rows(self, tmp_path, synthetic_inputs):
        stock_path, _ = synthetic_inputs
        tweets_path = tmp_path / "nopos.jsonl"
        tweets_path.write_text(json.dumps({"date": "2020-01-02", "text": "x"}) + "\n")
        out = tmp_path / "grid_out"
        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tweets_path)],
            variants=["cleaned_prosus", "pos_prosus"], lookbacks=[3],
            output_dir=str(out),
        )
        run_grid(cfg)
        summary = (out / "summary_SYN.csv").read_text().splitlines()
        assert summary[0] == ",".join(harness.SUMMARY_COLUMNS)
        assert len(summary) == 3
        assert any("failed:score" in line for line in summary)


class TestFingerprint:
    # A changed value for every config field, in two groups: the fields that
    # scaling, splitting, training and evaluation read, which the fingerprint
    # hashes, and those that only load_stock, build_masters or run_grid read,
    # whose work the master's bytes and the cell's variant, lookback and seed
    # stand for.
    CELL_FIELDS = dict(split_ratio=0.7, fit_scope="full", hidden_units=5, epochs=4, batch_size=8,
                       validation_split=0.2, patience=6, learning_rate=2e-3, metric_units="scaled",
                       max_lag=7)
    MASTER_AND_GRID_FIELDS = dict(stock_file="elsewhere/SYN.csv", tweet_files=["t.jsonl"],
                                  scores_file="s.csv", variants=["pos_prosus"], memory_days=5,
                                  kernel_mode="literal", lookbacks=[7, 9], with_sentiment=False,
                                  output_dir="out", scrip="OTHER", seed=5)

    def test_every_config_field_is_in_one_group(self):
        """A new config field must be placed: hashed, or stood for by the master or the cell."""
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(names) == sorted([*self.CELL_FIELDS, *self.MASTER_AND_GRID_FIELDS])

    def test_stable_and_sensitive(self):
        cfg = fast_config()
        master = synth.sentiment_driven_master(n_days=60, seed=0)
        a = fingerprint(cfg, "cleaned_prosus", 3, 0, master)
        assert fingerprint(cfg, "cleaned_prosus", 3, 0, master) == a
        assert fingerprint(cfg, "cleaned_prosus", 3, 1, master) != a
        assert fingerprint(cfg, "cleaned_prosus", 4, 0, master) != a
        assert fingerprint(cfg, "pos_prosus", 3, 0, master) != a
        assert fingerprint(cfg, "cleaned_prosus", 3, 0, None) != a
        for name, value in self.CELL_FIELDS.items():
            assert fingerprint(fast_config(**{name: value}), "cleaned_prosus", 3, 0, master) != a, name
        # paths, the grid's lists and base seed, and what built the master
        # (a score file, memory_days, kernel_mode, scrip) are not the cell's
        # identity: an equal master is the same cell however it was made
        for name, value in self.MASTER_AND_GRID_FIELDS.items():
            assert fingerprint(fast_config(**{name: value}), "cleaned_prosus", 3, 0, master) == a, name

    def test_data_change_changes_fingerprint(self, synthetic_inputs):
        stock_path, _ = synthetic_inputs
        cfg = fast_config(stock_file=str(stock_path), with_sentiment=False)
        a = fingerprint(cfg, "none", 3, 0, load_stock_csv(stock_path))
        with open(stock_path, "a") as fh:
            fh.write("2021-12-31,1,2,0.5,1.5,10\n")
        assert fingerprint(cfg, "none", 3, 0, load_stock_csv(stock_path)) != a

    def test_grid_fingerprints_each_cell_by_its_master(self, synthetic_inputs, tmp_path):
        """Ok and failed cells alike: a cell whose master failed has master None.
        Random scores give each of the four variants its own master."""
        stock_path, tweets_path = synthetic_inputs
        corpus = load_tweets(tweets_path)
        rng = np.random.default_rng(3)
        scores = tmp_path / "scores.csv"
        sentiment.write_scores_csv(sentiment.ScoreTable(corpus.ids, {
            variant: rng.dirichlet(np.ones(3), len(corpus)) for variant in VARIANTS}), scores)
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)], scores_file=str(scores))
        masters = harness.build_masters(cfg, load_stock_csv(stock_path))
        records = run_grid(cfg)
        assert [r.variant for r in records] == list(VARIANTS) and all(r.ok for r in records)
        for r in records:
            assert r.fingerprint == fingerprint(cfg, r.variant, r.lookback, r.seed, masters[r.variant])
        assert len({harness.master_data_hash(m) for m in masters.values()}) == len(VARIANTS)

        nopos = tmp_path / "nopos.jsonl"
        nopos.write_text("".join(json.dumps({k: v for k, v in json.loads(line).items() if k != "pos_text"}) + "\n"
                                 for line in tweets_path.read_text().splitlines()))
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(nopos)],
                          variants=["cleaned_prosus", "pos_prosus"], lookbacks=[2, 3])
        masters = harness.build_masters(cfg, load_stock_csv(stock_path))
        records = run_grid(cfg)
        assert [r.ok for r in records] == [True, True, False, False]
        for r in records:
            master = masters[r.variant] if r.ok else None
            assert r.fingerprint == fingerprint(cfg, r.variant, r.lookback, r.seed, master)
        assert len({r.fingerprint for r in records}) == 4

    def test_score_file_of_lexicon_scores_gives_lexicon_bytes(self, synthetic_inputs, tmp_path):
        """A grid reading a score file that holds the lexicon's own scores
        writes the lexicon grid's files byte for byte, records included."""
        stock_path, tweets_path = synthetic_inputs
        scores = tmp_path / "scores.csv"
        sentiment.write_scores_csv(sentiment.score_corpus(None, load_tweets(tweets_path)), scores)
        lexicon = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)], lookbacks=[2, 3],
                              output_dir=str(tmp_path / "lexicon"))
        assert all(r.ok for r in run_grid(lexicon))
        assert all(r.ok for r in run_grid(dataclasses.replace(lexicon, scores_file=str(scores),
                                                              output_dir=str(tmp_path / "scored"))))
        lexicon_files = sorted(p.name for p in (tmp_path / "lexicon").iterdir())
        assert len(lexicon_files) == 1 + 3 * len(VARIANTS) * 2
        assert sorted(p.name for p in (tmp_path / "scored").iterdir()) == lexicon_files
        for name in lexicon_files:
            assert (tmp_path / "scored" / name).read_bytes() == (tmp_path / "lexicon" / name).read_bytes(), name

    def test_pinned_values(self):
        """The sha256 of the sorted JSON of the ten hashed fields, the cell and
        the master; a lexicon config and one naming a score file give one value
        for a failed master."""
        pinned = "85d600f722e241ceb76c532ca8e3be25bfe36d1ee162c804a95dcb37dbbd0d5b"
        assert fingerprint(fast_config(), "cleaned_prosus", 3, 0, None) == pinned
        assert fingerprint(fast_config(scores_file="s.csv"), "cleaned_prosus", 3, 0, None) == pinned

    def test_inline_master_fingerprint_follows_data(self):
        cfg = fast_config()  # no stock file: the master is the only data
        a = synth.sentiment_driven_master(n_days=60, seed=0)
        b = synth.sentiment_driven_master(n_days=60, seed=1)
        fp_a = run_master(a, cfg, "v", 3, seed=0, scrip="S").fingerprint
        assert run_master(a, cfg, "v", 3, seed=0, scrip="S").fingerprint == fp_a
        assert run_master(b, cfg, "v", 3, seed=0, scrip="S").fingerprint != fp_a


class TestEmitReport:
    def make_record(self, scrip="AAA", seed=0):
        master = synth.sentiment_driven_master(n_days=60, seed=seed)
        cfg = fast_config(lookbacks=[3])
        return run_master(master, cfg, "cleaned_prosus", 3, seed=seed, scrip=scrip)

    def test_single_record_three_files(self, tmp_path):
        record = self.make_record()
        written = emit_report([record], tmp_path / "report")
        assert len(written) == 3
        names = sorted(p.name for p in written)
        assert names == [
            "AAA_cleaned_prosus_w3_loss.csv",
            "AAA_cleaned_prosus_w3_pred.csv",
            "summary_AAA.csv",
        ]

    def test_two_scrips_partitioned(self, tmp_path):
        records = [self.make_record("AAA", 0), self.make_record("BBB", 1)]
        written = emit_report(records, tmp_path / "report")
        names = {p.name for p in written}
        assert "summary_AAA.csv" in names and "summary_BBB.csv" in names

    def test_prediction_rows_match_test_windows(self, tmp_path):
        record = self.make_record()
        emit_report([record], tmp_path / "report")
        pred_lines = (tmp_path / "report" / "AAA_cleaned_prosus_w3_pred.csv").read_text().splitlines()
        assert len(pred_lines) - 1 == record.report.n_samples

    def test_no_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^no records to report$"):
            emit_report([], tmp_path / "report")
        assert not (tmp_path / "report").exists()

    def test_loss_curve_columns(self, tmp_path):
        record = self.make_record()
        emit_report([record], tmp_path / "report")
        loss_lines = (tmp_path / "report" / "AAA_cleaned_prosus_w3_loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,train_loss,val_loss"
        assert len(loss_lines) - 1 == record.history.n_epochs


def handmade_records(scrip="AAA"):
    """An ok record, with a two-epoch history and values that need repr's
    shortest round-trip digits, and a record failed at train."""
    from datetime import date

    from sentistock.evalmetrics import EvalReport

    history = neuralnet.TrainingHistory(train_loss=[0.1 + 0.2, 1e-05], val_loss=[np.float64(2.5), 1e16])
    ok = harness.ExperimentRecord(
        scrip=scrip, variant="cleaned_prosus", lookback=3, seed=0, fingerprint="f",
        report=EvalReport(mae=0.1, rmse=1 / 3, r2=-0.25, val_score=0.75, time_offset=2, acc=0.5, n_samples=2),
        history=history, test_dates=[date(2020, 1, 2), date(2020, 1, 3)],
        actual=np.array([10.0, 1e-07]), predicted=np.array([9.75, 123456789.0]))
    failed = harness.ExperimentRecord(scrip=scrip, variant="pos_prosus", lookback=5, seed=1,
                                      fingerprint="g", error="boom", failed_stage="train")
    return ok, failed


class TestResultCsvBytes:
    """The result CSVs keep their format: comma-joined fields, each float's repr,
    LF line ends, and six empty metrics then failed:<stage> for a failed cell."""

    def test_loss_csv(self, tmp_path):
        ok, _ = handmade_records()
        path = harness.write_loss_csv(ok.history, tmp_path / "loss.csv")
        assert path.read_bytes() == b"epoch,train_loss,val_loss\n0,0.30000000000000004,2.5\n1,1e-05,1e+16\n"

    def test_pred_csv(self, tmp_path):
        ok, _ = handmade_records()
        path = harness.write_pred_csv(ok, tmp_path / "pred.csv")
        assert path.read_bytes() == (b"date,actual,predicted\n"
                                     b"2020-01-02,10.0,9.75\n2020-01-03,1e-07,123456789.0\n")

    def test_summary_csv(self, tmp_path):
        path = harness.write_summary_csv(list(handmade_records()), tmp_path / "summary.csv")
        assert path.read_bytes() == (
            b"scrip,variant,lookback,val_score,r2,rmse,mae,T,acc,units\n"
            b"AAA,cleaned_prosus,3,0.75,-0.25,0.3333333333333333,0.1,2,0.5,data\n"
            b"AAA,pos_prosus,5,,,,,,,failed:train\n"
        )

    def test_summary_scrip_with_comma(self, tmp_path):
        """A scrip such as BRK,B is one quoted field, so no column shifts."""
        path = harness.write_summary_csv(list(handmade_records("BRK,B")), tmp_path / "summary.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [
            {"scrip": "BRK,B", "variant": "cleaned_prosus", "lookback": "3", "val_score": "0.75", "r2": "-0.25",
             "rmse": "0.3333333333333333", "mae": "0.1", "T": "2", "acc": "0.5", "units": "data"},
            {"scrip": "BRK,B", "variant": "pos_prosus", "lookback": "5", "val_score": "", "r2": "", "rmse": "",
             "mae": "", "T": "", "acc": "", "units": "failed:train"},
        ]


class TestConfigFile:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "config_version": 1, "stock_file": "a.csv", "epochs": 7, "lookbacks": [4],
        }))
        cfg = load_config(path, overrides={"epochs": 9, "seed": 3})
        assert cfg.epochs == 9 and cfg.seed == 3
        assert cfg.stock_file == "a.csv" and cfg.lookbacks == [4]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_scorer_kind_key_rejected(self, tmp_path):
        """The score file alone picks the scorer; no key names it."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"config_version": 1, "scorer_kind": "precomputed", "scores_file": "s.csv"}))
        with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['scorer_kind']")):
            load_config(path)

    @pytest.mark.parametrize("content", [b'{"config_version": 1, "scrip": "A\xff"}', b'{"config_version": 1,'],
                             ids=["undecodable-byte", "bad-json"])
    def test_unreadable_file_names_itself(self, tmp_path, content):
        """A byte that is not UTF-8 is a ConfigError naming the file, as bad JSON is."""
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"cannot read config {re.escape(str(path))}: "):
            load_config(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"config_version": 99}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2], ids=["true", "float", "str", "two"])
    def test_version_must_be_the_integer_1(self, tmp_path, version):
        """true and 1.0 equal 1 in Python, but neither is the integer 1."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"config_version": version}))
        with pytest.raises(ConfigError, match=re.escape(f"unsupported config_version {version!r}")):
            load_config(path)

    @pytest.mark.parametrize("scrip", ["a/b", "a\0b", "/"], ids=["slash", "nul", "only-slash"])
    def test_scrip_that_cannot_name_a_file_rejected_before_any_work(self, synthetic_inputs, tmp_path,
                                                                   monkeypatch, scrip):
        """scrip names the result files, so a '/' or NUL byte in it is a
        ConfigError from the constructor: the grid stops before it builds a
        master or makes the output directory, not after training every cell."""
        stock_path, tweets_path = synthetic_inputs
        built, build_masters = [], harness.build_masters
        monkeypatch.setattr(harness, "build_masters", lambda *args: built.append(args) or build_masters(*args))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"scrip must hold no '/' or NUL byte, not {re.escape(repr(scrip))}"):
            run_grid(fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                                 lookbacks=[3], output_dir=str(out), scrip=scrip))
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("bad", [
        pytest.param({"split_ratio": 1.5}, id="split_ratio"),
        pytest.param({"lookbacks": []}, id="lookbacks-empty"),
        pytest.param({"lookbacks": [2.5]}, id="lookbacks-float"),
        pytest.param({"lookbacks": ["3"]}, id="lookbacks-str"),
        pytest.param({"lookbacks": [True]}, id="lookbacks-bool"),
        pytest.param({"lookbacks": [3, 3]}, id="lookbacks-repeated"),
        pytest.param({"variants": ["nope"]}, id="variants-unknown"),
        pytest.param({"variants": []}, id="variants-empty"),
        pytest.param({"variants": ["cleaned_prosus"] * 2}, id="variants-repeated"),
        pytest.param({"batch_size": 0}, id="batch_size"),
        pytest.param({"epochs": 0}, id="epochs"),
        pytest.param({"learning_rate": -1}, id="learning_rate"),
        pytest.param({"learning_rate": math.nan}, id="learning_rate-nan"),
        pytest.param({"learning_rate": math.inf}, id="learning_rate-inf"),
        pytest.param({"learning_rate": -math.inf}, id="learning_rate-neginf"),
        pytest.param({"validation_split": 1.0}, id="validation_split"),
        pytest.param({"patience": -1}, id="patience"),
        pytest.param({"hidden_units": 0}, id="hidden_units"),
        pytest.param({"fit_scope": "bogus"}, id="fit_scope"),
        pytest.param({"max_lag": -1}, id="max_lag"),
        pytest.param({"seed": -1}, id="seed-negative"),
        pytest.param({"memory_days": 0}, id="memory_days"),
        pytest.param({"kernel_mode": "x"}, id="kernel_mode"),
        pytest.param({"epochs": 2.5}, id="epochs-float"),
        pytest.param({"memory_days": 2.5}, id="memory_days-float"),
        pytest.param({"seed": 1.0}, id="seed-float"),
        pytest.param({"hidden_units": True}, id="hidden_units-bool"),
        pytest.param({"with_sentiment": "false"}, id="with_sentiment-str"),
        pytest.param({"tweet_files": "t.jsonl"}, id="tweet_files-str"),
        pytest.param({"tweet_files": ["t.jsonl", 3]}, id="tweet_files-item"),
        pytest.param({"split_ratio": "0.8"}, id="split_ratio-str"),
        pytest.param({"validation_split": False}, id="validation_split-bool"),
        pytest.param({"learning_rate": True}, id="learning_rate-bool"),
        pytest.param({"stock_file": 5}, id="stock_file-int"),
        pytest.param({"scores_file": 7}, id="scores_file-int"),
        pytest.param({"output_dir": 1}, id="output_dir-int"),
        pytest.param({"scrip": 3}, id="scrip-int"),
        pytest.param({"lookbacks": 5}, id="lookbacks-int"),
        pytest.param({"variants": 5}, id="variants-int"),
        pytest.param({"variants": "cleaned_prosus"}, id="variants-str"),
        pytest.param({"variants": [1]}, id="variants-item"),
        pytest.param({"fit_scope": ["train_only"]}, id="fit_scope-list"),
        pytest.param({"kernel_mode": 3}, id="kernel_mode-int"),
        pytest.param({"metric_units": None}, id="metric_units-none"),
    ])
    def test_invalid_values_rejected(self, bad):
        for with_sentiment in (True, False):
            with pytest.raises(ConfigError):
                ExperimentConfig(**{"with_sentiment": with_sentiment, **bad})

    def test_every_field_type_is_checked(self):
        """A field whose annotation the type table lacks would go unchecked, in
        any of the four config classes."""
        for config in (ExperimentConfig, neuralnet.ModelConfig, neuralnet.TrainConfig, MemoryKernel):
            for f in dataclasses.fields(config):
                assert f.type in errors._FIELD_TYPES, f"{config.__name__}.{f.name}"

    # Every rule a field of the four config classes declares in its metadata, with a value
    # that breaks it and the error check_fields raises: (config, field, key, rule, bad, message).
    DECLARED_RULES = [
        (ExperimentConfig, "variants", "choices", VARIANTS, ["pos_prosus", "bogus"],
         f"variants must be one of {VARIANTS}, not 'bogus'"),
        (ExperimentConfig, "variants", "distinct", True, ["pos_prosus", "pos_prosus"],
         "variants must hold distinct items, not ['pos_prosus', 'pos_prosus']"),
        (ExperimentConfig, "lookbacks", "least", 1, [5, 0], "lookbacks must be >= 1, not 0"),
        (ExperimentConfig, "lookbacks", "distinct", True, [5, 5], "lookbacks must hold distinct items, not [5, 5]"),
        (ExperimentConfig, "hidden_units", "least", 1, 0, "hidden_units must be >= 1, not 0"),
        (ExperimentConfig, "metric_units", "choices", ("data", "scaled"), "bogus",
         "metric_units must be one of ('data', 'scaled'), not 'bogus'"),
        (ExperimentConfig, "max_lag", "least", 0, -1, "max_lag must be >= 0, not -1"),
        (ExperimentConfig, "seed", "least", 0, -1, "seed must be >= 0, not -1"),
        (ExperimentConfig, "epochs", "least", 1, 0, "epochs must be >= 1, not 0"),
        (ExperimentConfig, "batch_size", "least", 1, 0, "batch_size must be >= 1, not 0"),
        (ExperimentConfig, "validation_split", "least", 0, -0.1,
         "validation_split must lie in [0, 0.5], not -0.1"),
        (ExperimentConfig, "validation_split", "most", 0.5, 0.7,
         "validation_split must lie in [0, 0.5], not 0.7"),
        (ExperimentConfig, "patience", "least", 0, -1, "patience must be >= 0, not -1"),
        (ExperimentConfig, "memory_days", "least", 1, 0, "memory_days must be >= 1, not 0"),
        (ExperimentConfig, "kernel_mode", "choices", ("recency", "literal"), "bogus",
         "kernel_mode must be one of ('recency', 'literal'), not 'bogus'"),
        (neuralnet.TrainConfig, "epochs", "least", 1, 0, "epochs must be >= 1, not 0"),
        (neuralnet.TrainConfig, "batch_size", "least", 1, 0, "batch_size must be >= 1, not 0"),
        (neuralnet.TrainConfig, "validation_split", "least", 0, -0.1,
         "validation_split must lie in [0, 0.5], not -0.1"),
        (neuralnet.TrainConfig, "validation_split", "most", 0.5, 0.7,
         "validation_split must lie in [0, 0.5], not 0.7"),
        (neuralnet.TrainConfig, "patience", "least", 0, -1, "patience must be >= 0, not -1"),
        (MemoryKernel, "memory_days", "least", 1, 0, "memory_days must be >= 1, not 0"),
        (MemoryKernel, "mode", "choices", ("recency", "literal"), "bogus",
         "mode must be one of ('recency', 'literal'), not 'bogus'"),
        (neuralnet.ModelConfig, "seed", "least", 0, -1, "seed must be >= 0, not -1"),
    ]

    @pytest.mark.parametrize("config, name, key, rule, bad, message", DECLARED_RULES,
                             ids=[f"{c.__name__}.{n}" + ("" if k == "least" else f"-{k}")
                                  for c, n, k, *_ in DECLARED_RULES])
    def test_declared_bound_enforced(self, config, name, key, rule, bad, message):
        """Every rule declared in a config field's metadata is exactly this list, and
        check_fields rejects a value that breaks it, naming the field and the value."""
        declared = {(c, f.name, k, v)
                    for c in (ExperimentConfig, neuralnet.TrainConfig, MemoryKernel, neuralnet.ModelConfig)
                    for f in dataclasses.fields(c) for k, v in f.metadata.items()}
        assert declared == {(c, n, k, v) for c, n, k, v, *_ in self.DECLARED_RULES}
        error = ConfigError if config is ExperimentConfig else ValueError
        with pytest.raises(error, match=re.escape(message) + "$") as caught:
            config(**{name: bad})
        assert type(caught.value) is error

    # Each ExperimentConfig field that borrows a stage config's field, and that field.
    BORROWED = {"memory_days": (MemoryKernel, "memory_days"), "kernel_mode": (MemoryKernel, "mode"),
                **{f.name: (neuralnet.TrainConfig, f.name) for f in dataclasses.fields(neuralnet.TrainConfig)},
                "seed": (neuralnet.ModelConfig, "seed")}

    @pytest.mark.parametrize("name", BORROWED)
    def test_borrowed_field_is_the_stage_field(self, name):
        """A stage field's default, rules and type are declared once, on the stage config:
        the config's field of that job has exactly them."""
        stage, stage_name = self.BORROWED[name]
        ours, theirs = ExperimentConfig.__dataclass_fields__[name], stage.__dataclass_fields__[stage_name]
        assert (ours.default, dict(ours.metadata), ours.type) == (theirs.default, dict(theirs.metadata), theirs.type)

    @pytest.mark.parametrize("bad, message", [
        ({"lookbacks": 5}, "lookbacks must be a list of integers, not 5"),
        ({"variants": "cleaned_prosus"}, "variants must be a list of strings, not 'cleaned_prosus'"),
    ], ids=["lookbacks", "variants"])
    def test_list_field_needs_a_list(self, tmp_path, bad, message):
        """A scalar where a list belongs is named by its field, from the
        constructor and from a config file alike."""
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**bad)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_int_accepted_for_float_fields(self):
        cfg = ExperimentConfig(learning_rate=1, validation_split=0, scrip="S")
        assert cfg.training.learning_rate == 1 and cfg.training.validation_split == 0


class TestRunMasterUnits:
    def test_scaled_and_data_units(self):
        master = synth.sentiment_driven_master(n_days=60, seed=3)
        cfg_scaled = fast_config(metric_units="scaled")
        cfg_data = fast_config(metric_units="data")
        r_scaled = run_master(master, cfg_scaled, "v", 3, seed=0, scrip="S")
        r_data = run_master(master, cfg_data, "v", 3, seed=0, scrip="S")
        assert r_scaled.report.units == "scaled"
        assert r_data.report.units == "data"
        # scale factor between the two unit systems is the close-price range
        span = master.columns["Close"][:48].max() - master.columns["Close"][:48].min()
        assert r_data.report.rmse == pytest.approx(r_scaled.report.rmse * span, rel=1e-9)


@pytest.mark.parametrize("split_ratio, n_train", [(0.8, 34), (0.7, 30)])
@pytest.mark.parametrize("fit_scope", ["train_only", "full"])
def test_prepare_cell_fits_scalers_on_its_scope(split_ratio, n_train, fit_scope):
    """The master's largest Close lies in the test rows. Under train_only the
    scalers hold the bounds of exactly the first floor(r * 43) rows, so scaled
    test prices pass 1; under full they hold the bounds of all 43 rows."""
    master = make_master(100 + np.arange(43.0))
    cell = harness.prepare_cell(master, fast_config(split_ratio=split_ratio, fit_scope=fit_scope))
    n_fit = n_train if fit_scope == "train_only" else 43
    assert (cell.train.n_rows, cell.test.n_rows) == (n_train, 43 - n_train)
    for name, values in master.columns.items():
        scaler = cell.scalers[name]
        assert (scaler.vmin, scaler.vmax) == (values[:n_fit].min(), values[:n_fit].max())
    assert (cell.test.columns["Close"].max() > 1) == (fit_scope == "train_only")


class TestEvaluateModel:
    @staticmethod
    def cell_and_windows(batch_size):
        # 500 days leave 100 test rows, so 80 test windows at w=20
        cfg = fast_config(hidden_units=8, lookbacks=[20], batch_size=batch_size)
        cell = harness.prepare_cell(synth.sentiment_driven_master(n_days=500, seed=4), cfg)
        windows = harness.window(cell.test, 20)
        model = neuralnet.init_model(neuralnet.ModelConfig(
            hidden_units=8, input_shape=windows.X.shape[1:], seed=5))
        return cfg, cell, windows, model

    def test_arena_stays_batch_sized(self):
        cfg, cell, windows, model = self.cell_and_windows(32)
        assert len(windows) > 64
        harness.evaluate_model(model, cell, windows, cfg)
        batch = neuralnet.BiLstmModel(model.config, model.params)
        neuralnet.forward(batch, windows.X[:32])
        held, bound = (sum(b.nbytes for b in m._arena._buffers.values()) for m in (model, batch))
        assert 0 < held <= bound, f"{held} > {bound} bytes"

    @pytest.mark.parametrize("batch_size", [8, 16, 32, 64])
    def test_predictions_equal_one_pass(self, batch_size):
        """Test windows are predicted in chunks of the batch size, which keeps every
        prediction's bytes for these multiples of 8. With numpy's OpenBLAS, a batch
        size that is not a multiple of 8 (such as 7 or 50) can move the last bit, as
        it already could for validation losses."""
        cfg, cell, windows, model = self.cell_and_windows(batch_size)
        evaluation = harness.evaluate_model(model, cell, windows, cfg)
        one_pass = neuralnet.predict(model, windows.X, chunk_size=len(windows))
        expected = inverse_transform(cell.scalers, harness.TARGET_COLUMN, one_pass)
        assert evaluation.predicted.tobytes() == expected.tobytes()
