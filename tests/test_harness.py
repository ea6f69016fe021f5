import json
import logging

import numpy as np
import pytest

from sentistock import harness, neuralnet, sentiment, synth
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
from sentistock.ingest import load_tweets, write_stock_csv
from sentistock.mapping import MasterDataset
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
    with open(tweets_path, "w") as fh:
        for tweet in corpus:
            fh.write(json.dumps({
                "id": tweet.id, "date": tweet.date.isoformat(),
                "text": tweet.raw_text, "pos_text": tweet.pos_tagged_text,
            }) + "\n")
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
        master = harness.build_master(cfg, "none", stock, None, None)
        assert len(master.columns) == 5  # stock columns only
        [record] = run_grid(cfg)
        assert record.ok and record.variant == "none"
        report = record.report
        for value in (report.mae, report.rmse, report.r2, report.acc):
            assert np.isfinite(value)

    def test_with_sentiment_adds_three_channels(self, synthetic_inputs):
        stock_path, tweets_path = synthetic_inputs
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          variants=["cleaned_prosus"])
        from sentistock.ingest import load_stock_csv

        corpus = harness.load_corpus(cfg)
        master = harness.build_master(cfg, "cleaned_prosus", load_stock_csv(stock_path),
                                      corpus, harness.score(cfg, corpus))
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

    def test_failures_isolated(self, tmp_path, synthetic_inputs):
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
        records = run_grid(cfg)
        ok = [r for r in records if r.ok]
        failed = [r for r in records if not r.ok]
        assert len(ok) == 2 and len(failed) == 2
        assert all(r.variant == "pos_prosus" for r in failed)
        assert all(r.failed_stage == "score" for r in failed)

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

        def counting_loader(path):
            calls.append(path)
            return load_tweets(path)

        cfg = fast_config(
            stock_file=str(stock_path), tweet_files=[str(tweets_path), str(second)],
            variants=["cleaned_prosus", "cleaned_yiyanghkust", "pos_prosus"], lookbacks=[2, 3],
        )
        records = run_grid(cfg, tweet_loader=counting_loader)
        assert len(records) == 6 and all(r.ok for r in records)
        assert calls == [str(tweets_path), str(second)]

    def test_each_text_form_scored_once_per_grid(self, synthetic_inputs, monkeypatch):
        stock_path, tweets_path = synthetic_inputs
        scored = []
        real = sentiment.score_texts

        def recording(config, texts):
            scored.extend(texts)
            return real(config, texts)

        monkeypatch.setattr(sentiment, "score_texts", recording)
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)], lookbacks=[2, 3])
        records = run_grid(cfg)
        assert len(records) == 8 and all(r.ok for r in records)
        corpus = load_tweets(tweets_path)
        assert sorted(scored) == sorted([t.cleaned_text for t in corpus]
                                        + [t.pos_tagged_text for t in corpus])

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
            got, want = (all_out / name).read_bytes(), (cleaned_out / name).read_bytes()
            if name.endswith("_record.json"):
                # the fingerprint hashes the configured variant list, which differs
                got, want = json.loads(got), json.loads(want)
                del got["fingerprint"], want["fingerprint"]
            assert got == want, name

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
                          scorer_kind="precomputed", scores_file=str(scores),
                          variants=["cleaned_prosus"], lookbacks=[2, 3])
        records = run_grid(cfg)
        assert len(records) == 2 and all(r.ok for r in records), [r.error for r in records]

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
    def test_stable_and_sensitive(self, synthetic_inputs):
        stock_path, tweets_path = synthetic_inputs
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)])
        a = fingerprint(cfg, "cleaned_prosus", 3, 0)
        b = fingerprint(cfg, "cleaned_prosus", 3, 0)
        assert a == b
        assert fingerprint(cfg, "cleaned_prosus", 3, 1) != a
        assert fingerprint(cfg, "cleaned_prosus", 4, 0) != a
        cfg2 = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)], epochs=4)
        assert fingerprint(cfg2, "cleaned_prosus", 3, 0) != a

    def test_data_change_changes_fingerprint(self, synthetic_inputs):
        stock_path, tweets_path = synthetic_inputs
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)])
        a = fingerprint(cfg, "cleaned_prosus", 3, 0)
        with open(stock_path, "a") as fh:
            fh.write("2021-12-31,1,2,0.5,1.5,10\n")
        assert fingerprint(cfg, "cleaned_prosus", 3, 0) != a

    def test_input_files_hashed_once_per_grid(self, synthetic_inputs, monkeypatch):
        stock_path, tweets_path = synthetic_inputs
        hashed = []
        real = harness._hash_file

        def recording(path):
            hashed.append(str(path))
            return real(path)

        monkeypatch.setattr(harness, "_hash_file", recording)
        cfg = fast_config(stock_file=str(stock_path), tweet_files=[str(tweets_path)],
                          variants=["cleaned_prosus", "pos_prosus"], lookbacks=[2, 3])
        records = run_grid(cfg)
        assert sorted(hashed) == sorted([str(stock_path), str(tweets_path)])
        monkeypatch.undo()
        assert len(records) == 4
        for r in records:
            assert r.fingerprint == fingerprint(cfg, r.variant, r.lookback, r.seed)

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

    def test_loss_curve_columns(self, tmp_path):
        record = self.make_record()
        emit_report([record], tmp_path / "report")
        loss_lines = (tmp_path / "report" / "AAA_cleaned_prosus_w3_loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,train_loss,val_loss"
        assert len(loss_lines) - 1 == record.history.n_epochs


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

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"config_version": 99}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("bad", [
        pytest.param({"split_ratio": 1.5}, id="split_ratio"),
        pytest.param({"lookbacks": []}, id="lookbacks-empty"),
        pytest.param({"lookbacks": [2.5]}, id="lookbacks-float"),
        pytest.param({"lookbacks": ["3"]}, id="lookbacks-str"),
        pytest.param({"lookbacks": [True]}, id="lookbacks-bool"),
        pytest.param({"lookbacks": [3, 3]}, id="lookbacks-repeated"),
        pytest.param({"variants": ["nope"]}, id="variants-unknown"),
        pytest.param({"variants": ["cleaned_prosus"] * 2}, id="variants-repeated"),
        pytest.param({"batch_size": 0}, id="batch_size"),
        pytest.param({"epochs": 0}, id="epochs"),
        pytest.param({"learning_rate": -1}, id="learning_rate"),
        pytest.param({"validation_split": 1.0}, id="validation_split"),
        pytest.param({"patience": -1}, id="patience"),
        pytest.param({"hidden_units": 0}, id="hidden_units"),
        pytest.param({"fit_scope": "bogus"}, id="fit_scope"),
        pytest.param({"max_lag": -1}, id="max_lag"),
        pytest.param({"memory_days": 0}, id="memory_days"),
        pytest.param({"kernel_mode": "x"}, id="kernel_mode"),
        pytest.param({"scorer_kind": "x"}, id="scorer_kind"),
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
    ])
    def test_invalid_values_rejected(self, bad):
        for with_sentiment in (True, False):
            with pytest.raises(ConfigError):
                ExperimentConfig(**{"with_sentiment": with_sentiment, **bad})

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
        one_pass = neuralnet.predict(model, windows, chunk_size=len(windows))
        expected = inverse_transform(cell.scalers, cell.test.target_column, one_pass)
        assert evaluation.predicted.tobytes() == expected.tobytes()
