import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import sentistock
from sentistock import cli, harness, neuralnet as nn, synth
from sentistock.cli import build_parser, main
from sentistock.ingest import clean_tweets, write_stock_csv, write_tweets


@pytest.fixture
def workspace(tmp_path):
    stock = synth.random_walk_stock(n_days=70, seed=4, symbol="DEMO")
    stock_path = tmp_path / "DEMO.csv"
    write_stock_csv(stock, stock_path)

    corpus = synth.random_tweets(stock.calendar, per_day=1.0, seed=5)
    tweets_path = tmp_path / "tweets.jsonl"
    write_tweets(corpus, tweets_path)
    return tmp_path, stock_path, tweets_path


def test_clean_subcommand(workspace):
    """clean writes each input record in date order with its text cleaned,
    in json.dumps' bytes; a record without pos_text gets none."""
    tmp_path, _, tweets_path = workspace
    tweets = tmp_path / "mixed.jsonl"
    tweets.write_text(tweets_path.read_text() + json.dumps(
        {"id": "x", "date": "2020-01-06", "text": 'Say "HI" \\ caf\u00e9 #Up @who'}) + "\n")
    out = tmp_path / "cleaned.jsonl"
    assert main(["clean", "--tweets", str(tweets), "--out", str(out)]) == 0
    records = sorted(map(json.loads, tweets.read_text().splitlines()), key=lambda r: r["date"])
    want = "".join(json.dumps({**r, "text": clean_tweets([r["text"]])[0]}) + "\n" for r in records)
    assert out.read_text() == want


def test_score_subcommand(workspace):
    tmp_path, _, tweets_path = workspace
    out = tmp_path / "scores.csv"
    code = main(["score", "--tweets", str(tweets_path), "--out", str(out),
                 "--variants", "cleaned_prosus,pos_prosus"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tweet_id,variant,p_pos,p_neg,p_neu"
    assert len(lines) > 1


def test_score_reads_named_scores_file(workspace):
    """score --scores passes a score file's rows through in place of the lexicon's."""
    tmp_path, _, tweets_path = workspace
    scores = tmp_path / "scores.csv"
    rows = [f"{tweet_id},{variant},0.5,0.25,0.25" for tweet_id in sentistock.load_tweets(tweets_path).ids
            for variant in ("cleaned_prosus", "pos_prosus")]
    scores.write_text("\n".join(["tweet_id,variant,p_pos,p_neg,p_neu", *rows]) + "\n")
    out = tmp_path / "out.csv"
    assert main(["score", "--tweets", str(tweets_path), "--scores", str(scores), "--out", str(out),
                 "--variants", "cleaned_prosus,pos_prosus"]) == 0
    assert out.read_text().splitlines() == scores.read_text().splitlines()


@pytest.mark.parametrize("variants, message", [
    ("", "variants must name at least one variant"),
    ("bogus", "variants must be one of ('cleaned_prosus', 'cleaned_yiyanghkust', 'pos_prosus', "
              "'pos_yiyanghkust'), not 'bogus'"),
    ("cleaned_prosus,cleaned_prosus", "variants must hold distinct items, not ['cleaned_prosus', 'cleaned_prosus']"),
], ids=["empty", "unknown", "repeated"])
def test_score_bad_variants_exit_code(workspace, capsys, monkeypatch, variants, message):
    """score checks --variants as the config does: a bad list exits 2 before
    any tweet is read, and leaves neither output nor the directory made for it."""
    tmp_path, _, tweets_path = workspace
    monkeypatch.setattr(cli, "load_tweets", lambda *paths: pytest.fail("tweets were read"))
    out = tmp_path / "new" / "scores.csv"
    assert main(["score", "--tweets", str(tweets_path), "--out", str(out), "--variants", variants]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "new").exists()


def test_map_subcommand(workspace):
    tmp_path, stock_path, tweets_path = workspace
    out = tmp_path / "master.csv"
    code = main(["map", "--stock", str(stock_path), "--tweets", str(tweets_path),
                 "--variant", "cleaned_prosus", "--memory-days", "5", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "Date,Open,High,Low,Close,Volume,sent_pos,sent_neg,sent_neu"


def test_map_variant_without_text_exit_code(workspace, capsys):
    """A tweet file without pos_text cannot be mapped for a pos_ variant."""
    tmp_path, stock_path, _ = workspace
    nopos = tmp_path / "nopos.jsonl"
    nopos.write_text(json.dumps({"date": "2020-01-02", "text": "x"}) + "\n")
    out = tmp_path / "new" / "master.csv"
    assert main(["map", "--stock", str(stock_path), "--tweets", str(nopos),
                 "--variant", "pos_prosus", "--out", str(out)]) == 2
    assert ("stage 'score' failed: tweet '0' has no text for variant 'pos_prosus'"
            in capsys.readouterr().err)
    assert not (tmp_path / "new").exists()


def test_train_and_evaluate_subcommands(workspace):
    tmp_path, stock_path, tweets_path = workspace
    master = tmp_path / "master.csv"
    assert main(["map", "--stock", str(stock_path), "--tweets", str(tweets_path),
                 "--out", str(master)]) == 0
    model = tmp_path / "model.npz"
    history = tmp_path / "history.csv"
    code = main(["train", "--master", str(master), "--lookback", "3",
                 "--hidden-units", "4", "--epochs", "2", "--model-out", str(model),
                 "--history-out", str(history)])
    assert code == 0
    assert model.exists()
    assert history.read_text().splitlines()[0] == "epoch,train_loss,val_loss"

    report = tmp_path / "report.csv"
    pred = tmp_path / "pred.csv"
    code = main(["evaluate", "--model", str(model), "--master", str(master),
                 "--out", str(report), "--pred-out", str(pred)])
    assert code == 0
    assert report.read_text().splitlines()[0].startswith("scrip,variant,lookback")
    pred_lines = pred.read_text().splitlines()
    assert pred_lines[0] == "date,actual,predicted"
    _, actual, predicted = pred_lines[1].split(",")
    float(actual), float(predicted)  # plain decimal numbers, no repr wrappers


def test_model_out_is_the_exact_path_written(workspace):
    """A --model-out without the .npz suffix is the file written, and evaluate reads it."""
    tmp_path, stock_path, _ = workspace
    model = tmp_path / "plain.model"
    assert main(["train", "--master", str(stock_path), "--lookback", "3", "--hidden-units", "4",
                 "--epochs", "1", "--model-out", str(model)]) == 0
    assert model.exists() and not (tmp_path / "plain.model.npz").exists()
    assert main(["evaluate", "--model", str(model), "--master", str(stock_path),
                 "--out", str(tmp_path / "report.csv")]) == 0


def _meta(**changes):
    """The __meta__ save_model writes for the model below, as train records it,
    with ``changes`` (None drops a key)."""
    model = nn.init_model(nn.ModelConfig(hidden_units=4, input_shape=(3, 9)))
    model.trained_on = {"split_ratio": 0.8, "fit_scope": "train_only", "columns": [f"c{i}" for i in range(9)]}
    with tempfile.TemporaryDirectory() as tmp:
        nn.save_model(model, Path(tmp) / "model.npz")
        with np.load(Path(tmp) / "model.npz") as data:
            meta = {**json.loads(str(data["__meta__"])), **changes}
    return np.array(json.dumps({k: v for k, v in meta.items() if v is not None}))


def test_train_makes_model_out_directory(workspace):
    """An output path's missing directories are made, as grid makes its --out-dir."""
    tmp_path, stock_path, _ = workspace
    model = tmp_path / "newdir" / "sub" / "model.npz"
    assert main(["train", "--master", str(stock_path), "--lookback", "3", "--hidden-units", "4",
                 "--epochs", "1", "--model-out", str(model)]) == 0
    assert nn.load_model(model).config.input_shape == (3, 5)


def test_failed_train_removes_only_the_directories_it_made(workspace, capsys):
    """On exit 2 the empty directories this call made go, deepest first;
    one that existed before stays, empty or not."""
    tmp_path, stock_path, _ = workspace
    missing = str(tmp_path / "missing.csv")
    assert main(["train", "--master", missing, "--lookback", "3",
                 "--model-out", str(tmp_path / "new" / "sub" / "m.npz")]) == 2
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    (tmp_path / "old" / "empty").mkdir(parents=True)
    assert main(["train", "--master", missing, "--lookback", "3",
                 "--model-out", str(tmp_path / "old" / "empty" / "m.npz"),
                 "--history-out", str(tmp_path / "old" / "made" / "deeper" / "h.csv")]) == 2
    assert sorted(p.name for p in (tmp_path / "old").iterdir()) == ["empty"]
    assert main(["train", "--master", missing, "--lookback", "3",
                 "--model-out", str(tmp_path / "m.npz")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["DEMO.csv", "old", "tweets.jsonl"]


def test_failed_train_keeps_a_made_directory_that_holds_a_file(workspace, monkeypatch):
    tmp_path, stock_path, _ = workspace

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "write_loss_csv", fail)
    model = tmp_path / "new" / "m.npz"
    assert main(["train", "--master", str(stock_path), "--lookback", "3", "--hidden-units", "4",
                 "--epochs", "1", "--model-out", str(model),
                 "--history-out", str(tmp_path / "new" / "sub" / "h.csv")]) == 2
    assert model.exists() and not (tmp_path / "new" / "sub").exists()


def test_train_output_parent_that_is_a_file_exit_code(workspace, capsys, monkeypatch):
    """An output directory that cannot be made stops train before it trains."""
    tmp_path, stock_path, _ = workspace
    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.setattr(harness, "train_model", lambda *a: pytest.fail("trained"))
    assert main(["train", "--master", str(stock_path), "--lookback", "3",
                 "--model-out", str(afile / "model.npz")]) == 2
    out, err = capsys.readouterr()
    assert "trained" not in out and str(afile) in err
    assert afile.read_text() == ""


@pytest.mark.parametrize("change,message", [
    ({"l2_bwd_b": None}, "lacks l2_bwd_b"),
    ({"extra": np.zeros(3)}, "has unexpected extra"),
    ({"l1_fwd_Wh": np.zeros((5, 16))}, "l1_fwd_Wh has shape (5, 16), expected (4, 16)"),
    ({"head_b": np.array([np.nan])}, "head_b holds non-finite"),
    ({"__meta__": None}, "has no __meta__"),
    ({"__meta__": np.array("[1]")}, "__meta__ is not a JSON object"),
    ({"__meta__": np.array("{1}")}, "__meta__ is not JSON"),
    ({"__meta__": _meta(format_version=None)}, "unsupported model format None"),
    ({"__meta__": _meta(hidden_units="4")}, "hidden_units must be an integer, not '4'"),
    ({"__meta__": _meta(hidden_units=4.0)}, "hidden_units must be an integer, not 4.0"),
    ({"__meta__": _meta(hidden_units=True)}, "hidden_units must be an integer, not True"),
    ({"__meta__": _meta(seed="x")}, "seed must be an integer, not 'x'"),
    ({"__meta__": _meta(seed=-1)}, "seed must be >= 0, not -1"),
    ({"__meta__": _meta(input_shape=[5])}, "input_shape must be a pair of integers, not (5,)"),
    ({"__meta__": _meta(split_ratio=1.5)}, "split_ratio must be a float in (0, 1), not 1.5"),
    ({"__meta__": _meta(fit_scope="bogus")}, "fit_scope must be one of ('train_only', 'full'), not 'bogus'"),
    ({"__meta__": _meta(columns=["Close"])}, "columns must be 9 distinct strings, not ['Close']"),
    ({"__meta__": _meta(columns=["Close"] * 9)}, "columns must be 9 distinct strings, not ['Close', "),
    ({"__meta__": _meta(format_version=1, split_ratio=None, fit_scope=None, columns=None)},
     "records no training split"),
])
def test_evaluate_rejects_bad_model_file(tmp_path, capsys, change, message):
    """A bad model file stops evaluate at load time, before it reads the master CSV."""
    model = tmp_path / "model.npz"
    nn.save_model(nn.init_model(nn.ModelConfig(hidden_units=4, input_shape=(3, 9))), model)
    with np.load(model) as data:
        arrays = {**{k: data[k] for k in data.files}, **change}
    np.savez(model, **{k: v for k, v in arrays.items() if v is not None})
    code = main(["evaluate", "--model", str(model), "--master", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "report.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"model file {model}" in err and message in err and "absent.csv" not in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("split", [{}, {"split_ratio": 0.7, "fit_scope": "full"}],
                         ids=["default_split", "split_0.7_full"])
def test_stage_commands_match_grid_cell(workspace, split):
    """map -> train -> evaluate writes the files of the same grid cell; evaluate
    takes the split and the fit scope from the model file."""
    tmp_path, stock_path, tweets_path = workspace
    master = tmp_path / "master.csv"
    model = tmp_path / "model.npz"
    history = tmp_path / "history.csv"
    report = tmp_path / "report.csv"
    pred = tmp_path / "pred.csv"
    assert main(["map", "--stock", str(stock_path), "--tweets", str(tweets_path),
                 "--variant", "cleaned_prosus", "--out", str(master)]) == 0
    split_flags = [arg for key, value in split.items() for arg in ("--" + key.replace("_", "-"), str(value))]
    assert main(["train", "--master", str(master), "--lookback", "3", "--hidden-units", "4",
                 "--epochs", "3", "--seed", "7", "--model-out", str(model),
                 "--history-out", str(history), *split_flags]) == 0
    assert main(["evaluate", "--model", str(model), "--master", str(master),
                 "--out", str(report), "--pred-out", str(pred)]) == 0

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "stock_file": str(stock_path), "tweet_files": [str(tweets_path)],
        "variants": ["cleaned_prosus"], "lookbacks": [3], "hidden_units": 4, "epochs": 3,
        "seed": 7, "output_dir": str(tmp_path / "out"), **split,
    }))
    assert main(["grid", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert history.read_bytes() == (out / "DEMO_cleaned_prosus_w3_loss.csv").read_bytes()
    assert pred.read_bytes() == (out / "DEMO_cleaned_prosus_w3_pred.csv").read_bytes()
    with open(report, newline="") as fh:
        cli_row = next(csv.DictReader(fh))
    with open(out / "summary_DEMO.csv", newline="") as fh:
        grid_row = next(csv.DictReader(fh))
    for column in ("r2", "rmse", "mae", "T", "acc", "units"):
        assert cli_row[column] == grid_row[column], column
    assert cli_row["val_score"] == "" and grid_row["val_score"] != ""


@pytest.fixture
def trained_on_200_days(tmp_path):
    """A 200-day synthetic master and a train call on it: train(*flags) returns the model path."""
    master = tmp_path / "master.csv"
    write_stock_csv(synth.sentiment_driven_master(200, seed=0), master)

    def train(*flags):
        model = tmp_path / "model.npz"
        assert main(["train", "--master", str(master), "--lookback", "5", "--hidden-units", "4",
                     "--epochs", "3", "--model-out", str(model), *flags]) == 0
        return model
    return master, train


@pytest.mark.parametrize("flags, n_train", [((), 160), (("--split-ratio", "0.6"), 120)])
def test_evaluate_scores_only_windows_after_the_training_split(trained_on_200_days, flags, n_train):
    """evaluate predicts exactly the windows that end after the first floor(split_ratio * N)
    rows that train fitted on, and has no flag that moves that split."""
    master, train = trained_on_200_days
    model, pred = train(*flags), master.parent / "pred.csv"
    assert main(["evaluate", "--model", str(model), "--master", str(master),
                 "--out", str(master.parent / "report.csv"), "--pred-out", str(pred)]) == 0
    dates = [line.split(",")[0] for line in pred.read_text().splitlines()[1:]]
    calendar = [d.isoformat() for d in synth.sentiment_driven_master(200, seed=0).calendar]
    assert dates == calendar[n_train + 5:] and len(dates) == 200 - n_train - 5
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", str(model), "--master", str(master), "--split-ratio", "0.5",
              "--out", str(master.parent / "report.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("header", ["Date,O,H,L,Close,V", "Date,High,Open,Low,Close,Volume"],
                         ids=["renamed", "swapped"])
def test_evaluate_rejects_a_master_with_other_columns(trained_on_200_days, capsys, header):
    """A master whose column names or order differ from the model's exits 2 naming both lists."""
    master, train = trained_on_200_days
    model = train()
    lines = master.read_text().splitlines(keepends=True)
    other = master.parent / "other.csv"
    other.write_text(lines[0].replace("Date,Open,High,Low,Close,Volume", header) + "".join(lines[1:]))
    assert main(["evaluate", "--model", str(model), "--master", str(other),
                 "--out", str(master.parent / "report.csv")]) == 2
    err = capsys.readouterr().err
    trained = ["Open", "High", "Low", "Close", "Volume", "sent_pos", "sent_neg", "sent_neu"]
    assert str(trained) in err and str(header.split(",")[1:] + trained[5:]) in err
    assert not (master.parent / "report.csv").exists()


def test_grid_subcommand_and_exit_codes(workspace):
    tmp_path, stock_path, tweets_path = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1,
        "stock_file": str(stock_path),
        "tweet_files": [str(tweets_path)],
        "variants": ["cleaned_prosus"],
        "lookbacks": [3],
        "hidden_units": 4,
        "epochs": 2,
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["grid", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "summary_DEMO.csv").exists()


def summary_cells(out_dir):
    with open(out_dir / "summary_DEMO.csv", newline="") as fh:
        return [(row["scrip"], row["variant"], row["lookback"]) for row in csv.DictReader(fh)]


def test_grid_override_flags(workspace):
    """Each grid flag overrides its config field: the run writes the files of a
    run whose config file holds the flags' values."""
    tmp_path, stock_path, tweets_path = workspace
    lines = tweets_path.read_text().splitlines(keepends=True)
    part_a, part_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    part_a.write_text("".join(lines[::2]))
    part_b.write_text("".join(lines[1::2]))
    base = {"config_version": 1, "variants": ["cleaned_prosus"], "hidden_units": 4}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **base, "stock_file": str(tmp_path / "missing.csv"), "tweet_files": [str(tmp_path / "missing.jsonl")],
        "lookbacks": [4], "seed": 0, "epochs": 5, "output_dir": str(tmp_path / "unused"),
    }))
    flagged = tmp_path / "flagged"
    assert main(["grid", "--config", str(config), "--stock", str(stock_path),
                 "--tweets", f"{part_a},{part_b}", "--lookbacks", "3,5", "--seed", "9",
                 "--epochs", "2", "--out-dir", str(flagged)]) == 0
    assert not (tmp_path / "unused").exists()
    assert summary_cells(flagged) == [("DEMO", "cleaned_prosus", "3"), ("DEMO", "cleaned_prosus", "5")]
    record = json.loads((flagged / "DEMO_cleaned_prosus_w5_record.json").read_text())
    assert record["seed"] == 10 and record["history"]["n_epochs"] == 2

    expected = tmp_path / "expected"
    config.write_text(json.dumps({
        **base, "stock_file": str(stock_path), "tweet_files": [str(part_a), str(part_b)],
        "lookbacks": [3, 5], "seed": 9, "epochs": 2, "output_dir": str(expected),
    }))
    assert main(["grid", "--config", str(config)]) == 0
    names = sorted(path.name for path in flagged.iterdir())
    assert names == sorted(path.name for path in expected.iterdir())
    for name in names:
        assert (flagged / name).read_bytes() == (expected / name).read_bytes(), name


def test_grid_without_sentiment_flag(workspace):
    tmp_path, stock_path, tweets_path = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "stock_file": str(stock_path), "tweet_files": [str(tweets_path)],
        "variants": ["cleaned_prosus", "pos_prosus"], "lookbacks": [3], "hidden_units": 4, "epochs": 1,
    }))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--without-sentiment", "--out-dir", str(out)]) == 0
    assert summary_cells(out) == [("DEMO", "none", "3")]


def test_grid_malformed_lookbacks_exit_code(workspace):
    """Run as ``python -m sentistock``: argparse rejects the flag before any output."""
    tmp_path, stock_path, tweets_path = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "stock_file": str(stock_path), "tweet_files": [str(tweets_path)],
    }))
    out = tmp_path / "out"
    src = str(Path(sentistock.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "sentistock", "grid", "--config", str(config), "--lookbacks", "3,x",
         "--out-dir", str(out)], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 2
    assert "argument --lookbacks" in proc.stderr
    assert not out.exists()


def test_grid_every_lookback_skipped_exit_code(workspace, capsys):
    """70 days leave 14 test rows: lookback 7 is skipped, and a grid without a cell is an error."""
    tmp_path, stock_path, tweets_path = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "stock_file": str(stock_path), "tweet_files": [str(tweets_path)],
        "lookbacks": [7], "hidden_units": 4, "epochs": 1,
    }))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out-dir", str(out)]) == 2
    assert "no lookback in [7]" in capsys.readouterr().err
    assert not out.exists()


def test_grid_without_tweet_files_exit_code(workspace, capsys):
    """Sentiment on and no tweet file is a bad config, not a failure of every cell."""
    tmp_path, stock_path, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "stock_file": str(stock_path), "tweet_files": [],
        "lookbacks": [3], "hidden_units": 4, "epochs": 1,
    }))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out-dir", str(out)]) == 2
    assert "requires at least one tweet file" in capsys.readouterr().err
    assert not out.exists()


def test_grid_without_stock_file_exit_code(workspace, capsys):
    """A config that names no stock file is a bad config, reported before any input is read."""
    tmp_path, _, tweets_path = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "tweet_files": [str(tweets_path)], "lookbacks": [3], "hidden_units": 4, "epochs": 1,
    }))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: stock_file is required\n"
    assert not out.exists()


def test_grid_output_dir_that_is_a_file_exit_code(workspace, capsys):
    """An output directory that cannot be made stops the grid before any cell trains."""
    tmp_path, stock_path, tweets_path = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "stock_file": str(stock_path), "tweet_files": [str(tweets_path)],
        "variants": ["cleaned_prosus"], "lookbacks": [3], "hidden_units": 4, "epochs": 1,
    }))
    out = tmp_path / "outfile"
    out.write_text("")
    assert main(["grid", "--config", str(config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot create output directory {out}" in err and "grid finished" not in err
    assert out.read_text() == ""


def test_grid_failure_exit_code(workspace, tmp_path):
    _, stock_path, _ = workspace
    bad_tweets = tmp_path / "nopos.jsonl"
    bad_tweets.write_text(json.dumps({"date": "2020-01-02", "text": "x"}) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1,
        "stock_file": str(stock_path),
        "tweet_files": [str(bad_tweets)],
        "variants": ["pos_prosus"],
        "lookbacks": [3],
        "hidden_units": 4,
        "epochs": 2,
    }))
    assert main(["grid", "--config", str(config)]) == 1


def test_config_error_exit_code(workspace, capsys):
    tmp_path, stock_path, tweets_path = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"nonsense_key": True}))
    assert main(["grid", "--config", str(config)]) == 2
    assert "error:" in capsys.readouterr().err
    config.write_text(json.dumps([1, 2]))
    assert main(["grid", "--config", str(config)]) == 2
    assert "error:" in capsys.readouterr().err
    # a bad value stops the grid before any input is read or output written
    out = tmp_path / "out"
    config.write_text(json.dumps({
        "config_version": 1, "stock_file": str(stock_path), "tweet_files": [str(tweets_path)],
        "lookbacks": [3], "batch_size": 0, "output_dir": str(out),
    }))
    assert main(["grid", "--config", str(config)]) == 2
    assert "batch_size" in capsys.readouterr().err
    assert not out.exists()


def test_stage_flag_bad_value_exit_code(workspace, capsys):
    """Stage flags are checked by the config, so a bad value names the config field it sets."""
    tmp_path, stock_path, tweets_path = workspace
    master = tmp_path / "master.csv"
    assert main(["map", "--stock", str(stock_path), "--tweets", str(tweets_path),
                 "--mode", "bogus", "--out", str(master)]) == 2
    assert "kernel_mode must be one of ('recency', 'literal'), not 'bogus'" in capsys.readouterr().err
    assert not master.exists()
    assert main(["train", "--master", str(master), "--lookback", "3", "--fit-scope", "bogus",
                 "--model-out", str(tmp_path / "model.npz")]) == 2
    assert "fit_scope" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "neginf"])
def test_non_finite_learning_rate_exit_code(workspace, capsys, value):
    """json reads NaN and Infinity, and the flag reads nan: a learning rate
    that is not finite stops grid and train before any output exists."""
    tmp_path, stock_path, _ = workspace
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"config_version": 1, "stock_file": str(stock_path), "with_sentiment": False,
                                  "lookbacks": [3], "output_dir": str(out), "learning_rate": value}))
    assert main(["grid", "--config", str(config)]) == 2
    assert "learning_rate must be finite" in capsys.readouterr().err
    assert not out.exists()
    model = tmp_path / "model.npz"
    assert main(["train", "--master", str(stock_path), "--lookback", "3", "--epochs", "1",
                 f"--learning-rate={value}", "--model-out", str(model)]) == 2
    assert "learning_rate must be finite" in capsys.readouterr().err
    assert not model.exists()


def test_malformed_csv_exit_code(workspace, capsys):
    """A score CSV without a variant column and an empty master CSV stop
    their commands with exit 2 before any output is written."""
    tmp_path, _, tweets_path = workspace
    scores = tmp_path / "scores.csv"
    scores.write_text("tweet_id,p_pos,p_neg,p_neu\n0,1,0,0\n")
    out = tmp_path / "out.csv"
    assert main(["score", "--tweets", str(tweets_path), "--scores", str(scores), "--out", str(out)]) == 2
    assert f"no variant column in {scores}" in capsys.readouterr().err
    assert not out.exists()
    master = tmp_path / "master.csv"
    master.write_text("")
    model = tmp_path / "model.npz"
    assert main(["train", "--master", str(master), "--lookback", "3", "--model-out", str(model)]) == 2
    assert "Date" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("command", ["score", "map", "train", "evaluate", "grid"])
def test_config_flags_parse_to_field_types(command):
    """Every flag that sets a config field parses its value into the type
    that the field's annotation declares."""
    samples = {"int": ("5", 5), "float": ("0.7", 0.7), "str": ("x", "x"), "str | None": ("x", "x"),
               "list[int]": ("5,20", [5, 20]), "list[str]": ("a,b", ["a", "b"]), "bool": (None, None)}
    fields = harness.ExperimentConfig.__dataclass_fields__
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = subcommands.choices[command]
    required = [arg for a in parser._actions if a.required for arg in (a.option_strings[0], "1")]
    checked = []
    for action in parser._actions:
        if action.dest not in fields:
            continue
        annotation = fields[action.dest].type
        text, want = samples[annotation]
        flag = action.option_strings[0]
        args = parser.parse_args(required + ([flag] if text is None else [flag, text]))
        value = getattr(args, action.dest)
        types, _ = sentistock.errors._FIELD_TYPES[annotation]
        assert all(type(v) in types for v in (value if annotation.startswith("list[") else [value])), flag
        assert want is None or value == want, flag
        checked.append(flag)
    assert checked


def test_non_utf8_locale_reads_and_writes_utf8(tmp_path):
    """Under an ASCII locale, clean and score read a UTF-8 tweet file, and its
    raw texts survive write_tweets then load_tweets."""
    texts = ["\u092c\u093e\u091c\u093c\u093e\u0930 growth \U0001f680", "\u0917\u093f\u0930\u093e\u0935\u091f crash"]
    tweets = tmp_path / "hindi.jsonl"
    tweets.write_text("".join(json.dumps({"id": str(i), "date": f"2020-01-0{i + 2}", "text": text,
                                          "pos_text": text}, ensure_ascii=False) + "\n"
                              for i, text in enumerate(texts)), encoding="utf-8")
    src = str(Path(sentistock.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path)

    probe = run("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert probe.stdout.strip().lower() not in ("utf-8", "utf8")
    for command in (["clean", "--out", "clean.jsonl"], ["score", "--out", "scores.csv"]):
        proc = run("-m", "sentistock", command[0], "--tweets", str(tweets), *command[1:])
        assert proc.returncode == 0, proc.stderr
    round_trip = run("-c", "import json, sys; from sentistock.ingest import load_tweets, write_tweets; "
                     "write_tweets(load_tweets(sys.argv[1]), 'again.jsonl'); "
                     "print(json.dumps(load_tweets('again.jsonl').raw_texts))", str(tweets))
    assert round_trip.returncode == 0, round_trip.stderr
    assert json.loads(round_trip.stdout) == texts


def test_missing_input_exit_code(tmp_path):
    assert main(["clean", "--tweets", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "o.jsonl")]) == 2


def test_grid_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Run as ``python -m sentistock``, which sets one BLAS thread before numpy
    loads: a grid writes the same bytes with OPENBLAS_NUM_THREADS unset (every
    CPU, without the pin) and set to 1.

    A BLAS that splits a reduction over threads rounds it differently. Without
    the pin, two threads give other gradients at (w, B, H, F) = (20, 23, 50, 8)
    and so other loss, prediction and summary files. The 198 training windows
    end in a ragged batch of 14. On a one-CPU runner BLAS runs one thread
    either way, so there this test checks nothing.
    """
    stock = synth.random_walk_stock(300, seed=3, symbol="DET")
    write_stock_csv(stock, tmp_path / "DET.csv")
    write_tweets(synth.random_tweets(stock.calendar, per_day=2, seed=5), tmp_path / "t.jsonl")
    config = {"config_version": 1, "stock_file": "DET.csv", "tweet_files": ["t.jsonl"],
              "variants": ["cleaned_prosus"], "lookbacks": [20], "hidden_units": 50,
              "batch_size": 23, "epochs": 1}
    (tmp_path / "config.json").write_text(json.dumps(config))
    n_windows = int(0.8 * 300) - 20
    assert (n_windows - int(np.ceil(0.1 * n_windows))) % 23 == 14
    src = str(Path(sentistock.__file__).parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for name, threads in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        subprocess.run([sys.executable, "-m", "sentistock", "grid", "--config", "config.json",
                        "--out-dir", name], env={**base, **threads}, cwd=tmp_path, check=True,
                       capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert len(outputs[0]) == 4  # summary, loss, prediction and record files
    assert outputs[0] == outputs[1]
