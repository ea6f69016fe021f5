import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sentistock
from sentistock import synth
from sentistock.cli import main
from sentistock.ingest import write_stock_csv


@pytest.fixture
def workspace(tmp_path):
    stock = synth.random_walk_stock(n_days=70, seed=4, symbol="DEMO")
    stock_path = tmp_path / "DEMO.csv"
    write_stock_csv(stock, stock_path)

    corpus = synth.random_tweets(stock.calendar, per_day=1.0, seed=5)
    tweets_path = tmp_path / "tweets.jsonl"
    with open(tweets_path, "w") as fh:
        for tweet in corpus:
            fh.write(json.dumps({
                "id": tweet.id, "date": tweet.date.isoformat(),
                "text": tweet.raw_text, "pos_text": tweet.pos_tagged_text,
            }) + "\n")
    return tmp_path, stock_path, tweets_path


def test_clean_subcommand(workspace):
    tmp_path, _, tweets_path = workspace
    out = tmp_path / "cleaned.jsonl"
    assert main(["clean", "--tweets", str(tweets_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert record["text"] == record["text"].lower()


def test_score_subcommand(workspace):
    tmp_path, _, tweets_path = workspace
    out = tmp_path / "scores.csv"
    code = main(["score", "--tweets", str(tweets_path), "--out", str(out),
                 "--variants", "cleaned_prosus,pos_prosus"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tweet_id,variant,p_pos,p_neg,p_neu"
    assert len(lines) > 1


def test_map_subcommand(workspace):
    tmp_path, stock_path, tweets_path = workspace
    out = tmp_path / "master.csv"
    code = main(["map", "--stock", str(stock_path), "--tweets", str(tweets_path),
                 "--variant", "cleaned_prosus", "--memory-days", "5", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "Date,Open,High,Low,Close,Volume,sent_pos,sent_neg,sent_neu"


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


def test_stage_commands_match_grid_cell(workspace):
    """map -> train -> evaluate writes the files of the same grid cell."""
    tmp_path, stock_path, tweets_path = workspace
    master = tmp_path / "master.csv"
    model = tmp_path / "model.npz"
    history = tmp_path / "history.csv"
    report = tmp_path / "report.csv"
    pred = tmp_path / "pred.csv"
    assert main(["map", "--stock", str(stock_path), "--tweets", str(tweets_path),
                 "--variant", "cleaned_prosus", "--out", str(master)]) == 0
    assert main(["train", "--master", str(master), "--lookback", "3", "--hidden-units", "4",
                 "--epochs", "3", "--seed", "7", "--model-out", str(model),
                 "--history-out", str(history)]) == 0
    assert main(["evaluate", "--model", str(model), "--master", str(master),
                 "--out", str(report), "--pred-out", str(pred)]) == 0

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "config_version": 1, "stock_file": str(stock_path), "tweet_files": [str(tweets_path)],
        "variants": ["cleaned_prosus"], "lookbacks": [3], "hidden_units": 4, "epochs": 3,
        "seed": 7, "output_dir": str(tmp_path / "out"),
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
    """Stage flags are checked by the config, so a bad value names its field."""
    tmp_path, stock_path, tweets_path = workspace
    master = tmp_path / "master.csv"
    assert main(["map", "--stock", str(stock_path), "--tweets", str(tweets_path),
                 "--mode", "bogus", "--out", str(master)]) == 2
    assert "kernel mode" in capsys.readouterr().err
    assert not master.exists()
    assert main(["train", "--master", str(master), "--lookback", "3", "--fit-scope", "bogus",
                 "--model-out", str(tmp_path / "model.npz")]) == 2
    assert "fit_scope" in capsys.readouterr().err


def test_malformed_csv_exit_code(workspace, capsys):
    """A score CSV without a variant column and an empty master CSV stop
    their commands with exit 2 before any output is written."""
    tmp_path, _, tweets_path = workspace
    scores = tmp_path / "scores.csv"
    scores.write_text("tweet_id,p_pos,p_neg,p_neu\n0,1,0,0\n")
    out = tmp_path / "out.csv"
    assert main(["score", "--tweets", str(tweets_path), "--scorer", "precomputed",
                 "--scores-file", str(scores), "--out", str(out)]) == 2
    assert f"no variant column in {scores}" in capsys.readouterr().err
    assert not out.exists()
    master = tmp_path / "master.csv"
    master.write_text("")
    model = tmp_path / "model.npz"
    assert main(["train", "--master", str(master), "--lookback", "3", "--model-out", str(model)]) == 2
    assert "Date" in capsys.readouterr().err
    assert not model.exists()


def test_missing_input_exit_code(tmp_path):
    assert main(["clean", "--tweets", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "o.jsonl")]) == 2
