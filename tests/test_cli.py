import csv
import json

import pytest

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


def test_config_error_exit_code(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"nonsense_key": True}))
    assert main(["grid", "--config", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_exit_code(tmp_path):
    assert main(["clean", "--tweets", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "o.jsonl")]) == 2
