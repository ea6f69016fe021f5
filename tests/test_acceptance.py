"""End-to-end verification suite.

Each test covers one release criterion, prints one PASS/FAIL line, and
enforces its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete.
"""

import itertools
import math
import time
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest

from test_mapping import daily_series, oracle_memory_map
from sentistock import synth
from sentistock.dataset import ColumnScaler, make_windows
from sentistock.errors import InsufficientRowsError
from sentistock.evalmetrics import best_time_offset, mae, rmse
from sentistock.harness import ExperimentConfig, run_grid, run_master
from sentistock.ingest import write_stock_csv
from sentistock.mapping import MasterDataset, MemoryKernel, memory_weighted_map, stock_only_master
from sentistock.neuralnet import ModelConfig, forward, init_model, loss_and_gradients


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"{name}: {elapsed:.1f}s over {budget_seconds}s budget"
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)", flush=True)


def test_1_gradient_correctness():
    with criterion("1 gradient-correctness", 30):
        combos = list(itertools.product((2, 4), (3, 5), (1, 3)))
        step = 1e-5
        for instance in range(20):
            hidden, w, feat = combos[instance % len(combos)]
            cfg = ModelConfig(hidden_units=hidden, input_shape=(w, feat), seed=1000 + instance)
            model = init_model(cfg)
            rng = np.random.default_rng(2000 + instance)
            X = rng.uniform(0, 1, (2, w, feat))
            y = rng.uniform(0, 1, 2)
            _, grads = loss_and_gradients(model, X, y)
            for key, param in model.params.items():
                flat = param.ravel()
                grad_flat = grads[key].ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = float(np.mean((forward(model, X) - y) ** 2))
                    flat[idx] = orig - step
                    down = float(np.mean((forward(model, X) - y) ** 2))
                    flat[idx] = orig
                    numeric = (up - down) / (2 * step)
                    rel = abs(grad_flat[idx] - numeric) / max(abs(grad_flat[idx]), abs(numeric), 1e-5)
                    assert rel < 1e-4, (
                        f"instance {instance} {key}[{idx}]: analytic {grad_flat[idx]:.3e} "
                        f"vs numeric {numeric:.3e} (rel {rel:.2e})"
                    )


def test_2_mapping_oracle_equivalence():
    with criterion("2 mapping-oracle-equivalence", 5):
        rng = np.random.default_rng(7)
        memory_choices = (1, 5, 30)
        for case in range(100):
            n = int(rng.integers(2, 301))
            memory_days = memory_choices[case % 3]
            raw = rng.uniform(0, 1, n)
            for mode in ("recency", "literal"):
                mapped = memory_weighted_map(daily_series(raw), MemoryKernel(memory_days, mode))
                expected = oracle_memory_map(raw, memory_days, mode)
                np.testing.assert_allclose(mapped.positive, expected, atol=1e-12, rtol=0)


def test_3_scaling_round_trip():
    with criterion("3 scaling-round-trip", 1):
        rng = np.random.default_rng(11)
        for case in range(1000):
            n = int(rng.integers(1, 40))
            if case % 10 == 0:
                values = np.full(n, float(rng.uniform(-50, 50)))  # degenerate column
            else:
                values = rng.uniform(-1000, 1000, n)
            scaler = ColumnScaler(column="x", vmin=float(values.min()), vmax=float(values.max()))
            back = scaler.inverse(scaler.transform(values))
            if scaler.degenerate:
                np.testing.assert_array_equal(back, scaler.vmin)
            else:
                np.testing.assert_allclose(back, values, atol=1e-9)


def test_4_windowing_exactness():
    with criterion("4 windowing-exactness", 1):
        from conftest import make_master

        for n in range(2, 51):
            master = make_master(np.arange(n, dtype=float) + 1.0)
            close_index = master.column_names.index("Close")
            for w in range(1, n):
                windows = make_windows(master, w)
                assert len(windows) == n - w
                for k in range(len(windows)):
                    last_row_value = windows.X[k][-1, close_index]
                    # Close encodes the row index (value = index + 1)
                    assert windows.y[k] == last_row_value + 1.0
            with pytest.raises(InsufficientRowsError):
                make_windows(master, n)


def test_5_overfit_sine():
    with criterion("5 overfit-sine", 60):
        stock = synth.sine_stock(200, seed=0)
        master = stock_only_master(stock)
        cfg = ExperimentConfig(
            hidden_units=16,
            epochs=500,
            lookbacks=[10],
            metric_units="scaled",
            with_sentiment=False,
            seed=0,
        )
        record = run_master(master, cfg, "none", 10, seed=0, scrip="SINE")
        assert record.report.rmse < 0.05, f"scaled test RMSE {record.report.rmse:.4f}"


def test_6_planted_signal_benefit():
    with criterion("6 planted-signal-benefit", 300):
        with_rmse, without_rmse = [], []
        for seed in range(5):
            master = synth.sentiment_driven_master(
                n_days=400, signal_strength=0.8, noise_sigma=0.02, seed=seed
            )
            plain = MasterDataset(
                calendar=master.calendar,
                columns={k: v for k, v in master.columns.items() if not k.startswith("sent_")},
            )
            cfg = ExperimentConfig(
                hidden_units=16, epochs=150, patience=15, lookbacks=[5],
                metric_units="scaled", seed=seed,
            )
            with_rmse.append(run_master(master, cfg, "planted", 5, seed=seed, scrip="S").report.rmse)
            without_rmse.append(run_master(plain, cfg, "none", 5, seed=seed, scrip="S").report.rmse)
        with_median = float(np.median(with_rmse))
        without_median = float(np.median(without_rmse))
        assert with_median <= 0.8 * without_median, (
            f"median with-sentiment RMSE {with_median:.4f} vs "
            f"0.8 x without {0.8 * without_median:.4f}"
        )


def test_7_time_offset_recovery():
    with criterion("7 time-offset-recovery", 1):
        rng = np.random.default_rng(3)
        base = rng.normal(0, 1, 120)
        n = 100
        for k in range(10):
            pred = base[:n]
            actual = base[k : k + n]  # prediction trails actual by exactly k days
            lag, acc = best_time_offset(pred, actual, max_lag=9)
            assert lag == k, f"planted shift {k} recovered as {lag}"
            assert acc == 1.0


def test_8_metric_cross_check():
    with criterion("8 metric-cross-check", 10):
        from test_evalmetrics import FIXTURES
        from sentistock.evalmetrics import compute_metrics, directional_accuracy

        for pred, actual, e_mae, e_rmse, e_r2, e_acc in FIXTURES:
            got_mae, got_rmse, got_r2 = compute_metrics(pred, actual)
            assert abs(got_mae - e_mae) <= 1e-12
            assert abs(got_rmse - e_rmse) <= 1e-12
            assert abs(got_r2 - e_r2) <= 1e-12
            assert abs(directional_accuracy(pred, actual) - e_acc) <= 1e-12
        rng = np.random.default_rng(19)
        for _ in range(10_000):
            n = int(rng.integers(1, 30))
            a = rng.normal(0, 5, n)
            b = rng.normal(0, 5, n)
            assert rmse(a, b) >= mae(a, b) - 1e-12


def test_9_grid_determinism(tmp_path, monkeypatch):
    with criterion("9 grid-determinism", 120):
        stock = synth.random_walk_stock(n_days=120, seed=6, symbol="DET")
        stock_path = tmp_path / "DET.csv"
        write_stock_csv(stock, stock_path)

        def run_once(run_dir):
            # The same relative output_dir from two working directories, so
            # the paths recorded in the JSON records are identical too.
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            cfg = ExperimentConfig(
                stock_file=str(stock_path),
                with_sentiment=False,
                lookbacks=[3, 5],
                hidden_units=4,
                epochs=4,
                output_dir="out",
                seed=42,
            )
            run_grid(cfg)
            return {p.name: p.read_bytes() for p in sorted((run_dir / "out").iterdir())}

        first = run_once(tmp_path / "run1")
        second = run_once(tmp_path / "run2")
        assert len(first) == 1 + 2 * 3  # summary + (loss, pred, record) per cell
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between identical runs"
