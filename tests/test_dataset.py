import json
import re

import numpy as np
import pytest

from conftest import make_master
from sentistock import neuralnet
from sentistock.harness import ExperimentConfig
from sentistock.dataset import (
    ColumnScaler,
    chronological_split,
    fit_scalers,
    inverse_transform,
    make_windows,
    transform,
)
from sentistock.errors import (
    ConfigError,
    DegenerateDatasetError,
    InsufficientRowsError,
    UnknownColumnError,
)


class TestFitScalers:
    def test_train_only_bounds(self):
        master = make_master([10, 20, 30, 40, 50])
        scalers = fit_scalers(chronological_split(master, 0.8)[0])
        assert scalers["Close"].vmin == 10 and scalers["Close"].vmax == 40

    def test_full_bounds(self):
        master = make_master([10, 20, 30, 40, 50])
        scalers = fit_scalers(master)
        assert scalers["Close"].vmin == 10 and scalers["Close"].vmax == 50

    def test_single_row_degenerate_scaler(self):
        master = make_master([42])
        scalers = fit_scalers(master)
        assert scalers["Close"].degenerate

    def test_zero_fit_rows(self):
        master = make_master([42, 43])
        with pytest.raises(DegenerateDatasetError):
            fit_scalers(chronological_split(master, 0.4)[0])  # floor(0.4 * 2) == 0


class TestTransform:
    def scaler(self):
        return ColumnScaler(column="Close", vmin=10.0, vmax=40.0)

    def test_max_maps_to_one(self):
        assert self.scaler().transform(np.array([40.0]))[0] == 1.0

    def test_min_maps_to_zero(self):
        assert self.scaler().transform(np.array([10.0]))[0] == 0.0

    def test_out_of_range_not_clipped(self):
        assert self.scaler().transform(np.array([50.0]))[0] == pytest.approx(4 / 3)

    def test_degenerate_maps_to_zero(self):
        scaler = ColumnScaler(column="x", vmin=5.0, vmax=5.0)
        np.testing.assert_array_equal(scaler.transform(np.array([1.0, 5.0, 9.0])), 0.0)

    def test_unknown_column(self):
        master = make_master([10, 20, 30])
        scalers = fit_scalers(master)
        with pytest.raises(UnknownColumnError):
            scalers["Nope"]

    def test_train_columns_in_unit_interval(self):
        rng = np.random.default_rng(2)
        master = make_master(50 + np.cumsum(rng.uniform(-1, 1, 40)))
        scalers = fit_scalers(chronological_split(master, 0.8)[0])
        scaled = transform(scalers, master)
        n_train = 32
        for values in scaled.columns.values():
            assert values[:n_train].min() >= -1e-12
            assert values[:n_train].max() <= 1 + 1e-12

    def test_full_scope_bounds_every_row(self):
        rng = np.random.default_rng(3)
        master = make_master(50 + np.cumsum(rng.uniform(-1, 1, 40)))
        scaled = transform(fit_scalers(master), master)
        for values in scaled.columns.values():
            assert values.min() >= -1e-12 and values.max() <= 1 + 1e-12


class TestInverseTransform:
    def test_formula(self):
        scaler = ColumnScaler(column="x", vmin=100.0, vmax=200.0)
        assert scaler.inverse(np.array([0.5]))[0] == 150.0

    def test_degenerate_returns_min(self):
        scaler = ColumnScaler(column="x", vmin=7.0, vmax=7.0)
        np.testing.assert_array_equal(scaler.inverse(np.array([0.0, 0.5, 2.0])), 7.0)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        master = make_master(rng.uniform(10, 500, 30))
        scalers = fit_scalers(master)
        scaled = transform(scalers, master)
        for name in master.columns:
            back = inverse_transform(scalers, name, scaled.columns[name])
            np.testing.assert_allclose(back, master.columns[name], atol=1e-9)


class TestChronologicalSplit:
    def test_floor_arithmetic(self):
        train, test = chronological_split(make_master(np.arange(10) + 1.0), 0.8)
        assert train.n_rows == 8 and test.n_rows == 2

    def test_floor_of_half(self):
        train, test = chronological_split(make_master(np.arange(5) + 1.0), 0.5)
        assert train.n_rows == 2 and test.n_rows == 3

    def test_single_row_degenerate(self):
        with pytest.raises(DegenerateDatasetError):
            chronological_split(make_master([1.0]), 0.8)

    def test_partition_exact_and_ordered(self):
        close = np.arange(13) + 1.0
        train, test = chronological_split(make_master(close), 0.62)
        rejoined = np.concatenate([train.columns["Close"], test.columns["Close"]])
        np.testing.assert_array_equal(rejoined, close)
        assert train.n_rows == int(np.floor(0.62 * 13))
        assert train.calendar + test.calendar == make_master(close).calendar


def _load_model_with_meta(path, **changes):
    """load_model on a saved model whose __meta__ is rewritten with ``changes``."""
    model = neuralnet.init_model(neuralnet.ModelConfig(hidden_units=2, input_shape=(3, 1), seed=0))
    neuralnet.save_model(model, path)
    with np.load(path) as data:
        meta = json.loads(str(data["__meta__"]))
        params = {k: data[k] for k in data.files if k != "__meta__"}
    np.savez(path, __meta__=np.array(json.dumps({**meta, **changes})), **params)
    return neuralnet.load_model(path)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda tmp: chronological_split(make_master(np.arange(5.0)), "0.8"), ValueError,
                 "split_ratio must be a float in (0, 1), not '0.8'", id="split-str"),
    pytest.param(lambda tmp: chronological_split(make_master(np.arange(5.0)), None), ValueError,
                 "split_ratio must be a float in (0, 1), not None", id="split-none"),
    pytest.param(lambda tmp: ExperimentConfig(split_ratio=1.5), ConfigError,
                 "split_ratio must be a float in (0, 1), not 1.5", id="config-ratio"),
    pytest.param(lambda tmp: ExperimentConfig(fit_scope="bogus"), ConfigError,
                 "fit_scope must be one of ('train_only', 'full'), not 'bogus'", id="config-scope"),
    pytest.param(lambda tmp: _load_model_with_meta(tmp / "model.npz", split_ratio=None), ValueError,
                 "split_ratio must be a float in (0, 1), not None", id="model-file"),
])
def test_one_split_rule_wording(tmp_path, call, error, message):
    """Every entry point that takes a split ratio or scaling scope raises the one
    check's message, not a TypeError from comparing a str or None."""
    with pytest.raises(error, match=re.escape(message) + "$"):
        call(tmp_path)


class TestMakeWindows:
    def test_count_and_alignment(self):
        master = make_master(np.arange(10, dtype=float) + 1.0)
        windows = make_windows(master, 3)
        assert len(windows) == 7
        close_index = list(master.columns).index("Close")
        # sample 0 covers rows 0..2 and targets row 3
        np.testing.assert_array_equal(windows.X[0][:, close_index], [1.0, 2.0, 3.0])
        assert windows.y[0] == 4.0

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRowsError):
            make_windows(make_master(np.arange(4) + 1.0), 4)
        with pytest.raises(ValueError, match=re.escape("lookback must be >= 1, not 0") + "$"):
            make_windows(make_master(np.arange(4) + 1.0), 0)

    def test_constant_target(self):
        master = make_master(np.full(8, 0.5))
        windows = make_windows(master, 3)
        np.testing.assert_array_equal(windows.y, 0.5)

    def test_no_leakage_no_gap(self):
        master = make_master(np.arange(20, dtype=float) + 1.0)
        close_index = list(master.columns).index("Close")
        for w in (1, 4, 7):
            windows = make_windows(master, w)
            for k in range(len(windows)):
                last_row_close = windows.X[k][-1, close_index]
                assert windows.y[k] == last_row_close + 1.0

    def test_view_matches_stacked_copies(self):
        # X is a read-only strided view; its values, shape and nbytes (which the
        # benchmark reports as the windowed size) are those of stacked copies.
        rng = np.random.default_rng(11)
        cases = [(int(rng.integers(2, 60)), None, int(rng.integers(0, 4))) for _ in range(30)]
        cases += [(n, n - 1, extra) for n, extra in ((2, 0), (9, 3), (61, 1))]
        for n, w, extra in cases:
            w = int(rng.integers(1, n)) if w is None else w
            master = make_master(rng.normal(size=n),
                                 {f"x{j}": rng.normal(size=n) for j in range(extra)})
            windows = make_windows(master, w)
            features = master.feature_matrix()
            expected = np.stack([features[k : k + w] for k in range(n - w)])
            assert windows.X.shape == expected.shape == (n - w, w, 5 + extra)
            assert windows.X.dtype == expected.dtype
            assert windows.X.tobytes() == expected.tobytes(), (n, w, extra)
            assert windows.X.nbytes == expected.nbytes
            assert not windows.X.flags.writeable
            with pytest.raises(ValueError):
                windows.X[0, 0, 0] = 1.0
