"""ESS estimation, efficiency tables, and the proposal-difference bounds."""

import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from drgmc import diagnostics
from drgmc.diagnostics import (
    ACF_BATCH_DOUBLES,
    MIN_ESS_SAMPLES,
    TABLE_COLUMNS,
    ChainRecord,
    _autocorrelation,
    ess,
    ess_per_coordinate,
    summary_table,
    table_to_csv,
    table_to_text,
)
from drgmc.linear_model import random_model

from _dense_reference import bound_report, ess_reference


def make_record(name, n=200, ess_like=None, seed=0, solves_per_iter=1):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, 3))
    return ChainRecord(
        samples=samples,
        potentials=rng.standard_normal(n),
        accepts=rng.integers(0, 2, n).astype(float),
        wall_times=np.full(n, 1e-3),
        pde_solves=np.arange(1, n + 1) * solves_per_iter,
        meta={"algorithm": name, "h": 0.1, "burn_in": 50},
    )


class TestAutocorrelation:
    def test_matches_quadratic_time_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64)
        rho = _autocorrelation(x)
        xc = x - x.mean()
        direct = np.array([xc[: len(x) - k] @ xc[k:] for k in range(len(x))])
        direct = direct / direct[0]
        assert np.allclose(rho, direct, atol=1e-10)


class TestEss:
    def test_iid_close_to_n(self):
        x = np.random.default_rng(1).standard_normal(20000)
        assert 0.85 * len(x) <= ess(x) <= len(x)

    def test_ar1_matches_kinetic_theory(self):
        # AR(1): tau = (1 + rho)/(1 - rho)
        rho = 0.6
        n = 200000
        rng = np.random.default_rng(2)
        x = np.empty(n)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(n) * np.sqrt(1 - rho ** 2)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + eps[i]
        expected = n * (1 - rho) / (1 + rho)
        assert ess(x) == pytest.approx(expected, rel=0.1)

    def test_capped_at_n(self):
        # strongly antithetic series would have tau < 1
        x = np.tile([1.0, -1.0], 500) + 0.01 * np.random.default_rng(3).standard_normal(1000)
        assert ess(x) <= 1000

    def test_constant_series_is_zero_with_warning(self):
        with pytest.warns(UserWarning, match="^constant or non-finite series"):
            assert ess(np.ones(100)) == 0.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            ess(np.arange(5.0))

    def test_per_coordinate_shape(self):
        samples = np.random.default_rng(4).standard_normal((500, 4))
        out = ess_per_coordinate(samples)
        assert out.shape == (4,)
        assert np.all(out > 0)


def ar1_columns(phi, n, seeds):
    """Stationary AR(1) series x_t = phi x_{t-1} + sqrt(1 - phi^2) e_t with
    unit variance, one column per seed."""
    cols = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(n) * np.sqrt(1.0 - phi * phi)
        x_prev = rng.standard_normal()
        cols.append(lfilter([1.0], [1.0, -phi], noise, zi=[phi * x_prev])[0])
    return np.column_stack(cols)


def ess_and_warnings(samples):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = ess_per_coordinate(samples)
    return out, [str(w.message) for w in caught]


def assert_matches_oracle(samples):
    """Every column's ESS agrees with the per-series oracle; one warning
    exactly when some column is constant or non-finite."""
    out, messages = ess_and_warnings(samples)
    expected = np.array([ess_reference(samples[:, j]) for j in range(samples.shape[1])])
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)
    stuck = int(np.count_nonzero(expected == 0.0))
    assert len(messages) == (1 if stuck else 0), messages
    if stuck:
        assert messages[0].startswith("constant or non-finite series")
        assert f"{stuck} of {samples.shape[1]} coordinates" in messages[0]
    return out


class TestBlockEss:
    def test_constant_nan_and_inf_columns(self):
        samples = ar1_columns(0.5, 300, range(7))
        samples[:, 1] = 2.5
        samples[40, 2] = np.nan
        samples[:, 3] = np.inf
        samples[7, 4] = -np.inf
        out = assert_matches_oracle(samples)
        assert np.all(out[1:5] == 0.0) and np.all(out[[0, 5, 6]] > 0.0)

    def test_every_column_stuck(self):
        out = assert_matches_oracle(np.ones((50, 3)))
        assert np.all(out == 0.0)

    def test_antithetic_columns_give_n(self):
        # tau <= 0: the estimate is N itself
        n = 1000
        rng = np.random.default_rng(3)
        samples = np.tile([1.0, -1.0], n // 2)[:, None] + 0.01 * rng.standard_normal((n, 3))
        assert np.all(assert_matches_oracle(samples) == n)

    @pytest.mark.parametrize("n", [MIN_ESS_SAMPLES, MIN_ESS_SAMPLES + 1, 101, 1000, 1001])
    def test_odd_and_even_lengths(self, n):
        samples = np.column_stack([ar1_columns(phi, n, [n]) for phi in (0.0, 0.5, 0.9)])
        assert_matches_oracle(samples)

    def test_more_columns_than_one_batch(self):
        n = 2000
        per_batch = ACF_BATCH_DOUBLES >> (2 * n - 1).bit_length()
        samples = ar1_columns(0.7, n, range(2 * per_batch + 5))
        samples[:, [0, per_batch + 1, 2 * per_batch + 4]] = 1.0
        assert_matches_oracle(samples)

    def test_column_longer_than_the_batch_budget(self):
        n = ACF_BATCH_DOUBLES // 2 + 1
        assert 1 << (2 * n - 1).bit_length() > ACF_BATCH_DOUBLES
        assert_matches_oracle(ar1_columns(0.9, n, range(3)))

    @pytest.mark.parametrize("shape, batches", [((64, 441), 1), ((40000, 8), 8)])
    def test_batches(self, shape, batches, monkeypatch):
        # desk's chains run in one batch, long linear series one at a time
        calls = []

        def counting(x):
            calls.append(x.shape)
            return _autocorrelation(x)

        monkeypatch.setattr(diagnostics, "_autocorrelation", counting)
        ess_per_coordinate(np.random.default_rng(0).standard_normal(shape))
        assert len(calls) == batches

    @pytest.mark.parametrize("shape", [(40000, 8), (2000, 441)])
    def test_peak_memory(self, shape):
        samples = np.random.default_rng(1).standard_normal(shape)
        tracemalloc.start()
        try:
            ess_per_coordinate(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_ess_is_the_one_column_case(self):
        x = ar1_columns(0.8, 500, [9])
        assert ess(x[:, 0]) == ess_per_coordinate(x)[0]
        assert ess(x[:, 0]) == pytest.approx(ess_reference(x[:, 0]), rel=1e-12)


# Each estimate over N / tau; the bands hold for every one of seeds 0-39
# at N = 200 000 (widest for tau near 200), and the tests run seeds 0-4.
KNOWN_ANSWER_N = 200_000
KNOWN_ANSWER_SEEDS = range(5)


class TestEssKnownAnswer:
    @pytest.mark.parametrize("phi, band", [(0.0, 0.05), (0.5, 0.1), (0.9, 0.1),
                                           (0.99, 0.25)])
    def test_ar1(self, phi, band):
        tau = (1.0 + phi) / (1.0 - phi)
        samples = ar1_columns(phi, KNOWN_ANSWER_N, KNOWN_ANSWER_SEEDS)
        ratio = ess_per_coordinate(samples) / (KNOWN_ANSWER_N / tau)
        assert np.all(np.abs(ratio - 1.0) < band), ratio

    @pytest.mark.parametrize("stay, band", [(0.9, 0.1), (0.99, 0.25)])
    def test_sticky_two_state_chain(self, stay, band):
        # +-1 chain that keeps its state with probability stay:
        # rho_k = (2 stay - 1)^k, so tau = stay / (1 - stay)
        cols = []
        for seed in KNOWN_ANSWER_SEEDS:
            rng = np.random.default_rng(seed)
            flips = rng.random(KNOWN_ANSWER_N) >= stay
            flips[0] = rng.random() < 0.5
            cols.append(np.where(np.cumsum(flips) % 2 == 0, 1.0, -1.0))
        tau = stay / (1.0 - stay)
        ratio = ess_per_coordinate(np.column_stack(cols)) / (KNOWN_ANSWER_N / tau)
        assert np.all(np.abs(ratio - 1.0) < band), ratio


class TestChainRecord:
    def test_validates_lengths(self):
        with pytest.raises(ValueError, match="length"):
            ChainRecord(samples=np.zeros((5, 2)), potentials=np.zeros(4),
                        accepts=np.zeros(5), wall_times=np.zeros(5),
                        pde_solves=np.zeros(5))

    def test_validates_monotone_solves(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ChainRecord(samples=np.zeros((3, 2)), potentials=np.zeros(3),
                        accepts=np.zeros(3), wall_times=np.zeros(3),
                        pde_solves=np.array([2, 1, 3]))

    def test_kept_drops_burn_in(self):
        rec = make_record("pcn", n=100)
        assert len(rec.kept()) == 50


class TestSummaryTable:
    def test_columns_and_baseline(self):
        records = {"pcn": make_record("pcn", seed=1),
                   "inf-mala": make_record("inf-mala", seed=2, solves_per_iter=2)}
        rows = summary_table(records)
        assert set(rows[0].keys()) == set(TABLE_COLUMNS)
        base = next(r for r in rows if r["algorithm"] == "pcn")
        assert base["spdup"] == pytest.approx(1.0)
        mala = next(r for r in rows if r["algorithm"] == "inf-mala")
        assert mala["PDEsolns"] == 400
        assert mala["spdup"] == pytest.approx(mala["minESS/s"] / base["minESS/s"])

    def test_frozen_baseline_gives_nan_speedup(self):
        # a baseline whose chain never moved has minESS/s 0
        frozen = make_record("pcn", n=40, seed=5)
        frozen.samples[:] = 1.0
        moving = make_record("inf-mala", n=40, seed=6)
        moving.meta["burn_in"] = 10
        frozen.meta["burn_in"] = 10
        with pytest.warns(UserWarning, match="constant"):
            rows = summary_table({"pcn": frozen, "inf-mala": moving})
        assert rows[0]["minESS/s"] == 0.0 and rows[1]["minESS/s"] > 0.0
        assert all(np.isnan(row["spdup"]) for row in rows)
        parsed = list(csv.DictReader(io.StringIO(table_to_csv(rows))))
        assert [row["spdup"] for row in parsed] == ["nan", "nan"]

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            summary_table({"inf-mala": make_record("inf-mala")})

    def test_csv_round_trip(self):
        records = {"pcn": make_record("pcn", seed=3)}
        rows = summary_table(records)
        text = table_to_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 1
        assert parsed[0]["algorithm"] == "pcn"
        assert float(parsed[0]["spdup"]) == pytest.approx(1.0)
        assert list(parsed[0].keys()) == list(TABLE_COLUMNS)

    def test_text_table_aligned(self):
        records = {"pcn": make_record("pcn", seed=4)}
        text = table_to_text(summary_table(records))
        lines = text.strip("\n").split("\n")
        assert len(lines) == 2
        assert len(lines[0]) == len(lines[1])
        assert "minESS/s" in lines[0]


@pytest.fixture(scope="module")
def report():
    model = random_model(n=10, m=15, seed=5, noise_scale=0.7)
    return bound_report(model, trials=60, h=0.8, seed=6)


class TestBoundReport:

    def test_no_violations(self, report):
        assert report.n_violations == 0, report.violations[:2]

    def test_all_three_bounds_and_both_complements_exercised(self, report):
        seen = {(row["bound"], row["gamma_perp"]) for row in report.rows}
        assert {("dr_vs_full", 0), ("dr_vs_full", 1),
                ("dr_vs_dili", 0), ("dr_vs_dili", 1),
                ("dr_vs_full_hmc", 1)} <= seen

    def test_rows_carry_slack(self, report):
        for row in report.rows:
            assert row["rhs"] + 1e-9 >= row["lhs"]

    def test_zero_truncation_zero_bound(self):
        # rank r = rank(GNH): lambda_{r+1} = 0 and both sides vanish
        model = random_model(n=8, m=3, seed=7)
        rep = bound_report(model, ranks=(3,), trials=20, h=0.6, seed=8)
        rows1 = [r for r in rep.rows
                 if r["bound"] == "dr_vs_full" and r["gamma_perp"] == 1]
        assert rows1
        for row in rows1:
            assert row["lhs"] < 1e-8
