"""Tests for acquisition maximizers (the inner 'optimize engine')."""

import numpy as np
import pytest

from repro.acquisition import maximize
from repro.acquisition.maximize import (
    POLISH_MAXITER_CAP,
    DifferentialEvolutionMaximizer,
    ScanPolishMaximizer,
    evaluate_chunked,
)


def peaked(center, width=0.05):
    """Smooth single-peak acquisition with max at `center`."""
    center = np.asarray(center)

    def acq(x):
        x = np.atleast_2d(x)
        return np.exp(-np.sum((x - center) ** 2, axis=1) / (2 * width**2))

    return acq


MAXIMIZERS = [
    ScanPolishMaximizer(n_samples=4000, polish=False),
    DifferentialEvolutionMaximizer(pop_size=30, generations=30),
    ScanPolishMaximizer(n_samples=4000),
]


@pytest.mark.parametrize("maximizer", MAXIMIZERS, ids=["random", "de", "scan"])
class TestCommonBehaviour:
    def test_stays_in_unit_box(self, maximizer, rng):
        x = maximizer.maximize(peaked([0.99, 0.01]), dim=2, rng=rng)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_finds_interior_peak(self, maximizer, rng):
        x = maximizer.maximize(peaked([0.3, 0.7]), dim=2, rng=rng)
        assert np.linalg.norm(x - [0.3, 0.7]) < 0.15

    def test_output_shape(self, maximizer, rng):
        x = maximizer.maximize(peaked([0.5] * 4), dim=4, rng=rng)
        assert x.shape == (4,)


class TestDEMaximizer:
    def test_beats_random_on_narrow_peak(self):
        """A needle at a corner: DE + polish should localize it better than
        pure random sampling with the same-ish budget."""
        acq = peaked([0.123, 0.456, 0.789], width=0.02)
        de = DifferentialEvolutionMaximizer(pop_size=30, generations=40)
        errors_de, errors_rand = [], []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x_de = de.maximize(acq, 3, rng)
            errors_de.append(np.linalg.norm(x_de - [0.123, 0.456, 0.789]))
            rng = np.random.default_rng(seed)
            x_r = ScanPolishMaximizer(n_samples=1200, polish=False).maximize(acq, 3, rng)
            errors_rand.append(np.linalg.norm(x_r - [0.123, 0.456, 0.789]))
        assert np.mean(errors_de) <= np.mean(errors_rand)

    def test_polish_improves_or_keeps(self, rng):
        acq = peaked([0.42, 0.42], width=0.1)
        base = DifferentialEvolutionMaximizer(pop_size=20, generations=5, polish=False)
        polished = DifferentialEvolutionMaximizer(pop_size=20, generations=5, polish=True)
        x_base = base.maximize(acq, 2, np.random.default_rng(0))
        x_pol = polished.maximize(acq, 2, np.random.default_rng(0))
        assert acq(x_pol.reshape(1, -1))[0] >= acq(x_base.reshape(1, -1))[0] - 1e-12

    def test_handles_flat_acquisition(self, rng):
        """All-zero acquisition (everything infeasible, underflowed product)
        must still return a valid point, not crash."""
        x = DifferentialEvolutionMaximizer(pop_size=20, generations=5).maximize(
            lambda x: np.zeros(np.atleast_2d(x).shape[0]), dim=3, rng=rng
        )
        assert x.shape == (3,)
        assert np.all((x >= 0) & (x <= 1))

    def test_reproducible_with_seed(self):
        acq = peaked([0.6, 0.6])
        de = DifferentialEvolutionMaximizer(pop_size=15, generations=10, polish=False)
        a = de.maximize(acq, 2, np.random.default_rng(3))
        b = de.maximize(acq, 2, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pop_size": 2},
            {"generations": 0},
            {"mutation": 0.0},
            {"crossover": 1.5},
            {"max_pop": 4},
            {"polish_maxiter": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            DifferentialEvolutionMaximizer(**kwargs)


class TestHighDimScaling:
    """Regression: `max_pop=120` silently collapsed the `4*dim` rule at
    d>30, and the `100*dim` polish budget exploded at d=100+."""

    def test_population_keeps_historical_sizes_at_low_dim(self):
        de = DifferentialEvolutionMaximizer()
        # the pinned circuit traces depend on these exact sizes
        assert de.population_size(2) == 40
        assert de.population_size(10) == 40
        assert de.population_size(30) == 120
        assert de.population_size(36) == 144

    def test_population_honours_4dim_rule_at_high_dim(self):
        de = DifferentialEvolutionMaximizer()
        assert de.population_size(100) == 400
        assert de.population_size(200) == 800
        # an explicit max_pop restores the old (collapsing) ceiling
        legacy = DifferentialEvolutionMaximizer(max_pop=120)
        assert legacy.population_size(100) == 120

    def test_polish_budget_capped(self):
        de = DifferentialEvolutionMaximizer()
        assert de.resolve_polish_maxiter(36) == 3600  # uncapped, historical
        assert de.resolve_polish_maxiter(100) == POLISH_MAXITER_CAP
        assert DifferentialEvolutionMaximizer(
            polish_maxiter=7
        ).resolve_polish_maxiter(100) == 7

    def test_d100_first_batch_has_4dim_rows(self):
        """End-to-end at d=100: the evaluated population really is 400."""
        shapes = []

        def recording(x):
            x = np.atleast_2d(x)
            shapes.append(x.shape)
            return -np.sum((x - 0.5) ** 2, axis=1)

        de = DifferentialEvolutionMaximizer(generations=1, polish=False)
        x = de.maximize(recording, dim=100, rng=np.random.default_rng(0))
        assert x.shape == (100,)
        assert shapes[0] == (400, 100)

    def test_chunked_evaluation_matches_unchunked(self, rng):
        acq = peaked([0.4] * 3, width=0.3)
        candidates = rng.uniform(size=(101, 3))
        full = evaluate_chunked(acq, candidates, chunk=None)
        for chunk in (1, 7, 100, 101, 500):
            np.testing.assert_array_equal(
                evaluate_chunked(acq, candidates, chunk=chunk), full
            )

    def test_chunked_evaluation_masks_nan(self, rng):
        acq = nan_poisoned([0.75, 0.5])
        candidates = rng.uniform(size=(64, 2))
        values = evaluate_chunked(acq, candidates, chunk=16)
        assert np.all(np.isfinite(values) | (values == -np.inf))
        assert np.all(values[candidates[:, 0] < 0.5] == -np.inf)


class TestScanPolishMaximizer:
    @pytest.mark.parametrize(
        "kwargs",
        [{"n_samples": 0}, {"polish_maxiter": 0}, {"eval_chunk": 0}],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ScanPolishMaximizer(**kwargs)

    def test_cost_is_dim_independent(self):
        """The scan evaluates exactly n_samples rows at any dimension."""
        for dim in (2, 100):
            rows = []

            def counting(x):
                x = np.atleast_2d(x)
                rows.append(x.shape[0])
                return -np.sum((x - 0.5) ** 2, axis=1)

            scan = ScanPolishMaximizer(n_samples=256, polish=False)
            scan.maximize(counting, dim=dim, rng=np.random.default_rng(0))
            assert sum(rows) == 256

    def test_polish_improves_or_keeps(self):
        acq = peaked([0.42, 0.42], width=0.1)
        base = ScanPolishMaximizer(n_samples=200, polish=False)
        polished = ScanPolishMaximizer(n_samples=200, polish=True)
        x_base = base.maximize(acq, 2, np.random.default_rng(0))
        x_pol = polished.maximize(acq, 2, np.random.default_rng(0))
        assert acq(x_pol.reshape(1, -1))[0] >= acq(x_base.reshape(1, -1))[0] - 1e-12

    def test_chunk_does_not_change_the_pick(self):
        """eval_chunk is a memory knob, not a search knob."""
        acq = peaked([0.3, 0.8, 0.5], width=0.2)
        a = ScanPolishMaximizer(n_samples=101, polish=False, eval_chunk=None)
        b = ScanPolishMaximizer(n_samples=101, polish=False, eval_chunk=7)
        np.testing.assert_array_equal(
            a.maximize(acq, 3, np.random.default_rng(5)),
            b.maximize(acq, 3, np.random.default_rng(5)),
        )


class TestRandomSearch:
    """The scan without its polish is plain random search."""

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            ScanPolishMaximizer(n_samples=0, polish=False)

    def test_picks_argmax_of_batch(self, rng):
        calls = {}

        def acq(x):
            calls["x"] = x
            return x[:, 0]  # best is the largest first coordinate

        maximizer = ScanPolishMaximizer(n_samples=500, polish=False)
        best = maximizer.maximize(acq, 2, rng)
        assert best[0] == calls["x"][:, 0].max()


def nan_poisoned(center, width=0.08, nan_below=0.5):
    """Peaked acquisition that returns NaN on half the box (``x0 < 0.5``).

    Mimics a degenerate surrogate region (overflowed variance, broken
    posterior): a real failure mode that must not elect a NaN champion.
    """
    base = peaked(center, width)

    def acq(x):
        x = np.atleast_2d(x)
        values = np.asarray(base(x), dtype=float)
        values[x[:, 0] < nan_below] = np.nan
        return values

    return acq


@pytest.mark.parametrize(
    "maximizer",
    [
        ScanPolishMaximizer(n_samples=4000, polish=False),
        DifferentialEvolutionMaximizer(pop_size=30, generations=30),
    ],
    ids=["random", "de"],
)
class TestNaNSafety:
    """Regression: NaN acquisition values silently won argmax/DE slots."""

    def test_never_returns_a_nan_champion(self, maximizer):
        """The returned point must come from the finite half of the box."""
        acq = nan_poisoned([0.75, 0.5])
        for seed in range(3):
            x = maximizer.maximize(acq, 2, np.random.default_rng(seed))
            value = np.asarray(acq(x.reshape(1, -1)), dtype=float)[0]
            assert np.isfinite(value), f"champion has NaN acquisition (seed {seed})"
            assert x[0] >= 0.5

    def test_still_localizes_the_finite_peak(self, maximizer):
        x = maximizer.maximize(
            nan_poisoned([0.75, 0.3]), 2, np.random.default_rng(0)
        )
        assert np.linalg.norm(x - [0.75, 0.3]) < 0.2

    def test_all_nan_batch_degrades_gracefully(self, maximizer):
        """Everything NaN: still returns a point inside the box, no crash."""
        x = maximizer.maximize(
            lambda x: np.full(np.atleast_2d(x).shape[0], np.nan),
            dim=2,
            rng=np.random.default_rng(1),
        )
        assert x.shape == (2,)
        assert np.all((x >= 0.0) & (x <= 1.0))


class TestPolishNaNSafety:
    def test_polish_rejects_nan_probe_keeps_champion(self):
        """A NaN ridge next to the champion must not corrupt the polish."""
        center = np.array([0.75, 0.5])
        acq = nan_poisoned(center, width=0.15)
        de = DifferentialEvolutionMaximizer(pop_size=25, generations=25, polish=True)
        x = de.maximize(acq, 2, np.random.default_rng(2))
        value = np.asarray(acq(x.reshape(1, -1)), dtype=float)[0]
        assert np.isfinite(value)
        assert np.linalg.norm(x - center) < 0.2


class TestPolish:
    def test_de_and_scan_share_one_polish(self, monkeypatch):
        """Both engines polish through the module's one ``polish``, each
        with its own iteration budget."""
        budgets = []
        real_polish = maximize.polish

        def spy(acquisition, x0, f0, maxiter):
            budgets.append(maxiter)
            return real_polish(acquisition, x0, f0, maxiter)

        monkeypatch.setattr(maximize, "polish", spy)
        acq = peaked([0.42, 0.42], width=0.1)
        DifferentialEvolutionMaximizer(pop_size=10, generations=2).maximize(
            acq, 2, np.random.default_rng(0)
        )
        ScanPolishMaximizer(n_samples=50, polish_maxiter=30).maximize(
            acq, 2, np.random.default_rng(0)
        )
        assert budgets == [200, 30]  # DE: 100 * dim

    def test_keeps_the_champion_it_cannot_beat(self):
        x0 = np.array([0.3, 0.3])
        # the surface peaks at 1, below the champion's claimed value
        assert maximize.polish(peaked([0.42, 0.42], width=0.1), x0, 2.0, 50) is x0
