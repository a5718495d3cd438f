"""Tests for proposal subspaces (line / trust-region) and their wrapper."""

import numpy as np
import pytest

from repro.acquisition.maximize import RandomSearchMaximizer
from repro.acquisition.spaces import (
    PROPOSAL_SPACES,
    BoxFrame,
    DenseLineMaximizer,
    EmbeddedAcquisition,
    LineFrame,
    LineSpace,
    SubspaceMaximizer,
    TrustRegionConfig,
    TrustRegionSpace,
    _segment_range,
    incumbent_index,
    make_proposal_space,
)
from repro.bo.history import OptimizationResult
from repro.bo.problem import Evaluation


def peaked(center, width=0.05):
    center = np.asarray(center)

    def acq(x):
        x = np.atleast_2d(x)
        return np.exp(-np.sum((x - center) ** 2, axis=1) / (2 * width**2))

    return acq


# -- frames -------------------------------------------------------------------


class TestLineFrame:
    def test_endpoints_and_interior(self):
        center = np.array([0.5, 0.5])
        direction = np.array([1.0, 0.0])
        frame = LineFrame(center, direction, t_lo=-0.5, t_hi=0.5)
        assert frame.dim == 1
        lifted = frame.lift(np.array([[0.0], [0.5], [1.0]]))
        np.testing.assert_allclose(lifted[0], [0.0, 0.5])
        np.testing.assert_allclose(lifted[1], [0.5, 0.5])
        np.testing.assert_allclose(lifted[2], [1.0, 0.5])

    def test_lift_clips_to_unit_box(self, rng):
        center = rng.uniform(size=4)
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        t_lo, t_hi = _segment_range(center, direction)
        frame = LineFrame(center, direction, t_lo, t_hi)
        z = rng.uniform(size=(64, 1))
        lifted = frame.lift(z)
        assert lifted.shape == (64, 4)
        assert np.all(lifted >= 0.0) and np.all(lifted <= 1.0)


class TestBoxFrame:
    def test_affine_lift(self):
        frame = BoxFrame(np.array([0.2, 0.4]), np.array([0.6, 0.5]))
        assert frame.dim == 2
        lifted = frame.lift(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]))
        np.testing.assert_allclose(lifted[0], [0.2, 0.4])
        np.testing.assert_allclose(lifted[1], [0.6, 0.5])
        np.testing.assert_allclose(lifted[2], [0.4, 0.45])


class TestSegmentRange:
    def test_contains_zero_and_hits_boundary(self, rng):
        for _ in range(20):
            center = rng.uniform(size=3)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            t_lo, t_hi = _segment_range(center, direction)
            assert t_lo <= 0.0 <= t_hi
            for t in (t_lo, t_hi):
                endpoint = center + t * direction
                assert np.all(endpoint >= -1e-12) and np.all(endpoint <= 1 + 1e-12)
                # an endpoint sits on the box boundary
                assert np.any(
                    np.isclose(endpoint, 0.0) | np.isclose(endpoint, 1.0)
                )

    def test_axis_aligned(self):
        t_lo, t_hi = _segment_range(
            np.array([0.25, 0.5]), np.array([1.0, 0.0])
        )
        assert t_lo == pytest.approx(-0.25)
        assert t_hi == pytest.approx(0.75)

    def test_degenerate_zero_direction(self):
        t_lo, t_hi = _segment_range(np.array([0.5, 0.5]), np.zeros(2))
        assert (t_lo, t_hi) == (0.0, 0.0)


# -- embedded line engine -----------------------------------------------------


class TestDenseLineMaximizer:
    def test_rejects_bad_grid_and_wrong_dim(self, rng):
        with pytest.raises(ValueError):
            DenseLineMaximizer(n_grid=1)
        with pytest.raises(ValueError):
            DenseLineMaximizer().maximize(lambda z: z[:, 0], dim=2, rng=rng)

    def test_localizes_1d_peak(self, rng):
        def acq(z):
            z = np.atleast_2d(z)
            return -((z[:, 0] - 0.637) ** 2)

        z = DenseLineMaximizer(n_grid=128).maximize(acq, dim=1, rng=rng)
        assert z.shape == (1,)
        assert abs(z[0] - 0.637) < 1e-4  # polish beats the grid spacing

    def test_no_polish_returns_grid_point(self, rng):
        def acq(z):
            z = np.atleast_2d(z)
            return -((z[:, 0] - 0.637) ** 2)

        z = DenseLineMaximizer(n_grid=11, polish=False).maximize(acq, 1, rng)
        np.testing.assert_allclose(z, [0.6])

    def test_all_nan_degrades_gracefully(self, rng):
        z = DenseLineMaximizer().maximize(
            lambda z: np.full(np.atleast_2d(z).shape[0], np.nan), dim=1, rng=rng
        )
        assert z.shape == (1,)
        assert 0.0 <= z[0] <= 1.0


# -- spaces -------------------------------------------------------------------


class TestLineSpace:
    def test_frame_passes_through_incumbent(self, rng):
        incumbent = np.array([0.3, 0.9, 0.1])
        frame = LineSpace().frame(3, incumbent, rng)
        np.testing.assert_allclose(frame.center, incumbent)
        assert np.linalg.norm(frame.direction) == pytest.approx(1.0)
        # the incumbent itself is on the segment (t=0 in range)
        assert frame.t_lo <= 0.0 <= frame.t_hi

    def test_no_incumbent_uses_box_centre(self, rng):
        frame = LineSpace().frame(4, None, rng)
        np.testing.assert_allclose(frame.center, 0.5)

    def test_fresh_direction_per_frame(self):
        rng = np.random.default_rng(0)
        space = LineSpace()
        f1 = space.frame(5, None, rng)
        f2 = space.frame(5, None, rng)
        assert not np.allclose(f1.direction, f2.direction)

    def test_frames_returns_a_fan(self):
        rng = np.random.default_rng(0)
        frames = LineSpace(n_lines=3).frames(4, None, rng)
        assert len(frames) == 3
        directions = np.stack([f.direction for f in frames])
        assert not np.allclose(directions[0], directions[1])
        assert not np.allclose(directions[1], directions[2])

    def test_rejects_bad_n_lines(self):
        with pytest.raises(ValueError):
            LineSpace(n_lines=0)

    def test_stateless_checkpoint(self):
        space = LineSpace()
        assert space.state_to_dict() == {}
        space.restore_state({})  # no-op, must not raise
        space.observe(True)


class TestTrustRegionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length_min": 0.0},
            {"length_init": 2.0},  # > length_max
            {"length_min": 0.9},  # > length_init
            {"shrink": 1.0},
            {"expand": 1.0},
            {"success_tolerance": 0},
            {"failure_tolerance": 0},
            {"n_candidates": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            TrustRegionConfig(**kwargs)


class TestTrustRegionSpace:
    def test_expand_after_consecutive_successes(self):
        space = TrustRegionSpace(TrustRegionConfig(success_tolerance=3))
        for _ in range(2):
            space.observe(True)
        assert space.length == pytest.approx(0.8)  # not yet
        space.observe(True)
        assert space.length == pytest.approx(1.6)
        assert space.n_success == 0  # counter resets on expand
        assert space.n_expansions == 1

    def test_failure_resets_success_streak(self):
        space = TrustRegionSpace(TrustRegionConfig(success_tolerance=2))
        space.observe(True)
        space.observe(False)
        space.observe(True)
        assert space.length == pytest.approx(0.8)  # streak was broken
        space.observe(True)
        assert space.length == pytest.approx(1.6)

    def test_shrink_after_consecutive_failures(self):
        space = TrustRegionSpace(TrustRegionConfig(failure_tolerance=4))
        for _ in range(4):
            space.observe(False)
        assert space.length == pytest.approx(0.4)
        assert space.n_failure == 0
        assert space.n_shrinks == 1

    def test_restart_when_collapsed(self):
        cfg = TrustRegionConfig(failure_tolerance=1, length_min=0.5)
        space = TrustRegionSpace(cfg)
        space.observe(False)  # 0.8 -> 0.4 < length_min -> restart
        assert space.length == pytest.approx(cfg.length_init)
        assert space.n_restarts == 1

    def test_frame_is_clipped_box_around_incumbent(self, rng):
        space = TrustRegionSpace()
        frame = space.frame(3, np.array([0.1, 0.5, 0.95]), rng)
        np.testing.assert_allclose(frame.lo, [0.0, 0.1, 0.55])
        np.testing.assert_allclose(frame.hi, [0.5, 0.9, 1.0])

    def test_state_round_trip(self):
        space = TrustRegionSpace()
        for improved in (True, True, False, False, False, True):
            space.observe(improved)
        state = space.state_to_dict()
        fresh = TrustRegionSpace()
        fresh.restore_state(state)
        assert fresh.state_to_dict() == state
        # restored space continues identically
        space.observe(False)
        fresh.observe(False)
        assert fresh.state_to_dict() == space.state_to_dict()


# -- wrapper ------------------------------------------------------------------


class TestSubspaceMaximizer:
    def test_line_pick_lies_on_a_fan_line(self):
        incumbent = np.array([0.4, 0.6, 0.5])
        space = LineSpace(n_lines=4)
        wrapped = SubspaceMaximizer(space, RandomSearchMaximizer())
        wrapped.set_incumbent(incumbent)
        probe = LineSpace(n_lines=4).frames(3, incumbent, np.random.default_rng(3))
        pick = wrapped.maximize(
            peaked([0.5] * 3, width=0.4), 3, np.random.default_rng(3)
        )
        # pick - incumbent must be parallel to one of the fan's directions
        offset = pick - incumbent
        residuals = [
            np.linalg.norm(
                offset - np.dot(offset, f.direction) * f.direction
            )
            for f in probe
        ]
        assert min(residuals) < 1e-9
        assert np.all(pick >= 0.0) and np.all(pick <= 1.0)

    def test_fan_champion_beats_single_line(self):
        """The fan keeps the best champion across its lines: its pick can
        never score below the first line's pick."""
        acq = peaked([0.9, 0.1, 0.5], width=0.3)
        incumbent = np.array([0.2, 0.8, 0.5])
        single = SubspaceMaximizer(LineSpace(n_lines=1), RandomSearchMaximizer())
        fan = SubspaceMaximizer(LineSpace(n_lines=6), RandomSearchMaximizer())
        single.set_incumbent(incumbent)
        fan.set_incumbent(incumbent)
        a = single.maximize(acq, 3, np.random.default_rng(2))
        b = fan.maximize(acq, 3, np.random.default_rng(2))
        assert acq(b[None, :])[0] >= acq(a[None, :])[0] - 1e-12

    def test_trust_region_pick_stays_in_region(self):
        incumbent = np.full(5, 0.5)
        space = TrustRegionSpace(TrustRegionConfig(length_init=0.2))
        wrapped = SubspaceMaximizer(space, RandomSearchMaximizer())
        wrapped.set_incumbent(incumbent)
        pick = wrapped.maximize(
            peaked([0.9] * 5, width=0.5), 5, np.random.default_rng(0)
        )
        assert np.all(np.abs(pick - incumbent) <= 0.1 + 1e-12)

    def test_batch_searches_q_different_lines(self):
        wrapped = SubspaceMaximizer(LineSpace(), RandomSearchMaximizer())
        wrapped.set_incumbent([0.5, 0.5, 0.5, 0.5])
        acq = peaked([0.2, 0.8, 0.3, 0.7], width=0.5)
        picks = wrapped.maximize_batch(
            lambda j, picks: acq, q=3, dim=4, rng=np.random.default_rng(1)
        )
        assert len(picks) == 3
        directions = {tuple(np.round(p, 6)) for p in picks}
        assert len(directions) == 3  # fresh line per stage

    def test_embedded_acquisition_composes(self):
        frame = BoxFrame(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        embedded = EmbeddedAcquisition(peaked([0.25, 0.25], width=0.5), frame)
        value = embedded(np.array([[0.5, 0.5]]))  # lifts to (0.25, 0.25)
        assert value[0] == pytest.approx(1.0)


# -- incumbent_index ----------------------------------------------------------


def _result(entries):
    """Build a history from (objective, constraints) tuples."""
    result = OptimizationResult("toy", "test")
    for objective, constraints in entries:
        result.append(
            np.zeros(2), Evaluation(objective=objective, constraints=constraints)
        )
    return result


class TestIncumbentIndex:
    def test_best_feasible_wins(self):
        result = _result(
            [(0.5, [-1.0]), (0.1, [1.0]), (0.3, [-1.0])]
        )
        assert incumbent_index(result) == 2

    def test_least_violating_when_nothing_feasible(self):
        result = _result([(0.1, [2.0]), (0.9, [0.5]), (0.2, [1.0])])
        assert incumbent_index(result) == 1

    def test_violation_ties_broken_by_objective(self):
        result = _result([(0.9, [1.0]), (0.2, [1.0])])
        assert incumbent_index(result) == 1

    def test_nan_records_never_win(self):
        result = _result([(np.nan, [np.nan]), (0.5, [1.0])])
        assert incumbent_index(result) == 1

    def test_empty_history(self):
        assert incumbent_index(_result([])) is None


# -- factory ------------------------------------------------------------------


class TestMakeProposalSpace:
    def test_full_returns_none(self):
        assert make_proposal_space("full") is None

    def test_line_and_trust_region(self):
        assert isinstance(make_proposal_space("line"), LineSpace)
        assert isinstance(make_proposal_space("trust-region"), TrustRegionSpace)
        # underscore spelling normalizes
        assert isinstance(make_proposal_space("Trust_Region"), TrustRegionSpace)

    def test_trust_region_config_passes_through(self):
        cfg = TrustRegionConfig(length_init=0.4)
        space = make_proposal_space("trust-region", cfg)
        assert space.config is cfg
        assert space.length == pytest.approx(0.4)

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="proposal_space"):
            make_proposal_space("cube")

    def test_registry_is_exhaustive(self):
        assert PROPOSAL_SPACES == ("full", "line", "trust-region")
