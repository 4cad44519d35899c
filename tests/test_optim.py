"""Adam updates, the cosine cyclic schedule, snapshot bookkeeping and the
resume state that carries it."""
import numpy as np
import pytest

from uception.errors import DataError, NumericError, ShapeError
from uception.models import UceptionCfg, build_uception
from uception.optim import AdamState, CyclicSchedule, adam_step, cyclic_lr
from uception.training import (
    SnapshotSet,
    load_train_state,
    save_train_state,
    snapshot_after_epoch,
    snapshot_average,
    snapshot_fallback,
    snapshot_update,
)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState(lr=0.1)
        adam_step(p, {"w": np.zeros(3)}, state)
        assert np.array_equal(p["w"], [1.0, -2.0, 3.0])

    def test_first_step_is_signed_lr(self):
        # bias-corrected first step: magnitude ~ lr * g / (|g| + eps)
        p = {"w": np.array([0.0, 0.0])}
        g = {"w": np.array([0.35, -4.2])}
        state = AdamState(lr=0.01)
        adam_step(p, g, state)
        assert np.allclose(p["w"], [-0.01, 0.01], rtol=1e-6)

    def test_quadratic_toy_converges(self):
        # 200 steps on f(w) = sum((w - 3)^2) from w = 0 with lr 0.1
        w = {"w": np.zeros(4)}
        state = AdamState(lr=0.1)
        for _ in range(200):
            grads = {"w": 2.0 * (w["w"] - 3.0)}
            adam_step(w, grads, state)
        assert np.all(np.abs(w["w"] - 3.0) < 0.1)

    def test_shape_mismatch_rejected(self):
        state = AdamState()
        with pytest.raises(ShapeError):
            adam_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, state)

    def test_nonfinite_gradient_names_parameter(self):
        state = AdamState()
        with pytest.raises(NumericError) as err:
            adam_step({"layer.w": np.zeros(2)},
                      {"layer.w": np.array([1.0, np.nan])}, state)
        assert "layer.w" in str(err.value)

    def test_moments_track_parameter_shapes(self):
        p = {"a": np.zeros((2, 3)), "b": np.zeros(5)}
        g = {"a": np.ones((2, 3)), "b": np.ones(5)}
        state = AdamState()
        adam_step(p, g, state)
        assert state.m["a"].shape == (2, 3) and state.v["b"].shape == (5,)
        assert state.step == 1


class TestCyclicLr:
    def test_cycle_start_is_max(self):
        s = CyclicSchedule(1e-3, 1e-5, 20)
        assert cyclic_lr(s, 0) == pytest.approx(1e-3)

    def test_mid_cycle_is_mean(self):
        s = CyclicSchedule(1e-3, 1e-5, 20)
        assert cyclic_lr(s, 10) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_restart_at_cycle_length(self):
        s = CyclicSchedule(1e-3, 1e-5, 20)
        assert cyclic_lr(s, 20) == pytest.approx(1e-3)
        assert cyclic_lr(s, 40) == pytest.approx(1e-3)

    def test_bounded_and_periodic(self):
        s = CyclicSchedule(3e-3, 1e-4, 7)
        values = [cyclic_lr(s, e) for e in range(50)]
        assert all(1e-4 <= v <= 3e-3 for v in values)
        for e in range(40):
            assert values[e] == pytest.approx(values[e + 7])

    def test_negative_epoch_rejected(self):
        with pytest.raises(ShapeError):
            cyclic_lr(CyclicSchedule(), -1)

    def test_bad_schedule_rejected(self):
        with pytest.raises(ShapeError):
            CyclicSchedule(lr_max=1e-5, lr_min=1e-3)


class TestSnapshots:
    def params(self, value):
        return {"w": np.full(3, float(value)), "b": np.array([value / 2.0])}

    def test_identical_snapshots_average_to_member(self):
        snap = SnapshotSet(capacity=5)
        for epoch in range(3):
            snapshot_update(snap, epoch, -0.5, self.params(1.25))
        avg = snapshot_average(snap)
        assert np.array_equal(avg["w"], np.full(3, 1.25))

    def test_opposite_snapshots_average_to_zero(self):
        snap = SnapshotSet(capacity=2)
        snapshot_update(snap, 0, -0.5, self.params(2.0))
        snapshot_update(snap, 1, -0.5, self.params(-2.0))
        avg = snapshot_average(snap)
        assert np.allclose(avg["w"], 0.0) and np.allclose(avg["b"], 0.0)

    def test_capacity_keeps_best_by_val_loss(self):
        snap = SnapshotSet(capacity=2)
        snapshot_update(snap, 0, -0.1, self.params(1))
        snapshot_update(snap, 1, -0.9, self.params(2))
        snapshot_update(snap, 2, -0.5, self.params(3))
        losses = [e[0] for e in snap.entries]
        assert losses == [-0.9, -0.5]
        assert snap.worst_loss == -0.5

    def test_snapshots_store_copies(self):
        snap = SnapshotSet()
        live = self.params(1.0)
        snapshot_update(snap, 0, -0.5, live)
        live["w"][...] = 99.0
        assert np.array_equal(snap.entries[0][2]["w"], np.full(3, 1.0))

    def test_average_empty_errors(self):
        with pytest.raises(DataError):
            snapshot_average(SnapshotSet())

    def test_monotone_loss_sequence_captures_only_final_fallback(self):
        # strictly decreasing losses: no interior epoch is a local minimum,
        # so only the fallback stores a snapshot, of the last epoch
        losses = [-0.1, -0.2, -0.3, -0.4, -0.5]
        snap = SnapshotSet(capacity=5)
        captured = [snapshot_after_epoch(snap, val, self.params(epoch))
                    for epoch, val in enumerate(losses)]
        assert not any(captured)
        assert len(snap) == 0
        snapshot_fallback(snap)
        assert len(snap) == 1
        assert snap.entries[0][1] == 4
        assert np.array_equal(snap.entries[0][2]["w"], np.full(3, 4.0))

    def test_interior_minimum_captures_that_epoch(self):
        snap = SnapshotSet()
        live = self.params(0)  # updated in place, as a model's parameters are
        captured = []
        for epoch, val in enumerate([-0.1, -0.5, -0.3]):
            live["w"][...] = epoch
            live["b"][...] = epoch / 2.0
            captured.append(snapshot_after_epoch(snap, val, live))
        assert captured == [False, False, True]
        (loss, epoch, params), = snap.entries
        assert (loss, epoch) == (-0.5, 1)
        assert np.array_equal(params["w"], np.full(3, 1.0))
        assert np.array_equal(params["b"], [0.5])
        assert snap.history == [-0.1, -0.5, -0.3]
        snapshot_fallback(snap)  # a capture exists, so nothing is added
        assert len(snap) == 1

    def test_state_round_trip_restores_schedule(self, tmp_path):
        cfg = UceptionCfg(base_depth=1, levels=1)
        model = build_uception(cfg, seed=0, dtype=np.float64)
        adam = AdamState(step=3)
        adam.m = {k: np.full(v.shape, 0.25) for k, v in model.parameters().items()}
        adam.v = {k: np.full(v.shape, 0.5) for k, v in model.parameters().items()}
        snap = SnapshotSet(capacity=3)
        for val in (-0.1, -0.5, -0.3):
            snapshot_after_epoch(snap, val, model.parameters())
        path = str(tmp_path / "train_state.npz")
        save_train_state(path, model, adam, 2, snap)
        with np.load(path) as data:
            assert not [k for k in data.files if k.startswith("pending::")]

        back = build_uception(cfg, seed=1, dtype=np.float64)
        adam_back, snap_back = AdamState(), SnapshotSet(capacity=3)
        assert load_train_state(path, back, adam_back, snap_back) == 2
        assert snap_back.history == snap.history
        assert adam_back.step == 3
        loaded = back.parameters()
        assert snap_back.pending.keys() == loaded.keys()
        for name, arr in loaded.items():
            assert np.array_equal(arr, model.parameters()[name]), name
            assert np.array_equal(snap_back.pending[name], arr), name
            assert snap_back.pending[name] is not arr
            assert np.array_equal(adam_back.v[name], adam.v[name]), name
        [(loss, epoch, params)] = snap_back.entries
        assert (loss, epoch) == (-0.5, 1)
        assert all(np.array_equal(params[k], v) for k, v in loaded.items())
