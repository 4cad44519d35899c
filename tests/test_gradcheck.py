"""The gradient-check harness itself: error metric, corruption detection."""
import pytest

from uception import layers
from uception.gradcheck import CHECKS, format_results, probe_case, rel_error, run_suite


def check(name):
    """(case builder, tolerance) of the named check."""
    (make, tol), = [(make, tol) for n, make, tol in CHECKS if n == name]
    return make, tol


def test_rel_error_metric():
    assert rel_error(1.0, 1.0) == 0.0
    assert rel_error(0.0, 0.0) == 0.0
    assert float(rel_error(1.0, 1.0 + 1e-6)) < 1e-5
    assert float(rel_error(1.0, -1.0)) == 1.0


def test_conv_check_detects_corruption_directly():
    make, _ = check("conv-3cube-same")
    clean = probe_case(make())
    broken = probe_case(make(), corrupt=True)
    assert clean <= 1e-4 < broken


@pytest.mark.parametrize("name", [
    "relu",                # elementwise
    "maxpool-3cube-same",  # pool
    "conv-7cube-same",     # conv
    "soft-dice-smooth0",   # soft-Dice
    "reduction-block",     # block
    "unet3d-miniature",    # model
])
def test_every_check_family_detects_corruption(name):
    make, tol = check(name)
    assert probe_case(make(), corrupt=True) > tol


@pytest.mark.parametrize("name, cls", [
    ("relu", layers.ReLU),
    ("sigmoid", layers.Sigmoid),
    ("dropout", layers.Dropout),
    ("maxpool-3cube-same", layers.MaxPool3d),
    ("conv-3cube-same", layers.Conv3d),
    ("upsample-nearest", layers.UpsampleNearest),
])
def test_scaled_layer_backward_fails_its_check(monkeypatch, name, cls):
    # each check runs its layer's own backward, on the cache training keeps
    backward = cls.backward
    monkeypatch.setattr(cls, "backward",
                        lambda self, g, cache, grads: 1.05 * backward(self, g, cache, grads))
    make, tol = check(name)
    assert probe_case(make()) > tol


def test_corrupted_backward_reported_as_failing_layer():
    results = run_suite(corrupt="conv-5cube-same")
    failing = [r.name for r in results if not r.passed]
    assert failing == ["conv-5cube-same"]
    text = format_results(results)
    assert "FAIL\tconv-5cube-same" in text


def test_unknown_corrupt_name_rejected():
    with pytest.raises(ValueError, match="conv-5cube-same"):
        run_suite(corrupt="conv-5cube")
