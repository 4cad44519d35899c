"""The gradient-check harness itself: error metric, corruption detection."""
import pytest

from uception.gradcheck import (
    CHECKS,
    _check_conv,
    format_results,
    probe_case,
    rel_error,
    run_suite,
)
from uception.ops import SAME


def test_rel_error_metric():
    assert rel_error(1.0, 1.0) == 0.0
    assert rel_error(0.0, 0.0) == 0.0
    assert float(rel_error(1.0, 1.0 + 1e-6)) < 1e-5
    assert float(rel_error(1.0, -1.0)) == 1.0


def test_conv_check_detects_corruption_directly():
    clean = probe_case(_check_conv(3, 1, SAME, 2, 2, 6))
    broken = probe_case(_check_conv(3, 1, SAME, 2, 2, 6), corrupt=True)
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
    (make, tol), = [(make, tol) for n, make, tol in CHECKS if n == name]
    assert probe_case(make(), corrupt=True) > tol


def test_corrupted_backward_reported_as_failing_layer():
    results = run_suite(corrupt="conv-5cube-same")
    failing = [r.name for r in results if not r.passed]
    assert failing == ["conv-5cube-same"]
    text = format_results(results)
    assert "FAIL\tconv-5cube-same" in text


def test_unknown_corrupt_name_rejected():
    with pytest.raises(ValueError, match="conv-5cube-same"):
        run_suite(corrupt="conv-5cube")
