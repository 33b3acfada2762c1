"""Weight family: values, derivatives, parsing, shape properties."""

import math

import numpy as np
import pytest

from qpauction import DomainError
from qpauction.weights import WeightSpec


def test_power_values():
    w = WeightSpec.power(0.5)
    assert w.value(4.0) == pytest.approx(2.0, rel=1e-15)
    assert w.value(0.0) == 0.0
    assert WeightSpec.power(1.0).value(7.25) == 7.25
    assert WeightSpec.power(0.25).value(16.0) == pytest.approx(2.0, rel=1e-15)


def test_power_derivative_closed_form():
    w = WeightSpec.power(0.5)
    assert w.deriv(4.0) == pytest.approx(0.25, rel=1e-15)
    assert WeightSpec.power(1.0).deriv(123.0) == 1.0


def test_log1p_values_and_derivative():
    w = WeightSpec.log1p()
    assert w.value(0.0) == 0.0
    assert w.value(math.e - 1.0) == pytest.approx(1.0, rel=1e-14)
    assert w.deriv(1.0) == pytest.approx(0.5, rel=1e-15)


def test_loglog_values_and_derivative():
    w = WeightSpec.loglog()
    assert w.value(0.0) == 0.0
    assert w.value(math.e - 1.0) == pytest.approx(math.log(2.0), rel=1e-14)
    # chain rule: 1 / ((1 + x)(1 + log(1 + x)))
    x = 3.0
    expect = 1.0 / ((1.0 + x) * (1.0 + math.log1p(x)))
    assert w.deriv(x) == pytest.approx(expect, rel=1e-14)


def test_iterated_log_factory_matches_named_ones():
    assert WeightSpec.iterated_log(1) == WeightSpec.log1p()
    assert WeightSpec.iterated_log(2) == WeightSpec.loglog()


def test_parse_and_tag_round_trip():
    for tag in ["power:1", "power:0.5", "power:0.25", "log1p", "loglog"]:
        assert WeightSpec.parse(tag).tag == tag


def test_parse_rejects_garbage():
    for bad in ["power", "power:", "power:abc", "exp", "", "log", "power:0.5:1"]:
        with pytest.raises(DomainError):
            WeightSpec.parse(bad)


def test_gamma_domain():
    with pytest.raises(DomainError):
        WeightSpec.power(0.0)
    with pytest.raises(DomainError):
        WeightSpec.power(1.5)
    with pytest.raises(DomainError):
        WeightSpec.power(-0.5)
    with pytest.raises(DomainError):
        WeightSpec.power(float("nan"))
    WeightSpec.power(1.0)  # boundary allowed


def test_log_depth_domain():
    with pytest.raises(DomainError):
        WeightSpec.iterated_log(0)
    with pytest.raises(DomainError):
        WeightSpec.iterated_log(3)
    with pytest.raises(DomainError):
        WeightSpec.iterated_log(True)


def test_negative_and_nonfinite_inputs_rejected():
    w = WeightSpec.power(0.5)
    with pytest.raises(DomainError):
        w.value(-1.0)
    with pytest.raises(DomainError):
        w.value(float("inf"))
    with pytest.raises(DomainError):
        w.deriv(-1.0)
    with pytest.raises(DomainError):
        w.deriv(float("nan"))


def test_derivative_at_zero_is_an_error_but_limit_is_reported():
    for spec in [WeightSpec.power(0.5), WeightSpec.log1p(), WeightSpec.loglog()]:
        with pytest.raises(DomainError):
            spec.deriv(0.0)
    assert WeightSpec.power(0.5).deriv_limit_at_zero() == math.inf
    assert WeightSpec.power(1.0).deriv_limit_at_zero() == 1.0
    assert WeightSpec.log1p().deriv_limit_at_zero() == 1.0
    assert WeightSpec.loglog().deriv_limit_at_zero() == 1.0


def test_vectorized_value_matches_scalar():
    w = WeightSpec.power(0.25)
    xs = np.array([0.0, 0.5, 1.0, 7.0, 4096.0])
    out = w.value(xs)
    assert out.shape == xs.shape
    for x, y in zip(xs, out):
        assert y == pytest.approx(w.value(float(x)), rel=1e-15)


ALL_SPECS = [
    WeightSpec.power(1.0),
    WeightSpec.power(0.5),
    WeightSpec.power(0.25),
    WeightSpec.power(0.9),
    WeightSpec.log1p(),
    WeightSpec.loglog(),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.tag)
def test_derivative_matches_central_difference(spec):
    rng = np.random.default_rng(1805)
    # log-uniform grid; below ~1e-2 the truncation term of the difference
    # quotient dominates for the power weights, so start there
    xs = np.exp(rng.uniform(np.log(1e-2), np.log(1e6), size=200))
    for x in xs:
        h = 1e-6 * max(1.0, x)
        fd = (spec.value(x + h) - spec.value(x - h)) / (2.0 * h)
        assert spec.deriv(x) == pytest.approx(fd, rel=1e-8, abs=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.tag)
def test_concave_and_nondecreasing(spec):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b = np.sort(rng.uniform(0.0, 100.0, size=2))
        t = rng.uniform()
        mid = t * a + (1.0 - t) * b
        chord = t * spec.value(float(a)) + (1.0 - t) * spec.value(float(b))
        assert spec.value(float(mid)) >= chord - 1e-12
        assert spec.value(float(b)) >= spec.value(float(a)) - 1e-15


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.tag)
def test_scalar_functions_agree_with_checked_api(spec):
    wf, wd = spec.scalar_functions()
    rng = np.random.default_rng(7)
    for x in np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=50)):
        x = float(x)
        assert wf(x) == pytest.approx(spec.value(x), rel=1e-15)
        assert wd(x) == pytest.approx(spec.deriv(x), rel=1e-15)
    assert wf(0.0) == 0.0


def test_specs_are_hashable_and_comparable():
    assert WeightSpec.power(0.5) == WeightSpec.parse("power:0.5")
    assert len({WeightSpec.power(0.5), WeightSpec.parse("power:0.5")}) == 1
    assert WeightSpec.log1p() != WeightSpec.loglog()


@pytest.mark.parametrize(
    "tag", ["power:1", "power:0.5", "power:0.25", "power:0.1", "power:0.9", "log1p", "loglog"]
)
def test_lane_functions_are_the_scalar_functions_bit_for_bit(tag):
    # numpy's own power and log1p loops differ from x ** g and math.log1p in
    # the last bit on some inputs, which would break the lockstep certificate.
    spec = WeightSpec.parse(tag)
    wf, wd = spec.scalar_functions()
    lane_wf, lane_wd = spec.lane_functions()
    rng = np.random.default_rng(2024)
    x = np.concatenate(
        [[5e-324, 1e-300, 1e-16, 1.0, 1e9], 10.0 ** rng.uniform(-300.0, 9.0, 100_000)]
    )
    xs = x.tolist()

    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    assert np.array_equal(bits(lane_wf(x)), bits([wf(t) for t in xs]))
    assert np.array_equal(bits(lane_wd(x)), bits([wd(t) for t in xs]))
    zero = np.zeros(3)
    assert np.array_equal(bits(lane_wf(zero)), bits([wf(0.0)] * 3))
