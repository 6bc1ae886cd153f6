"""The verify checks fail on a NaN or -inf value they judge, and keep their strict boundaries."""

import math

import numpy as np
import pytest

from padicqft import model, sampler, verify, wick


def _nan(*args, **kwargs):
    return math.nan


def _nan_estimate(*args, **kwargs):
    return sampler.SchwingerEstimate(value=math.nan, std_error=0.01, n_samples=1, method="mc")


def _nan_moments(real):
    def patched(*args, **kwargs):
        vals, *rest = real(*args, **kwargs)
        return (np.full_like(vals, math.nan), *rest)
    return patched


# (check, module, attribute, replacement): the library function feeding the check
NAN_FEEDS = {
    "omega_consistency": (verify.check_omega_consistency, model, "vladimirov_omega_const",
                          _nan),
    "resolvent_ball_bound": (verify.check_resolvent_ball_bound, model, "c_kappa_sq", _nan),
    "resolvent_tail_bound": (verify.check_resolvent_tail_bound, model,
                             "resolvent_tail_integral", _nan),
    "green_nonnegative": (verify.check_green_nonnegative, model, "green_function", _nan),
    "green_increment_identity": (verify.check_green_increment_identity, model,
                                 "green_regularized", _nan),
    "variance_ball_identity": (verify.check_variance_ball_identity, model,
                               "free_cell_variance", _nan),
    "wick_orthogonality": (verify.check_wick_orthogonality, wick, "wick_power",
                           lambda t, k, var: np.full_like(t, math.nan)),
    "wick_change_roundtrip": (verify.check_wick_change_roundtrip, wick,
                              "wick_change_of_variance_coeffs",
                              lambda k, va, vb: (math.nan,) * (k // 2 + 1)),
    "wick_decay_slope": (verify.check_wick_decay_slope, wick, "wick_l2_decay",
                         lambda params, k1, k2s, orders, *rest: np.full((len(orders), 10),
                                                                        math.nan)),
    "wick_lower_bound": (lambda: verify.check_wick_lower_bound(1, n_draws=100), wick,
                         "wick_poly_cell_bound", _nan),
    "free_reduction_mc": (lambda: verify.check_free_reduction(1), sampler, "schwinger_mc",
                          _nan_estimate),
    "mc_quadrature_agreement": (lambda: verify.check_mc_quadrature_agreement(1), sampler,
                                "schwinger_mc", _nan_estimate),
    "griffiths_quadrature": (verify.check_griffiths_quadrature, sampler,
                             "_quadrature_converged",
                             _nan_moments(sampler._quadrature_converged)),
}


@pytest.mark.parametrize("name", sorted(NAN_FEEDS))
def test_nan_value_fails_the_check(monkeypatch, name):
    check, module, attribute, replacement = NAN_FEEDS[name]
    monkeypatch.setattr(module, attribute, replacement)
    report = check()
    assert report.check == name
    assert report.passed is False
    assert math.isnan(report.worst_margin)
    assert report.violations


@pytest.mark.parametrize("where", ["everywhere", "origin only"])
def test_negative_infinite_green_value_fails(monkeypatch, where):
    real = model.green_function

    def patched(params, d, *args):
        if where == "everywhere" or d == verify.SAME:
            return -math.inf
        return real(params, d, *args)

    monkeypatch.setattr(model, "green_function", patched)
    report = verify.check_green_nonnegative()
    assert report.passed is False
    assert report.worst_margin == -math.inf


def test_zero_decay_slope_fails(monkeypatch):
    # a flat decay series fits tau = 0 exactly; the decay rate must be strictly positive
    monkeypatch.setattr(wick, "wick_l2_decay",
                        lambda params, k1, k2s, orders, *rest: np.ones((len(orders), 10)))
    report = verify.check_wick_decay_slope()
    assert report.passed is False
    assert report.worst_margin == 0.0
