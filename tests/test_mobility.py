import math
import warnings

import numpy as np
import pytest

from poromix import MobilityOverflowError, MobilitySpec, ScalarField, lipschitz_check
from poromix.mobility import evaluate

from conftest import make_scalar, make_velocity, random_scalar


def test_constant_everywhere(pi_domain):
    grid = np.linspace(-3, 5, 7)
    assert np.all(evaluate(MobilitySpec.constant(3.0), grid) == 3.0)


def test_exponential_r_zero_is_one():
    grid = np.array([-2.0, 0.0, 4.5])
    assert np.all(evaluate(MobilitySpec.exponential(0.0), grid) == 1.0)


def test_polynomial_direct_arithmetic():
    F = MobilitySpec.polynomial(1.0, 2.0)
    assert evaluate(F, np.array([0.25]))[0] == pytest.approx(1.5, abs=1e-15)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="a >= 0"):
        MobilitySpec.constant(-1.0)
    with pytest.raises(ValueError, match=">= 0"):
        MobilitySpec.polynomial(1.0, -0.5)
    with pytest.raises(ValueError, match="kind"):
        MobilitySpec("rational", (1.0,))
    with pytest.raises(ValueError, match="exactly one"):
        MobilitySpec("exponential", (1.0, 2.0))
    for kind, coefficients, message in (
            ("constant", (), "mobility coefficients must be non-empty"),
            ("polynomial", (1.0, math.nan), "mobility coefficients must be finite"),
            ("constant", (1.0, 2.0), "constant mobility takes exactly one coefficient")):
        with pytest.raises(ValueError) as info:
            MobilitySpec(kind, coefficients)
        assert str(info.value) == message


def test_exponential_overflow_aborts():
    # R C above the limit raises, and so does a NaN or infinite C: a NaN
    # peak fails the limit test rather than passing it.
    F = MobilitySpec.exponential(400.0)
    for c in ([2.0], [[0.0, math.nan], [0.0, 0.0]], [math.inf]):
        with pytest.raises(MobilityOverflowError, match="overflow"):
            evaluate(F, np.array(c))


def test_negative_exponent_underflows_without_overflow_error(pi_domain):
    # With R < 0, exp(R C) can only underflow, harmlessly to 0: R C = -1200
    # is no overflow, and nothing on the way warns.
    from poromix import GalerkinSystem, PhysicalParams

    F = MobilitySpec.exponential(-4.0)
    grid = np.linspace(0.0, 300.0, 61)
    C = make_scalar(pi_domain, [(1, 1, 150.0)], offset=150.0)  # 0 <= C <= 300
    system = GalerkinSystem(pi_domain, PhysicalParams(mu_e=0.1, d=0.1, mobility=F))
    y = system.pack(C, make_velocity(pi_domain, [(1, 1, 0.1)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f = evaluate(F, grid)
        fp = F.derivative_values(grid, f)
        ydot, diag = system.evaluate_with_diagnostics(0.0, y)
    assert f[-1] == 0.0 and np.isfinite(f).all() and np.isfinite(fp).all()
    assert np.isfinite(ydot).all() and all(np.isfinite(v).all() for v in diag.values())


def test_derivative_values_match_closed_forms():
    grid = np.linspace(-2.0, 3.0, 41)
    cases = [
        (MobilitySpec.constant(3.0), np.zeros_like(grid)),
        (MobilitySpec.polynomial(0.5, 2.0, 0.3, 0.1), 2.0 + 0.6 * grid + 0.3 * grid**2),
        (MobilitySpec.polynomial(1.5), np.zeros_like(grid)),
        (MobilitySpec.exponential(-1.7), -1.7 * np.exp(-1.7 * grid)),
    ]
    for F, closed in cases:
        f = evaluate(F, grid)
        assert np.allclose(F.derivative_values(grid, f), closed, rtol=1e-14, atol=1e-14)
    F = MobilitySpec.exponential(1.3)
    f = evaluate(F, grid)
    assert np.array_equal(F.derivative_values(grid, f), 1.3 * f)


def test_nonnegativity_on_nonnegative_fields(pi_domain):
    C = make_scalar(pi_domain, [(1, 1, 0.4)], offset=0.6)
    grid = pi_domain.scalar_values(C.coeffs)
    assert grid.min() >= 0
    for F in (MobilitySpec.constant(2.0), MobilitySpec.polynomial(0.5, 1.0, 0.2)):
        assert evaluate(F, grid).min() >= 0.0
    assert evaluate(MobilitySpec.exponential(-3.0), grid).min() > 0.0


def test_exponential_monotone_shift_ratio(pi_domain):
    R, delta = 1.3, 0.37
    C = random_scalar(pi_domain, seed=2)
    grid = pi_domain.scalar_values(C.coeffs)
    ratio = evaluate(MobilitySpec.exponential(R), grid + delta) / evaluate(
        MobilitySpec.exponential(R), grid
    )
    assert np.abs(ratio - math.exp(R * delta)).max() <= 1e-12


def test_lipschitz_constant_family_all_zero(pi_domain):
    base = random_scalar(pi_domain, seed=4)
    pairs = [(base, ScalarField(pi_domain, make_scalar(pi_domain, [(1, 0, eps)]).coeffs
                                + base.coeffs))
             for eps in (0.5, 0.1, 0.02)]
    report = lipschitz_check(MobilitySpec.constant(4.0), pairs)
    assert report.max_ratio == 0.0
    assert not report.diverging


def test_lipschitz_linear_polynomial_ratio_one(pi_domain):
    # F(C) = C: ||F(C1) - F(C2)|| / ||C1 - C2|| = 1 exactly.
    F = MobilitySpec.polynomial(0.0, 1.0)
    base = make_scalar(pi_domain, [], offset=0.8)
    pairs = [(base, make_scalar(pi_domain, [], offset=0.8 + eps)) for eps in (0.3, 0.05)]
    report = lipschitz_check(F, pairs)
    for _, ratio in report.ratios:
        assert ratio == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_exponential_directional_derivative(pi_domain):
    # Uniform C1 = c, C2 = c + eps: ratio -> |R| e^(R c) as eps -> 0.
    R, c = 2.0, 0.3
    F = MobilitySpec.exponential(R)
    base = make_scalar(pi_domain, [], offset=c)
    eps = 1e-8
    report = lipschitz_check(F, [(base, make_scalar(pi_domain, [], offset=c + eps))])
    expected = abs(R) * math.exp(R * c)
    assert report.max_ratio == pytest.approx(expected, rel=1e-6)


def test_lipschitz_skips_zero_distance_and_box(pi_domain):
    base = random_scalar(pi_domain, seed=6, scale=0.1)
    report = lipschitz_check(MobilitySpec.constant(1.0), [(base, base)])
    assert report.skipped_pairs == 1
    assert report.ratios == ()
    big = make_scalar(pi_domain, [], offset=5.0)
    with pytest.raises(ValueError, match="amplitude box"):
        lipschitz_check(MobilitySpec.constant(1.0), [(big, base)], amplitude_box=2.0)


def test_horner_and_derivative_are_numpy_polynomials_bits():
    # numpy.polynomial stays the reference: F by Horner's rule and the F'
    # coefficients repeat polyval's and polyder's operations, so each value,
    # a non-finite node's included, is the same bits.
    from poromix.mobility import _polyder, _polyval

    P = np.polynomial.polynomial
    x = np.concatenate([np.random.default_rng(3).normal(size=40),
                        [0.0, -0.0, np.inf, -np.inf, np.nan]]).reshape(5, 9)
    with np.errstate(invalid="ignore"):
        for c in ((1.0,), (0.0,), (0.5, 2.0, 0.3), (1.0, 2.0, 3.0, 4.0, 5.0), (0.0, 0.0, 1e300)):
            assert _polyder(c).tobytes() == P.polyder(c).tobytes()
            assert _polyval(x, c).tobytes() == P.polyval(x, c).tobytes()
            assert _polyval(x, _polyder(c)).tobytes() == P.polyval(x, P.polyder(c)).tobytes()


def test_polynomial_derivative_coefficients_formed_once(pi_domain, monkeypatch):
    # F' of a polynomial mobility is formed once per spec, not per
    # evaluation with diagnostics.
    from poromix import GalerkinSystem, PhysicalParams, VelocityField

    from poromix import mobility

    calls = []
    polyder = mobility._polyder
    monkeypatch.setattr(mobility, "_polyder", lambda c: calls.append(c) or polyder(c))
    F = MobilitySpec.polynomial(0.5, 2.0, 0.3)
    system = GalerkinSystem(pi_domain, PhysicalParams(mu_e=0.1, d=0.1, mobility=F))
    C = make_scalar(pi_domain, [(1, 1, 0.2)], offset=0.5)
    y = system.pack(C, VelocityField(pi_domain, np.zeros((2, 2))))
    for t in (0.0, 0.1, 0.2):
        system.evaluate_with_diagnostics(t, y)
    assert len(calls) == 1
