import re

import numpy as np
import pytest

from pursuitlab import bounds_for, delta_for_rho, error_envelope
from pursuitlab.bounds import _RHO, COSAMP, FAMILIES, SP, SP_DM, SP_LBJ, SP_TAIL, canonical_family

ROOT2 = np.sqrt(2.0)


class TestZeroDelta:
    """At delta = 0 every family collapses to a clean constant."""

    def test_sp(self):
        r = bounds_for(SP, 0.0)
        assert r.rho == 0.0
        assert r.tau == pytest.approx(2 * ROOT2 + 1, abs=1e-12)

    def test_sp_tail(self):
        r = bounds_for(SP_TAIL, 0.0)
        assert r.rho == 0.0
        assert r.tau == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_cosamp(self):
        r = bounds_for(COSAMP, 0.0)
        assert r.rho == 0.0
        assert r.tau == pytest.approx(2 * ROOT2 + 1, abs=1e-12)

    def test_lbj(self):
        r = bounds_for(SP_LBJ, 0.0)
        assert r.rho == 0.0
        assert r.tau == pytest.approx(6.0, abs=1e-12)

    def test_dm(self):
        r = bounds_for(SP_DM, 0.0)
        assert r.rho == 0.0
        assert r.tau == pytest.approx(4.0, abs=1e-12)


class TestHeadlineConstants:
    def test_sp_at_half_rate(self):
        r = bounds_for(SP, 0.3063)
        assert r.rho == pytest.approx(0.5, abs=5e-4)
        assert r.tau == pytest.approx(13.1303, abs=5e-3)

    def test_sp_boundary(self):
        assert bounds_for(SP, 0.48586).rho == pytest.approx(1.0, abs=1e-3)
        assert not bounds_for(SP, 0.4859).valid

    def test_sp_tail_shares_rate(self):
        for delta in np.linspace(0.0, 0.48, 25):
            assert bounds_for(SP_TAIL, delta).rho == bounds_for(SP, delta).rho

    def test_sp_tail_coefficient(self):
        assert bounds_for(SP_TAIL, 0.3063).tau == pytest.approx(11.3213, abs=5e-3)

    def test_cosamp_at_half_rate(self):
        assert bounds_for(COSAMP, 0.3083).rho == pytest.approx(0.5, abs=5e-4)

    def test_cosamp_boundary_exact(self):
        # 4 d^4 + 3 d^2 - 1 = 0 at d = 1/2, in exact binary arithmetic.
        assert bounds_for(COSAMP, 0.5).rho == 1.0

    def test_lbj_at_half_rate(self):
        r = bounds_for(SP_LBJ, 0.2324)
        assert r.rho == pytest.approx(0.5, abs=5e-4)
        assert r.tau == pytest.approx(21.1886, abs=5e-3)

    def test_dm_at_half_rate(self):
        r = bounds_for(SP_DM, 0.1397)
        assert r.rho == pytest.approx(0.5, abs=5e-4)
        assert r.tau == pytest.approx(12.3219, abs=5e-3)


class TestDeltaForRho:
    def test_sp_unit_rate_closed_form(self):
        delta = delta_for_rho(SP, 1.0)
        assert delta == pytest.approx(0.485868, abs=1e-4)
        assert delta == pytest.approx(np.sqrt(np.sqrt(5.0) - 2.0), abs=1e-8)

    def test_cosamp_unit_rate(self):
        assert delta_for_rho(COSAMP, 1.0) == pytest.approx(0.5, abs=1e-8)

    def test_sp_half_rate_quadratic_oracle(self):
        delta = delta_for_rho(SP, 0.5)
        assert delta == pytest.approx(0.30633, abs=1e-4)
        # delta^2 solves 7 u^2 + 10 u - 1 = 0.
        u = (-10.0 + np.sqrt(128.0)) / 14.0
        assert delta == pytest.approx(np.sqrt(u), abs=1e-8)

    def test_dm_unit_rate_matches_formula_root(self):
        # Root of 2 d (1 + d) = (1 - d)^3; the historical headline rounds
        # to 0.205 but the printed formula's root is 0.20678 (see ledger).
        delta = delta_for_rho(SP_DM, 1.0)
        assert delta == pytest.approx(0.206783, abs=1e-4)
        assert 2 * delta * (1 + delta) == pytest.approx((1 - delta) ** 3, abs=1e-7)

    def test_lbj_unit_rate(self):
        assert delta_for_rho(SP_LBJ, 1.0) == pytest.approx(0.325086, abs=1e-4)

    def test_bracket_holds_every_target(self):
        # Bisection starts at [0, 1 - 1e-9]; rho is zero at 0 (TestZeroDelta)
        # and above 1 at the top for every family, so every target in (0, 1]
        # is inside.
        for family in FAMILIES:
            assert _RHO[family](1 - 1e-9) > 1

    def test_half_rate_constants(self):
        assert delta_for_rho(SP, 0.5) == pytest.approx(0.3063, abs=1e-4)
        assert delta_for_rho(COSAMP, 0.5) == pytest.approx(0.3083, abs=1e-4)
        assert delta_for_rho(SP_LBJ, 0.5) == pytest.approx(0.2324, abs=1e-4)
        assert delta_for_rho(SP_DM, 0.5) == pytest.approx(0.1397, abs=1e-4)

    def test_inversion_consistency(self):
        for family in FAMILIES:
            for target in (0.25, 0.5, 0.9, 1.0):
                delta = delta_for_rho(family, target)
                assert bounds_for(family, delta).rho == pytest.approx(target, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_for_rho(SP, 0.0)
        with pytest.raises(ValueError):
            delta_for_rho(SP, 1.5)
        with pytest.raises(ValueError):
            delta_for_rho("unknown", 0.5)
        # A family that is no string is named, not an AttributeError from str.strip.
        for family in (3, None, ["sp"]):
            with pytest.raises(ValueError, match=f"unknown formula family {re.escape(repr(family))}"):
                bounds_for(family, 0.2)


class TestShapeProperties:
    def test_rate_vanishes_at_zero(self):
        for family in FAMILIES:
            assert bounds_for(family, 0.0).rho == 0.0

    def test_rate_strictly_increasing(self):
        for family in FAMILIES:
            top = bounds_for(family, 0.0).threshold_rho1
            grid = np.arange(0.0, top, 1e-3)
            rhos = [bounds_for(family, d).rho for d in grid]
            assert all(a < b for a, b in zip(rhos, rhos[1:]))

    def test_sp_validity_polynomial(self):
        # rho < 1 exactly where d^4 + 4 d^2 - 1 < 0.
        for d in np.linspace(0.0, 0.99, 100):
            assert (bounds_for(SP, d).rho < 1.0) == (d**4 + 4 * d**2 - 1 < 0)

    def test_cosamp_validity_polynomial(self):
        # rho < 1 exactly where 4 d^4 + 3 d^2 - 1 < 0.
        for d in np.linspace(0.0, 0.99, 100):
            assert (bounds_for(COSAMP, d).rho < 1.0) == (4 * d**4 + 3 * d**2 - 1 < 0)

    def test_lbj_never_beats_sp(self):
        for d in np.linspace(0.0, 0.32, 65):
            assert bounds_for(SP_LBJ, d).rho >= bounds_for(SP, d).rho - 1e-12

    def test_invalid_reports(self):
        r = bounds_for(SP, 0.6)
        assert not r.valid and r.tau is None
        r = bounds_for(SP_DM, 0.3)
        assert not r.valid and r.tau is None

    def test_delta_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                bounds_for(SP, bad)

    def test_family_aliases(self):
        assert canonical_family("sp-tail") == SP_TAIL
        assert canonical_family("cosamp") == COSAMP
        assert canonical_family(SP_LBJ) == SP_LBJ


class TestErrorEnvelope:
    def test_initial_iteration(self):
        r = bounds_for(SP, 0.3)
        assert error_envelope(r, 0, 2.5, 0.0) == 2.5

    def test_geometric_decay(self):
        r = bounds_for(SP, 0.3)
        values = [error_envelope(r, n, 1.0, 0.0) for n in range(12)]
        for a, b in zip(values, values[1:]):
            assert b == pytest.approx(a * r.rho, rel=1e-12)

    def test_headline_arithmetic(self):
        r = bounds_for(SP, 0.3063)
        # About 0.5^10 + 13.1303 * 0.01 with the rate not exactly one half.
        assert error_envelope(r, 10, 1.0, 0.01) == pytest.approx(0.1323, abs=1e-3)

    def test_requires_contraction(self):
        with pytest.raises(ValueError):
            error_envelope(bounds_for(SP, 0.6), 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            error_envelope(bounds_for(SP, 0.3), -1, 1.0, 0.0)

    def test_unrolled_recursion_matches(self):
        # Iterating e_n = rho e_{n-1} + (1 - rho) tau ||e'|| from ||x_s||
        # gives rho^n ||x_s|| + tau (1 - rho^n) ||e'||, which the envelope
        # dominates and approaches as n grows.
        r = bounds_for(COSAMP, 0.25)
        x_norm, e_norm = 3.0, 0.05
        value = x_norm
        for n in range(1, 40):
            value = r.rho * value + (1 - r.rho) * r.tau * e_norm
            closed = r.rho**n * x_norm + r.tau * (1 - r.rho**n) * e_norm
            assert value == pytest.approx(closed, rel=1e-10)
            assert value <= error_envelope(r, n, x_norm, e_norm) + 1e-12
        assert value == pytest.approx(error_envelope(r, 39, x_norm, e_norm), rel=1e-3)
