import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from thermalwigner import (
    ChannelParams,
    FockDiagonalState,
    NegativityResult,
    NonConvergenceError,
    eval_fock_diagonal_wigner,
    eval_spats_wigner_evolved,
    eval_spats_wigner_initial,
    eval_thermal_wigner,
    evolved_coefficients,
    negative_region_radius_spats,
    pnw_numeric,
    pnw_radial,
    pnw_spats_analytic,
    threshold_spats,
)

GOLDEN_SINGLE_PHOTON = 2.0 * math.exp(-0.5) - 1.0  # 0.2130613...

# frozen from the independent radial oracle below (matches half the
# Kenfack-Zyczkowski negativity indicator for the two-photon Fock state)
GOLDEN_FOCK_TWO = 0.3644946288935669

# pnw_numeric of the single photon displaced by 0.7 along q (base resolution
# 101, abs_tol 1e-4), frozen from the earlier cell-by-cell recursive
# refinement; the level-at-a-time loop sums the same cells in another order
DISPLACED_PHOTON_VOLUME = 0.21307246292141477


def radial_quadrature_oracle(profile, r_lo, r_hi):
    """Independent 1-D oracle: |integral of 2 pi r profile(r)| over [r_lo, r_hi]."""
    value, err = quad(lambda r: 2.0 * math.pi * r * profile(r), r_lo, r_hi, epsabs=1e-13)
    assert err < 1e-10
    return abs(value)


class TestNegativityResult:
    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            NegativityResult(0.1, None, "guesswork")

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            NegativityResult(-0.1, None, "analytic")

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            NegativityResult(0.1, 0.0, "analytic")


class TestNegativeRegionRadius:
    def test_single_photon_radius(self):
        radius = negative_region_radius_spats(ChannelParams(0.0, 0.0), 0.0)
        assert radius == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_absent_at_threshold(self, n):
        assert negative_region_radius_spats(ChannelParams(n, threshold_spats(n)), 1.0) is None

    def test_seed_one_radius(self):
        radius = negative_region_radius_spats(ChannelParams(0.5, 0.0), 1.0)
        assert radius == pytest.approx(math.sqrt(6.0 / 16.0), abs=1e-12)

    @pytest.mark.parametrize(
        "channel,bar_n",
        [(ChannelParams(0.0, 0.0), 0.0), (ChannelParams(0.5, 0.0), 1.0), (ChannelParams(0.5, 0.2), 3.0 / 7.0)],
    )
    def test_sign_change_at_radius(self, channel, bar_n):
        radius = negative_region_radius_spats(channel, bar_n)
        inside = float(eval_spats_wigner_evolved(radius - 1e-6, 0.0, channel, bar_n))
        outside = float(eval_spats_wigner_evolved(radius + 1e-6, 0.0, channel, bar_n))
        assert inside < 0.0 < outside


class TestAnalyticVolume:
    def test_single_photon_golden_value(self):
        result = pnw_spats_analytic(ChannelParams(0.0, 0.0), 0.0)
        assert result.volume == pytest.approx(GOLDEN_SINGLE_PHOTON, abs=1e-9)
        assert result.method == "analytic"
        assert result.region_radius == pytest.approx(0.5, abs=1e-12)

    def test_single_photon_against_radial_oracle(self):
        oracle = radial_quadrature_oracle(
            lambda r: float(eval_spats_wigner_initial(r, 0.0, 0.0)), 0.0, 0.5
        )
        assert oracle == pytest.approx(GOLDEN_SINGLE_PHOTON, abs=1e-9)

    @pytest.mark.parametrize("n,bar_n", [(0.0, 0.0), (0.5, 1.0), (1.0, 3.0 / 7.0)])
    def test_zero_exactly_at_threshold(self, n, bar_n):
        result = pnw_spats_analytic(ChannelParams(n, threshold_spats(n)), bar_n)
        assert result.volume == 0.0
        assert result.region_radius is None

    def test_seed_one_channel_half_golden_value(self):
        result = pnw_spats_analytic(ChannelParams(0.5, 0.0), 1.0)
        expected = (4.0 * math.exp(-0.25) - 3.0) / 3.0  # 0.0384010...
        assert result.volume == pytest.approx(expected, abs=1e-12)
        assert result.volume == pytest.approx(0.038401, abs=1e-6)

    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0, 5.0])
    @pytest.mark.parametrize("n", [0.0, 0.5])
    def test_matches_literal_printed_expression(self, bar_n, n):
        # the implementation rearranges the bracket for stability near the
        # threshold; away from it the literal expression must agree exactly
        for gt in np.linspace(0.0, 0.9 * threshold_spats(n), 7):
            channel = ChannelParams(n, float(gt))
            c = evolved_coefficients(channel, bar_n)
            exponent = c.kappa / (4.0 * (1.0 + bar_n) * c.xi)
            bracket = c.kappa / (2.0 * c.xi) + 2.0 * (1.0 + bar_n) * (1.0 - math.exp(exponent))
            literal = -bracket * math.exp(-float(gt)) * math.exp(c.zeta / c.xi) / c.xi
            assert pnw_spats_analytic(channel, bar_n).volume == pytest.approx(
                literal, abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_printed_prefactor_is_unity(self, seed):
        # e^(-gt) e^(zeta/xi) = 1 identically since zeta = gt * xi
        rng = np.random.default_rng(seed)
        n = float(rng.uniform(0.0, 2.0))
        gt = float(rng.uniform(0.0, 2.0))
        bar_n = float(rng.uniform(0.0, 5.0))
        c = evolved_coefficients(ChannelParams(n, gt), bar_n)
        assert abs(math.exp(-gt) * math.exp(c.zeta / c.xi) - 1.0) < 1e-12


class TestNumericVolume:
    def test_thermal_has_no_negativity(self):
        result = pnw_numeric(lambda q, p: eval_thermal_wigner(q, p, 1.0), extent=6.0)
        assert result.volume == 0.0
        assert result.region_radius is None

    def test_single_photon_matches_golden(self):
        result = pnw_radial(lambda r: eval_spats_wigner_initial(r, 0.0, 0.0), 6.0)
        assert result.volume == pytest.approx(GOLDEN_SINGLE_PHOTON, abs=1e-6)
        assert result.region_radius == pytest.approx(0.5, abs=1e-9)

    def test_fock_two_annulus_from_independent_oracle(self):
        # stand-alone profile: L_2(x) = 1 - 2x + x^2/2 written out, no library reuse
        def profile(r):
            x = 4.0 * r * r
            return (2.0 / math.pi) * (1.0 - 2.0 * x + 0.5 * x * x) * math.exp(-2.0 * r * r)

        r_lo = brentq(lambda r: 1.0 - 2.0 * (4 * r * r) + 0.5 * (4 * r * r) ** 2, 0.2, 0.6)
        r_hi = brentq(lambda r: 1.0 - 2.0 * (4 * r * r) + 0.5 * (4 * r * r) ** 2, 0.7, 1.2)
        oracle = radial_quadrature_oracle(profile, r_lo, r_hi)
        assert oracle == pytest.approx(GOLDEN_FOCK_TWO, abs=1e-12)

        two_photons = FockDiagonalState([0.0, 0.0, 1.0])
        result = pnw_radial(lambda r: eval_fock_diagonal_wigner(r, 0.0, two_photons), 6.0)
        assert result.volume == pytest.approx(oracle, abs=1e-6)
        # the negative region is an annulus, not an origin disk
        assert result.region_radius is None

    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0])
    @pytest.mark.parametrize("n", [0.0, 0.5])
    def test_agrees_with_analytic_along_decay(self, bar_n, n):
        for gt in np.arange(0.0, threshold_spats(n), 0.1):
            channel = ChannelParams(n, float(gt))
            analytic = pnw_spats_analytic(channel, bar_n).volume
            numeric = pnw_radial(
                lambda r: eval_spats_wigner_evolved(r, 0.0, channel, bar_n),
                6.0,
                abs_tol=1e-7,
            ).volume
            assert abs(analytic - numeric) < 1e-5

    @pytest.mark.parametrize("n,bar_n", [(0.0, 1.0), (0.5, 3.0 / 7.0)])
    def test_zero_beyond_threshold(self, n, bar_n):
        channel = ChannelParams(n, threshold_spats(n) + 1e-3)
        result = pnw_radial(lambda r: eval_spats_wigner_evolved(r, 0.0, channel, bar_n), 6.0)
        assert result.volume == 0.0

    def test_displaced_input_uses_cartesian_path(self):
        # displacement leaves the volume invariant but breaks radial symmetry
        result = pnw_numeric(
            lambda q, p: eval_spats_wigner_initial(q - 0.7, p, 0.0),
            extent=6.0,
            base_resolution=101,
            abs_tol=1e-4,
        )
        assert result.method == "quadrature"
        assert result.region_radius is None
        assert result.volume == pytest.approx(GOLDEN_SINGLE_PHOTON, abs=1e-4)
        assert result.volume == pytest.approx(DISPLACED_PHOTON_VOLUME, abs=1e-12)

    def test_angular_perturbation_is_not_taken_for_radial(self):
        # sin(4 theta) agrees at 0, 90 and 225 degrees, so a symmetry probe at
        # those angles would mistake this for the unperturbed photon (0.2131)
        def perturbed(q, p):
            r2 = q * q + p * p
            angular = 0.3 * r2 * np.exp(-r2) * np.sin(4.0 * np.arctan2(p, q))
            return eval_spats_wigner_initial(q, p, 0.0) + angular

        result = pnw_numeric(perturbed, extent=6.0, base_resolution=101, abs_tol=1e-4)
        assert result.volume == pytest.approx(0.2719, abs=1e-3)

    def test_cartesian_non_convergence_carries_estimates(self):
        with pytest.raises(NonConvergenceError) as excinfo:
            pnw_numeric(
                lambda q, p: eval_spats_wigner_initial(q - 0.7, p, 0.0),
                extent=6.0,
                base_resolution=21,
                abs_tol=1e-15,
            )
        diagnostics = excinfo.value.diagnostics
        assert {"last", "previous"} <= set(diagnostics)
        # the estimates at the two finest resolutions, not one value twice
        assert diagnostics["last"] != diagnostics["previous"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"extent": 0.0},
            {"extent": 6.0, "base_resolution": 1},
            {"extent": 6.0, "abs_tol": 0.0},
            {"r_max": 0.0},
            {"r_max": math.inf},
            {"r_max": 6.0, "abs_tol": 0.0},
        ],
    )
    def test_parameter_domains(self, kwargs):
        # pnw_radial names its extent r_max; its profile is W(q, 0)
        function = pnw_radial if "r_max" in kwargs else pnw_numeric
        with pytest.raises(ValueError):
            function(lambda q, p=0.0: eval_thermal_wigner(q, p, 1.0), **kwargs)

    def test_scalar_only_evaluator_rejected(self):
        with pytest.raises(ValueError, match="broadcast"):
            pnw_numeric(lambda q, p: -0.25, extent=6.0)
        with pytest.raises(ValueError, match="broadcast"):
            pnw_radial(lambda r: -0.25, 6.0)

    def test_type_error_inside_evaluator_propagates(self):
        # math.exp accepts scalars only, so it raises TypeError on the arrays
        def scalar_math(q, p):
            return math.exp(-(q * q + p * p)) - 0.5

        with pytest.raises(TypeError):
            pnw_numeric(scalar_math, extent=6.0)
        with pytest.raises(TypeError):
            pnw_radial(lambda r: scalar_math(r, 0.0), 6.0)


class TestDecayBehaviour:
    LATTICE = np.linspace(0.0, 0.8, 50)

    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0])
    @pytest.mark.parametrize("n", [0.0, 0.5])
    def test_volume_monotone_non_increasing(self, bar_n, n):
        volumes = [
            pnw_spats_analytic(ChannelParams(n, float(gt)), bar_n).volume for gt in self.LATTICE
        ]
        diffs = np.diff(volumes)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("bar_n", [0.0, 3.0 / 7.0, 1.0])
    def test_hotter_channel_destroys_negativity_faster(self, bar_n):
        for gt in (0.05, 0.15, 0.25, 0.35):
            hot = pnw_spats_analytic(ChannelParams(0.5, gt), bar_n).volume
            cold = pnw_spats_analytic(ChannelParams(0.0, gt), bar_n).volume
            assert hot < cold
