import dataclasses
import json
import math

import numpy as np
import pytest

from triwell import (
    LatticeParams,
    NonMonotoneTime,
    RangeError,
    density_map,
    potential_matrix,
    schedule_check,
)
from triwell.lattice import modulation_depth, separation_phase


def params(**overrides):
    base = dict(u1=1.0, theta_l=math.pi / 4, k_l=1.0)
    base.update(overrides)
    return LatticeParams(**base)


class TestPotentialMatrix:
    def test_scalar_at_theta_zero(self):
        p = params(theta_l=0.0)
        for z in (0.0, 0.3, 1.1):
            mat = potential_matrix(z, p)
            expected = -(4 / 3) * (1 + math.cos(2 * z))
            assert mat[0, 0] == pytest.approx(expected, abs=1e-12)
            assert mat[1, 1] == pytest.approx(expected, abs=1e-12)
            assert mat[0, 1] == 0

    def test_spin_splitting_at_circular_point(self):
        # 2 k_L z = pi/2, theta = pi/2: diagonal -(4/3)U1 -/+ (2/3)U1
        p = params(theta_l=math.pi / 2)
        mat = potential_matrix(math.pi / 4, p)
        assert mat[0, 0].real == pytest.approx(-2.0, abs=1e-12)
        assert mat[1, 1].real == pytest.approx(-2 / 3, abs=1e-12)

    def test_hermitian(self):
        p = params(b_perp=0.4, b_parallel=0.2, gyro=1.7)
        for z in np.linspace(-2, 2, 9):
            mat = potential_matrix(z, p)
            assert np.array_equal(mat, mat.conj().T)

    def test_periodicity(self):
        p = params(theta_l=1.1, b_perp=0.3)
        for z in (0.0, 0.42):
            a = potential_matrix(z, p)
            b = potential_matrix(z + math.pi / p.k_l, p)
            assert np.abs(a - b).max() < 1e-12

    def test_zeeman_terms(self):
        p = params(b_parallel=0.6, b_perp=0.8, gyro=2.0)
        bare = params()
        diff = potential_matrix(0.2, p) - potential_matrix(0.2, bare)
        assert diff[0, 0] == pytest.approx(-0.6, abs=1e-12)   # -(gyro/2) b_par
        assert diff[0, 1] == pytest.approx(-0.8, abs=1e-12)   # -(gyro/2) b_perp


class TestDerivedGeometry:
    def test_depth_at_theta_zero(self):
        assert modulation_depth(1.5, 0.0) == pytest.approx(8 * 1.5 / 3, abs=1e-12)

    def test_separation_at_quarter_turn(self):
        dz = separation_phase(math.pi / 4) / 2.0  # k_L = 2
        assert 2.0 * dz == pytest.approx(math.atan(0.5), abs=1e-12)

    def test_separation_limit_at_half_pi(self):
        assert separation_phase(math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_separation_monotone_on_zero_pi(self):
        thetas = np.linspace(1e-3, math.pi - 1e-3, 200)
        values = [separation_phase(th) for th in thetas]
        assert np.all(np.diff(values) > 0)
        assert values[0] < 0.01 and values[-1] > math.pi - 0.01

    def test_depth_numeric_vs_closed_form(self):
        # peak-peak of the m = +1/2 band on a dense grid within 1%
        for theta in (0.3, math.pi / 4, 1.2):
            p = params(theta_l=theta)
            z_grid = np.linspace(0, math.pi / p.k_l, 512, endpoint=False)
            band = [potential_matrix(z, p)[0, 0].real for z in z_grid]
            measured = max(band) - min(band)
            assert measured == pytest.approx(modulation_depth(p.u1, theta), rel=0.01)


class TestDensityMap:
    def test_bands_are_potential_eigenvalues(self):
        p = params(k_l=1.3, b_perp=0.3, b_parallel=0.2, gyro=1.7)
        thetas = np.linspace(0.1, 3.0, 7)
        z_primes = np.linspace(-1.0, 5.0, 11)
        grid = density_map(p, thetas, z_primes)
        for i, theta in enumerate(thetas):
            for j, zp in enumerate(z_primes):
                mat = potential_matrix(zp / (2 * p.k_l), dataclasses.replace(p, theta_l=theta))
                lower, upper = np.linalg.eigvalsh(mat)
                assert abs(grid.band_lower[i, j] - lower) < 1e-12
                assert abs(grid.band_upper[i, j] - upper) < 1e-12

    def test_exact_crossings_without_transverse_field(self):
        p = params(theta_l=math.pi / 2, b_perp=0.0)
        grid = density_map(p, [math.pi / 2], np.linspace(0, 2 * math.pi, 201))
        gaps = grid.band_upper - grid.band_lower
        # crossings where sin(z') = 0: z' = 0, pi, 2 pi
        assert gaps[0, 0] < 1e-12 and gaps[0, 100] < 1e-12 and gaps[0, 200] < 1e-12

    def test_avoided_crossing_with_transverse_field(self):
        p = params(theta_l=math.pi / 2, b_perp=0.25, gyro=2.0)
        grid = density_map(p, np.linspace(0.5, 2.5, 21), np.linspace(0, 2 * math.pi, 201))
        gaps = grid.band_upper - grid.band_lower
        assert gaps.min() >= 2.0 / 2 * 0.25 - 1e-12  # gap >= gyro |b_perp|

    def test_band_continuity_along_theta(self):
        p = params(b_perp=0.2)
        thetas = np.linspace(math.pi / 2, 5 * math.pi / 2, 401)
        grid = density_map(p, thetas, np.linspace(0, 2 * math.pi, 11))
        jumps = np.abs(np.diff(grid.band_lower, axis=0)).max()
        # bounded by the local derivative scale of the potential over the step
        assert jumps < 4 * p.u1 * (thetas[1] - thetas[0])

    def test_minima_merge_and_separate_along_the_sweep(self):
        # adjacent lower-band minima sit 2*atan2(sin t, 2 cos t) apart (mod 2 pi):
        # wells merge near t = k pi and separate maximally near odd pi/2
        p = params(b_perp=0.0)

        def adjacent_minima_distance(theta):
            z = np.linspace(0, 2 * math.pi, 4001, endpoint=False)
            grid = density_map(LatticeParams(p.u1, theta, p.k_l), [theta], z)
            band = grid.band_lower[0]
            minima = [z[i] for i in range(len(z))
                      if band[i] <= band[i - 1] and band[i] <= band[(i + 1) % len(z)]]
            if len(minima) < 2:
                return 0.0
            gap = abs(minima[1] - minima[0])
            return min(gap, 2 * math.pi - gap)

        for theta in (math.pi / 2, 3 * math.pi / 2):
            expected = 2 * separation_phase(theta) % (2 * math.pi)
            assert adjacent_minima_distance(theta) == pytest.approx(
                min(expected, 2 * math.pi - expected), abs=0.02)
        assert adjacent_minima_distance(math.pi + 0.05) < 0.25
        assert adjacent_minima_distance(2 * math.pi - 0.05) < 0.25

    def test_empty_grid_rejected(self):
        with pytest.raises(RangeError):
            density_map(params(), [], [0.0])


class TestScheduleCheck:
    def test_constant_schedule_passes(self):
        report = schedule_check(np.linspace(0, 10, 21), np.full(21, 1.2), 1.0, params())
        assert report.max_rate == 0.0
        assert report.passed and report.violations == ()

    def test_linear_schedule_rate_scaling(self):
        thetas = np.linspace(math.pi / 2, 5 * math.pi / 2, 101)
        slow = schedule_check(np.linspace(0, 200, 101), thetas, 1.0, params())
        fast = schedule_check(np.linspace(0, 100, 101), thetas, 1.0, params())
        assert fast.max_rate == pytest.approx(2 * slow.max_rate, rel=1e-9)

    def test_violation_indices(self):
        # d theta/dt = 0.1 against a threshold of 0.1: only some samples
        # violate, each rate misses some of them, and no rate is within 1e-3
        # of the threshold
        thetas = np.linspace(math.pi / 2, 5 * math.pi / 2, 101)
        times = np.linspace(0, 20 * math.pi, 101)
        report = schedule_check(times, thetas, 1.0, params())
        depth_rate = np.abs(np.gradient(
            [(4 / 3) * math.sqrt(3 * math.cos(th) ** 2 + 1) for th in thetas], times))
        separation_rate = np.abs(np.gradient(np.unwrap(
            [math.atan2(math.sin(th), 2 * math.cos(th)) for th in thetas]), times))
        bad = (depth_rate > 0.1) | (separation_rate > 0.1)
        assert report.threshold == pytest.approx(0.1)
        assert 0 < bad.sum() < bad.size
        assert (bad != (depth_rate > 0.1)).any() and (bad != (separation_rate > 0.1)).any()
        assert report.violations == tuple(np.flatnonzero(bad).tolist())
        assert not report.passed

    def test_non_monotone_time(self):
        with pytest.raises(NonMonotoneTime):
            schedule_check([0.0, 1.0, 1.0], [0.1, 0.2, 0.3], 1.0, params())

    def test_report_serialization(self):
        report = schedule_check(np.linspace(0, 10, 11), np.linspace(0, 1, 11), 2.0,
                                params(), threshold_factor=0.1)
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert payload["threshold"] == pytest.approx(0.2)
        assert payload["violations"] == list(report.violations)
        assert set(payload) >= {"max_rate", "threshold", "violations"}
