"""Spin-dependent 1D optical lattice from two linearly polarized beams.

Two counter-propagating beams with linear polarizations at relative angle
theta produce, for the two ground-state spin components (sigma_z eigenvalue
+1 is m = +1/2), the bipotential

    U(z) = -(2 U1/3) { 2 [1 + cos(theta) cos(2 k_L z)] I
                       + sin(theta) sin(2 k_L z) sigma_z }
           - (gyro/2) (B_par sigma_z + B_perp sigma_x)

(hbar = 1; U1 is the single-beam light shift). Varying theta changes the
peak-peak modulation depth and the separation of the m = +1/2 / m = -1/2
wells:

    U_p = (4/3) U1 sqrt(3 cos^2 theta + 1),   k_L dz = atan2(sin theta, 2 cos theta)

where the two-argument arctangent is the continuous branch, so dz grows
monotonically from 0 to pi/k_L as theta sweeps (0, pi). A transverse field
B_perp opens an avoided crossing at the points of linear polarization;
sweeping theta adiabatically then walks neighbouring wells of the lower
adiabatic band together and apart again -- the collision schedule used by
the teleportation protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonMonotoneTime, RangeError


@dataclass(frozen=True)
class LatticeParams:
    """Lattice drive: light shift u1 > 0, mixing angle, wavenumber, Zeeman terms."""

    u1: float
    theta_l: float
    k_l: float
    b_parallel: float = 0.0
    b_perp: float = 0.0
    gyro: float = 1.0

    def __post_init__(self):
        if self.u1 <= 0:
            raise ValueError("u1 must be > 0")
        if self.k_l <= 0:
            raise ValueError("k_l must be > 0")


def _bipotential(params: LatticeParams, th, zp) -> tuple:
    """(scalar, sigma_z, sigma_x) coefficients of U at angle th and z' = 2 k_L z."""
    scalar = -(2 * params.u1 / 3) * 2 * (1 + np.cos(th) * np.cos(zp))
    z_coef = (
        -(2 * params.u1 / 3) * np.sin(th) * np.sin(zp)
        - params.gyro / 2 * params.b_parallel
    )
    x_coef = -params.gyro / 2 * params.b_perp
    return scalar, z_coef, x_coef


def potential_matrix(z: float, params: LatticeParams) -> np.ndarray:
    """2x2 Hermitian potential at position z (basis m = +1/2, m = -1/2)."""
    scalar, z_coef, x_coef = _bipotential(params, params.theta_l, 2 * params.k_l * z)
    return np.array(
        [[scalar + z_coef, x_coef], [x_coef, scalar - z_coef]], dtype=np.complex128
    )


def modulation_depth(u1: float, theta):
    """Peak-peak depth U_p; accepts an array of angles."""
    return (4 / 3) * u1 * np.sqrt(3 * np.cos(theta) ** 2 + 1)


def separation_phase(theta):
    """k_L * dz on the continuous branch (monotone on (0, pi)); accepts arrays."""
    return np.arctan2(np.sin(theta), 2 * np.cos(theta))


@dataclass(frozen=True)
class DensityMap:
    """Adiabatic band energies over a (theta, z') grid, z' = 2 k_L z."""

    thetas: np.ndarray
    z_primes: np.ndarray
    band_lower: np.ndarray  # shape (theta, z')
    band_upper: np.ndarray


def density_map(params: LatticeParams, thetas, z_primes) -> DensityMap:
    """Eigenvalues of the bipotential over the grid (B_perp mixes the bands)."""
    thetas = np.asarray(thetas, dtype=float)
    z_primes = np.asarray(z_primes, dtype=float)
    if thetas.size == 0 or z_primes.size == 0:
        raise RangeError("density_map needs non-empty grids")
    scalar, z_coef, x_coef = _bipotential(params, thetas[:, None], z_primes[None, :])
    # closed-form eigenvalues of scalar*I + z_coef*sigma_z + x_coef*sigma_x
    split = np.hypot(z_coef, x_coef)
    return DensityMap(thetas, z_primes, scalar - split, scalar + split)


@dataclass(frozen=True)
class ScheduleReport:
    """Adiabaticity audit of a sampled theta(t) schedule."""

    max_rate: float
    max_depth_rate: float
    max_separation_rate: float
    threshold: float
    violations: tuple
    passed: bool


def schedule_check(times, thetas, gap: float, params: LatticeParams,
                   threshold_factor: float = 0.1) -> ScheduleReport:
    """Finite-difference rates of U_p and k_L dz along theta(t) vs. the gap.

    ``gap`` is the excitation gap E' - E0 supplied by the caller (band
    structure is out of scope here), an angular frequency since hbar = 1. A
    sample violates when either rate exceeds threshold_factor * gap;
    consistent units are the caller's responsibility.
    """
    times = np.asarray(times, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if times.shape != thetas.shape or times.ndim != 1 or times.size < 2:
        raise RangeError("schedule needs matching 1-D time and theta samples (>= 2)")
    if np.any(np.diff(times) <= 0):
        raise NonMonotoneTime("time samples must be strictly increasing")
    if gap <= 0:
        raise RangeError("gap must be > 0")
    depth = modulation_depth(params.u1, thetas)
    separation = np.unwrap(separation_phase(thetas))
    depth_rate = np.abs(np.gradient(depth, times))
    separation_rate = np.abs(np.gradient(separation, times))
    threshold = threshold_factor * gap
    bad = (depth_rate > threshold) | (separation_rate > threshold)
    violations = tuple(int(i) for i in np.flatnonzero(bad))
    return ScheduleReport(
        max_rate=float(max(depth_rate.max(), separation_rate.max())),
        max_depth_rate=float(depth_rate.max()),
        max_separation_rate=float(separation_rate.max()),
        threshold=float(threshold),
        violations=violations,
        passed=not violations,
    )
