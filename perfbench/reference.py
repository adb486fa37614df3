"""Expected results for the benchmark's checks, computed without triwell.

Every formula here is taken from triwell's README "Model notes" and module
docstrings, and evaluated by a route of its own (log-gamma coefficients, a
generic 2x2 eigensolver), so a fault in triwell cannot hide in its own
reference.
"""

from __future__ import annotations

import math

import numpy as np


def coherent_coefficients(alpha: complex, dim: int) -> np.ndarray:
    """Truncated, renormalized exp(-|a|^2/2) a^n / sqrt(n!) for n < dim."""
    n = np.arange(dim)
    if alpha == 0:
        out = np.zeros(dim, dtype=complex)
        out[0] = 1.0
        return out
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    magnitude = np.exp(n * math.log(abs(alpha)) - 0.5 * log_fact - abs(alpha) ** 2 / 2)
    out = magnitude * np.exp(1j * n * np.angle(alpha))
    return out / np.linalg.norm(out)


def p_even(kind: str, parameter: float) -> float:
    """Even-count probability of the auxiliary: number n, coherent mean, squeezing r."""
    if kind == "number":
        return 1.0 if round(parameter) % 2 == 0 else 0.0
    if kind == "coherent":
        return (1 + math.exp(-2 * parameter)) / 2
    if kind == "squeezed_vacuum":
        return 1.0
    raise ValueError(f"unknown auxiliary kind {kind!r}")


def success_rate(p_even_value: float, p_d: float) -> float:
    """(1 + p_even + p_d + p_even p_d) / 4 over four equiprobable branches."""
    return (1 + p_even_value + p_d + p_even_value * p_d) / 4


def corrected_fidelity(branch: int, a: complex, b: complex, beta: complex) -> float:
    """Fidelity of a corrected trial with A|b> + B|-b>, by branch.

    1 for the no-op (0) and parity (2) branches; on the displacement branches
    (1, 3) the contracted offset delta = pi / (2 Im b) leaves
    (|A|^2 - |B|^2)^2 exp(-delta^2), with the weights normalized.
    """
    if branch in (0, 2):
        return 1.0
    weight = abs(a) ** 2 + abs(b) ** 2
    delta = math.pi / (2 * beta.imag)
    return ((abs(a) ** 2 - abs(b) ** 2) / weight) ** 2 * math.exp(-delta**2)


def branch_overlap(*amplitudes: complex) -> float:
    """exp(-2 |x|^2) for the smallest amplitude: the closed forms neglect it."""
    return math.exp(-2 * min(abs(x) for x in amplitudes) ** 2)


def channel_state(alpha: complex, beta: complex, n_max: int, j: int = 0) -> np.ndarray:
    """(1/2)[(1-i)|s alpha, s beta> + (1+i)|-s alpha, -s beta>], s = (-i)^j, flat."""
    d = n_max + 1
    s = (-1j) ** j
    plus = np.kron(coherent_coefficients(s * alpha, d), coherent_coefficients(s * beta, d))
    minus = np.kron(coherent_coefficients(-s * alpha, d), coherent_coefficients(-s * beta, d))
    state = 0.5 * ((1 - 1j) * plus + (1 + 1j) * minus)
    return state / np.linalg.norm(state)


def quarter_period_half_diff(gamma: complex, beta: complex, n_max: int) -> float:
    """|b| <X_{theta - pi/2}> of the coherent signal |gamma>, theta = arg(b).

    X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2, with <a> taken from the
    truncated coefficients.
    """
    c = coherent_coefficients(gamma, n_max + 1)
    mean_a = np.sum(np.sqrt(np.arange(1, n_max + 1)) * np.conj(c[:-1]) * c[1:])
    phi = np.angle(beta) - math.pi / 2
    return abs(beta) * float((mean_a * np.exp(-1j * phi)).real)


def lattice_bands(u1: float, b_perp: float, b_parallel: float, gyro: float,
                  thetas, z_primes) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper eigenvalues of the 2x2 bipotential over a (theta, z') grid.

    U = -(2 U1/3) {2 [1 + cos(theta) cos(z')] I + sin(theta) sin(z') sigma_z}
        - (gyro/2) (B_par sigma_z + B_perp sigma_x),  z' = 2 k_L z,
    so k_L does not enter on a grid of z'.
    """
    th = np.asarray(thetas, dtype=float)[:, None]
    zp = np.asarray(z_primes, dtype=float)[None, :]
    scalar = -(2 * u1 / 3) * 2 * (1 + np.cos(th) * np.cos(zp))
    z_coef = -(2 * u1 / 3) * np.sin(th) * np.sin(zp) - gyro / 2 * b_parallel
    x_coef = np.full_like(scalar, -gyro / 2 * b_perp)
    matrices = np.empty(scalar.shape + (2, 2))
    matrices[..., 0, 0] = scalar + z_coef
    matrices[..., 1, 1] = scalar - z_coef
    matrices[..., 0, 1] = matrices[..., 1, 0] = x_coef
    values = np.linalg.eigvalsh(matrices)
    return values[..., 0], values[..., 1]
