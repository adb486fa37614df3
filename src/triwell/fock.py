"""Truncated multimode Fock space: states, preparations, elementary operations.

Every simulation object is a pure state over ``modes`` bosonic modes, each
truncated at occupation ``n_max``. Amplitudes are stored as a flat complex
array ordered lexicographically by occupation tuple (mode 0 is the most
significant digit), i.e. ``index = sum_k n_k * (n_max+1)**(modes-1-k)``.
This ordering is part of the serialized JSON layout::

    {"modes": M, "n_max": N, "amplitudes": [[re, im], ...]}

Truncation policy
-----------------
Coherent-like preparations drop the probability mass above ``n_max``
("leakage"), renormalize, and record the dropped mass on the state, so
downstream fidelities are not polluted by sub-normalization. A preparation
refuses (``CutoffTooSmall``) when the leakage exceeds 1e-10
(``DEFAULT_MAX_LEAKAGE``), or the ``max_leakage`` that ``prepare_coherent``
and ``prepare_squeezed_vacuum`` take. The rule of thumb
``n_max >= |a|**2 + 6|a| + 10`` keeps the Poisson tail of an amplitude-``a``
coherent state below that default bound; ``FockCutoff.for_amplitude``
applies it.

States are immutable values; all operations return new states and are safe
to evaluate concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffTooSmall,
    DegenerateSuperposition,
    ShapeMismatch,
    ZeroProbabilityBranch,
)
from .rng import MIN_OUTCOME_PROBABILITY

DEFAULT_MAX_LEAKAGE = 1e-10


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode occupation cutoff; the basis per mode is {0..n_max}."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @classmethod
    def for_amplitude(cls, *amplitudes: complex) -> "FockCutoff":
        """Cutoff satisfying n_max >= |a|^2 + 6|a| + 10 for every amplitude."""
        biggest = max(abs(a) for a in amplitudes)
        return cls(math.ceil(biggest**2 + 6 * biggest + 10))


@dataclass(frozen=True)
class CoherentSpec:
    """Dimensionless coherent amplitude for one mode."""

    amplitude: complex


@dataclass(frozen=True)
class SqueezedVacuumSpec:
    """Squeezing magnitude r >= 0 and squeezing angle (radians)."""

    r: float
    phase: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeezing parameter r must be >= 0")


@dataclass(frozen=True)
class SuperpositionSpec:
    """Pre-normalization weights for A|gamma> + B|-gamma>."""

    a: complex
    b: complex
    gamma: complex


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable pure state on a truncated multimode Fock basis.

    ``leakage`` is the total probability mass discarded by truncation at
    preparation time (unitaries preserve it; tensor products combine it).
    """

    modes: int
    cutoff: FockCutoff
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = self.cutoff.dim**self.modes
        if arr.shape != (expected,):
            raise ShapeMismatch(
                f"amplitude array has shape {arr.shape}, expected ({expected},)"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.cutoff.dim

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per mode (read-only view)."""
        return self.amplitudes.reshape((self.dim,) * self.modes)

    def replace_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(self.modes, self.cutoff, amplitudes, self.leakage)


def norm(state: StateVector) -> float:
    return float(np.linalg.norm(state.amplitudes))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b>."""
    if a.modes != b.modes or a.cutoff != b.cutoff:
        raise ShapeMismatch("inner product requires matching modes and cutoff")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 -- global-phase invariant."""
    return abs(inner_product(a, b)) ** 2


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; modes of ``b`` are appended after those of ``a``."""
    if a.cutoff != b.cutoff:
        raise ShapeMismatch("tensor product requires a common cutoff")
    amps = np.kron(a.amplitudes, b.amplitudes)
    return StateVector(a.modes + b.modes, a.cutoff, amps, joint_leakage(a.leakage, b.leakage))


def joint_leakage(a: float, b: float) -> float:
    """Leakage of the tensor product of two states of leakages ``a`` and ``b``."""
    return 1.0 - (1.0 - a) * (1.0 - b)


def _check_mode(state: StateVector, mode: int) -> None:
    if not 0 <= mode < state.modes:
        raise ShapeMismatch(f"mode {mode} out of range for {state.modes}-mode state")


# ---------------------------------------------------------------------------
# preparations


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Untruncated-normalized coefficients exp(-|a|^2/2) a^n / sqrt(n!)."""
    try:
        weight = math.exp(-abs(alpha) ** 2 / 2)
    except OverflowError:  # |a|^2 past float range: no cutoff holds the state
        raise CutoffTooSmall(f"coherent amplitude {abs(alpha):.3e}: |a|^2 overflows") from None
    # c_n = (c_{n-1} alpha) (1/sqrt(n), -0.0) over the factors 1, alpha, 1/sqrt(1), alpha, ...
    # (NaN past float range), numpy's complex-by-real quotient bit for bit
    steps = np.empty(2 * dim - 1, dtype=np.complex128)
    steps[0], steps[1::2] = 1.0, alpha
    steps[2::2].real, steps[2::2].imag = 1.0 / np.sqrt(np.arange(1, dim)), -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(steps)[::2] * weight


def _finalize_preparation(raw: np.ndarray, cutoff: FockCutoff, exact_sq: float,
                          max_leakage: float, what: str) -> StateVector:
    """Renormalize ``raw``; its leakage is the share of ``exact_sq``, the
    untruncated squared norm, that the cutoff dropped."""
    kept = float(np.vdot(raw, raw).real)
    leakage = 1.0 - kept / exact_sq
    if not leakage <= max_leakage:  # a NaN, from amplitudes past float range, too
        raise CutoffTooSmall(
            f"{what}: truncation leakage {leakage:.3e} exceeds bound {max_leakage:.1e} "
            f"at n_max={cutoff.n_max}"
        )
    return StateVector(1, cutoff, raw / math.sqrt(kept), max(0.0, leakage))


def prepare_coherent(spec: CoherentSpec, cutoff: FockCutoff,
                     max_leakage: float = DEFAULT_MAX_LEAKAGE) -> StateVector:
    """Coherent state |alpha| in the truncated basis, renormalized."""
    raw = coherent_amplitudes(spec.amplitude, cutoff.dim)
    return _finalize_preparation(raw, cutoff, 1.0, max_leakage, "prepare_coherent")


def prepare_number(n: int, cutoff: FockCutoff) -> StateVector:
    """Number state |n> (exact in the truncated basis)."""
    if not 0 <= n <= cutoff.n_max:
        raise CutoffTooSmall(f"number state |{n}> does not fit below n_max={cutoff.n_max}")
    amps = np.zeros(cutoff.dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(1, cutoff, amps)


def prepare_squeezed_vacuum(spec: SqueezedVacuumSpec, cutoff: FockCutoff,
                            max_leakage: float = DEFAULT_MAX_LEAKAGE) -> StateVector:
    """Squeezed vacuum: only even occupations, P(2k) ~ (2k)! tanh^2k(r) / (2^k k!)^2 cosh r.

    Odd amplitudes are exactly zero by construction, not merely small.
    """
    dim = cutoff.dim
    raw = np.zeros(dim, dtype=np.complex128)
    th = math.tanh(spec.r)
    factor = -np.exp(1j * spec.phase) * th
    raw[0] = 1.0 / math.sqrt(math.cosh(spec.r))
    k = 1
    while 2 * k < dim:
        # c_{2k} = c_{2k-2} * factor * sqrt((2k)(2k-1)) / (2k)
        raw[2 * k] = raw[2 * k - 2] * factor * math.sqrt((2 * k) * (2 * k - 1)) / (2 * k)
        k += 1
    return _finalize_preparation(raw, cutoff, 1.0, max_leakage, "prepare_squeezed_vacuum")


def prepare_cat_superposition(spec: SuperpositionSpec, cutoff: FockCutoff) -> StateVector:
    """Normalized A|gamma> + B|-gamma>.

    The weights act as a ray: A and B are scaled by the larger of |A| and |B|
    first, so any common factor gives the same state. The normalization uses
    the exact overlap <gamma|-gamma> = exp(-2|gamma|^2) carried by the
    truncated coefficients themselves.
    """
    scale = max(abs(spec.a), abs(spec.b)) or 1.0
    a, b = spec.a / scale, spec.b / scale
    plus = coherent_amplitudes(spec.gamma, cutoff.dim)
    raw = a * plus + b * np.where(np.arange(cutoff.dim) % 2, -plus, plus)  # |-gamma>: parity flip
    # Untruncated squared norm; detects A|g> - A|g>-type cancellations exactly.
    exact_sq = (
        abs(a) ** 2 + abs(b) ** 2
        + 2 * (np.conj(a) * b).real * math.exp(-2 * abs(spec.gamma) ** 2)
    )
    if exact_sq < 1e-12:
        raise DegenerateSuperposition(
            "superposition weights cancel: unnormalized norm below 1e-12"
        )
    return _finalize_preparation(raw, cutoff, exact_sq, DEFAULT_MAX_LEAKAGE,
                                 "prepare_cat_superposition")


# ---------------------------------------------------------------------------
# measurements and marginals


def number_distribution(state: StateVector, mode: int) -> np.ndarray:
    """Marginal occupation distribution P(n) of one mode."""
    _check_mode(state, mode)
    view = np.abs(state.tensor_view()) ** 2
    axes = tuple(ax for ax in range(state.modes) if ax != mode)
    return view.sum(axis=axes)


def project_number(state: StateVector, mode: int, outcome: int):
    """Project ``mode`` onto |outcome>.

    Returns ``(probability, conditional)`` where ``conditional`` is the
    renormalized state of the remaining modes. Projection probabilities over
    all outcomes sum to one: preparations renormalize away their leakage.
    """
    _check_mode(state, mode)
    if state.modes < 2:
        raise ShapeMismatch("projection needs at least two modes to leave a remainder")
    if not 0 <= outcome <= state.cutoff.n_max:
        raise ShapeMismatch(f"outcome {outcome} outside basis 0..{state.cutoff.n_max}")
    sliced = np.take(state.tensor_view(), outcome, axis=mode)
    prob = float(np.vdot(sliced, sliced).real)
    if prob < MIN_OUTCOME_PROBABILITY:
        raise ZeroProbabilityBranch(
            f"outcome |{outcome}> on mode {mode} has probability {prob:.3e}"
        )
    conditional = StateVector(
        state.modes - 1, state.cutoff, sliced.ravel() / math.sqrt(prob), state.leakage
    )
    return prob, conditional


def mean_occupation(state: StateVector, mode: int) -> float:
    return float(number_distribution(state, mode) @ np.arange(state.dim))


def expect_annihilation(state: StateVector, mode: int) -> complex:
    """<a_mode>."""
    _check_mode(state, mode)
    view = np.moveaxis(state.tensor_view(), mode, 0)
    n = np.arange(1, state.dim)
    # <psi| a |psi> = sum_n sqrt(n) conj(psi[..,n-1,..]) psi[..,n,..]
    return complex(np.sum(np.sqrt(n)[:, None] * np.conj(view[:-1].reshape(state.dim - 1, -1))
                          * view[1:].reshape(state.dim - 1, -1)))


def expect_exchange(state: StateVector, mode_i: int, mode_j: int) -> complex:
    """<a_i^dag a_j> for two distinct modes."""
    _check_mode(state, mode_i)
    _check_mode(state, mode_j)
    if mode_i == mode_j:
        raise ShapeMismatch("expect_exchange needs two distinct modes")
    view = np.moveaxis(state.tensor_view(), (mode_i, mode_j), (0, 1))
    d = state.dim
    ni = np.sqrt(np.arange(1, d))
    # connects |n_i, n_j> -> |n_i+1, n_j-1>
    bra = np.conj(view[1:, :-1].reshape(d - 1, d - 1, -1))
    ket = view[:-1, 1:].reshape(d - 1, d - 1, -1)
    weights = ni[:, None] * ni[None, :]
    return complex(np.sum(weights[:, :, None] * bra * ket))


def quadrature_expectation(state: StateVector, mode: int, phi: float) -> float:
    """<X_phi> with X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2."""
    return float((expect_annihilation(state, mode) * np.exp(-1j * phi)).real)


# ---------------------------------------------------------------------------
# operators


def apply_mode_phases(state: StateVector, mode: int, phases: np.ndarray) -> StateVector:
    """Multiply amplitudes by ``phases[n]`` of the occupation of ``mode``."""
    _check_mode(state, mode)
    shape = [1] * state.modes
    shape[mode] = state.dim
    out = state.tensor_view() * phases.reshape(shape)
    return state.replace_amplitudes(out.ravel())


def apply_mode_matrix(state: StateVector, mode: int, matrix: np.ndarray) -> StateVector:
    """Apply a single-mode operator (dim x dim matrix) to ``mode``."""
    _check_mode(state, mode)
    if matrix.shape != (state.dim, state.dim):
        raise ShapeMismatch("single-mode matrix has the wrong dimension")
    moved = np.tensordot(matrix, state.tensor_view(), axes=([1], [mode]))
    out = np.moveaxis(moved, 0, mode)
    return state.replace_amplitudes(out.ravel())


def quadrature_eigensystem(dim: int) -> tuple:
    """``(x, W)`` with X = W diag(x) W^T for the truncated X = a + a^dag (real,
    symmetric, tridiagonal), so exp(i t X) = (W * exp(i t x)) @ W.T."""
    off = np.sqrt(np.arange(1, dim))
    return np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))


def _displacement_matrix(delta: complex, dim: int) -> np.ndarray:
    # delta a^dag - conj(delta) a = -i |delta| R X R^dag with X = a + a^dag and
    # R = diag(e^{i n (arg(delta) + pi/2)}), so D = (R W) diag(e^{-i |delta| x}) (R W)^dag
    x, w = quadrature_eigensystem(dim)
    rotated = np.exp(1j * (cmath.phase(delta) + math.pi / 2) * np.arange(dim))[:, None] * w
    return (rotated * np.exp(-1j * abs(delta) * x)) @ rotated.conj().T


def displace(state: StateVector, mode: int, delta: complex) -> StateVector:
    """Displacement D(delta) = exp(delta a^dag - conj(delta) a) on one mode.

    The exact exponential of the truncated generator, evaluated in the
    eigenbasis of the truncated quadrature a + a^dag; unitary on the
    truncated space, so the norm is preserved. Raises ``CutoffTooSmall`` when
    the result piles probability onto the top occupation shell (no headroom).
    """
    _check_mode(state, mode)
    if delta == 0:
        return state
    out = apply_mode_matrix(state, mode, _displacement_matrix(complex(delta), state.dim))
    check_displaced_top_shell(float(number_distribution(out, mode)[-1]))
    return out


def check_displaced_top_shell(top_mass: float) -> None:
    """Raise ``CutoffTooSmall`` when a displacement left more than
    ``DEFAULT_MAX_LEAKAGE`` on the n_max shell (no headroom)."""
    if top_mass > DEFAULT_MAX_LEAKAGE:
        raise CutoffTooSmall(
            f"displacement left probability {top_mass:.3e} on the n_max shell "
            f"(bound {DEFAULT_MAX_LEAKAGE:.1e}); increase the cutoff"
        )


# ---------------------------------------------------------------------------
# serialization


def state_to_dict(state: StateVector) -> dict:
    """JSON-ready layout: lexicographic amplitudes as [re, im] pairs."""
    return {
        "modes": state.modes,
        "n_max": state.cutoff.n_max,
        "amplitudes": [[float(z.real), float(z.imag)] for z in state.amplitudes],
    }


def state_from_dict(payload: dict) -> StateVector:
    """Inverse of ``state_to_dict``; reads the CLI's ``channel_state.json``."""
    amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    return StateVector(int(payload["modes"]), FockCutoff(int(payload["n_max"])), amps)
