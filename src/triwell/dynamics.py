"""Time-evolution engines (hbar = 1 throughout; rates in rad/time).

Three propagators cover the dynamics used by the protocol:

* self-collision phases  exp(-i [e0 n + kappa n(n-1)] t)      (diagonal, exact)
* cross-collision phases exp(-i 2 g m n t) between two modes  (diagonal, exact)
* tunnelling between two wells under
      H = e0 (n_c + n_b) + (omega/2)(c^dag b + b^dag c)
          + kappa [(c^dag)^2 c^2 + (b^dag)^2 b^2]
  which conserves n_c + n_b: every pair evolution is one exact product over
  the tridiagonal total-number sectors, packed two to ``dim`` states.

The sector eigensystem (~dim^3 floats) is built inside each call that uses
it and released when that call returns; no pair eigensystem is kept between
calls. A time grid is evolved from one eigensystem by one call
(``josephson_evolutions``).

``oracle_evolve`` is the independent ground truth: it assembles the dense
Hamiltonian from a small term vocabulary and exponentiates it by full
eigendecomposition. The analytic propagators are validated against it in the
test suite, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionTooLarge, ShapeMismatch
from .fock import FockCutoff, StateVector, _check_mode, apply_mode_phases

ORACLE_DIMENSION_CAP = 4096


@dataclass(frozen=True)
class KerrParams:
    """Single-well rates: mode frequency e0 = E0/hbar and self-collision kappa.

    kappa = 0 is allowed (pure tunnelling); operations that need a finite
    collision time pi/(2 kappa) check positivity themselves.
    """

    e0_over_hbar: float
    kappa: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


@dataclass(frozen=True)
class JosephsonParams:
    """Tunnelling frequency omega between two neighbouring wells.

    omega = 0 (decoupled wells) is accepted; readouts that evolve for a
    quarter tunnelling period pi/(2 omega) require omega > 0 themselves.
    """

    omega: float

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be >= 0")


@dataclass(frozen=True)
class CrossSpeciesParams:
    """Cross-collision rate lam between the two atomic species."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be > 0")


def kerr_phases(dim: int, params: KerrParams, t: float) -> np.ndarray:
    n = np.arange(dim)
    return np.exp(-1j * (params.e0_over_hbar * n + params.kappa * n * (n - 1)) * t)


def evolve_self_kerr(state: StateVector, mode: int, params: KerrParams,
                     t: float) -> StateVector:
    """Diagonal self-collision evolution exp(-i [e0 n + kappa n(n-1)] t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return apply_mode_phases(state, mode, kerr_phases(state.dim, params, t))


def _pair_modes(state: StateVector, modes: tuple, what: str) -> tuple:
    i, j = modes
    if i == j:
        raise ShapeMismatch(f"{what} needs two distinct modes")
    _check_mode(state, i)
    _check_mode(state, j)
    return i, j


def evolve_cross_kerr(state: StateVector, modes: tuple, rate: float,
                      t: float) -> StateVector:
    """Cross-collision phases exp(-i 2 rate m n t) on a mode pair.

    The identical-particle cross-collision carries the factor two; callers
    modelling distinguishable species pass ``rate = lam / 2``.
    """
    i, j = _pair_modes(state, modes, "cross-collision")
    if t < 0:
        raise ValueError("t must be >= 0")
    d = state.dim
    m = np.arange(d)
    phases = np.exp(-1j * 2.0 * rate * t * np.outer(m, m))
    view = np.moveaxis(state.tensor_view(), (i, j), (0, 1))
    shape = (d, d) + (1,) * (state.modes - 2)
    out = np.moveaxis(view * phases.reshape(shape), (0, 1), (i, j))
    return state.replace_amplitudes(out.ravel())


# ---------------------------------------------------------------------------
# tunnelling propagator, block diagonal per total particle number


class _Sectors(NamedTuple):
    """Eigensystems of the pair Hamiltonian per total-number sector N, two
    sectors to a pack of ``dim`` states. Sector N holds |n, N - n> for
    max(0, N - dim + 1) <= n <= min(N, dim - 1), so sectors b and b + dim
    hold the n <= b and the n > b: pack b holds |n, (b - n) mod dim> at
    place n, whose flat pair index is ``index[b, n] = n*dim + (b - n) mod
    dim``, and every pair state is in one pack. ``vals`` and the real,
    block-diagonal ``vecs`` of a pack are the eigensystems of its sectors."""

    index: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray


def _josephson_sectors(dim: int, omega: float, e0: float, kappa: float) -> _Sectors:
    """Eigensystems of every sector of the pair Hamiltonian, packed. Built
    anew on each call; the caller drops them when it returns."""
    vals, vecs = np.zeros((dim, dim)), np.zeros((dim, dim, dim))
    for total in range(2 * dim - 1):
        ns = np.arange(max(0, total - (dim - 1)), min(total, dim - 1) + 1)
        diag = e0 * total + kappa * (ns * (ns - 1.0) + (total - ns) * (total - ns - 1.0))
        hop = omega / 2 * np.sqrt((ns[:-1] + 1.0) * (total - ns[:-1]))
        block = np.diag(diag) + np.diag(hop, 1) + np.diag(hop, -1)
        b, at = total % dim, slice(ns[0], ns[-1] + 1)
        vals[b, at], vecs[b, at, at] = np.linalg.eigh(block)
    n = np.arange(dim)
    return _Sectors(n * dim + (n[:, None] - n) % dim, vals, vecs)


def _spectral(packs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``V^T`` on a (packs, dim, k) complex array, with the real
    eigenvectors V applied to the real and imaginary parts at once."""
    return np.matmul(vecs.transpose(0, 2, 1), packs.view(float)).view(complex)


def _from_spectral(spectral: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                   t: float) -> np.ndarray:
    """``V e^{-i lambda t}`` on the spectral packs ``V^T packs``."""
    phased = spectral * np.exp(-1j * t * vals)[..., None]
    return np.matmul(vecs, phased.view(float)).view(complex)


def josephson_evolutions(state: StateVector, modes: tuple, jp: JosephsonParams,
                         kp: KerrParams, times, read) -> list:
    """``[read(U(t) state, t) for t in times]``: exact tunnelling +
    self-collision evolution on a mode pair to each time, by sector pack.
    One sector eigensystem and one spectral transform ``V^T`` of the pair
    view serve every time; both are dropped on return, and each evolved
    state lives only until ``read`` returns."""
    i, j = _pair_modes(state, modes, "tunnelling")
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("t must be >= 0")
    d = state.dim
    index, vals, vecs = _josephson_sectors(d, jp.omega, kp.e0_over_hbar, kp.kappa)
    view = np.moveaxis(state.tensor_view(), (i, j), (0, 1))
    flat = view.reshape(d * d, -1)
    spectral = _spectral(flat[index], vecs)
    reads = []
    for t in times:
        out = np.empty_like(flat)
        out[index] = _from_spectral(spectral, vals, vecs, t)
        evolved = np.moveaxis(out.reshape(view.shape), (0, 1), (i, j))
        reads.append(read(state.replace_amplitudes(evolved.ravel()), t))
    return reads


def evolve_josephson(state: StateVector, modes: tuple, jp: JosephsonParams,
                     kp: KerrParams, t: float) -> StateVector:
    """Exact tunnelling + self-collision evolution on a mode pair, by sector
    pack: ``josephson_evolutions`` at the one time t, so its eigensystem
    lives for this call alone."""
    return josephson_evolutions(state, modes, jp, kp, (t,), lambda evolved, _: evolved)[0]


def josephson_collision_columns(cutoff: FockCutoff, jp: JosephsonParams,
                                kp: KerrParams, t: float, reference: np.ndarray,
                                basis: np.ndarray) -> np.ndarray:
    """Rows ``U(t) (basis (x) |reference>)`` of the pair propagator: the
    (dim^2, r) map from a signal mode's coefficients over ``basis`` (dim x r,
    orthonormal columns) onto the coupled signal+reference pair after
    tunnelling for time t. The identity basis gives the d columns
    U (|n> (x) |reference>). One ``V e^{-i lambda t} V^T`` product over the
    sector packs of ``_josephson_sectors``, which hold every pair state once,
    on the input ``basis[n] reference[N - n]`` of each sector state. The
    eigensystem is built for this call and dropped when it returns.
    """
    d = cutoff.dim
    if reference.shape != (d,) or basis.ndim != 2 or len(basis) != d:
        raise ShapeMismatch("reference vector or basis has the wrong dimension")
    basis = np.ascontiguousarray(basis)  # the packs are viewed as float pairs
    index, vals, vecs = _josephson_sectors(d, jp.omega, kp.e0_over_hbar, kp.kappa)
    # pack b holds |n, (b - n) mod d>
    inputs = np.multiply(basis, reference[index % d][..., None], dtype=complex)
    rows = np.empty((d * d, basis.shape[1]), dtype=np.complex128)
    rows[index] = _from_spectral(_spectral(inputs, vecs), vals, vecs, t)
    return rows


# ---------------------------------------------------------------------------
# dense oracle

_TERM_ARITY = {"number": 1, "kerr": 1, "cross_kerr": 2, "exchange": 2}


@dataclass(frozen=True)
class HamiltonianTerm:
    """One term of the oracle vocabulary.

    kinds: ``number`` -> n_i; ``kerr`` -> n_i(n_i - 1); ``cross_kerr`` ->
    n_i n_j; ``exchange`` -> (c_i^dag c_j + h.c.), each times ``coefficient``.
    """

    kind: str
    modes: tuple
    coefficient: float

    def __post_init__(self):
        if self.kind not in _TERM_ARITY:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if len(self.modes) != _TERM_ARITY[self.kind]:
            raise ValueError(f"term {self.kind!r} takes {_TERM_ARITY[self.kind]} mode(s)")
        if self.kind in ("cross_kerr", "exchange") and self.modes[0] == self.modes[1]:
            raise ValueError(f"term {self.kind!r} needs two distinct modes")


def build_hamiltonian(terms, modes: int, cutoff: FockCutoff) -> np.ndarray:
    """Dense Hamiltonian over the full lexicographic product basis."""
    d = cutoff.dim
    dim_total = d**modes
    occ = np.indices((d,) * modes).reshape(modes, dim_total)
    ham = np.zeros((dim_total, dim_total), dtype=np.complex128)
    diag = np.zeros(dim_total)
    for term in terms:
        if term.kind == "number":
            diag += term.coefficient * occ[term.modes[0]]
        elif term.kind == "kerr":
            n = occ[term.modes[0]]
            diag += term.coefficient * n * (n - 1)
        elif term.kind == "cross_kerr":
            diag += term.coefficient * occ[term.modes[0]] * occ[term.modes[1]]
    ham[np.diag_indices(dim_total)] = diag
    lower = np.diag(np.sqrt(np.arange(1, d)), -1)  # a^dag in one mode
    eye = np.eye(d)
    for term in terms:
        if term.kind != "exchange":
            continue
        i, j = term.modes
        factors_i = [lower if k == i else (lower.T if k == j else eye) for k in range(modes)]
        hop = factors_i[0]
        for f in factors_i[1:]:
            hop = np.kron(hop, f)
        ham += term.coefficient * (hop + hop.conj().T)
    return ham


def oracle_evolve(state: StateVector, terms, t: float) -> StateVector:
    """Brute-force exp(-iHt) via dense eigendecomposition (the ground truth).

    Refuses (``DimensionTooLarge``) a state of more than
    ``ORACLE_DIMENSION_CAP`` amplitudes before building the Hamiltonian.
    """
    dim_total = state.dim**state.modes
    if dim_total > ORACLE_DIMENSION_CAP:
        raise DimensionTooLarge(
            f"oracle refuses dimension {dim_total} > cap {ORACLE_DIMENSION_CAP}"
        )
    for term in terms:
        for m in term.modes:
            if not 0 <= m < state.modes:
                raise ShapeMismatch(f"term mode {m} out of range")
    ham = build_hamiltonian(terms, state.modes, state.cutoff)
    vals, vecs = np.linalg.eigh(ham)
    out = (vecs * np.exp(-1j * vals * t)) @ (vecs.conj().T @ state.amplitudes)
    return state.replace_amplitudes(out)
