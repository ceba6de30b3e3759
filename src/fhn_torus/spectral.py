"""Closed-form spectrum of the lattice linearized at the origin.

The origin Jacobian is block circulant in both lattice directions, so
its eigenvectors are discrete Fourier vectors: for each frequency pair
(r, s) the 2x2 symbol

    [[ A(r, s), -1 ],
     [ b,       -c ]],   A(r, s) = -a + gamma*(1 - w^r) + delta*(1 - w^s)

carries two eigenvalues

    lambda_{(r,s),+-} = ((A - c) +- sqrt((A + c)^2 - 4b)) / 2

with the principal square root.  :func:`symbol_grid` and :func:`_roots`
are the only evaluations of A and of the roots, and per-mode functions
read grid entries.  ``_roots`` holds the principal-root convention: a
negative real radicand maps to the positive imaginary axis.
Conjugation pairs the + branch of (r, s) with the + branch of (-r, -s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import CellParams, LatticeParams, _make_jacobian_apply, _mode_vector

__all__ = [
    "EigenRecord",
    "coupling_symbol",
    "symbol_grid",
    "analytic_eigenvalues",
    "eigenvalue_grids",
    "analytic_eigenvector",
    "spectrum_report",
    "genericity_violations",
    "uncoupled_eigenvalues",
]


def symbol_grid(lp: LatticeParams) -> np.ndarray:
    """A(r, s) for all frequencies as an (n, n) complex array."""
    n = lp.n
    w = np.exp(2j * np.pi * np.arange(n) / n)
    gr = lp.gamma * (1.0 - w)
    ds = lp.delta * (1.0 - w)
    return -lp.a + gr[:, None] + ds[None, :]


def _roots(A, b: float, c: float):
    """(lambda_+, lambda_-) of the symbol [[A, -1], [b, -c]], scalar or array A."""
    A = np.asarray(A, dtype=complex)
    rad = (A + c) ** 2 - 4.0 * b
    # Force +0.0 imaginary part so the principal branch edge is the
    # positive imaginary axis.
    rad = np.where(rad.imag == 0.0, rad.real + 0.0j, rad)
    root = np.sqrt(rad)
    return 0.5 * ((A - c) + root), 0.5 * ((A - c) - root)


# Two eigenvalues, or two symbols, closer than this count as coincident.
_COINCIDENCE_TOL = 1e-12


def eigenvalue_grids(lp: LatticeParams):
    """(lambda_+, lambda_-) over the full frequency grid, shape (n, n) each."""
    return _roots(symbol_grid(lp), lp.b, lp.c)


def coupling_symbol(r: int, s: int, lp: LatticeParams) -> complex:
    """A(r, s), the scalar the coupling contributes at frequency (r, s)."""
    return complex(symbol_grid(lp)[r % lp.n, s % lp.n])


def analytic_eigenvalues(r: int, s: int, lp: LatticeParams):
    """Eigenvalue pair (lambda_+, lambda_-) of the symbol at (r, s)."""
    lam_p, lam_m = eigenvalue_grids(lp)
    return complex(lam_p[r % lp.n, s % lp.n]), complex(lam_m[r % lp.n, s % lp.n])


def analytic_eigenvector(r: int, s: int, branch: str, lp: LatticeParams) -> np.ndarray:
    """Eigenvector of the origin Jacobian at frequency (r, s).

    The cell (i, j) carries w^(i*r + j*s) times the 2-vector
    (1, A - lambda); the result has unit 2-norm and a real positive
    x entry in the first cell.
    """
    if branch not in ("+", "-"):
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")
    n = lp.n
    A = symbol_grid(lp)
    lam = _roots(A, lp.b, lp.c)["+-".index(branch)]
    return _mode_vector(r, s, n, A[r % n, s % n] - lam[r % n, s % n])


@dataclass
class EigenRecord:
    """One eigenvalue of the origin Jacobian with its provenance."""

    r: int
    s: int
    branch: str
    eigenvalue: complex
    residual: float = math.nan  # nan where no residual was computed
    coincident: tuple = ()

    @property
    def mode(self):
        return (self.r, self.s)


def _coincident_pairs(values: np.ndarray, tol: float):
    """Index pairs (i, j), i < j, with |values[i] - values[j]| <= tol.

    Sorted on the real part, an entry can only coincide with the
    following entries whose real part lies within tol; they are
    compared lag by lag until no real gap is that small.
    """
    order = np.argsort(values.real, kind="stable")
    v = values[order]
    pairs = []
    for lag in range(1, len(v)):
        near = v[lag:].real - v[:-lag].real <= tol
        if not near.any():
            break
        k = np.nonzero(near & (np.abs(v[lag:] - v[:-lag]) <= tol))[0]
        pairs += zip(order[k].tolist(), order[k + lag].tolist())
    return sorted((min(p), max(p)) for p in pairs)


def spectrum_report(lp: LatticeParams):
    """All 2*N^2 eigenvalues with residuals and degeneracy flags.

    Records are ordered by (r, s) lexicographically, '+' before '-'.
    ``residual`` is max|J xi - lambda xi| / max|xi| for the analytic
    eigenvector xi, with J applied cell by cell from its 2x2 blocks.
    ``coincident`` lists, in record order, the other (r, s, branch)
    triples whose eigenvalue agrees to 1e-12; nonempty entries indicate
    degeneracy across distinct frequencies.
    """
    n = lp.n
    A = symbol_grid(lp)
    lam = np.stack(_roots(A, lp.b, lp.c), axis=-1).reshape(-1)
    jac = _make_jacobian_apply(lp)
    records = []
    for idx, (eig, d) in enumerate(zip(lam.tolist(), np.repeat(A.ravel(), 2) - lam)):
        (r, s), branch = divmod(idx // 2, n), "+-"[idx % 2]
        xi = _mode_vector(r, s, n, d)
        res = np.max(np.abs(jac(xi) - eig * xi)) / np.max(np.abs(xi))
        records.append(EigenRecord(r, s, branch, eig, float(res)))
    # pairs come sorted, so every hit list is in record order
    hits = [[] for _ in records]
    for i, j in _coincident_pairs(lam, _COINCIDENCE_TOL):
        if i // 2 != j // 2:
            hits[i].append(records[j].mode + (records[j].branch,))
            hits[j].append(records[i].mode + (records[i].branch,))
    for rec, found in zip(records, hits):
        rec.coincident = tuple(found)
    return records


def genericity_violations(lp: LatticeParams):
    """Frequency pairs whose characteristic polynomials coincide.

    With c = 0 and b != 0 two frequencies share an eigenvalue exactly
    when gamma*(w^r - w^rt) = delta*(w^st - w^s), that is when
    A(r, s) = A(rt, st); returns all unordered pairs whose symbols
    agree within the coincidence tolerance 1e-12 of
    :func:`spectrum_report`, in lexicographic order.
    """
    if lp.c != 0.0:
        raise DomainError("genericity test requires c = 0")
    if lp.b == 0.0:
        raise DomainError("genericity test requires b != 0")
    n = lp.n
    return [
        (divmod(i, n), divmod(j, n))
        for i, j in _coincident_pairs(symbol_grid(lp).ravel(), _COINCIDENCE_TOL)
    ]


def uncoupled_eigenvalues(p: CellParams):
    """Eigenvalue pair of a single cell linearized at the origin."""
    lam_p, lam_m = _roots(-p.a, p.b, p.c)
    return complex(lam_p), complex(lam_m)
