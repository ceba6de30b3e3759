"""Closed-form spectrum of the lattice linearized at the origin.

The origin Jacobian is block circulant in both lattice directions, so
its eigenvectors are discrete Fourier vectors: for each frequency pair
(r, s) the 2x2 symbol

    [[ A(r, s), -1 ],
     [ b,       -c ]],   A(r, s) = -a + gamma*(1 - w^r) + delta*(1 - w^s)

carries two eigenvalues

    lambda_{(r,s),+-} = ((A - c) +- sqrt((A + c)^2 - 4b)) / 2

with the principal square root.  Conjugation pairs the + branch of
(r, s) with the + branch of (-r, -s).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import CellParams, LatticeParams, assemble_jacobian_origin
from .symmetry import canonical_mode

__all__ = [
    "EigenRecord",
    "principal_sqrt",
    "coupling_symbol",
    "symbol_grid",
    "analytic_eigenvalues",
    "eigenvalue_grids",
    "analytic_eigenvector",
    "spectrum_report",
    "genericity_violations",
    "uncoupled_eigenvalues",
]


def principal_sqrt(eta: complex) -> complex:
    """Principal complex square root, nonnegative real part.

    Splits the modulus to avoid cancellation; a negative real input
    maps to the positive imaginary axis.
    """
    a1, b1 = eta.real, eta.imag
    if b1 == 0.0:
        if a1 >= 0.0:
            return complex(math.sqrt(a1), 0.0)
        return complex(0.0, math.sqrt(-a1))
    m = abs(complex(a1, b1))
    re = math.sqrt(0.5 * (m + a1))
    im = math.copysign(math.sqrt(0.5 * (m - a1)), b1)
    return complex(re, im)


def coupling_symbol(r: int, s: int, lp: LatticeParams) -> complex:
    """A(r, s), the scalar the coupling contributes at frequency (r, s)."""
    w = cmath.exp(2j * cmath.pi / lp.n)
    return -lp.a + lp.gamma * (1.0 - w**r) + lp.delta * (1.0 - w**s)


def symbol_grid(lp: LatticeParams) -> np.ndarray:
    """A(r, s) for all frequencies as an (n, n) complex array."""
    n = lp.n
    w = np.exp(2j * np.pi * np.arange(n) / n)
    gr = lp.gamma * (1.0 - w)
    ds = lp.delta * (1.0 - w)
    return -lp.a + gr[:, None] + ds[None, :]


def _eig_from_symbol(A: complex, b: float, c: float):
    root = principal_sqrt((A + c) ** 2 - 4.0 * b)
    lam_p = 0.5 * ((A - c) + root)
    lam_m = 0.5 * ((A - c) - root)
    return lam_p, lam_m


def analytic_eigenvalues(r: int, s: int, lp: LatticeParams):
    """Eigenvalue pair (lambda_+, lambda_-) of the symbol at (r, s)."""
    return _eig_from_symbol(coupling_symbol(r, s, lp), lp.b, lp.c)


def eigenvalue_grids(lp: LatticeParams):
    """(lambda_+, lambda_-) over the full frequency grid, shape (n, n) each."""
    A = symbol_grid(lp)
    rad = (A + lp.c) ** 2 - 4.0 * lp.b
    # Force +0.0 imaginary part so the principal branch edge is the
    # positive imaginary axis, matching principal_sqrt.
    rad = np.where(rad.imag == 0.0, rad.real + 0.0j, rad)
    root = np.sqrt(rad)
    lam_p = 0.5 * ((A - lp.c) + root)
    lam_m = 0.5 * ((A - lp.c) - root)
    return lam_p, lam_m


def _branch_eigenvalue(r: int, s: int, branch: str, lp: LatticeParams) -> complex:
    lam_p, lam_m = analytic_eigenvalues(r, s, lp)
    if branch == "+":
        return lam_p
    if branch == "-":
        return lam_m
    raise DomainError(f"branch must be '+' or '-', got {branch!r}")


def analytic_eigenvector(r: int, s: int, branch: str, lp: LatticeParams) -> np.ndarray:
    """Eigenvector of the origin Jacobian at frequency (r, s).

    The cell (i, j) carries w^(i*r + j*s) times the 2-vector
    (1, A - lambda); the result has unit 2-norm and a real positive
    x entry in the first cell.
    """
    n = lp.n
    A = coupling_symbol(r, s, lp)
    lam = _branch_eigenvalue(r, s, branch, lp)
    v = np.array([1.0, A - lam], dtype=complex)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    xi = np.kron(w ** s, np.kron(w ** r, v))
    return xi / np.linalg.norm(xi)


@dataclass
class EigenRecord:
    """One eigenvalue of the origin Jacobian with its provenance."""

    r: int
    s: int
    branch: str
    eigenvalue: complex
    residual: float | None = None
    coincident: tuple = ()

    @property
    def mode(self):
        return (self.r, self.s)


def spectrum_report(lp: LatticeParams, compute_residuals: bool = True):
    """All 2*N^2 eigenvalues with residuals and degeneracy flags.

    Records are ordered by (r, s) lexicographically, '+' before '-'.
    ``coincident`` lists the other (r, s, branch) triples whose
    eigenvalue agrees to 1e-12; nonempty entries indicate degeneracy
    across distinct frequencies.
    """
    n = lp.n
    M = assemble_jacobian_origin(lp) if compute_residuals else None
    records = []
    for r in range(n):
        for s in range(n):
            lam_p, lam_m = analytic_eigenvalues(r, s, lp)
            for branch, lam in (("+", lam_p), ("-", lam_m)):
                res = None
                if compute_residuals:
                    xi = analytic_eigenvector(r, s, branch, lp)
                    res = float(
                        np.max(np.abs(M @ xi - lam * xi)) / np.max(np.abs(xi))
                    )
                records.append(EigenRecord(r, s, branch, lam, res))
    for i, rec in enumerate(records):
        hits = [
            (o.r, o.s, o.branch)
            for j, o in enumerate(records)
            if j != i
            and (o.r, o.s) != (rec.r, rec.s)
            and abs(o.eigenvalue - rec.eigenvalue) <= 1e-12
        ]
        rec.coincident = tuple(hits)
    return records


def genericity_violations(lp: LatticeParams, tol: float = 1e-12):
    """Frequency pairs whose characteristic polynomials coincide.

    With c = 0 and b != 0 two frequencies share an eigenvalue exactly
    when gamma*(w^r - w^rt) = delta*(w^st - w^s); returns all unordered
    pairs satisfying that identity within tol.
    """
    if lp.c != 0.0:
        raise DomainError("genericity test requires c = 0")
    if lp.b == 0.0:
        raise DomainError("genericity test requires b != 0")
    n = lp.n
    w = np.exp(2j * np.pi * np.arange(n) / n)
    modes = [(r, s) for r in range(n) for s in range(n)]
    out = []
    for i, (r, s) in enumerate(modes):
        for rt, st in modes[i + 1 :]:
            if abs(lp.gamma * (w[r] - w[rt]) - lp.delta * (w[st] - w[s])) <= tol:
                out.append(((r, s), (rt, st)))
    return out


def uncoupled_eigenvalues(p: CellParams):
    """Eigenvalue pair of a single cell linearized at the origin."""
    root = principal_sqrt(complex((p.c - p.a) ** 2 - 4.0 * p.b, 0.0))
    lam_p = 0.5 * (-(p.a + p.c) + root)
    lam_m = 0.5 * (-(p.a + p.c) - root)
    return lam_p, lam_m
