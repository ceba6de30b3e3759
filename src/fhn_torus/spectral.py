"""Closed-form spectrum of the lattice linearized at the origin.

The origin Jacobian is block circulant in both lattice directions, so
its eigenvectors are discrete Fourier vectors: for each frequency pair
(r, s) the 2x2 symbol

    [[ A(r, s), -1 ],
     [ b,       -c ]],   A(r, s) = -a + gamma*(1 - w^r) + delta*(1 - w^s)

carries two eigenvalues

    lambda_{(r,s),+-} = ((A - c) +- sqrt((A + c)^2 - 4b)) / 2

with the principal square root; the root of smaller modulus is taken
as their product b - A c over the larger, which keeps its digits where
the difference cancels (|A| >> sqrt(b)).  :func:`symbol_grid` and
:func:`_roots` are the only evaluations of A and of the roots (a
negative real radicand maps to the positive imaginary axis; roots that
overflow are refused); per-mode functions take the roots of their grid
entry alone, so that a mode whose roots are finite is read where those
of other modes overflow.  Conjugation pairs the + branch of (r, s)
with the + branch of (-r, -s).  :func:`spectrum_report` checks each
closed-form pair against the lattice field's own linear weights: cell
by cell in the x row, the only one the coupling enters, and per mode
in the y row.  A frequency (r, s) is a pair of integers, read mod N; an
entry that is not an integer (numpy integers are) raises DomainError
naming the frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (LatticeParams, _cell_shift, _linear_weights, _mode_blocks, _mode_vector,
                    _shift_of)

__all__ = [
    "EigenRecord",
    "coupling_symbol",
    "symbol_grid",
    "analytic_eigenvalues",
    "eigenvalue_grids",
    "analytic_eigenvector",
    "spectrum_report",
    "genericity_violations",
]


def symbol_grid(lp: LatticeParams) -> np.ndarray:
    """A(r, s) for all frequencies as an (n, n) complex array.

    Couplings that overflow it leave entries that are not finite, with
    no numpy warning; its readers refuse them.
    """
    n = lp.n
    w = np.exp(2j * np.pi * np.arange(n) / n)
    with np.errstate(over="ignore", invalid="ignore"):
        gr = lp.gamma * (1.0 - w)
        ds = lp.delta * (1.0 - w)
        return -lp.a + gr[:, None] + ds[None, :]


def _roots(A, b: float, c: float):
    """(lambda_+, lambda_-) of the symbol [[A, -1], [b, -c]], scalar or array A.

    A root that is not finite, as where (A + c)^2 overflows (|A| from
    about 1e154), raises DomainError, with no numpy warning.
    """
    A = np.asarray(A, dtype=complex)
    with np.errstate(all="ignore"):  # refused below; 0 / 0 also at a tie
        rad = (A + c) ** 2 - 4.0 * b
        # Force +0.0 imaginary part so the principal branch edge is the
        # positive imaginary axis.
        rad = np.where(rad.imag == 0.0, rad.real + 0.0j, rad)
        root = np.sqrt(rad)
        s = A - c
        plus, minus = 0.5 * (s + root), 0.5 * (s - root)
        # the smaller is the determinant over the larger; at equal moduli
        # neither difference cancels, and both stay
        ap, am = abs(plus), abs(minus)
        plus_smaller = ap < am
        smaller = (b - A * c) / np.where(plus_smaller, minus, plus)
    lam_p, lam_m = np.where(plus_smaller, smaller, plus), np.where(am < ap, smaller, minus)
    if not (np.isfinite(lam_p).all() and np.isfinite(lam_m).all()):
        raise DomainError("the closed-form eigenvalues overflow: "
                          "the couplings are too large against b")
    return lam_p, lam_m


# Two eigenvalues, or two symbols, closer than this count as coincident.
_COINCIDENCE_TOL = 1e-12


def eigenvalue_grids(lp: LatticeParams):
    """(lambda_+, lambda_-) over the full frequency grid, shape (n, n) each."""
    return _roots(symbol_grid(lp), lp.b, lp.c)


def _entry(lp: LatticeParams, r: int, s: int) -> np.ndarray:
    """A(r, s) as an array of one entry, whose roots then take the
    grid's array arithmetic bit for bit; numpy's scalar arithmetic
    differs in the last bits."""
    r, s = _shift_of((r, s), "frequency")
    return symbol_grid(lp)[[r % lp.n], [s % lp.n]]


def coupling_symbol(r: int, s: int, lp: LatticeParams) -> complex:
    """A(r, s), the scalar the coupling contributes at frequency (r, s)."""
    return complex(_entry(lp, r, s)[0])


def analytic_eigenvalues(r: int, s: int, lp: LatticeParams):
    """Eigenvalue pair (lambda_+, lambda_-) of the symbol at (r, s)."""
    lam_p, lam_m = _roots(_entry(lp, r, s), lp.b, lp.c)
    return complex(lam_p[0]), complex(lam_m[0])


def analytic_eigenvector(r: int, s: int, branch: str, lp: LatticeParams) -> np.ndarray:
    """Eigenvector of the origin Jacobian at frequency (r, s).

    The cell (i, j) carries w^(i*r + j*s) times the 2-vector
    (1, A - lambda); the result has unit 2-norm and a real positive
    x entry in the first cell.
    """
    if branch not in ("+", "-"):
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")
    A = _entry(lp, r, s)
    return _mode_vector(r, s, lp.n, (A - _roots(A, lp.b, lp.c)["+-".index(branch)])[0])


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
    eigenvector xi, cells (x, d x), d = A - lambda, with J the field's own
    linear weights w (``model._linear_weights``): x row (w0 + w1 d - lambda)
    x + w2 x_(1,0) + w3 x_(0,1) cell by cell on one phase grid x per first
    frequency r, y row (w4 + (w5 - lambda) d) x, max|xi| = max(1, |d|) max|x|.
    The phase grids come from ``model._mode_blocks``, which builds the
    powers w^s that all r share once per call.
    ``coincident`` lists, in record order, the other (r, s, branch)
    triples whose eigenvalue agrees to 1e-12; nonempty entries indicate
    degeneracy across distinct frequencies.
    """
    n = lp.n
    A = symbol_grid(lp)
    lam = np.stack(_roots(A, lp.b, lp.c), axis=-1)
    d = A[..., None] - lam
    w = _linear_weights(lp)
    succ = {2: _cell_shift((1, 0), n), 3: _cell_shift((0, 1), n)}
    cx = w[0] + w[1] * d - lam  # per mode, the x row's factor of x
    # buffers kept for the call; take fills g unbuffered only in "clip" mode
    g = np.empty((n, 1, n * n), complex)
    rx, ax, res = np.empty((n, 2, n * n), complex), np.empty((n, 2, n * n)), np.empty((n, n, 2))
    for r, x in enumerate(_mode_blocks(n)):
        np.multiply(cx[r, :, :, None], x, out=rx)
        for k, sk in succ.items():
            rx += np.multiply(x.take(sk, axis=-1, out=g, mode="clip"), w[k], out=g)
        res[r] = np.abs(rx, out=ax).max(-1)
        res[r] /= np.abs(x, out=ax[:, :1]).max(-1)
    res = np.maximum(res, np.abs(w[4] + (w[5] - lam) * d)) / np.maximum(1.0, np.abs(d))
    eigs, rhos = iter(lam.ravel().tolist()), iter(res.ravel().tolist())
    recs = [EigenRecord(r, s, b, next(eigs), next(rhos), ())
            for r in range(n) for s in range(n) for b in "+-"]
    # pairs come sorted, so every coincident tuple grows in record order
    for i, j in _coincident_pairs(lam.reshape(-1), _COINCIDENCE_TOL):
        if i // 2 != j // 2:
            for rec, other in ((recs[i], recs[j]), (recs[j], recs[i])):
                rec.coincident += ((other.r, other.s, other.branch),)
    return recs


def genericity_violations(lp: LatticeParams):
    """Frequency pairs whose characteristic polynomials coincide.

    With c = 0 and b != 0 two frequencies share an eigenvalue exactly
    when gamma*(w^r - w^rt) = delta*(w^st - w^s), that is when
    A(r, s) = A(rt, st); returns all unordered pairs whose symbols
    agree within the coincidence tolerance 1e-12 of
    :func:`spectrum_report`, in lexicographic order.  Couplings that
    overflow the symbols raise DomainError.
    """
    if lp.c != 0.0:
        raise DomainError("genericity test requires c = 0")
    if lp.b == 0.0:
        raise DomainError("genericity test requires b != 0")
    n = lp.n
    sym = symbol_grid(lp).ravel()
    if not np.isfinite(sym).all():
        raise DomainError("the couplings overflow the coupling symbols")
    return [(divmod(i, n), divmod(j, n)) for i, j in _coincident_pairs(sym, _COINCIDENCE_TOL)]

