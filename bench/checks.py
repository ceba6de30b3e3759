"""Output checks for the benchmark workloads, and the references they use.

Every reference here is computed without calling the package function
whose output it checks: closed forms from the paper (a*, the primary
crossing mode, psi, the origin spectrum), the linearized lattice field
applied directly on the grid, and a fixed-step integration of a single
cell.  Each check takes a plain summary of a result and returns a list
of failure messages; an empty list means the output is correct.
Tolerances follow the tier-1 tests and the acceptance battery.
"""

from __future__ import annotations

import math

import numpy as np

PERIOD_RTOL = 1e-6
RESIDUAL_TOL = 1e-10
BISECTION_TOL = 1e-8
PSI_TOL = 1e-8
EIGEN_TOL = 1e-10
PROBE_LABELS = ("subcritical", "supercritical", "undetermined")
RESIDUAL_CHUNK = 64  # modes per vectorized block in lattice_residuals
CELL_STEP = 0.01     # fixed RK4 step of the single-cell reference
CELL_T_END = 400.0   # long enough for the cell to settle on its cycle


# ---------------------------------------------------------------- references

def theta(n: int) -> float:
    return (n - 1) * math.pi / n


def a_star(n: int, gamma: float, delta: float) -> float:
    """Critical a at c = 0 from the sign of each coupling weight."""
    f = 1.0 - math.cos(theta(n))
    if gamma < 0 and delta < 0:
        return 0.0
    if gamma > 0 and delta < 0:
        return gamma * f
    if gamma < 0 and delta > 0:
        return delta * f
    return (gamma + delta) * f


def wave_primary_mode(n: int) -> tuple:
    """Leading crossing mode of the (+,-) pattern: r = (N+1)/2, s = 0."""
    return ((n + 1) // 2, 0)


def symbol(n, a, gamma, delta, r, s) -> complex:
    w = complex(math.cos(2 * math.pi / n), math.sin(2 * math.pi / n))
    return -a + gamma * (1 - w ** r) + delta * (1 - w ** s)


def psi(x: float, b: float, c: float) -> float:
    return (b - c * x) * (c - x) ** 2 / (c * x)


def eigenvalue_pairs(n, a, b, c, gamma, delta) -> np.ndarray:
    """Both roots of the 2x2 symbol at every (r, s), shape (n, n, 2)."""
    k = np.arange(n)
    w = np.exp(2j * np.pi * k / n)
    A = -a + gamma * (1 - w)[:, None] + delta * (1 - w)[None, :]
    root = np.sqrt((A + c) ** 2 - 4 * b + 0j)
    return np.stack([(A - c + root) / 2, (A - c - root) / 2], axis=-1)


def lattice_residuals(n, a, b, c, gamma, delta, eig: np.ndarray) -> np.ndarray:
    """Residual of each eigenvalue against the linearized lattice field.

    For mode (r, s) the x grid is w^(i r + j s) and y = (A - lambda) x,
    which satisfies the x equation exactly; the y equation
    y' = b x - c y then holds only if lambda is an eigenvalue.  The
    linearization is applied on the grid with index shifts, without
    Fourier structure.  eig has shape (n, n, 2); returns the same shape.
    """
    k = np.arange(n)
    w = np.exp(2j * np.pi / n)
    rr, ss = np.meshgrid(k, k, indexing="ij")
    modes = np.stack([rr.ravel(), ss.ravel()], axis=1)
    lams = eig.reshape(n * n, 2)
    out = np.empty((n * n, 2))
    chunk = RESIDUAL_CHUNK
    for lo in range(0, n * n, chunk):
        m = modes[lo:lo + chunk]
        # grid axes (j, i): cell (i, j), right neighbour i+1, upper j+1
        X = w ** (m[:, 0, None, None] * k[None, None, :]
                  + m[:, 1, None, None] * k[None, :, None])
        A = np.array([symbol(n, a, gamma, delta, r, s) for r, s in m])
        for br in range(2):
            lam = lams[lo:lo + chunk, br]
            Y = (A - lam)[:, None, None] * X
            Jx = (-a * X + gamma * (X - np.roll(X, -1, axis=2))
                  + delta * (X - np.roll(X, -1, axis=1)) - Y)
            Jy = b * X - c * Y
            lam3 = lam[:, None, None]
            err = np.maximum(np.abs(Jx - lam3 * X).max(axis=(1, 2)),
                             np.abs(Jy - lam3 * Y).max(axis=(1, 2)))
            scale = np.maximum(1.0, np.abs(A - lam))
            out[lo:lo + chunk, br] = err / scale
    return out.reshape(n, n, 2)


def single_cell_cycle(a: float, b: float, c: float) -> tuple:
    """Limit cycle of one uncoupled cell by classical RK4.

    Starts at (0.25, 0), integrates with a fixed step and returns the
    last interval between upward zero crossings of y, each located by
    bisection on the cubic Hermite interpolant of the step, and the
    state (x, y) at the end of the step that holds the last crossing.
    """
    def f(x, y):
        return x * (a - x) * (x - 1.0) - y, b * x - c * y

    h = CELL_STEP
    x, y, t = 0.25, 0.0, 0.0
    crossings = []
    for _ in range(int(round(CELL_T_END / h))):
        k1x, k1y = f(x, y)
        k2x, k2y = f(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = f(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = f(x + h * k3x, y + h * k3y)
        xn = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        yn = y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        if y < 0.0 <= yn:
            d0, d1 = k1y, f(xn, yn)[1]
            lo, hi = 0.0, 1.0
            for _ in range(60):
                u = 0.5 * (lo + hi)
                val = ((1 + 2 * u) * (1 - u) ** 2 * y + u * (1 - u) ** 2 * h * d0
                       + u * u * (3 - 2 * u) * yn + u * u * (u - 1) * h * d1)
                lo, hi = (u, hi) if val < 0.0 else (lo, u)
            crossings.append(t + h * 0.5 * (lo + hi))
            on_cycle = (xn, yn)
        x, y, t = xn, yn, t + h
    if len(crossings) < 3:
        raise RuntimeError("single cell did not settle on a cycle")
    return crossings[-1] - crossings[-2], on_cycle


# -------------------------------------------------------------------- checks

def check_orbit(s: dict, ref_period: float) -> list:
    """Near-synchronous start: a fully symmetric orbit at the cell period."""
    if not s["found"]:
        return ["no periodic orbit detected"]
    bad = []
    if not (s["spatial"] == s["fixing"] == "Gamma"):
        bad.append(f"symmetry H={s['spatial']} K={s['fixing']}, want Gamma")
    rel = abs(s["period"] - ref_period) / ref_period
    if not rel <= PERIOD_RTOL:
        bad.append(f"period {s['period']!r} off the cell period "
                   f"{ref_period!r} by {rel:.2e} relative")
    return bad


def check_probe_sync(s: dict) -> list:
    """(-,-) branch at c = 0, as tier-1 asserts it."""
    bad = []
    if s["verdict"] != "subcritical":
        bad.append(f"verdict {s['verdict']!r}, want 'subcritical'")
    if not s["samples"] or not all(da < 0.0 for da, _ in s["samples"]):
        bad.append(f"no below-side orbit samples: {s['samples']!r}")
    above = [o for side, o in s["runs"] if side == "above"]
    if not above or any(o != "decay" for o in above):
        bad.append(f"above-side runs {above!r}, want decay")
    return bad


def check_probe_wave(s: dict, ref: dict) -> list:
    """(+,-) crossing at c > 0 against the closed forms."""
    bad = []
    if tuple(s["mode"]) != tuple(ref["mode"]):
        bad.append(f"mode {s['mode']!r}, want primary {ref['mode']!r}")
    if not s["a_hat"] < ref["a_star"]:
        bad.append(f"a_hat {s['a_hat']!r} not below a* {ref['a_star']!r}")
    else:
        y = symbol(ref["n"], s["a_hat"], ref["gamma"], ref["delta"],
                   *s["mode"]).imag
        gap = abs(y * y - psi(ref["a_star"] - s["a_hat"], ref["b"], ref["c"]))
        if not gap <= PSI_TOL:
            bad.append(f"|y^2 - psi| = {gap:.2e} > {PSI_TOL}")
    if s["verdict"] not in PROBE_LABELS:
        bad.append(f"verdict {s['verdict']!r} is not a probe label")
    return bad


def check_spectrum(s: dict, p: dict) -> list:
    """Report eigenvalues, residuals and ordering for one lattice."""
    n = p["n"]
    eig = np.asarray(s["eig"])
    if eig.shape != (n, n, 2):
        return [f"spectrum has shape {eig.shape}, want {(n, n, 2)}"]
    bad = []
    if not s["max_residual"] <= RESIDUAL_TOL:
        bad.append(f"max residual {s['max_residual']:.2e} > {RESIDUAL_TOL}")
    ref = eigenvalue_pairs(n, p["a"], p["b"], p["c"], p["gamma"], p["delta"])
    # compare each (r, s) as an unordered pair, whatever the branch labels
    got = np.sort_complex(eig.reshape(-1, 2)).reshape(eig.shape)
    want = np.sort_complex(ref.reshape(-1, 2)).reshape(ref.shape)
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if not err <= EIGEN_TOL:
        bad.append(f"eigenvalues differ from the closed form by {err:.2e}")
    res = float(np.max(lattice_residuals(n, p["a"], p["b"], p["c"],
                                         p["gamma"], p["delta"], eig)))
    if not res <= RESIDUAL_TOL:
        bad.append(f"lattice residual {res:.2e} > {RESIDUAL_TOL}")
    return bad


def check_critical(s: dict, p: dict) -> list:
    """c = 0: closed-form a*, bisection agreement, generic couplings."""
    ref = a_star(p["n"], p["gamma"], p["delta"])
    bad = []
    if not abs(s["a_star"] - ref) <= 1e-12 * max(1.0, abs(ref)):
        bad.append(f"a* {s['a_star']!r}, closed form {ref!r}")
    if not abs(s["a_bisect"] - ref) <= BISECTION_TOL:
        bad.append(f"|bisection - a*| = {abs(s['a_bisect'] - ref):.2e}")
    if s["violations"] != 0:
        bad.append(f"{s['violations']} genericity violations at generic couplings")
    return bad


def check_crossing(s: dict, p: dict) -> list:
    """c > 0: a_hat below a*, psi identity, origin marginal at a_hat."""
    ref = a_star(p["n"], p["gamma"], p["delta"])
    bad = []
    if not s["a_hat"] < ref:
        return [f"a_hat {s['a_hat']!r} not below a* {ref!r}"]
    y = symbol(p["n"], s["a_hat"], p["gamma"], p["delta"], *s["mode"]).imag
    gap = abs(y * y - psi(ref - s["a_hat"], p["b"], p["c"]))
    if not gap <= PSI_TOL:
        bad.append(f"|y^2 - psi| = {gap:.2e} > {PSI_TOL}")
    eig = eigenvalue_pairs(p["n"], s["a_hat"], p["b"], p["c"],
                           p["gamma"], p["delta"])
    margin = float(eig.real.max())
    if not abs(margin) <= 1e-9:
        bad.append(f"spectral abscissa {margin:.2e} at a_hat, want 0")
    return bad


def check_cli(cmd: str, code: int, out: dict, p: dict) -> list:
    """One CLI subcommand: exit code and the content of its report."""
    if code != 0:
        return [f"{cmd} exited with {code}"]
    if cmd == "critical":
        ref = a_star(p["n"], p["gamma"], p["delta"])
        if not abs(out["a_star"] - ref) <= 1e-12 * max(1.0, abs(ref)):
            return [f"critical a* {out['a_star']!r}, closed form {ref!r}"]
        if not out["numeric_cross_check"]["abs_diff"] <= BISECTION_TOL:
            return ["critical numeric cross-check off"]
    elif cmd == "spectrum":
        n, recs = p["n"], out["records"]
        if len(recs) != 2 * n ** 2:
            return [f"spectrum has {len(recs)} records"]
        eig = np.array([complex(r["eigenvalue"]["re"], r["eigenvalue"]["im"])
                        for r in recs]).reshape(n, n, 2)
        return check_spectrum({"eig": eig, "max_residual": out["max_residual"]}, p)
    elif cmd == "hopf":
        rep = out["report"]
        bad = check_crossing({"a_hat": rep["a_hat"], "mode": rep["mode"]}, p)
        if bad:
            return bad
        r, s = rep["mode"]
        lam = eigenvalue_pairs(p["n"], rep["a_hat"], p["b"], p["c"],
                               p["gamma"], p["delta"])[r, s]
        omega = float(abs(lam[np.argmax(lam.real)].imag))  # the crossing root
        if not abs(rep["omega_hopf"] - omega) <= EIGEN_TOL * max(1.0, omega):
            return [f"hopf frequency {rep['omega_hopf']!r}, closed form {omega!r}"]
    elif cmd == "simulate":
        if out["rows"] < 2 or out["columns"] != 1 + 2 * p["n"] ** 2:
            return [f"simulate CSV has {out['rows']} rows, "
                    f"{out['columns']} columns"]
    elif cmd == "classify":
        sym = out.get("symmetry")
        if sym is None:
            return ["classify found no orbit"]
        phase = sym["phase_fractions"].get("1,0")
        if sym["fixing"] != "Z(0,1)" or phase not in ("1/3", "2/3"):
            return [f"classify K={sym['fixing']} phase(1,0)={phase}, "
                    "want Z(0,1) with 1/3 or 2/3"]
    elif cmd == "sweep":
        if len(out["rows"]) != p["points"]:
            return [f"sweep has {len(out['rows'])} rows, want {p['points']}"]
        failed = [r for r in out["rows"] if r[-1] == "failed"]
        if failed:
            return [f"{len(failed)} sweep rows failed"]
    return []


def check_same_bytes(digests: dict) -> list:
    """Each command's report bytes must repeat across passes of a run."""
    return [f"{cmd} report bytes differ between passes"
            for cmd, seen in digests.items() if len(set(seen)) > 1]
