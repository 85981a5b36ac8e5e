"""Correctness checks of the benchmark and the references they compare with.

Every check is a pure function that returns a list of failure messages,
empty when the output passes, so that ``selftest.py`` can feed each one a
deliberately wrong answer.  The references share no code with gapguide:
Bessel zeros from ``scipy.special``, a transfer-matrix solve of the layered
bulk, the closed-form symbol of the staggered curl-curl, and a dense
diagonalization of the layered guide assembled here axial harmonic by axial
harmonic.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, optimize, special

J11_SQ = float(special.jn_zeros(1, 1)[0] ** 2)   # vector nu of the unit disk
J01_SQ = float(special.jn_zeros(0, 1)[0] ** 2)   # scalar nu of the unit disk

# layered bulk of the guide workload: per unit period in x2, a slab of
# dielectric 9 and thickness 0.375 centred in background 1
LAYERS = ((9.0, 0.375), (1.0, 0.625))


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def monodromy_trace(lam: float, layers=LAYERS) -> float:
    """Trace of the one-period transfer matrix of -(u'/eps)' = lam u."""
    t = np.eye(2)
    for eps, d in layers:
        k = np.sqrt(lam * eps)
        c, s = np.cos(k * d), np.sin(k * d)
        t = np.array([[c, eps * s / k], [-k * s / eps, c]]) @ t
    return float(t[0, 0] + t[1, 1])


def first_gap(layers=LAYERS, lam_max: float = 12.0, samples: int = 2400):
    """Edges (alpha, beta) of the lowest gap of the layered bulk at k1 = 0.

    Inside a band |trace| <= 2; the edges are the first two sign changes of
    |trace| - 2, refined by Brent's method.
    """
    def g(x):
        return abs(monodromy_trace(x, layers)) - 2.0

    lams = np.linspace(1e-6, lam_max, samples)
    f = np.array([g(x) for x in lams])
    flips = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
    if len(flips) < 2:
        raise ValueError("no gap below lam_max")
    a, b = (optimize.brentq(g, lams[i], lams[i + 1], xtol=1e-14)
            for i in flips[:2])
    return a, b


def guide_eps(shape, spacing, origin, l: float, eps_strip: float):
    """Dielectric of the layered guide on the transverse cell centres.

    The guide does not vary along x1, so one column describes it: the
    layered bulk, with the cells at |x2| < l replaced by eps_strip.
    """
    x2 = origin[1] + (np.arange(shape[1]) + 0.5) * spacing[1]
    wrapped = (x2 + 0.5) % 1.0 - 0.5
    eps = np.where(np.abs(wrapped) <= LAYERS[0][1] / 2, LAYERS[0][0],
                   LAYERS[1][0])
    return np.where(np.abs(x2) < l, eps_strip, eps)


def guide_eigenvalues(eps2, n1: int, h1: float, h2: float, k1: float, window):
    """Eigenvalues in `window` of -div (1/eps) grad on the guide supercell.

    Bloch phase e^{i k1 n1 h1} along x1, zero walls in x2, face-averaged
    1/eps.  Because eps does not vary along x1, the axial harmonics
    q = k1 + 2 pi m / (n1 h1) decouple; each gives a real symmetric
    transverse matrix that is diagonalized densely.
    """
    inv = 1.0 / np.asarray(eps2, dtype=float)
    padded = np.concatenate([inv[:1], inv, inv[-1:]])
    w = 0.5 * (padded[:-1] + padded[1:])            # transverse face weights
    lap = (np.diag(w[:-1] + w[1:]) - np.diag(w[1:-1], 1)
           - np.diag(w[1:-1], -1)) / h2**2
    period = n1 * h1
    vals = []
    for m in range(n1):
        q = k1 + 2 * np.pi * m / period
        axial = (2 / h1) ** 2 * np.sin(q * h1 / 2) ** 2
        ev = linalg.eigvalsh(lap + np.diag(axial * inv))
        vals.append(ev[(ev > window[0]) & (ev < window[1])])
    return np.sort(np.concatenate(vals))


def plane_wave_symbol(mk, h: float) -> float:
    """Eigenvalue of the staggered curl-curl (eps = 1) for k = 2 pi mk."""
    k = 2 * np.pi * np.asarray(mk, dtype=float)
    return float(np.sum((2 / h) ** 2 * np.sin(k * h / 2) ** 2))


def _shift(f, axis, step):
    """f[i + step] along axis, zero outside the array."""
    out = np.zeros_like(f)
    src = [slice(None)] * f.ndim
    dst = [slice(None)] * f.ndim
    if step > 0:
        src[axis], dst[axis] = slice(step, None), slice(None, -step)
    else:
        src[axis], dst[axis] = slice(None, step), slice(-step, None)
    out[tuple(dst)] = f[tuple(src)]
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def nu_failures(extrapolated: float, order: float, scalar: float):
    """Richardson nu vs j_{1,1}^2, scalar nu vs j_{0,1}^2, observed order."""
    out = []
    if not rel(extrapolated, J11_SQ) <= 0.01:
        out.append(f"extrapolated nu {extrapolated:.6g} not within 1% of "
                   f"j11^2 = {J11_SQ:.6g}")
    if not rel(scalar, J01_SQ) <= 0.01:
        out.append(f"scalar nu {scalar:.6g} not within 1% of "
                   f"j01^2 = {J01_SQ:.6g}")
    if not 1.5 <= order <= 2.5:
        out.append(f"observed order {order:.3g} outside [1.5, 2.5]")
    return out


def test_field_failures(g, h: float, quotient: float):
    """Divergence free, unit norm, quotient >= nu (recomputed here)."""
    out = []
    g = np.asarray(g, dtype=float)
    div = ((_shift(g[0], 0, 1) - _shift(g[0], 0, -1))
           + (_shift(g[1], 1, 1) - _shift(g[1], 1, -1))) / (2 * h)
    scale = np.max(np.abs(g)) / h
    if not np.max(np.abs(div)) <= 1e-9 * scale:
        out.append(f"test field divergence {np.max(np.abs(div)):.3g} "
                   f"(field scale {scale:.3g})")
    norm_sq = float(np.sum(g * g) * h * h)
    if not abs(norm_sq - 1.0) <= 1e-9:
        out.append(f"test field norm^2 {norm_sq:.12g}, expected 1")
    lap = sum(_shift(g, a, s) for a in (1, 2) for s in (1, -1)) - 4 * g
    q = float(np.sqrt(np.sum(lap * lap)) * h / h**2)
    if not rel(quotient, q) <= 1e-9:
        out.append(f"reported quotient {quotient:.10g} but ||Lap g|| = {q:.10g}")
    if not q >= J11_SQ * (1 - 1e-3):
        out.append(f"quotient {q:.6g} below nu = {J11_SQ:.6g}")
    return out


def agreement_failures(closed_form: float, quadrature: float):
    """Four-term closed form against the quadrature of the same residual."""
    if rel(quadrature, closed_form) <= 1e-6:
        return []
    return [f"closed form {closed_form:.12g} vs quadrature {quadrature:.12g}"]


def minimal_n_failures(n, at_n: float, below_n, threshold: float):
    """n passes the budget and n - 1 does not (when n > 1)."""
    if n is None or n < 1:
        return [f"minimal_n returned {n!r} for a reachable budget"]
    out = []
    if not at_n < threshold:
        out.append(f"residual {at_n:.6g} at n = {n} not under {threshold:.6g}")
    if n > 1 and not below_n >= threshold:
        out.append(f"n = {n} is not minimal: residual {below_n:.6g} at n - 1 "
                   f"already under {threshold:.6g}")
    return out


def gap_failures(found, reference):
    """Lowest computed gap within 1% of the transfer-matrix edges."""
    if not found:
        return ["no gap found"]
    (a, b), (ra, rb) = found[0], reference
    if rel(a, ra) <= 0.01 and rel(b, rb) <= 0.01:
        return []
    return [f"gap ({a:.6g}, {b:.6g}) vs transfer matrix ({ra:.6g}, {rb:.6g})"]


def margin_failures(doc: dict, l: float, eps: float, gap, nu: float):
    """check.json states l^2 (beta - alpha) eps - 2 nu and its sign."""
    want = l**2 * (gap[1] - gap[0]) * eps - 2 * nu
    out = []
    if not abs(doc["margin"] - want) <= 1e-9 * max(abs(want), 1.0):
        out.append(f"margin {doc['margin']:.12g}, expected {want:.12g}")
    if doc["passed"] != (want > 0):
        out.append(f"passed = {doc['passed']} for margin {want:.6g}")
    return out


def coverage_failures(points, expected: int = 9):
    covered = sum(1 for _, flag in points if flag)
    if len(points) == expected and covered == expected:
        return []
    return [f"delta-net coverage {covered}/{len(points)}, expected "
            f"{expected}/{expected}"]


def eigenvalue_failures(found, reference, rtol: float = 1e-8):
    """Reported in-window eigenvalues equal the reference, one to one."""
    found = np.sort(np.asarray(found, dtype=float))
    reference = np.sort(np.asarray(reference, dtype=float))
    if len(found) != len(reference):
        return [f"{len(found)} eigenvalues reported, reference has "
                f"{len(reference)} in the window"]
    if len(found) and not np.max(np.abs(found - reference)
                                 / np.abs(reference)) <= rtol:
        return [f"eigenvalues differ from the reference by "
                f"{np.max(np.abs(found - reference) / np.abs(reference)):.3g}"]
    return []


def decay_failures(fits, modes: int):
    """One fit per mode, each with a positive rate and R^2 > 0.95."""
    out = []
    if len(fits) != modes or not fits:
        out.append(f"{len(fits)} decay fits for {modes} modes")
    bad = [f for f in fits if not (f["rate"] > 0 and f["r2"] > 0.95)]
    if bad:
        out.append(f"{len(bad)} fits with rate <= 0 or R^2 <= 0.95, e.g. "
                   f"rate {bad[0]['rate']:.4g}, R^2 {bad[0]['r2']:.4g}")
    return out


def control_failures(modes: int):
    if modes == 0:
        return []
    return [f"bulk control reports {modes} guided modes, expected none"]


def report_failures(text: str, headings):
    missing = [h for h in headings if f"## {h}" not in text]
    return [f"summary.md lacks: {', '.join(missing)}"] if missing else []


def shell_failures(lams, symbol: float, multiplicity: int):
    """Every pair on the plane-wave symbol to 1e-6; at least one per shell."""
    out = []
    if not 1 <= len(lams) <= multiplicity:
        out.append(f"{len(lams)} pairs returned for a shell of multiplicity "
                   f"{multiplicity}")
    off = [x for x in lams if not rel(x, symbol) <= 1e-6]
    if off:
        out.append(f"eigenvalue {off[0]:.10g} off the symbol {symbol:.10g}")
    return out
