"""Independent reference computations used by the tests.

The transfer-matrix code below solves the 1D layered eigenproblem
-(d/dy)(1/eps)u' + (k1^2/eps) u = lam u exactly (per-layer closed form),
so it shares nothing with the finite-difference machinery under test.
`plane_wave_eigenvalue` is the closed-form symbol of the staggered
curl-curl; `check_identities` probes the assembled operators with random
fields, and `field_ibp_terms` the two sides of the discrete
integration by parts of a test field.
"""

import numpy as np

from gapguide.discrete_op import (_axis_wraps, _operator, curl, differences,
                                  gradient, scalar_matrix)
from gapguide.xsection import _laplacian

# squared Bessel zeros: first zero of J1 and of J0
J11_SQ = 3.8317059702075123**2      # clamped-plate buckling constant, unit disk
J01_SQ = 2.404825557695773**2       # Dirichlet Laplacian constant, unit disk
# clamped square plate of unit side buckles at this value over side^2
# (Bjorstad & Tjostheim, Computing 1999); no closed form, so it is a
# reference off the disk for geometries whose boundary crossings bisect
SQUARE_BUCKLING = 52.344691168

# layered bulk used in the gap/defect experiments: slab eps=9 of thickness
# 0.375 per unit period, background 1
LAYERS = ((9.0, 0.375), (1.0, 0.625))


def cell_T(lam, k1, layers=LAYERS):
    """Monodromy matrix over one period; state (u, (1/eps) u')."""
    T = np.eye(2)
    for eps, d in layers:
        ks = lam * eps - k1**2
        if ks >= 0:
            k = np.sqrt(ks)
            if k < 1e-12:
                c, s_over_k, k_s = 1.0, d, 0.0
            else:
                c, s_over_k, k_s = np.cos(k * d), np.sin(k * d) / k, k * np.sin(k * d)
        else:
            k = np.sqrt(-ks)
            c, s_over_k, k_s = np.cosh(k * d), np.sinh(k * d) / k, -k * np.sinh(k * d)
        T = np.array([[c, eps * s_over_k], [-k_s / eps, c]]) @ T
    return T


def in_band(lam, k1, layers=LAYERS):
    return abs(np.trace(cell_T(lam, k1, layers))) <= 2.0


def _refine_edge(a, b, k1, layers):
    """Bisect a band edge bracketed by (a, b) with differing in_band."""
    fa = in_band(a, k1, layers)
    for _ in range(60):
        m = 0.5 * (a + b)
        if in_band(m, k1, layers) == fa:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def tm_bands(k1, layers=LAYERS, lmax=12.0, n=24000):
    """Spectral bands [(lo, hi), ...] of the layered bulk at axial momentum k1."""
    lams = np.linspace(1e-6, lmax, n)
    inb = np.array([in_band(l, k1, layers) for l in lams])
    bands, start = [], None
    for i in range(n):
        if inb[i] and start is None:
            start = lams[i - 1] if i else lams[i]
            start = _refine_edge(start, lams[i], k1, layers) if i else lams[i]
        if not inb[i] and start is not None:
            bands.append((start, _refine_edge(lams[i - 1], lams[i], k1, layers)))
            start = None
    if start is not None:
        bands.append((start, lams[-1]))
    return bands


def decay_rate(lam, k1, layers=LAYERS):
    """Exact Bloch decay rate at an in-gap lam: log of the monodromy growth."""
    eigs = np.linalg.eigvals(cell_T(lam, k1, layers))
    return float(np.log(np.max(np.abs(eigs))))


def parseval_residual(tp, grid):
    """Brute-force Parseval sum of |curl curl w - k^2 w|^2 over every
    (k1, k2, k3) mode of the 3D quadrature grid.

    Built from the test field's stream samples and the profile alone: at
    wave vector K the residual of w_hat = a_hat(k1) (0, g2_hat, g3_hat) is
    (|K|^2 - k^2) w_hat - K (K . w_hat), and g = (d3 s, -d2 s) is formed
    spectrally and normalized to unit L2 norm in physical space.
    """
    n1, n2, n3 = grid.shape
    h1, h2, h3 = grid.spacing
    x1 = grid.origin[0] + (np.arange(n1) + 0.5) * h1
    a = tp.psi(x1 / tp.n) / np.sqrt(tp.n) * np.exp(1j * tp.k * x1)
    a_hat = np.fft.fft(a)
    kk1 = 2 * np.pi * np.fft.fftfreq(n1, d=h1)
    kk2 = 2 * np.pi * np.fft.fftfreq(n2, d=h2)[:, None]
    kk3 = 2 * np.pi * np.fft.fftfreq(n3, d=h3)[None, :]
    s_hat = np.fft.fft2(tp.g.stream)
    g_hat = np.stack([np.zeros_like(s_hat), 1j * kk3 * s_hat,
                      -1j * kk2 * s_hat])
    g = np.fft.ifft2(g_hat)
    g_hat /= np.sqrt(np.sum(np.abs(g) ** 2) * h2 * h3)
    total = 0.0
    for j in range(n1):
        K = np.stack(np.broadcast_arrays(kk1[j], kk2, kk3))
        w = a_hat[j] * g_hat
        r = (np.sum(K**2, axis=0) - tp.k**2) * w - K * np.sum(K * w, axis=0)
        total += np.sum(np.abs(r) ** 2)
    return float(total * h1 * h2 * h3 / (n1 * n2 * n3))


def plane_wave_eigenvalue(k, spacing, eps_value):
    """Discrete symbol of the staggered curl-curl for a homogeneous medium."""
    k = np.asarray(k, dtype=float)
    h = np.asarray(spacing, dtype=float)
    return float(np.sum((2.0 / h) ** 2 * np.sin(k * h / 2.0) ** 2) / eps_value)


def check_identities(eps):
    """Symmetry, nonnegativity and curl(grad) = 0 of the operator of `eps`
    on 20 random fields at Bloch momentum k1 = 0.7, each asserted within
    1e-12: the Maxwell double curl under PEC walls in 3D, else the scalar
    operator under Dirichlet walls.  Returns the worst of each."""
    trials, momenta = 20, (0.7,) + (None,) * (eps.grid.ndim - 1)
    rng = np.random.default_rng(0)
    grid = eps.grid
    if grid.ndim == 3:
        wraps = _axis_wraps(grid, momenta)
        C, G = curl(grid, wraps), gradient(grid, wraps)
        A = _operator(eps, wraps, C)
    else:
        A = scalar_matrix(eps, momenta)

    def rand(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    sym = gradimg = 0.0
    pos = np.inf
    for _ in range(trials):
        u, v = rand(A.shape[0]), rand(A.shape[0])
        Au, Av = A @ u, A @ v
        scale = max(np.linalg.norm(Au) * np.linalg.norm(v)
                    + np.linalg.norm(u) * np.linalg.norm(Av), 1e-300)
        sym = max(sym, abs(np.vdot(u, Av) - np.conj(np.vdot(v, Au))) / scale)
        pos = min(pos, np.vdot(u, Au).real / np.linalg.norm(u) ** 2)
        if grid.ndim == 3:
            img = C @ (G @ rand(A.shape[0] // 3))
            gradimg = max(gradimg, float(np.max(np.abs(img))))
    assert sym <= 1e-12, f"operator symmetry violated by {sym:.2e}"
    assert pos >= -1e-12, f"operator form went negative: {pos:.2e}"
    assert gradimg <= 1e-12, f"curl(grad) != 0: {gradimg:.2e}"
    return {"max_symmetry_violation": float(sym),
            "min_quadratic_form": float(pos),
            "max_grad_image": gradimg,
            "trials": trials}


def field_ibp_terms(tf):
    """(<g, Lap g>, ||grad g||^2) of a test field: the 5-point Laplacian
    with zero ghosts, and the forward differences adjoint to it, so the two
    cancel for a field supported away from the array edges."""
    g = tf.g.reshape(2, -1)
    cell = tf.grid.cell_volume
    lap = _laplacian(tf.grid)
    fwd = differences(tf.grid, ("pec",) * 2)
    ip_lap = float(sum(np.sum((lap @ gc) * gc) for gc in g) * cell)
    grad_norm_sq = float(sum(np.sum((dk @ gc) ** 2) for gc in g
                             for dk in fwd) * cell)
    return ip_lap, grad_norm_sq
