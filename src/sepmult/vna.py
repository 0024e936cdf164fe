"""Group von Neumann algebra elements, disjointness and seeded disjoint pairs.

An element of VN(G) is a coefficient array f over the group.  It acts on
l2(G) as ``sum_s f(s) lambda(s)``, where ``lambda(s)`` is the left
translation permutation matrix; that matrix is ``f[g.rebuild_grid]``.  Arrays
(..., n) hold many elements at once, and (..., n, n) stacks their matrices.
The trace is the normalized matrix trace, which on coefficients reads off the
identity coefficient, so the 2-norm of an element equals the Euclidean norm
of its coefficients; its p-norm is
``schatten_norm(f[g.rebuild_grid], p, 1 / n)``.

Products are computed by convolution in coefficient space (``convolve``:
exact membership, no rounding drift out of the algebra); a matrix is
projected onto the algebra through the coefficient extraction
``f(s) = normalized trace of lambda(s)* X`` (``coefficients``).

Seeded randomness: every draw is a pure function of (group, seed), and
each call draws one pair.  Spectral projection pairs come from splitting the
spectrum of a random self-adjoint element at the midpoint of its largest
gap; disjoint pairs are ``p x r`` and ``q y s`` for two independent
projection splits.  Both drawers are plain retry loops: a rejected draw is
drawn again from where its generators stand.
"""

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimMismatch,
    complex_gaussians,
    frobenius_each,
    hermitian_eig,
    json_array,
    over_power_of_two,
)

#: relative tolerance for "this matrix lies in the group algebra"
MEMBERSHIP_TOL = 1e-8

#: smallest admissible spectral gap, relative to the spectral radius
_GAP_FLOOR = 1e-6

_PROJECTION_RETRIES = 16
_PAIR_RETRIES = 64


class VnaError(Exception):
    """Base class for group-algebra failures."""


class DegenerateSpectrum(VnaError):
    """Random spectra refused to split into two clusters."""


class ExhaustedRetries(VnaError):
    """Rejection sampling ran out of attempts."""


def derive_seed(*parts):
    """Deterministic child seed from integer parts (order-sensitive)."""
    entropy = [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def convolve(g, x, y):
    """Coefficients of the products x y of group-algebra elements.

    ``x`` and ``y`` are coefficient arrays (..., n) that broadcast against
    each other; ``(x y)(u) = sum_t x(u t^-1) y(t)`` is the matrix of x, read
    off the group's rebuild grid, applied to y.
    """
    return (x[..., g.rebuild_grid] @ y[..., None])[..., 0]


def coefficients(g, x):
    """Coefficients of the conditional expectation of matrices onto the
    algebra, ``f(s) = normalized trace of lambda(s)* X``, for a matrix or
    each matrix of a (..., n, n) stack."""
    n = g.order
    return x[..., g.mul, np.arange(n)].sum(axis=-1) / n


def regular_representation(g, s):
    """Left translation matrix lambda(s): column t has its 1 in row s*t."""
    n = g.order
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[g.mul[s], np.arange(n)] = 1.0
    return mat


def disjointness_defect(a, b):
    """max(||a* b||, ||a b*||) / (||a|| ||b||), 0 when either factor is 0:
    :func:`disjointness_defects` of one pair, each leg divided by a power of
    two so that no square under- or overflows at any scale."""
    am = np.asarray(a, dtype=np.complex128)
    bm = np.asarray(b, dtype=np.complex128)
    if am.shape != bm.shape:
        raise DimMismatch("operands have shapes %r and %r" % (am.shape, bm.shape))
    return float(disjointness_defects(
        np.stack([over_power_of_two(am)[0], over_power_of_two(bm)[0]])))


def disjointness_defects(pairs):
    """:func:`disjointness_defect` of every pair of a (2, ..., n, n) stack.

    ``pairs[0]`` holds the first legs and ``pairs[1]`` the second legs; the
    result has the shape of the leg stacks without their matrix axes.
    """
    a, b = pairs
    na, nb = frobenius_each(pairs)
    cross = np.maximum(frobenius_each(a.conj().swapaxes(-1, -2) @ b),
                       frobenius_each(a @ b.conj().swapaxes(-1, -2)))
    out = np.zeros(na.shape)
    np.divide(cross, na * nb, out=out, where=np.minimum(na, nb) > 0.0)
    return out


def is_disjoint(a, b, tol=DEFAULT_TOL):
    """Whether a* b and a b* both vanish within relative tolerance."""
    return disjointness_defect(a, b) <= tol


def random_projection_pair(g, seed):
    """The coefficients of two orthogonal projections (p, q) in the algebra
    with p + q = 1.

    A random self-adjoint element is drawn, its spectrum split at the
    midpoint of the largest gap (which must exceed 1e-6 of the spectral
    radius), and the spectral projection re-projected onto coefficients; a
    split that fails the gap, membership or idempotence check is drawn
    again, up to 16 times, then ``DegenerateSpectrum`` is raised.  The
    one-element group has one-point spectra, so the only splits are (0, 1)
    and (1, 0), chosen by the seed.
    """
    rng = np.random.default_rng(seed)
    n = g.order
    unit = np.zeros(n, dtype=np.complex128)
    unit[g.identity] = 1.0
    if n == 1:
        return (0 * unit, unit) if int(rng.integers(2)) == 0 else (unit, 0 * unit)
    for _ in range(_PROJECTION_RETRIES):
        x = complex_gaussians(rng, 1, (n,))[0]
        vals, vecs = hermitian_eig((x + np.conj(x[g.inv]))[g.rebuild_grid])
        gaps = np.diff(vals)
        cut = int(np.argmax(gaps))
        if not gaps[cut] > _GAP_FLOOR * np.max(np.abs(vals)):
            continue
        # the spectral projection onto the eigenvalues up to the cut
        pmat = (vecs * (np.arange(n) <= cut)) @ vecs.conj().T
        p = coefficients(g, pmat)
        if not (frobenius_each(p[g.rebuild_grid] - pmat)
                <= MEMBERSHIP_TOL * max(frobenius_each(pmat), 1e-300)):
            continue
        # a matrix realized from n coefficients has sqrt(n) times their norm
        residual = np.linalg.norm(convolve(g, p, p) - p)
        if residual <= 1e-9 * max(1.0 / np.sqrt(n), np.linalg.norm(p)):
            return p, unit - p
    raise DegenerateSpectrum("no spectral gap above %g of the radius after %d draws"
                             % (_GAP_FLOOR, _PROJECTION_RETRIES))


def random_disjoint_pair(g, seed):
    """The matrices of a disjoint pair (a, b): a = p x r, b = q y s for
    independent splits.

    Attempt k splits with ``derive_seed(seed, 2k)`` and ``derive_seed(seed,
    2k + 1)`` and draws x, then y from the generator of ``derive_seed(seed,
    0x0E1E)``.  Disjointness (a*b = ab* = 0) holds by construction since pq
    = rs = 0; a pair with a vanishing leg or a disjointness defect above
    1e-10 is drawn again, up to 64 attempts, then ``ExhaustedRetries`` is
    raised.  On the one-element group every pair degenerates, so it is
    raised at once.
    """
    if g.order == 1:
        raise ExhaustedRetries(
            "the one-dimensional algebra has no nonzero disjoint pairs"
        )
    rng = np.random.default_rng(derive_seed(seed, 0x0E1E))
    for attempt in range(_PAIR_RETRIES):
        p, q = random_projection_pair(g, derive_seed(seed, 2 * attempt))
        r, s = random_projection_pair(g, derive_seed(seed, 2 * attempt + 1))
        xy = complex_gaussians(rng, 2, (g.order,))
        legs = convolve(g, convolve(g, np.stack([p, q]), xy), np.stack([r, s]))
        scale = np.max(np.linalg.norm(xy, axis=-1))
        if (np.linalg.norm(legs, axis=-1) > 1e-8 * scale).all():
            mats = legs[..., g.rebuild_grid]
            if disjointness_defects(mats) <= 1e-10:
                return mats[0], mats[1]
    raise ExhaustedRetries(
        "could not draw a nonzero disjoint pair in %d attempts" % _PAIR_RETRIES)


def symbol_to_json(phi):
    arr = np.asarray(phi, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in arr]


def symbol_from_json(obj, expected_len=None):
    """Parse a symbol from a JSON array of [re, im] pairs of finite numbers."""
    arr = json_array(obj, (int, float), 2)
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or not np.isfinite(arr).all():
        raise ValueError("symbol JSON must be an array of [re, im] pairs of finite numbers")
    values = arr[:, 0] + 1j * arr[:, 1]
    if expected_len is not None and values.shape[0] != expected_len:
        raise ValueError(
            "symbol has %d entries, expected %d" % (values.shape[0], expected_len)
        )
    return values
