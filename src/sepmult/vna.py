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

Seeded randomness: every draw is a pure function of (group, seed).  Spectral
projection pairs come from splitting the spectrum of a random self-adjoint
element at the midpoint of its largest gap; disjoint pairs are ``p x r`` and
``q y s`` for two independent projection splits.  Draws for many seeds run
together (``random_projection_pairs``, ``random_disjoint_pairs``): one
stacked eigendecomposition per round of splits, each seed drawing from its
own generator exactly what a draw for that seed alone would.
"""

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimMismatch,
    complex_gaussians,
    frobenius_each,
    hermitian_eig,
    over_power_of_two,
    redraw_rejected,
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
    with p + q = 1: the row of :func:`random_projection_pairs` for ``seed``.

    A random self-adjoint element is drawn, its spectrum split at the
    midpoint of the largest gap (which must exceed 1e-6 of the spectral
    radius), and the spectral projection re-projected onto coefficients.
    Retries internally up to 16 times, then raises ``DegenerateSpectrum``.
    The one-element group has one-point spectra, so the only splits are
    (0, 1) and (1, 0), chosen by the seed.
    """
    p, q = random_projection_pairs(g, [seed])[0]
    return p, q


def random_projection_pairs(g, seeds):
    """:func:`random_projection_pair` for each seed, drawn together.

    Returns a (K, 2, n) array: the coefficients of p and of q for each of
    the K seeds.  The splits rejected by the gap, membership or idempotence
    check are redrawn together, each from where its generator stands.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n = g.order
    if n == 1:
        return np.array([[0.0, 1.0] if int(rng.integers(2)) == 0 else [1.0, 0.0]
                         for rng in rngs], dtype=np.complex128).reshape(-1, 2, 1)
    grid = g.rebuild_grid
    cols = np.arange(n)
    unit = np.zeros(n, dtype=np.complex128)
    unit[g.identity] = 1.0

    def draw(_, rows):
        x = complex_gaussians([rngs[i] for i in rows], (n,))
        vals, vecs = hermitian_eig((x + np.conj(x[:, g.inv]))[:, grid])
        radius = np.max(np.abs(vals), axis=-1)
        gaps = np.diff(vals, axis=-1)
        cut = np.argmax(gaps, axis=-1)
        ok = gaps[np.arange(cut.size), cut] > _GAP_FLOOR * radius
        # the spectral projection onto the eigenvalues up to the cut
        pmat = (vecs * (cols <= cut[:, None])[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        del vecs
        p = coefficients(g, pmat)
        ok &= (frobenius_each(p[:, grid] - pmat)
               <= MEMBERSHIP_TOL * np.maximum(frobenius_each(pmat), 1e-300))
        # a matrix realized from n coefficients has sqrt(n) times their norm
        ok &= (np.linalg.norm(convolve(g, p, p) - p, axis=-1)
               <= 1e-9 * np.maximum(1.0 / np.sqrt(n), np.linalg.norm(p, axis=-1)))
        return (np.stack([p, unit - p], axis=1),), ok

    (pq,) = redraw_rejected(len(rngs), _PROJECTION_RETRIES, draw, DegenerateSpectrum(
        "no spectral gap above %g of the radius after %d draws"
        % (_GAP_FLOOR, _PROJECTION_RETRIES)))
    return pq


def random_disjoint_pair(g, seed):
    """The matrices of a disjoint pair (a, b): a = p x r, b = q y s for
    independent splits, the row of :func:`random_disjoint_pairs` for ``seed``.

    Disjointness (a*b = ab* = 0) holds by construction since pq = rs = 0;
    the stacked draw accepts only pairs whose ``disjointness_defects`` is at
    most 1e-10.  Pairs with a vanishing factor are rejected and redrawn; on
    the one-element group every pair degenerates, so ``ExhaustedRetries`` is
    immediate.
    """
    legs, _ = random_disjoint_pairs(g, [seed])
    return legs[0, 0], legs[1, 0]


def random_disjoint_pairs(g, seeds):
    """:func:`random_disjoint_pair` for each seed, drawn together.

    Returns the (2, K, n, n) stack of the matrices of a and of b for the K
    seeds, and the disjointness defect of each pair (the acceptance check's,
    ``disjointness_defects`` of that stack).  Attempt k of the pair for
    ``seed`` splits with ``derive_seed(seed, 2k)`` and
    ``derive_seed(seed, 2k + 1)`` and draws x and y from the generator of
    ``derive_seed(seed, 0x0E1E)``; the rejected pairs of an attempt retry
    together, up to 64 attempts.
    """
    if g.order == 1:
        raise ExhaustedRetries(
            "the one-dimensional algebra has no nonzero disjoint pairs"
        )
    seeds = list(seeds)
    rngs = [np.random.default_rng(derive_seed(seed, 0x0E1E)) for seed in seeds]

    def draw(attempt, rows):
        # [p, q] from the even splits, [r, s] from the odd ones
        splits = random_projection_pairs(
            g, [derive_seed(seeds[i], 2 * attempt + e) for i in rows for e in (0, 1)])
        live = [rngs[i] for i in rows]
        xy = np.stack([complex_gaussians(live, (g.order,)),
                       complex_gaussians(live, (g.order,))])
        legs = convolve(g, convolve(g, splits[0::2].swapaxes(0, 1), xy),
                        splits[1::2].swapaxes(0, 1))
        scale = np.max(np.linalg.norm(xy, axis=-1), axis=0)
        ok = (np.linalg.norm(legs, axis=-1) > 1e-8 * scale).all(axis=0)
        mats = legs[..., g.rebuild_grid]
        defects = disjointness_defects(mats)
        ok &= defects <= 1e-10
        return (mats.swapaxes(0, 1), defects), ok

    mats, defects = redraw_rejected(len(rngs), _PAIR_RETRIES, draw, ExhaustedRetries(
        "could not draw a nonzero disjoint pair in %d attempts" % _PAIR_RETRIES))
    return mats.swapaxes(0, 1), defects


def symbol_to_json(phi):
    arr = np.asarray(phi, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in arr]


def symbol_from_json(obj, expected_len=None):
    """Parse a symbol from a JSON array of [re, im] pairs."""
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError("symbol JSON must be an array of [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("symbol JSON must be an array of [re, im] pairs")
    values = arr[:, 0] + 1j * arr[:, 1]
    if expected_len is not None and values.shape[0] != expected_len:
        raise ValueError(
            "symbol has %d entries, expected %d" % (values.shape[0], expected_len)
        )
    return values
