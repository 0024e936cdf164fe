"""Dense complex linear algebra on top of numpy's LAPACK.

Everything here works on square ``numpy.complex128`` matrices.  The Hermitian
eigensolver and the SVD are ``numpy.linalg.eigh`` and ``numpy.linalg.svd``
behind this module's contracts (validated input, exact symmetrization,
ascending eigenvalues, descending singular values, unitary factors, fixed
answers for the zero matrix, and package exception types); polar
decomposition / support projections / Schatten norms are built on those two.
The decompositions, ``schatten_norm`` and ``polar_decompose`` also take
stacks of shape (..., n, n) and apply their contract to each matrix.
Intended scale is dim <= ~200; no sparsity, no rectangular SVD.

Tolerance convention: one package-wide default ``DEFAULT_TOL = 1e-9``, always
interpreted relative to the Frobenius norm of the operand (so the zero matrix
is Hermitian, positive, unitary-invariant, ... without special pleading).
Every equality decision accepts an overriding ``tol`` argument, a finite
number > 0 (``check_tol``): a NaN or infinite one passes every test.
"""

import math
from typing import NamedTuple

import numpy as np

#: package-wide relative tolerance default
DEFAULT_TOL = 1e-9


class LinalgError(Exception):
    """Base class for numerical-linear-algebra failures."""


class NotHermitian(LinalgError):
    """Input was required to be Hermitian and is not (within tolerance)."""


class NoConvergence(LinalgError):
    """A decomposition or a bounded retry loop did not reach its target."""


class InvalidExponent(LinalgError):
    """Schatten exponent outside [1, inf]."""


class NotPositive(LinalgError):
    """Input was required to be positive semidefinite and is not."""


class DimMismatch(LinalgError):
    """Operands have incompatible dimensions."""


class EigenDecomposition(NamedTuple):
    """Eigenvalues (real, ascending) and matching unitary eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def check_tol(tol, error=ValueError):
    """``float(tol)``; raises ``error`` unless tol is a finite number > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise error("tol must be positive and finite, got %r" % (tol,))
    return float(tol)


def _as_complex_stack(a):
    """Validate ``a`` as a C-ordered complex128 stack of square matrices,
    shape (..., n, n), copying only to convert; a single matrix is the stack
    of shape (n, n)."""
    arr = np.ascontiguousarray(a, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("expected a square matrix, got shape %r" % (arr.shape,))
    if not np.isfinite(arr.view(np.float64)).all():
        raise ValueError("matrix entries must be finite")
    return arr


def as_complex_matrix(a):
    """Validate and return ``a`` as a square complex128 ndarray.

    Accepts anything ``np.asarray`` does; raises ``ValueError`` for inputs
    that are not finite square 2-d arrays.  Always returns a fresh C-ordered
    copy so callers can mutate the result safely.
    """
    arr = _as_complex_stack(np.array(a, dtype=np.complex128, order="C"))
    if arr.ndim != 2:
        raise ValueError("expected a square matrix, got shape %r" % (arr.shape,))
    return arr


def frobenius(a):
    """Frobenius norm of an ndarray."""
    return float(np.linalg.norm(np.asarray(a)))


def frobenius_each(a):
    """Frobenius norm of each matrix of a float64 or complex128 (..., n, n)
    stack."""
    # each matrix as one real row (re, im interleaved) dotted with itself:
    # one batched product, no complex temporaries
    w = np.ascontiguousarray(a).view(np.float64).reshape(a.shape[:-2] + (1, -1))
    return np.sqrt((w @ w.swapaxes(-1, -2))[..., 0, 0])


def ldexp(z, e):
    """``z * 2**e`` for a complex128 array, exactly, as ``np.ldexp`` does."""
    return np.ldexp(np.ascontiguousarray(z).view(np.float64), e).view(np.complex128)


def over_power_of_two(z):
    """(z / 2**e, e) for a complex128 array, with e chosen so that the
    largest real or imaginary part of the result lies in [0.5, 1); the
    division is exact unless an entry falls below the normal range, and the
    zero array gives (z, 0)."""
    z = np.ascontiguousarray(z)
    _, e = math.frexp(float(np.max(np.abs(z.view(np.float64)), initial=0.0)))
    return ldexp(z, -e), e


def _adjoint(a):
    return a.conj().swapaxes(-1, -2)


def lapack_backend():
    """Name what runs the decompositions: numpy's version and its LAPACK.

    The string depends only on the installed numpy, so it is the same on
    every run.  numpy older than 1.26 cannot describe its build; the LAPACK
    library name is then left out.
    """
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        return "numpy %s, LAPACK %s %s" % (
            np.__version__, lapack["name"], lapack["version"])
    except (TypeError, KeyError):
        return "numpy %s, LAPACK" % np.__version__


def hermitian_eig(h, tol=DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    The input must satisfy ``||H - H*||_F <= tol * ||H||_F``; it is then
    symmetrized exactly before decomposing, so returned eigenvalues are real
    and the eigenvector matrix is unitary to machine precision.  Eigenvalues
    come back ascending with eigenvector columns in matching order.  The zero
    matrix returns ``(zeros, I)``.  A stack (..., n, n) is decomposed matrix
    by matrix, and fails if any of its matrices does.

    Raises ``NotHermitian`` on asymmetric input and ``NoConvergence`` if
    LAPACK reports failure.
    """
    a = _as_complex_stack(h)
    # the gate sees each matrix divided by its largest entry, so its norms
    # neither underflow nor overflow whatever the matrix's scale; only an
    # exactly zero matrix counts as zero
    peak = np.abs(a).max(axis=(-2, -1), initial=0.0)
    zero = peak == 0.0
    scaled = a / np.where(zero, 1.0, peak)[..., None, None]
    if (frobenius_each(scaled - _adjoint(scaled)) > tol * frobenius_each(scaled)).any():
        raise NotHermitian(
            "matrix is not Hermitian within relative tolerance %g" % tol
        )
    symmetrized = _adjoint(a)
    symmetrized += a
    symmetrized *= 0.5
    try:
        vals, vecs = np.linalg.eigh(symmetrized)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("Hermitian eigensolver: %s" % exc) from exc
    if zero.any():
        vals[zero] = 0.0
        vecs[zero] = np.eye(a.shape[-1])
    return EigenDecomposition(vals, vecs)


def singular_values(a):
    """Singular values of a square matrix, or of each matrix of a stack,
    descending.

    Cheap path used by the norm routines: no singular vectors are formed.
    Raises ``NoConvergence`` if LAPACK reports failure.
    """
    a = _as_complex_stack(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("singular values: %s" % exc) from exc


def svd(a):
    """Singular value decomposition ``A = U diag(sigma) V*`` of a square matrix.

    Returns ``(U, sigma, V)`` with sigma descending, U and V unitary and
    ``V = Vh*`` for LAPACK's ``Vh``.  The zero matrix returns ``(I, 0, I)``.
    A stack (..., n, n) is decomposed matrix by matrix.  Raises
    ``NoConvergence`` if LAPACK reports failure.
    """
    a = _as_complex_stack(a)
    try:
        u, sigma, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("SVD: %s" % exc) from exc
    v = _adjoint(vh)
    zero = ~sigma.any(axis=-1)     # LAPACK gives the zero matrix sigma = 0
    if zero.any():
        eye = np.eye(a.shape[-1])
        u[zero], sigma[zero], v[zero] = eye, 0.0, eye
    return u, sigma, v


def schatten_norm(a, p, trace_weight=1.0):
    """Weighted Schatten p-norm ``(w * sum(sigma_i^p))^(1/p)``.

    ``trace_weight`` is the weight of the trace functional: 1 for plain
    matrix algebras, 1/n for a group von Neumann algebra of order n.  The
    exponent must satisfy ``p >= 1``; ``p = math.inf`` gives the operator
    norm (largest singular value, weight-free, as the limit demands).  A
    matrix gives a float, a stack (..., n, n) an array of shape (...).
    """
    if not (isinstance(p, (int, float)) and p >= 1.0):
        raise InvalidExponent("Schatten exponent must satisfy p >= 1, got %r" % (p,))
    weight = float(trace_weight)
    if not weight > 0.0:
        raise ValueError("trace_weight must be positive, got %r" % (trace_weight,))
    sigma = singular_values(a)
    if math.isinf(p):
        norms = sigma[..., 0] if sigma.shape[-1] else np.zeros(sigma.shape[:-1])
    else:
        norms = (weight * np.sum(sigma ** float(p), axis=-1)) ** (1.0 / float(p))
    return float(norms) if sigma.ndim == 1 else norms


def polar_decompose(a, tol=DEFAULT_TOL):
    """Polar decomposition ``A = w B`` with B psd and w a partial isometry.

    ``B = (A*A)^(1/2)`` and ``w`` carries the support of B onto the closure
    of the range of A, so ``w* w = support_projection(B)``.  Singular values
    at or below ``tol * sigma_max`` are treated as zero and excluded from w.
    A stack (..., n, n) is decomposed matrix by matrix.
    """
    u, sigma, v = svd(a)
    b = (v * sigma[..., None, :]) @ _adjoint(v)
    b = 0.5 * (b + _adjoint(b))
    return _partial_isometry(u, sigma, v, tol), b


def _partial_isometry(u, sigma, v, tol):
    """``U_k V_k*`` over the singular values above ``tol * sigma_max``."""
    keep = sigma > tol * sigma[..., :1]
    return (u * keep[..., None, :]) @ _adjoint(v)


def support_projection(b, tol=DEFAULT_TOL):
    """Orthogonal projection onto the range of a psd matrix.

    Eigenvalues below ``tol * max|eig|`` count as zero; an eigenvalue below
    ``-tol * max|eig|`` means the input is not positive and raises
    ``NotPositive``.  The zero matrix has zero support.
    """
    vals, vecs = hermitian_eig(b, tol)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale == 0.0:
        return np.zeros((vals.size, vals.size), dtype=np.complex128)
    if vals[0] < -tol * scale:
        raise NotPositive(
            "matrix has eigenvalue %g below -tol*scale = %g"
            % (vals[0], -tol * scale)
        )
    keep = vals > tol * scale
    vk = vecs[:, keep]
    return vk @ vk.conj().T


def psd_pseudo_inverse(b, rel_cutoff=1e-9, tol=DEFAULT_TOL):
    """Moore-Penrose inverse of a psd matrix via its eigendecomposition.

    Eigenvalues at or below ``rel_cutoff * max(eig)`` are treated as zero.
    """
    vals, vecs = hermitian_eig(b, tol)
    scale = float(np.max(vals)) if vals.size else 0.0
    if scale <= 0.0:
        return np.zeros_like(vecs)
    inv = np.where(vals > rel_cutoff * scale, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return (vecs * inv) @ vecs.conj().T


def complex_gaussians(rngs, shape):
    """One complex Gaussian array of the given shape per generator, stacked.

    Each generator draws what ``rng.standard_normal(shape) + 1j *
    rng.standard_normal(shape)`` draws: the real parts, then the imaginary
    parts.
    """
    out = np.empty((len(rngs),) + tuple(shape), dtype=np.complex128)
    for row, rng in zip(out, rngs):
        row.real, row.imag = rng.standard_normal((2,) + tuple(shape))
    return out


def random_unitary(n, rng):
    """Haar-ish random unitary: polar factor of a Gaussian complex matrix."""
    return random_unitaries(n, [rng])[0]


def random_unitaries(n, rngs):
    """One :func:`random_unitary` per generator, as a (K, n, n) stack.

    Each generator draws exactly what ``random_unitary`` would draw from it:
    a Gaussian matrix, redrawn while its polar factor is not unitary within
    1e-10 sqrt(n), at most 8 times.  The polar factors of each round's
    draws come from one stacked SVD.
    """
    eye = np.eye(n)

    def draw(_, rows):
        z = complex_gaussians([rngs[i] for i in rows], (n, n))
        w = _partial_isometry(*svd(z), DEFAULT_TOL)
        gram = _adjoint(w) @ w
        gram -= eye
        return (w,), frobenius_each(gram) <= 1e-10 * math.sqrt(n)

    (w,) = redraw_rejected(len(rngs), 8, draw, NoConvergence(
        "failed to draw an invertible Gaussian matrix"))
    return w


def redraw_rejected(count, attempts, draw, failure):
    """Rows 0..count-1 of a rejection sampler that draws rows together.

    ``draw(attempt, rows)`` returns a tuple of arrays, each holding one value
    per entry of ``rows`` on its axis 0, and a mask of the accepted entries;
    the rejected rows are drawn again, together, at the next attempt.
    Returns the tuple of (count, ...) stacks of accepted values, each laid
    out in memory like the first draw's, and raises ``failure`` when rows
    are still rejected after ``attempts`` attempts.
    """
    rows = np.arange(count)
    out = None
    for attempt in range(attempts):
        values, ok = draw(attempt, rows)
        if out is None:
            if ok.all():
                return values
            out = tuple(np.empty_like(v, shape=(count,) + v.shape[1:]) for v in values)
        for stack, v in zip(out, values):
            stack[rows[ok]] = v[ok]
        rows = rows[~ok]
        if rows.size == 0:
            return out
    raise failure


def matrix_to_json(a):
    """Serialize a square complex matrix as {"dim", "re", "im"}."""
    arr = as_complex_matrix(a)
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_json(obj):
    """Inverse of :func:`matrix_to_json`; raises ``ValueError`` on bad input."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("matrix JSON needs numeric 'dim', 're', 'im'") from exc
    if dim == 0 and re.size == im.size == 0:
        # matrix_to_json writes the 0 x 0 matrix as empty lists
        re = im = np.zeros((0, 0))
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            "matrix JSON shape mismatch: dim=%d, re%r, im%r"
            % (dim, re.shape, im.shape)
        )
    return as_complex_matrix(re + 1j * im)
