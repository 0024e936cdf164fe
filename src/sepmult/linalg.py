"""Dense complex linear algebra on top of numpy's LAPACK.

Everything here works on square ``numpy.complex128`` matrices.  The Hermitian
eigensolver and the SVD are ``numpy.linalg.eigh`` and ``numpy.linalg.svd``
behind this module's contracts (validated input, exact symmetrization,
ascending eigenvalues, descending singular values, unitary factors, fixed
answers for the zero matrix, and package exception types); polar
decomposition and Schatten norms are built on those two.
The decompositions, ``schatten_norm`` and ``polar_decompose`` also take
stacks of shape (..., n, n) and apply their contract to each matrix;
``singular_value_norm`` gives the Schatten norm from singular values already
computed.
Intended scale is dim <= ~200; no sparsity, no rectangular SVD.

Tolerance convention: one package-wide default ``DEFAULT_TOL = 1e-9``, always
interpreted relative to the Frobenius norm of the operand (so the zero matrix
is Hermitian, positive, unitary-invariant, ... without special pleading); the
Hermitian gate and the polar cutoff use it as it is.  Other equality decisions
take a ``tol``, finite, > 0 and < 1 (``check_tol``): a NaN or infinite one
passes every test, and one of 1 or more lets a zero pass for any value.
Schatten exponents follow one rule too (``check_p``).
"""

import math

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


class DimMismatch(LinalgError):
    """Operands have incompatible dimensions."""


def check_tol(tol, error=ValueError):
    """``float(tol)``; raises ``error`` unless 0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise error("tol must be positive and finite, and below 1, got %r" % (tol,))
    return float(tol)


def check_p(p, error=InvalidExponent):
    """``float(p)``; raises ``error`` unless p is a Python or numpy real
    number >= 1 (``math.inf`` included, NaN not, a bool is no number)."""
    if not (isinstance(p, (int, float, np.integer, np.floating))
            and not isinstance(p, bool) and p >= 1.0):
        raise error("Schatten exponent must satisfy p >= 1, got %r" % (p,))
    return float(p)


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
    """(z / 2**e, e) for a complex array or scalar (as an array of at least
    one axis), with e chosen so that the largest real or imaginary part of
    the result lies in [0.5, 1); the division is exact unless an entry falls
    below the normal range, and the zero array gives (z, 0)."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    _, e = math.frexp(float(abs(z.view(np.float64)).max(initial=0.0)))
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


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    The input must satisfy ``||H - H*||_F <= DEFAULT_TOL * ||H||_F``; it is
    then symmetrized exactly before decomposing, so returned eigenvalues are
    real and the eigenvector matrix is unitary to machine precision.
    Returns ``(values, vectors)``: eigenvalues ascending, eigenvector columns
    in matching order.  The zero matrix returns ``(zeros, I)``.  A stack
    (..., n, n) is decomposed matrix by matrix, and fails if any of its
    matrices does.

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
    if (frobenius_each(scaled - _adjoint(scaled))
            > DEFAULT_TOL * frobenius_each(scaled)).any():
        raise NotHermitian(
            "matrix is not Hermitian within relative tolerance %g" % DEFAULT_TOL
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
    return vals, vecs


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


def _check_trace_weight(trace_weight):
    weight = float(trace_weight)
    if not weight > 0.0:
        raise ValueError("trace_weight must be positive, got %r" % (trace_weight,))
    return weight


def schatten_norm(a, p, trace_weight=1.0):
    """Weighted Schatten p-norm ``(w * sum(sigma_i^p))^(1/p)``.

    ``trace_weight`` is the weight of the trace functional: 1 for plain
    matrix algebras, 1/n for a group von Neumann algebra of order n.  The
    exponent must satisfy ``p >= 1``; ``p = math.inf`` gives the operator
    norm (largest singular value, weight-free, as the limit demands).  A
    matrix gives a float, a stack (..., n, n) an array of shape (...).
    The exponent and the weight are checked before any SVD runs.
    """
    check_p(p)
    _check_trace_weight(trace_weight)
    return singular_value_norm(singular_values(a), p, trace_weight)


def singular_value_norm(sigma, p, trace_weight=1.0):
    """:func:`schatten_norm` of the matrix, or of each matrix of a stack,
    with the descending singular values ``sigma`` (last axis).  Where
    sigma_max = 2^e f, f in [0.5, 1), has |e| p >= 900, sigma^p could leave
    the float range, and the sum is taken over (sigma / 2^e)^p instead."""
    p = check_p(p)
    weight = _check_trace_weight(trace_weight)
    top = sigma.max(axis=-1, initial=0.0)
    if math.isinf(p):
        norms = top
    else:
        e = np.frexp(top)[1]
        e = e * (abs(e) * p >= 900)
        sums = (np.ldexp(sigma, -e[..., None]) ** p).sum(axis=-1)
        norms = np.ldexp((weight * sums) ** (1.0 / p), e)
    return float(norms) if sigma.ndim == 1 else norms


def polar_decompose(a):
    """Polar decomposition ``A = w B`` with B psd and w a partial isometry.

    ``B = (A*A)^(1/2)`` and ``w`` carries the support of B onto the closure
    of the range of A, so ``w* w`` is the projection onto the range of B.
    Singular values at or below ``DEFAULT_TOL * sigma_max`` are treated as
    zero and excluded from w.  A stack (..., n, n) is decomposed matrix by
    matrix.
    """
    u, sigma, v = svd(a)
    b = (v * sigma[..., None, :]) @ _adjoint(v)
    b = 0.5 * (b + _adjoint(b))
    return _partial_isometry(u, sigma, v), b


def _partial_isometry(u, sigma, v):
    """``U_k V_k*`` over the singular values above ``DEFAULT_TOL * sigma_max``."""
    keep = sigma > DEFAULT_TOL * sigma[..., :1]
    return (u * keep[..., None, :]) @ _adjoint(v)


def complex_gaussians(rng, count, shape):
    """``count`` complex Gaussian arrays of the given shape, stacked.

    Each draws what ``rng.standard_normal(shape) + 1j *
    rng.standard_normal(shape)`` draws: its real parts, then its imaginary
    parts.
    """
    parts = rng.standard_normal((count, 2) + tuple(shape))
    out = np.empty((count,) + tuple(shape), dtype=np.complex128)
    out.real, out.imag = parts[:, 0], parts[:, 1]
    return out


def random_unitary(n, rng):
    """Haar-ish random unitary: the polar factor of a Gaussian complex
    matrix, redrawn while it is not unitary within 1e-10 sqrt(n), at most 8
    times."""
    eye = np.eye(n)
    for _ in range(8):
        w = _partial_isometry(*svd(complex_gaussians(rng, 1, (n, n))[0]))
        if frobenius_each(_adjoint(w) @ w - eye) <= 1e-10 * math.sqrt(n):
            return w
    raise NoConvergence("failed to draw an invertible Gaussian matrix")


def matrix_to_json(a):
    """Serialize a square complex matrix as {"dim", "re", "im"}."""
    arr = as_complex_matrix(a)
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def json_array(obj, kinds, depth, dtype=np.float64):
    """``obj`` as a ``dtype`` array if it is a rectangular JSON array nested
    ``depth`` deep with leaves of a type in ``kinds`` (a bool is no int)."""
    leaves = [obj]
    for _ in range(depth):
        if not all(type(x) is list for x in leaves):
            return None
        leaves = [y for x in leaves for y in x]
    if not all(type(x) in kinds for x in leaves):
        return None
    try:
        return np.array(obj, dtype=dtype)
    except (OverflowError, ValueError):     # ragged, or out of dtype's range
        return None


def matrix_from_json(obj):
    """Inverse of :func:`matrix_to_json`; raises ``ValueError`` on bad input:
    ``dim`` must be a JSON integer and ``re``, ``im`` tables of JSON numbers."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    dim = obj.get("dim")
    re = json_array(obj.get("re"), (int, float), 2)
    im = json_array(obj.get("im"), (int, float), 2)
    if type(dim) is not int or re is None or im is None:
        raise ValueError("matrix JSON needs an integer 'dim' and numeric 're', 'im'")
    if dim == 0 and re.size == im.size == 0:
        # matrix_to_json writes the 0 x 0 matrix as empty lists
        re = im = np.zeros((0, 0))
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            "matrix JSON shape mismatch: dim=%d, re%r, im%r"
            % (dim, re.shape, im.shape)
        )
    return as_complex_matrix(re + 1j * im)
