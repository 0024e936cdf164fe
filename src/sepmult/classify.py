"""Classification of linear maps on matrix and group von Neumann algebras.

The objects under test are linear maps T on a full matrix algebra or a
group algebra.  Every Fourier and Schur multiplier is held by one n x n
symbol and acts entrywise, ``T(x) = x * symbol``: a Schur symbol is its
matrix m, and the Fourier multiplier phi is the Schur multiplier
[phi(u t^-1)] restricted to VN(G) (Fourier-Schur transference).  Other maps
(the transpose, the Jordan part of a Yeadon triple) are held by their images
on the canonical basis (matrix units, left translations).  Three questions
are answered:

* is T separating, i.e. does it send disjoint pairs (a*b = ab* = 0) to
  disjoint pairs?  Refutation is sound: a verified witness ends the matter.
  Confirmation is only ever issued alongside an algebraic certificate
  (scalar multiple of a character for Fourier multipliers, rank-one
  unimodular factorization for Schur multipliers); sampling alone reports
  "inconclusive" rather than "separating".  Both certificates say the
  symbol is S = c alpha beta^T with alpha, beta unimodular, so that T is c
  times a *-automorphism followed by a unitary, which maps disjoint pairs
  to disjoint pairs.  When rho = max|S/c - alpha beta^T| satisfies
  (delta + 2 rho + rho^2) / (1 - rho)^2 <= tol, delta bounding the defect
  of every pair the search examines, no witness can exist and no search
  runs; a certificate short of that bound still runs the search, and one
  contradicted by a witness gives "inconclusive" carrying both.  Both
  families go through one verdict path and differ only in their map and
  certificate.
* is T an isometry for a Schatten p-norm? (sampled, with max deviation)
* what is the canonical factorization T(a) = w B J(a) (partial isometry,
  psd weight, Jordan *-homomorphism)?  ``yeadon_extract`` computes the
  triple from T(1) and the pseudo-inverse recipe and validates every
  defining invariant, raising ``NotSeparating`` when any fails, which makes
  a successful extraction a deterministic structural check.

Witness searches run a deterministic probe family first (Hadamard-rotated
coordinate splittings, involution pairs lambda(e) +- lambda(s)), then seeded
random disjoint pairs.  Pairs are evaluated as stacks, in chunks of 1, 32,
32, ... pairs with early exit.  The chunks, and each isometry sample with
its singular values, are kept in one least-recently-used cache capped in
bytes (``PAIR_CACHE``), shared by every map on the same algebra, because
suite runs reuse the same seed across many symbols.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groups import as_symbol, fit_scalar_character
from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    check_p,
    check_tol,
    complex_gaussians,
    frobenius,
    frobenius_each,
    hermitian_eig,
    ldexp,
    matrix_to_json,
    over_power_of_two,
    polar_decompose,
    psd_pseudo_inverse,
    random_unitaries,
    redraw_rejected,
    schatten_norm,
    singular_value_norm,
    singular_values,
    support_projection,
)
from .schur import rank_one_unimodular_factor, herz_schur_symbol
from .vna import (
    ExhaustedRetries,
    coefficients,
    derive_seed,
    disjointness_defects,
    random_disjoint_pairs,
    symbol_to_json,
)

SEPARATING = "separating"
NOT_SEPARATING = "not-separating"
INCONCLUSIVE = "inconclusive"

#: pseudo-inverse / support cutoff inside the triple extraction
_PINV_CUTOFF = 1e-9

#: relative spectral gap below which eigenvalues of the weight B are treated
#: as one cluster when checking commutation of its spectral projections
_CLUSTER_GAP = 1e-6

#: fixed internal seed: extraction is a deterministic function of the map
_EXTRACT_SEED = 0x9EAD07

#: random elements on which extraction checks the Jordan identities, after
#: the basis
_EXTRACT_SAMPLES = 8


class ClassifyError(Exception):
    """Base class for classification failures."""


class InvalidTrials(ClassifyError):
    """Trial count must be a positive integer."""


class NotSeparating(ClassifyError):
    """Triple extraction found an invariant violated beyond tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class LinearMap:
    """Linear map on an operator algebra, held by its symbol or its images.

    ``algebra`` is "matrix" (full matrix algebra, basis e_ij in row-major
    order, trace weight 1) or "group" (group von Neumann algebra, basis
    lambda(s), trace weight 1/|G|).  ``LinearMap(images, algebra, group)``
    holds a general map by its basis images, ``images[k]`` being T applied
    to the k-th basis element; ``apply`` decomposes its argument in the
    basis.  Fourier and Schur multipliers are held by an n x n symbol alone
    (:func:`fourier_multiplier_map`, :func:`schur_multiplier_map`) and
    ``apply`` multiplies entrywise by it; their ``images`` stack is built on
    first read.  A Fourier map acts on any n x n matrix as the Schur symbol
    [phi(u t^-1)]: the matrix of sum_s f(s) lambda(s) has f(u t^-1) at
    (u, t), so on VN(G) this is M_phi.  Arguments of "group" maps must lie
    in the group algebra.  ``apply`` takes one matrix or a stack of shape
    (..., n, n).
    """

    __slots__ = ("algebra", "group", "_n", "_symbol", "_images", "_flat")

    def __init__(self, images, algebra, group=None):
        images = np.ascontiguousarray(images, dtype=np.complex128)
        if images.ndim != 3 or images.shape[1] != images.shape[2]:
            raise ValueError("images must be a stack of square matrices")
        if not np.all(np.isfinite(images.view(np.float64))):
            raise ValueError("image entries must be finite")
        n = images.shape[1]
        if algebra == "matrix":
            if group is not None:
                raise ValueError("matrix-algebra maps take no group")
            if images.shape[0] != n * n:
                raise ValueError("matrix algebra of dim %d has %d basis elements"
                                 % (n, n * n))
        elif algebra == "group":
            if group is None or group.order != n:
                raise ValueError("group-algebra maps need a group of order %d" % n)
            if images.shape[0] != n:
                raise ValueError("group algebra needs one image per element")
        else:
            raise ValueError("algebra must be 'matrix' or 'group'")
        self.algebra = algebra
        self.group = group
        self._n = n
        self._symbol = None
        self._images = images
        self._flat = np.ascontiguousarray(images.reshape(images.shape[0], n * n))

    @classmethod
    def _multiplier(cls, symbol, algebra, group=None):
        """The map x -> x * symbol for an n x n ``symbol``."""
        t = cls.__new__(cls)
        t.algebra = algebra
        t.group = group
        t._n = symbol.shape[0]
        t._symbol = symbol
        t._images = None
        t._flat = None
        return t

    @property
    def images(self):
        if self._images is None:
            self._images = self.basis() * self._symbol
        return self._images

    @property
    def matrix_dim(self):
        return self._n

    @property
    def algebra_dim(self):
        return self._n if self.algebra == "group" else self._n * self._n

    @property
    def trace_weight(self):
        return 1.0 / self.group.order if self.algebra == "group" else 1.0

    def basis(self):
        """The canonical basis as a (algebra_dim, n, n) stack."""
        return self._realize(np.eye(self.algebra_dim, dtype=np.complex128))

    def unit(self):
        return np.eye(self.matrix_dim, dtype=np.complex128)

    def decompose(self, x):
        """Basis coefficients of a matrix, or of each matrix of a stack."""
        x = self._operand(x)
        if self.algebra == "group":
            return coefficients(self.group, x)
        return x.reshape(x.shape[:-2] + (self._n * self._n,))

    def _operand(self, x):
        x = np.asarray(x, dtype=np.complex128)
        if x.shape[-2:] != (self._n, self._n):
            raise ValueError("operand shape %r does not match dim %d" % (x.shape, self._n))
        return x

    def _realize(self, coeffs):
        """The matrices with the given basis coefficients (last axis)."""
        if self.algebra == "group":
            return coeffs[..., self.group.rebuild_grid]
        return coeffs.reshape(coeffs.shape[:-1] + (self._n, self._n))

    def _over_power_of_two(self):
        """(this map divided by 2**e, e), with e chosen so that the largest
        real or imaginary part of its symbol or images lies in [0.5, 1); the
        division is exact unless an entry falls below the normal range."""
        unit, e = over_power_of_two(self._images if self._symbol is None else self._symbol)
        if self._symbol is not None:
            return LinearMap._multiplier(unit, self.algebra, self.group), e
        return LinearMap(unit, self.algebra, self.group), e

    def apply(self, x):
        if self._symbol is not None:
            return self._operand(x) * self._symbol
        coeffs = self.decompose(x)
        return (coeffs @ self._flat).reshape(coeffs.shape[:-1] + (self._n, self._n))

    def random_elements(self, rng, count):
        """``count`` Gaussian elements of the algebra as a (count, n, n)
        stack; each draws the real, then the imaginary parts of its basis
        coefficients."""
        n = self.matrix_dim
        if self.algebra == "group":
            return self._realize(complex_gaussians([rng] * count, (n,)))
        return complex_gaussians([rng] * count, (n, n))


def fourier_multiplier_map(g, phi):
    """LinearMap of the Fourier multiplier lambda(s) -> phi[s] lambda(s),
    held as the Schur symbol [phi(u t^-1)]."""
    return LinearMap._multiplier(as_symbol(g, phi)[g.rebuild_grid], "group", g)


def _check_matrix_dim(n):
    if n < 1:
        raise ValueError("matrix dimension must be at least 1, got %d" % n)


def schur_multiplier_map(m):
    """LinearMap of the entrywise action x -> m .* x on a matrix algebra."""
    mm = as_complex_matrix(m)
    _check_matrix_dim(mm.shape[0])
    return LinearMap._multiplier(mm, "matrix")


def transpose_map(n):
    """LinearMap of the transpose x -> x^T on the n x n matrices."""
    _check_matrix_dim(n)
    units = schur_multiplier_map(np.ones((n, n))).basis()
    return LinearMap(units.swapaxes(1, 2), "matrix")


# ---------------------------------------------------------------------------
# witnesses and verdicts


@dataclass
class Witness:
    """A disjoint pair whose images fail disjointness, with the evidence."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    image_a: np.ndarray = field(repr=False)
    image_b: np.ndarray = field(repr=False)
    violation: float = 0.0
    label: str = ""
    seed: Optional[int] = None


@dataclass
class Verdict:
    status: str
    p: float
    trials: int
    seed: int
    certificate: Optional[dict] = None
    witness: Optional[Witness] = None
    max_deviation: Optional[float] = None
    note: Optional[str] = None


def _complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def verdict_to_json(v):
    out = {
        "status": v.status,
        "p": float(v.p),
        "trials": int(v.trials),
        "seeds": {"master": int(v.seed)},
        "max_deviation": None if v.max_deviation is None else float(v.max_deviation),
    }
    if v.note:
        out["note"] = v.note
    if v.certificate is not None:
        # a certificate is its kind, its scale c and vectors (the character,
        # or the factors alpha and beta), whichever the family
        cert = {"kind": v.certificate["kind"], "c": _complex_pair(v.certificate["c"])}
        for key, value in v.certificate.items():
            if key not in cert:
                cert[key] = symbol_to_json(value)
        out["certificate"] = cert
    if v.witness is not None:
        w = v.witness
        out["witness"] = {
            "label": w.label,
            "violation": float(w.violation),
            "seed": None if w.seed is None else int(w.seed),
            "a": matrix_to_json(w.a),
            "b": matrix_to_json(w.b),
            "image_a": matrix_to_json(w.image_a),
            "image_b": matrix_to_json(w.image_b),
        }
    return out


# ---------------------------------------------------------------------------
# disjoint pair supply
#
# The witness search reads pairs in chunks: a (2, K, n, n) stack holding the
# first legs and the second legs of K pairs, together with the disjointness
# defect of each pair.  Chunks hold 1, 32, 32, ... pairs, so a map refuted by
# its first pair pays for that pair only.

_FIRST_CHUNK = 1
_CHUNK = 32


class PairCache:
    """Least-recently-used store of pair chunks and isometry samples,
    capped in bytes.

    ``get(key, build)`` returns the stored tuple of arrays for ``key`` or
    calls ``build()`` and stores its result, evicting the least recently
    used entries until the total stays within ``cap_bytes``; a result larger
    than the cap is returned without being stored.  Stored arrays are
    read-only.  ``hits`` and ``misses`` count lookups.
    """

    def __init__(self, cap_bytes):
        self.cap_bytes = int(cap_bytes)
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def get(self, key, build):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        self.misses += 1
        entry = build()
        size = sum(x.nbytes for x in entry)
        if size <= self.cap_bytes:
            for x in entry:
                x.setflags(write=False)
            self._entries[key] = entry
            self.nbytes += size
            while self.nbytes > self.cap_bytes:
                _, old = self._entries.popitem(last=False)
                self.nbytes -= sum(x.nbytes for x in old)
        return entry


#: the probe and trial chunks and the isometry samples of every algebra,
#: keyed by the algebra's dimension or group table (``_algebra_key``), so
#: equal algebras share them
PAIR_CACHE = PairCache(64 << 20)


def _algebra_key(t):
    return t.group.mul.tobytes() if t.algebra == "group" else t.matrix_dim


def _chunks(total):
    """(start, stop) bounds that cover range(total) in order: 1, 32, 32, ..."""
    start, size = 0, _FIRST_CHUNK
    while start < total:
        stop = min(start + size, total)
        yield start, stop
        start, size = stop, _CHUNK


def _with_defects(pairs):
    return pairs, disjointness_defects(pairs)


def _random_subset_mask(rng, n):
    for _ in range(64):
        mask = rng.integers(0, 2, size=n).astype(bool)
        if mask.any() and not mask.all():
            return mask
    raise ExhaustedRetries("could not draw a proper nonempty coordinate subset")


def random_disjoint_pair_matrix(n, seed):
    """Disjoint pair in a full matrix algebra from unitary coordinate splits.

    p = u e_S u* and q = u e_{S^c} u* for a random unitary u and random
    proper subset S (and an independent split (r, s)); the pair is
    a = p x r, b = q y s for Gaussian x, y.  Requires n >= 2.
    """
    legs, _ = random_disjoint_pairs_matrix(n, [seed])
    return legs[0, 0], legs[1, 0]


def random_disjoint_pairs_matrix(n, seeds):
    """:func:`random_disjoint_pair_matrix` for each seed, drawn together.

    Returns the (2, K, n, n) stack of the legs a and b for the K seeds, and
    the disjointness defect of each pair (the acceptance check's,
    ``disjointness_defects`` of that stack).
    Each seed's generator draws, per attempt, u, then v (see
    ``random_unitaries``), the subsets S and T, then x and y; the pairs
    rejected as degenerate or not disjoint within 1e-10 retry together, up
    to 64 attempts.
    """
    if n < 2:
        raise ExhaustedRetries("no nonzero disjoint pairs exist in dimension %d" % n)
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def draw(_, rows):
        live = [rngs[i] for i in rows]
        u = random_unitaries(n, live)
        v = random_unitaries(n, live)
        subsets = np.array([[_random_subset_mask(rng, n), _random_subset_mask(rng, n)]
                            for rng in live])[:, :, None, :]
        x = complex_gaussians(live, (n, n))
        y = complex_gaussians(live, (n, n))
        scale = np.maximum(frobenius_each(x), frobenius_each(y))
        # a = p x r and b = q y s: the projections keep the columns of u
        # and v in the subsets (p, r) or in their complements (q, s)
        uh, vh = u.conj().swapaxes(-1, -2), v.conj().swapaxes(-1, -2)
        legs = np.empty((2, len(rows), n, n), dtype=np.complex128)
        np.matmul((u * subsets[:, 0]) @ uh @ x, (v * subsets[:, 1]) @ vh, out=legs[0])
        np.matmul((u * ~subsets[:, 0]) @ uh @ y, (v * ~subsets[:, 1]) @ vh, out=legs[1])
        ok = (frobenius_each(legs) > 1e-8 * scale).all(axis=0)
        defects = disjointness_defects(legs)
        ok &= defects <= 1e-10
        return (legs.swapaxes(0, 1), defects), ok

    legs, defects = redraw_rejected(len(rngs), 64, draw, ExhaustedRetries(
        "could not draw a matrix-algebra disjoint pair"))
    return legs.swapaxes(0, 1), defects


def _trial_stack(t, seed, start, stop):
    """Trial pairs start..stop-1, drawn from derive_seed(seed, i): the
    (2, K, n, n) stack of pair legs and the disjointness defect of each."""
    seeds = [derive_seed(seed, i) for i in range(start, stop)]
    if t.algebra == "group":
        return random_disjoint_pairs(t.group, seeds)
    return random_disjoint_pairs_matrix(t.matrix_dim, seeds)


def _probe_count(t):
    if t.algebra == "group":
        return len(t.group.involutions())
    n = t.matrix_dim
    return n * (n - 1) // 2


def _hadamard_indices(n, k):
    """(i, j) of the k-th index pair i < j < n in row-major order; k may be
    an array."""
    rows = np.arange(n - 1)
    starts = rows * (n - 1) - rows * (rows - 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


def _probe_label(t, k):
    if t.algebra == "group":
        return "probe:involution:%s" % t.group.names[t.group.involutions()[k]]
    return "probe:hadamard:%d,%d" % _hadamard_indices(t.matrix_dim, k)


def _probe_stack(t, start, stop):
    """Probes start..stop-1 as a (2, K, n, n) stack of pair legs."""
    n = t.matrix_dim
    k = np.arange(stop - start)
    pairs = np.zeros((2, stop - start, n, n), dtype=np.complex128)
    if t.algebra == "group":
        # 1 + lambda(s) and 1 - lambda(s) for the involutions s, in index
        # order; lambda(s) has no diagonal entry
        g = t.group
        cols = np.arange(n)
        rows = g.mul[g.involutions()[start:stop]]
        pairs[:, :, cols, cols] = 1.0
        pairs[0, k[:, None], rows, cols] = 1.0
        pairs[1, k[:, None], rows, cols] = -1.0
    else:
        # the coordinate split {i}, {j} rotated by the Hadamard block on
        # (i, j), for i < j in row-major order: (e_i +- e_j)(e_i +- e_j)* / 2
        i, j = _hadamard_indices(n, np.arange(start, stop))
        r = 1.0 / math.sqrt(2.0)
        half = r * r    # as the outer products of the rotated columns give it
        pairs[:, k, i, i] = half
        pairs[:, k, j, j] = half
        pairs[0, k, i, j] = pairs[0, k, j, i] = half
        pairs[1, k, i, j] = pairs[1, k, j, i] = -half
    return pairs


def deterministic_probes(t):
    """The fixed probe pairs checked before any random draw, as (a, b, label).

    Involution pairs 1 +- lambda(s) for group algebras, Hadamard-rotated
    coordinate splittings for matrix algebras.
    """
    count = _probe_count(t)
    pairs = _probe_stack(t, 0, count)
    return [(pairs[0, k], pairs[1, k], _probe_label(t, k)) for k in range(count)]


# ---------------------------------------------------------------------------
# tests


def check_trials(trials):
    """``int(trials)``; raises ``InvalidTrials`` unless trials is a positive
    integer."""
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise InvalidTrials("trials must be a positive integer, got %r" % (trials,))
    return int(trials)


def separating_test(t, p=2.0, trials=200, seed=0, tol=DEFAULT_TOL):
    """Search for a disjoint pair whose images are not disjoint.

    Deterministic probes run first, then ``trials`` seeded random pairs
    (trial i drawn from ``derive_seed(seed, i)``); the first verified
    witness in that order (pair disjoint within tol, image defect above tol)
    yields status "not-separating".  With no witness the status is
    "separating" in the sampled sense only; callers that need a sound
    positive answer must pair this with an algebraic certificate.  The
    exponent p is recorded for reporting and does not influence the search.

    Pairs are evaluated in chunks (see ``_chunks``), each with one batched
    application of ``t``; chunks come from ``PAIR_CACHE``.  The search runs
    on ``t / 2**e`` with its largest entry in [0.5, 1) (see
    ``LinearMap._over_power_of_two``), so no square under- or overflows and
    the verdict does not depend on the scale of ``t``; the witness images
    are multiplied back by ``2**e``.

    A one-dimensional algebra has no disjoint pair with two nonzero legs,
    so every map on it is separating outright (trials recorded as 0).
    """
    p = check_p(p)
    trials = check_trials(trials)
    tol = check_tol(tol)
    seed = int(seed)
    if t.algebra_dim == 1:
        return Verdict(SEPARATING, p=p, trials=0, seed=seed,
                       note="one-dimensional algebra: separating vacuously")
    algebra = _algebra_key(t)
    unit_t, e = t._over_power_of_two()
    for start, stop in _chunks(_probe_count(t)):
        pairs, defects = PAIR_CACHE.get(
            ("probe", algebra, start, stop),
            lambda: _with_defects(_probe_stack(t, start, stop)))
        hit = _first_witness(unit_t, pairs, defects, tol, e)
        if hit is not None:
            k, witness = hit
            witness.label = _probe_label(t, start + k)
            return Verdict(NOT_SEPARATING, p=p, trials=trials, seed=seed,
                           witness=witness)
    for start, stop in _chunks(trials):
        pairs, defects = PAIR_CACHE.get(
            ("trial", algebra, seed, start, stop),
            lambda: _trial_stack(t, seed, start, stop))
        hit = _first_witness(unit_t, pairs, defects, tol, e)
        if hit is not None:
            k, witness = hit
            witness.label = "trial:%d" % (start + k)
            witness.seed = derive_seed(seed, start + k)
            return Verdict(NOT_SEPARATING, p=p, trials=trials, seed=seed,
                           witness=witness)
    return Verdict(SEPARATING, p=p, trials=trials, seed=seed)


def _first_witness(t, pairs, defects, tol, e):
    """(index, Witness) of the chunk's first disjoint pair with non-disjoint
    images, or None; the witness images are multiplied by ``2**e``."""
    images = t.apply(pairs)
    violations = disjointness_defects(images)
    hits = np.flatnonzero((defects <= tol) & (violations > tol))
    if hits.size == 0:
        return None
    k = int(hits[0])
    return k, Witness(pairs[0, k].copy(), pairs[1, k].copy(),
                      ldexp(images[0, k], e), ldexp(images[1, k], e),
                      float(violations[k]))


def isometry_test(t, p=2.0, trials=50, seed=0, tol=DEFAULT_TOL):
    """Sampled isometry check; returns (within_tol, max relative deviation).

    The ``trials`` samples x are Gaussian elements of the algebra drawn from
    ``derive_seed(seed, 0x150)``, so they depend on the algebra, ``seed`` and
    ``trials`` alone: the stack x and its singular values come from
    ``PAIR_CACHE``, and each call takes only the SVD of T(x).
    """
    p = check_p(p)
    trials = check_trials(trials)
    tol = check_tol(tol)
    seed = int(seed)
    x, sigma_in = PAIR_CACHE.get(
        ("isometry", _algebra_key(t), seed, trials),
        lambda: _isometry_sample(t, seed, trials))
    norm_in = singular_value_norm(sigma_in, p, t.trace_weight)
    norm_out = schatten_norm(t.apply(x), p, t.trace_weight)
    drawn = norm_in != 0.0      # a zero sample has no relative deviation
    worst = float(np.max(np.abs(norm_out[drawn] / norm_in[drawn] - 1.0), initial=0.0))
    return worst <= tol, worst


def _isometry_sample(t, seed, trials):
    """The isometry samples of ``t``'s algebra and their singular values."""
    x = t.random_elements(np.random.default_rng(derive_seed(seed, 0x150)), trials)
    return x, singular_values(x)


# ---------------------------------------------------------------------------
# Yeadon triple extraction


@dataclass
class YeadonTriple:
    """Factorization T(a) = w B J(a): partial isometry, psd weight, Jordan map."""

    w: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    jmap: LinearMap = field(repr=False)
    residuals: dict = field(default_factory=dict)

    def reconstruct_map(self):
        images = (self.w @ self.b) @ self.jmap.images
        return LinearMap(images, self.jmap.algebra, self.jmap.group)


def _b_cluster_projections(b):
    vals, vecs = hermitian_eig(b)
    scale = float(np.max(np.abs(vals), initial=0.0))
    if scale == 0.0:
        return []
    cuts = np.flatnonzero(np.diff(vals) > _CLUSTER_GAP * scale) + 1
    return [vk @ vk.conj().T for vk in np.split(vecs, cuts, axis=1)]


def _worst(stack):
    """Largest Frobenius norm over a stack of matrices (0 for none), taken
    on the stack divided by its largest real or imaginary part so that no
    square underflows or overflows."""
    parts = np.ascontiguousarray(stack).view(np.float64)
    peak = float(np.max(np.abs(parts), initial=0.0))
    if peak == 0.0:
        return 0.0
    return peak * float(np.max(frobenius_each(parts / peak)))


def yeadon_extract(t, tol=DEFAULT_TOL):
    """Compute and validate the triple (w, B, J) with T(a) = w B J(a).

    w and B come from the polar decomposition of T(1); J(a) is
    ``B^+ w* T(a)`` with the pseudo-inverse cut at 1e-9 of the top
    eigenvalue.  Validated invariants (all relative to operand scale):

    * w* w = J(1) = support(B),
    * T(a) = w B J(a) on the whole basis,
    * every spectral projection of B commutes with every J(basis element),
    * J(a^2) = J(a)^2 and J(a*) = J(a)* on basis and random elements.

    J is applied as ``B^+ w* T`` to whole stacks: the basis, and one sample
    stack of the normalized basis followed by ``_EXTRACT_SAMPLES``
    normalized random elements.  Any breach beyond ``tol`` raises
    ``NotSeparating`` carrying the residual table, so a successful return is
    a deterministic structural certificate.
    """
    tol = check_tol(tol)
    t_unit = t.apply(t.unit())
    w, b = polar_decompose(t_unit, _PINV_CUTOFF)
    bpw = psd_pseudo_inverse(b, _PINV_CUTOFF) @ w.conj().T
    basis = t.basis()
    t_images = t.apply(basis)
    jmap = LinearMap(bpw @ t_images, t.algebra, t.group)
    j_images = jmap.images

    residuals = {}
    supp = support_projection(b, _PINV_CUTOFF)
    supp_scale = max(1.0, frobenius(supp))
    residuals["initial_projection"] = frobenius(w.conj().T @ w - supp) / supp_scale
    residuals["jordan_unit"] = frobenius(bpw @ t_unit - supp) / supp_scale

    # each dense (d, n, n) stack is dropped once read, so that at most about
    # five are alive at a time
    recon = (w @ b) @ j_images
    recon -= t_images
    residuals["reconstruction"] = _worst(recon) / (_worst(t_images) or 1.0)
    del recon, t_images

    denom = np.maximum(frobenius_each(j_images), 1.0)
    residuals["weight_commutation"] = max(
        (float(np.max(frobenius_each(proj @ j_images - j_images @ proj) / denom))
         for proj in _b_cluster_projections(b)), default=0.0)

    rng = np.random.default_rng(derive_seed(_EXTRACT_SEED))
    samples = np.concatenate([basis, t.random_elements(rng, _EXTRACT_SAMPLES)])
    del basis
    samples /= np.maximum(frobenius_each(samples), 1e-300)[:, None, None]
    j_samples = bpw @ t.apply(samples)
    square = bpw @ t.apply(samples @ samples)
    square -= j_samples @ j_samples
    residuals["jordan_square"] = _worst(square)
    del square
    star = bpw @ t.apply(np.conj(samples.swapaxes(-1, -2), order="C"))
    star -= j_samples.conj().swapaxes(-1, -2)
    residuals["jordan_adjoint"] = _worst(star)

    worst = max(residuals.values())
    if worst > tol:
        failing = max(residuals, key=residuals.get)
        raise NotSeparating(
            "triple invariants violated: %s residual %.3g exceeds %.3g"
            % (failing, residuals[failing], tol),
            residuals,
        )
    return YeadonTriple(w, b, jmap, residuals)


# ---------------------------------------------------------------------------
# positive definiteness and the top-level classifiers


def positive_definite_test(g, phi, tol=DEFAULT_TOL):
    """Whether [phi(s^-1 t)] is a psd matrix; returns (bool, min eigenvalue).

    Positive definiteness of a function requires the Herz-Schur matrix to be
    Hermitian and psd; the reported eigenvalue is the smallest one of the
    Hermitian part (the diagnostic that remains meaningful when the
    Hermiticity gate already fails).
    """
    tol = check_tol(tol)
    m = herz_schur_symbol(g, phi)
    # the defect is read on m / max|m| so that no square under- or overflows
    unit = m / max(float(np.max(np.abs(m))), 1e-300)
    hermitian_defect = frobenius(unit - unit.conj().T) / max(frobenius(unit), 1e-300)
    vals, _ = hermitian_eig(0.5 * (m + m.conj().T))
    min_eig = float(vals[0])
    ok = hermitian_defect <= tol and min_eig >= -tol * float(np.max(np.abs(vals)))
    return ok, min_eig


#: largest disjointness defect of a pair the witness search examines at any
#: tol: trial pairs are drawn within 1e-10, probes are exactly disjoint
_PAIR_DEFECT_CAP = 1e-10


def _search_cannot_refute(tmap, certificate, tol):
    """Whether no witness search on ``tmap`` at ``tol`` can find a witness,
    proved from the map's own symbol S and the certificate (c, alpha, beta).

    Let u, v be alpha, beta divided by their moduli, eta the largest
    distance of a modulus from 1, and rho = max|S/c - alpha beta^T| + 2 eta
    + eta^2 >= max|S/c - u v^T|.  Then T = T0 + E for T0(x) = c D_u x D_v,
    which maps disjoint pairs to disjoint pairs and scales norms by |c|, and
    ||E(x)|| <= |c| rho ||x|| (Frobenius norms).  For rho < 1, a pair with
    defect delta therefore has images with defect at most
    (delta + 2 rho + rho^2) / (1 - rho)^2.  The search examines pairs with
    delta <= min(tol, 1e-10), and 64 n eps covers the round-off of
    computing the defects.  For c = 0 it is True exactly when S = 0: then T
    = 0 and every image defect is 0.  False when ``tmap`` is not a symbol
    map, and then only the search can decide.
    """
    symbol, c = tmap._symbol, certificate["c"]
    if symbol is None:
        return False
    if c == 0:
        return not symbol.any()
    if certificate["kind"] == "scalar-character":
        # phi(u t^-1) = c psi(u) conj(psi(t))
        alpha = certificate["character"]
        beta = alpha.conj()
    else:
        alpha, beta = certificate["alpha"], certificate["beta"]
    eta = max(float(np.max(np.abs(np.abs(v) - 1.0))) for v in (alpha, beta))
    rho = float(np.max(np.abs(symbol / c - np.outer(alpha, beta))))
    rho += 2.0 * eta + eta * eta
    if not rho < 1.0:
        return False
    delta = min(tol, _PAIR_DEFECT_CAP) + 64 * tmap.matrix_dim * np.finfo(float).eps
    return (delta + 2.0 * rho + rho * rho) / (1.0 - rho) ** 2 <= tol


def _classify(tmap, certificate, p, trials, seed, tol, isometry_trials):
    """The verdict on ``tmap`` given its family's certificate dict or None,
    by the rules of :func:`classify_fourier`.

    A certificate that passes :func:`_search_cannot_refute` gives
    "separating" with no search, reported as ``trials`` 0.  Otherwise the
    witness search runs, and a witness against a certificate gives
    "inconclusive" carrying both: a refutation never carries a certificate,
    so reaching that means a tolerance let through a certificate or a
    witness it should not have.
    """
    p = check_p(p)
    trials = check_trials(trials)
    isometry_trials = check_trials(isometry_trials)
    tol = check_tol(tol)
    seed = int(seed)
    if certificate is not None and _search_cannot_refute(tmap, certificate, tol):
        verdict = Verdict(SEPARATING, p=p, trials=0, seed=seed)
    else:
        verdict = separating_test(tmap, p=p, trials=trials, seed=seed, tol=tol)
    if certificate is None:
        if verdict.status == NOT_SEPARATING:
            return verdict
        return Verdict(INCONCLUSIVE, p=verdict.p, trials=verdict.trials,
                       seed=verdict.seed,
                       note="no certificate and no witness found")
    if verdict.status == NOT_SEPARATING:
        return Verdict(INCONCLUSIVE, p=verdict.p, trials=verdict.trials,
                       seed=verdict.seed, certificate=certificate,
                       witness=verdict.witness,
                       note="witness contradicts certificate; check tolerances")
    max_dev = None
    if abs(abs(certificate["c"]) - 1.0) <= tol:
        _, max_dev = isometry_test(tmap, p=p, trials=isometry_trials,
                                   seed=seed, tol=tol)
    return Verdict(SEPARATING, p=verdict.p, trials=verdict.trials,
                   seed=verdict.seed, certificate=certificate,
                   max_deviation=max_dev)


def classify_fourier(g, phi, p=2.0, trials=200, seed=0, tol=DEFAULT_TOL,
                     isometry_trials=12):
    """Verdict for the Fourier multiplier with the given symbol.

    Separating iff the symbol fits c * psi for a character psi.  The map's
    symbol is S = [phi(u t^-1)], which c [psi(u) conj(psi(t))] matches up
    to the fit's residual.  When rho = max|S/c - psi psi^*| satisfies
    (delta + 2 rho + rho^2) / (1 - rho)^2 <= tol, with delta = min(tol,
    1e-10) plus round-off, no witness can exist and the verdict is
    "separating" with no witness search (``trials`` 0; see
    :func:`_search_cannot_refute`).  A certificate short of that bound runs
    the search, and a witness then makes the verdict "inconclusive".  When
    |c| = 1 an isometry sample is added.  Without a certificate the verdict
    is the witness search's refutation, or "inconclusive" if none was
    found; sampling alone never upgrades to "separating".
    """
    tmap = fourier_multiplier_map(g, phi)
    fit = fit_scalar_character(g, phi, tol)
    certificate = None
    if fit is not None:
        c, psi = fit
        certificate = {
            "kind": "scalar-character",
            "c": complex(c),
            "character": psi.values.copy(),
        }
    return _classify(tmap, certificate, p, trials, seed, tol, isometry_trials)


def classify_schur(m, p=2.0, trials=200, seed=0, tol=DEFAULT_TOL,
                   isometry_trials=12):
    """Verdict for the Schur multiplier with symbol matrix m.

    Separating iff m = c * alpha(s) beta(t) with alpha, beta unimodular; the
    rank-one unimodular factorization is the certificate.  It makes the
    verdict "separating" with no witness search when rho = max|m/c - alpha
    beta^T| satisfies the bound of :func:`classify_fourier`, and the
    verdict rules are the same.
    """
    mm = as_complex_matrix(m)
    tmap = schur_multiplier_map(mm)
    cert = rank_one_unimodular_factor(mm, tol)
    certificate = None
    if cert is not None:
        certificate = {
            "kind": "rank-one-unimodular",
            "c": complex(cert.c),
            "alpha": cert.alpha.copy(),
            "beta": cert.beta.copy(),
        }
    return _classify(tmap, certificate, p, trials, seed, tol, isometry_trials)
