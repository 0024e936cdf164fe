"""Classification of linear maps on matrix and group von Neumann algebras.

The objects under test are linear maps T on a full matrix algebra or a
group algebra, each held by one n x n symbol S.  Fourier and Schur
multipliers act entrywise, ``T(x) = S * x``: a Schur symbol is its matrix
m, and the Fourier multiplier phi is the Schur multiplier [phi(u t^-1)]
restricted to VN(G) (Fourier-Schur transference).  The only other form is
a multiplier after the transpose, ``T(x) = S * x^T``: the transpose itself
is the all-ones symbol, transposed.  Three questions are answered:

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
  certificate.  The answer does not depend on p, so the path gives the
  verdicts at several exponents from one run (:func:`fourier_verdicts`,
  :func:`schur_verdicts`).
* is T an isometry for a Schatten p-norm? (sampled, with max deviation;
  one SVD of the samples' images serves every p)
* what is the canonical factorization T(a) = w B J(a) (partial isometry,
  psd weight, Jordan *-homomorphism)?  ``yeadon_extract`` computes the
  triple from T(1) and validates every defining invariant, raising
  ``NotSeparating`` when any fails, which makes a successful extraction a
  deterministic structural check.  The triple is read off the symbol S in
  O(n^2) memory: w and B from diag(S), and J the map with symbol S_ij /
  S_ii, transposed when T is; no map is applied to the whole basis.

Witness searches run a deterministic probe family first (Hadamard-rotated
coordinate splittings, involution pairs lambda(e) +- lambda(s)), then seeded
random disjoint pairs.  Pairs are evaluated as stacks, in chunks of 1, 32,
32, ... pairs with early exit.  The chunks, and each isometry sample with
its singular values, are kept in one least-recently-used cache capped in
bytes (``PAIR_CACHE``), shared by every map on the same algebra, because
suite runs reuse the same seed across many symbols.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .groups import as_symbol, fit_scalar_character
from .linalg import (
    DEFAULT_TOL,
    InvalidExponent,
    as_complex_matrix,
    check_p,
    check_tol,
    complex_gaussians,
    frobenius,
    frobenius_each,
    hermitian_eig,
    matrix_to_json,
    over_power_of_two,
    random_unitaries,
    redraw_rejected,
    singular_value_norm,
    singular_values,
)
from .schur import rank_one_unimodular_factor, herz_schur_symbol
from .vna import (
    ExhaustedRetries,
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

#: a refusal names the first residual in this order whose value is within
#: ``_TIE_RTOL`` of the largest, so that round-off cannot pick between
#: residuals that read the same value
_RESIDUAL_ORDER = ("initial_projection", "jordan_unit", "reconstruction",
                   "weight_commutation", "jordan_square", "jordan_adjoint")
_TIE_RTOL = 1e-10


class ClassifyError(Exception):
    """Base class for classification failures."""


class InvalidTrials(ClassifyError):
    """Trial count must be a positive integer."""


class NotSeparating(ClassifyError):
    """Triple extraction found an invariant violated beyond tolerance;
    ``failing`` names the residual reported."""

    def __init__(self, message, residuals=None, failing=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})
        self.failing = failing


class LinearMap:
    """Multiplier map on an operator algebra, held by its n x n symbol S.

    ``algebra`` is "matrix" (full matrix algebra, basis e_ij in row-major
    order, trace weight 1) or "group" (group von Neumann algebra, basis
    lambda(s), trace weight 1/|G|).  ``LinearMap(symbol, algebra, group)``
    is the multiplier x -> S * x (entrywise), and with ``transposed`` the
    map x -> S * x^T; the transpose is the all-ones symbol, transposed.
    ``apply`` checks the shape of its argument, one matrix or a stack of
    them.  A group-algebra symbol is [phi(u t^-1)]: the matrix of sum_s
    f(s) lambda(s) has f(u t^-1) at (u, t), so on VN(G) the map is the
    Fourier multiplier M_phi (Fourier-Schur transference).  ``images``, the
    stack of T applied to the canonical basis, is computed on each read.
    """

    __slots__ = ("algebra", "group", "transposed", "_symbol")

    def __init__(self, symbol, algebra, group=None, transposed=False):
        symbol = as_complex_matrix(symbol)
        n = symbol.shape[0]
        _check_matrix_dim(n)
        if algebra == "matrix":
            if group is not None:
                raise ValueError("matrix-algebra maps take no group")
        elif algebra == "group":
            if group is None or group.order != n:
                raise ValueError("group-algebra maps need a group of order %d" % n)
            if not np.array_equal(symbol, symbol[:, group.identity][group.rebuild_grid]):
                raise ValueError("a group-algebra symbol must be [phi(u t^-1)]")
        else:
            raise ValueError("algebra must be 'matrix' or 'group'")
        self.algebra = algebra
        self.group = group
        self.transposed = bool(transposed)
        self._symbol = symbol

    @property
    def images(self):
        return self.apply(self.basis())

    @property
    def symbol(self):
        """The n x n symbol S: T(x) is S * x, or S * x^T when
        ``transposed``."""
        return self._symbol

    @property
    def matrix_dim(self):
        return self._symbol.shape[0]

    @property
    def algebra_dim(self):
        n = self.matrix_dim
        return n if self.algebra == "group" else n * n

    @property
    def trace_weight(self):
        return 1.0 / self.group.order if self.algebra == "group" else 1.0

    def basis(self):
        """The canonical basis as a (algebra_dim, n, n) stack."""
        eye = np.eye(self.algebra_dim, dtype=np.complex128)
        if self.algebra == "group":
            return eye[:, self.group.rebuild_grid]
        return eye.reshape(-1, self.matrix_dim, self.matrix_dim)

    def unit(self):
        return np.eye(self.matrix_dim, dtype=np.complex128)

    def apply(self, x):
        x = np.asarray(x, dtype=np.complex128)
        if x.shape[-2:] != self._symbol.shape:
            raise ValueError("operand shape %r does not match dim %d"
                             % (x.shape, self.matrix_dim))
        if self.transposed:
            x = x.swapaxes(-1, -2)
        return x * self._symbol

    def random_elements(self, rng, count):
        """``count`` Gaussian elements of the algebra as a (count, n, n)
        stack; each draws the real, then the imaginary parts of its basis
        coefficients."""
        n = self.matrix_dim
        if self.algebra == "group":
            return complex_gaussians([rng] * count, (n,))[:, self.group.rebuild_grid]
        return complex_gaussians([rng] * count, (n, n))


def fourier_multiplier_map(g, phi):
    """LinearMap of the Fourier multiplier lambda(s) -> phi[s] lambda(s),
    held as the Schur symbol [phi(u t^-1)]."""
    return LinearMap(as_symbol(g, phi)[g.rebuild_grid], "group", g)


def _check_matrix_dim(n):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("matrix dimension must be an integer, got %r" % (n,))
    if n < 1:
        raise ValueError("matrix dimension must be at least 1, got %d" % n)


def schur_multiplier_map(m):
    """LinearMap of the entrywise action x -> m .* x on a matrix algebra."""
    return LinearMap(m, "matrix")


def transpose_map(n):
    """LinearMap of the transpose x -> x^T on the n x n matrices: the
    all-ones symbol, transposed."""
    _check_matrix_dim(n)
    return LinearMap(np.ones((n, n)), "matrix", transposed=True)


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
    """Probes start..stop-1 as a (2, K, n, n) stack of pair legs.

    Every pair is disjoint by construction: for an involution s both legs
    are self-adjoint and (1 + lambda(s))(1 - lambda(s)) = 1 - lambda(s^2)
    = 0, and the two rotated coordinate projections are orthogonal.  The
    search therefore takes their disjointness defects as 0 rather than
    computing them.
    """
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
    if (not isinstance(trials, (int, np.integer)) or isinstance(trials, bool)
            or trials < 1):
        raise InvalidTrials("trials must be a positive integer, got %r" % (trials,))
    return int(trials)


def check_seed(seed, error=ValueError):
    """``int(seed)``; raises ``error`` unless seed is a Python or numpy
    integer (a bool is no seed)."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise error("seed must be an integer, got %r" % (seed,))
    return int(seed)


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
    application of ``t``; chunks come from ``PAIR_CACHE``, the probes with
    zero disjointness defects (see ``_probe_stack``).  The defects of
    each chunk's images are read on the images divided by a power of two
    (``over_power_of_two``), so no square under- or overflows and the
    verdict does not depend on the scale of ``t``.

    A one-dimensional algebra has no disjoint pair with two nonzero legs,
    so every map on it is separating outright (trials recorded as 0).
    """
    p = check_p(p)
    trials = check_trials(trials)
    tol = check_tol(tol)
    seed = check_seed(seed)
    if t.algebra_dim == 1:
        return Verdict(SEPARATING, p=p, trials=0, seed=seed,
                       note="one-dimensional algebra: separating vacuously")
    algebra = _algebra_key(t)
    for start, stop in _chunks(_probe_count(t)):
        pairs, defects = PAIR_CACHE.get(
            ("probe", algebra, start, stop),
            lambda: (_probe_stack(t, start, stop), np.zeros(stop - start)))
        hit = _first_witness(t, pairs, defects, tol)
        if hit is not None:
            k, witness = hit
            witness.label = _probe_label(t, start + k)
            return Verdict(NOT_SEPARATING, p=p, trials=trials, seed=seed,
                           witness=witness)
    for start, stop in _chunks(trials):
        pairs, defects = PAIR_CACHE.get(
            ("trial", algebra, seed, start, stop),
            lambda: _trial_stack(t, seed, start, stop))
        hit = _first_witness(t, pairs, defects, tol)
        if hit is not None:
            k, witness = hit
            witness.label = "trial:%d" % (start + k)
            witness.seed = derive_seed(seed, start + k)
            return Verdict(NOT_SEPARATING, p=p, trials=trials, seed=seed,
                           witness=witness)
    return Verdict(SEPARATING, p=p, trials=trials, seed=seed)


def _first_witness(t, pairs, defects, tol):
    """(index, Witness) of the chunk's first disjoint pair with non-disjoint
    images, or None; the defects are read on the images divided by a power
    of two, which is exact."""
    images = t.apply(pairs)
    violations = disjointness_defects(over_power_of_two(images)[0])
    hits = np.flatnonzero((defects <= tol) & (violations > tol))
    if hits.size == 0:
        return None
    k = int(hits[0])
    return k, Witness(pairs[0, k].copy(), pairs[1, k].copy(),
                      images[0, k].copy(), images[1, k].copy(),
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
    worst, = _isometry_deviations(t, (p,), trials, check_seed(seed))
    return worst <= tol, worst


def _isometry_deviations(t, ps, trials, seed):
    """The max relative deviation of :func:`isometry_test` at each exponent
    of ``ps``, all read from one SVD of T(x)."""
    x, sigma_in = PAIR_CACHE.get(
        ("isometry", _algebra_key(t), seed, trials),
        lambda: _isometry_sample(t, seed, trials))
    sigma_out = singular_values(t.apply(x))
    weight = t.trace_weight
    worst = []
    for p in ps:
        norm_in = singular_value_norm(sigma_in, p, weight)
        norm_out = singular_value_norm(sigma_out, p, weight)
        drawn = norm_in != 0.0      # a zero sample has no relative deviation
        worst.append(float(np.max(np.abs(norm_out[drawn] / norm_in[drawn] - 1.0),
                                  initial=0.0)))
    return worst


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
        """The map x -> w B J(x): J is the symbol map K and w, B are
        diagonal, so it is the symbol map diag(w B) K, transposed with J."""
        j = self.jmap
        return LinearMap((self.w @ self.b).diagonal()[:, None] * j.symbol,
                         j.algebra, j.group, j.transposed)


def _worst(stack):
    """Largest Frobenius norm over a stack of matrices (0 for none), taken
    on the stack divided by its largest real or imaginary part so that no
    square underflows or overflows."""
    parts = np.ascontiguousarray(stack).view(np.float64)
    peak = float(np.max(np.abs(parts), initial=0.0))
    if peak == 0.0:
        return 0.0
    return peak * float(np.max(frobenius_each(parts / peak)))


def _jordan_defects(jmap, samples):
    """Largest ||J(x^2) - J(x)^2|| and ||J(x*) - J(x)*|| over a stack of
    samples, each first divided in place by its Frobenius norm."""
    samples /= np.maximum(frobenius_each(samples), 1e-300)[:, None, None]
    j_samples = jmap.apply(samples)
    square = jmap.apply(samples @ samples)
    square -= j_samples @ j_samples
    worst_square = _worst(square)
    del square
    star = jmap.apply(np.conj(samples.swapaxes(-1, -2), order="C"))
    star -= j_samples.conj().swapaxes(-1, -2)
    return worst_square, _worst(star)


def _symbol_triple(t):
    """(w, B, J's symbol K, residuals on the basis) of the symbol map T,
    read off its symbol S.

    T(1) = diag(S), so w = diag(S_ii / |S_ii|) on the support (the |S_ii|
    above 1e-9 of the largest), B = diag|S_ii|, and J = B^+ w* T is the
    symbol map K with K_ij = S_ij / S_ii on the support rows and 0 off
    them, transposed when T is.  A basis element takes its entries of S
    and K alone (e_ij the entry (i, j), lambda(s) the entries at u t^-1 =
    s), so each basis residual is a formula in S and K.  Transposing T
    moves e_ij to K_ji e_ji but reads the same set of entries of K for every
    residual, so the formulas hold for both.
    """
    s = t.symbol
    d = s.diagonal()
    modulus = np.abs(d)
    top = float(np.max(modulus))
    supp = modulus > _PINV_CUTOFF * top
    phase = np.where(supp, d / np.where(supp, modulus, 1.0), 0.0)
    k = np.where(supp[:, None], s / np.where(supp, d, 1.0)[:, None], 0.0)

    residuals = {}
    supp_scale = max(1.0, math.sqrt(np.count_nonzero(supp)))
    residuals["initial_projection"] = frobenius(np.abs(phase) ** 2 - supp) / supp_scale
    residuals["jordan_unit"] = frobenius(k.diagonal() - supp) / supp_scale
    residuals["reconstruction"] = (float(np.max(np.abs(s - (phase * modulus)[:, None] * k)))
                                   / (float(np.max(np.abs(s))) or 1.0))
    # the projections onto the clusters of B's diagonal are diagonal too, so
    # J(e_ij) = K_ij e_ij (or K_ji e_ji) commutes with all of them unless i
    # and j lie in different clusters; a Fourier symbol's diagonal is the
    # constant phi(e), so its B is one cluster
    ranked = np.sort(modulus)
    starts = ranked[1:][np.diff(ranked) > _CLUSTER_GAP * top]
    cluster = np.searchsorted(starts, modulus, side="right")
    size = np.abs(k)
    residuals["weight_commutation"] = float(np.max(np.where(
        cluster[:, None] != cluster[None, :], size / np.maximum(size, 1.0), 0.0)))
    if t.algebra == "group":
        # lambda(s) / sqrt(n) squares to lambda(s^2) / n
        g = t.group
        psi = k[:, g.identity]
        residuals["jordan_square"] = float(np.max(
            np.abs(psi[g.mul.diagonal()] - psi * psi))) / math.sqrt(g.order)
    else:
        # e_ij squares to 0 unless i = j
        kd = k.diagonal()
        residuals["jordan_square"] = float(np.max(np.abs(kd - kd * kd)))
    # J(x*) - J(x)* is (K_ji - conj K_ij) e_ji on e_ij, and on lambda(s) /
    # sqrt(n) it is (psi(s^-1) - conj psi(s)) lambda(s^-1) / sqrt(n), of the
    # norm of K - K* at every (u, t) with t u^-1 = s
    residuals["jordan_adjoint"] = float(np.max(np.abs(k - k.conj().T)))
    w = np.diag(phase)
    b = np.diag(modulus.astype(np.complex128))
    return w, b, k, residuals


def yeadon_extract(t, tol=DEFAULT_TOL):
    """Compute and validate the triple (w, B, J) with T(a) = w B J(a).

    w and B come from the polar decomposition of T(1); J is the map
    x -> ``B^+ w* T(x)``, with the pseudo-inverse cut at 1e-9 of the top
    eigenvalue.  Validated invariants (all relative to operand scale):

    * w* w = J(1) = support(B),
    * T(a) = w B J(a) on the whole basis,
    * every spectral projection of B commutes with every J(basis element),
    * J(a^2) = J(a)^2 and J(a*) = J(a)* on the normalized basis and on
      ``_EXTRACT_SAMPLES`` normalized seeded random elements.

    The triple is read off T's symbol S in O(n^2) memory: T(1) = diag(S),
    so w and B are diagonal, J is the symbol map S_ij / S_ii and
    ``YeadonTriple.reconstruct_map()`` the symbol map diag(w B) J, both
    transposed when T is; each basis residual is a formula in S and J's
    symbol, and J is applied to the random elements as one stack.  A
    symbol whose S_ij / S_ii overflows has no finite J, and its
    reconstruction residual reads infinity.  Any breach beyond ``tol`` raises
    ``NotSeparating`` carrying the residual table and naming the first
    residual of ``_RESIDUAL_ORDER`` within round-off of the largest, so a
    successful return is a deterministic structural certificate.
    """
    tol = check_tol(tol)
    w, b, k, residuals = _symbol_triple(t)
    if np.isfinite(k).all():
        jmap = LinearMap(k, t.algebra, t.group, t.transposed)
        rng = np.random.default_rng(derive_seed(_EXTRACT_SEED))
        square, star = _jordan_defects(jmap, t.random_elements(rng, _EXTRACT_SAMPLES))
        residuals["jordan_square"] = max(residuals["jordan_square"], square)
        residuals["jordan_adjoint"] = max(residuals["jordan_adjoint"], star)
    else:
        residuals["reconstruction"] = math.inf

    worst = max(residuals.values())
    if worst > tol:
        failing = next(key for key in _RESIDUAL_ORDER
                       if residuals[key] >= (1.0 - _TIE_RTOL) * worst)
        raise NotSeparating(
            "triple invariants violated: %s residual %.3g exceeds %.3g"
            % (failing, residuals[failing], tol),
            residuals,
            failing,
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
    = 0 and every image defect is 0.
    """
    symbol, c = tmap.symbol, certificate["c"]
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


def _classify(tmap, certificate, ps, trials, seed, tol, isometry_trials):
    """One verdict on ``tmap`` per exponent of ``ps``, given its family's
    certificate dict or None, by the rules of :func:`classify_fourier`.

    A certificate that passes :func:`_search_cannot_refute` gives
    "separating" with no search, reported as ``trials`` 0.  Otherwise the
    witness search runs, and a witness against a certificate gives
    "inconclusive" carrying both: a refutation never carries a certificate,
    so reaching that means a tolerance let through a certificate or a
    witness it should not have.  Neither the certificate nor the search
    depends on p, so both run once and the verdicts differ only in ``p``
    and in ``max_deviation``, which one SVD of the isometry samples gives at
    every p.  The verdicts share one certificate and one witness.
    """
    ps = tuple(check_p(p) for p in ps)
    if not ps:
        raise InvalidExponent("at least one Schatten exponent is needed")
    trials = check_trials(trials)
    isometry_trials = check_trials(isometry_trials)
    tol = check_tol(tol)
    seed = check_seed(seed)
    if certificate is not None and _search_cannot_refute(tmap, certificate, tol):
        verdict = Verdict(SEPARATING, p=ps[0], trials=0, seed=seed)
    else:
        verdict = separating_test(tmap, p=ps[0], trials=trials, seed=seed, tol=tol)
    deviations = (None,) * len(ps)
    if certificate is None:
        if verdict.status != NOT_SEPARATING:
            verdict = Verdict(INCONCLUSIVE, p=verdict.p, trials=verdict.trials,
                              seed=verdict.seed,
                              note="no certificate and no witness found")
    elif verdict.status == NOT_SEPARATING:
        verdict = Verdict(INCONCLUSIVE, p=verdict.p, trials=verdict.trials,
                          seed=verdict.seed, certificate=certificate,
                          witness=verdict.witness,
                          note="witness contradicts certificate; check tolerances")
    else:
        verdict = Verdict(SEPARATING, p=verdict.p, trials=verdict.trials,
                          seed=verdict.seed, certificate=certificate)
        if abs(abs(certificate["c"]) - 1.0) <= tol:
            deviations = _isometry_deviations(tmap, ps, isometry_trials, seed)
    return [replace(verdict, p=p, max_deviation=dev) for p, dev in zip(ps, deviations)]


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
    found; sampling alone never upgrades to "separating".  This is the
    one-exponent case of :func:`fourier_verdicts`.
    """
    return fourier_verdicts(g, phi, (p,), trials, seed, tol, isometry_trials)[0]


def fourier_verdicts(g, phi, ps, trials=200, seed=0, tol=DEFAULT_TOL,
                     isometry_trials=12):
    """The verdict of :func:`classify_fourier` at each exponent of ``ps``,
    in order, from one fit, at most one witness search and one SVD of the
    isometry samples."""
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
    return _classify(tmap, certificate, ps, trials, seed, tol, isometry_trials)


def classify_schur(m, p=2.0, trials=200, seed=0, tol=DEFAULT_TOL,
                   isometry_trials=12):
    """Verdict for the Schur multiplier with symbol matrix m.

    Separating iff m = c * alpha(s) beta(t) with alpha, beta unimodular; the
    rank-one unimodular factorization is the certificate.  It makes the
    verdict "separating" with no witness search when rho = max|m/c - alpha
    beta^T| satisfies the bound of :func:`classify_fourier`, and the
    verdict rules are the same.  This is the one-exponent case of
    :func:`schur_verdicts`.
    """
    return schur_verdicts(m, (p,), trials, seed, tol, isometry_trials)[0]


def schur_verdicts(m, ps, trials=200, seed=0, tol=DEFAULT_TOL,
                   isometry_trials=12):
    """The verdict of :func:`classify_schur` at each exponent of ``ps``, in
    order, from one factorization, at most one witness search and one SVD
    of the isometry samples."""
    tmap = schur_multiplier_map(m)
    cert = rank_one_unimodular_factor(tmap.symbol, tol)
    certificate = None
    if cert is not None:
        certificate = {
            "kind": "rank-one-unimodular",
            "c": complex(cert.c),
            "alpha": cert.alpha.copy(),
            "beta": cert.beta.copy(),
        }
    return _classify(tmap, certificate, ps, trials, seed, tol, isometry_trials)
