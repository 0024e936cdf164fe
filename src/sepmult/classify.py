"""Classification of linear maps on matrix and group von Neumann algebras.

The objects under test are multipliers built from the symbol the theory
names: ``LinearMap(m)`` is the Schur multiplier of an n x n matrix m, and
``LinearMap(phi, g)`` the Fourier multiplier M_phi of a function phi on a
group g.  Both act entrywise, ``T(x) = S * x``, with S = m, or S = [phi(u
t^-1)], whose Schur multiplier restricted to VN(G) is M_phi (Fourier-Schur
transference).  The only other form is a multiplier after the transpose,
``T(x) = S * x^T``: the transpose is the all-ones symbol, transposed.
Three questions are answered:

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
  ``NotSeparating`` when any fails.  The triple is read off the symbol S in
  O(n^2) memory and time, with no random number: w and B from diag(S), and
  J the map with symbol K = S_ij / S_ii, transposed when T is, which is
  Jordan exactly when K_ij = K_ik K_kj, decided at one pivot row of K.

Witness searches run a deterministic probe family first (Hadamard-rotated
coordinate splittings, involution pairs lambda(e) +- lambda(s)), then seeded
random disjoint pairs.  A probe's image defect is read off the 2 x 2 block
of the symbol it meets; trial pairs are drawn and checked one at a time,
stopping at the first witness.  Each trial pair, and each isometry sample
with its singular values, is kept in one least-recently-used cache capped
in bytes (``PAIR_CACHE``), shared by every map on the same algebra, because
suite runs reuse the same seed across many symbols.
"""

from __future__ import annotations

import itertools
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
    ldexp,
    matrix_to_json,
    over_power_of_two,
    random_unitary,
    singular_value_norm,
    singular_values,
)
from .schur import rank_one_unimodular_factor, herz_schur_symbol
from .vna import (
    ExhaustedRetries,
    derive_seed,
    disjointness_defects,
    random_disjoint_pair,
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
    """Multiplier on an operator algebra, built from its symbol.

    ``LinearMap(m)`` is the Schur multiplier x -> m * x (entrywise) on the
    n x n matrices: ``algebra`` "matrix", basis e_ij in row-major order,
    trace weight 1.  ``LinearMap(phi, g)``, phi one value per element of g
    in table order, is the Fourier multiplier lambda(s) -> phi(s) lambda(s):
    ``algebra`` "group", basis lambda(s), trace weight 1/|G|.  The matrix of
    sum_s f(s) lambda(s) has f(u t^-1) at (u, t), so M_phi is the entrywise
    product with its ``symbol`` S = [phi(u t^-1)] (Fourier-Schur
    transference).  With ``transposed`` the map is x -> S * x^T.  ``apply``
    takes one matrix or a stack of them; ``images``, T of the canonical
    basis, is computed on each read.
    """

    __slots__ = ("group", "transposed", "_symbol")

    def __init__(self, symbol, group=None, transposed=False):
        if group is None:
            symbol = as_complex_matrix(symbol)
            check_dim(symbol.shape[0])
        else:
            symbol = as_symbol(group, symbol)[group.rebuild_grid]
        self.group = group
        self.transposed = bool(transposed)
        self._symbol = symbol

    @property
    def algebra(self):
        return "matrix" if self.group is None else "group"

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
        return n if self.group is not None else n * n

    @property
    def trace_weight(self):
        return 1.0 / self.group.order if self.group is not None else 1.0

    def basis(self):
        """The canonical basis as a (algebra_dim, n, n) stack."""
        eye = np.eye(self.algebra_dim, dtype=np.complex128)
        if self.group is not None:
            return eye[:, self.group.rebuild_grid]
        return eye.reshape(-1, self.matrix_dim, self.matrix_dim)

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
        if self.group is not None:
            return complex_gaussians(rng, count, (n,))[:, self.group.rebuild_grid]
        return complex_gaussians(rng, count, (n, n))


def fourier_multiplier_map(g, phi):
    """LinearMap of the Fourier multiplier lambda(s) -> phi[s] lambda(s)."""
    return LinearMap(phi, g)


def schur_multiplier_map(m):
    """LinearMap of the entrywise action x -> m .* x on a matrix algebra."""
    return LinearMap(m)


def transpose_map(n):
    """LinearMap of the transpose x -> x^T on the n x n matrices: the
    all-ones symbol, transposed."""
    n = check_dim(n)
    return LinearMap(np.ones((n, n)), transposed=True)


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


class PairCache:
    """Least-recently-used store of trial pairs and isometry samples,
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


#: the trial pairs and the isometry samples of every algebra, keyed by the
#: algebra's dimension or group table (``_algebra_key``), so equal algebras
#: share them; a trial entry holds one pair, its defect and its seed;
#: probes are read off the symbol and need no pairs
PAIR_CACHE = PairCache(64 << 20)


def _algebra_key(t):
    return t.group.table_bytes if t.group is not None else t.matrix_dim


def _random_subset_mask(rng, n):
    for _ in range(64):
        mask = rng.integers(0, 2, size=n).astype(bool)
        if mask.any() and not mask.all():
            return mask
    raise ExhaustedRetries("could not draw a proper nonempty coordinate subset")


def random_disjoint_pair_matrix(n, seed):
    """Disjoint pair in a full matrix algebra from unitary coordinate splits.

    p = u e_S u* and q = u e_{S^c} u* for a random unitary u and random
    proper subset S, and (r, s) likewise from v and T; the pair is a = p x r,
    b = q y s for Gaussian x, y.  Each attempt draws u, then v (see
    ``random_unitary``), S and T, then x and y from the generator of
    ``seed``; a pair with a vanishing leg or a ``disjointness_defects``
    above 1e-10 is drawn again, up to 64 attempts.  Requires n >= 2.
    """
    if n < 2:
        raise ExhaustedRetries("no nonzero disjoint pairs exist in dimension %d" % n)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        subset_u, subset_v = _random_subset_mask(rng, n), _random_subset_mask(rng, n)
        xy = complex_gaussians(rng, 2, (n, n))
        # a = p x r and b = q y s: the projections keep the columns of u
        # and v in the subsets (p, r) or in their complements (q, s)
        uh, vh = u.conj().T, v.conj().T
        legs = np.stack([(u * subset_u) @ uh @ xy[0] @ ((v * subset_v) @ vh),
                         (u * ~subset_u) @ uh @ xy[1] @ ((v * ~subset_v) @ vh)])
        if ((frobenius_each(legs) > 1e-8 * np.max(frobenius_each(xy))).all()
                and disjointness_defects(legs) <= 1e-10):
            return legs[0], legs[1]
    raise ExhaustedRetries("could not draw a matrix-algebra disjoint pair")


def _trial_pair(t, seed, i):
    """Trial pair i, drawn from derive_seed(seed, i): its (2, n, n) legs,
    their disjointness defect and that seed."""
    pair_seed = derive_seed(seed, i)
    pair = np.stack(random_disjoint_pair(t.group, pair_seed) if t.group is not None
                    else random_disjoint_pair_matrix(t.matrix_dim, pair_seed))
    return pair, disjointness_defects(pair), np.array(pair_seed, dtype=np.uint64)


def _probe_keys(t):
    """The probes in search order: the involutions s of a group algebra in
    index order, or the index pairs (i, j), i < j, in row-major order."""
    if t.group is not None:
        return t.group.involutions()
    return itertools.combinations(range(t.matrix_dim), 2)


def _probe_label(t, probe):
    if t.group is not None:
        return "probe:involution:%s" % t.group.names[probe]
    return "probe:hadamard:%d,%d" % probe


def _probe_pair(t, probe):
    """The probe's pair legs as a (2, n, n) stack: 1 +- lambda(s) for an
    involution s, (e_i +- e_j)(e_i +- e_j)* / 2 for (i, j); lambda(s) has
    its 1s at (s t, t), off the diagonal, read from the row ``mul[s]``."""
    n = t.matrix_dim
    pair = np.zeros((2, n, n), dtype=np.complex128)
    if t.group is not None:
        cols = np.arange(n)
        pair[:, cols, cols] = 1.0
        pair[:, t.group.mul[probe], cols] = ((1.0,), (-1.0,))
        return pair
    i, j = probe
    # 1/2 as r * r, as the outer products of the rotated columns give it
    r = 1.0 / math.sqrt(2.0)
    half = r * r
    pair[:, i, i] = pair[:, j, j] = pair[0, i, j] = pair[0, j, i] = half
    pair[1, i, j] = pair[1, j, i] = -half
    return pair


def _probe_violation(t, probe):
    """The disjointness defect of the probe's images, read off the 2 x 2
    principal block of the symbol S that the probe meets.

    The probes are disjoint by construction: (1 + lambda(s))(1 - lambda(s))
    = 1 - lambda(s^2) = 0 with both legs self-adjoint, and the rotated
    coordinate projections are orthogonal.  A Hadamard probe (i, j) has
    images A/2 and B/2 on rows and columns {i, j}, 0 elsewhere, for A =
    [[a, b], [c, d]] = [[S_ii, S_ij], [S_ji, S_jj]] and B = [[a, -b], [-c,
    d]], for the transposed map too as both legs are symmetric.  1 +-
    lambda(s) is the direct sum of n/2 copies of [[1, +-1], [+-1, 1]], one
    per coset {u, s u}, on each of which S reads A = [[phi(e), phi(s)],
    [phi(s), phi(e)]], so the defect is sqrt(2/n) times the block's.  With
    N = |a|^2 + |b|^2 + |c|^2 + |d|^2 = ||A||^2 = ||B||^2,

        ||A* B||^2 = (|a|^2 - |c|^2)^2 + (|d|^2 - |b|^2)^2 + 2 |conj(a) b - conj(c) d|^2,
        ||A B*||^2 = (|a|^2 - |b|^2)^2 + (|d|^2 - |c|^2)^2 + 2 |a conj(c) - b conj(d)|^2,

    and the block's defect is sqrt(max of the two) / N, 0 when A = 0.  The
    entries are first divided by the power of two that brings their largest
    real or imaginary part into [0.5, 1): that is exact, so no square under-
    or overflows, and rescaling S by 2^k leaves the defect bit for bit.
    """
    s = t.symbol
    if t.group is not None:
        i, j, weight = t.group.identity, probe, math.sqrt(2.0 / t.matrix_dim)
    else:
        (i, j), weight = probe, 1.0
    return weight * _block_defect(s.item(i, i), s.item(i, j), s.item(j, i), s.item(j, j))


def _block_defect(a, b, c, d):
    """The defect of [[a, b], [c, d]] and [[a, -b], [-c, d]], in the closed
    form of :func:`_probe_violation`."""
    parts = (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)
    peak = max(map(abs, parts))
    if peak == 0.0:
        return 0.0
    e = -math.frexp(peak)[1]
    ar, ai, br, bi, cr, ci, dr, di = [math.ldexp(x, e) for x in parts]
    aa, bb, cc, dd = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci, dr * dr + di * di
    # conj(a) b - conj(c) d and a conj(c) - b conj(d), real and imaginary parts
    xr, xi = ar * br + ai * bi - cr * dr - ci * di, ar * bi - ai * br - cr * di + ci * dr
    yr, yi = ar * cr + ai * ci - br * dr - bi * di, ai * cr - ar * ci - bi * dr + br * di
    left = (aa - cc) ** 2 + (dd - bb) ** 2 + 2.0 * (xr * xr + xi * xi)
    right = (aa - bb) ** 2 + (dd - cc) ** 2 + 2.0 * (yr * yr + yi * yi)
    return math.sqrt(max(left, right)) / (aa + bb + cc + dd)


def deterministic_probes(t):
    """The fixed probe pairs checked before any random draw: an iterator of
    (a, b, label), one probe built at a time in search order.

    Involution pairs 1 +- lambda(s) for group algebras, Hadamard-rotated
    coordinate splittings for matrix algebras (see ``_probe_pair``).
    """
    for probe in _probe_keys(t):
        yield (*_probe_pair(t, probe), _probe_label(t, probe))


# ---------------------------------------------------------------------------
# tests


def check_trials(trials):
    """``int(trials)``; raises ``InvalidTrials`` unless trials is a positive
    integer."""
    if (not isinstance(trials, (int, np.integer)) or isinstance(trials, bool)
            or trials < 1):
        raise InvalidTrials("trials must be a positive integer, got %r" % (trials,))
    return int(trials)


def check_dim(n, error=ValueError):
    """``int(n)``; raises ``error`` unless n is a Python or numpy integer of
    at least 1 (a bool is no dimension)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise error("matrix dimension must be an integer, got %r" % (n,))
    if n < 1:
        raise error("matrix dimension must be at least 1, got %d" % n)
    return int(n)


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

    Each probe's image defect is read off the 2 x 2 block of the symbol it
    meets, in O(1) (``_probe_violation``); only a witness's pair and images
    are built.  Trial pairs are read one at a time from ``PAIR_CACHE``,
    drawn on a miss, and ``t`` is applied to both legs at once.  Every
    defect is read on entries divided by a power of two, so no square
    under- or overflows and the verdict does not depend on the scale of
    ``t``.

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
    for probe in _probe_keys(t):
        violation = _probe_violation(t, probe)
        if violation > tol:
            pair = _probe_pair(t, probe)
            witness = Witness(*pair, *t.apply(pair), violation, _probe_label(t, probe))
            return Verdict(NOT_SEPARATING, p=p, trials=trials, seed=seed,
                           witness=witness)
    algebra = _algebra_key(t)
    for i in range(trials):
        pair, defect, pair_seed = PAIR_CACHE.get(("trial", algebra, seed, i),
                                                 lambda: _trial_pair(t, seed, i))
        if defect > tol:
            continue
        images = t.apply(pair)
        violation = float(disjointness_defects(over_power_of_two(images)[0]))
        if violation > tol:
            witness = Witness(*pair.copy(), *images, violation, "trial:%d" % i,
                              int(pair_seed))
            return Verdict(NOT_SEPARATING, p=p, trials=trials, seed=seed,
                           witness=witness)
    return Verdict(SEPARATING, p=p, trials=trials, seed=seed)


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
        wb = self.w.diagonal() * self.b.diagonal()
        return _map_like(self.jmap, wb[:, None] * self.jmap.symbol)


def _map_like(t, k):
    """The map with n x n symbol k on t's algebra, transposed with t.  On a
    group algebra k must be [psi(u t^-1)], as the symbols of J and w B J
    are; its column at the identity then rebuilds it bit for bit."""
    if t.group is None:
        return LinearMap(k, transposed=t.transposed)
    return LinearMap(k[:, t.group.identity], t.group, t.transposed)


# an S_ij / S_ii or |S_ii| that overflows leaves K or B infinite and the
# residuals inf or NaN, and yeadon_extract refuses it, so nothing warns
@np.errstate(over="ignore", invalid="ignore")
def _symbol_triple(t):
    """(w, B, J's symbol K, residuals) of the symbol map T, read off its
    symbol S: w = diag(S_ii / |S_ii|) on the support (the |S_ii| above 1e-9
    of the largest), B = diag|S_ii| and K_ij = S_ij / S_ii on the support
    rows, 0 off them.  A basis element takes its entries of S and K alone
    (e_ij the entry (i, j), or (j, i) when T is transposed, lambda(s) the
    entries at u t^-1 = s), so each residual is a formula in S and K, read
    on S / 2^e for 2^e the scale of the diagonal's largest part: exact."""
    _, e = over_power_of_two(t.symbol.diagonal())
    s = ldexp(t.symbol, -e)
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
    if not (np.isfinite(np.ldexp(top, e)) and np.isfinite(k).all()):
        residuals["reconstruction"] = math.inf      # no finite triple
    # B's spectral projections are diagonal, so J(e_ij) = K_ij e_ij (or K_ji
    # e_ji) commutes with them unless i and j lie in different clusters; a
    # Fourier symbol's diagonal is the constant phi(e), one cluster
    ranked = np.sort(modulus)
    starts = ranked[1:][np.diff(ranked) > _CLUSTER_GAP * top]
    cluster = np.searchsorted(starts, modulus, side="right")
    residuals["weight_commutation"] = float(np.max(np.where(
        cluster[:, None] != cluster[None, :], np.minimum(np.abs(k), 1.0), 0.0)))
    # J is Jordan exactly when K_ij = K_ik K_kj for all i, j, k, decided at
    # the pivot r of largest |S_ii| (see yeadon_extract)
    r = int(np.argmax(modulus))
    residuals["jordan_square"] = max(float(np.max(np.abs(k - np.outer(k[:, r], k[r])))),
                                     float(np.max(np.abs(k[r, r] - k[r] * k[:, r]))))
    # J(x*) - J(x)* is (K - K*) * x* entrywise (* conj(x) when J is
    # transposed), of norm at most max|K - K*| ||x||
    residuals["jordan_adjoint"] = float(np.max(np.abs(k - k.conj().T)))
    return np.diag(phase), np.diag(np.ldexp(modulus, e).astype(np.complex128)), k, residuals


def yeadon_extract(t, tol=DEFAULT_TOL):
    """Compute and validate the triple (w, B, J) with T(a) = w B J(a).

    w and B come from the polar decomposition of T(1); J is the map
    x -> ``B^+ w* T(x)``, with the pseudo-inverse cut at 1e-9 of the top
    eigenvalue.  Validated invariants (all relative to operand scale):

    * w* w = J(1) = support(B),
    * T(a) = w B J(a) on the whole basis,
    * every spectral projection of B commutes with every J(basis element),
    * J(a^2) = J(a)^2 and J(a*) = J(a)*, through formulas in J's symbol.

    The triple is read off T's symbol S in O(n^2) memory and time, with no
    random number: w and B are diagonal, and J and
    ``YeadonTriple.reconstruct_map()`` are the symbol maps K = S_ij / S_ii
    and diag(w B) K, transposed when T is.  The Jordan square reads
    max(max_ij |K_ij - K_ir K_rj|, max_k |K_rr - K_rk K_kr|) at the r of
    largest |S_ii|: 0 exactly when K_ij = K_ik K_kj for all i, j, k, that
    is, when J is Jordan, and each term at most twice the defect of the
    normalized (e_ir + e_rj) / sqrt 2 or (e_rk + e_kr) / sqrt 2.  On a
    Fourier map it is max_{s,t} |psi(st) - psi(s) psi(t)|, which bounds
    ||J(x^2) - J(x)^2|| / ||x||^2 for every x (Young's inequality); the
    adjoint reads max|K - K*|, which bounds ||J(x*) - J(x)*|| / ||x||.  A
    symbol whose S_ij / S_ii or |S_ii| overflows has no finite triple and an
    infinite reconstruction residual.  A breach beyond ``tol`` raises
    ``NotSeparating`` with the residual table, naming the first residual of
    ``_RESIDUAL_ORDER`` within round-off of the largest.
    """
    tol = check_tol(tol)
    w, b, k, residuals = _symbol_triple(t)
    # initial_projection and jordan_unit are finite, so a NaN residual,
    # comparing false, is neither the largest nor the failing name
    worst = max(residuals.values())
    if worst > tol:
        failing = next(key for key in _RESIDUAL_ORDER
                       if residuals[key] >= (1.0 - _TIE_RTOL) * worst)
        raise NotSeparating("triple invariants violated: %s residual %.3g exceeds %.3g"
                            % (failing, residuals[failing], tol), residuals, failing)
    return YeadonTriple(w, b, _map_like(t, k), residuals)


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
    # read on m / 2^e, largest part in [0.5, 1): nothing under- or overflows
    unit, e = over_power_of_two(herz_schur_symbol(g, phi))
    hermitian_defect = frobenius(unit - unit.conj().T) / (frobenius(unit) or 1.0)
    vals, _ = hermitian_eig(0.5 * (unit + unit.conj().T))
    min_eig = float(vals[0])
    ok = hermitian_defect <= tol and min_eig >= -tol * float(np.max(np.abs(vals)))
    with np.errstate(over="ignore"):    # an eigenvalue below -1.8e308 reads -inf
        return ok, float(np.ldexp(min_eig, e))


_EPS = float(np.finfo(float).eps)

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
    # S / c read as (S / 2^e) / (c / 2^e), c / 2^e of order 1: exact
    unit, e = over_power_of_two(c)
    ratio = ldexp(symbol, -e) / unit
    rho = float(np.max(np.abs(ratio - np.outer(alpha, beta))))
    rho += 2.0 * eta + eta * eta
    if not rho < 1.0:
        return False
    delta = min(tol, _PAIR_DEFECT_CAP) + 64 * tmap.matrix_dim * _EPS
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
    if len(ps) == 1:
        verdict.max_deviation = deviations[0]
        return [verdict]
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
