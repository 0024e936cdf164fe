"""Theorem-verification suite: seeded property runs over groups and dimensions.

Each suite cell exercises one family of invariants (character completeness,
separating classification in both directions, cross-p agreement, Yeadon
triples, positive definiteness, Herz-Schur recovery, norm identities) on one
group or matrix dimension.  Cells are pure functions of (config, seed), so a
report is reproducible byte for byte apart from the timestamp and the wall
times.  The report names every cell, its pass/fail, the governing residual
and enough context to replay a failure from the seed.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .classify import (
    INCONCLUSIVE,
    NOT_SEPARATING,
    SEPARATING,
    NotSeparating,
    check_dim,
    check_seed,
    check_trials,
    classify_fourier,
    classify_schur,
    fourier_multiplier_map,
    fourier_verdicts,
    positive_definite_test,
    schur_multiplier_map,
    transpose_map,
    yeadon_extract,
)
from .groups import (
    builtin_group,
    commutator_subgroup,
    enumerate_characters,
    fit_scalar_character,
    group_from_json,
)
from .linalg import (
    check_tol,
    frobenius,
    hermitian_eig,
    lapack_backend,
    matrix_from_json,
    polar_decompose,
    random_unitary,
    schatten_norm,
    svd,
)
from .schur import herz_schur_symbol, rank_one_unimodular_factor, recover_character
from .vna import (
    derive_seed,
    regular_representation,
    symbol_from_json,
)

#: statuses accepted in injected-case expectations
_STATUSES = (SEPARATING, NOT_SEPARATING, INCONCLUSIVE)

_DEFAULT_GROUPS = (
    "cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(4)", "cyclic(5)",
    "cyclic(6)", "cyclic(7)", "cyclic(8)", "cyclic(2)xcyclic(2)",
    "dihedral(3)", "dihedral(4)", "quaternion8", "symmetric(3)",
)

#: the exponents at which the cross-p and forward cells classify each symbol
_P_VALUES = (1.0, 2.0, 4.0)

#: symbols per cell: converse and factored Schur symbols, unimodular
#: non-characters for positive definiteness, Gaussian elements for the norm
#: identities and matrices for the linear-algebra invariants
_CONVERSE_SAMPLES = 20
_SCHUR_SAMPLES = 20
_CP_SAMPLES = 20
_NORM_SAMPLES = 8
_LINALG_SAMPLES = 40


class SuiteError(Exception):
    """Configuration problems that prevent the suite from running."""


class EmptySuite(SuiteError):
    """Nothing to verify; running zero checks is not success."""


def _tag(label):
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _rng(config, cell, label=None):
    """The generator of one cell: a pure function of the suite seed, the
    cell's tag and, for per-group and per-dimension cells, the label."""
    labels = () if label is None else (_tag(str(label)),)
    return np.random.default_rng(derive_seed(config.seed, _tag(cell), *labels))


@dataclass
class SuiteConfig:
    groups: tuple = _DEFAULT_GROUPS
    trials: int = 200
    seed: int = 0
    tol: float = 1e-9
    output: str = ""
    matrix_dims: tuple = (2, 3, 5)
    injected: tuple = ()

    def __post_init__(self):
        self.groups = tuple(self.groups)
        self.matrix_dims = tuple(check_dim(n, SuiteError) for n in self.matrix_dims)
        for name in ("groups", "matrix_dims"):
            # each entry names its cells, so a repeat would run them twice
            labels = [str(item) for item in getattr(self, name)]
            twice = next((x for i, x in enumerate(labels) if x in labels[:i]), None)
            if twice is not None:
                raise SuiteError("%s lists %s twice" % (name, twice))
        self.injected = tuple(self.injected)
        self.trials = check_trials(self.trials)
        self.seed = check_seed(self.seed, SuiteError)
        check_tol(self.tol, SuiteError)
        for item in self.injected:
            if not isinstance(item, dict):
                raise SuiteError("each injected case must be an object")
            if item.get("kind") not in ("fourier", "schur"):
                raise SuiteError("injected case kind must be fourier or schur")
            if item.get("expect") not in _STATUSES:
                raise SuiteError("injected case expect must be one of %s"
                                 % (", ".join(_STATUSES)))


def default_config():
    return SuiteConfig()


def config_to_json(config):
    """The config as a JSON object whose keys are the SuiteConfig fields."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(config).items()}


#: the JSON kind of the items of each list field but ``injected``, whose
#: items SuiteConfig checks
_ITEM_KINDS = {"groups": str, "matrix_dims": int}


def config_from_json(obj):
    """Inverse of :func:`config_to_json`; absent keys keep their defaults.

    Each value must be of its field's type exactly, with a JSON array for a
    tuple field.  Nothing is cast, so ``2.7`` is no trial count, a bool no
    number and a string no group list.
    """
    if not isinstance(obj, dict):
        raise SuiteError("suite config must be a JSON object")
    known = fields(SuiteConfig)
    unknown = set(obj) - {f.name for f in known}
    if unknown:
        raise SuiteError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    kwargs = {}
    for f in known:
        if f.name not in obj:
            continue
        value = obj[f.name]
        kind = list if isinstance(f.default, tuple) else type(f.default)
        item_kind = _ITEM_KINDS.get(f.name)
        if type(value) is not kind or (item_kind is not None and not all(
                type(item) is item_kind for item in value)):
            raise SuiteError("bad config value for %r: %s" % (f.name, json.dumps(value)))
        kwargs[f.name] = value
    return SuiteConfig(**kwargs)


def read_json_file(path):
    """The JSON value in a file; unreadable files and invalid JSON raise
    ``SuiteError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SuiteError("cannot read %s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise SuiteError("invalid JSON in %s: %s" % (path, exc))


def load_group(specifier):
    """Builtin family name, or a path to a group JSON file."""
    text = str(specifier)
    if text.endswith(".json") or os.path.sep in text or os.path.exists(text):
        return group_from_json(read_json_file(text))
    return builtin_group(text)


@dataclass
class CellResult:
    name: str
    passed: bool
    residual: float = 0.0
    detail: str = ""
    wall_ms: float = 0.0

    def to_json(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "detail": self.detail,
            "wall_ms": round(float(self.wall_ms), 3),
        }


def _run_cell(results, name, fn, *args):
    start = time.perf_counter()
    try:
        passed, residual, detail = fn(*args)
    except Exception as exc:  # a crashed cell is a failed cell, with the reason
        passed, residual, detail = False, math.inf, "error: %s" % exc
    wall = (time.perf_counter() - start) * 1e3
    results.append(CellResult(name, passed, residual, detail, wall))


# ---------------------------------------------------------------------------
# cells over a group


def _cell_characters(g, label, config):
    chars = enumerate_characters(g)
    expected = g.order // len(commutator_subgroup(g))
    worst = 0.0
    for ch in chars:
        vals = ch.values
        worst = max(worst, float(np.max(np.abs(np.abs(vals) - 1.0))))
        worst = max(worst, abs(vals[g.identity] - 1.0))
        prod = vals[:, None] * vals[None, :]
        worst = max(worst, float(np.max(np.abs(vals[g.mul] - prod))))
    ok = len(chars) == expected and worst <= 1e-12
    detail = "%d characters, expected %d, worst residual %.3g" % (
        len(chars), expected, worst)
    return ok, worst, detail


_FORWARD_SCALARS = (0.0, 1.0, 2.0, 1j, 1 + 1j)


def _cell_fourier_forward(g, label, config):
    chars = enumerate_characters(g)
    worst_dev = 0.0
    checked = 0
    for ch in chars:
        for c in _FORWARD_SCALARS:
            phi = c * ch.values
            verdicts = fourier_verdicts(
                g, phi, _P_VALUES, trials=config.trials, seed=config.seed,
                tol=config.tol, isometry_trials=6)
            for p, verdict in zip(_P_VALUES, verdicts):
                checked += 1
                if verdict.status != SEPARATING or verdict.certificate is None:
                    detail = "character %s scaled by %s at p=%s came back %s" % (
                        np.round(ch.values, 4), c, p, verdict.status)
                    return False, math.inf, detail
                if verdict.max_deviation is not None:
                    worst_dev = max(worst_dev, verdict.max_deviation)
    ok = worst_dev <= config.tol
    detail = "%d classifications separating, worst isometry deviation %.3g" % (
        checked, worst_dev)
    return ok, worst_dev, detail


def _draw_nonfitting_symbol(g, rng, reject_tol=1e-6):
    for _ in range(128):
        phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        if fit_scalar_character(g, phi, reject_tol) is None:
            return phi
    raise SuiteError("could not draw a symbol without a character fit")


def _converse(samples, classify):
    """Cell result for symbols without a certificate: each must be refuted
    by a witness; the residual is the smallest witness violation."""
    min_violation = math.inf
    misses = 0
    for symbol in samples:
        verdict = classify(symbol)
        if verdict.status != NOT_SEPARATING or verdict.witness is None:
            misses += 1
        else:
            min_violation = min(min_violation, verdict.witness.violation)
    ok = misses == 0 and min_violation > 1e-6
    detail = "%d symbols, %d without witness, smallest violation %.3g" % (
        len(samples), misses, min_violation)
    return ok, min_violation if misses == 0 else math.inf, detail


def _cell_fourier_converse(g, label, config):
    if g.order < 2:
        return True, 0.0, "vacuous: every symbol is a multiple of the character"
    rng = _rng(config, "fourier-converse", label)
    symbols = [_draw_nonfitting_symbol(g, rng) for _ in range(_CONVERSE_SAMPLES)]
    return _converse(symbols, lambda phi: classify_fourier(
        g, phi, p=2.0, trials=config.trials, seed=config.seed, tol=config.tol))


def _verdict_key(verdict):
    """Status, certificate kind and scalar, and witness label of a verdict:
    what must not change with p."""
    cert, witness = verdict.certificate, verdict.witness
    return (verdict.status,
            None if cert is None else (cert["kind"], cert["c"]),
            None if witness is None else witness.label)


def _cell_cross_p(g, label, config):
    if g.order < 2:
        return True, 0.0, "vacuous on the one-element group"
    rng = _rng(config, "cross-p", label)
    chars = enumerate_characters(g)
    symbols = [chars[0].values, 2.0 * chars[-1].values]
    for _ in range(3):
        symbols.append(rng.standard_normal(g.order)
                       + 1j * rng.standard_normal(g.order))
    symbols.append(_draw_nonfitting_symbol(g, rng))
    disagreements = 0
    for phi in symbols:
        verdicts = fourier_verdicts(
            g, phi, _P_VALUES, trials=config.trials, seed=config.seed,
            tol=config.tol, isometry_trials=6)
        deviations = [v.max_deviation for v in verdicts if v.max_deviation is not None]
        if (len({_verdict_key(v) for v in verdicts}) != 1
                or max(deviations, default=0.0) > config.tol):
            disagreements += 1
    ok = disagreements == 0
    detail = "%d symbols at p in %s, %d verdict disagreements" % (
        len(symbols), list(_P_VALUES), disagreements)
    return ok, float(disagreements), detail


def _yeadon_round_trip(tmap):
    """Worst residual of the triple of the multiplier ``tmap`` and of its
    re-extraction from the reconstructed map w B J.  Both J are symbol maps
    and are compared on their symbols: each basis element's image reads its
    own entries of the symbol, so that is the largest difference of their
    basis images."""
    triple = yeadon_extract(tmap, tol=1e-8)
    again = yeadon_extract(triple.reconstruct_map(), tol=1e-8)
    return max(max(triple.residuals.values()),
               frobenius(triple.w - again.w),
               frobenius(triple.b - again.b),
               float(np.max(np.abs(triple.jmap.symbol - again.jmap.symbol))))


def _yeadon_refused(tmap):
    try:
        yeadon_extract(tmap, tol=1e-8)
    except NotSeparating:
        return True
    return False


def _cell_yeadon_group(g, label, config):
    chars = enumerate_characters(g)
    worst = 0.0
    for ch in chars[:2]:
        for c in (1.0, 1.5j):
            worst = max(worst, _yeadon_round_trip(
                fourier_multiplier_map(g, c * ch.values)))
    refused = True
    if g.order >= 2:
        rng = _rng(config, "yeadon-neg", label)
        phi = _draw_nonfitting_symbol(g, rng)
        refused = _yeadon_refused(fourier_multiplier_map(g, phi))
    ok = worst <= 1e-8 and refused
    detail = ("multiplier triples within %.3g; non-multiplier %s" %
              (worst, "rejected" if refused else "WRONGLY ACCEPTED"))
    return ok, worst, detail


def _cell_cp(g, label, config):
    worst_char = 0.0
    for ch in enumerate_characters(g):
        ok, min_eig = positive_definite_test(g, ch.values, config.tol)
        if not ok or min_eig < -1e-10:
            return False, abs(min_eig), "character flagged not positive definite"
        worst_char = max(worst_char, max(0.0, -min_eig))
    accepted = 0
    flagged = 0
    samples = 0
    if g.order >= 2:
        rng = _rng(config, "cp", label)
        for _ in range(_CP_SAMPLES):
            theta = rng.uniform(0.0, 2.0 * math.pi, size=g.order)
            theta[g.identity] = 0.0
            phi = np.exp(1j * theta)
            if fit_scalar_character(g, phi, 1e-6) is not None:
                continue
            samples += 1
            ok, min_eig = positive_definite_test(g, phi, config.tol)
            if ok:
                accepted += 1
            elif -1e-9 <= min_eig < 0.0:
                flagged += 1
    ok_cell = accepted == 0 and flagged == 0
    detail = ("characters psd within %.3g; %d non-characters: %d accepted, "
              "%d in the review band" % (worst_char, samples, accepted, flagged))
    return ok_cell, worst_char, detail


def _cell_herz_schur(g, label, config):
    worst = 0.0
    for ch in enumerate_characters(g):
        for c in (1.0, 2.0j):
            phi = c * ch.values
            m = herz_schur_symbol(g, phi)
            cert = rank_one_unimodular_factor(m, config.tol)
            if cert is None:
                return False, math.inf, "factorization missing for c*character"
            recovered = recover_character(g, cert, max(config.tol, 1e-9))
            if recovered is None:
                return False, math.inf, "character recovery failed"
            c2, psi = recovered
            worst = max(worst, abs(c2 - c))
            worst = max(worst, float(np.max(np.abs(psi.values - ch.values))))
            rebuilt = c2 * psi.values[g.mul[g.inv, :]]
            worst = max(worst, float(np.max(np.abs(rebuilt - m))))
    ok = worst < 1e-9
    detail = "recovered (c, character) for all pairs, worst error %.3g" % worst
    return ok, worst, detail


def _cell_vna_norms(g, label, config):
    rng = _rng(config, "vna-norms", label)
    worst = 0.0
    n = g.order
    # the left regular representation is multiplicative and unitary
    pairs = [(s, t) for s in range(min(n, 4)) for t in range(min(n, 4))]
    for s, t in pairs:
        ls = regular_representation(g, s)
        lt = regular_representation(g, t)
        worst = max(worst, frobenius(ls @ lt
                                     - regular_representation(g, g.mul[s, t])))
        worst = max(worst, frobenius(ls.conj().T
                                     - regular_representation(g, g.inv[s])))
    chars = enumerate_characters(g)
    psi = fourier_multiplier_map(g, chars[-1].values)
    for _ in range(_NORM_SAMPLES):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xm = x[g.rebuild_grid]
        euclid = float(np.linalg.norm(x))
        worst = max(worst, abs(schatten_norm(xm, 2.0, 1.0 / n) - euclid)
                    / max(euclid, 1e-300))
        for p in (1.0, 2.0, 3.0):
            base = schatten_norm(xm, p, 1.0 / n)
            moved = schatten_norm(psi.apply(xm), p, 1.0 / n)
            worst = max(worst, abs(moved - base) / max(base, 1e-300))
    ok = worst <= config.tol
    detail = "representation and norm identities within %.3g" % worst
    return ok, worst, detail


# ---------------------------------------------------------------------------
# cells over a matrix dimension


def _random_unimodular_vector(rng, n):
    return np.exp(2j * math.pi * rng.uniform(0.0, 1.0, size=n))


def _cell_schur_factor(n, config):
    rng = _rng(config, "schur-factor", n)
    worst_recon = 0.0
    worst_dev = 0.0
    for index in range(_SCHUR_SAMPLES):
        alpha = _random_unimodular_vector(rng, n)
        beta = _random_unimodular_vector(rng, n)
        if index % 2 == 0:
            c = complex(np.exp(2j * math.pi * rng.uniform()))
        else:
            c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        m = c * np.outer(alpha, beta)
        cert = rank_one_unimodular_factor(m, config.tol)
        if cert is None:
            return False, math.inf, "constructed rank-one symbol not factored"
        scale = max(float(np.max(np.abs(m))), 1e-300)
        worst_recon = max(worst_recon, float(
            np.max(np.abs(cert.reconstruct() - m))) / scale)
        verdict = classify_schur(m, p=2.0, trials=config.trials,
                                 seed=config.seed, tol=config.tol,
                                 isometry_trials=4)
        if verdict.status != SEPARATING:
            return False, math.inf, "factored symbol classified %s" % verdict.status
        if verdict.max_deviation is not None:
            worst_dev = max(worst_dev, verdict.max_deviation)
    ok = worst_recon <= 1e-10 and worst_dev <= config.tol
    detail = ("%d factored symbols, reconstruction %.3g, isometry deviation %.3g"
              % (_SCHUR_SAMPLES, worst_recon, worst_dev))
    return ok, max(worst_recon, worst_dev), detail


def _draw_nonfactorable_matrix(rng, n, reject_tol=1e-6):
    for _ in range(128):
        if rng.uniform() < 0.5:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
            m = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, size=(n, n)))
        if rank_one_unimodular_factor(m, reject_tol) is None:
            return m
    raise SuiteError("could not draw a non-factorable symbol")


def _cell_schur_converse(n, config):
    if n < 2:
        return True, 0.0, "vacuous in dimension 1"
    rng = _rng(config, "schur-converse", n)
    symbols = [_draw_nonfactorable_matrix(rng, n) for _ in range(_SCHUR_SAMPLES)]
    return _converse(symbols, lambda m: classify_schur(
        m, p=2.0, trials=config.trials, seed=config.seed, tol=config.tol))


def _moved_units(images):
    """Indices k of the matrix units e_k whose image T(e_k), the k-th of
    the (n^2, n, n) stack ``images``, is not exactly a multiple of e_k; a
    map on M_n is a Schur multiplier iff there is none."""
    n = images.shape[-1]
    units = np.eye(n * n).reshape(-1, n, n)
    return np.flatnonzero((images * (1.0 - units)).any(axis=(1, 2)))


def _cell_transpose(n, config):
    if n < 2:
        return True, 0.0, "transposition is the identity in dimension 1"
    tmap = transpose_map(n)
    # transposition moves every off-diagonal unit e_ij to e_ji; read off
    # the images, not the map's transposed flag, which would assume it
    if _moved_units(tmap.images).size != n * n - n:
        return False, math.inf, "an entrywise symbol reproduced transposition"
    triple = yeadon_extract(tmap, tol=1e-8)
    worst = max(triple.residuals.values())
    rng = _rng(config, "transpose", n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    worst = max(worst, frobenius(triple.jmap.apply(x) - x.T) / frobenius(x))
    ok = worst <= 1e-8
    detail = ("no entrywise symbol matches transposition; Jordan triple "
              "residual %.3g" % worst)
    return ok, worst, detail


def _cell_yeadon_matrix(n, config):
    rng = _rng(config, "yeadon-matrix", n)
    worst = 0.0
    for index in range(3):
        alpha = _random_unimodular_vector(rng, n)
        beta = _random_unimodular_vector(rng, n)
        c = 2.5 if index == 0 else complex(
            rng.standard_normal() + 1j * rng.standard_normal())
        worst = max(worst, _yeadon_round_trip(
            schur_multiplier_map(c * np.outer(alpha, beta))))
    refused = True
    if n >= 2:
        m = _draw_nonfactorable_matrix(rng, n)
        np.fill_diagonal(m, m.diagonal() + 2.0)  # keep T(1) invertible
        refused = _yeadon_refused(schur_multiplier_map(m))
    ok = worst <= 1e-8 and refused
    detail = ("factored triples within %.3g; non-factorable symbol %s" %
              (worst, "rejected" if refused else "WRONGLY ACCEPTED"))
    return ok, worst, detail


# ---------------------------------------------------------------------------
# global cells


def _cell_linalg(config):
    rng = _rng(config, "linalg")
    worst_sigma = 0.0
    worst_polar = 0.0
    worst_norm = 0.0
    worst_holder = 0.0
    worst_unitary = 0.0
    for _ in range(_LINALG_SAMPLES):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        scale = max(frobenius(a), 1e-300)

        u_mat, sigma, v_mat = svd(a)
        gram = a.conj().T @ a
        vals, _ = hermitian_eig(0.5 * (gram + gram.conj().T))
        roots = np.sqrt(np.clip(vals[::-1], 0.0, None))
        worst_sigma = max(worst_sigma, float(np.max(np.abs(sigma - roots))) / scale)

        w_mat, b_mat = polar_decompose(a)
        worst_polar = max(worst_polar, frobenius(a - w_mat @ b_mat) / scale)

        two = schatten_norm(a, 2.0, 1.0)
        trace = float(np.real(np.trace(a.conj().T @ a)))
        worst_norm = max(worst_norm, abs(two * two - trace) / max(trace, 1e-300))

        weight = 1.0 if n % 2 else 1.0 / n
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for p in (1.0, 1.5, 2.0, 3.0):
            q = math.inf if p == 1.0 else p / (p - 1.0)
            lhs = abs(weight * np.trace(a @ b))
            rhs = schatten_norm(a, p, weight) * schatten_norm(b, q, weight)
            if lhs > rhs:
                worst_holder = max(worst_holder,
                                   (lhs - rhs) / max(rhs, 1e-300))

        u1 = random_unitary(n, rng)
        u2 = random_unitary(n, rng)
        base = schatten_norm(a, 1.5, weight)
        moved = schatten_norm(u1 @ a @ u2, 1.5, weight)
        worst_unitary = max(worst_unitary, abs(moved - base) / max(base, 1e-300))
    ok = (worst_sigma <= 1e-10 and worst_polar <= 1e-10
          and worst_norm <= config.tol and worst_holder <= config.tol
          and worst_unitary <= config.tol)
    detail = ("sigma %.3g, polar %.3g, trace %.3g, holder %.3g, unitary %.3g"
              % (worst_sigma, worst_polar, worst_norm, worst_holder,
                 worst_unitary))
    residual = max(worst_sigma, worst_polar, worst_norm, worst_holder,
                   worst_unitary)
    return ok, residual, detail


def _cell_injected(item, config):
    expect = item["expect"]
    if item["kind"] == "fourier":
        g = load_group(item["group"])
        phi = symbol_from_json(item["symbol"], g.order)
        verdict = classify_fourier(g, phi, p=2.0, trials=config.trials,
                                   seed=config.seed, tol=config.tol)
    else:
        m = matrix_from_json(item["matrix"])
        verdict = classify_schur(m, p=2.0, trials=config.trials,
                                 seed=config.seed, tol=config.tol)
    ok = verdict.status == expect
    detail = "expected %s, classified %s" % (expect, verdict.status)
    return ok, 0.0 if ok else math.inf, detail


# ---------------------------------------------------------------------------
# suite assembly

#: (family, cell) run on every group as cell(g, label, config)
_GROUP_CELLS = (
    ("characters/completeness", _cell_characters),
    ("fourier/forward", _cell_fourier_forward),
    ("fourier/converse", _cell_fourier_converse),
    ("fourier/cross-p", _cell_cross_p),
    ("yeadon/fourier", _cell_yeadon_group),
    ("positive-definite", _cell_cp),
    ("herz-schur/recovery", _cell_herz_schur),
    ("vna/norms", _cell_vna_norms),
)

#: (family, cell) run on every matrix dimension as cell(n, config)
_DIM_CELLS = (
    ("schur/factor", _cell_schur_factor),
    ("schur/converse", _cell_schur_converse),
    ("schur/transpose", _cell_transpose),
    ("yeadon/schur", _cell_yeadon_matrix),
)


def run_suite(config):
    """Load every group, then run every cell; returns the report dict (see
    ``report_passed``)."""
    if not config.groups:
        raise EmptySuite("the group list is empty; running nothing is not success")
    groups = [(label, load_group(label)) for label in config.groups]
    results = []
    for label, g in groups:
        for family, cell in _GROUP_CELLS:
            _run_cell(results, "%s/%s" % (family, label), cell, g, label, config)
    for n in config.matrix_dims:
        for family, cell in _DIM_CELLS:
            _run_cell(results, "%s/dim%d" % (family, n), cell, n, config)
    _run_cell(results, "linalg/invariants", _cell_linalg, config)
    for index, item in enumerate(config.injected):
        _run_cell(results, "injected/%s/%d" % (item["kind"], index),
                  _cell_injected, item, config)
    results.sort(key=lambda cell: cell.name)
    failed = [cell.name for cell in results if not cell.passed]
    from . import __version__

    report = {
        "tool": {"name": "sepmult", "version": __version__,
                 "backend": lapack_backend()},
        "config": config_to_json(config),
        "cells": [cell.to_json() for cell in results],
        "summary": {
            "total": len(results),
            "failed": len(failed),
            "failed_cells": failed,
            "passed": not failed,
        },
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return report


def report_passed(report):
    return bool(report["summary"]["passed"])


def format_report(report):
    """Human-readable table, one line per cell."""
    lines = []
    tool = report["tool"]
    lines.append("sepmult %s theorem suite (backend: %s)"
                 % (tool["version"], tool["backend"]))
    for cell in report["cells"]:
        status = "PASS" if cell["passed"] else "FAIL"
        lines.append("%-4s %-38s residual %-10.3g %7.1f ms  %s"
                     % (status, cell["name"], cell["residual"],
                        cell["wall_ms"], cell["detail"]))
    summary = report["summary"]
    lines.append("%d/%d cells passed" % (summary["total"] - summary["failed"],
                                         summary["total"]))
    if summary["failed_cells"]:
        lines.append("failing: %s" % ", ".join(summary["failed_cells"]))
    return "\n".join(lines)
