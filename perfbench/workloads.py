"""The benchmark's workloads: inputs drawn from a seed, rounds, checks.

Every workload is driven the same way: ``setup()`` imports sepmult afresh
and builds what the rounds need, ``round()`` runs one whole round of the
workload's operations and returns one ``Outcome`` per operation.  The
operations of a round are the same in every round of a run, so the share of
failed operations is the same in every run.
"""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks

#: result, trace, suite config and report files (ignored by git)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: classification seed handed to sepmult: its default, the same in every
#: run; the benchmark seed varies the symbols, not the library's pair draws
CLASSIFY_SEED = 0


@dataclass
class Op:
    """One classification: the input symbol and what a right answer is."""

    name: str
    kind: str                 # "fourier" or "schur"
    symbol: np.ndarray = field(repr=False)
    p: float
    expect: str               # expected status, or "twin:<name>"
    group: str = ""           # group label for Fourier symbols
    c: complex = 0j           # generating scalar (certify)


@dataclass
class Outcome:
    name: str
    seconds: float
    digest_item: list
    errors: list


def fresh_sepmult(with_cli=False):
    """Drop every loaded sepmult module and import the package again.

    A fresh import starts with empty module-level caches, so each set-up
    is as cold as a new process apart from numpy and the interpreter.  The
    old modules' namespaces are emptied: typing's caches keep classes of an
    old import alive, and through them its module-level pair caches.
    """
    for key in [k for k in sys.modules if k == "sepmult" or k.startswith("sepmult.")]:
        sys.modules.pop(key).__dict__.clear()
    importlib.import_module("sepmult.cli" if with_cli else "sepmult")
    return sys.modules


def _unimodular(rng, size=None):
    return np.exp(2j * math.pi * rng.uniform(0.0, 1.0, size=size))


def _admits_fourier_certificate(mul, phi):
    """phi = c psi for a character psi iff |phi| is constant and
    phi(st) phi(e) = phi(s) phi(t); checked here at 1e-6 relative."""
    scale = float(np.max(np.abs(phi)))
    if np.ptp(np.abs(phi)) > 1e-6 * scale:
        return False
    e = checks.identity_of(mul)
    return np.max(np.abs(phi[mul] * phi[e] - np.outer(phi, phi))) <= 1e-6 * scale ** 2


def _admits_schur_certificate(m):
    """m = c alpha beta^T (unimodular) iff |m| is constant and m is rank one."""
    scale = float(np.max(np.abs(m)))
    if np.ptp(np.abs(m)) > 1e-6 * scale:
        return False
    rank_one = m * m[0, 0] - np.outer(m[:, 0], m[0, :])
    return np.max(np.abs(rank_one)) <= 1e-6 * scale ** 2


def _digest_item(op, verdict):
    """Status, witness label and violation, certificate kind and scalar."""
    item = [op.name, verdict.status]
    if verdict.witness is not None:
        item += [verdict.witness.label, "%.6g" % verdict.witness.violation]
    if verdict.certificate is not None:
        c = complex(verdict.certificate["c"])
        item += [verdict.certificate["kind"], "%.6g%+.6gj" % (c.real, c.imag)]
    return item


class VerdictWorkload:
    """Shared base of the workloads that classify generated symbols."""

    #: fault ops: name -> what goes wrong, as named in the README
    FAULTS = {}
    #: set-ups per run; setup_s is their median
    setup_reps = 5
    fresh_per_round = False

    def __init__(self, seed, recorder=None):
        self.seed = seed
        self.recorder = recorder
        self.groups = {}
        self.ops = []

    def _import(self):
        modules = fresh_sepmult()
        if self.recorder is not None:
            self.recorder.install()
        self.classify = modules["sepmult.classify"]
        self.grp = modules["sepmult.groups"]

    def _build_groups(self, labels):
        self.groups = {}
        self.characters = {}
        for label in labels:
            g = self.grp.builtin_group(label)
            self.groups[label] = g
            self.characters[label] = self.grp.enumerate_characters(g)

    def _classify(self, op):
        if op.kind == "fourier":
            return self.classify.classify_fourier(
                self.groups[op.group], op.symbol, p=op.p, seed=CLASSIFY_SEED)
        return self.classify.classify_schur(op.symbol, p=op.p, seed=CLASSIFY_SEED)

    def round(self):
        outcomes = []
        statuses = {}
        verdicts = []
        for op in self.ops:
            start = time.perf_counter()
            verdict = self._classify(op)
            seconds = time.perf_counter() - start
            statuses[op.name] = verdict.status
            verdicts.append((op, verdict, seconds))
        self.round_seconds = sum(seconds for _, _, seconds in verdicts)
        for op, verdict, seconds in verdicts:
            errors = self.check(op, verdict, statuses)
            outcomes.append(Outcome(op.name, seconds, _digest_item(op, verdict), errors))
        return outcomes

    def check(self, op, verdict, statuses):
        expect = op.expect
        if expect.startswith("twin:"):
            expect = statuses[expect[len("twin:"):]]
        if verdict.status != expect:
            return ["status %s, expected %s" % (verdict.status, expect)]
        if expect == "separating":
            if op.kind == "fourier":
                errors = checks.check_fourier_certificate(
                    self.groups[op.group].mul, op.symbol, verdict.certificate)
            else:
                errors = checks.check_schur_certificate(op.symbol, verdict.certificate)
            if verdict.witness is not None:
                errors.append("witness attached to a separating verdict")
            return errors + checks.check_isometry(op.c, op.p, verdict.max_deviation)
        if op.kind == "fourier":
            mul = self.groups[op.group].mul
            return checks.check_witness(
                verdict.witness, verdict.certificate,
                lambda x: checks.fourier_image(mul, op.symbol, x), mul)
        return checks.check_witness(
            verdict.witness, verdict.certificate,
            lambda x: checks.schur_image(op.symbol, x))


class Certify(VerdictWorkload):
    """Scaled characters and rank-one unimodular Schur symbols: each verdict
    is "separating", so it runs every probe, all 200 trials, the certificate
    fit and (for |c| = 1) the isometry sample."""

    GROUPS = ("cyclic(5)", "cyclic(8)", "dihedral(4)", "quaternion8",
              "symmetric(3)", "symmetric(4)", "cyclic(4)xcyclic(4)")
    #: per group: (c unimodular, p), twice on symmetric(4): its eight
    #: verdicts are the slowest Fourier ones and span ranks 75-93% of a
    #: round, so the p90 tail falls inside their cluster
    FOURIER = ((True, 1.0), (True, 3.0), (False, 2.0), (False, 3.0))
    REPEAT = {"symmetric(4)": 2}
    #: (n, c unimodular, p); n = 16 and 24 lie above the tail
    SCHUR = ((4, False, 2.0), (4, True, 1.0), (8, False, 3.0), (8, True, 3.0),
             (16, True, 3.0), (24, True, 1.0), (24, False, 2.0))
    FAULTS = {"fault-a/scale-1e6": "scale 1e6 character with a 1e-13 relative "
                                   "perturbation is not classified as at scale 1"}

    def setup(self):
        self._import()
        self._build_groups(self.GROUPS)
        # fill the pair caches: one separating verdict per algebra draws
        # every trial pair the rounds look up
        for label in self.GROUPS:
            self.classify.classify_fourier(
                self.groups[label], self.characters[label][0].values,
                seed=CLASSIFY_SEED)
        for n in sorted({n for n, _, _ in self.SCHUR}):
            self.classify.classify_schur(np.ones((n, n)), seed=CLASSIFY_SEED)
        self.ops = self._ops()

    def _scalar(self, rng, unimodular):
        phase = complex(_unimodular(rng))
        if unimodular:
            return phase
        modulus = math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 1.6))
        return modulus * phase

    def _ops(self):
        rng = np.random.default_rng([self.seed, 0xCE27])
        ops = []
        for label in self.GROUPS:
            chars = self.characters[label]
            pattern = self.FOURIER * self.REPEAT.get(label, 1)
            for k, (unimodular, p) in enumerate(pattern):
                psi = chars[int(rng.integers(len(chars)))].values
                c = self._scalar(rng, unimodular)
                ops.append(Op("fourier/%s/%d" % (label, k), "fourier", c * psi, p,
                              "separating", group=label, c=c))
        for k, (n, unimodular, p) in enumerate(self.SCHUR):
            c = self._scalar(rng, unimodular)
            m = c * np.outer(_unimodular(rng, n), _unimodular(rng, n))
            ops.append(Op("schur/%d/%d" % (n, k), "schur", m, p, "separating", c=c))
        # fault (a): fixed input, independent of the seed
        psi = self.characters["cyclic(5)"][1].values
        perturbed = psi * (1.0 + 1e-13 * np.random.default_rng(5).standard_normal(5))
        ops.append(Op("fault-a/scale-1", "fourier", perturbed, 3.0, "separating",
                      group="cyclic(5)", c=1.0))
        ops.append(Op("fault-a/scale-1e6", "fourier", 1e6 * perturbed, 3.0,
                      "twin:fault-a/scale-1", group="cyclic(5)", c=1e6))
        return ops


class Refute(VerdictWorkload):
    """Symbols that admit no certificate: verdicts end at the first probe or
    trial that yields a witness, so the full search is bypassed."""

    INVOLUTION_GROUPS = ("cyclic(8)", "dihedral(4)", "quaternion8",
                         "symmetric(3)", "symmetric(4)")
    ODD_GROUPS = ("cyclic(5)", "cyclic(7)", "cyclic(3)xcyclic(5)")
    #: (n, count); the six n = 32 symbols span ranks 85-95% of a round, so
    #: the p90 tail falls inside their cluster
    SCHUR = ((8, 2), (16, 2), (24, 2), (32, 6), (48, 3))
    FAULTS = {"fault-b/scale-1e-10": "refutation at scale 1e-10 carries a c = 0 "
                                     "certificate"}
    #: a set-up takes about 50 ms, so more of them give a steadier median
    setup_reps = 9

    def setup(self):
        self._import()
        self._build_groups(self.INVOLUTION_GROUPS + self.ODD_GROUPS)
        self.ops = self._ops()

    def _ops(self):
        rng = np.random.default_rng([self.seed, 0x2EF7])
        ops = []
        for label, count in ([(g, 6) for g in self.INVOLUTION_GROUPS]
                             + [(g, 5) for g in self.ODD_GROUPS]):
            g = self.groups[label]
            for k in range(count):
                while True:
                    if k % 2 == 0:
                        phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
                    else:
                        phi = _unimodular(rng, g.order)
                    if not _admits_fourier_certificate(g.mul, phi):
                        break
                p = float(rng.choice((1.0, 2.0, 3.0)))
                ops.append(Op("fourier/%s/%d" % (label, k), "fourier", phi, p,
                              "not-separating", group=label))
        for n, count in self.SCHUR:
            for k in range(count):
                while True:
                    if k % 2 == 0:
                        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    else:
                        m = _unimodular(rng, (n, n))
                    if not _admits_schur_certificate(m):
                        break
                p = float(rng.choice((1.0, 2.0, 3.0)))
                ops.append(Op("schur/%d/%d" % (n, k), "schur", m, p, "not-separating"))
        # fault (b): fixed input, independent of the seed
        ops.append(Op("fault-b/scale-1e-10", "fourier",
                      1e-10 * np.arange(1, 6, dtype=np.complex128), 2.0,
                      "not-separating", group="cyclic(5)"))
        return ops


class Suite:
    """``sepmult verify-theorems`` through ``sepmult.cli.main`` on a config
    written here: a subset of the default groups and dimensions."""

    GROUPS = ("cyclic(1)", "cyclic(3)", "symmetric(3)")
    #: with dimension 1 and 4 the cell at rank 50% lies inside a cluster of
    #: like cells (4-6 ms) and the one at rank 90% is the cheapest of the
    #: three schur/factor cells of 0.4-0.5 s
    DIMS = (1, 2, 3, 4)
    GROUP_CELLS = ("characters/completeness", "fourier/forward", "fourier/converse",
                   "fourier/cross-p", "yeadon/fourier", "positive-definite",
                   "herz-schur/recovery", "vna/norms")
    DIM_CELLS = ("schur/factor", "schur/converse", "schur/transpose", "yeadon/schur")
    FAMILIES = GROUP_CELLS + DIM_CELLS + ("linalg/invariants",)
    FAULTS = {}
    #: every round starts from a fresh import, so set-ups match rounds
    fresh_per_round = True
    setup_reps = 3

    def __init__(self, seed, recorder=None):
        self.seed = seed
        self.recorder = recorder
        self.config_path = os.path.join(OUT, "suite-config-%d.json" % seed)
        self.report_path = os.path.join(OUT, "suite-report-%d.json" % seed)
        self.expected = sorted(
            ["%s/%s" % (cell, label) for label in self.GROUPS for cell in self.GROUP_CELLS]
            + ["%s/dim%d" % (cell, n) for n in self.DIMS for cell in self.DIM_CELLS]
            + ["linalg/invariants"])
        self.reports = []

    def setup(self):
        modules = fresh_sepmult(with_cli=True)
        if self.recorder is not None:
            self.recorder.install()
        self.cli = modules["sepmult.cli"]
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump({"groups": list(self.GROUPS), "matrix_dims": list(self.DIMS),
                       "seed": self.seed}, handle)

    def round(self):
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        argv = ["verify-theorems", "--config", self.config_path,
                "--output", self.report_path]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            self.round_seconds = time.perf_counter() - start
        with open(self.report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        self.reports.append(report)
        errors = []
        if code != 0:
            errors.append("cli.main returned %r" % code)
        names = [cell["name"] for cell in report["cells"]]
        if sorted(names) != self.expected or report["summary"]["total"] != len(self.expected):
            errors.append("report has %d cells, the config implies %d"
                          % (len(names), len(self.expected)))
        outcomes = []
        for cell in report["cells"]:
            cell_errors = [] if cell["passed"] else ["cell failed: %s" % cell["detail"]]
            outcomes.append(Outcome(cell["name"], cell["wall_ms"] / 1e3,
                                    [cell["name"], cell["passed"], cell["detail"]],
                                    cell_errors))
        if errors:
            outcomes.append(Outcome("suite", self.round_seconds, ["suite", False], errors))
        return outcomes


WORKLOADS = {"certify": Certify, "refute": Refute, "suite": Suite}


def digest(items):
    blob = json.dumps(items, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
