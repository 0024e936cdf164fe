"""Finite groups as Cayley tables, their characters, and symbol fitting.

A group is its multiplication table (a Latin square of element indices) plus
derived data: identity, inverse table, element names.  Groups are value
objects; two groups are "the same" when their tables coincide.  Tables are
fully validated at load time, associativity included, at every order.

Characters here are the one-dimensional unitary representations: unimodular,
multiplicative, 1 at the identity.  Their values are |G|-th roots of unity,
so a character is an integer exponent vector k, psi(s) = exp(2 pi i k[s] /
|G|), and one exact test on the Cayley table decides whether k is one:
k[s t] = k[s] + k[t] mod |G| for all s, t.  A character is read one way:
k is the root of unity nearest phi(s) / phi(e), and the test decides.
``fit_scalar_character`` reads it off a symbol, so it needs no list of
characters.  ``enumerate_characters`` reads it off each eigenvector of one
generic self-adjoint element of VN(G), which holds every character among
its eigenvectors.  Neither has an order cap: the caller's choice of group
sets the cost.
"""

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, check_tol, complex_gaussians, hermitian_eig

#: fixed internal seed of the element whose eigenvectors hold the characters
_SPECTRAL_SEED = 0xC4A7

#: table lookups per block of the associativity sweep and the character
#: test (a row of the table is one block when it alone is larger)
_BLOCK_LOOKUPS = 1 << 16


class GroupError(Exception):
    """Base class for group-layer failures."""


class UnknownFamily(GroupError):
    """Builtin group name not recognized."""


class InvalidGroupTable(GroupError):
    """Cayley table fails the group axioms."""


class FiniteGroup:
    """A finite group given by its Cayley table.

    ``mul[s][t]`` is the index of the product s*t.  The identity and the
    inverse table are derived, not stored.  ``names`` is a parallel list of
    element labels used only for I/O.  ``rebuild_grid`` is built on first
    read.
    """

    def __init__(self, mul, names=None):
        table = np.array(mul, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise InvalidGroupTable("multiplication table must be square")
        n = table.shape[0]
        if n == 0:
            raise InvalidGroupTable("a group has at least one element")
        if table.min() < 0 or table.max() >= n:
            raise InvalidGroupTable("table entries must be element indices")
        ref = np.arange(n)
        latin = ((np.sort(table, axis=1) == ref).all(axis=1)
                 & (np.sort(table, axis=0) == ref[:, None]).all(axis=0))
        if not latin.all():
            raise InvalidGroupTable(
                "table is not a Latin square at index %d" % np.argmin(latin))
        ident = np.flatnonzero((table == ref).all(axis=1)
                               & (table == ref[:, None]).all(axis=0))
        if len(ident) != 1:
            raise InvalidGroupTable("table has no two-sided identity")
        e = int(ident[0])
        inv = np.argmax(table == e, axis=1)
        two_sided = table[inv, ref] == e
        if not two_sided.all():
            raise InvalidGroupTable(
                "element %d has no two-sided inverse" % np.argmin(two_sided))
        rows = max(1, _BLOCK_LOOKUPS // (n * n))
        for lo in range(0, n, rows):
            block = table[lo:lo + rows]
            # (s t) u against s (t u) for the rows s of the block
            if not np.array_equal(table[block], block[:, table]):
                raise InvalidGroupTable("multiplication is not associative")
        if names is None:
            names = [str(s) for s in range(n)]
        names = [str(x) for x in names]
        if len(names) != n:
            raise InvalidGroupTable("need exactly one name per element")
        self.mul = table
        self.mul.setflags(write=False)
        self.inv = inv
        self.inv.setflags(write=False)
        self.identity = e
        self.names = names
        self._characters = None
        self._rebuild_grid = None

    @property
    def order(self):
        return int(self.mul.shape[0])

    @property
    def rebuild_grid(self):
        """Index grid I with I[u, t] = mul[u, inv[t]], read-only.

        ``f[I]`` is the matrix of ``sum_s f(s) lambda(s)`` on l2(G), so the
        grid turns coefficient vectors into matrices and, through
        ``f[I] @ h``, computes the coefficients of the product f h.
        """
        if self._rebuild_grid is None:
            grid = np.ascontiguousarray(self.mul[:, self.inv])
            grid.setflags(write=False)
            self._rebuild_grid = grid
        return self._rebuild_grid

    def multiply(self, s, t):
        return int(self.mul[s, t])

    def inverse(self, s):
        return int(self.inv[s])

    def element_order(self, s):
        k, acc = 1, int(s)
        while acc != self.identity:
            acc = int(self.mul[acc, s])
            k += 1
        return k

    def involutions(self):
        """Indices of the order-2 elements."""
        squares_to_identity = self.mul.diagonal() == self.identity
        squares_to_identity[self.identity] = False
        return np.flatnonzero(squares_to_identity).tolist()

    def is_abelian(self):
        return bool(np.array_equal(self.mul, self.mul.T))

    def closure(self, seed):
        """Subgroup generated by ``seed`` (set of indices), as a sorted tuple."""
        members = np.flatnonzero(np.bincount([self.identity, *seed], minlength=self.order))
        while True:
            # the distinct products, sorted: with e among the members they
            # contain the members, and equal them once the set is closed
            products = self.mul[np.ix_(members, members)].ravel()
            grown = np.flatnonzero(np.bincount(products, minlength=self.order))
            if np.array_equal(grown, members):
                return tuple(grown.tolist())
            members = grown

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


def same_group(g1, g2):
    """Structural identity: same multiplication table."""
    return g1 is g2 or np.array_equal(g1.mul, g2.mul)


def commutator_subgroup(g):
    """Subgroup generated by all s t s^-1 t^-1, as a sorted index tuple."""
    comms = g.mul[g.mul, g.mul[np.ix_(g.inv, g.inv)]]
    return g.closure(comms.ravel())


# ---------------------------------------------------------------------------
# builtin families


def _cyclic(n):
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, [str(k) for k in range(n)])


def _dihedral(n):
    # elements are affine maps x -> eps*x + a on Z_n; index a for eps=+1,
    # n + a for eps=-1.  Composition (e1,a1)(e2,a2) = (e1*e2, e1*a2 + a1).
    eps, a = np.repeat([1, -1], n), np.tile(np.arange(n), 2)
    table = (np.where(eps[:, None] == eps[None, :], 0, n)
             + (eps[:, None] * a[None, :] + a[:, None]) % n)
    names = ["r%d" % a for a in range(n)] + ["sr%d" % a for a in range(n)]
    return FiniteGroup(table, names)


def _quaternion8():
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    basis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }

    def split(u):
        return (-1, u[1:]) if u.startswith("-") else (1, u)

    def join(sign, letter):
        return units.index(letter if sign == 1 else "-" + letter)

    table = np.empty((8, 8), dtype=np.int64)
    for a, ua in enumerate(units):
        sa, la = split(ua)
        for b, ub in enumerate(units):
            sb, lb = split(ub)
            sc, lc = basis[(la, lb)]
            table[a, b] = join(sa * sb * sc, lc)
    return FiniteGroup(table, units)


def _symmetric(k):
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = np.empty((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(k))]
    names = ["".join(str(x) for x in p) for p in perms]
    return FiniteGroup(table, names)


def direct_product(a, b):
    """Direct product with index (i, j) -> i * |b| + j."""
    nb = b.order
    left = np.repeat(np.arange(a.order), nb)
    right = np.tile(np.arange(nb), a.order)
    table = a.mul[np.ix_(left, left)] * nb + b.mul[np.ix_(right, right)]
    names = ["%s|%s" % (a.names[i], b.names[j])
             for i in range(a.order) for j in range(nb)]
    return FiniteGroup(table, names)


_ATOM = re.compile(r"^(cyclic|dihedral|symmetric)\((\d+)\)$|^(quaternion8)$")


def _builtin_atom(name):
    m = _ATOM.match(name.strip())
    if not m:
        raise UnknownFamily("unknown builtin group %r" % name)
    if m.group(3) == "quaternion8":
        return _quaternion8()
    family, arg = m.group(1), int(m.group(2))
    if family == "cyclic":
        if arg < 1:
            raise UnknownFamily("cyclic(n) needs n >= 1")
        return _cyclic(arg)
    if family == "dihedral":
        if arg < 1:
            raise UnknownFamily("dihedral(n) needs n >= 1")
        return _dihedral(arg)
    if arg not in (3, 4):
        raise UnknownFamily("symmetric(n) is available for n in {3, 4}")
    return _symmetric(arg)


def builtin_group(name):
    """Construct a builtin group by name.

    Supported: ``cyclic(n)``, ``dihedral(n)`` (symmetries of the n-gon,
    order 2n), ``quaternion8``, ``symmetric(3)``, ``symmetric(4)`` and
    direct products joined with ``x``, e.g. ``cyclic(2)xcyclic(2)``.
    """
    parts = [p.strip() for p in name.split("x")]
    if not parts or any(not p for p in parts):
        raise UnknownFamily("empty group name in %r" % name)
    group = _builtin_atom(parts[0])
    for part in parts[1:]:
        group = direct_product(group, _builtin_atom(part))
    return group


# ---------------------------------------------------------------------------
# characters


@dataclass
class Character:
    """A unimodular multiplicative function on a finite group."""

    group: FiniteGroup
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = as_symbol(self.group, self.values)

    def validate(self, tol=DEFAULT_TOL):
        """``ValueError`` unless the values are 1 at the identity and fit a
        character within ``tol`` (:func:`fit_scalar_character`)."""
        fit = fit_scalar_character(self.group, self.values, tol)
        if fit is None or abs(fit[0] - 1.0) > tol:
            raise ValueError("values are not a character within %.3g" % tol)

    def __call__(self, s):
        return complex(self.values[s])


def as_symbol(g, phi):
    """``phi`` as a function on ``g``: a 1-D complex128 array with one finite
    value per element in table order, or ``ValueError`` (any other shape)."""
    values = np.asarray(phi, dtype=np.complex128)
    if values.shape != (g.order,):
        raise ValueError("symbol needs shape (%d,), one value per group element, "
                         "got %r" % (g.order, values.shape))
    if not np.isfinite(values).all():
        raise ValueError("symbol values must be finite")
    return values


def _roots_of_unity(n, k):
    """exp(2 pi i k / n) for an integer array k."""
    return np.exp(2j * np.pi * np.asarray(k, dtype=np.float64) / float(n))


def _homomorphisms(g, k):
    """Which rows of the (K, |G|) int64 array ``k``, entries in [0, |G|),
    are exponent vectors of characters: k[s t] = k[s] + k[t] mod |G| on the
    whole Cayley table (the entry (e, e) forces k[e] = 0).  Table rows are
    swept in bounded blocks; a row of ``k`` is dropped at its first failure.
    """
    n = g.order
    alive = np.arange(len(k))
    lo = 0
    while lo < n and alive.size:
        block = np.arange(lo, min(n, lo + max(1, _BLOCK_LOOKUPS // (alive.size * n))))
        kb = k[alive]
        # k[s t] - k[s] - k[t] lies in (-2n, n): it vanishes mod n iff it is 0 or -n
        defect = kb[:, g.mul[block]]
        defect -= kb[:, None, :]
        defect -= kb[:, block, None]
        alive = alive[((defect == 0) | (defect == -n)).all(axis=(1, 2))]
        lo += block.size
    ok = np.zeros(len(k), dtype=bool)
    ok[alive] = True
    return ok


def _nearest_exponents(g, phi):
    """Exponent vectors k of the |G|-th roots of unity nearest phi(s) /
    phi(e), for each row of the (..., |G|) array ``phi``; k[e] = 0."""
    turns = (np.angle(phi) - np.angle(phi[..., g.identity, None])) / (2 * np.pi)
    return np.rint(turns * g.order).astype(np.int64) % g.order


def enumerate_characters(g):
    """All characters of ``g``, sorted by exponent vector (trivial first).

    For h = f + f* in VN(G) and a character psi, h conj(psi) = (sum_s h(s)
    psi(s)) conj(psi) on l2(G).  Each one-dimensional representation occurs
    once in the regular one, so for generic f (drawn at a fixed internal
    seed) that eigenvalue is simple and its eigenvector is conj(psi) up to
    scale.  The |G| eigenvectors of h are rounded as in
    :func:`fit_scalar_character`, kept when :func:`_homomorphisms` accepts
    them, and counted against order(g) / order(G').  The cost is one
    Hermitian eigendecomposition of order |G| and the table test, O(|G|^3),
    the order of the associativity check at load; the list is cached on
    ``g``.
    """
    if g._characters is not None:
        return g._characters
    n = g.order
    f = complex_gaussians([np.random.default_rng(_SPECTRAL_SEED)], (n,))[0]
    _, vecs = hermitian_eig((f + np.conj(f[g.inv]))[g.rebuild_grid])
    k = _nearest_exponents(g, vecs.T)
    # a set: vectors of a degenerate eigenvalue may round to one character
    exps = sorted({tuple(row) for row in k[_homomorphisms(g, k)].tolist()})
    expected = n // len(commutator_subgroup(g))
    if len(exps) != expected:
        raise GroupError(
            "character enumeration found %d of %d expected characters"
            % (len(exps), expected)
        )
    g._characters = [Character(g, values) for values in _roots_of_unity(n, exps)]
    return g._characters


def trivial_character(g):
    return Character(g, np.ones(g.order))


def fit_scalar_character(g, phi, tol=DEFAULT_TOL):
    """Fit ``phi = c * psi`` for a character psi, gauge c = phi(e).

    psi takes at each element the |G|-th root of unity nearest
    phi(s) / phi(e).  It is accepted when ``max |phi - c psi| <= tol *
    max |phi|`` (relative, so rescaling phi changes nothing) and its
    exponent vector passes :func:`_homomorphisms`.  Returns ``(c, psi)``,
    psi an exact character, or ``None``; the zero symbol fits as
    ``(0, trivial character)``.  O(|G|^2), with no list of characters and
    no order cap.  Whenever tol < 1/|G| it agrees with a search of the
    enumerated characters: at most one then lies within ``tol``, and its
    value at each element is the root of unity nearest phi(s) / phi(e).
    """
    tol = check_tol(tol)
    phi = as_symbol(g, phi)
    scale = float(np.max(np.abs(phi)))
    if scale == 0.0:
        return 0j, trivial_character(g)
    c = complex(phi[g.identity])
    k = _nearest_exponents(g, phi)
    psi = _roots_of_unity(g.order, k)
    if float(np.max(np.abs(phi - c * psi))) > tol * scale:
        return None
    if not _homomorphisms(g, k[None])[0]:
        return None
    return c, Character(g, psi)


# ---------------------------------------------------------------------------
# serialization


def group_to_json(g):
    return {
        "order": g.order,
        "mul": g.mul.tolist(),
        "names": list(g.names),
    }


def group_from_json(obj):
    """Build a validated group from {"order", "mul", "names"?} JSON."""
    if not isinstance(obj, dict):
        raise InvalidGroupTable("group JSON must be an object")
    try:
        order = int(obj["order"])
        mul = obj["mul"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGroupTable("group JSON needs integer 'order' and 'mul'") from exc
    names = obj.get("names")
    try:
        table = np.asarray(mul, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise InvalidGroupTable("'mul' must be a square integer table") from exc
    if table.shape != (order, order):
        raise InvalidGroupTable(
            "declared order %d does not match table shape %r" % (order, table.shape)
        )
    return FiniteGroup(table, names)
