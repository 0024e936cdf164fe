"""Finite groups as Cayley tables, their characters, and symbol fitting.

A group is its multiplication table (a Latin square of element indices) plus
derived data: identity, inverse table, element names.  Groups are value
objects; two groups are "the same" when their tables coincide.  Tables are
fully validated at load time (associativity included) up to order 64, which
is also the cap for character enumeration.

Characters here are the one-dimensional unitary representations: unimodular,
multiplicative, 1 at the identity.  They are enumerated exactly by passing to
the quotient modulo the commutator subgroup and propagating root-of-unity
assignments on a greedy generating set; arithmetic stays in integer exponents
until the final materialization, so enumerated characters are multiplicative
to a few ulp.
"""

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL

#: orders up to which the O(n^3) associativity sweep runs at construction
FULL_VALIDATION_CAP = 64

#: enumeration refuses groups larger than this
CHARACTER_ORDER_CAP = 64


class GroupError(Exception):
    """Base class for group-layer failures."""


class UnknownFamily(GroupError):
    """Builtin group name not recognized."""


class GroupTooLarge(GroupError):
    """Operation capped at order 64 got a larger group."""


class InvalidGroupTable(GroupError):
    """Cayley table fails the group axioms."""


class FiniteGroup:
    """A finite group given by its Cayley table.

    ``mul[s][t]`` is the index of the product s*t.  The identity and the
    inverse table are derived, not stored.  ``names`` is a parallel list of
    element labels used only for I/O.
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
        for s in range(n):
            if not np.array_equal(np.sort(table[s]), ref) or not np.array_equal(
                np.sort(table[:, s]), ref
            ):
                raise InvalidGroupTable("table is not a Latin square at index %d" % s)
        ident = [s for s in range(n) if np.array_equal(table[s], ref)
                 and np.array_equal(table[:, s], ref)]
        if len(ident) != 1:
            raise InvalidGroupTable("table has no two-sided identity")
        e = ident[0]
        inv = np.empty(n, dtype=np.int64)
        for s in range(n):
            t = int(np.nonzero(table[s] == e)[0][0])
            if table[t, s] != e:
                raise InvalidGroupTable("element %d has no two-sided inverse" % s)
            inv[s] = t
        if n <= FULL_VALIDATION_CAP:
            left = table[table, :]
            right = table[:, table]
            if not np.array_equal(left, right):
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

    @property
    def order(self):
        return int(self.mul.shape[0])

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
        members = set(int(s) for s in seed)
        members.add(self.identity)
        frontier = list(members)
        while frontier:
            fresh = []
            snapshot = list(members)
            for a in snapshot:
                for b in frontier:
                    for prod in (int(self.mul[a, b]), int(self.mul[b, a])):
                        if prod not in members:
                            members.add(prod)
                            fresh.append(prod)
            frontier = fresh
        return tuple(sorted(members))

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


def same_group(g1, g2):
    """Structural identity: same multiplication table."""
    return g1 is g2 or np.array_equal(g1.mul, g2.mul)


def commutator_subgroup(g):
    """Subgroup generated by all s t s^-1 t^-1, as a sorted index tuple."""
    n = g.order
    comms = set()
    for s in range(n):
        for t in range(n):
            st = g.mul[s, t]
            si_ti = g.mul[g.inv[s], g.inv[t]]
            comms.add(int(g.mul[st, si_ti]))
    return g.closure(comms)


# ---------------------------------------------------------------------------
# builtin families


def _cyclic(n):
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, [str(k) for k in range(n)])


def _dihedral(n):
    # elements are affine maps x -> eps*x + a on Z_n; index a for eps=+1,
    # n + a for eps=-1.  Composition (e1,a1)(e2,a2) = (e1*e2, e1*a2 + a1).
    def pack(eps, a):
        return a % n if eps == 1 else n + (a % n)

    size = 2 * n
    table = np.empty((size, size), dtype=np.int64)
    for i in range(size):
        e1, a1 = (1, i) if i < n else (-1, i - n)
        for j in range(size):
            e2, a2 = (1, j) if j < n else (-1, j - n)
            table[i, j] = pack(e1 * e2, e1 * a2 + a1)
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
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.group.order,):
            raise ValueError("character needs one value per group element")

    def validate(self, tol=DEFAULT_TOL):
        vals = self.values
        if np.max(np.abs(np.abs(vals) - 1.0)) > tol:
            raise ValueError("character values must be unimodular")
        if abs(vals[self.group.identity] - 1.0) > tol:
            raise ValueError("character must send the identity to 1")
        prod = vals[:, None] * vals[None, :]
        if np.max(np.abs(vals[self.group.mul] - prod)) > tol:
            raise ValueError("character is not multiplicative")

    def __call__(self, s):
        return complex(self.values[s])


def _quotient_by(g, subgroup):
    """Quotient group modulo a normal subgroup; returns (Q, coset_index)."""
    sub = np.array(subgroup, dtype=np.int64)
    coset_of = {}
    coset_index = np.full(g.order, -1, dtype=np.int64)
    reps = []
    for s in range(g.order):
        key = tuple(sorted(int(x) for x in g.mul[s, sub]))
        if key not in coset_of:
            coset_of[key] = len(reps)
            reps.append(s)
        coset_index[s] = coset_of[key]
    m = len(reps)
    table = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            table[i, j] = coset_index[g.mul[a, b]]
    return FiniteGroup(table), coset_index


def _greedy_generators(q):
    gens = []
    generated = {q.identity}
    while len(generated) < q.order:
        pool = [s for s in range(q.order) if s not in generated]
        pick = max(pool, key=lambda s: (q.element_order(s), -s))
        gens.append(pick)
        generated = set(q.closure(generated | {pick}))
    return gens


def _propagate(q, gens, gen_exps, exponent):
    """Fill exponents over Q from generator assignments; None if inconsistent."""
    val = np.full(q.order, -1, dtype=np.int64)
    val[q.identity] = 0
    frontier = [q.identity]
    assigned = dict(zip(gens, gen_exps))
    while frontier:
        fresh = []
        for x in frontier:
            for gidx, gval in assigned.items():
                y = int(q.mul[x, gidx])
                want = (int(val[x]) + gval) % exponent
                if val[y] < 0:
                    val[y] = want
                    fresh.append(y)
                elif val[y] != want:
                    return None
        frontier = fresh
    # every (element, generator) edge must agree, which forces a homomorphism
    for a in range(q.order):
        for gidx, gval in assigned.items():
            if val[q.mul[a, gidx]] != (int(val[a]) + gval) % exponent:
                return None
    return val


def enumerate_characters(g):
    """All characters of ``g``, trivial one first, deterministic order.

    The count always equals order(g) / order(commutator subgroup).  Raises
    ``GroupTooLarge`` above order 64.
    """
    if g.order > CHARACTER_ORDER_CAP:
        raise GroupTooLarge(
            "character enumeration is capped at order %d" % CHARACTER_ORDER_CAP
        )
    if g._characters is not None:
        return g._characters
    derived = commutator_subgroup(g)
    quotient, coset_index = _quotient_by(g, derived)
    exponent = 1
    for s in range(quotient.order):
        exponent = math.lcm(exponent, quotient.element_order(s))
    gens = _greedy_generators(quotient)
    choices = []
    for gidx in gens:
        step = exponent // quotient.element_order(gidx)
        choices.append([j * step for j in range(quotient.element_order(gidx))])
    seen = set()
    exp_vectors = []
    for assignment in itertools.product(*choices) if gens else [()]:
        val = _propagate(quotient, gens, list(assignment), exponent)
        if val is None:
            continue
        key = tuple(int(x) for x in val)
        if key not in seen:
            seen.add(key)
            exp_vectors.append(key)
    exp_vectors.sort()
    expected = g.order // len(derived)
    if len(exp_vectors) != expected:
        raise GroupError(
            "character enumeration found %d of %d expected characters"
            % (len(exp_vectors), expected)
        )
    chars = []
    for vec in exp_vectors:
        quotient_vals = np.exp(2j * np.pi * np.asarray(vec, dtype=np.float64)
                               / float(exponent))
        chars.append(Character(g, quotient_vals[coset_index]))
    g._characters = chars
    return chars


def trivial_character(g):
    return enumerate_characters(g)[0]


def fit_scalar_character(g, phi, tol=DEFAULT_TOL):
    """Fit ``phi = c * psi`` for an enumerated character psi, gauge c = phi(e).

    Returns ``(c, psi)`` on success, ``None`` when no enumerated character
    matches within ``tol`` (max-norm, relative to ``max |phi|``, so the
    answer does not change when phi is rescaled).  The zero symbol fits as
    ``(0, trivial character)``.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (g.order,):
        raise ValueError("symbol needs one value per group element")
    if not np.all(np.isfinite(phi.view(np.float64))):
        raise ValueError("symbol values must be finite")
    chars = enumerate_characters(g)
    scale = float(np.max(np.abs(phi)))
    if scale == 0.0:
        return 0j, chars[0]
    c = complex(phi[g.identity])
    for psi in chars:
        if float(np.max(np.abs(phi - c * psi.values))) <= tol * scale:
            return c, psi
    return None


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
