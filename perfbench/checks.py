"""Independent checkers for sepmult verdicts.

These functions use only numpy and the group's Cayley table.  They import
nothing from sepmult and share no code with its search or its fitters: a
certificate or a witness is re-verified from the input symbol alone.  Each
checker returns a list of error strings; an empty list means the piece of
evidence holds.
"""

import numpy as np

#: relative tolerance for the algebraic identities (certificate fit,
#: disjointness, recomputed images); the library decides at 1e-9 as well
TOL = 1e-9

#: bound on the sampled isometry deviation where |c| = 1 and p != 2
ISOMETRY_TOL = 1e-9


def identity_of(mul):
    """Index of the identity element of a Cayley table."""
    mul = np.asarray(mul)
    ref = np.arange(mul.shape[0])
    rows = [s for s in range(mul.shape[0]) if np.array_equal(mul[s], ref)]
    return rows[0]


def group_coefficients(mul, x):
    """Coefficients f(s) = tau(lambda(s)* x) through the normalized trace.

    lambda(s) has its ones at (s*t, t), so tau(lambda(s)* x) averages the
    entries x[s*t, t] over t.
    """
    mul = np.asarray(mul)
    cols = np.arange(mul.shape[0])
    return np.asarray(x)[mul, cols[None, :]].mean(axis=1)


def group_matrix(mul, coeffs):
    """The matrix sum_s coeffs[s] lambda(s) acting on l2(G)."""
    mul = np.asarray(mul)
    n = mul.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    out[mul, np.arange(n)[None, :]] = np.asarray(coeffs)[:, None]
    return out


def fourier_image(mul, phi, x):
    """T_phi(x): scale each coefficient of x by phi and rebuild the matrix."""
    return group_matrix(mul, np.asarray(phi) * group_coefficients(mul, x))


def schur_image(m, x):
    """S_m(x): the Hadamard product m .* x."""
    return np.asarray(m) * np.asarray(x)


def _norm(x):
    return float(np.sqrt(np.sum(np.abs(x) ** 2)))


def defect(a, b):
    """max(||a* b||, ||a b*||) / (||a|| ||b||); 0 when a factor vanishes."""
    na, nb = _norm(a), _norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    left = _norm(a.conj().T @ b)
    right = _norm(a @ b.conj().T)
    return max(left, right) / (na * nb)


def _close(x, y, tol=TOL):
    scale = max(_norm(x), _norm(y))
    return _norm(np.asarray(x) - np.asarray(y)) <= tol * scale


def check_fourier_certificate(mul, phi, cert):
    """phi = c psi with psi a character of the table: unimodular, 1 at e,
    multiplicative, and the fit within TOL relative to max|phi|."""
    errors = []
    if cert is None:
        return ["no certificate"]
    if cert.get("kind") != "scalar-character":
        errors.append("certificate kind %r" % cert.get("kind"))
    mul = np.asarray(mul)
    phi = np.asarray(phi, dtype=np.complex128)
    psi = np.asarray(cert.get("character"), dtype=np.complex128).reshape(-1)
    c = complex(cert.get("c"))
    if psi.shape != phi.shape:
        return errors + ["character has %d values for %d elements"
                         % (psi.size, phi.size)]
    if np.max(np.abs(np.abs(psi) - 1.0)) > TOL:
        errors.append("character is not unimodular")
    if abs(psi[identity_of(mul)] - 1.0) > TOL:
        errors.append("character is not 1 at the identity")
    if np.max(np.abs(psi[mul] - np.outer(psi, psi))) > TOL:
        errors.append("character is not multiplicative")
    scale = float(np.max(np.abs(phi)))
    if np.max(np.abs(phi - c * psi)) > TOL * scale:
        errors.append("symbol differs from c * character")
    return errors


def check_schur_certificate(m, cert):
    """m = c alpha beta^T with alpha, beta entrywise unimodular."""
    errors = []
    if cert is None:
        return ["no certificate"]
    if cert.get("kind") != "rank-one-unimodular":
        errors.append("certificate kind %r" % cert.get("kind"))
    m = np.asarray(m, dtype=np.complex128)
    alpha = np.asarray(cert.get("alpha"), dtype=np.complex128).reshape(-1)
    beta = np.asarray(cert.get("beta"), dtype=np.complex128).reshape(-1)
    c = complex(cert.get("c"))
    if alpha.shape != (m.shape[0],) or beta.shape != (m.shape[1],):
        return errors + ["certificate vectors do not match the symbol"]
    if np.max(np.abs(np.abs(alpha) - 1.0)) > TOL:
        errors.append("alpha is not unimodular")
    if np.max(np.abs(np.abs(beta) - 1.0)) > TOL:
        errors.append("beta is not unimodular")
    scale = float(np.max(np.abs(m)))
    if np.max(np.abs(m - c * np.outer(alpha, beta))) > TOL * scale:
        errors.append("symbol differs from c * alpha beta^T")
    return errors


def check_witness(witness, certificate, image, mul=None):
    """A refutation: a disjoint pair (a, b) whose images, recomputed here
    with ``image(x)``, match the reported ones and fail disjointness.

    ``mul`` is given for Fourier multipliers, whose pair must also lie in
    the group algebra.  A refutation carries no certificate.
    """
    errors = []
    if certificate is not None:
        errors.append("certificate attached to a refutation")
    if witness is None:
        return errors + ["no witness"]
    a = np.asarray(witness.a, dtype=np.complex128)
    b = np.asarray(witness.b, dtype=np.complex128)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return errors + ["witness pair is not finite"]
    if _norm(a) == 0.0 or _norm(b) == 0.0:
        return errors + ["witness pair has a zero leg"]
    if mul is not None:
        for name, x in (("a", a), ("b", b)):
            back = group_matrix(mul, group_coefficients(mul, x))
            if not _close(back, x, 1e-8):
                errors.append("%s is not in the group algebra" % name)
    if defect(a, b) > TOL:
        errors.append("pair is not disjoint")
    image_a, image_b = image(a), image(b)
    if not _close(image_a, witness.image_a):
        errors.append("image_a differs from T(a)")
    if not _close(image_b, witness.image_b):
        errors.append("image_b differs from T(b)")
    violation = defect(image_a, image_b)
    if violation <= TOL:
        errors.append("images are disjoint (defect %.3g)" % violation)
    elif abs(violation - float(witness.violation)) > 1e-6 * violation:
        errors.append("reported violation %.6g, recomputed %.6g"
                      % (witness.violation, violation))
    return errors


def check_isometry(c, p, max_deviation):
    """Where |c| = 1 and p != 2 the isometry sample must stay within 1e-9."""
    if p == 2.0 or abs(abs(complex(c)) - 1.0) > TOL:
        return []
    if max_deviation is None:
        return ["no isometry sample for |c| = 1 at p = %g" % p]
    if not max_deviation <= ISOMETRY_TOL:
        return ["isometry deviation %.3g at p = %g" % (max_deviation, p)]
    return []
