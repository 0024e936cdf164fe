"""Schur symbols: factorization certificates and Herz-Schur symbols.

A Schur symbol is just a square complex matrix m acting entrywise,
``T_m(x) = m .* x`` (``classify.schur_multiplier_map``).  The certificate of
interest is the rank-one unimodular factorization
``m_ij = c * alpha_i * beta_j`` with |alpha_i| = |beta_j| = 1,
gauged so alpha_1 = 1 and c = m_11.  Existence of the certificate is a value
("absent" is a legitimate answer), not an error.

``herz_schur_symbol`` turns a function on a group into the two-variable
symbol m[s, t] = phi(s^{-1} t); ``recover_character`` inverts that: given a
rank-one certificate of such a symbol it fits the scalar and the character
to the certificate's identity row, verifying translation covariance on the
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groups import FiniteGroup, as_symbol, fit_scalar_character
from .linalg import DEFAULT_TOL, as_complex_matrix, check_tol


@dataclass
class RankOneCertificate:
    """Witness of m = c * outer(alpha, beta) with unimodular alpha, beta."""

    c: complex
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.c = complex(self.c)
        self.alpha = np.asarray(self.alpha, dtype=np.complex128).reshape(-1)
        self.beta = np.asarray(self.beta, dtype=np.complex128).reshape(-1)

    def reconstruct(self):
        return self.c * np.outer(self.alpha, self.beta)


def _unimodular(z):
    mod = np.abs(z)
    safe = np.where(mod == 0.0, 1.0, mod)
    return z / safe


def rank_one_unimodular_factor(m, tol=DEFAULT_TOL) -> Optional[RankOneCertificate]:
    """Factor m = c * outer(alpha, beta) with unimodular alpha, beta, or None.

    All entry moduli must agree within ``tol`` relative to the largest one
    (the zero symbol factors as c = 0 with all-ones vectors).  Gauge:
    alpha_1 = 1, c = m_11; the candidate is verified entrywise before being
    returned, so near-misses come back as None rather than a bad certificate.
    """
    tol = check_tol(tol)
    mm = as_complex_matrix(m)
    n = mm.shape[0]
    moduli = np.abs(mm)
    mmax = float(moduli.max())
    if mmax == 0.0:
        ones = np.ones(n, dtype=np.complex128)
        return RankOneCertificate(0.0, ones, ones.copy())
    if float(mmax - moduli.min()) > tol * mmax:
        return None
    c = complex(mm[0, 0])
    alpha = _unimodular(mm[:, 0] / c)
    alpha[0] = 1.0
    beta = _unimodular(mm[0, :] / c)
    residual = np.max(np.abs(mm - c * np.outer(alpha, beta)))
    if float(residual) > tol * mmax:
        return None
    return RankOneCertificate(c, alpha, beta)


def herz_schur_symbol(g: FiniteGroup, phi):
    """Two-variable symbol m[s, t] = phi(s^{-1} t) from a function on g."""
    return as_symbol(g, phi)[g.mul[g.inv, :]]


def recover_character(g: FiniteGroup, cert: RankOneCertificate, tol=DEFAULT_TOL):
    """Recover (c, psi) from a certificate of a Herz-Schur symbol.

    Row e of the factorization is phi itself (m[e, t] = phi(t)), so (c', psi)
    is :func:`groups.fit_scalar_character` of c * alpha(e) * beta, with
    c' = c * alpha(e) * beta(e) and psi an exact character.  Then the
    certificate must be translation covariant: c * alpha_s * beta_t must
    equal c' * psi(s^{-1} t) within ``tol * |c|``, relative so that the
    answer does not change when the certificate is rescaled.  Returns None
    when either check fails, which is exactly the case of a certificate that
    did not come from a scalar multiple of a character.
    """
    tol = check_tol(tol)
    alpha, beta = as_symbol(g, cert.alpha), as_symbol(g, cert.beta)
    fit = fit_scalar_character(g, cert.c * alpha[g.identity] * beta, tol)
    if fit is None:
        return None
    c_prime, psi = fit
    expected = c_prime * psi.values[g.mul[g.inv, :]]
    actual = cert.c * np.outer(alpha, beta)
    if float(np.max(np.abs(actual - expected))) > tol * abs(cert.c):
        return None
    return c_prime, psi
