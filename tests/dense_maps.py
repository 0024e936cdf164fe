"""Reference maps held by explicit basis images, for tests that compare the
library's maps against images written out entry by entry."""

import numpy as np

from sepmult.vna import coefficients


class DenseMap:
    """The map sending the k-th canonical basis element to ``images[k]``:
    the matrix unit e_ij at k = i n + j, or lambda(s) at k = s.  It applies
    by decomposing its argument in the basis (the coefficients of the
    conditional expectation on a group algebra) and summing the images with
    those coefficients.  Only ``apply`` and ``images`` are offered; it is no
    ``LinearMap``."""

    def __init__(self, images, algebra, group=None):
        self.images = np.asarray(images, dtype=np.complex128)
        self.algebra = algebra
        self.group = group

    def apply(self, x):
        n = self.images.shape[-1]
        if self.algebra == "group":
            coeffs = coefficients(self.group, x)
        else:
            coeffs = x.reshape(x.shape[:-2] + (n * n,))
        flat = self.images.reshape(self.images.shape[0], n * n)
        return (coeffs @ flat).reshape(coeffs.shape[:-1] + (n, n))
