"""Reference maps held by explicit basis images, for tests that compare the
library's maps against images written out entry by entry."""

import numpy as np

from sepmult.classify import LinearMap
from sepmult.vna import coefficients


def dense_map(images, algebra, group=None):
    """The LinearMap sending the k-th canonical basis element to
    ``images[k]``: the matrix unit e_ij at k = i n + j, or lambda(s) at k =
    s.  It applies by decomposing its argument in the basis (the
    coefficients of the conditional expectation on a group algebra) and
    summing the images with those coefficients."""
    images = np.asarray(images, dtype=np.complex128)
    n = images.shape[-1]
    flat = images.reshape(images.shape[0], n * n)

    def apply(x):
        if algebra == "group":
            coeffs = coefficients(group, x)
        else:
            coeffs = x.reshape(x.shape[:-2] + (n * n,))
        return (coeffs @ flat).reshape(coeffs.shape[:-1] + (n, n))

    return LinearMap(apply, n, algebra, group)
