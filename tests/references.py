"""Reference constructions that several test modules compare the library
against: the adapted-frame Gram matrix and its diagonal, the vertical
Gram block of a family, and a frame with another completion.  Written
from the definitions, with no shortcut the library takes."""

from dataclasses import replace

import numpy as np

from tbcurv.bundlemetric import adapted_frame_vectors, induced_metric


def frame_gram(M, fam, fp) -> np.ndarray:
    """Gram matrix of the adapted frame under G; equals the fiber-block
    matrix with xi = (t, 0, ..., 0) in the vertical corner."""
    G = induced_metric(M, fam, fp.q, fp.v)
    frame = adapted_frame_vectors(M, fp)
    return frame @ G @ frame.T


def gram_diagonal(fam, t: float, n: int) -> np.ndarray:
    """Diagonal of the adapted-frame Gram matrix: n ones, then
    alpha + t^2 beta (radial vertical), then alpha for the rest."""
    j = fam.jets(t * t)
    return np.array([1.0] * n + [j.delta] + [j.alpha] * (n - 1))


def fiber_block(fam, xi: np.ndarray) -> np.ndarray:
    """alpha(|xi|^2)*Id + beta(|xi|^2)*xi^T xi, the vertical Gram block.

    Symmetric positive definite whenever the family is valid at |xi|^2
    (eigenvalues alpha with multiplicity n-1 and alpha + |xi|^2 beta).
    """
    xi = np.asarray(xi, dtype=float)
    j = fam.jets(float(xi @ xi))
    return j.alpha * np.eye(xi.shape[0]) + j.beta * np.outer(xi, xi)


def rotate_completion(fp, rotation: np.ndarray):
    """fp with u[1:] replaced by rotation @ u[1:] (rotation orthogonal,
    (n-1)x(n-1)): another normal-form frame at the same point, to check
    that invariants ignore the completion choice."""
    u = fp.u.copy()
    u[..., 1:, :] = np.asarray(rotation, dtype=float) @ u[..., 1:, :]
    return replace(fp, u=u)
