"""Reference implementations that the tests check the library against."""

import numpy as np


def cca_oracle(C1, C2) -> np.ndarray:
    """Canonical correlations from the generalized eigenproblem on covariance
    blocks.

    Forms S11^-1 S12 S22^-1 S21 explicitly; the square roots of its
    eigenvalues are the canonical correlations. An independent cross-check
    of cca's QR + SVD route; not meant for ill-conditioned inputs.
    """
    X1, X2 = np.asarray(C1, dtype=float), np.asarray(C2, dtype=float)
    n = X1.shape[0]
    X1c = X1 - X1.mean(axis=0)
    X2c = X2 - X2.mean(axis=0)
    S11 = X1c.T @ X1c / (n - 1)
    S22 = X2c.T @ X2c / (n - 1)
    S12 = X1c.T @ X2c / (n - 1)
    A = np.linalg.solve(S11, S12) @ np.linalg.solve(S22, S12.T)
    ev = np.linalg.eigvals(A)
    rho = np.sqrt(np.clip(ev.real, 0.0, 1.0))
    rho.sort()
    m = min(X1.shape[1], X2.shape[1])
    return rho[::-1][:m]
