"""Real scalar fields on the torus grid.

A :class:`ScalarField` holds one real field as point values, as its
``rfft2`` half-spectrum (numpy convention, unnormalized), or both; each is
computed from the other when first read, and the inverse transform is real
by construction. Fields are treated as immutable after construction (a
missing representation filled by two threads is filled identically); none
of the operators in this package mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


class ScalarField:
    """Real scalar field sampled on a :class:`Grid`.

    ``values[i, j]`` is the sample at x = (i*dx, j*dx) and ``hat`` is
    ``rfft2(values)``; either may be the one given at construction.
    """

    __slots__ = ("grid", "_values", "_hat")

    def __init__(self, grid: Grid, values: np.ndarray):
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (grid.n, grid.n):
            raise ValueError(f"values must have shape {(grid.n, grid.n)}, got {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        self.grid = grid
        self._values = vals
        self._hat = None

    @classmethod
    def from_hat(cls, grid: Grid, hat: np.ndarray) -> "ScalarField":
        """Build a field from its ``rfft2`` half-spectrum, shape (n, n//2 + 1).

        The point values are computed when first read.
        """
        hat = np.asarray(hat, dtype=np.complex128)
        if hat.shape != (grid.n, grid.n // 2 + 1):
            raise ValueError(f"hat must have shape {(grid.n, grid.n // 2 + 1)}, got {hat.shape}")
        field = cls.__new__(cls)
        field.grid = grid
        field._values = None
        field._hat = hat
        return field

    @property
    def values(self) -> np.ndarray:
        """Point values, shape (n, n)."""
        if self._values is None:
            self._values = np.fft.irfft2(self._hat, s=(self.grid.n, self.grid.n))
        return self._values

    @property
    def hat(self) -> np.ndarray:
        """Unnormalized half-spectrum c(k) = sum_x values(x) e^{-i k.x}, k2 >= 0."""
        if self._hat is None:
            self._hat = np.fft.rfft2(self._values)
        return self._hat

    def mean(self) -> float:
        return float(self.values.mean())

    def linf(self) -> float:
        return float(np.abs(self.values).max())

    def linf_bound(self) -> float:
        """Wiener bound n^-2 * sum_k |c(k)| >= linf(), with no transform; an
        interior column k2 in (0, n/2) stands for k2 and -k2 and counts twice."""
        a = np.abs(self.hat)
        return float(2.0 * a.sum() - a[:, 0].sum() - a[:, -1].sum()) / self.grid.n**2

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScalarField(n={self.grid.n}, linf={self.linf():.3g})"
