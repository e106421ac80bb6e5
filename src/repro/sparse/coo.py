"""COO (coordinate) sparse matrix format.

SPADE's evaluation uses COO for the accelerator (Section 6.C): three
parallel arrays ``r_ids``, ``c_ids``, ``vals`` (Figure 15a).  This module
is the canonical in-memory representation from which the tiled layout of
Appendix A is derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


def _stable_key_order(
    key: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The stable ascending order of ``key`` (values in ``[0, span)``)
    and the keys in that order.

    When a key and its index fit 63 bits together, one ``np.sort`` of
    ``(key << index_bits) | index`` gives both: equal keys then order by
    index, as a stable sort keeps them.  On 1M keys that is 21-38 ms
    against 141-153 ms for ``np.argsort(kind="stable")`` (2-vCPU x86-64
    host, NumPy 2.4.6).  Wider keys take the stable ``argsort``, the
    reference the packed sort is tested against."""
    n = key.shape[0]
    index_bits = max(1, (n - 1).bit_length())
    if max(1, (span - 1).bit_length()) + index_bits > 63:
        order = np.argsort(key, kind="stable")
        return order, key[order]
    packed = key << index_bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    return packed & ((1 << index_bits) - 1), packed >> index_bits


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate format.

    Invariants (enforced by :meth:`validate`): the three arrays have equal
    length, indices are in-range, and there are no duplicate coordinates.
    Entries need not be sorted — the tiled layout reorders them anyway.
    """

    num_rows: int
    num_cols: int
    r_ids: np.ndarray
    c_ids: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        self.r_ids = np.ascontiguousarray(self.r_ids, dtype=np.int64)
        self.c_ids = np.ascontiguousarray(self.c_ids, dtype=np.int64)
        self.vals = np.ascontiguousarray(self.vals, dtype=np.float32)
        self.validate()

    # -- construction -------------------------------------------------

    @classmethod
    def trusted(
        cls,
        num_rows: int,
        num_cols: int,
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        vals: np.ndarray,
    ) -> "COOMatrix":
        """A matrix whose coordinates come from one already validated
        (a transpose, a reordering, new values on the same structure):
        the arrays are coerced as in the constructor, but the invariants
        are not checked again.  Anything else goes through the
        constructor, which checks them."""
        m = cls.__new__(cls)
        m.num_rows = num_rows
        m.num_cols = num_cols
        m.r_ids = np.ascontiguousarray(r_ids, dtype=np.int64)
        m.c_ids = np.ascontiguousarray(c_ids, dtype=np.int64)
        m.vals = np.ascontiguousarray(vals, dtype=np.float32)
        return m

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build from a 2-D dense array, keeping nonzero entries."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        r, c = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], r, c, dense[r, c])

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix."""
        coo = mat.tocoo()
        coo.sum_duplicates()
        return cls(coo.shape[0], coo.shape[1], coo.row, coo.col, coo.data)

    @classmethod
    def from_edges(
        cls,
        num_rows: int,
        num_cols: int,
        edges: np.ndarray,
        vals: np.ndarray | None = None,
    ) -> "COOMatrix":
        """Build from an ``(nnz, 2)`` array of (row, col) pairs.

        Duplicate coordinates are collapsed (values summed in float32,
        matching the semantics of assembling a graph adjacency matrix).
        The output is in row-major order.  The stable sort keeps each
        coordinate's values in input order; ``np.add.reduceat`` then adds
        the first of them to the pairwise float32 sum of the rest.

        The edges are checked against the shape, and the shape must
        have at most ``2**63 - 1`` cells, so that every ``(row, col)``
        key fits an int64; the result has one entry per distinct
        coordinate by construction, so it is not checked again.
        """
        if int(num_rows) * int(num_cols) > 2**63 - 1:
            raise ValueError(
                f"a {num_rows} x {num_cols} shape has more cells than an "
                "int64 key can index"
            )
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (nnz, 2)")
        n = len(edges)
        if vals is None:
            vals = np.ones(n, dtype=np.float32)
        vals = np.asarray(vals, dtype=np.float32)
        if vals.shape != (n,):
            raise ValueError("vals must hold one value per edge")
        if n:
            for axis, bound, name in (
                (0, num_rows, "row"), (1, num_cols, "column"),
            ):
                ids = edges[:, axis]
                if ids.min() < 0 or ids.max() >= bound:
                    raise ValueError(f"{name} index out of range")
        key = edges[:, 0] * num_cols + edges[:, 1]
        order, key = _stable_key_order(key, num_rows * num_cols)
        vals = vals[order]
        first = np.ones(n, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        start = np.flatnonzero(first)
        summed = np.add.reduceat(vals, start) if n else vals
        key = key[start]
        return cls.trusted(
            num_rows, num_cols, key // num_cols, key % num_cols, summed
        )

    # -- properties ----------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def density(self) -> float:
        cells = self.num_rows * self.num_cols
        return self.nnz / cells if cells else 0.0

    # -- operations ----------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` on any violated invariant."""
        n = len(self.vals)
        if len(self.r_ids) != n or len(self.c_ids) != n:
            raise ValueError("r_ids, c_ids, vals must have equal length")
        if n:
            if self.r_ids.min() < 0 or self.r_ids.max() >= self.num_rows:
                raise ValueError("row index out of range")
            if self.c_ids.min() < 0 or self.c_ids.max() >= self.num_cols:
                raise ValueError("column index out of range")
            key = self.r_ids * self.num_cols + self.c_ids
            key.sort()
            if (key[1:] == key[:-1]).any():
                raise ValueError("duplicate coordinates in COO matrix")

    def sorted_by_row(self) -> "COOMatrix":
        """Return a copy with entries in row-major (row, then col) order."""
        order = np.lexsort((self.c_ids, self.r_ids))
        return COOMatrix.trusted(
            self.num_rows,
            self.num_cols,
            self.r_ids[order],
            self.c_ids[order],
            self.vals[order],
        )

    def transpose(self) -> "COOMatrix":
        return COOMatrix.trusted(
            self.num_cols, self.num_rows, self.c_ids, self.r_ids, self.vals
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float32)
        out[self.r_ids, self.c_ids] = self.vals
        return out

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.coo_matrix(
            (self.vals, (self.r_ids, self.c_ids)), shape=self.shape
        )

    def row_nnz_counts(self) -> np.ndarray:
        """Number of nonzeros in each row (length ``num_rows``)."""
        return np.bincount(self.r_ids, minlength=self.num_rows)

    def col_nnz_counts(self) -> np.ndarray:
        """Number of nonzeros in each column (length ``num_cols``)."""
        return np.bincount(self.c_ids, minlength=self.num_cols)

    def iter_entries(self) -> Iterator[Tuple[int, int, float]]:
        """Yield (r_id, c_id, val) tuples in storage order."""
        for r, c, v in zip(self.r_ids, self.c_ids, self.vals):
            yield int(r), int(c), float(v)

    def footprint_bytes(self, index_bytes: int = 4, val_bytes: int = 4) -> int:
        """Memory footprint of the three COO arrays."""
        return self.nnz * (2 * index_bytes + val_bytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        a, b = self.sorted_by_row(), other.sorted_by_row()
        return (
            a.shape == b.shape
            and np.array_equal(a.r_ids, b.r_ids)
            and np.array_equal(a.c_ids, b.c_ids)
            and np.allclose(a.vals, b.vals)
        )

    def __repr__(self) -> str:
        return (
            f"COOMatrix({self.num_rows}x{self.num_cols}, nnz={self.nnz}, "
            f"density={self.density:.2e})"
        )
