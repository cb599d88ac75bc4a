"""Desk-scale cohomology: exact Betti numbers over Q on finite sector bases.

The differentials are stored column-sparse, one {row: coefficient} dict per
basis monomial of the domain sector, as built by
`weight_modules.differential_columns`.

Exact when the base is a point; over a nontrivial base the sectors are
truncated at a base-polynomial degree cap and the results are tagged as
truncated, never claimed exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import MonomialKey
from .algebroid import AlgebroidSpec
from .weight_modules import Column, differential_columns, sector_basis


@dataclass
class FiniteComplex:
    spec: AlgebroidSpec
    i: int
    sector_bases: List[List[MonomialKey]]
    matrices: List[List[Column]]   # matrices[j] maps sector j -> j+1, by columns
    cap: Optional[int]             # None when the base is a point
    exact: bool

    @property
    def dims(self) -> List[int]:
        return [len(b) for b in self.sector_bases]

    def is_closed(self) -> bool:
        """Consecutive differentials compose to zero."""
        for first, second in zip(self.matrices, self.matrices[1:]):
            for column in first:
                image: Dict[int, Fraction] = {}
                for k, a in column.items():
                    for row, b in second[k].items():
                        image[row] = image.get(row, 0) + a * b
                if any(image.values()):
                    return False
        return True


def build_complex(spec: AlgebroidSpec, i: int, cap: int = 4) -> FiniteComplex:
    """Assemble the sector bases of the weight-i subcomplex and the induced
    differential matrices.  Raises CapClosureError when the cap is too small
    over a nontrivial base."""
    table = spec.table
    point = not table.base_generators()
    jmax = len(table.odd_generators())  # beyond this every sector is empty
    bases = [sector_basis(spec, i, j, cap) for j in range(jmax + 2)]
    while len(bases) > 1 and not bases[-1]:
        bases.pop()
    matrices = [differential_columns(spec, bases[j], bases[j + 1], cap)
                for j in range(len(bases) - 1)]
    # the top sector maps to zero
    matrices.append([{} for _ in bases[-1]])
    return FiniteComplex(spec, i, bases, matrices, None if point else cap, exact=point)


def rank(columns: List[Column]) -> int:
    """Exact rank over Q of a column-sparse matrix.

    Gaussian elimination with Fraction division: each column is reduced
    against the pivot columns found so far, keyed by their largest row, and
    becomes a new pivot column if anything is left."""
    pivots: Dict[int, Column] = {}
    for column in columns:
        col = {r: Fraction(c) for r, c in column.items() if c}
        while col:
            row = max(col)
            pivot = pivots.get(row)
            if pivot is None:
                pivots[row] = col
                break
            f = col[row] / pivot[row]
            for r, c in pivot.items():
                v = col.get(r, 0) - f * c
                if v:
                    col[r] = v
                else:
                    col.pop(r, None)
    return len(pivots)


def betti(c: FiniteComplex) -> List[int]:
    """dim ker d_j minus rank d_(j-1), per sector."""
    if not c.is_closed():
        raise ValueError("complex is not closed (consecutive products nonzero)")
    ranks = [rank(m) for m in c.matrices]
    return [dim - ranks[j] - (ranks[j - 1] if j else 0) for j, dim in enumerate(c.dims)]
