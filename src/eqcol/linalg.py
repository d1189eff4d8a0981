"""Exact dense linear algebra over cyclotomic numbers.

Everything here works over the field Q(zeta_N) with rational coordinates,
so ranks and kernels are exact.  Row reduction chooses as pivot the first
row with a nonzero entry in the current column, which makes every
echelon form (and hence every derived basis) deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .cyclotomic import CycNum
from .errors import InvalidParameter, NotInvertible


def _coerce_entry(value) -> CycNum:
    if isinstance(value, CycNum):
        return value
    if isinstance(value, (int, Fraction)):
        return CycNum.from_rat(value)
    raise InvalidParameter(f"matrix entry of type {type(value).__name__}")


class CycMatrix:
    """Immutable matrix with cyclotomic entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(_coerce_entry(v) for v in row) for row in rows)
        if not data or not data[0]:
            raise InvalidParameter("empty matrix")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise InvalidParameter("ragged matrix rows")
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    @staticmethod
    def identity(n: int) -> "CycMatrix":
        one, zero = CycNum.one(), CycNum.zero()
        return CycMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries: Sequence) -> "CycMatrix":
        entries = [_coerce_entry(v) for v in entries]
        zero = CycNum.zero()
        n = len(entries)
        return CycMatrix(
            [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def __getitem__(self, idx: tuple[int, int]) -> CycNum:
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self) -> int:
        return hash(tuple(v.key() for row in self.rows for v in row))

    def __str__(self) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.rows
        ) + "]"

    __repr__ = __str__

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        if self.shape != other.shape:
            raise InvalidParameter(f"shape mismatch {self.shape} + {other.shape}")
        return CycMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "CycMatrix":
        return CycMatrix([[-v for v in row] for row in self.rows])

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CycMatrix):
            if self.ncols != other.nrows:
                raise InvalidParameter(f"shape mismatch {self.shape} * {other.shape}")
            cols = list(zip(*other.rows))
            return CycMatrix(
                [[_dot(row, col) for col in cols] for row in self.rows]
            )
        scalar = _coerce_entry(other)
        return CycMatrix([[v * scalar for v in row] for row in self.rows])

    def __rmul__(self, other):
        scalar = _coerce_entry(other)
        return CycMatrix([[scalar * v for v in row] for row in self.rows])

    def __pow__(self, exponent: int) -> "CycMatrix":
        if self.nrows != self.ncols:
            raise InvalidParameter("power of a non-square matrix")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycMatrix.identity(self.nrows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def transpose(self) -> "CycMatrix":
        return CycMatrix(list(zip(*self.rows)))

    def trace(self) -> CycNum:
        if self.nrows != self.ncols:
            raise InvalidParameter("trace of a non-square matrix")
        total = CycNum.zero()
        for i in range(self.nrows):
            total = total + self.rows[i][i]
        return total

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and self == CycMatrix.identity(self.nrows)

    def is_scalar(self) -> bool:
        """True when the matrix is lambda * identity for some scalar."""
        if self.nrows != self.ncols:
            return False
        lam = self.rows[0][0]
        for i in range(self.nrows):
            for j in range(self.ncols):
                expect = lam if i == j else CycNum.zero()
                if self.rows[i][j] != expect:
                    return False
        return True

    def det(self) -> CycNum:
        if self.nrows != self.ncols:
            raise InvalidParameter("determinant of a non-square matrix")
        work = [list(row) for row in self.rows]
        pivots, sign = _eliminate(work)
        if len(pivots) < self.nrows:
            return CycNum.zero()
        result = CycNum.one()
        for i in range(self.nrows):
            result = result * work[i][i]
        return result * sign

    def inverse(self) -> "CycMatrix":
        if self.nrows != self.ncols:
            raise NotInvertible("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(row) + list(ident) for row, ident in
               zip(self.rows, CycMatrix.identity(n).rows)]
        reduced, pivots = _rref_inplace(aug)
        if len(pivots) < n or pivots != list(range(n)):
            raise NotInvertible(f"singular matrix {self}")
        return CycMatrix([row[n:] for row in reduced])

    def rref(self) -> tuple["CycMatrix", tuple[int, ...]]:
        work = [list(row) for row in self.rows]
        reduced, pivots = _rref_inplace(work)
        return CycMatrix(reduced), tuple(pivots)

    def rank(self) -> int:
        return len(_eliminate([list(row) for row in self.rows])[0])

    def kernel_basis(self) -> list[tuple[CycNum, ...]]:
        """Basis of the right kernel, one vector per free column, ascending."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [CycNum.zero()] * self.ncols
            vec[f] = CycNum.one()
            for r, p in enumerate(pivots):
                vec[p] = -reduced.rows[r][f]
            basis.append(tuple(vec))
        return basis

    def solve(self, rhs: Sequence) -> tuple[CycNum, ...] | None:
        """One solution of self * x = rhs, or None if inconsistent."""
        rhs = [_coerce_entry(v) for v in rhs]
        if len(rhs) != self.nrows:
            raise InvalidParameter("right-hand side length mismatch")
        aug = [list(row) + [b] for row, b in zip(self.rows, rhs)]
        reduced, pivots = _rref_inplace(aug)
        for r in range(len(pivots), self.nrows):
            if reduced[r][-1]:
                return None
        x = [CycNum.zero()] * self.ncols
        for r, p in enumerate(pivots):
            if p == self.ncols:
                return None
            x[p] = reduced[r][-1]
        return tuple(x)


def _dot(a: Sequence[CycNum], b: Sequence[CycNum]) -> CycNum:
    total = CycNum.zero()
    for x, y in zip(a, b):
        if x and y:
            total = total + x * y
    return total


def _eliminate(work: list[list[CycNum]]) -> tuple[list[int], int]:
    """Forward elimination in place, down to row echelon form.

    Row r ends with its (unnormalized) pivot in column pivots[r], and rows
    past the last pivot are zero.  Returns the pivot columns and the parity
    of the row swaps, +1 or -1.
    """
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    sign = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            work[row], work[pivot] = work[pivot], work[row]
            sign = -sign
        head = work[row]
        inv = head[col].inverse()
        for r in range(row + 1, nrows):
            if work[r][col]:
                factor = work[r][col] * inv
                work[r] = [a - factor * b for a, b in zip(work[r], head)]
        pivots.append(col)
    return pivots, sign


def _rref_inplace(work: list[list[CycNum]]) -> tuple[list[list[CycNum]], list[int]]:
    """Reduced row echelon form: forward elimination, then back-substitution
    from the last pivot row up."""
    pivots, _ = _eliminate(work)
    for row in range(len(pivots) - 1, -1, -1):
        col = pivots[row]
        inv = work[row][col].inverse()
        work[row] = [v * inv for v in work[row]]
        for r in range(row):
            if work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
    return work, pivots


def rref_rows(rows: list[Sequence[CycNum]]) -> tuple[list[tuple[CycNum, ...]], list[int]]:
    """Echelon basis of the span of the given row vectors, with pivot columns.

    Zero rows are dropped; the result is the canonical reduced basis of the
    row space, so two spanning sets give identical output exactly when they
    span the same subspace.
    """
    if not rows:
        return [], []
    work = [[_coerce_entry(v) for v in row] for row in rows]
    reduced, pivots = _rref_inplace(work)
    return [tuple(reduced[i]) for i in range(len(pivots))], pivots


def rank_of_rows(rows: list[Sequence[CycNum]]) -> int:
    return len(_eliminate([[_coerce_entry(v) for v in row] for row in rows])[0])
