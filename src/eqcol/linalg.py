"""Exact linear algebra over cyclotomic numbers, on one sparse elimination.

Everything here works over the field Q(zeta_N) with rational coordinates,
so ranks and kernels are exact.  Sparse vectors are dicts {index: CycNum}
holding nonzero entries only.  `_sparse_forward` keeps one row per lead,
the lowest index of the row, scaled to 1 there: each incoming vector is
reduced at its lowest index by the row with that lead until it is zero or
has a new lead.  `sparse_echelon` then clears each row at the other leads,
from the highest lead down, touching only the leads in its own support.
The result is the reduced row echelon basis of the span, which is unique,
so every basis derived from it is deterministic.

`CycMatrix` rank, determinant and solve hand their rows to this
elimination and make the result dense again; `rref_rows` is
`sparse_echelon` under a second name.

A square matrix over Q(zeta_N) also has a flat form: its power-basis
numerators over one common denominator, on integer slots.  The power basis
modulo Phi_N is a basis, so the flat form is unique and two matrices are
equal exactly when their flat forms are.  `RightMultiplier` is X -> X A on
flat forms for a fixed A, a Q-linear map kept as cached integer
contributions, so a product takes no `CycNum` arithmetic; it keeps each
product by its input, so an input met again costs a lookup.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .cyclotomic import CycNum, _power_terms, euler_phi, lcm
from .errors import InvalidParameter


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
        return self.to_text(str)

    def to_text(self, entry_text: Callable[[CycNum], str]) -> str:
        """The text of `str(self)`, each entry written by entry_text."""
        return "[" + ", ".join(
            "[" + ", ".join(entry_text(v) for v in row) + "]" for row in self.rows
        ) + "]"

    __repr__ = __str__

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

    def trace(self) -> CycNum:
        if self.nrows != self.ncols:
            raise InvalidParameter("trace of a non-square matrix")
        total = CycNum.zero()
        for i in range(self.nrows):
            total = total + self.rows[i][i]
        return total

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
        rows, heads = _sparse_forward(_sparse_rows(self.rows))
        if len(rows) < self.nrows:
            return CycNum.zero()
        # Each row was reduced by the rows found before it, which keeps the
        # determinant; sorted by lead they are triangular with the heads on
        # the diagonal, so the sign is the parity of the leads as found.
        leads = list(rows)
        inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1:])
        result = CycNum.one()
        for head in heads:
            result = result * head
        return -result if inversions % 2 else result

    def rank(self) -> int:
        return sparse_rank(_sparse_rows(self.rows))

    def solve(self, rhs: Sequence) -> tuple[CycNum, ...] | None:
        """One solution of self * x = rhs with the free variables 0, or None
        if inconsistent."""
        rhs = [_coerce_entry(v) for v in rhs]
        if len(rhs) != self.nrows:
            raise InvalidParameter("right-hand side length mismatch")
        n = self.ncols
        rows, leads = sparse_echelon({**dict(enumerate(row)), n: b}
                                     for row, b in zip(self.rows, rhs))
        if leads and leads[-1] == n:
            return None
        zero = CycNum.zero()
        x = [zero] * n
        for row, lead in zip(rows, leads):
            x[lead] = row.get(n, zero)
        return tuple(x)


def _dot(a: Sequence[CycNum], b: Sequence[CycNum]) -> CycNum:
    total = CycNum.zero()
    for x, y in zip(a, b):
        if x and y:
            total = total + x * y
    return total


def _sparse_rows(rows: Iterable[Sequence[CycNum]]) -> Iterator[dict[int, CycNum]]:
    return (dict(enumerate(row)) for row in rows)


def _dense(vec: Mapping[int, CycNum], width: int) -> tuple[CycNum, ...]:
    zero = CycNum.zero()
    return tuple(vec.get(j, zero) for j in range(width))


def rank_of_rows(rows: list[Sequence[CycNum]]) -> int:
    return CycMatrix(rows).rank() if rows else 0


SparseVec = dict[int, CycNum]


def _axpy(v: SparseVec, c: CycNum, row: Mapping[int, CycNum]) -> None:
    """v += c * row in place, dropping the entries that cancel."""
    for j, x in row.items():
        old = v.get(j)
        if old is None:
            v[j] = c * x
        else:
            new = old + c * x
            if new:
                v[j] = new
            else:
                del v[j]


def _sparse_forward(vectors: Iterable[Mapping[int, CycNum]]
                    ) -> tuple[dict[int, SparseVec], list[CycNum]]:
    """Rows of an echelon basis keyed by lead, in the order they were found,
    and each row's value at its lead before scaling, in the same order: each
    row is 1 at its lead, its lowest index, and the rows span the given
    vectors."""
    rows: dict[int, SparseVec] = {}
    heads: list[CycNum] = []
    for vector in vectors:
        v = {j: c for j, c in vector.items() if c}
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                head = v[lead]
                if len(v) == 1:
                    # scaled to 1 at its lead it is a unit vector: no inverse
                    rows[lead] = {lead: CycNum.one()}
                else:
                    inv = head.inverse()
                    rows[lead] = {j: c * inv for j, c in v.items()}
                heads.append(head)
                break
            _axpy(v, -v[lead], row)
    return rows, heads


def sparse_rank(vectors: Iterable[Mapping[int, CycNum]]) -> int:
    """Dimension of the span of sparse vectors (forward elimination only)."""
    return len(_sparse_forward(vectors)[0])


def sparse_echelon(vectors: Iterable[Mapping[int, CycNum]]
                   ) -> tuple[list[SparseVec], list[int]]:
    """Reduced echelon basis of the span of sparse vectors, with leads.

    Rows come in ascending lead order; each is 1 at its lead, its lowest
    index, and 0 at every other lead.  This is the unique reduced row
    echelon basis of the span, whatever the order of the vectors.
    """
    rows = _sparse_forward(vectors)[0]
    leads = sorted(rows)
    for lead in reversed(leads):
        row = rows[lead]
        # rows[other] is already 0 at every lead but its own, so each step
        # clears exactly one lead of this row
        for other, c in [(j, c) for j, c in row.items() if j != lead and j in rows]:
            _axpy(row, -c, rows[other])
    return [rows[lead] for lead in leads], leads


def rref_rows(vectors: Iterable[Mapping[int, CycNum]]
              ) -> tuple[list[SparseVec], list[int]]:
    """`sparse_echelon` under a second name, kept only so that the
    `linalg.rref_rows` hook of perfbench/tracer.py keeps its one caller,
    `HomSpace`, and times the same elimination.  Once that hook moves onto
    `sparse_echelon`, this pass-through can go."""
    return sparse_echelon(vectors)


def sparse_kernel(rows: Sequence[Mapping[int, CycNum]], leads: Sequence[int],
                  ncols: int) -> list[SparseVec]:
    """Basis of the right kernel of a matrix given by its reduced echelon
    rows (as `sparse_echelon` returns them): one vector per free column,
    ascending, 1 there and minus the free column's entries at the leads."""
    lead_set = set(leads)
    kernel = {f: {f: CycNum.one()} for f in range(ncols) if f not in lead_set}
    for row, lead in zip(rows, leads):
        for j, c in row.items():
            if j != lead:
                kernel[j][lead] = -c
    return [kernel[f] for f in sorted(kernel)]


def eliminate_along(vector: Mapping[int, CycNum], rows: Sequence[Mapping[int, CycNum]],
                    position: Mapping[int, int]) -> tuple[dict[int, CycNum], SparseVec]:
    """Coordinates of a sparse vector along echelon rows, and the residual.

    `position` maps the lead of each row to the row's index.  Row i must be
    1 at its lead and 0 at the lead of every earlier row.  Subtracting
    v[lead] times each row in turn leaves the residual zero at every lead,
    so the coefficients are unique and the residual is zero exactly when
    the vector lies in the span of the rows.  Only the rows whose lead the
    vector reaches are visited, in row order (a row adds no entries at
    earlier leads), so the cost follows the supports, not the number of
    rows.  The coefficients come back as {row index: c}, nonzero only.
    """
    v = {j: c for j, c in vector.items() if c}
    queue = [(position[j], j) for j in v if j in position]
    heapify(queue)
    coeffs: dict[int, CycNum] = {}
    last = -1
    while queue:
        i, lead = heappop(queue)
        if i == last:
            continue
        last = i
        c = v.get(lead)
        if not c:
            continue
        coeffs[i] = c
        row = rows[i]
        reached = [j for j in row if j in position and j not in v]
        _axpy(v, -c, row)
        for j in reached:
            heappush(queue, (position[j], j))
    return coeffs, v


# -- flat integer coordinates --------------------------------------------

# ((slot, numerator), ...) ascending by slot, nonzero numerators only, and
# the common denominator
FlatMatrix = tuple[tuple[tuple[int, int], ...], int]


def flatten(matrix: CycMatrix, conductor: int) -> FlatMatrix:
    """The flat form of a d x d matrix at conductor N: entry (row, col)
    puts its numerators at slots (row * d + col) * phi(N) + power, over one
    denominator den > 0 with gcd(den, *n) == 1.  Every entry's conductor
    must divide N.

    The den is the lcm of the entries' denominators.  A prime power p^k
    exactly dividing it exactly divides some entry's denominator, whose
    numerators are not all divisible by p, and that entry is scaled by a
    factor prime to p; so the scaled numerators need no further division."""
    d = matrix.nrows
    phi = euler_phi(conductor)
    entries = [((r * d + c) * phi, v.to_conductor(conductor))
               for r, row in enumerate(matrix.rows)
               for c, v in enumerate(row) if v]
    den = 1
    for _, v in entries:
        den = lcm(den, v.den)
    coords = []
    for base, v in entries:
        scale = den // v.den
        coords.extend((base + t, x * scale) for t, x in enumerate(v.num) if x)
    return tuple(coords), den


def flat_identity(dim: int, conductor: int) -> FlatMatrix:
    """The flat form of the dim x dim identity at conductor N."""
    phi = euler_phi(conductor)
    return tuple(((r * dim + r) * phi, 1) for r in range(dim)), 1


def unflatten(flat: FlatMatrix, dim: int, conductor: int,
              shared: dict | None = None) -> CycMatrix:
    """The dim x dim matrix of a flat form at conductor N; each rational
    entry comes back at conductor 1, the others at N.

    With a `shared` dict, equal entries of every matrix unflattened through
    it are one `CycNum` object, so its cached reduced form is computed once
    per distinct value."""
    coords, den = flat
    phi = euler_phi(conductor)
    nums = [[0] * phi for _ in range(dim * dim)]
    for slot, n in coords:
        entry, power = divmod(slot, phi)
        nums[entry][power] = n
    cache = {} if shared is None else shared
    entries = []
    for num in nums:
        g = gcd(den, *num)
        num, d = tuple([x // g for x in num]), den // g
        value = cache.get((num, d))
        if value is None:
            value = cache[(num, d)] = (CycNum(conductor, num, d) if any(num[1:])
                                       else CycNum(1, num[:1], d))
        entries.append(value)
    return CycMatrix([entries[r * dim:(r + 1) * dim] for r in range(dim)])


def flat_trace(flat: FlatMatrix, dim: int, conductor: int) -> FlatMatrix:
    """The trace of a flat form at conductor N, as the flat form of a 1 x 1
    matrix: its slots are the powers, so equal traces are equal tuples."""
    coords, den = flat
    phi = euler_phi(conductor)
    step = dim + 1
    acc: dict[int, int] = {}
    for slot, n in coords:
        entry, power = divmod(slot, phi)
        if entry % step == 0:
            acc[power] = acc.get(power, 0) + n
    return _canonical(acc, den)


def _canonical(acc: dict[int, int], den: int) -> FlatMatrix:
    """The nonzero (slot, numerator) pairs of acc, ascending, over den, both
    divided by their gcd; the gcd is taken only when den != 1."""
    items = sorted([i for i in acc.items() if i[1]])
    if den != 1:
        g = gcd(den, *[n for _, n in items])
        if g != 1:
            items = [(slot, n // g) for slot, n in items]
            den //= g
    return tuple(items), den


class RightMultiplier:
    """X -> X A on flat forms at conductor N, for a fixed d x d matrix A.

    The map is Q-linear.  Input slot (row, k, t) of numerator n adds n
    times the coordinates of x^t A[k][c], for every column c, to output row
    `row`; those contributions depend on (k, t) alone, and are kept as
    integers over A's denominator, each built on first use.  An application
    visits only the input's nonzero coordinates and takes one gcd, and only
    when the product of the denominators is not 1.  Its result is kept per
    input flat form, so a table that repeats a matrix (the image of a
    non-faithful representation) multiplies it once.  `CycMatrix.__mul__`
    is the oracle.
    """

    __slots__ = ("image", "dim", "conductor", "_phi", "_rows", "_terms",
                 "_products")

    def __init__(self, matrix: CycMatrix, conductor: int):
        self.image = flatten(matrix, conductor)
        self.dim = d = matrix.nrows
        self.conductor = conductor
        self._phi = euler_phi(conductor)
        # row k of A as (col * phi + power, numerator) pairs
        width = d * self._phi
        self._rows: list[list[tuple[int, int]]] = [[] for _ in range(d)]
        for slot, n in self.image[0]:
            k, offset = divmod(slot, width)
            self._rows[k].append((offset, n))
        self._terms: dict[int, tuple[tuple[int, int], ...]] = {}
        self._products: dict[FlatMatrix, FlatMatrix] = {}

    def _contribution(self, key: int) -> tuple[tuple[int, int], ...]:
        """The coordinates of x^t A[k][c], c = 0..d-1, within one row, for
        key = k * phi + t."""
        phi = self._phi
        k, t = divmod(key, phi)
        acc: dict[int, int] = {}
        for offset, n in self._rows[k]:
            col, s = divmod(offset, phi)
            base = col * phi
            for j, e in _power_terms(self.conductor, t + s):
                acc[base + j] = acc.get(base + j, 0) + n * e
        terms = self._terms[key] = _canonical(acc, 1)[0]
        return terms

    def release(self) -> None:
        """Forget the kept products; later applications form them anew."""
        self._products.clear()

    def __call__(self, flat: FlatMatrix) -> FlatMatrix:
        product = self._products.get(flat)
        if product is None:
            product = self._products[flat] = self._apply(flat)
        return product

    def _apply(self, flat: FlatMatrix) -> FlatMatrix:
        coords, den = flat
        width = self.dim * self._phi
        terms = self._terms
        out: dict[int, int] = {}
        for slot, n in coords:
            row, key = divmod(slot, width)
            contribution = terms.get(key)
            if contribution is None:
                contribution = self._contribution(key)
            base = row * width
            for offset, e in contribution:
                s = base + offset
                out[s] = out.get(s, 0) + n * e
        return _canonical(out, den * self.image[1])
