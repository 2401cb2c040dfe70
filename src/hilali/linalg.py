"""Sparse exact linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero integer.  Every entry
point takes integer rows: a row with rational entries is scaled to integers
once, where it is created, with :func:`intify`.  Scaling one row changes no
rank or span, and scaling every row by one factor changes no kernel.
:meth:`Rref.reduce` answers with an integer remainder and one positive
scale.  A column index is any integer: chain-complex rows arrive over
negated packed monomial keys, and their only use of the labels is the order
they give.  Elimination is fraction-free.  Content is removed after an
elimination against a pivot whose lead is not 1, and once more before a row
is stored, so every stored pivot is primitive with a positive lead and
entry growth stays near determinant size; against a unit lead the row is
neither scaled nor rescanned.  Row spaces are stored as echelon rows only,
and no stored row shares a dict with the caller.  Clearing pivot columns
smallest-first leaves a remainder on the non-pivot columns, which is
canonical; the reduced echelon form is built only where a canonical basis
is returned (:func:`kernel_of_rows`, ``coboundary_basis``).

:func:`rank_of_rows` can also hand back its pivot columns, the smallest
column of each echelon row.  They are distinct, and they name which rows
of the next differential a chain complex may skip (the clearing step of
``ChainComplex.rank`` and of ``tor_table``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Row = dict[int, int]


def intify(row: dict[int, Fraction]) -> tuple[Row, int]:
    """Scale a rational row to an integer row.

    Returns ``(irow, scale)`` with ``irow == scale * row`` exactly, so callers
    can track combinations of the original rational rows.  A row of ints
    is returned as it is, less any zeros, with scale 1.
    """
    if not row:
        return {}, 1
    if {int}.issuperset(map(type, row.values())):
        if 0 in row.values():
            row = {j: c for j, c in row.items() if c}
        return row, 1
    denom = 1
    for c in row.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    out = {j: c.numerator * (denom // c.denominator)
           for j, c in row.items() if c}
    return out, denom


def _normalize(row: Row, lead: int) -> Row:
    """The primitive multiple of a nonzero ``row`` whose coefficient at
    ``lead``, its smallest column, is positive; ``row`` itself when it is
    one."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = {j: v // g for j, v in row.items()}
    return row


def _eliminate(row: Row, piv: Row, col: int) -> Row:
    """Return ``a*row - b*piv`` clearing ``col``; not normalized."""
    a = piv[col]
    b = row[col]
    g = gcd(a, b)
    ma = a // g
    mb = b // g
    out = {j: v * ma for j, v in row.items()} if ma != 1 else dict(row)
    for j, v in piv.items():
        w = out.get(j, 0) - mb * v
        if w:
            out[j] = w
        elif j in out:
            del out[j]
    return out


class Echelon:
    """Online row echelon form; the pivot of a row is its smallest column."""

    def __init__(self):
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: Row) -> tuple[Row, int | None]:
        """The remainder of ``row`` and its smallest column, None when the
        remainder is zero.  The content that an elimination against a
        non-unit lead leaves is removed before the next step, and once at
        the end, so one ``min`` per step gives both the column to clear and
        the lead."""
        pivots = self.pivots
        scaled = False
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None or scaled:
                row = _normalize(row, col)
                if piv is None:
                    return row, col
            row = _eliminate(row, piv, col)
            scaled = piv[col] != 1
        return row, None

    def reduce(self, row: Row) -> Row:
        """The remainder of ``row``, primitive with a positive lead; the
        argument is never mutated, but may be returned as it is."""
        return self._reduce(row)[0]

    def add(self, row: Row) -> int | None:
        """Insert a row; returns its pivot column, or None if dependent."""
        reduced, col = self._reduce(row)
        if col is None:
            return None
        # a stored pivot never aliases the caller's dict
        self.pivots[col] = reduced if reduced is not row else dict(row)
        return col


def rank_of_rows(rows: list[Row], pivots: set[int] | None = None) -> int:
    """Rank of a list of sparse integer rows.  Given a set, adds to it the
    pivot columns of the echelon basis the rows reduce to: one distinct
    column per basis row, its smallest."""
    ech = Echelon()
    for row in sorted(rows, key=len):
        ech.add(row)
    if pivots is not None:
        pivots.update(ech.pivots)
    return ech.rank


def kernel_of_rows(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of ``{c : sum_i c_i row_i = 0}`` for integer rows, in reduced
    echelon form, as integer rows.

    Augmented elimination: row ``i`` is tagged with a 1 in column
    ``ncols + i``.  The reduced rows whose pivot is a tag column have a zero
    matrix part, so their tag parts are the canonical kernel basis.
    """
    rref = Rref()
    for i, row in enumerate(rows):
        rref.add({**row, ncols + i: 1})
    return [{j - ncols: v for j, v in row.items()}
            for col, row in rref.reduced().items() if col >= ncols]


class Rref(Echelon):
    """Echelon rows of a row space, with exact reduction of integer rows
    modulo the space; the reduced echelon form is built on demand."""

    def add(self, row: Row) -> int | None:
        """Insert an integer row; returns its pivot column, or None if
        dependent."""
        return Echelon.add(self, row)

    def reduce(self, row: Row) -> tuple[Row, int]:
        """The canonical representative of an integer ``row`` modulo the
        row space, as ``(remainder, scale)``: the representative is
        ``remainder / scale``, supported on non-pivot columns only; the
        integer ``remainder`` and the positive ``scale`` have no common
        divisor but 1, so the pair is unique.  The argument is never
        mutated, but may be returned as the remainder.

        The pivot columns the row carries are found by intersecting key
        views, which runs in C.  In ``is_exact``'s echelon span most
        columns of a stored row are pivot columns themselves, so updating
        the set from the pivot row's columns in Python costs more than this
        rescan.  A quotient span's rows carry no pivot column but their
        own, and there the rescan costs little beside the elimination."""
        pivots = self.pivots.keys()
        hits = row.keys() & pivots
        scale = 1
        while hits:
            col = min(hits)
            piv = self.pivots[col]
            g = gcd(piv[col], row[col])
            scale *= piv[col] // g
            row = _eliminate(row, piv, col)
            g = gcd(scale, *row.values())
            if g != 1:
                scale //= g
                row = {j: v // g for j, v in row.items()}
            hits = row.keys() & pivots
        return row, scale

    def reduced(self) -> dict[int, Row]:
        """The reduced echelon rows by pivot column, in increasing order:
        each row carries no other pivot column, and is normalized as
        :class:`Echelon` stores it."""
        out: dict[int, Row] = {}
        for col in sorted(self.pivots, reverse=True):
            row = self.pivots[col]
            for c in [c for c in row if c != col and c in self.pivots]:
                # the columns of out[c] start at c > col, so col stays the lead
                row = _normalize(_eliminate(row, out[c], c), col)
            out[col] = row
        return dict(reversed(out.items()))
