"""The one exact elimination step shared by every linear solve in tracecat.

A reduced row echelon basis is a dict {pivot column: row}, each row
normalised to 1 at its pivot and 0 at every other pivot column.  Rows may
carry extra entries past the first `ncols` (a right-hand side, or an
identity block that records the row transform); those are eliminated
along with the row but never chosen as pivots.
"""

from __future__ import annotations


def reduce_row(basis: dict, row, ncols: int, zero, one) -> list | None:
    """Insert `row` into the reduced row echelon `basis`, in place.

    Works over any field whose elements support +, -, *, / and comparison
    with `zero`: Fraction (pass the int 0, which compares faster) or `Cyc`.
    Zero entries are skipped, which keeps the mostly sparse systems solved
    here cheap.
    Returns None when the row adds a pivot, and the fully reduced row, zero
    in its first `ncols` entries, when it does not.
    """
    row = list(row)
    for col, brow in basis.items():
        f = row[col]
        if f != zero:
            row = [a - f * b if b != zero else a for a, b in zip(row, brow)]
    lead = next((c for c in range(ncols) if row[c] != zero), None)
    if lead is None:
        return row
    inv = one / row[lead]
    row = [v * inv for v in row]
    for col, brow in basis.items():
        f = brow[lead]
        if f != zero:
            basis[col] = [a - f * b if b != zero else a for a, b in zip(brow, row)]
    basis[lead] = row
    return None
