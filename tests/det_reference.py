"""Reference exact determinant: Gaussian elimination over Fractions, with
the first nonzero entry of each column as pivot and a sign flip per swap."""

from fractions import Fraction


def reference_det_exact(a):
    m = a.shape[0]
    rows = [[Fraction(a[i, j]) for j in range(m)] for i in range(m)]
    sign = 1
    result = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        result *= pivot
        for r in range(col + 1, m):
            factor = rows[r][col] / pivot
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return sign * result
