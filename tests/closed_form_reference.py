"""Reference for the per-cell steps of a correspondence cell: the closed-form
integer columns and their det == 1 check, as generic loops over a 2n x 2n
matrix.

`dirichlet._closed_form_cols` and `dirichlet._check_triangular` each run one
kernel generated per dimension m instead (`_closed_form_cols_source`,
`_check_triangular_source`). They must give what these loops give: the same
columns, and the same refusals with the same text.
"""

from fractions import Fraction

from danilab.errors import InvariantError


def closed_form_cols(A: tuple, D: int, N: int) -> tuple:
    """The integer columns of [[N^2 D I, N^2 A], [0, D I]], i.e. of
    a_log(N) u(A / D) times N D, as tuples of ints: upper triangular."""
    n = len(A)
    N2 = N * N
    top = N2 * D
    cols = []
    for k in range(n):
        cols.append((0,) * k + (top,) + (0,) * (2 * n - k - 1))
    for k in range(n):
        cols.append(tuple([N2 * row[k] for row in A]) + (0,) * k + (D,) + (0,) * (n - k - 1))
    return tuple(cols)


def check_triangular(cols: tuple, den: int) -> None:
    """Refuse the integer columns cols over den unless det == 1 exactly:
    every entry below the diagonal must be 0, so that the determinant is the
    product of the diagonal, and that product must be den^m."""
    m = len(cols)
    d = 1
    for j, col in enumerate(cols):
        if any(col[j + 1:]):
            raise InvariantError("closed-form basis has a nonzero entry below the diagonal; "
                                 "its det is not the product of the diagonal")
        d *= col[j]
    if d != den ** m:
        raise InvariantError(f"exact det = {Fraction(d, den ** m)} != 1")

