"""Reference for the sup-norm minimum lambda_1 at n = 1, by continued
fractions: no LLL and no walk.

The lattice a_t u(phi) Z^2 has the columns (E, 0) and (E phi, 1/E), E = e^t,
so its vectors are (E (q phi - p), q / E) over the integers p, q. The
vectors with q = 0 have sup-norm E |p| >= E. Among q >= 1, the least
|q phi - p| over q <= Q is taken at a convergent p_k / q_k of phi
(Lagrange's best approximations), and the sup-norm of the vector at q is
at least that of the best approximation at or below q, so

    lambda_1 = min(E, min_k max(E |q_k phi - p_k|, q_k / E)).

The q_k increase, so the scan stops once q_k / E reaches the running
minimum. phi and E are read as the rationals they are (a float as its
dyadic value), so the minimum comes back as an exact Fraction: the exact
lambda_1 of the dyadic twin [[E, E phi], [0, 1/E]].
"""

import math
from fractions import Fraction


def convergents(phi):
    """The convergents p_k / q_k of the rational phi, as (p_k, q_k), k = 0, 1, ..."""
    x = Fraction(phi)
    p, p_prev, q, q_prev = 1, 0, 0, 1
    while True:
        a = math.floor(x)
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        yield p, q
        if x == a:
            return
        x = 1 / (x - a)


def lambda1(phi, expansion) -> Fraction:
    """lambda_1 of the lattice with columns (E, 0) and (E phi, 1/E), E = expansion > 0."""
    phi, e = Fraction(phi), Fraction(expansion)
    best = e  # the column (E, 0), q = 0
    for p, q in convergents(phi):
        if q / e >= best:
            break
        best = min(best, max(e * abs(q * phi - p), q / e))
    return best
