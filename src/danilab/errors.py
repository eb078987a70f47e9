"""Exception types shared across the package.

Every failure mode callers are expected to branch on gets its own class;
everything derives from ValueError so careless callers still fail loudly.
"""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class SingularMatrixError(ValueError):
    """A matrix that must be invertible is (numerically) singular."""

    def __init__(self, message: str, det=None):
        super().__init__(message)
        self.det = det


class OrientationError(ValueError):
    """No real solution exists because of a determinant sign obstruction."""


class InvariantError(ValueError):
    """A constructed value violates one of its declared invariants."""


class UnsupportedSizeError(ValueError):
    """Input dimension is above the supported desk-scale bound."""


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested computation (e.g. no invertible
    punctured neighborhood, identically-zero sample vector)."""


class HypothesisViolationError(ValueError):
    """A verifier precondition fails; carries the offending residual."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class InternalIdentityError(RuntimeError):
    """An identity that must hold by construction failed numerically."""


def raise_first(failures, *index_names):
    """Raise for the lowest failing row, with its index set as the attributes
    `index_names`: failures holds (bad-row mask, error of row i) in the order
    the checks run on one row. The masks share one axis per index name, and
    rows are ordered by their indices in turn; the error of a row gets i as
    an int for one axis, as a tuple of ints for more."""
    firsts = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(failures) if bad.any()]
    if firsts:
        flat, k = min(firsts)
        index = []
        for size in reversed(failures[k][0].shape):
            flat, i = divmod(flat, size)
            index.insert(0, i)
        exc = failures[k][1](index[0] if len(index) == 1 else tuple(index))
        for name, i in zip(index_names, index):
            setattr(exc, name, i)
        raise exc
