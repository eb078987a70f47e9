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


def raise_first(failures, index_name: str):
    """Raise for the lowest failing row, with the row as attribute
    `index_name`: failures holds (bad-row mask, error of row i) in the order
    the checks run on one row."""
    firsts = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(failures) if bad.any()]
    if firsts:
        i, k = min(firsts)
        exc = failures[k][1](i)
        setattr(exc, index_name, i)
        raise exc
