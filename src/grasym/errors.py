"""Exception types shared across the package."""


class GrasymError(Exception):
    """Base class for all errors raised by this package."""


# -- fields ------------------------------------------------------------------

class NonPrimeCharacteristic(GrasymError):
    pass


class ReducibleModulus(GrasymError):
    pass


class DivisionByZero(GrasymError):
    pass


class FieldMismatch(GrasymError):
    pass


class CharacteristicZero(GrasymError):
    pass


class RationalsNotSupported(GrasymError):
    pass


class EmptySearch(GrasymError):
    """A search was asked to enumerate nothing."""


# -- groups ------------------------------------------------------------------

class InvalidTable(GrasymError):
    pass


class IndexOutOfRange(GrasymError):
    pass


# -- linear algebra / polynomials --------------------------------------------

class AmbientMismatch(GrasymError):
    pass


class DimensionTooLarge(GrasymError):
    pass


class SearchSpaceTooLarge(GrasymError):
    pass


# -- algebras ----------------------------------------------------------------

class OwnerMismatch(GrasymError):
    pass


class GroupMismatch(GrasymError):
    pass


class IncompatibleCocycleData(GrasymError):
    pass


class NonInvertibleAlpha(GrasymError):
    pass


class UnsupportedPrime(GrasymError):
    pass


class CharacteristicTwo(GrasymError):
    pass


class ZeroParameter(GrasymError):
    pass


class NonAbelianGroup(GrasymError):
    pass


class NotClosed(GrasymError):
    pass


class UnitMissing(GrasymError):
    pass


class ValidationError(GrasymError):
    """An algebra failed structural validation; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


# -- symmetry engine ----------------------------------------------------------

class EmptyTraceSpace(GrasymError):
    pass


class CharacteristicDividesGroupOrder(GrasymError):
    pass


class AsymmetricMu(GrasymError):
    pass


class NotNormalized(GrasymError):
    pass


class NotInvariant(GrasymError):
    pass


class NotAGoodMatrixAlgebra(GrasymError):
    pass


class InvalidCertificate(GrasymError):
    pass


# -- replication / hunt --------------------------------------------------------

class NotDivision(GrasymError):
    pass


# -- file formats ---------------------------------------------------------------

class ParseError(GrasymError):
    pass
