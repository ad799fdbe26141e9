"""Exception hierarchy shared by all modules."""


class RecourseError(Exception):
    """Base class for every error raised by this package."""


class ScmError(RecourseError):
    """Base class for structural-model errors."""


class ScmValidationError(ScmError):
    """The model structure itself is malformed (declarations or equations)."""


class CycleError(ScmValidationError):
    """The induced causal graph contains a cycle."""


class IncompleteTableError(ScmValidationError):
    """An equation table does not cover every combination of parent values."""


class DuplicateEquationError(ScmValidationError):
    """More than one equation assigns the same variable."""


class DomainError(ScmError):
    """A value lies outside its variable's domain, or a variable is undeclared."""


class MissingExogenousError(ScmError):
    """Evaluation was asked for without a full exogenous assignment."""


class NonInvertibleError(ScmError):
    """Zero or several exogenous assignments are consistent with an observation."""


class InvalidQueryError(RecourseError):
    """A recourse query is internally inconsistent."""


class UnknownMatrixError(RecourseError):
    """No builtin payoff matrix with the requested id."""


class AsymmetricMatrixError(RecourseError):
    """A check requiring a symmetric payoff matrix was run on an asymmetric one."""


class ParseError(RecourseError):
    """An input file does not match its documented format."""


class InvalidParamsError(RecourseError):
    """Generator or configuration parameters are out of range."""


class ValueRangeError(RecourseError):
    """An exact value has too many digits to be written as text."""


class OutputError(RecourseError):
    """An output file cannot be written."""

