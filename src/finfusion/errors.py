"""Exception types shared across the package, and the config number check."""

import numbers


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class DimensionError(ContractError):
    """Operand shapes are incompatible."""


class NumericalError(ArithmeticError):
    """A computation produced NaN or Inf."""


class VocabularyError(ContractError):
    """A token id falls outside the fixed vocabulary."""


class ImputationRequiredError(ContractError):
    """An input still contains missing values that must be imputed first."""


class DegenerateInputError(ContractError):
    """Input is valid in shape but degenerate in value (e.g. a zero vector)."""


class UndefinedMetricError(ContractError):
    """The metric is undefined for this input (e.g. single-class labels)."""


class InsufficientTailDataError(ContractError):
    """Not enough tail observations to form a conditional estimate."""


class ScheduleError(ContractError):
    """Training stages were invoked out of order."""


class ConfigError(ValueError):
    """A configuration field is missing or outside its documented range."""


class SchemaError(ValueError):
    """Serialized artifact schema version does not match this build."""


def check_number(name: str, value, least, most=None, integral: bool = False,
                 strict: bool = False) -> None:
    """ContractError naming ``name`` unless ``value`` is an integer (or, when
    not ``integral``, a real number), not a bool, >= ``least`` (unless that
    is None) and, given ``most``, <= ``most``; ``strict`` makes both bounds
    exclusive."""
    kind, noun = (numbers.Integral, "an integer") if integral else (numbers.Real, "a number")
    if not (isinstance(value, kind) and not isinstance(value, bool)
            and (least is None or (value > least if strict else value >= least))
            and (most is None or (value < most if strict else value <= most))):
        if most is not None:
            bound = f" in {'(' if strict else '['}{least}, {most}{')' if strict else ']'}"
        elif least is not None:
            bound = f" {'>' if strict else '>='} {least}"
        else:
            bound = ""
        raise ContractError(f"{name} must be {noun}{bound}, got {value!r}")


def check_numbers(name: str, values, least=None, most=None, integral: bool = False,
                  strict: bool = False) -> None:
    """``check_number`` over every item of the list or tuple ``values``; any
    other value (a scalar, a string) is a ContractError naming ``name``."""
    if not isinstance(values, (list, tuple)):
        noun = "integers" if integral else "numbers"
        raise ContractError(f"{name} must be a list of {noun}, got {values!r}")
    for value in values:
        check_number(name, value, least, most, integral, strict)
