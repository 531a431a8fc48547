"""Exception hierarchy shared across the package, the one type check every
config dataclass runs on its fields, and the one check that a config's
arrays are not too large for numpy to index."""

import sys
from dataclasses import fields

import numpy as np


class FedsliceError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(FedsliceError):
    """Tensor dimensions incompatible with the requested operation."""


class ValidationError(FedsliceError):
    """Input violates a documented precondition."""


class ConfigError(FedsliceError):
    """A configuration is malformed or infeasible."""


class NumericError(FedsliceError):
    """Non-finite values where finiteness is required."""


class FormatError(FedsliceError):
    """A serialized container is corrupt or malformed."""


class AggregationError(FedsliceError):
    """A client update cannot be merged into the global model."""


def _finite(x) -> bool:  # an int or float that a float64 holds as a finite value
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


# field annotation -> (test, what the value must be); others are not checked
_TYPES = {
    "int": (lambda x: type(x) is int, "an integer"),
    "float": (_finite, "a finite number"),
    "bool": (lambda x: type(x) is bool, "true or false"),
    "tuple": (lambda x: type(x) in (tuple, list) and all(map(_finite, x)),
              "a list of finite numbers"),
}
_TYPES["list"] = _TYPES["tuple"]


def check_types(obj, section: str) -> None:
    """Raise ValidationError at the first field of dataclass obj whose value is
    not of its annotated type, naming it ``section.field`` (or its metadata's)."""
    for f in fields(obj):
        test, kind = _TYPES.get(getattr(f.type, "__name__", f.type), (None, None))
        value = getattr(obj, f.name)
        if test is not None and not test(value):
            raise ValidationError(f"{f.metadata.get('section', section)}.{f.name} "
                                  f"must be {kind}: {value!r}")


# numpy indexes an array's bytes with intp, and a model or token value takes 8
_MAX_VALUES = np.iinfo(np.intp).max // 8


def check_size(section: str, dims: dict, n_values: int, error: type) -> None:
    """Raise `error` if the section's arrays, n_values values in all, would be
    more than numpy can index, naming the largest of its dims: numpy would
    fail with a ValueError, not run out of memory."""
    if n_values > _MAX_VALUES:
        key = max(dims, key=dims.get)
        raise error(f"{section}.{key} = {dims[key]} is too large: the {section}'s arrays "
                    f"would hold {n_values} values, more than numpy can index ({_MAX_VALUES})")
