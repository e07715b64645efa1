"""Built-in rule modules.

Importing this package registers every built-in rule (each module's
``@rule`` decorators run at import time); the registry's
``_load_builtin_rules`` does exactly that.  Add a new rule by adding
a module here and importing it below — nothing else to wire.
"""

from analyze.rules import (  # noqa: F401  (registration)
    determinism,
    dtype,
    exceptions,
    forksafety,
    layering,
)

__all__ = [
    "determinism",
    "dtype",
    "exceptions",
    "forksafety",
    "layering",
]
