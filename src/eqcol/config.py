"""Resource caps.

The caps guard against runaway inputs, not against correct use; every
shipped scenario stays far below them.  They may be raised through the
environment when someone really wants a larger computation.  The
environment is read on first use rather than at import, so a malformed
value surfaces as a ConfigError that the command line reports with exit
code 2 instead of breaking `import eqcol`.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .errors import ConfigError


def _cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ConfigError(f"{name} must be a positive integer, got {raw!r}")
    return value


@lru_cache(maxsize=None)
def conductor_cap() -> int:
    return _cap("EQCOL_CONDUCTOR_CAP", 10_000)


@lru_cache(maxsize=None)
def order_cap() -> int:
    return _cap("EQCOL_ORDER_CAP", 512)


@lru_cache(maxsize=None)
def hom_complex_cap() -> int:
    """Largest dimension of one degree of a Hom complex.  A differential
    holds about 650 bytes per nonzero, and the self Hom complex of a cone
    gluing h copies of one bundle has dimension about h^2 in degree 0."""
    return _cap("EQCOL_HOM_COMPLEX_CAP", 1_000_000)
