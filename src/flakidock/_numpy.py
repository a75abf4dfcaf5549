"""numpy, imported at the first use of one of its names (PEP 562).

Vector code imports this module as `np` and evaluates no `np.` name at module
level, so commands that compute no vectors start without numpy. Dunder names
are refused: probing `__path__` or `__wrapped__` loads nothing."""


def __getattr__(name: str):
    if name.startswith("__") and name.endswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = getattr(numpy, name)
    globals()[name] = value  # later lookups skip this hook
    return value
