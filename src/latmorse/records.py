"""The base of the package's immutable records.

Value records (a spectral line, a fold, a bound) are namedtuple subclasses.
Records that stand for one object (a lattice entry, a result, a report)
subclass ``Frozen`` and compare by identity, so a cache keyed on one never
hashes its contents.  Defining one compiles at most a namedtuple's one-line
``__new__``, so importing the package stays cheap.
"""


class Frozen:
    """Fields set once, in ``__init__``; assigning or deleting an attribute
    afterwards raises AttributeError.  ``functools.cached_property`` writes
    the instance dict directly, so it still works.  The repr lists the
    parameters of ``__init__``."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        code = type(self).__init__.__code__
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in code.co_varnames[1 : code.co_argcount])
        return f"{type(self).__qualname__}({fields})"
