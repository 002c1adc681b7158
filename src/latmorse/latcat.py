"""Catalog of even unimodular lattices in dimensions 8 to 32.

Each entry carries the data the energy computations need: the root system
(norm-2 shell), its size, the theta series and the normalized cusp form of the
relevant weight.  Explicit Gram matrices and basis realizations are stored
only where direct shell enumeration is wanted (E8 and D16+); everything else
is determined by modular forms.

Dimension 24 holds the Leech lattice plus the 23 Niemeier lattices named by
their root systems.  Dimension 32 holds two witnesses: a rootless lattice and
the lattice with root system A1^8 A3^8.
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache

from . import modforms
from .records import Frozen
from .rootsys import RootSystem, empty_root_system, parse_root_system


class UnknownLattice(KeyError):
    pass


class LatticeEntry(Frozen):
    def __init__(self, name: str, dimension: int, root_system: RootSystem, root_count: int,
                 coxeter_number: int | None, theta: modforms.QSeries,
                 cusp: modforms.QSeries | None, with_gram: bool = False) -> None:
        self.__dict__.update(name=name, dimension=dimension, root_system=root_system,
                             root_count=root_count, coxeter_number=coxeter_number,
                             theta=theta, cusp=cusp, with_gram=with_gram)

    @cached_property
    def basis(self) -> np.ndarray | None:
        """Read-only det-1 basis rows of E8 / D16+ (``_unimodular_basis``); None elsewhere."""
        return _unimodular_basis(self.dimension) if self.with_gram else None

    @cached_property
    def gram(self) -> np.ndarray | None:
        """Read-only integer Gram matrix basis basis^T of E8 / D16+; None elsewhere."""
        if self.basis is None:
            return None
        import numpy as np

        gram_f = self.basis @ self.basis.T
        gram = np.rint(gram_f).astype(np.int64)
        assert np.max(np.abs(gram - gram_f)) == 0.0
        gram.setflags(write=False)
        return gram

    def series_floats(self, length: int) -> tuple[memoryview, memoryview]:
        """Float theta and cusp coefficient rows of exactly this length.

        Read-only float64 memoryviews: ``np.asarray`` reads them without a
        copy.  The cusp row is identically zero in dimension 8, where the
        relevant cusp space is trivial.
        """
        return _series_pair(self, length)

    def coeff_bound(self) -> modforms.CoeffBound:
        return modforms.theta_coeff_bound(self.dimension, self.root_count)

    def __repr__(self) -> str:
        return f"LatticeEntry({self.name}, dim {self.dimension}, {self.root_count} roots)"


# bounded, yet far above the 29 catalog entries times the few lengths in use
@lru_cache(maxsize=512)
def _series_pair(entry: LatticeEntry, length: int) -> tuple[memoryview, memoryview]:
    """Rows up to the length of the entry's own exact series are views of the
    one pair converted from them; only longer rows build longer exact series."""
    own = entry.theta.length
    if length < own:
        return tuple(row[:length] for row in _series_pair(entry, own))
    theta, cusp = entry.theta, entry.cusp
    if length > own:
        theta = modforms.theta_even_unimodular(entry.dimension, entry.root_count, length)
        cusp = None if cusp is None else modforms.cusp_normalized(entry.dimension, length)
    a, b = theta.floats(), [0.0] * length if cusp is None else cusp.floats()
    return memoryview(array("d", a)).toreadonly(), memoryview(array("d", b)).toreadonly()


def _unimodular_basis(n: int) -> np.ndarray:
    """Rows 2 e_1, e_k - e_(k-1), (1/2, ..., 1/2): a det-1 basis of E8 / D16+.

    Lower triangular with diagonal (2, 1, ..., 1, 1/2), so the determinant is
    exactly 1; every row lies in the lattice, and equal covolumes force the
    generated lattice to be the whole thing.
    """
    import numpy as np

    rows = np.zeros((n, n))
    rows[0, 0] = 2.0
    for k in range(1, n - 1):
        rows[k, k - 1], rows[k, k] = -1.0, 1.0
    rows[n - 1, :] = 0.5
    rows.setflags(write=False)
    return rows


def _entry(name: str, dimension: int, system: RootSystem, with_gram: bool = False) -> LatticeEntry:
    """The one construction path: theta, cusp and Coxeter data from (n, roots)."""
    hs = set(system.coxeter_numbers)
    return LatticeEntry(
        name=name,
        dimension=dimension,
        root_system=system,
        root_count=system.count,
        coxeter_number=hs.pop() if len(hs) == 1 else None,
        theta=modforms.theta_even_unimodular(dimension, system.count),
        cusp=modforms.cusp_normalized(dimension) if dimension != 8 else None,
        with_gram=with_gram,
    )


NIEMEIER_ROOT_SYSTEMS = (
    "A1^24",
    "A2^12",
    "A3^8",
    "A4^6",
    "A5^4+D4",
    "D4^6",
    "A6^4",
    "A7^2+D5^2",
    "A8^3",
    "A9^2+D6",
    "D6^4",
    "E6^4",
    "A11+D7+E6",
    "A12^2",
    "D8^3",
    "A15+D9",
    "A17+E7",
    "D10+E7^2",
    "D12^2",
    "A24",
    "D16+E8",
    "E8^3",
    "D24",
)


@lru_cache(maxsize=1)
def _catalog() -> tuple[LatticeEntry, ...]:
    specs = [("E8", 8, "E8"), ("D16+", 16, "D16"), ("E8^2", 16, "E8^2"), ("Leech", 24, None)]
    specs += [(name, 24, name) for name in NIEMEIER_ROOT_SYSTEMS]
    specs += [("Rootless32", 32, None), ("A1^8+A3^8", 32, "A1^8+A3^8")]
    entries = [
        _entry(name, n, parse_root_system(roots) if roots else empty_root_system(),
               with_gram=name in ("E8", "D16+"))
        for name, n, roots in specs
    ]
    return tuple(sorted(entries, key=lambda e: (e.dimension, e.root_count, e.name)))


def list_catalog() -> list[LatticeEntry]:
    """All entries, ordered by (dimension, root count, name)."""
    return list(_catalog())


def get(name: str) -> LatticeEntry:
    """Case-insensitive lookup by catalog name."""
    wanted = name.strip().upper()
    for entry in _catalog():
        if entry.name.upper() == wanted:
            return entry
    raise UnknownLattice(
        f"no catalog entry {name!r}; see list_catalog() for the names"
    )


def make_entry(root_string: str, dimension: int | None = None) -> LatticeEntry:
    """Entry for a root system outside the catalog (dimension may exceed rank).

    Used to analyze hypothetical even unimodular lattices given their root
    shell.  The theta series is pinned by (dimension, root count); no Gram
    matrix is attached.  The root shell is the root system, so the root count
    is the system's own.
    """
    system = parse_root_system(root_string)
    n = dimension if dimension is not None else system.total_rank
    if n not in (8, 16, 24, 32):
        raise ValueError(f"even unimodular dimension must be 8/16/24/32, got {n}")
    if system.total_rank > n:
        raise ValueError("root system rank exceeds the lattice dimension")
    name = system.name if n == system.total_rank else f"{system.name} (dim {n})"
    return _entry(name, n, system)


def entry_summary(entry: LatticeEntry) -> dict:
    """JSON-ready description: identity, root data, first 16 theta coefficients."""
    coeffs = [int(c) for c in entry.theta.coeffs[:16]]
    return {
        "name": entry.name,
        "dimension": entry.dimension,
        "root_system": entry.root_system.name,
        "root_count": entry.root_count,
        "coxeter_number": entry.coxeter_number,
        "theta_coefficients": coeffs,
    }
