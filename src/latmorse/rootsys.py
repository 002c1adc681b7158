"""Irreducible ADE root systems with exact coordinates and canonical frames.

Roots are stored with doubled coordinates as integers (every ADE root has
half-integer entries), so membership and moment identities are checked with
exact integer arithmetic.  Standard models:

* A_n: all e_i - e_j inside the zero-sum hyperplane of R^(n+1),
* D_n: all +-e_i +- e_j in R^n,
* E8:  D8 roots plus half-integer vectors with an even number of minus signs,
* E7, E6: the E8 roots orthogonal to e7 - e8, resp. to e7 - e8 and e6 - e7.

Every system carries a deterministic orthonormal ``frame`` of its span so all
rank-n linear algebra happens in R^n regardless of the ambient model.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import cached_property, lru_cache

from .records import Frozen


def _sorted_rows(rows: list[tuple[int, ...]]) -> np.ndarray:
    import numpy as np

    arr = np.array(sorted(rows), dtype=np.int64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _doubled_roots(kind: str, rank: int) -> np.ndarray:
    """All roots of the system, coordinates doubled, lexicographically sorted."""
    if kind == "A":
        dim = rank + 1
        rows = []
        for i, j in itertools.permutations(range(dim), 2):
            v = [0] * dim
            v[i], v[j] = 2, -2
            rows.append(tuple(v))
        return _sorted_rows(rows)
    if kind == "D":
        rows = []
        for i, j in itertools.combinations(range(rank), 2):
            for si, sj in itertools.product((2, -2), repeat=2):
                v = [0] * rank
                v[i], v[j] = si, sj
                rows.append(tuple(v))
        return _sorted_rows(rows)
    if kind == "E" and rank == 8:
        rows = [tuple(v) for v in _doubled_roots("D", 8).tolist()]
        for signs in itertools.product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:
                rows.append(signs)
        return _sorted_rows(rows)
    if kind == "E" and rank == 7:
        e8 = _doubled_roots("E", 8)
        return _sorted_rows([tuple(r) for r in e8.tolist() if r[6] == r[7]])
    if kind == "E" and rank == 6:
        e8 = _doubled_roots("E", 8)
        return _sorted_rows(
            [tuple(r) for r in e8.tolist() if r[6] == r[7] and r[5] == r[6]]
        )
    raise ValueError(f"no irreducible system {kind}{rank}")


def _zero_sum_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum hyperplane of R^n, n x (n - 1).

    Column k is (e_1 + ... + e_k - k e_(k+1)) / sqrt(k(k+1)), the Helmert
    basis: what Gram-Schmidt makes of the chain e_k - e_(k+1), in closed form.
    """
    import numpy as np

    k = np.arange(1, n)
    basis = np.triu(np.ones((n, n - 1)))
    basis[k, k - 1] = -k
    return basis / np.sqrt(k * (k + 1.0))


class IrreducibleRootSystem(Frozen):
    def __init__(self, kind: str, rank: int) -> None:
        self.__dict__.update(kind=kind, rank=rank)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    @property
    def ambient_dim(self) -> int:
        if self.kind == "A":
            return self.rank + 1
        if self.kind == "D":
            return self.rank
        return 8

    @cached_property
    def doubled_roots(self) -> np.ndarray:
        """Integer matrix of 2x root coordinates, shape (count, ambient_dim)."""
        return _doubled_roots(self.kind, self.rank)

    @property
    def coxeter_number(self) -> int:
        if self.kind == "A":
            return self.rank + 1
        if self.kind == "D":
            return 2 * (self.rank - 1)
        return {6: 12, 7: 18, 8: 30}[self.rank]

    @property
    def count(self) -> int:
        """h * rank, as for every A/D/E system; no root is enumerated."""
        return self.coxeter_number * self.rank

    @cached_property
    def frame(self) -> np.ndarray:
        """Orthonormal basis of the span, ambient_dim x rank, deterministic.

        A_n uses the zero-sum basis of R^(n+1) (``_zero_sum_basis``); D and E8
        are already full dimensional.  E7 (E6) spans the hyperplane x7 = x8
        (the subspace x6 = x7 = x8) of E8's R^8: e_1, ..., e_(rank-1) plus the
        unit vector along the tied coordinates.
        """
        import numpy as np

        if self.kind == "A":
            return _zero_sum_basis(self.rank + 1)
        frame = np.eye(self.ambient_dim, self.rank)
        tied = self.ambient_dim - self.rank + 1
        frame[-tied:, -1] = 1.0 / math.sqrt(tied)
        return frame

    @cached_property
    def frame_roots(self) -> np.ndarray:
        """All roots in frame coordinates, shape (count, rank)."""
        return (self.doubled_roots.astype(float) / 2.0) @ self.frame

    def __repr__(self) -> str:
        return f"IrreducibleRootSystem({self.name}, {self.count} roots)"


@lru_cache(maxsize=None)
def make_irreducible(kind: str, rank: int) -> IrreducibleRootSystem:
    kind = kind.upper()
    if not ((kind == "A" and rank >= 1) or (kind == "D" and rank >= 4)
            or (kind == "E" and rank in (6, 7, 8))):
        raise ValueError(f"no irreducible system {kind}{rank}")
    return IrreducibleRootSystem(kind, rank)


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


class RootSystem(Frozen):
    """Orthogonal direct sum of irreducible systems (possibly empty)."""

    def __init__(self, components: tuple[IrreducibleRootSystem, ...]) -> None:
        self.__dict__.update(components=components)

    @property
    def total_rank(self) -> int:
        return sum(c.rank for c in self.components)

    @property
    def count(self) -> int:
        return sum(c.count for c in self.components)

    @cached_property
    def coxeter_numbers(self) -> tuple[int, ...]:
        return tuple(c.coxeter_number for c in self.components)

    @property
    def equal_coxeter(self) -> bool:
        return len(set(self.coxeter_numbers)) <= 1

    @cached_property
    def name(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for key, group in itertools.groupby(self.components, key=lambda c: c.name):
            reps = len(list(group))
            parts.append(f"{key}^{reps}" if reps > 1 else key)
        return "+".join(parts)

    @cached_property
    def rank_offsets(self) -> tuple[int, ...]:
        offsets, pos = [], 0
        for c in self.components:
            offsets.append(pos)
            pos += c.rank
        return tuple(offsets)

    @cached_property
    def frame_roots(self) -> np.ndarray:
        """All roots in the block orthonormal frame, shape (count, total_rank)."""
        import numpy as np

        n = self.total_rank
        rows = np.zeros((self.count, n))
        at = 0
        for comp, off in zip(self.components, self.rank_offsets):
            rows[at : at + comp.count, off : off + comp.rank] = comp.frame_roots
            at += comp.count
        rows.setflags(write=False)
        return rows

    def __repr__(self) -> str:
        return f"RootSystem({self.name}, rank {self.total_rank})"


def direct_sum(components) -> RootSystem:
    comps = tuple(components)
    if not comps:
        raise ValueError("direct_sum needs at least one component")
    if not all(isinstance(c, IrreducibleRootSystem) for c in comps):
        raise TypeError("components must be irreducible root systems")
    return RootSystem(comps)


def empty_root_system() -> RootSystem:
    return RootSystem(())


_TOKEN = re.compile(r"^([ADE])(\d+)(?:\^(\d+))?$", re.IGNORECASE)

# the largest dimension of any lattice the package handles
_MAX_TOTAL_RANK = 32


def parse_root_system(text: str) -> RootSystem:
    """Parse strings like ``A1^24``, ``A5^4+D4``, ``E8^3`` (case-insensitive).

    A total rank above 32 is rejected before any component is built.
    """
    parts = [p.strip() for p in text.split("+")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"malformed root-system string: {text!r}")
    tokens: list[tuple[str, int, int]] = []
    for part in parts:
        match = _TOKEN.match(part)
        if match is None:
            raise ValueError(f"malformed summand {part!r} in {text!r}")
        kind, rank, reps = match.group(1).upper(), int(match.group(2)), match.group(3)
        reps = int(reps) if reps else 1
        if reps < 1:
            raise ValueError(f"repeat count must be positive in {part!r}")
        tokens.append((kind, rank, reps))
    total = sum(rank * reps for _, rank, reps in tokens)
    if total > _MAX_TOTAL_RANK:
        raise ValueError(
            f"{text!r} has total rank {total}, above {_MAX_TOTAL_RANK}, the largest "
            "lattice dimension"
        )
    return direct_sum(make_irreducible(kind, rank) for kind, rank, reps in tokens
                      for _ in range(reps))


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------


def second_moment_blocks(system: RootSystem) -> tuple[int, ...]:
    """Exact per-block scalar of the second moment: 2h_i on the i-th block.

    Each irreducible shell satisfies sum x x^T = 2h P_span exactly (the Weyl
    group acts irreducibly on the span); verify_moment_identity checks this
    with integer arithmetic.
    """
    return tuple(2 * h for h in system.coxeter_numbers)


def verify_moment_identity(system: IrreducibleRootSystem) -> bool:
    """Exact check that sum x x^T acts as 2h on every root (integer arithmetic)."""
    import numpy as np

    r2 = system.doubled_roots
    s2 = r2.T @ r2  # equals 4 * sum x x^T
    h = system.coxeter_number
    return bool(np.array_equal(s2 @ r2.T, 8 * h * r2.T))
