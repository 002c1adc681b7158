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
        """All roots, coordinates doubled to integers, sorted: (count, ambient_dim)."""
        rank, rows = self.rank, []
        if self.kind == "A":
            for i, j in itertools.permutations(range(rank + 1), 2):
                v = [0] * (rank + 1)
                v[i], v[j] = 2, -2
                rows.append(tuple(v))
        elif self.kind == "D":
            for i, j in itertools.combinations(range(rank), 2):
                for si, sj in itertools.product((2, -2), repeat=2):
                    v = [0] * rank
                    v[i], v[j] = si, sj
                    rows.append(tuple(v))
        elif rank == 8:
            rows = [tuple(v) for v in make_irreducible("D", 8).doubled_roots.tolist()]
            rows += [s for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
        else:  # E7 (x7 = x8) and E6 (x6 = x7 = x8) inside E8
            tied = 9 - rank
            rows = [tuple(r) for r in make_irreducible("E", 8).doubled_roots.tolist()
                    if len(set(r[-tied:])) == 1]
        return _sorted_rows(rows)

    @property
    def coxeter_number(self) -> int:
        if self.kind == "A":
            return self.rank + 1
        if self.kind == "D":
            return 2 * (self.rank - 1)
        return {6: 12, 7: 18, 8: 30}[self.rank]

    @property
    def discriminant_order(self) -> int:
        """Order of the discriminant group, weight lattice / root lattice."""
        return {"A": self.rank + 1, "D": 4}.get(self.kind, 9 - self.rank)  # E6, E7, E8: 3, 2, 1

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
    """Orthogonal direct sum of irreducible systems (possibly empty), with its
    root ``count`` and the ``coxeter_number`` every component shares (None if
    they differ or there are none) computed once, here: every request reads them."""

    def __init__(self, components: tuple[IrreducibleRootSystem, ...]) -> None:
        hs = {c.coxeter_number for c in components}
        self.__dict__.update(components=components, count=sum(c.count for c in components),
                             coxeter_number=hs.pop() if len(hs) == 1 else None)

    @property
    def total_rank(self) -> int:
        return sum(c.rank for c in self.components)

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
    def frame_roots(self) -> np.ndarray:
        """All roots in the block orthonormal frame, shape (count, total_rank)."""
        import numpy as np

        rows = np.zeros((self.count, self.total_rank))
        at = off = 0
        for comp in self.components:
            rows[at : at + comp.count, off : off + comp.rank] = comp.frame_roots
            at += comp.count
            off += comp.rank
        rows.setflags(write=False)
        return rows

    def __repr__(self) -> str:
        return f"RootSystem({self.name}, rank {self.total_rank})"


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
    return RootSystem(tuple(make_irreducible(kind, rank) for kind, rank, reps in tokens
                            for _ in range(reps)))


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------


def verify_moment_identity(system: IrreducibleRootSystem) -> bool:
    """Exact check that sum x x^T acts as 2h on every root (integer arithmetic).

    The Weyl group acts irreducibly on the span, so sum x x^T = 2h P_span;
    ``morse.criticality`` reads each component's second moment as 2h.
    """
    import numpy as np

    r2 = system.doubled_roots
    s2 = r2.T @ r2  # equals 4 * sum x x^T
    h = system.coxeter_number
    return bool(np.array_equal(s2 @ r2.T, 8 * h * r2.T))
