"""Direct shell enumeration from a Gram matrix, as an independent oracle.

Everything the modular-form layer claims about shell sizes and shell sums can
be recomputed here by brute force for small dimensions.  Vectors are found by
branch-and-bound on the Cholesky factorization (coordinates processed last to
first, all candidate extensions of a level expanded as one numpy batch), and
every reported vector is verified with exact integer arithmetic on v^T G v,
so floating point only ever prunes with a small slack, never decides.

The walk is depth first over bounded chunks and the consumers below are
streaming (counts, Hessian pairings), so deep shells of a 16-dimensional
lattice pass through without ever being held whole; only ``short_vectors``
materializes vectors, and callers wanting millions of them should reach for
the streaming entry points instead.  The streaming consumers take even Gram
matrices only and reject an odd one before any walk.

The enumeration budget is deliberate: dimension <= 16 and norm shells 2m with
m <= 6, enough to cross-check E8 and D16+ against their theta series.
"""

from __future__ import annotations

from . import modforms, symspace

MAX_DIM = 16
MAX_SHELL = 6

_PRUNE_SLACK = 1e-6
_CHUNK_ROWS = 120_000


def _checked_gram(gram) -> np.ndarray:
    import numpy as np

    g = np.asarray(gram)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("Gram matrix must be square")
    # written so that NaN and infinities fail it
    if not (np.all(np.isfinite(g)) and np.array_equal(g, np.rint(g))):
        raise ValueError("Gram matrix must be integral")
    gi = g.astype(np.int64)
    if not np.array_equal(gi, gi.T):
        raise ValueError("Gram matrix must be symmetric")
    return gi


def _cholesky_upper(gram_int: np.ndarray) -> np.ndarray:
    import numpy as np

    try:
        lower = np.linalg.cholesky(gram_int.astype(float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is not positive definite") from exc
    return lower.T


def _expand_level(v, cost, r_upper, i, bound):
    """All one-coordinate extensions at level i with partial cost <= bound."""
    import numpy as np

    rii = float(r_upper[i, i])
    linear = v[:, i + 1 :] @ r_upper[i, i + 1 :]
    room = bound - cost
    half_width = np.sqrt(np.maximum(room, 0.0)) / rii
    center = -linear / rii
    lo = np.ceil(center - half_width - 1e-12).astype(np.int64)
    hi = np.floor(center + half_width + 1e-12).astype(np.int64)
    counts = np.maximum(hi - lo + 1, 0)
    total = int(counts.sum())
    if total == 0:
        return None, None
    parent = np.repeat(np.arange(v.shape[0]), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    coord = lo[parent] + (np.arange(total) - np.repeat(starts, counts))
    out = v[parent]
    out[:, i] = coord.astype(np.int32)
    step = rii * coord + linear[parent]
    return out, cost[parent] + step * step


def _enumerate(g: np.ndarray, bound: int, visit) -> None:
    """Walk all nonzero v with v^T G v <= bound, exact-verified, in chunks.

    ``visit(vectors, norms)`` receives int32 coordinate rows with their exact
    int64 norms, already filtered to 1 <= norm <= bound.  Chunks are bounded,
    order is deterministic, and float pruning carries a +1e-6 slack so no
    boundary point is lost.
    """
    import numpy as np

    n = g.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"enumeration limited to dimension {MAX_DIM}")
    r_upper = _cholesky_upper(g)
    fuzzy = float(bound) + _PRUNE_SLACK

    stack = [(n, np.zeros((1, n), dtype=np.int32), np.zeros(1))]
    while stack:
        level, v, cost = stack.pop()
        if level == 0:
            v64 = v.astype(np.int64)
            norms = np.einsum("ij,jk,ik->i", v64, g, v64)
            keep = (norms >= 1) & (norms <= bound)
            if np.any(keep):
                visit(v[keep], norms[keep])
            continue
        for s in range(0, v.shape[0], _CHUNK_ROWS):
            new_v, new_cost = _expand_level(
                v[s : s + _CHUNK_ROWS], cost[s : s + _CHUNK_ROWS], r_upper, level - 1, fuzzy
            )
            if new_v is None:
                continue
            for t in range(0, new_v.shape[0], _CHUNK_ROWS):
                stack.append((level - 1, new_v[t : t + _CHUNK_ROWS], new_cost[t : t + _CHUNK_ROWS]))


def short_vectors(gram, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero integer v with v^T G v <= bound, with their exact norms.

    Materializes every vector; fine up to around a million, beyond that use
    the streaming consumers.
    """
    import numpy as np

    g = _checked_gram(gram)
    pieces: list[np.ndarray] = []
    norm_pieces: list[np.ndarray] = []
    _enumerate(g, bound, lambda v, nr: (pieces.append(v), norm_pieces.append(nr)))
    if not pieces:
        n = g.shape[0]
        return np.zeros((0, n), dtype=np.int32), np.zeros(0, dtype=np.int64)
    return np.vstack(pieces), np.concatenate(norm_pieces)


def _checked_even(gram, m_max: int) -> np.ndarray:
    """The integral Gram matrix of an even lattice, with m_max in the shell budget."""
    import numpy as np

    if m_max < 1:
        raise ValueError("m_max >= 1")
    if m_max > MAX_SHELL:
        raise ValueError(f"shells limited to m <= {MAX_SHELL}")
    g = _checked_gram(gram)
    # v^T G v = sum G_ii v_i^2 (mod 2), so every norm is even exactly when every G_ii is
    if np.any(np.diagonal(g) % 2):
        raise ValueError("Gram matrix has an odd diagonal entry: the lattice is not even")
    return g


def shell_counts(gram, m_max: int) -> tuple[int, ...]:
    """Sizes of the norm-2, ..., norm-2*m_max shells, without storing vectors."""
    import numpy as np

    g = _checked_even(gram, m_max)
    counts = np.zeros(2 * m_max + 1, dtype=np.int64)

    def visit(v, norms):
        counts[:] += np.bincount(norms, minlength=2 * m_max + 1)

    _enumerate(g, 2 * m_max, visit)
    return tuple(int(counts[2 * m]) for m in range(1, m_max + 1))


def hessian_direct(gram, alpha: float, h, m_max: int, basis=None) -> float:
    """Partial Hessian pairing alpha * sum e^(-alpha|x|^2) ((alpha/2) H[x]^2 - H^2[x]/2).

    ``basis`` rows realize lattice coordinates in the ambient frame that H is
    written in; without it the upper Cholesky frame of the Gram matrix is
    used.  Pure partial sum over shells m <= m_max, streamed: this is the
    enumeration oracle, certified tails live in the spectral layer.
    """
    import numpy as np

    g = _checked_even(gram, m_max)
    modforms._check_alpha(alpha)
    h = symspace._direction(h, g.shape[0])
    if basis is None:
        basis = _cholesky_upper(g).T  # x = R v written as rows: v @ R^T
    else:
        basis = np.asarray(basis, dtype=float)
        if not np.max(np.abs(basis @ basis.T - g)) <= 1e-9:  # NaN fails
            raise ValueError("basis does not realize the Gram matrix")

    acc = np.zeros(m_max + 1)

    def visit(v, norms):
        x = v @ basis
        xh = x @ h
        quad = np.einsum("ri,ri->r", xh, x)  # H[x]
        # H symmetric, so H^2[x] = |Hx|^2
        vals = 0.5 * alpha * quad * quad - 0.5 * np.sum(xh * xh, axis=1)
        np.add.at(acc, norms // 2, vals)

    _enumerate(g, 2 * m_max, visit)
    return alpha * float(
        np.sum(acc[1:] * np.exp(-2.0 * alpha * np.arange(1, m_max + 1)))
    )
