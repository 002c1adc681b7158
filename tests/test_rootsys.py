"""ADE root shells: construction, closed-form invariants, second moments."""

from __future__ import annotations

import numpy as np
import pytest

from latmorse import latcat, rootsys

KNOWN_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 24): 600,
    ("D", 4): 24,
    ("D", 16): 480,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
}

def test_known_counts():
    for (kind, rank), count in KNOWN_COUNTS.items():
        system = rootsys.make_irreducible(kind, rank)
        assert system.count == count


IRREDUCIBLES = ([("A", n) for n in range(1, 25)] + [("D", n) for n in range(4, 25)]
                + [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("kind, rank", IRREDUCIBLES, ids=lambda v: str(v))
def test_closed_form_count_matches_roots(kind, rank):
    system = rootsys.make_irreducible(kind, rank)
    assert len(system.doubled_roots) == system.count
    assert system.count == system.coxeter_number * rank


def test_catalog_build_enumerates_no_roots():
    for cached in (latcat._catalog, rootsys.make_irreducible, rootsys._doubled_roots):
        cached.cache_clear()
    assert len(latcat.list_catalog()) == 29
    assert rootsys._doubled_roots.cache_info().misses == 0


def test_coxeter_numbers():
    for n in range(1, 6):
        assert rootsys.make_irreducible("A", n).coxeter_number == n + 1
    for n in range(4, 9):
        assert rootsys.make_irreducible("D", n).coxeter_number == 2 * n - 2
    for n, h in ((6, 12), (7, 18), (8, 30)):
        assert rootsys.make_irreducible("E", n).coxeter_number == h


def test_doubled_root_norms():
    # doubled coordinates: every root has squared norm 4 * 2 = 8
    for kind, rank in (("A", 3), ("D", 5), ("E", 6), ("E", 8)):
        doubled = rootsys.make_irreducible(kind, rank).doubled_roots
        assert np.array_equal(
            np.einsum("ij,ij->i", doubled, doubled),
            np.full(doubled.shape[0], 8, dtype=np.int64),
        )


def test_reflection_closure():
    for kind, rank in (("A", 3), ("D", 4), ("E", 6)):
        doubled = rootsys.make_irreducible(kind, rank).doubled_roots
        shell = {tuple(int(v) for v in row) for row in doubled}
        x = doubled[0]
        for y in doubled:
            coef = int(x @ y) // 4  # <x, y> for unit-normalized norm-2 roots
            image = tuple(int(v) for v in (y - coef * x))
            assert image in shell


def test_frame_orthonormal():
    for kind, rank in (("A", 4), ("E", 6), ("E", 7)):
        system = rootsys.make_irreducible(kind, rank)
        frame = system.frame
        assert frame.shape == (system.ambient_dim, rank)
        gram = frame.T @ frame
        assert np.max(np.abs(gram - np.eye(rank))) < 1e-12
        norms = np.einsum("ij,ij->i", system.frame_roots, system.frame_roots)
        assert np.max(np.abs(norms - 2.0)) < 1e-12
        # the frame spans every root: projecting onto it fixes each one
        roots = system.doubled_roots / 2.0
        assert np.max(np.abs(roots @ frame @ frame.T - roots)) < 1e-12


def test_invalid_rank():
    for kind, rank in (("D", 3), ("E", 5), ("E", 9), ("A", 0), ("B", 2)):
        with pytest.raises(ValueError, match=f"no irreducible system {kind}{rank}"):
            rootsys.make_irreducible(kind, rank)


def test_verify_moment_identity():
    systems = [("A", n) for n in range(1, 9)]
    systems += [("D", n) for n in range(4, 9)]
    systems += [("E", n) for n in (6, 7, 8)]
    for kind, rank in systems:
        assert rootsys.verify_moment_identity(rootsys.make_irreducible(kind, rank))


def test_second_moment_blocks():
    assert rootsys.second_moment_blocks(rootsys.parse_root_system("D16")) == (60,)
    assert rootsys.second_moment_blocks(rootsys.parse_root_system("A5^4+D4")) == (12,) * 5
    blocks = rootsys.second_moment_blocks(rootsys.parse_root_system("A1^8+A3^8"))
    assert blocks == (4,) * 8 + (8,) * 8


def test_parse_round_trip():
    for text in ("A1^24", "A5^4+D4", "E8^3", "A17+E7", "D16"):
        assert rootsys.parse_root_system(text).name == text
    system = rootsys.parse_root_system("a2^12")
    assert system.name == "A2^12"
    assert system.count == 72
    assert system.total_rank == 24


def test_parse_rejects_malformed():
    for text in ("", "B2", "A0", "A1^0", "A1++A2", "A", "1A"):
        with pytest.raises((ValueError,)):
            rootsys.parse_root_system(text)


def test_direct_sum_structure():
    system = rootsys.parse_root_system("A3^2")
    assert system.rank_offsets == (0, 3)
    assert system.equal_coxeter
    assert not rootsys.parse_root_system("A1+A2").equal_coxeter
    assert rootsys.parse_root_system("D4^6").coxeter_numbers == (6,) * 6

    empty = rootsys.empty_root_system()
    assert empty.count == 0
    assert empty.total_rank == 0
    assert empty.name == "0"
    assert empty.frame_roots.shape == (0, 0)

    with pytest.raises(ValueError):
        rootsys.direct_sum([])
    with pytest.raises(TypeError):
        rootsys.direct_sum(["A1"])


def test_direct_sum_frame_roots_block_layout():
    system = rootsys.parse_root_system("A2+A2")
    rows = system.frame_roots
    assert rows.shape == (12, 4)
    # first component occupies the first two frame coordinates only
    assert np.max(np.abs(rows[:6, 2:])) == 0.0
    assert np.max(np.abs(rows[6:, :2])) == 0.0


def test_moment_identity_random_rotation_stability():
    # frame_roots come from a deterministic frame; the identity sum x x^T = 2h P
    # must hold in any orthonormal frame of the span
    rng = np.random.default_rng(5)
    system = rootsys.make_irreducible("D", 5)
    h = system.coxeter_number
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rotated = system.frame_roots @ q
    moment = rotated.T @ rotated
    assert np.max(np.abs(moment - 2.0 * h * np.eye(5))) < 1e-9
