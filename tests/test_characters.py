"""Character tables, inner products, fixed subspaces, rational classes."""

import functools
import inspect
import random
import sys
import threading
from fractions import Fraction
from math import gcd, isqrt

import pytest

from jacdecomp import characters
from jacdecomp.characters import (
    ClassFunction,
    GroupMismatch,
    NonIntegralAverage,
    NonIntegralN,
    NotIrreducible,
    CharacterError,
    RationalClass,
    _combine,
    _reduce_coeffs,
    central_idempotent,
    character_table,
    fixed_dim,
    fixed_dims,
    frobenius_schur,
    inner_product,
    permutation_character,
    rational_classes,
    regular_character,
    trivial_character,
    _charpoly_mod,
)
from jacdecomp.cyclotomic import ConductorMismatch, Cyclotomic, cyclotomic_polynomial, is_prime
from jacdecomp.decomposition import analyze
from jacdecomp.groups import (
    FiniteGroup,
    Permutation,
    build_group,
    conjugacy_classes,
    coset_action,
    enumerate_subgroups,
    full_subgroup,
    preset_dihedral,
    preset_elementary_abelian_2,
    preset_quaternion,
    subgroup_class,
    subgroup_generate,
    trivial_subgroup,
)
from conftest import dicyclic_group, dihedral_action, group_library, random_action, semidirect_7_9
from test_groups import is_conjugacy_canonical

LIBRARY = [
    preset_dihedral(3),
    preset_dihedral(5),
    preset_dihedral(7),
    preset_elementary_abelian_2(2),
    preset_elementary_abelian_2(3),
    preset_quaternion(),
]


# -- table structure -----------------------------------------------------------


def test_z2_table():
    group = preset_elementary_abelian_2(1)
    table = character_table(group)
    values = {tuple(v.as_integer() for v in row.values) for row in table.irreducibles}
    assert values == {(1, 1), (1, -1)}


def test_dihedral12_degree_pattern():
    table = character_table(preset_dihedral(3))
    assert table.degrees == (1, 1, 1, 1, 2, 2)


def test_z2_cubed_linear_pattern():
    table = character_table(preset_elementary_abelian_2(3))
    assert table.degrees == (1,) * 8
    for row in table.irreducibles:
        assert all(v.as_integer() in (1, -1) for v in row.values)


def test_quaternion_degree_pattern():
    table = character_table(preset_quaternion())
    assert table.degrees == (1, 1, 1, 1, 2)


@pytest.mark.parametrize("group", LIBRARY, ids=lambda g: f"order{g.order}")
def test_table_axioms(group):
    table = character_table(group)
    k = len(table.classes)
    assert len(table.irreducibles) == k
    assert sum(d * d for d in table.degrees) == group.order
    assert table.irreducibles[0] == trivial_character(group)
    # character values are algebraic integers: int coordinates, never Fraction
    for row in table.irreducibles:
        for value in row.values:
            assert all(type(c) is int for c in value.coeffs)
    # exact row orthonormality
    for i, a in enumerate(table.irreducibles):
        for j, b in enumerate(table.irreducibles):
            product = inner_product(a, b)
            assert type(product) is Fraction
            assert product == (1 if i == j else 0)
    # exact column orthogonality: sum over rows of chi(g) conj(chi(h))
    e = group.exponent
    sizes = table.classes.sizes
    for c1 in range(k):
        for c2 in range(k):
            total = Cyclotomic.zero(e)
            for row in table.irreducibles:
                total = total + row.values[c1] * row.values[c2].conjugate()
            expected = Fraction(group.order, sizes[c1]) if c1 == c2 else 0
            assert total == Cyclotomic.from_rational(expected, e)


def det_mod(matrix, p):
    """Determinant over F_p by plain Gaussian elimination."""
    m = [[x % p for x in row] for row in matrix]
    det = 1
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def test_charpoly_mod_matches_determinant_oracle():
    """charpoly(H) of M's Hessenberg form H, evaluated at every lam in F_p, equals
    det(lam*I - M) mod p."""
    p = 13
    rng = random.Random(2026)
    matrices = [
        [[0] * 4 for _ in range(4)],
        # zero subdiagonal entry with a nonzero one below it: pivot swap
        [[1, 2, 3, 4], [0, 5, 6, 7], [8, 9, 10, 11], [12, 0, 1, 2]],
        # first column zero below the diagonal: nothing to eliminate there
        [[1, 2, 3, 4], [0, 5, 6, 7], [0, 8, 9, 10], [0, 11, 12, 0]],
    ]
    for n in range(1, 7):
        for _ in range(6):
            matrices.append([[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n)])
    for m in matrices:
        n = len(m)
        coeffs = _charpoly_mod(characters._hessenberg_mod(m, p)[0], p)
        assert len(coeffs) == n + 1 and coeffs[n] == 1
        for lam in range(p):
            value = sum(c * pow(lam, i, p) for i, c in enumerate(coeffs)) % p
            shifted = [[((lam if i == j else 0) - m[i][j]) for j in range(n)] for i in range(n)]
            assert value == det_mod(shifted, p)


def gauss_jordan(rows, p):
    """Reduced row echelon form over F_p and its pivot columns, by dense elimination."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def test_rref_mod_matches_gauss_jordan():
    """_rref_mod's elimination against the dense reference on random rows mod p,
    rank-deficient ones among them; its input is left as it was."""
    rng = random.Random(38)
    for p in (13, 211):
        for _ in range(60):
            ncols = rng.randint(1, 7)
            base = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(ncols)]
                    for _ in range(rng.randint(1, 5))]
            combos = [[sum(rng.randrange(p) * row[j] for row in base) % p for j in range(ncols)]
                      for _ in range(rng.randint(0, 3))]
            rows = base + combos
            rng.shuffle(rows)
            before = [row[:] for row in rows]
            assert characters._rref_mod(rows, p) == gauss_jordan(rows, p)
            assert rows == before


def kernel_mod(matrix, p):
    """Basis of the right kernel of a square matrix over F_p, by Gauss-Jordan."""
    n = len(matrix)
    rref, pivots = gauss_jordan(matrix, p)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[f] = 1
        for row, c in zip(rref, pivots):
            vec[c] = -row[f] % p
        basis.append(vec)
    return basis


def mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def conjugated(diagonal, superdiagonal, rng, p):
    """S J S^-1 for a random invertible S, J with the given diagonal and superdiagonal."""
    n = len(diagonal)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        s = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        augmented, pivots = gauss_jordan([row + e for row, e in zip(s, identity)], p)
        if pivots == list(range(n)):
            break
    s_inv = [row[n:] for row in augmented]
    j = [[x * int(r == c) for c in range(n)] for r, x in enumerate(diagonal)]
    for r in range(n - 1):
        j[r][r + 1] = superdiagonal[r]
    return mat_mul(mat_mul(s, j, p), s_inv, p)


def inverse_mod(a, p):
    n = len(a)
    augmented, _ = gauss_jordan([row + [int(i == j) for j in range(n)] for i, row in enumerate(a)], p)
    return [row[n:] for row in augmented]


def companion_block(lam, size, rng, p):
    """An unreduced upper Hessenberg block with lam among its eigenvalues: the
    companion matrix of (x - lam) g, g random and monic, conjugated by a random
    invertible upper triangular matrix, which keeps the subdiagonal nonzero."""
    g = [rng.randrange(p) for _ in range(size - 1)] + [1]
    f = [(a - lam * b) % p for a, b in zip([0] + g, g + [0])]  # (x - lam) g, low degree first
    companion = [[int(i == j + 1) for j in range(size)] for i in range(size)]
    for i in range(size):
        companion[i][-1] = -f[i] % p
    u = [[rng.randrange(1, p) if i == j else rng.randrange(p) * (i < j) for j in range(size)]
         for i in range(size)]
    return mat_mul(mat_mul(u, companion, p), inverse_mod(u, p), p)


# block sizes and each block's eigenvalue, None for a block drawn with another one
BLOCK_SHAPES = [
    ((2, 3), (3, 3)),
    ((1, 2, 2), (3, 3, 3)),
    ((3, 1, 3), (3, None, 3)),
    ((2, 2, 1, 2), (3, 3, None, 3)),
    ((1, 1, 2), (3, 3, 3)),
]


def block_hessenberg_inputs(p):
    """(matrix, block sizes): upper Hessenberg, zero on the subdiagonal exactly at
    the block boundaries, 3 an eigenvalue of two or more diagonal blocks.  Coupled,
    the entries above the blocks are random, which for almost every draw chains
    3's eigenvectors of two blocks into a Jordan block.  Uncoupled, the block
    diagonal matrix is conjugated by a random unit upper triangular one: the
    subdiagonal and the diagonal blocks stay, every entry above them fills, and
    each block's eigenvector for 3 extends to one of the whole."""
    rng = random.Random(f"blocks:{p}")
    inputs = []
    for sizes, eigenvalues in BLOCK_SHAPES:
        for coupled in (False, True):
            blocks = [companion_block(rng.randrange(4, p) if lam is None else lam, size, rng, p)
                      for size, lam in zip(sizes, eigenvalues)]
            n, starts = sum(sizes), [sum(sizes[:k]) for k in range(len(sizes))]
            a = [[rng.randrange(p) * coupled for _ in range(n)] for _ in range(n)]
            for s, block in zip(starts, blocks):
                for i, row in enumerate(block):
                    a[s + i][:s] = [0] * s
                    a[s + i][s:s + len(row)] = row
            if not coupled:
                t = [[int(i == j) or rng.randrange(p) * (i < j) for j in range(n)] for i in range(n)]
                a = mat_mul(mat_mul(t, a, p), inverse_mod(t, p), p)
            inputs.append((a, sizes))
    return inputs


def eigenspace_inputs(p):
    rng = random.Random(f"eigenspaces:{p}")
    matrices = [
        [[0] * 4 for _ in range(4)],
        [[int(i == j) * 5 for j in range(5)] for i in range(5)],
        # a permutation matrix, like the class matrices of an abelian group
        [[int(j == (1, 0, 3, 2, 5, 4)[i]) for j in range(6)] for i in range(6)],
        # zero subdiagonal: upper triangular with a repeated diagonal entry
        [[2, 1, 3, 4], [0, 2, 5, 6], [0, 0, 7, 8], [0, 0, 0, 2]],
        # Hessenberg with one zero on the subdiagonal
        [[2, 1, 0, 5], [3, 2, 1, 0], [0, 0, 2, 1], [0, 0, 3, 2]],
        # zero subdiagonal entry with a nonzero one below it: pivot swap
        [[1, 2, 3, 4], [0, 5, 6, 7], [8, 9, 10, 11], [12, 0, 1, 2]],
        # first column zero below the diagonal: nothing to eliminate there
        [[1, 2, 3, 4], [0, 5, 6, 7], [0, 8, 9, 10], [0, 11, 12, 0]],
    ]
    for n in range(1, 8):
        for _ in range(4):
            # repeated eigenvalues from a set of three, diagonalizable or with Jordan blocks
            diagonal = sorted(rng.choice((1, 3, p - 1)) for _ in range(n))
            matrices.append(conjugated(diagonal, [0] * (n - 1), rng, p))
            blocks = [int(a == b and rng.random() < 0.5) for a, b in zip(diagonal, diagonal[1:])]
            matrices.append(conjugated(diagonal, blocks, rng, p))
            matrices.append([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    return matrices + [a for a, _ in block_hessenberg_inputs(p)]


def times_linear(poly, r, p):
    """poly * (x - r) over F_p, coefficients low degree first."""
    return [(a - r * b) % p for a, b in zip([0] + poly, poly + [0])]


@pytest.mark.parametrize("p", [67, 211])
def test_poly_roots_mod_with_hints_matches_the_full_scan(p):
    """Seeded products of linear factors, some repeated, times a nonzero constant and
    sometimes an irreducible x^2 - c: with hints that are every root, some of them,
    none, or roots and non-roots, in any order, the roots are the full scan's,
    distinct and ascending, so no non-root hint is returned.  The input is kept."""
    rng = random.Random(p)
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)  # a non-square
    for _ in range(60):
        factors = [rng.randrange(p) for _ in range(rng.randint(1, 8))]
        factors += rng.choices(factors, k=rng.randint(0, 4))
        poly = [rng.randrange(1, p)] if rng.random() < 0.7 else [(-c) % p, 0, 1]
        for r in factors:
            poly = times_linear(poly, r, p)
        full = characters._poly_roots_mod(poly, p)
        assert full == sorted(set(factors))
        non_roots = rng.sample([x for x in range(p) if x not in full], 3)
        some = rng.sample(full, rng.randint(1, len(full)))
        for hints in (full, some, full + non_roots, some + non_roots, non_roots, (), set(full)):
            hints = list(hints)
            rng.shuffle(hints)
            before = poly[:]
            found = characters._poly_roots_mod(poly, p, hints)
            assert found == full == sorted(set(found))
            assert poly == before


@pytest.mark.parametrize("p", [13, 101])
def test_eigenspaces_match_a_dense_kernel_oracle(p):
    """Per lam in F_p: each vector returned satisfies A v = lam v, and the vectors
    span the Gauss-Jordan kernel of A - lam*I, as many as its dimension."""
    for m in eigenspace_inputs(p):
        n = len(m)
        spaces = dict(characters._eigenspaces(m, p, ()))
        assert list(spaces) == sorted(spaces)
        for lam in range(p):
            shifted = [[(m[i][j] - (lam if i == j else 0)) % p for j in range(n)] for i in range(n)]
            oracle = kernel_mod(shifted, p)
            vectors = spaces.get(lam, [])
            assert len(vectors) == len(oracle)
            for v in vectors:
                assert mat_mul(m, [[x] for x in v], p) == [[lam * x % p] for x in v]
            if vectors:
                assert len(gauss_jordan(vectors + oracle, p)[1]) == len(oracle)


def shifted(a, lam, p):
    return [[(x - lam * int(i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(a)]


@pytest.mark.parametrize("p", [13, 101])
def test_block_hessenberg_kernels_reach_both_coupling_branches(p):
    """On the block inputs _hessenberg_kernel spans the dense kernel at every lam.
    Where 3 is an eigenvalue of b >= 2 diagonal blocks, each block's eigenvector
    extends past the blocks below (the consistent branch, run with a partial
    present) exactly when the kernel has dimension b; with a smaller one, some
    residual was nonzero and two partials were combined (the inconsistent one).
    The inputs reach both."""
    branches = set()
    for a, sizes in block_hessenberg_inputs(p):
        for lam in range(p):
            oracle = kernel_mod(shifted(a, lam, p), p)
            vectors = characters._hessenberg_kernel(a, lam, p)
            assert len(vectors) == len(oracle)
            if vectors:  # independent, so they span the kernel
                assert len(gauss_jordan(vectors, p)[1]) == len(oracle)
            for v in vectors:
                assert mat_mul(a, [[x] for x in v], p) == [[lam * x % p] for x in v]
        starts = [sum(sizes[:k]) for k in range(len(sizes))]
        b = sum(1 for s, size in zip(starts, sizes)
                if kernel_mod(shifted([row[s:s + size] for row in a[s:s + size]], 3, p), p))
        d = len(kernel_mod(shifted(a, 3, p), p))
        assert b >= 2 and 1 <= d <= b
        branches.add("consistent" if d == b else "inconsistent")
    assert branches == {"consistent", "inconsistent"}


def recording_kernels(monkeypatch):
    """The eigenvalues whose kernels _hessenberg_kernel computes, in call order."""
    kernel, computed = characters._hessenberg_kernel, []

    def recording(h, lam, p):
        computed.append(lam)
        return kernel(h, lam, p)

    monkeypatch.setattr(characters, "_hessenberg_kernel", recording)
    return computed


@pytest.mark.parametrize("third", [2, 5])
def test_a_derived_eigenvector_stands_in_only_for_a_simple_root(monkeypatch, third):
    """S's columns v = (1, 2, 3), its image (1, 3, 2) under the swap of coordinates 1
    and 2, and (0, 1, 0) are eigenvectors for 1, 2 and `third`: the image replaces the
    kernel of 2 when 2 is a simple root, and when 2 is double its kernel is computed."""
    p = 13
    s = [[1, 1, 0], [2, 3, 1], [3, 2, 0]]
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    s_inv = [row[3:] for row in gauss_jordan([row + e for row, e in zip(s, identity)], p)[0]]
    diagonal = [[x * int(r == c) for c in range(3)] for r, x in enumerate([1, 2, third])]
    a = mat_mul(mat_mul(s, diagonal, p), s_inv, p)
    computed = recording_kernels(monkeypatch)
    spaces = characters._eigenspaces(a, p, [[0, 2, 1]])
    assert computed == ([1, 2] if third == 2 else [1, 5])
    assert [lam for lam, _ in spaces] == sorted({1, 2, third})
    for lam, vectors in spaces:
        shifted = [[(x - lam * int(i == j)) % p for j, x in enumerate(row)]
                   for i, row in enumerate(a)]
        assert gauss_jordan(vectors, p)[0] == gauss_jordan(kernel_mod(shifted, p), p)[0]


@pytest.mark.parametrize("group", LIBRARY, ids=lambda g: f"order{g.order}")
def test_galois_action_permutes_rows(group):
    table = character_table(group)
    rows = {row.values for row in table.irreducibles}
    e = group.exponent
    for k in range(1, e + 1):
        if __import__("math").gcd(k, e) != 1:
            continue
        for row in table.irreducibles:
            assert tuple(v.galois(k) for v in row.values) in rows


@pytest.mark.parametrize("group", LIBRARY, ids=lambda g: f"order{g.order}")
def test_character_values_are_root_of_unity_sums(group):
    """Oracle: reconstruct eigenvalue multiplicities from power values.

    For an irreducible of degree d and an element g of order n, the
    multiplicities m_j of the eigenvalues zeta_n^j recovered by exact Fourier
    inversion over the cyclic group <g> must be non-negative integers summing
    to d, and must reconstruct the character value.
    """
    table = character_table(group)
    classes = table.classes
    e = group.exponent
    for row in table.irreducibles:
        d = row.values[0].as_integer()
        for rep in classes.representatives:
            n = group.element_order(rep)
            power_values = [
                row.values[classes.class_of[group.power(rep, i)]] for i in range(n)
            ]
            reconstructed = Cyclotomic.zero(e)
            total = 0
            for j in range(n):
                m_j = Cyclotomic.zero(e)
                for i in range(n):
                    m_j = m_j + power_values[i] * Cyclotomic.root(e, (-i * j * (e // n)) % e)
                m_j = m_j * Fraction(1, n)
                m_int = m_j.as_rational()
                assert m_int.denominator == 1 and m_int >= 0
                total += int(m_int)
                reconstructed = reconstructed + int(m_int) * Cyclotomic.root(
                    e, (j * (e // n)) % e
                )
            assert total == d
            assert reconstructed == row.values[classes.class_of[rep]]


def closed_form_dihedral_rows(q):
    """Textbook table of the order-4q dihedral group, built without the engine.

    Linear rows are sign patterns on (rotation, reflection); the degree-2 rows
    send r^k to zeta^(jk) + zeta^(-jk) and every reflection to 0.
    """
    group = preset_dihedral(q)
    classes = conjugacy_classes(group)
    e = group.exponent
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    rotations = {group.power(r, k): k for k in range(2 * q)}
    rows = set()
    for sign_r, sign_s in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        values = []
        for rep in classes.representatives:
            if rep in rotations:
                value = sign_r ** (rotations[rep] % 2)
            else:
                # reflection s*r^k: sign_s * sign_r^k
                k = rotations[group.mul(s, rep)]  # s * (s r^k) = r^k
                value = sign_s * sign_r**k
            values.append(Cyclotomic.from_rational(value, e))
        rows.add(tuple(values))
    for j in range(1, q):
        values = []
        for rep in classes.representatives:
            if rep in rotations:
                k = rotations[rep]
                values.append(Cyclotomic.root(e, j * k) + Cyclotomic.root(e, -j * k))
            else:
                values.append(Cyclotomic.zero(e))
        rows.add(tuple(values))
    return rows


@pytest.mark.parametrize("q", [3, 5, 7, 31, 61, 127])
def test_dihedral_table_matches_closed_form(q):
    table = character_table(preset_dihedral(q))
    assert {row.values for row in table.irreducibles} == closed_form_dihedral_rows(q)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 6, 7])
def test_elementary_abelian_table_matches_closed_form(t):
    """Rows are exactly the sign characters determined on the generators."""
    import itertools

    group = preset_elementary_abelian_2(t)
    classes = conjugacy_classes(group)
    gens = [group.generator_names[f"e{i + 1}"] for i in range(t)]
    expected = set()
    for signs in itertools.product((1, -1), repeat=t):
        values = []
        for rep in classes.representatives:
            value = 1
            # decompose the element over the generators by tracking which
            # transposed pairs moved
            for i, g in enumerate(gens):
                if group.elements[rep].images[2 * i] != 2 * i:
                    value *= signs[i]
            values.append(Cyclotomic.from_rational(value, group.exponent))
        expected.add(tuple(values))
    table = character_table(group)
    assert {row.values for row in table.irreducibles} == expected


def alternating_group_4():
    """A4 on 4 points: degrees (1,1,1,3) with a Galois-paired linear orbit."""
    return build_group(
        [Permutation((1, 2, 0, 3)), Permutation((0, 2, 3, 1))], ["a", "b"]
    )


def symmetric_group_4():
    return build_group(
        [Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))], ["t", "c"]
    )


def test_alternating4_table_matches_closed_form():
    group = alternating_group_4()
    assert group.order == 12
    table = character_table(group)
    assert table.degrees == (1, 1, 1, 3)
    classes = conjugacy_classes(group)
    e = group.exponent
    a = group.generator_names["a"]  # a 3-cycle
    a2 = group.power(a, 2)
    omega = Cyclotomic.root(e, e // 3)
    expected = set()
    for first, second in ((omega, omega * omega), (omega * omega, omega)):
        values = []
        for rep in classes.representatives:
            if group.element_order(rep) in (1, 2):
                values.append(Cyclotomic.one(e))
            elif rep in conjugacy_classes(group).classes[classes.class_of[a]]:
                values.append(first)
            else:
                values.append(second)
        expected.add(tuple(values))
    trivial = tuple(Cyclotomic.one(e) for _ in classes.representatives)
    standard = tuple(
        Cyclotomic.from_rational(
            {1: 3, 2: -1, 3: 0}[group.element_order(rep)], e
        )
        for rep in classes.representatives
    )
    expected.update({trivial, standard})
    assert {row.values for row in table.irreducibles} == expected
    # the two complex linear characters form one rational class of field degree 2
    shapes = sorted(
        (rc.degree, rc.field_degree) for rc in rational_classes(table)
    )
    assert shapes == [(1, 1), (1, 2), (3, 1)]


def test_symmetric4_table_matches_closed_form():
    group = symmetric_group_4()
    assert group.order == 24
    table = character_table(group)
    assert table.degrees == (1, 1, 2, 3, 3)
    classes = conjugacy_classes(group)
    e = group.exponent
    # classes identified by (element order, class size), unique for S4
    known = {
        (1, 1): (1, 1, 2, 3, 3),
        (2, 6): (1, -1, 0, 1, -1),
        (2, 3): (1, 1, 2, -1, -1),
        (3, 8): (1, 1, -1, 0, 0),
        (4, 6): (1, -1, 0, -1, 1),
    }
    columns = [
        known[(group.element_order(rep), size)]
        for rep, size in zip(classes.representatives, classes.sizes)
    ]
    expected = {
        tuple(Cyclotomic.from_rational(col[i], e) for col in columns)
        for i in range(5)
    }
    assert {row.values for row in table.irreducibles} == expected


def test_quaternion_table_matches_closed_form():
    group = preset_quaternion()
    table = character_table(group)
    classes = conjugacy_classes(group)
    i = group.generator_names["i"]
    j = group.generator_names["j"]
    minus_one = group.power(i, 2)
    k = group.mul(i, j)
    by_rep = {}
    for rep in classes.representatives:
        by_rep[rep] = rep
    expected = set()
    for sign_i, sign_j in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        values = []
        for rep in classes.representatives:
            if rep == 0 or rep == minus_one:
                value = 1
            elif rep in (i, group.inv(i)):
                value = sign_i
            elif rep in (j, group.inv(j)):
                value = sign_j
            else:
                value = sign_i * sign_j
            values.append(Cyclotomic.from_rational(value, group.exponent))
        expected.add(tuple(values))
    two_dim = []
    for rep in classes.representatives:
        if rep == 0:
            two_dim.append(Cyclotomic.from_rational(2, group.exponent))
        elif rep == minus_one:
            two_dim.append(Cyclotomic.from_rational(-2, group.exponent))
        else:
            two_dim.append(Cyclotomic.zero(group.exponent))
    expected.add(tuple(two_dim))
    assert {row.values for row in table.irreducibles} == expected


# -- inner products and standard characters ------------------------------------------


def test_regular_character_multiplicities():
    group = preset_dihedral(3)
    table = character_table(group)
    reg = regular_character(group)
    for row, d in zip(table.irreducibles, table.degrees):
        assert inner_product(reg, row) == d
        assert inner_product(row, reg) == d


def test_inner_product_group_mismatch():
    with pytest.raises(GroupMismatch):
        inner_product(
            trivial_character(preset_dihedral(3)),
            trivial_character(preset_dihedral(5)),
        )


def test_permutation_character_full_and_trivial_subgroups():
    group = preset_dihedral(3)
    assert permutation_character(group, full_subgroup(group)) == trivial_character(group)
    assert permutation_character(group, trivial_subgroup(group)) == regular_character(group)


def test_permutation_character_counts_the_cosets_each_class_fixes():
    """Reference: count fixed cosets one CosetAction.image call at a time."""
    for group in group_library() + [semidirect_7_9()]:
        representatives = conjugacy_classes(group).representatives
        for subgroup in enumerate_subgroups(group):
            action = coset_action(group, subgroup)
            fixed = [
                sum(1 for i in range(action.degree) if action.image(rep, i) == i)
                for rep in representatives
            ]
            assert permutation_character(group, subgroup) == ClassFunction(
                group, tuple(Cyclotomic.from_rational(f, group.exponent) for f in fixed)
            )


def test_permutation_character_rotation_subgroup_values():
    group = preset_dihedral(3)
    r = group.generator_names["r"]
    chi = permutation_character(group, subgroup_generate(group, (r,)))
    classes = conjugacy_classes(group)
    for rep, value in zip(classes.representatives, chi.values):
        expected = 2 if group.element_order(rep) == 1 or rep in subgroup_generate(group, (r,)) else 0
        assert value == Cyclotomic.from_rational(expected, group.exponent)
    assert inner_product(chi, trivial_character(group)) == 1


def test_permutation_characters_decompose_with_nonneg_integers():
    group = preset_dihedral(3)
    table = character_table(group)
    for subgroup in enumerate_subgroups(group):
        chi = permutation_character(group, subgroup)
        recombined = None
        for row in table.irreducibles:
            mult = inner_product(chi, row)
            assert mult.denominator == 1 and mult >= 0
            term = int(mult) * row
            recombined = term if recombined is None else recombined + term
        assert recombined == chi


def test_permutation_characters_decompose_into_rational_classes():
    """rho_H rebuilt exactly as sum of n_l^H copies of each rational class."""
    for group in (preset_dihedral(5), preset_quaternion()):
        classes = rational_classes(character_table(group))
        for subgroup in enumerate_subgroups(group):
            chi = permutation_character(group, subgroup)
            recombined = 0 * chi
            for rc in classes:
                fixed = fixed_dim(rc.character, subgroup)
                assert fixed % rc.schur_index == 0
                recombined = recombined + (fixed // rc.schur_index) * rc.rational_character
            assert recombined == chi


# -- fixed dimensions ---------------------------------------------------------------


def dihedral_label_map(group):
    """Identify the five nontrivial rational classes of a dihedral group's table."""
    table = character_table(group)
    classes = rational_classes(table)
    class_of = table.classes.class_of
    r_cls = class_of[group.generator_names["r"]]
    s_cls = class_of[group.generator_names["s"]]
    e = group.exponent
    labels = {}
    for idx, rc in enumerate(classes):
        chi = rc.character
        if rc.is_trivial():
            labels["V1"] = idx
        elif rc.degree == 1:
            pair = (chi.values[r_cls].as_integer(), chi.values[s_cls].as_integer())
            labels[{(1, -1): "V2", (-1, 1): "V3", (-1, -1): "V4"}[pair]] = idx
        else:
            member_values = {
                table.irreducibles[j].values[r_cls] for j in rc.member_indices
            }
            if Cyclotomic.from_terms({1: 1, -1: 1}, e) in member_values:
                labels["V5"] = idx
            else:
                assert Cyclotomic.from_terms({2: 1, -2: 1}, e) in member_values
                labels["V6"] = idx
    assert len(labels) == 6
    return table, classes, labels


@pytest.mark.parametrize("q", [3, 5, 7])
def test_fixed_dims_match_reference_table(q):
    group = preset_dihedral(q)
    table, classes, labels = dihedral_label_map(group)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    h1 = subgroup_generate(group, (s,))
    h2 = subgroup_generate(group, (group.mul(s, r),))
    h3 = subgroup_generate(group, (r,))
    expected = {
        "H1": (0, 1, 0, 1, 1),
        "H2": (0, 0, 1, 1, 1),
        "H3": (1, 0, 0, 0, 0),
    }
    for name, subgroup in (("H1", h1), ("H2", h2), ("H3", h3)):
        row = tuple(
            fixed_dim(classes[labels[f"V{j}"]].character, subgroup) for j in range(2, 7)
        )
        assert row == expected[name]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_fixed_dim_of_central_involution_on_v6_is_two(q):
    """The r^q cell of V6: direct averaging oracle, independent of fixed_dim."""
    group = preset_dihedral(q)
    table, classes, labels = dihedral_label_map(group)
    r = group.generator_names["r"]
    chi = classes[labels["V6"]].character
    h4 = subgroup_generate(group, (group.power(r, q),))
    class_of = table.classes.class_of
    total = Cyclotomic.zero(group.exponent)
    for h in h4.members:
        total = total + chi.values[class_of[h]]
    oracle = (total * Fraction(1, h4.order)).as_rational()
    assert oracle == 2
    assert fixed_dim(chi, h4) == 2


def test_fixed_dim_trivial_subgroup_gives_degree():
    group = preset_dihedral(3)
    table = character_table(group)
    for row, d in zip(table.irreducibles, table.degrees):
        assert fixed_dim(row, trivial_subgroup(group)) == d


def test_fixed_dim_non_character_raises():
    group = preset_dihedral(3)
    half = trivial_character(group) * Fraction(1, 2)
    with pytest.raises(NonIntegralAverage):
        fixed_dim(half, subgroup_generate(group, (group.generator_names["s"],)))


def test_fixed_dim_two_routes_agree_everywhere():
    for group in (preset_dihedral(3), preset_quaternion()):
        table = character_table(group)
        classes = conjugacy_classes(group)
        for subgroup in enumerate_subgroups(group):
            for row in table.irreducibles:
                total = Cyclotomic.zero(group.exponent)
                for h in subgroup.members:
                    total = total + row.values[classes.class_of[h]]
                average = (total * Fraction(1, subgroup.order)).as_rational()
                induction = inner_product(permutation_character(group, subgroup), row)
                assert average == induction == fixed_dim(row, subgroup)


# -- fixed_dims: one row per subgroup ---------------------------------------------------

@pytest.mark.parametrize("name", ["library", "Z7:Z9"])
def test_fixed_dims_is_fixed_dim_of_each_rational_class(name):
    # the library holds the d2q groups of q = 3 and 5 (preset_dihedral)
    for group in group_library() if name == "library" else [semidirect_7_9()]:
        classes = rational_classes(character_table(group))
        for subgroup in enumerate_subgroups(group):
            expected = tuple(fixed_dim(rc.character, subgroup) for rc in classes)
            assert fixed_dims(subgroup) == expected


@pytest.mark.parametrize("name", ["library", "Z7:Z9", "Q24", "D84", "Z2^5"])
def test_fixed_space_weights_satisfy_the_frobenius_identity_class_by_class(name):
    """|H| |c| pi_H(c) = |G| |H n c| for every class c: what the fixed-space check proves.

    pi_H comes from _subgroup_weights' w[c] = |c| pi_H(c); |H n c| is counted here."""
    groups = {
        "library": group_library,
        "Z7:Z9": lambda: [semidirect_7_9()],
        "Q24": lambda: [dicyclic_group(6)],
        "D84": lambda: [preset_dihedral(21)],
        "Z2^5": lambda: [preset_elementary_abelian_2(5)],
    }[name]()
    for group in groups:
        classes = conjugacy_classes(group)
        for subgroup in enumerate_subgroups(group):
            _, w = characters._subgroup_weights(subgroup)
            members = set(subgroup.members)
            for c, elements in enumerate(classes.classes):
                meet = sum(1 for x in elements if x in members)
                assert subgroup.order * w[c] == group.order * meet, (group.order, subgroup, c)


def test_an_override_view_keeps_the_class_order_that_fixed_dims_indexes():
    group = semidirect_7_9()
    table = character_table(group)
    classes = rational_classes(table)
    overridden = next(rc.representative for rc in classes if rc.degree == 3)
    view = rational_classes(table, {overridden: 3})
    assert [rc.schur_index for rc in view] != [rc.schur_index for rc in classes]
    assert [rc.character for rc in view] == [rc.character for rc in classes]


def test_a_second_analysis_on_the_same_group_builds_no_fixed_dims_row(monkeypatch):
    group = semidirect_7_9()  # built here, so no fixed dimension is cached yet
    action = random_action(group, random.Random(19))
    lattice = enumerate_subgroups(group)
    calls = []
    original = characters._subgroup_weights  # read once per row build

    def counting(subgroup):
        calls.append(subgroup.members)
        return original(subgroup)

    monkeypatch.setattr(characters, "_subgroup_weights", counting)
    first = analyze(action)
    for subgroup in lattice:
        first.profile(subgroup)
    assert calls
    calls.clear()
    second = analyze(action)
    assert second.factors == first.factors
    for subgroup in lattice:
        assert second.profile(subgroup).fixed_dims == first.profile(subgroup).fixed_dims
    assert calls == []


def test_a_schur_override_analysis_reads_the_same_fixed_dims_rows():
    group = preset_quaternion()  # the heuristic gives the 2-dimensional row Schur index 2
    action = random_action(group, random.Random(23))
    plain = analyze(action)
    quaternion = next(rc.representative for rc in plain.rational_classes if rc.schur_index == 2)
    override = analyze(action, {quaternion: 1})
    assert [rc.schur_index for rc in override.rational_classes] != [
        rc.schur_index for rc in plain.rational_classes
    ]
    cached = rational_classes(character_table(group))
    for subgroup in enumerate_subgroups(group):
        row = plain.profile(subgroup).fixed_dims
        assert override.profile(subgroup).fixed_dims is row
        assert fixed_dims(subgroup) is row
    assert not hasattr(group, "_psi_rows")
    assert rational_classes(character_table(group)) is cached
    assert [rc.psi for rc in cached] == [
        tuple(v.coeffs[0] for v in rc.rational_character.values) for rc in plain.rational_classes
    ]
    assert [rc.schur_index * rc.field_degree for rc in cached] == [
        rc.schur_index * rc.field_degree for rc in plain.rational_classes
    ]


def test_racing_first_fixed_dims_rows_all_read_the_psi_rows():
    """The rational classes and their psi rows fill without a lock; threads that build
    a group's first rows together, switching every microsecond, all find the rows."""

    def race(subgroups):
        errors = []
        barrier = threading.Barrier(len(subgroups), timeout=60)

        def build(subgroup):
            barrier.wait()  # start together, so the first rational_classes calls overlap
            try:
                fixed_dims(subgroup)
            except Exception as exc:  # a reader that saw the classes before their rows
                errors.append(exc)

        workers = [threading.Thread(target=build, args=(h,)) for h in subgroups]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        return errors

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(150):  # a reader that misses the rows shows in about one race in twelve
            group = preset_dihedral(3)
            character_table(group)  # built alone: the race is on the rational classes
            lattice = enumerate_subgroups(group)
            assert race(lattice[:4]) == []
    finally:
        sys.setswitchinterval(interval)


def test_the_fixed_dims_cache_is_bounded_by_the_lattice():
    """One row per conjugacy class of subgroups, under the class's key."""
    rng = random.Random(1919)
    for group in group_library() + [semidirect_7_9()]:
        lattice = enumerate_subgroups(group)
        classes = sum(map(is_conjugacy_canonical, lattice))
        for _ in range(3):
            analysis = analyze(random_action(group, rng))
            for subgroup in lattice:
                analysis.profile(subgroup)
                assert len(group._fixed_dims) <= classes
                assert len(group._subgroup_classes) <= len(lattice)
        assert set(group._fixed_dims) == {subgroup_class(subgroup) for subgroup in lattice}


ROW_GROUPS = {
    "library": group_library,
    "Z7:Z9": lambda: [semidirect_7_9()],
    "D44": lambda: [preset_dihedral(11)],
    "D60": lambda: [preset_dihedral(15)],
    "Q24": lambda: [dicyclic_group(6)],
    "Q100": lambda: [dicyclic_group(25)],
}


@pytest.mark.parametrize("name", ROW_GROUPS)
def test_the_integer_rows_are_fixed_dim_of_each_class_and_of_an_override_view(name):
    for group in ROW_GROUPS[name]():
        table = character_table(group)
        classes = rational_classes(table)
        # an override on the largest degree's class, with a Schur index that divides it
        rc = max(classes, key=lambda rc: rc.degree)
        view = rational_classes(table, {rc.representative: rc.degree})
        for subgroup in enumerate_subgroups(group):
            row = fixed_dims(subgroup)
            assert row == tuple(fixed_dim(rc.character, subgroup) for rc in classes)
            assert row == tuple(fixed_dim(rc.character, subgroup) for rc in view)


@pytest.mark.parametrize("route", [0, 1], ids=["counts", "w"])
def test_one_wrong_weight_in_either_route_raises(monkeypatch, route):
    group = preset_dihedral(3)  # built here, so no row is cached yet
    original = characters._subgroup_weights
    for subgroup in enumerate_subgroups(group):
        for c in range(len(conjugacy_classes(group))):

            def perturbed(h):
                weights = original(h)
                weights[route][c] += 1
                return weights

            monkeypatch.setattr(characters, "_subgroup_weights", perturbed)
            with pytest.raises(CharacterError):
                fixed_dims(subgroup)
            monkeypatch.setattr(characters, "_subgroup_weights", original)
            assert subgroup.index not in group._fixed_dims
    classes = rational_classes(character_table(group))
    for subgroup in enumerate_subgroups(group):  # the true weights build every row
        assert fixed_dims(subgroup) == tuple(fixed_dim(rc.character, subgroup) for rc in classes)


def test_a_coset_count_off_by_one_fails_the_per_class_check_naming_its_class(monkeypatch):
    """Seeded mutation of the coset fill: one class's pi_H(c) off by one breaks
    |H| w[c] = |G| counts[c] for that class alone, and the row build names it."""
    rng = random.Random(1939)
    original = characters._fixed_cosets
    for group in (preset_dihedral(5), semidirect_7_9(), dicyclic_group(6)):  # rows built here
        lattice = enumerate_subgroups(group)
        for _ in range(6):
            subgroup, c = rng.choice(lattice), rng.randrange(len(conjugacy_classes(group)))
            delta = rng.choice((-1, 1))

            def perturbed(g, h):
                counts = original(g, h)
                counts[c] += delta
                return counts

            monkeypatch.setattr(characters, "_fixed_cosets", perturbed)
            with pytest.raises(CharacterError, match=rf"^conjugacy class {c}: "):
                fixed_dims(subgroup)
            monkeypatch.setattr(characters, "_fixed_cosets", original)
            assert subgroup_class(subgroup) not in group._fixed_dims


# -- Frobenius-Schur -------------------------------------------------------------------


def test_frobenius_schur_trivial():
    group = preset_dihedral(3)
    assert frobenius_schur(trivial_character(group)) == 1


def test_frobenius_schur_dihedral_degree2_real():
    table = character_table(preset_dihedral(3))
    for row, d in zip(table.irreducibles, table.degrees):
        if d == 2:
            assert frobenius_schur(row) == 1


def test_frobenius_schur_quaternion_degree2_quaternionic():
    table = character_table(preset_quaternion())
    row = table.irreducibles[table.degrees.index(2)]
    assert frobenius_schur(row) == -1


def test_frobenius_schur_requires_irreducible():
    group = preset_dihedral(3)
    with pytest.raises(NotIrreducible):
        frobenius_schur(regular_character(group))


def test_frobenius_schur_rejects_an_irrational_indicator_sum():
    """zeta_5 times the trivial character of C5 has norm 1, but no character does that."""
    group = build_group([Permutation((1, 2, 3, 4, 0))])
    zeta = Cyclotomic.root(5)
    chi = ClassFunction(group, tuple(v * zeta for v in trivial_character(group).values))
    assert inner_product(chi, chi) == 1
    with pytest.raises(CharacterError, match="not rational"):
        frobenius_schur(chi)


def test_frobenius_schur_trusts_only_the_certified_row_objects(monkeypatch):
    """A table row skips the norm check; an equal copy, a sum and the regular character do not."""
    group = preset_quaternion()
    table = character_table(group)
    row = table.irreducibles[table.degrees.index(2)]
    checked = []
    original = characters.inner_product

    def counting(chi, psi):
        checked.append(chi)
        return original(chi, psi)

    monkeypatch.setattr(characters, "inner_product", counting)
    assert frobenius_schur(row) == -1 and checked == []
    copy = ClassFunction(group, row.values)
    assert copy == row and copy is not row
    assert frobenius_schur(copy) == -1 and checked == [copy]
    for chi in (row + table.irreducibles[0], regular_character(group)):
        with pytest.raises(NotIrreducible):
            frobenius_schur(chi)
        assert checked[-1] is chi


# -- rational classes -------------------------------------------------------------------


def test_rational_classes_dihedral12_all_singletons():
    table = character_table(preset_dihedral(3))
    classes = rational_classes(table)
    assert len(classes) == 6
    assert all(rc.field_degree == 1 for rc in classes)
    assert classes[0].is_trivial()


def test_rational_classes_dihedral20_orbit_structure():
    table = character_table(preset_dihedral(5))
    classes = rational_classes(table)
    assert len(classes) == 6
    shapes = sorted((rc.degree, rc.field_degree) for rc in classes)
    assert shapes == [(1, 1), (1, 1), (1, 1), (1, 1), (2, 2), (2, 2)]
    for rc in classes:
        assert rc.schur_index == 1
        assert rc.rational_character.values[0].as_integer() == rc.dim_w


def test_rational_classes_elementary_abelian():
    table = character_table(preset_elementary_abelian_2(3))
    classes = rational_classes(table)
    assert len(classes) == 8
    assert all(rc.schur_index == 1 and rc.n == 1 and rc.field_degree == 1 for rc in classes)


def test_rational_classes_quaternion_heuristic_schur_index():
    table = character_table(preset_quaternion())
    classes = rational_classes(table)
    two_dim = [rc for rc in classes if rc.degree == 2]
    assert len(two_dim) == 1
    rc = two_dim[0]
    assert rc.schur_index == 2
    assert rc.schur_source == "heuristic"
    assert rc.n == 1
    assert rc.dim_w == 4


def test_rational_classes_override_is_respected_and_tagged():
    table = character_table(preset_quaternion())
    rep = next(
        rc.representative for rc in rational_classes(table) if rc.degree == 2
    )
    classes = rational_classes(table, {rep: 1})
    rc = next(rc for rc in classes if rc.degree == 2)
    assert rc.schur_index == 1
    assert rc.schur_source == "override"
    assert rc.n == 2


def test_rational_classes_override_rejections():
    table = character_table(preset_dihedral(3))
    degree_one_rep = 0
    with pytest.raises(NonIntegralN):
        rational_classes(table, {degree_one_rep: 2})
    table20 = character_table(preset_dihedral(5))
    non_rep = rational_classes(table20)[-1].member_indices[-1]
    with pytest.raises(CharacterError):
        rational_classes(table20, {non_rep: 1})


def test_rational_character_values_are_rational():
    table = character_table(preset_dihedral(7))
    for rc in rational_classes(table):
        for value in rc.rational_character.values:
            assert value.is_rational()


def all_automorphism_galois_orbits(table):
    """Reference: every one of the phi(e) automorphisms applied to the first row
    of each orbit, basis image by basis image."""
    rows = table.irreducibles
    e = table.conductor
    coords = [row.coords for row in rows]
    row_index = {c: i for i, c in enumerate(coords)}
    galois_maps = [
        [_reduce_coeffs([0] * (i * k % e) + [1], e) for i in range(len(coords[0][0]))]
        for k in range(1, e + 1)
        if gcd(k, e) == 1
    ]
    assigned = set()
    orbits = []
    for i in range(len(rows)):
        if i in assigned:
            continue
        orbit = {i}
        for basis_images in galois_maps:
            orbit.add(row_index[tuple(_combine(xs, basis_images) for xs in coords[i])])
        orbits.append(tuple(sorted(orbit)))
        assigned.update(orbit)
    return sorted(orbits)


def per_call_rational_classes(table, overrides=None):
    """Reference: every orbit, orbit sum and Schur index recomputed on each call.

    Returns the classes and, apart, each one's rational character: s times the
    ClassFunction sum of its orbit's rows."""
    overrides = dict(overrides or {})
    rows = table.irreducibles
    orbits = all_automorphism_galois_orbits(table)
    assert set(overrides) <= {members[0] for members in orbits}
    result, rational_characters = [], []
    for members in orbits:
        rep = members[0]
        degree = table.degrees[rep]
        if rep in overrides:
            s, source = overrides[rep], "override"
        else:
            s, source = (2 if frobenius_schur(rows[rep]) == -1 else 1), "heuristic"
        assert s >= 1 and degree % s == 0
        total = rows[members[0]]
        for j in members[1:]:
            total = total + rows[j]
        result.append(RationalClass(
            table=table, member_indices=members, representative=rep, degree=degree,
            field_degree=len(members), schur_index=s, schur_source=source, n=degree // s,
            psi=tuple(v.as_integer() for v in (total * s).values),
        ))
        rational_characters.append(total * s)
    return tuple(result), rational_characters


def rational_class_fields(classes, rational_characters=None):
    """Each class's fields, dim_w, central idempotent and rational character (its own
    unless given)."""
    if rational_characters is None:
        rational_characters = [rc.rational_character for rc in classes]
    return [
        [getattr(rc, name) for name in RationalClass._fields]
        + [rc.dim_w, central_idempotent(rc), chi]
        for rc, chi in zip(classes, rational_characters, strict=True)
    ]


@pytest.mark.parametrize("group", group_library(), ids=lambda g: f"order{g.order}")
def test_cached_rational_classes_match_per_call_reference(group):
    assert_rational_classes_match_per_call_reference(character_table(group))


@pytest.mark.parametrize("build", [
    semidirect_7_9, lambda: dicyclic_group(6), lambda: preset_dihedral(21),
], ids=["Z7xZ9", "Q24", "D84"])
def test_override_views_match_per_call_reference_beyond_the_library(build):
    assert_rational_classes_match_per_call_reference(character_table(build()))


def assert_rational_classes_match_per_call_reference(table):
    """The cached classes and every override view (each class, each s dividing its
    degree) equal the reference, which sums the orbit again for each call."""
    cached = rational_classes(table)
    assert rational_class_fields(cached) == rational_class_fields(*per_call_rational_classes(table))
    for rc in cached:
        for s in range(1, rc.degree + 1):
            if rc.degree % s == 0:
                overrides = {rc.representative: s}
                assert rational_class_fields(rational_classes(table, overrides)) == (
                    rational_class_fields(*per_call_rational_classes(table, overrides))
                )


def test_an_override_is_a_view_of_the_cached_class(monkeypatch):
    """No orbit is summed for an override: the cached class is rescaled, and the
    class stores psi as its only character."""
    assert "override" not in inspect.signature(characters._rational_class).parameters
    assert "rational_character" not in RationalClass._fields
    table = character_table(preset_dihedral(21))
    cached = rational_classes(table)
    calls = []
    original = characters._rational_class
    monkeypatch.setattr(
        characters, "_rational_class", lambda *args: calls.append(args) or original(*args)
    )
    for rc in cached:
        for s in (1, 2):
            if rc.degree % s == 0:
                view = rational_classes(table, {rc.representative: s})[cached.index(rc)]
                assert view.member_indices is rc.member_indices
                assert view.psi == tuple(x // rc.schur_index * s for x in rc.psi)
    assert calls == []


def test_a_heuristic_index_that_does_not_divide_the_degree_is_rejected(monkeypatch):
    """An indicator of -1 forces an even degree; were it read on a degree-1 row, the
    class would not be built."""
    table = character_table(preset_dihedral(3))
    monkeypatch.setattr(characters, "frobenius_schur", lambda chi: -1)
    with pytest.raises(NonIntegralN, match="^Schur index 2 does not divide degree 1 on row 0$"):
        characters._rational_class(table, (0,))


def test_rational_class_overrides_do_not_leak_into_the_group_cache():
    group = preset_quaternion()
    table = character_table(group)
    rep = next(rc.representative for rc in rational_classes(table) if rc.degree == 2)
    assert next(rc for rc in rational_classes(table, {rep: 1}) if rc.degree == 2).schur_index == 1
    rc = next(rc for rc in rational_classes(table) if rc.degree == 2)
    assert (rc.schur_index, rc.schur_source) == (2, "heuristic")
    action = random_action(group, random.Random(7))
    overridden = analyze(action, {rep: 1}).rational_classes
    assert next(rc for rc in overridden if rc.degree == 2).schur_source == "override"
    plain = next(rc for rc in analyze(action).rational_classes if rc.degree == 2)
    assert (plain.schur_index, plain.schur_source) == (2, "heuristic")


def test_frobenius_schur_runs_once_per_orbit_across_analyses(monkeypatch):
    calls = []
    original = characters.frobenius_schur

    def counting(chi):
        calls.append(chi)
        return original(chi)

    monkeypatch.setattr(characters, "frobenius_schur", counting)
    group, action = dihedral_action(5)
    for _ in range(5):
        analyze(action).factors
    assert len(calls) == len(rational_classes(character_table(group))) == 6


def test_override_rejections_on_a_warm_cache():
    table = character_table(preset_dihedral(5))
    classes = rational_classes(table)
    degree_two = next(rc for rc in classes if rc.degree == 2)
    with pytest.raises(CharacterError, match="not an orbit representative"):
        rational_classes(table, {degree_two.member_indices[-1]: 1})
    with pytest.raises(NonIntegralN, match="must be positive"):
        rational_classes(table, {degree_two.representative: 0})
    with pytest.raises(NonIntegralN, match="does not divide"):
        rational_classes(table, {degree_two.representative: 3})

# -- central idempotents -------------------------------------------------------------------


def test_trivial_idempotent_is_averaging_element():
    group = preset_dihedral(3)
    classes = rational_classes(character_table(group))
    k = len(conjugacy_classes(group))
    assert central_idempotent(classes[0]) == (Fraction(1, group.order),) * k


def _class_product(group, x, y):
    """x * y for central elements held as coefficients of the class sums.

    C_i C_j = sum_l a_ijl C_l, with column l of _class_matrix(group, i) listing
    the pairs (j, a_ijl).
    """
    out = [Fraction(0)] * len(x)
    for i, a in enumerate(x):
        if a:
            for l, column in enumerate(characters._class_matrix(group, i)):
                for j, count in column:
                    out[l] += a * y[j] * count
    return tuple(out)


@pytest.mark.parametrize("group_builder", [
    lambda: preset_dihedral(3),
    lambda: preset_dihedral(5),  # has Galois orbits of size 2
    lambda: preset_elementary_abelian_2(3),
    lambda: preset_quaternion(),
    alternating_group_4,  # Galois-paired linear characters
])
def test_central_idempotent_suite(group_builder):
    group = group_builder()
    classes = rational_classes(character_table(group))
    idems = [central_idempotent(rc) for rc in classes]
    partition = conjugacy_classes(group)
    k = len(partition)
    zero = (Fraction(0),) * k
    one = tuple(Fraction(int(c == partition.class_of[0])) for c in range(k))  # the identity's class
    total = zero
    for e_l in idems:
        assert len(e_l) == k
        assert _class_product(group, e_l, e_l) == e_l
        total = tuple(a + b for a, b in zip(total, e_l))
    assert total == one
    for i in range(len(idems)):
        for j in range(i + 1, len(idems)):
            assert _class_product(group, idems[i], idems[j]) == zero


IDEMPOTENT_GROUPS = {
    "library": group_library,
    "Q8|Q12|Q24": lambda: [dicyclic_group(n) for n in (2, 3, 6)],
    "A4": lambda: [alternating_group_4()],  # Galois-paired linear characters
    "Z7:Z9": lambda: [semidirect_7_9()],  # the override puts Schur index 3 on a degree-3 class
}


@pytest.mark.parametrize("name", IDEMPOTENT_GROUPS)
def test_central_idempotent_matches_the_dense_formula_at_every_element(name):
    """e_l at g is (d/(|G| s)) psi_l(g^-1), with psi_l = s * (orbit sum) of table rows."""
    for group in IDEMPOTENT_GROUPS[name]():
        table = character_table(group)
        class_of = conjugacy_classes(group).class_of
        classes = rational_classes(table)
        # an override on the largest degree's class, with a Schur index that divides it
        top = max(classes, key=lambda rc: rc.degree)
        override = rational_classes(table, {top.representative: top.degree})[classes.index(top)]
        for rc in (*classes, override):
            idem = central_idempotent(rc)
            assert len(idem) == len(table)
            scale = Fraction(rc.degree, group.order * rc.schur_index)
            for g in range(group.order):
                c = class_of[group.inv(g)]
                orbit_sum = table.irreducibles[rc.member_indices[0]].values[c]
                for j in rc.member_indices[1:]:
                    orbit_sum = orbit_sum + table.irreducibles[j].values[c]
                psi = (orbit_sum * rc.schur_index).as_rational()
                assert idem[class_of[g]] == scale * psi


# -- class function arithmetic ----------------------------------------------------------------


def test_class_function_arithmetic_and_scaling():
    group = preset_dihedral(3)
    triv = trivial_character(group)
    reg = regular_character(group)
    combo = reg + 2 * triv
    assert combo.values[0].as_integer() == group.order + 2
    assert combo - reg == 2 * triv
    assert (0 * reg) == reg - reg


# -- class-function kernels against Cyclotomic operators ---------------------------------------

KERNEL_GROUPS = {
    "D20": lambda: preset_dihedral(5),
    "Q8": preset_quaternion,
    "F20": lambda: build_group([Permutation((1, 2, 3, 4, 0)), Permutation((0, 2, 4, 1, 3))]),
}


def operator_inner_sum(a, b):
    """sum over classes of size * a * conj(b), by Cyclotomic operators (not yet / |G|)."""
    total = Cyclotomic.zero(a.group.exponent)
    for size, va, vb in zip(conjugacy_classes(a.group).sizes, a.values, b.values):
        total = total + va * vb.conjugate() * size
    return total


def operator_element_sum(chi, elements):
    """sum of chi(x) over the given elements, by Cyclotomic operators."""
    class_of = conjugacy_classes(chi.group).class_of
    total = Cyclotomic.zero(chi.group.exponent)
    for x in elements:
        total = total + chi.values[class_of[x]]
    return total


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_class_function_kernels_match_operator_reference(name, fractions):
    group = KERNEL_GROUPS[name]()
    rng = random.Random(f"kernels:{name}:{fractions}")
    table = character_table(group)
    rows = table.irreducibles
    e = group.exponent
    phi = len(cyclotomic_polynomial(e)) - 1

    def scalar(low, high):
        c = rng.randint(low, high)
        return Fraction(c, rng.randint(1, 3)) if fractions else c

    def combination():
        """A random combination of irreducibles, with its coefficients."""
        coefficients = [scalar(-2, 3) for _ in rows]
        total = 0 * rows[0]
        for c, row in zip(coefficients, rows):
            total = total + c * row
        return coefficients, total

    def random_values():
        """Independent random values per class: no Galois symmetry at all."""
        return ClassFunction(group, tuple(
            Cyclotomic(e, [scalar(-3, 3) for _ in range(phi)]) for _ in rows
        ))

    seen = {"irrational": 0, "rational": 0, "dim": 0, "not a dim": 0}
    for _ in range(6):
        (cs, a), (ds, b) = combination(), combination()
        expected = operator_inner_sum(a, b).as_rational() / group.order
        assert inner_product(a, b) == expected == sum(c * d for c, d in zip(cs, ds))
        seen["rational"] += 1
        f, g = random_values(), random_values()
        for x, y in ((f, g), (f, a), (b, g), (f, f)):
            reference = operator_inner_sum(x, y)
            if reference.is_rational():
                seen["rational"] += 1
                assert inner_product(x, y) == reference.as_rational() / group.order
            else:
                seen["irrational"] += 1
                with pytest.raises(ValueError):
                    inner_product(x, y)
        for chi in (a, f):
            for subgroup in enumerate_subgroups(group):
                average = operator_element_sum(chi, subgroup.members) * Fraction(1, subgroup.order)
                value = average.as_rational() if average.is_rational() else None
                if value is not None and value.denominator == 1 and value >= 0:
                    seen["dim"] += 1
                    assert fixed_dim(chi, subgroup) == value
                else:
                    seen["not a dim"] += 1
                    with pytest.raises(NonIntegralAverage):
                        fixed_dim(chi, subgroup)
    assert all(seen.values()), seen
    one = Fraction(1) if fractions else 1
    for row in rows:
        for chi in (row * one, row * -one):
            squares = (group.mul(x, x) for x in range(group.order))
            expected = operator_element_sum(chi, squares).as_rational() / group.order
            assert frobenius_schur(chi) == expected


def test_class_function_kernels_reject_mixed_conductors():
    group = KERNEL_GROUPS["F20"]()
    trivial = trivial_character(group)
    foreign = Cyclotomic.from_rational(1, 2 * group.exponent)
    chi = ClassFunction(group, trivial.values[:-1] + (foreign,))
    with pytest.raises(ConductorMismatch):
        inner_product(chi, trivial)
    with pytest.raises(ConductorMismatch):
        inner_product(trivial, chi)
    with pytest.raises(ConductorMismatch):
        fixed_dim(chi, full_subgroup(group))
    with pytest.raises(ConductorMismatch):
        frobenius_schur(chi)


# -- the packed Fourier lift against a per-row reference ---------------------------


def class_matrices(group):
    """Structure constants a[i][j][l] of the class sums: C_i C_j = sum_l a_ijl C_l."""
    classes = conjugacy_classes(group)
    k = len(classes)
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, z in enumerate(classes.representatives):
        for x in range(group.order):
            j = classes.class_of[group.mul(group.inv(x), z)]
            mats[classes.class_of[x]][j][l] += 1
    return mats


def sparse_columns(matrix):
    """A dense matrix as the engine stores class matrices: per column, its nonzero (row, entry)."""
    return [[(j, row[l]) for j, row in enumerate(matrix) if row[l]] for l in range(len(matrix))]


def per_row_lift(group):
    """Reference: the ordered irreducibles, each row lifted on its own by an
    O(n^2) Fourier sum per class, from eigenvectors split by every class matrix."""
    classes = conjugacy_classes(group)
    k, e, order = len(classes), group.exponent, group.order
    p = characters._find_prime(e, order)
    class_of, sizes = classes.class_of, classes.sizes
    z_root = characters._primitive_root_of_unity(p, e)
    rows = []
    mats = [sparse_columns(m) for m in class_matrices(group)]
    for vec in characters._common_eigenvectors(mats, k, p, ()):
        omega = [v * pow(vec[0], -1, p) % p for v in vec]
        sigma = sum(
            omega[l] * omega[class_of[group.inv(rep)]] * pow(sizes[l], -1, p)
            for l, rep in enumerate(classes.representatives)
        ) % p
        d = isqrt(order * pow(sigma, -1, p) % p)
        cvals = [d * omega[l] * pow(sizes[l], -1, p) % p for l in range(k)]
        values = []
        for rep in classes.representatives:
            n = group.element_order(rep)
            powers = [class_of[group.power(rep, i)] for i in range(n)]
            terms = {}
            for j in range(n):
                m_j = sum(cvals[powers[i]] * pow(z_root, -i * j * e // n, p) for i in range(n))
                m_j = m_j * pow(n, -1, p) % p
                assert m_j <= d
                if m_j:
                    terms[j * e // n] = m_j
            assert sum(terms.values()) == d
            values.append(Cyclotomic.from_terms(terms, e))
        rows.append(ClassFunction(group, tuple(values)))
    trivial = trivial_character(group)
    others = sorted(
        (row for row in rows if row != trivial),
        key=lambda row: (row.values[0].as_integer(), tuple(v.coeffs for v in row.values)),
    )
    return (trivial, *others)


LIFT_GROUPS = group_library() + [
    alternating_group_4(),
    symmetric_group_4(),
    KERNEL_GROUPS["F20"](),
    semidirect_7_9(),
]


@pytest.mark.parametrize("group", LIFT_GROUPS, ids=lambda g: f"order{g.order}")
def test_packed_lift_matches_per_row_reference(group):
    assert character_table(group).irreducibles == per_row_lift(group)


@pytest.mark.parametrize("group", LIFT_GROUPS, ids=lambda g: f"order{g.order}")
def test_sparse_class_matrices_equal_the_dense_structure_constants(group):
    dense = class_matrices(group)
    assert [characters._class_matrix(group, i) for i in range(len(dense))] == [
        sparse_columns(m) for m in dense
    ]


def recording_class_matrices(monkeypatch):
    """The classes whose matrices _class_matrix builds, in call order."""
    build, built = characters._class_matrix, []

    def recording(group, i):
        built.append(i)
        return build(group, i)

    monkeypatch.setattr(characters, "_class_matrix", recording)
    return built


def test_class_matrices_are_built_only_as_the_split_reaches_them(monkeypatch):
    """A4's first non-identity class matrix already splits all four eigenvectors."""
    built = recording_class_matrices(monkeypatch)
    assert len(character_table(alternating_group_4())) == 4
    assert built == [1]


# -- linear characters entered before the split ---------------------------------------


def alternating_group_4_by_a_double_transposition():
    """A4 under (0 1)(2 3) and (0 1 2): the 3-cycle alone maps onto A4/V4."""
    return build_group([Permutation((1, 0, 3, 2)), Permutation((1, 2, 0, 3))], ["v", "c"])


def dihedral_group(n):
    """D_2n on the n-gon under a rotation r and a reflection s."""
    return build_group([Permutation(tuple((x + 1) % n for x in range(n))),
                        Permutation(tuple((-x) % n for x in range(n)))], ["r", "s"])


# each group with the closed-form count of the linear characters its generators give
LINEAR_COUNTS = {
    **{f"D{4 * q}": (lambda q=q: preset_dihedral(q), 4) for q in (1, 2, 3, 5, 7, 10)},
    **{f"D{2 * n}": (lambda n=n: dihedral_group(n), 2) for n in (3, 5, 7)},
    **{f"Z2^{t}": (lambda t=t: preset_elementary_abelian_2(t), 2 ** t) for t in range(1, 7)},
    "Q8": (preset_quaternion, 4),
    "A4": (alternating_group_4_by_a_double_transposition, 3),
    "F20": (KERNEL_GROUPS["F20"], 4),
    "Z7:Z9": (semidirect_7_9, 9),
    "C30": (lambda: cyclic_group(30), 30),
    # partial: no linear character sends one generator to 1 and the other not
    "A4 under two 3-cycles": (alternating_group_4, 1),
    "S4": (symmetric_group_4, 1),
}


@pytest.mark.parametrize("name", LINEAR_COUNTS)
def test_linear_characters_are_homomorphisms_closed_under_galois(name):
    """Every row is a homomorphism into mu_e, checked over all pairs with group.mul;
    the rows are distinct, the trivial one first, as many as the closed form says,
    and closed under lambda -> lambda^u for every unit u."""
    make, count = LINEAR_COUNTS[name]
    group = make()
    class_of, e = conjugacy_classes(group).class_of, group.exponent
    rows = characters._linear_characters(group)
    assert len(rows) == count == len(set(map(tuple, rows)))
    assert set(rows[0]) == {0}
    for row in rows:
        exponent = [row[c] for c in class_of]  # lambda(x) = zeta_e^exponent[x]
        for x in range(group.order):
            for y in range(group.order):
                assert exponent[group.mul(x, y)] == (exponent[x] + exponent[y]) % e
    found = set(map(tuple, rows))
    for u in every_unit(e):
        assert {tuple(a * u % e for a in row) for row in found} == found


@pytest.mark.parametrize("t", [3, 4, 5, 6])
def test_elementary_abelian_tables_build_no_class_matrix(monkeypatch, t):
    built = recording_class_matrices(monkeypatch)
    table = character_table(preset_elementary_abelian_2(t))
    assert len(table) == 2 ** t and set(table.degrees) == {1}
    assert built == []


@pytest.mark.parametrize("q, kernels", [(15, 6), (61, 2)], ids=["D60", "D244"])
def test_the_first_split_of_the_complement_derives_its_kernels(monkeypatch, q, kernels):
    """D60's and D244's first split, of the complement of their four linear rows,
    computes 6 and 2 kernels: one per Galois orbit of the other rows, as the split of
    the whole space did, which computed 2 more, for the double roots 2 and -2 of the
    linear rows (8 and 4).  Without the derivation it computes one per eigenvalue."""
    eigenspaces, computed, first = characters._eigenspaces, recording_kernels(monkeypatch), []

    def recording(matrix, p, images, hints, extension):
        spaces = eigenspaces(matrix, p, images, hints, extension)
        first.append((len(matrix), len(computed), len(spaces)))
        return spaces

    monkeypatch.setattr(characters, "_eigenspaces", recording)
    table = character_table(preset_dihedral(q))
    k = len(table)
    assert first[0] == (k - 4, kernels, k - 4)
    split = characters._common_eigenvectors
    monkeypatch.setattr(characters, "_common_eigenvectors",
                        lambda mats, n, p, images, entered: split(mats, n, p, [], entered))
    first.clear()
    computed.clear()
    underived = character_table(preset_dihedral(q))
    assert [row.values for row in underived.irreducibles] == [row.values for row in table.irreducibles]
    assert first[0] == (k - 4, k - 4, k - 4)


def recording_root_calls(monkeypatch):
    """Each outer _poly_roots_mod call, in call order, as [hints, nested]: nested is
    whether it called itself to scan the quotient its hints left.  A call without
    hints scans F_p, so the scans are the calls without hints and the nested ones."""
    find, calls, depth = characters._poly_roots_mod, [], []

    def recording(coeffs, p, hints=()):
        if depth:
            calls[-1][1] = True
        else:
            calls.append([tuple(hints), False])
        depth.append(hints)
        try:
            return find(coeffs, p, hints)
        finally:
            depth.pop()

    monkeypatch.setattr(characters, "_poly_roots_mod", recording)
    return calls


def test_the_z2_5_split_scans_f_p_once_per_class_matrix_it_reads(monkeypatch):
    """Every character of Z2^5 is linear and entered before the split, so it reads
    no class matrix and scans F_p never, where the split of the whole space read 5
    matrices and scanned 5 times."""
    built = recording_class_matrices(monkeypatch)
    calls = recording_root_calls(monkeypatch)
    assert len(character_table(preset_elementary_abelian_2(5))) == 32
    assert built == [] and calls == []


def elementary_abelian_times_s3(t):
    """Z2^t x S3 on 2t + 3 points: generators e1..et, then a transposition and a 3-cycle."""
    n = 2 * t + 3

    def cycle(*points):
        images = list(range(n))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
        return Permutation(tuple(images))

    gens = [cycle(2 * i, 2 * i + 1) for i in range(t)]
    return build_group(gens + [cycle(2 * t, 2 * t + 1), cycle(2 * t, 2 * t + 1, 2 * t + 2)])


def test_the_z2_3_x_s3_split_scans_f_p_once_per_class_matrix_it_reads(monkeypatch):
    """Z2^3 x S3 enters its 16 linear rows; the complement, spanned by its 8 rows of
    degree 2, splits under 3 class matrices into 1 + 2 + 4 spaces.  Each matrix has
    the eigenvalues 1 and -1 only there: the first space each matrix reads scans F_p
    for them and every later one divides them out, so 3 matrices make 3 scans, where
    a scan per space made 7."""
    built = recording_class_matrices(monkeypatch)
    calls = recording_root_calls(monkeypatch)
    table = character_table(elementary_abelian_times_s3(3))
    assert table.degrees == (1,) * 16 + (2,) * 8
    assert len(built) == 3 and len(calls) == 7
    assert sum(not hints or nested for hints, nested in calls) == 3


def test_some_refined_spaces_take_every_root_from_hints_and_some_scan_a_remainder(monkeypatch):
    """Over fresh copies of the lift groups: Z7:Z9 has a refined space whose
    eigenvalues are not all among its matrix's earlier ones."""
    calls = recording_root_calls(monkeypatch)
    for group in group_library() + [alternating_group_4(), symmetric_group_4(),
                                    KERNEL_GROUPS["F20"](), semidirect_7_9()]:
        character_table(group)
    assert {nested for hints, nested in calls if hints} == {False, True}


FIRING_GROUPS = {
    "D20": lambda: preset_dihedral(5),
    "Z2^3": lambda: preset_elementary_abelian_2(3),
    "Q8": preset_quaternion,
    "A4": lambda: alternating_group_4(),
    "S4": symmetric_group_4,
    "Z7:Z9": semidirect_7_9,
}
SPLITTING = ["D20", "A4", "S4", "Z7:Z9"]  # their complements of the entered rows still split
ENTERING = ["Z2^3", "Q8", "D20", "Z7:Z9"]  # they enter more rows than the trivial one


def read_classes(group):
    """The classes where some row of degree above 1 is nonzero: the complement of
    the entered rows holds every such row, so the split reads the columns there."""
    table = character_table(group)
    rows = [row for row, d in zip(table.irreducibles, table.degrees) if d > 1]
    return [c for c in range(len(table.classes)) if any(any(row.values[c].coeffs) for row in rows)]


@pytest.mark.parametrize("name", SPLITTING)
@pytest.mark.parametrize("which", [0, -1])
def test_a_perturbed_class_matrix_entry_is_rejected(monkeypatch, name, which):
    """One nonzero structure constant of the first class matrix the split reads, off
    by one, in a column the split reads."""
    build, read = characters._class_matrix, read_classes(FIRING_GROUPS[name]())

    def perturbed(group, i):
        columns = build(group, i)
        if i == 1:
            l, n = [(l, n) for l in read for n in range(len(columns[l]))][which]
            j, a = columns[l][n]
            columns[l][n] = (j, a + 1)
        return columns

    monkeypatch.setattr(characters, "_class_matrix", perturbed)
    with pytest.raises(CharacterError):
        character_table(FIRING_GROUPS[name]())


@pytest.mark.parametrize("name", ENTERING)
@pytest.mark.parametrize("which", [0, -1])
@pytest.mark.parametrize("how", ["entry", "sum"])
def test_a_perturbed_entered_row_is_rejected(monkeypatch, name, which, how):
    """The split's perturbations applied to an entered row: one entry of its central
    character off by one, or the central character of another entered row added."""
    split = characters._common_eigenvectors

    def perturbed(mats, n, p, images, entered):
        v, form = entered[which]
        if how == "entry":
            v = [v[0], (v[1] + 1) % p, *v[2:]]
        else:
            v = [(x + y) % p for x, y in zip(v, entered[which - 1][0])]
        entered[which] = v, form
        return split(mats, n, p, images, entered)

    monkeypatch.setattr(characters, "_common_eigenvectors", perturbed)
    with pytest.raises(CharacterError):
        character_table(FIRING_GROUPS[name]())


@pytest.mark.parametrize("name", ENTERING)
@pytest.mark.parametrize("row", [1, -1])
@pytest.mark.parametrize("generator", [0, -1])
def test_a_linear_character_changed_on_one_generator_is_rejected(monkeypatch, name, row, generator):
    """One entered row's value on one generator moved to the next e-th root of unity:
    the row is no longer a homomorphism, and the table's checks reject it."""
    find = characters._linear_characters

    def changed(group):
        rows = find(group)
        g = sorted(group.generator_names.values())[generator]
        c = conjugacy_classes(group).class_of[g]
        rows[row][c] = (rows[row][c] + 1) % group.exponent
        return rows

    monkeypatch.setattr(characters, "_linear_characters", changed)
    with pytest.raises(CharacterError):
        character_table(FIRING_GROUPS[name]())


def test_the_restriction_rejects_a_space_the_matrix_does_not_preserve():
    """A space is (pivots, others, rows).  The line of the identity class's unit vector
    is not invariant, since C_1 C_0 = C_1: its image e_1 is 0 at the pivot but 1 at an
    other column, so the reconstruction fails there.  The whole space is invariant."""
    group = preset_dihedral(5)
    columns = characters._class_matrix(group, 1)
    k, p = len(columns), characters._find_prime(group.exponent, group.order)
    line = ([0], list(range(1, k)), [[0]] * (k - 1))
    with pytest.raises(CharacterError, match="does not preserve a split subspace"):
        characters._restriction(columns, line, p)
    whole = (list(range(k)), [], [])
    dense = [[0] * k for _ in range(k)]
    for l, column in enumerate(columns):
        for j, a in column:
            dense[j][l] = a
    assert characters._restriction(columns, whole, p) == dense


def test_entered_forms_that_leave_the_identity_class_zero_are_rejected():
    """A form that vanishes off the identity class pivots there: every vector of the
    complement is then 0 at the identity class, so it holds no central character."""
    group = preset_dihedral(5)
    mats = [sparse_columns(m) for m in class_matrices(group)]
    k, p = len(mats), characters._find_prime(group.exponent, group.order)
    delta = [1] + [0] * (k - 1)
    with pytest.raises(CharacterError, match="vanishes at the identity class"):
        characters._common_eigenvectors(mats[1:], k, p, (), [(delta, delta)])


@pytest.mark.parametrize("name", SPLITTING)
def test_a_wrong_eigenspace_vector_is_rejected(monkeypatch, name):
    """v + u, with u from another eigenspace, is never an eigenvector: A(v + u) = lam v + mu u."""
    eigenspaces = characters._eigenspaces

    def wrong(matrix, p, images, hints, extension):
        spaces = eigenspaces(matrix, p, images, hints, extension)
        if len(spaces) > 1:
            (_, vs), (_, us) = spaces[:2]
            vs[0] = [(v + u) % p for v, u in zip(vs[0], us[0])]
        return spaces

    monkeypatch.setattr(characters, "_eigenspaces", wrong)
    with pytest.raises(CharacterError, match="restr \\* v = lambda \\* v"):
        character_table(FIRING_GROUPS[name]())


@pytest.mark.parametrize("name", ["D20", "A4"])
@pytest.mark.parametrize("which", [0, -1])
def test_a_perturbed_derived_eigenvector_is_rejected(monkeypatch, name, which):
    """One entry of a Galois-derived eigenvector of the first split, moved by 1 mod p."""
    eigenspaces, computed, perturbed = characters._eigenspaces, recording_kernels(monkeypatch), []

    def perturbing(matrix, p, images, hints, extension):
        spaces = eigenspaces(matrix, p, images, hints, extension)
        derived = [vectors[0] for lam, vectors in spaces if lam not in computed]
        if derived and not perturbed:
            v = derived[which]
            v[1] = (v[1] + 1) % p
            perturbed.append(v)
        return spaces

    monkeypatch.setattr(characters, "_eigenspaces", perturbing)
    with pytest.raises(CharacterError, match="restr \\* v = lambda \\* v"):
        character_table(FIRING_GROUPS[name]())
    assert perturbed


@pytest.mark.parametrize("name", ["D20", "Q8", "A4", "Z7:Z9"])
def test_a_row_permutation_shifted_by_one_row_is_rejected(monkeypatch, name):
    """sigma_u mod p, off by one row: the lift walks each divisor's multiplicities
    and each lifted column through it, and the sums or the residues catch it."""
    walk, shifted = characters._walk, []

    def shifting(key, values, moves):
        moves = [(step, perm[1:] + perm[:1]) for step, perm in moves]
        shifted.extend(perm for _, perm in moves if perm)
        return walk(key, values, moves)

    monkeypatch.setattr(characters, "_walk", shifting)
    with pytest.raises(CharacterError, match="do not sum to the degree|disagrees with the split"):
        character_table(FIRING_GROUPS[name]())
    assert shifted


def first_split(group):
    """The first class matrix the split reads, dense, with the table's prime and
    the class permutations l -> class of rep_l^u for each unit generator u."""
    classes = conjugacy_classes(group)
    k, e = len(classes), group.exponent
    dense = [[0] * k for _ in range(k)]
    for l, sparse in enumerate(characters._class_matrix(group, 1)):
        for j, a in sparse:
            dense[j][l] = a
    images = [[powers[u % len(powers)] for powers in classes.power_map]
              for u in characters._unit_generators(e)]
    return dense, characters._find_prime(e, group.order), images


def test_first_split_of_d60_computes_a_kernel_per_row_orbit_or_multiple_root(monkeypatch):
    group = preset_dihedral(15)
    matrix, p, images = first_split(group)
    computed = recording_kernels(monkeypatch)
    spaces = characters._eigenspaces(matrix, p, images)
    calls = len(computed)
    multiple = sum(len(vectors) > 1 for _, vectors in spaces)
    assert calls <= len(rational_classes(character_table(group))) + multiple
    assert calls < len(spaces)


def test_semidirect_7_9_table_shape():
    table = character_table(semidirect_7_9())
    assert len(table) == 15
    assert table.degrees == (1,) * 9 + (3,) * 6


@pytest.mark.parametrize("n", [12, 30, 105])
def test_cyclic_table_matches_closed_form(n):
    """chi_a(c^b) = zeta_n^(ab): singleton classes, non-real values.  Reduced powers
    of zeta_105 have a coordinate 2, so the certificate's bound has M = 2."""
    group = build_group([Permutation(tuple((x + 1) % n for x in range(n)))], ["c"])
    c = group.generator_names["c"]
    classes = conjugacy_classes(group)
    assert classes.sizes == (1,) * n
    exponent_of = {group.power(c, b): b for b in range(n)}
    expected = {
        tuple(Cyclotomic.root(n, a * exponent_of[rep] % n) for rep in classes.representatives)
        for a in range(n)
    }
    table = character_table(group)
    assert len(table) == n
    assert {row.values for row in table.irreducibles} == expected
    assert any(v != v.conjugate() for row in table.irreducibles for v in row.values)


@pytest.mark.parametrize(
    "group", group_library() + [build_group([Permutation((0,))])], ids=lambda g: f"order{g.order}"
)
def test_identity_class_matrix_never_splits(group):
    mats = [sparse_columns(m) for m in class_matrices(group)]
    k = len(mats)
    p = characters._find_prime(group.exponent, group.order)
    split = characters._common_eigenvectors(mats[1:], k, p, ())
    assert len(split) == k
    assert split == characters._common_eigenvectors(mats, k, p, ())


@pytest.mark.parametrize("make_group", [
    lambda: preset_dihedral(5),
    lambda: preset_elementary_abelian_2(3),
    preset_quaternion,
    alternating_group_4,
    semidirect_7_9,
], ids=["D20", "Z2^3", "Q8", "A4", "Z7:Z9"])
@pytest.mark.parametrize("which", [0, -1])
def test_lift_checks_reject_a_perturbed_eigenvector(monkeypatch, make_group, which):
    split = characters._common_eigenvectors

    def perturbed(mats, n, p, images, entered):
        vectors = split(mats, n, p, images, entered)
        vectors[which] = [vectors[which][0], (vectors[which][1] + 1) % p, *vectors[which][2:]]
        return vectors

    monkeypatch.setattr(characters, "_common_eigenvectors", perturbed)
    with pytest.raises(CharacterError):
        character_table(make_group())


# -- the power map, derived columns and Frobenius-Schur squares -------------------


@functools.cache
def dihedral_244():
    return preset_dihedral(61)


with_lift_groups_and_d244 = pytest.mark.parametrize(
    "make_group", [lambda g=g: g for g in LIFT_GROUPS] + [dihedral_244],
    ids=[f"order{g.order}" for g in LIFT_GROUPS] + ["D244"],
)


@with_lift_groups_and_d244
def test_each_derived_eigenvector_spans_the_kernel_it_replaces(make_group):
    """The first split's eigenspaces, kernel by kernel (as when nothing is derived)
    and with Galois-derived lines: the same eigenvalues and the same echelon bases."""
    matrix, p, images = first_split(make_group())
    spaces = characters._eigenspaces(matrix, p, images)
    plain = characters._eigenspaces(matrix, p, ())
    assert [lam for lam, _ in spaces] == [lam for lam, _ in plain]
    for (_, vectors), (_, kernel) in zip(spaces, plain):
        assert len(vectors) == len(kernel)
        assert characters._rref_mod(vectors, p) == characters._rref_mod(kernel, p)


@with_lift_groups_and_d244
def test_power_map_matches_group_powers(make_group):
    group = make_group()
    classes = conjugacy_classes(group)
    for rep, powers in zip(classes.representatives, classes.power_map):
        assert len(powers) == group.element_order(rep)
        assert powers == tuple(classes.class_of[group.power(rep, i)] for i in range(len(powers)))


def column_orbit_representatives(classes):
    """The least class of each orbit of x -> x^u, u a unit, from the power map."""
    representatives = set()
    for powers in classes.power_map:
        n = len(powers)
        representatives.add(min(powers[u % n] for u in range(1, n + 1) if gcd(u, n) == 1))
    return representatives


@pytest.mark.parametrize("kind", ["derived", "representative"])
@pytest.mark.parametrize("which", [0, -1])
def test_lift_rejects_a_perturbed_eigenvector_on_any_column(monkeypatch, kind, which):
    """One eigenvector entry moved by +1 mod p, on each D60 class that is not
    its column-orbit representative (its column is derived by sigma_u), or on
    each representative other than the identity class."""
    group = preset_dihedral(15)
    classes = conjugacy_classes(group)
    representatives = column_orbit_representatives(classes)
    targets = [c for c in range(1, len(classes)) if (c in representatives) == (kind != "derived")]
    assert len(targets) >= 2
    split = characters._common_eigenvectors
    for c in targets:
        def perturbed(mats, n, p, images, entered, c=c):
            vectors = split(mats, n, p, images, entered)
            vectors[which][c] = (vectors[which][c] + 1) % p
            return vectors

        monkeypatch.setattr(characters, "_common_eigenvectors", perturbed)
        with pytest.raises(CharacterError):
            character_table(group)


def indicator_by_squaring(chi):
    """Reference: (1/|G|) sum of chi(g^2), squaring every element of the group."""
    group = chi.group
    class_of = conjugacy_classes(group).class_of
    counts = [0] * len(chi.values)
    for g in range(group.order):
        counts[class_of[group.mul(g, g)]] += 1
    total = sum((n * v for n, v in zip(counts, chi.values)), Cyclotomic.zero(group.exponent))
    return total.as_rational() / group.order


@with_lift_groups_and_d244
def test_frobenius_schur_counts_squares_per_class_without_mul(make_group, monkeypatch):
    group = make_group()
    rows = character_table(group).irreducibles
    expected = [indicator_by_squaring(row) for row in rows]

    def no_mul(self, i, j):
        raise AssertionError("frobenius_schur multiplied group elements")

    monkeypatch.setattr(FiniteGroup, "mul", no_mul)
    assert [frobenius_schur(row) for row in rows] == expected


# -- the dicyclic groups against their closed-form tables -------------------------


def closed_form_dicyclic_rows(group, n):
    """The four linear rows and psi_1..psi_(n-1) of Q_4n, built without the engine.

    A linear row sends a to alpha = +-1 and x to a square root of alpha^n;
    psi_j(a^k) = zeta_2n^(jk) + zeta_2n^(-jk) and psi_j(a^k x) = 0.
    """
    e, m = group.exponent, 2 * n
    # (s, k) of each class representative a^k x^s, read off the image of the identity point
    reps = conjugacy_classes(group).representatives
    words = [divmod(group.elements[rep].images[0], m) for rep in reps]
    linear = [
        tuple(Cyclotomic.root(e, (k * alpha + s * beta) % e) for s, k in words)
        for alpha in (0, e // 2)
        for beta in range(e)
        if 2 * beta % e == n * alpha % e
    ]
    step = e // m
    psi = [
        tuple(
            Cyclotomic.root(e, j * k * step) + Cyclotomic.root(e, -j * k * step) if s == 0
            else Cyclotomic.zero(e)
            for s, k in words
        )
        for j in range(1, n)
    ]
    return linear, psi


@pytest.mark.parametrize("n", [2, 3, 6, 25, 50])
def test_dicyclic_table_matches_closed_form(n):
    group = dicyclic_group(n)
    linear, psi = closed_form_dicyclic_rows(group, n)
    assert len(linear) == 4 and len(set(linear + psi)) == n + 3
    table = character_table(group)
    rows = {row.values: row for row in table.irreducibles}
    assert set(rows) == set(linear + psi)
    for j, values in enumerate(psi, start=1):
        assert frobenius_schur(rows[values]) == (-1) ** j


# -- the Galois action on the rows and the orthonormality certificate --------------


def cyclic_group(n):
    return build_group([Permutation(tuple((x + 1) % n for x in range(n)))], ["c"])


GALOIS_GROUPS = {
    **{f"lib{i}-order{g.order}": (lambda g=g: g) for i, g in enumerate(group_library())},
    "Z7:Z9": semidirect_7_9,
    "C12": lambda: cyclic_group(12),
    "C30": lambda: cyclic_group(30),
    "D124": lambda: preset_dihedral(31),
}


@functools.cache
def galois_group(name):
    return GALOIS_GROUPS[name]()


def units(e):
    return {u for u in range(e) if gcd(u, e) == 1}


def unit_closure(generators, e):
    """The subgroup of (Z/e)^x generated by the given units."""
    generated = {1 % e}
    frontier = list(generated)
    for x in frontier:
        for g in generators:
            if x * g % e not in generated:
                generated.add(x * g % e)
                frontier.append(x * g % e)
    return generated


def replace_value(row, c, delta):
    values = list(row.values)
    values[c] = values[c] + delta
    return ClassFunction(row.group, tuple(values))


PSI_12 = 318665857834031151167461  # least strong pseudoprime to the prime bases up to 37


def every_unit(e):
    return tuple(u for u in range(1, e + 1) if gcd(u, e) == 1)


def intern(rows):
    """The rows as the table holds them: its distinct values, and each row as a tuple of their ids."""
    ids = {}
    cells = [tuple(ids.setdefault(v, len(ids)) for v in row.values) for row in rows]
    return list(ids), cells


def certify(rows, e):
    """The table's own checks on given rows: Galois lookup, then every pair at one root."""
    values, cells = intern(rows)
    characters._galois_permutations(values, cells, characters._unit_generators(e))
    return characters._certify_orthonormality(rows[0].group, values, cells, (1,))


@pytest.mark.parametrize("e", range(1, 257))
def test_unit_generators_are_greedy_and_generate_every_unit(e):
    generators = characters._unit_generators(e)
    for n, u in enumerate(generators):
        before = unit_closure(generators[:n], e)
        assert u == min(units(e) - before)
    assert unit_closure(generators, e) == units(e) | {1 % e}
    assert 2 ** len(generators) <= len(units(e) | {1 % e})


@pytest.mark.parametrize("name", GALOIS_GROUPS)
def test_table_galois_maps_rows_by_sigma_u(name):
    """Row galois[g][i] is sigma_u(row i), value by value, for the g-th unit generator."""
    table = character_table(galois_group(name))
    rows = table.irreducibles
    generators = characters._unit_generators(table.conductor)
    assert len(table.galois) == len(generators)
    for u, perm in zip(generators, table.galois):
        assert sorted(perm) == list(range(len(rows)))
        for i, row in enumerate(rows):
            assert tuple(v.galois(u) for v in row.values) == rows[perm[i]].values


@pytest.mark.parametrize("name", GALOIS_GROUPS)
def test_equal_table_values_are_one_object(name):
    """The table reads its rows from one pool of distinct values, so equal values are one object."""
    table = character_table(galois_group(name))
    cells = [v for row in table.irreducibles for v in row.values]
    assert len({id(v) for v in cells}) == len({v.coeffs for v in cells})


@pytest.mark.parametrize("name", ["Z7:Z9", "C12", "C30", "D124"])
def test_split_class_permutations_are_the_table_galois_action(monkeypatch, name):
    """The split's permutation for the g-th unit generator u reads row i at the
    class of rep^u: that is row galois[g][i], sigma_u(chi)(x) = chi(x^u)."""
    split, seen = characters._common_eigenvectors, []

    def recording(mats, n, p, images, entered):
        seen.append(images)
        return split(mats, n, p, images, entered)

    monkeypatch.setattr(characters, "_common_eigenvectors", recording)
    table = character_table(GALOIS_GROUPS[name]())
    rows = table.irreducibles
    [images] = seen
    assert len(images) == len(table.galois) > 0
    for pi, perm in zip(images, table.galois):
        for i, row in enumerate(rows):
            assert tuple(row.values[l] for l in pi) == rows[perm[i]].values


@pytest.mark.parametrize("name", GALOIS_GROUPS)
def test_rational_class_orbits_match_every_automorphism(name):
    table = character_table(galois_group(name))
    orbits = [rc.member_indices for rc in rational_classes(table)]
    assert orbits == all_automorphism_galois_orbits(table)


def certificate_bound(rows):
    """R = M |G| (n^2 + 1), computed apart from the engine: M the largest coordinate
    of a reduced zeta_e^s, n the largest coordinate 1-norm of a value."""
    group = rows[0].group
    e = group.exponent
    m = max(abs(x) for s in range(e) for x in Cyclotomic.root(e, s).coeffs)
    n = max(sum(map(abs, v.coeffs)) for row in rows for v in row.values)
    return m * group.order * (n * n + 1)


@pytest.mark.parametrize("name", GALOIS_GROUPS)
def test_certified_pairs_expand_to_every_pair(name):
    """The table's certificate checks every ordered pair at one root w of Phi_e mod q.
    Row i at w^u is row sigma_u(i) at w, so those pairs are every pair at every
    root, and checking every root gives the same verdict and the same q."""
    table = character_table(galois_group(name))
    rows, e = list(table.irreducibles), table.conductor
    group, (values, cells) = table.group, intern(rows)
    q = characters._certify_orthonormality(group, values, cells, (1,))
    assert q == characters._certify_orthonormality(group, values, cells, every_unit(e))
    bound = 2 * certificate_bound(rows)
    assert q > bound and q % e == 1 % e and is_prime(q)
    assert not any(is_prime(p) for p in range(bound + 1, q) if p % e == 1 % e)
    w = characters._primitive_root_of_unity(q, e)
    assert [t for t in range(1, e + 1) if pow(w, t, q) == 1] == [e]

    def at(row, u):
        return [sum(x * pow(w, u * t, q) for t, x in enumerate(v.coeffs)) % q for v in row.values]

    for u, perm in zip(characters._unit_generators(e), table.galois):
        for i, row in enumerate(rows):
            assert at(row, u) == at(rows[perm[i]], 1)


def test_a_multiple_of_a_small_prime_is_rejected():
    """The row (2, 1) on Z2 has <x, x> = 5/2, so f = 2(5/2 - 1) = 3: q = 3 would
    accept it, and the least prime above 2R = 20 must reject it."""
    group = cyclic_group(2)
    row = ClassFunction(group, (Cyclotomic.from_rational(2, 2), Cyclotomic.one(2)))
    assert inner_product(row, row) == Fraction(5, 2)
    assert certificate_bound([row]) == 10
    with pytest.raises(CharacterError, match="row orthonormality failed"):
        characters._certify_orthonormality(group, *intern([row]), (1,))


def test_a_bound_beyond_psi12_raises_no_suitable_prime():
    """n = 10^12 puts 2R above psi_12, where no prime is proven: the search stops at once."""
    group = cyclic_group(2)
    row = ClassFunction(group, (Cyclotomic.from_rational(10 ** 12, 2), Cyclotomic.one(2)))
    assert 2 * certificate_bound([row]) >= PSI_12
    with pytest.raises(characters.NoSuitablePrime):
        characters._certify_orthonormality(group, *intern([row]), (1,))


@pytest.mark.parametrize("name", GALOIS_GROUPS)
def test_perturbing_one_value_of_one_row_is_caught(name):
    group = galois_group(name)
    table = character_table(group)
    rows = list(table.irreducibles)
    e, k = table.conductor, len(rows)
    rng = random.Random(f"one value:{name}")
    for r in sorted(rng.sample(range(k), min(k, 6))):
        c = rng.randrange(k)
        perturbed = rows[:]
        perturbed[r] = replace_value(rows[r], c, Cyclotomic.one(e))
        with pytest.raises(CharacterError):
            certify(perturbed, e)
        # sigma_u(row + zeta at c) is no row: two genuine rows never differ in one
        # class only (their difference has norm 2), and zeta^u != zeta when e > 2
        perturbed[r] = replace_value(rows[r], c, Cyclotomic.root(e))
        if e > 2:
            with pytest.raises(CharacterError, match="left the character table"):
                characters._galois_permutations(*intern(perturbed), characters._unit_generators(e))
        else:
            with pytest.raises(CharacterError):
                certify(perturbed, e)


@pytest.mark.parametrize("name", GALOIS_GROUPS)
def test_perturbing_a_galois_orbit_consistently_is_caught(name):
    """Row sigma(chi) gets sigma(delta) with delta in Q(chi): the Galois lookup
    still passes with the same permutations, so a representative pair must fail."""
    group = galois_group(name)
    table = character_table(group)
    rows = list(table.irreducibles)
    e, k = table.conductor, len(rows)
    rng = random.Random(f"orbit:{name}")
    for rc in rational_classes(table):
        chi = rows[rc.representative]
        irrational = [v for v in chi.values if not v.is_rational()]
        delta = irrational[0] if irrational else Cyclotomic.one(e)
        c = rng.randrange(k)
        perturbed = rows[:]
        for j in rc.member_indices:
            u = next(u for u in units(e) if tuple(v.galois(u) for v in chi.values) == rows[j].values)
            perturbed[j] = replace_value(rows[j], c, delta.galois(u))
        generators = characters._unit_generators(e)
        assert characters._galois_permutations(*intern(perturbed), generators) == table.galois
        with pytest.raises(CharacterError):
            characters._certify_orthonormality(group, *intern(perturbed), (1,))


def linear_character_rows(e):
    """C_e with its class of c^k at index k, and row j: c^k -> zeta_e^(jk)."""
    group = cyclic_group(e)
    c = group.generator_names["c"]
    exponents = [next(k for k in range(e) if group.power(c, k) == rep)
                 for rep in conjugacy_classes(group).representatives]
    return group, [
        ClassFunction(group, tuple(Cyclotomic.root(e, j * k) for k in exponents))
        for j in range(e)
    ]


def random_coordinates(rng, e, scale):
    """A cyclotomic integer whose nonzero coordinates are near +-scale."""
    phi = len(cyclotomic_polynomial(e)) - 1
    return Cyclotomic(e, [
        rng.choice((-1, 1)) * (scale + rng.randint(-scale // 10, scale // 10))
        if rng.random() < 0.6 else 0
        for _ in range(phi)
    ])


def exact_pair_fails(a, b, expected):
    try:
        return inner_product(a, b) != expected
    except characters.IrrationalInnerProduct:
        return True


@pytest.mark.parametrize("e, trials", [(1, 400), (2, 300), (3, 150), (7, 60), (12, 40), (30, 20), (105, 6), (122, 8)])
def test_certificate_agrees_with_exact_inner_products(e, trials):
    """Random integer rows, not closed under Galois, so every unit is checked: the
    packed certificate raises exactly when some exact inner product is not [i == j].

    Rows are linear characters of C_e times random units +-zeta^s (non-real when
    e > 2), some with one value moved by a small or a ~10^6-coordinate cyclotomic
    integer, some wholly random with ~10^6 coordinates.  Reduced powers of zeta_105
    and Phi_105 have coefficients of size 2; the other conductors have 1.
    """
    group, characters_of = linear_character_rows(e)
    rng = random.Random(f"certificate:{e}")
    outcomes = set()
    for trial in range(trials):
        rows = []
        for j in rng.sample(range(e), rng.randint(1, min(e, 3))):
            unit = Cyclotomic.root(e, rng.randrange(e)) * rng.choice((-1, 1))
            rows.append(ClassFunction(characters_of[j].group,
                                      tuple(v * unit for v in characters_of[j].values)))
        kind = rng.random() if trial else 1.0  # the first trial keeps its rows
        if kind < 0.6:
            r = rng.randrange(len(rows))
            delta = random_coordinates(rng, e, rng.choice((1, 10 ** 6)))
            rows[r] = replace_value(rows[r], rng.randrange(e), delta)
        elif kind < 0.8:
            rows[-1] = ClassFunction(rows[-1].group, tuple(
                random_coordinates(rng, e, 10 ** 6) for _ in range(e)))
        fails = any(
            exact_pair_fails(rows[i], rows[j], 1 if i == j else 0)
            for j in range(len(rows)) for i in range(j + 1)
        )
        if fails:
            with pytest.raises(CharacterError, match="row orthonormality failed"):
                characters._certify_orthonormality(group, *intern(rows), every_unit(e))
        else:
            characters._certify_orthonormality(group, *intern(rows), every_unit(e))
        outcomes.add(fails)
    assert outcomes == {True, False}


def test_certificate_rejects_non_integer_coordinates():
    table = character_table(preset_dihedral(5))
    rows = list(table.irreducibles)
    rows[1] = rows[1] * Fraction(1, 2)
    with pytest.raises(CharacterError, match="integer coordinates"):
        characters._certify_orthonormality(table.group, *intern(rows), (1,))


def test_irrational_inner_product_is_a_character_error():
    table = character_table(preset_dihedral(5))
    e = table.conductor
    chi = table.irreducibles[-1]
    perturbed = replace_value(chi, 1, Cyclotomic.root(e))
    with pytest.raises(characters.IrrationalInnerProduct) as caught:
        inner_product(perturbed, chi)
    assert isinstance(caught.value, CharacterError) and isinstance(caught.value, ValueError)
