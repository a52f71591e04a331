"""Exact complex character tables and rational (Galois) class machinery.

The table is computed by Dixon's modular method: common eigenvectors of the
class-sum matrices over a prime field F_p with p = 1 (mod e) and p > 2|G|,
then each character value is lifted exactly by reconstructing the eigenvalue
multiplicities of the e-th roots of unity through discrete Fourier sums mod p.

The class matrices are sparse rows, built only when the split reaches them,
and only subspaces still above dimension 1 are refined.  Each restriction to
such a subspace is put in Hessenberg form once: that form gives the
characteristic polynomial and every eigenspace, by back-substitution on
H - lam*I over its unreduced diagonal blocks, bottom-up, mapped back through
the recorded steps.  Every returned vector is checked to
satisfy restr * v = lam * v exactly, beside the invariance, split-dimension
and one-dimensional-end checks.

The first split, of the whole space by the first class matrix, computes one
kernel per Galois orbit of rows.  For a unit u, sigma_u(chi)(x) = chi(x^u)
and the class of rep^u has the size of rep's, so the central character of
sigma_u(chi) is chi's with class l read at the class of rep_l^u.  That is an
identity of algebraic integers, so it holds mod p as well, and the image of
a one-dimensional eigenspace's vector under this permutation is again an
eigenvector, exactly.  Its eigenvalue is read off row 0 and it is checked
against the sparse rows like every other vector.  It replaces a kernel only
when its eigenvalue is a simple root of the characteristic polynomial,
since only then is that eigenspace the line it spans: eigenvalues that
differ as algebraic integers may agree mod p.

The lift reads the rows' Galois action mod p: sigma_u(chi) is the row whose
central character is chi's at the classes of rep_l^u.  One class per orbit
of x -> x^u (u a unit) is lifted, its multiplicities m_j computed only at
the divisors j of its order n, in tau(n) packed transforms (one bit slot per
row in a Python int); m_j(sigma_u chi) = m_(j/u)(chi) gives the other m_j,
and chi(rep^u) = (sigma_u chi)(rep) the other columns, as row permutations.
Multiplicities are below p, so the lift is unique, and sum to the degree.
Every cell is checked mod p against the split, so a wrong permutation fails
there.  No floating point is involved anywhere.

The table owns the Galois action: one row permutation per generator of
(Z/e)^x.  Each distinct value's image is looked up exactly by its
coordinates, once per generator, and each image row by its ids, so the rows
are closed under every sigma_u.  Rational classes are its orbits.  Row
orthonormality is proven modulo one prime q = 1 (mod e), the least above
twice a proven bound on the coordinates of each pair's remainder mod Phi_e:
every ordered pair is checked at one root w of order e mod q, row j's values
at w^-1 packed once per class, one slot per row, as the lift packs.  Row i
at w^u is row sigma_u(i) at w, so that checks every pair at every root of
Phi_e mod q, which proves each remainder zero (see _certify_orthonormality).
Primes are proven by deterministic Miller-Rabin (cyclotomic.is_prime).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, isqrt
from operator import add, mul
from typing import Mapping, NamedTuple

from .cyclotomic import ConductorMismatch, Cyclotomic, is_prime
from .cyclotomic import _power_reductions, _reduce_coeffs
from .groups import (
    ConjugacyClassPartition,
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    coset_action,
    orbits,
    subgroup_class,
)


class CharacterError(Exception):
    """Base error for character computations."""


class GroupMismatch(CharacterError):
    """Class functions belong to different groups."""


class NoSuitablePrime(CharacterError):
    """No usable prime found for the modular method within the search bound."""


class NonIntegralAverage(CharacterError):
    """The subgroup average of a class function is not a rational integer."""


class NotIrreducible(CharacterError):
    """The class function is not an irreducible character."""


class NonIntegralN(CharacterError):
    """A Schur index does not divide the degree of its class."""


class IrrationalInnerProduct(CharacterError, ValueError):
    """An inner product of class functions is not a rational number."""


class ClassFunction:
    """Function constant on conjugacy classes, with cyclotomic values."""

    def __init__(self, group: FiniteGroup, values: tuple[Cyclotomic, ...]):
        if len(values) != len(conjugacy_classes(group)):
            raise CharacterError("one value per conjugacy class required")
        self.group = group
        self.values = values

    def __eq__(self, other):
        if type(other) is not ClassFunction:
            return NotImplemented
        return (self.group, self.values) == (other.group, other.values)

    def __hash__(self) -> int:
        return hash((self.group, self.values))

    @property
    def classes(self) -> ConjugacyClassPartition:
        return conjugacy_classes(self.group)

    @cached_property
    def coords(self) -> tuple[tuple, ...]:
        """The coordinate tuple of each value; every value must lie in Q(zeta_exp(G))."""
        e = self.group.exponent
        for v in self.values:
            if v.conductor != e:
                raise ConductorMismatch(f"conductors differ: {v.conductor} vs {e}")
        return tuple(v.coeffs for v in self.values)

    def _check(self, other: "ClassFunction") -> None:
        if self.group is not other.group:
            raise GroupMismatch("class functions on different groups")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return ClassFunction(self.group, tuple(v * scalar for v in self.values))

    __rmul__ = __mul__


def _combine(weights, vectors) -> tuple:
    """sum of w * v over paired weights and vectors, zero weights skipped.

    A sum of reduced cyclotomic coordinate vectors is itself reduced.
    """
    total = [0] * len(vectors[0])
    for w, v in zip(weights, vectors):
        if w:
            total = [t + w * x for t, x in zip(total, v)]
    return tuple(total)


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    """(1/|G|) sum over G of a(g) * conj(b(g)), returned exactly.

    Every a_i z^i * conj(b_j z^j) = a_i b_j z^(i-j) adds into one raw list, reduced once.
    """
    if a.group is not b.group:
        raise GroupMismatch("class functions on different groups")
    group = a.group
    e = group.exponent
    raw = [0] * e
    for size, xs, ys in zip(conjugacy_classes(group).sizes, a.coords, b.coords):
        for i, x in enumerate(xs):
            if x:
                x *= size
                for j, y in enumerate(ys):
                    if y:
                        raw[(i - j) % e] += x * y
    total = Cyclotomic(e, _reduce_coeffs(raw, e))
    if not total.is_rational():
        raise IrrationalInnerProduct(f"inner product ({total}) / {group.order} is not rational")
    return Fraction(total.coeffs[0]) / group.order


class CharacterTable(NamedTuple):
    """Complex irreducible characters, trivial first, then by (degree, values)."""

    group: FiniteGroup
    classes: ConjugacyClassPartition
    irreducibles: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    conductor: int
    modulus: int  # the split's prime (diagnostic only); the certificate's prime is not stored
    # galois[g][i] is the row sigma_u(row i) for the g-th of _unit_generators(conductor)
    galois: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.irreducibles)


# -- linear algebra over F_p ---------------------------------------------------


def _rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _hessenberg_mod(matrix: list[list[int]], p: int) -> tuple[list[list[int]], list[tuple]]:
    """Upper Hessenberg form h = S A S^-1 over F_p, with the steps of S in order.

    A step (m, i, None) swaps rows and columns m and i; a step (m, i, u)
    subtracts u times row m from row i and adds u times column i to column m.
    """
    n = len(matrix)
    h = [[x % p for x in row] for row in matrix]
    steps: list[tuple] = []
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
            steps.append((m, pivot, None))
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
                steps.append((m, i, u))
    return h, steps


def _charpoly_mod(h: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial over F_p, low degree first, of an upper Hessenberg h
    (_hessenberg_mod's form), by the recurrence on its leading minors in O(n^3)
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
    """
    n = len(h)
    # polys[m] is the charpoly of the leading m x m block of h
    polys = [[1]]
    for m in range(n):
        nxt = [0] + polys[m]
        for i, c in enumerate(polys[m]):
            nxt[i] -= h[m][m] * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            f = h[i][m] * t % p
            if f:
                for j, c in enumerate(polys[i]):
                    nxt[j] -= f * c
        polys.append([c % p for c in nxt])
    return polys[n]


def _poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_roots_mod(coeffs: list[int], p: int) -> list[int]:
    return [x for x in range(p) if not _poly_eval_mod(coeffs, x, p)]


def _hessenberg_kernel(h: list[list[int]], lam: int, p: int) -> list[list[int]]:
    """Basis of the right kernel of h - lam*I over F_p, for h upper Hessenberg.

    h splits where h[i][i-1] = 0 into unreduced diagonal blocks, solved
    bottom-up: the partials are a basis of the kernel on the blocks below.
    In a block [s, t) each row i > s gives x[i-1] from x[i:], its subdiagonal
    entry being a unit, and row s leaves a residual linear in x[t-1].  The
    block's own solution (x[t-1] = 1, zero below the block) and each partial
    (x[t-1] = 0) are back-substituted, and those with a nonzero residual are
    combined with the first of them, which is dropped.  That is the own
    solution when lam is not an eigenvalue of the block, so its residual fixes
    each partial's x[t-1]; else the own solution joins the partials, and a
    partial with a nonzero residual ends a Jordan chain across the blocks.
    """
    n = len(h)
    partials: list[list[int]] = []
    t = n
    while t:
        s = t - 1
        while s and h[s][s - 1]:
            s -= 1
        rows = [(i, h[i][i:], pow(h[i][i - 1], -1, p)) for i in range(t - 1, s, -1)]
        own = [0] * n
        own[t - 1] = 1
        partials.insert(0, own)
        residuals = []
        for x in partials:
            for i, row, inv in rows:
                x[i - 1] = (lam * x[i] - sum(map(mul, row, x[i:]))) * inv % p
            residuals.append((sum(map(mul, h[s][s:], x[s:])) - lam * x[s]) % p)
        chained = [k for k, r in enumerate(residuals) if r]
        if chained:
            first, inv = partials.pop(chained[0]), pow(residuals[chained[0]], -1, p)
            for k in chained[1:]:
                x, f = partials[k - 1], residuals[k] * inv
                x[s:] = [(y - f * z) % p for y, z in zip(x[s:], first[s:])]
        t = s
    return partials


def _eigenspaces(matrix: list[list[int]], p: int, images) -> list[tuple[int, list[list[int]]]]:
    """Each eigenvalue of the matrix in F_p, ascending, with a basis of its eigenspace.

    One Hessenberg form h = S A S^-1 gives the characteristic polynomial and
    every kernel of h - lam*I, by back-substitution on its unreduced diagonal
    blocks (_hessenberg_kernel); a kernel vector v of h maps to the eigenvector
    S^-1 v of A through the recorded steps, inverted and in reverse order.

    Each of the images is a coordinate permutation pi that should carry an
    eigenvector v to another one, w_l = v_pi(l), with eigenvalue
    mu = (A w)_0 / w_0.  A one-dimensional eigenspace's images are walked to
    closure, and w stands in for the kernel of mu when the derivative of the
    characteristic polynomial does not vanish at mu.  If A w = mu w, which
    the caller checks for every vector, mu is then a simple root, and its
    eigenspace is the line that w spans.
    """
    h, steps = _hessenberg_mod(matrix, p)
    poly = _charpoly_mod(h, p)
    slope = [i * c for i, c in enumerate(poly)][1:]
    roots = _poly_roots_mod(poly, p)
    spaces = {}
    for lam in roots:
        if lam in spaces:
            continue  # derived from an earlier eigenvector
        vectors = spaces[lam] = _hessenberg_kernel(h, lam, p)
        for v in vectors:
            for m, i, u in reversed(steps):
                if u is None:
                    v[m], v[i] = v[i], v[m]
                else:
                    v[i] = (v[i] + u * v[m]) % p
        orbit = vectors[:] if len(vectors) == 1 and vectors[0][0] else []
        for v in orbit:
            for pi in images:
                w = [v[l] for l in pi]
                mu = sum(map(mul, matrix[0], w)) * pow(w[0], -1, p) % p
                if mu not in spaces and _poly_eval_mod(slope, mu, p):
                    spaces[mu] = [w]
                    orbit.append(w)
    return sorted(spaces.items())


def _class_matrix(group: FiniteGroup, i: int) -> list[list[tuple[int, int]]]:
    """Sparse rows of class i's structure constants: C_i C_j = sum_l a_ijl C_l.

    Row j lists the pairs (l, a_ijl) with a_ijl != 0, by ascending l, where
    a_ijl counts the x in C_i with x^-1 z_l in C_j for the representative z_l.
    """
    classes = conjugacy_classes(group)
    class_of = classes.class_of
    inverses = [group.inv(x) for x in classes.classes[i]]
    rows: list[list[tuple[int, int]]] = [[] for _ in classes.classes]
    for l, z in enumerate(classes.representatives):
        counts: dict[int, int] = {}
        for x in inverses:
            j = class_of[group.mul(x, z)]
            counts[j] = counts.get(j, 0) + 1
        for j, a in counts.items():
            rows[j].append((l, a))
    return rows


def _restriction(rows, basis, pivots, p):
    """Matrix of the action of sparse rows on the span of the basis (which must be invariant).

    The basis is in reduced echelon form, so the coordinates of a vector of the
    span are its entries at the pivots.
    """
    cols = []
    for b in basis:
        w = [sum(a * b[l] for l, a in row) % p for row in rows]
        coords = [w[c] for c in pivots]
        # the span must be invariant; verify the reconstruction exactly
        if [r % p for r in _combine(coords, basis)] != w:
            raise CharacterError("class-sum matrix does not preserve a split subspace")
        cols.append(coords)
    return [list(row) for row in zip(*cols)]


def _common_eigenvectors(mats, n: int, p: int, images) -> list[list[int]]:
    """Split F_p^n into the common eigenvectors of commuting n x n matrices.

    The matrices come as sparse rows (see _class_matrix) from an iterable that
    is read only as far as the split needs.  Each eigenspace of one matrix is
    invariant under the rest, so the subspaces still above dimension 1 are
    refined matrix by matrix; the algebra is semisimple and split over F_p,
    hence everything ends one-dimensional.

    The first split is of all of F_p^n, whose echelon basis is the identity:
    the restriction is the matrix itself, densified, and every vector is
    checked against the sparse rows, in O(nnz) steps.  Only that split
    derives eigenvectors through the coordinate permutations `images` (see
    _eigenspaces).
    """
    identity_basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    spaces: list[tuple[list[list[int]], list[int]]] = [(identity_basis, list(range(n)))]
    for matrix in mats:
        new_spaces: list[tuple[list[list[int]], list[int]]] = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                new_spaces.append((basis, pivots))
                continue
            whole = len(basis) == n
            restr = (
                [[row.get(l, 0) for l in range(n)] for row in map(dict, matrix)] if whole
                else _restriction(matrix, basis, pivots, p)
            )
            split_dim = 0
            for lam, kernel in _eigenspaces(restr, p, images if whole else ()):
                vectors = []
                for u in kernel:
                    image = (
                        [sum(a * u[l] for l, a in row) % p for row in matrix] if whole
                        else [sum(map(mul, row, u)) % p for row in restr]
                    )
                    if image != [lam * x % p for x in u]:
                        raise CharacterError("eigenspace vector fails restr * v = lambda * v")
                    vectors.append(u if whole else [y % p for y in _combine(u, basis)])
                rref, piv = _rref_mod(vectors, p)
                split_dim += len(rref)
                new_spaces.append((rref, piv))
            if split_dim != len(basis):
                raise CharacterError("class-sum matrix was not diagonalizable mod p")
        spaces = new_spaces
        if all(len(basis) == 1 for basis, _ in spaces):
            break  # before the next matrix is built
    result = []
    for basis, _ in spaces:
        if len(basis) != 1:
            raise CharacterError("class algebra failed to split over the chosen prime")
        result.append(basis[0])
    return result


# -- the Galois action on the rows ------------------------------------------------


def _unit_generators(e: int) -> tuple[int, ...]:
    """Generators of (Z/e)^x: each is the smallest unit outside the subgroup
    generated so far, so each at least doubles it and there are at most
    log2 phi(e) of them."""
    generated = {}  # keyed by the subgroup generated so far
    generators: list[int] = []
    for u in range(2, e):
        if u not in generated and gcd(u, e) == 1:
            generators.append(u)
            generated = _walk(1, [], [([x * g % e for x in range(e)], []) for g in generators])
    return tuple(generators)


def _galois_permutations(values, cells, units) -> tuple[tuple[int, ...], ...]:
    """For each u of the units, _unit_generators(e), the map i -> index of sigma_u(cells[i]).

    Rows are tuples of ids into values.  sigma_u : zeta_e -> zeta_e^u maps each
    value once, looked up exactly by its coordinates to an id; each image row
    is then a tuple of ids, and each map must be a permutation.  Generators
    suffice: if each of them permutes the rows, so does the whole Galois group.
    """
    id_of = {v.coeffs: i for i, v in enumerate(values)}
    row_index = {row: i for i, row in enumerate(cells)}
    e = values[0].conductor
    powers = _power_reductions(e)
    perms = []
    for u in units:
        # basis z^i goes to reduced z^(iu)
        basis_images = [powers[i * u % e] for i in range(len(powers[0]))]
        image = [id_of.get(_combine(v.coeffs, basis_images)) for v in values]
        perm = tuple(row_index.get(tuple(image[v] for v in row)) for row in cells)
        if None in perm:
            raise CharacterError("Galois action left the character table")
        if len(set(perm)) != len(perm):
            raise CharacterError("Galois action does not permute the rows")
        perms.append(perm)
    return tuple(perms)


def _certify_orthonormality(group: FiniteGroup, values, cells, exponents) -> int:
    """Prove <rows[i], rows[j]> = [i == j] for all i, j; return the prime q used.

    Row i is cells[i], a tuple of ids into values, one per class of the group.
    With x_c row i's coordinates at class c and y-hat_c(z) = sum_t y_c[t] z^((-t) mod e)
    row j's conjugate, left unreduced, the integer polynomial
    f = sum_c |C_c| x_c y-hat_c - |G|[i = j] has f(zeta_e) = |G|(<chi_i, chi_j> - [i = j])
    and ||f||_1 <= |G|(n^2 + 1), n the largest coordinate 1-norm of a value.
    Its remainder r = f mod Phi_e sums f_k z^(k mod e), so every coordinate
    of r is at most R = M |G|(n^2 + 1) in absolute value, M the largest
    coordinate of a reduced z^s, s < e.  q is the least prime = 1 (mod e)
    above 2R and w has order e mod q, so the roots of Phi_e mod q are the
    w^u, u a unit.  Every ordered pair is checked mod q at w^u for each u of
    `exponents`.  Row i at w^u is row sigma_u(i) at w, so for rows closed
    under every sigma_u, (1,) checks every pair at every root; other rows
    pass every unit.  Then r, of degree < phi(e), has phi(e) roots in F_q,
    so r = 0 (mod q), and r = 0 since |r_k| < q/2.
    """
    e, order, k = group.exponent, group.order, len(cells[0])
    coords = [v.coeffs for v in values]
    if any(x.denominator != 1 for xs in coords for x in xs):
        raise CharacterError("row orthonormality needs integer coordinates")
    n = max(sum(map(abs, xs)) for xs in coords)
    m = max(abs(x) for power in _power_reductions(e) for x in power)
    q = _find_prime(e, m * order * (n * n + 1))
    w = _primitive_root_of_unity(q, e)
    # slot j of a packed sum collects k products below q^2, so slots never carry
    bits = 2 * q.bit_length() + k.bit_length()
    mask = (1 << bits) - 1
    shifts = range(0, bits * len(cells), bits)
    sizes = conjugacy_classes(group).sizes
    for u in exponents:
        powers = [pow(w, u * t, q) for t in range(e)]
        at = [sum(map(mul, xs, powers)) % q for xs in coords]
        at_inverse = [sum(map(mul, xs, powers[:1] + powers[:0:-1])) % q for xs in coords]
        packed = [sum(at_inverse[v] << s for s, v in zip(shifts, column)) for column in zip(*cells)]
        for i, row in enumerate(cells):
            total = sum(size * at[v] % q * col for size, v, col in zip(sizes, row, packed))
            for j, s in enumerate(shifts):
                if ((total >> s) & mask) % q != (order if i == j else 0):
                    raise CharacterError("row orthonormality failed")
    return q


# -- Dixon's method -------------------------------------------------------------


def _find_prime(exponent: int, bound: int) -> int:
    """The least proven prime p = 1 (mod exponent) above 2 * bound."""
    start = 2 * bound + 1 + (-2 * bound) % exponent
    try:
        return next(p for p in range(start, start + 200000 * exponent, exponent) if is_prime(p))
    except (StopIteration, ValueError):  # none in the window, or p reached psi_12
        raise NoSuitablePrime(f"no proven prime p = 1 (mod {exponent}) just above {2 * bound}") from None


def _primitive_root_of_unity(p: int, e: int) -> int:
    """g^((p-1)/e) for the least g where it has order e in F_p (e | p-1): that is,
    where its (e/l)-th power is not 1 for each prime l | e, so p - 1 is never factored."""
    primes = [l for l in range(2, e + 1) if e % l == 0 and is_prime(l)]
    for g in range(2, p):
        root = pow(g, (p - 1) // e, p)
        if all(pow(root, e // l, p) != 1 for l in primes):
            return root
    raise NoSuitablePrime(f"no element of order {e} in F_{p}")  # unreachable for prime p


def _walk(key, values, moves) -> dict:
    """{key: values} closed under the moves.  A move (step, perm) takes a found
    key to step[key] and pulls its values through perm, [values[r] for r in perm].
    The moves must commute, as the Galois group's do: then one pass of each
    move's chains over the keys found so far closes the set under it."""
    found = {key: values}
    for step, perm in moves:
        for key, values in list(found.items()):
            while (key := step[key]) not in found:
                values = found[key] = [values[r] for r in perm]
    return found


def character_table(group: FiniteGroup) -> CharacterTable:
    """Exact complex irreducible character table of the group."""
    if group._character_table is not None:
        return group._character_table
    classes = conjugacy_classes(group)
    k = len(classes)
    e = group.exponent
    order = group.order
    p = _find_prime(e, order)

    # sigma_u(chi)(x) = chi(x^u), and |class of rep^u| = |class of rep|, so the
    # central character of sigma_u(chi) reads chi's at the class of rep^u
    units = _unit_generators(e)
    images = [[powers[u % len(powers)] for powers in classes.power_map] for u in units]
    # class matrices are built as the split reaches them; the identity's never splits
    eigenvectors = _common_eigenvectors(
        (_class_matrix(group, i) for i in range(1, k)), k, p, images
    )
    if len(eigenvectors) != k:
        raise CharacterError(
            f"expected {k} common eigenvectors, found {len(eigenvectors)}"
        )

    inv_class = [classes.class_of[group.inv(rep)] for rep in classes.representatives]
    inv_sizes = [pow(size, -1, p) for size in classes.sizes]
    # root_pow[t] = z^t mod p for a primitive e-th root z; zeta_n^i is z^(i*e/n)
    z_root = _primitive_root_of_unity(p, e)
    root_pow = [pow(z_root, t, p) for t in range(e)]
    z_coords = _power_reductions(e)  # z_coords[t]: reduced coordinates of zeta_e^t

    degrees, row_of = [], {}  # row_of: central character omega -> row
    for vec in eigenvectors:
        if vec[0] % p == 0:
            raise CharacterError("eigenvector vanishes on the identity class")
        norm = pow(vec[0], -1, p)
        omega = [(v * norm) % p for v in vec]
        sigma = sum(omega[l] * omega[inv_class[l]] * inv_sizes[l] for l in range(k)) % p
        d_squared = (order * pow(sigma, -1, p)) % p if sigma else 0  # 0 fails below
        d = isqrt(d_squared)
        if d * d != d_squared or not 1 <= d * d <= order:
            raise CharacterError("degree reconstruction failed")
        row_of[tuple(omega)] = len(degrees)
        degrees.append(d)
    # split[c]: class c's character values mod p, one per row
    split = [[d * omega[c] * inv_sizes[c] % p for d, omega in zip(degrees, row_of)] for c in range(k)]

    # sigma_u on the rows mod p, for each generator u: the row whose central
    # character is row r's read through the power map for u
    try:
        perms = [[row_of[tuple(omega[l] for l in image)] for omega in row_of] for image in images]
    except KeyError:
        raise CharacterError("a Galois image of a row is missing from the split") from None

    # Lift every row at once: column c packs each row's value on class c into
    # its own slot of `bits` bits.  A slot of sum(w_c * column_c) with weights
    # w_c < p collects at most n <= e products below p^2, so slots never carry.
    bits = 2 * p.bit_length() + e.bit_length() + 1
    mask = (1 << bits) - 1
    shifts = range(0, bits * k, bits)
    columns = [sum(x << s for s, x in zip(shifts, column)) for column in split]
    pool: dict[tuple, int] = {}  # each distinct value's coordinates -> its id
    cells: list = [None] * k  # cells[c]: class c's column of ids, lifted or derived
    for c, powers in enumerate(classes.power_map):
        if cells[c] is not None:
            continue  # c is the class of rep^u for an earlier class rep, u a unit
        # m_j = (1/n) sum_i chi(rep^i) z^(-ij e/n).  m_j(sigma_u chi) = m_(j/u)(chi), so
        # the j with gcd(j, n) = d are walked from d, rows pulled through sigma_u: the
        # sum is computed at the least j of each walk, the divisors d of n, only.
        n = len(powers)
        step, inv_n = e // n, pow(n, -1, p)
        j_moves = [([j * v % n for j in range(n)], perm)
                   for v, perm in zip([pow(u, -1, n) for u in units], perms)]
        found = {}  # j -> m_j of each row
        for d in range(n):
            if d not in found:
                weights = dict.fromkeys(powers, 0)  # summed per class of rep^i
                for i, c2 in enumerate(powers):
                    weights[c2] += root_pow[-i * d * step % e]
                packed = sum(w % p * columns[c2] for c2, w in weights.items())
                found |= _walk(d, [(packed >> s & mask) * inv_n % p for s in shifts], j_moves)
        # multiplicities are nonnegative, so each is at most a degree they sum to
        multiplicities = list(zip(*found.values()))
        if list(map(sum, multiplicities)) != degrees:
            raise CharacterError("eigenvalue multiplicities do not sum to the degree")
        exponents = [z_coords[j * step] for j in found]  # z^(j e/n) = zeta_n^j
        ids = {}  # each distinct row of multiplicities -> its value's id and residue mod p
        for m in dict.fromkeys(multiplicities):
            coords = _combine(m, exponents)  # rows may share a value, so one pool numbers them
            ids[m] = pool.setdefault(coords, len(pool)), sum(map(mul, coords, root_pow)) % p
        # chi(rep^u) = (sigma_u chi)(rep): the column of class rep^u, the image of c
        # under the power map for u, is c's pulled through sigma_u
        for c2, derived in _walk(c, [ids[m] for m in multiplicities], zip(images, perms)).items():
            if [residue for _, residue in derived] != split[c2]:
                raise CharacterError("a lifted or derived column disagrees with the split mod p")
            cells[c2] = [v for v, _ in derived]

    values = [Cyclotomic(e, xs) for xs in pool]  # by id
    trivial = (pool.get(Cyclotomic.one(e).coeffs),) * k
    others = [row for row in zip(*cells) if row != trivial]
    if len(others) != k - 1:
        raise CharacterError("trivial character missing from the computed table")
    others.sort(key=lambda row: [values[v].coeffs for v in row])  # (d, 0, ...) leads: degree first
    ordered = [trivial] + others

    # exact sanity guarantees before the table is released
    degrees = tuple(values[row[0]].as_integer() for row in ordered)
    if sum(d * d for d in degrees) != order:
        raise CharacterError("degree squares do not sum to the group order")
    galois = _galois_permutations(values, ordered, units)  # exact; the mod-p perms are not kept
    _certify_orthonormality(group, values, ordered, (1,))

    table = CharacterTable(
        group=group,
        classes=classes,
        irreducibles=tuple(ClassFunction(group, tuple(values[v] for v in row)) for row in ordered),
        degrees=degrees,
        conductor=e,
        modulus=p,
        galois=galois,
    )
    group._character_table = table
    return table


# -- standard class functions ----------------------------------------------------


def trivial_character(group: FiniteGroup) -> ClassFunction:
    k = len(conjugacy_classes(group))
    return ClassFunction(group, tuple(Cyclotomic.one(group.exponent) for _ in range(k)))


def regular_character(group: FiniteGroup) -> ClassFunction:
    k = len(conjugacy_classes(group))
    e = group.exponent
    values = [Cyclotomic.from_rational(group.order, e)] + [Cyclotomic.zero(e)] * (k - 1)
    return ClassFunction(group, tuple(values))


def _fixed_cosets(group: FiniteGroup, subgroup: Subgroup) -> list[int]:
    """pi_H(rep_c) for each class c: the cosets x H with rep_c x H = x H."""
    cosets = coset_action(group, subgroup)
    reps, coset_of = cosets.representatives, cosets.coset_of
    n, table = group.order, group._table
    counts = []
    for rep in conjugacy_classes(group).representatives:
        base = rep * n  # table[base + x] = rep * x
        counts.append(sum(1 for i, x in enumerate(reps) if coset_of[table[base + x]] == i))
    return counts


def permutation_character(group: FiniteGroup, subgroup: Subgroup) -> ClassFunction:
    """Character of the action on cosets: fixed-coset counts per class."""
    e = group.exponent
    return ClassFunction(
        group, tuple(Cyclotomic.from_rational(v, e) for v in _fixed_cosets(group, subgroup))
    )


def _subgroup_weights(subgroup: Subgroup) -> tuple[list[int], list[int]]:
    """The weights of the two fixed-space routes: counts[c] = |H n c|, w[c] = |c| pi_H(c)."""
    group = subgroup.parent
    classes = conjugacy_classes(group)
    counts = [0] * len(classes)
    for h in subgroup.members:
        counts[classes.class_of[h]] += 1
    return counts, list(map(mul, classes.sizes, _fixed_cosets(group, subgroup)))


def _checked_dim(average, induced, subgroup: Subgroup, m: int = 1) -> int:
    """dim V^H from psi = m * chi's two route sums: sum counts * psi = m |H| dim
    and, by Frobenius reciprocity, sum w * psi = m |G| <chi, pi_H> = m |G| dim.
    The routes share psi and the classes, and |H| w[c] = |G| counts[c] class
    by class (Frobenius), so this tests the coset fill behind w against H's
    membership counts and the arithmetic of the sums, not the table or psi."""
    h, g = m * subgroup.order, m * subgroup.parent.order
    if average % h:
        raise NonIntegralAverage(f"average over subgroup is {Fraction(average, h)}; not a character")
    dim = average // h
    if induced != g * dim:  # induced is an int, or fixed_dim's cyclotomic sum
        raise CharacterError(
            f"fixed-space routes disagree: average {dim}, induction {induced * Fraction(1, g)}"
        )
    if dim < 0:
        raise NonIntegralAverage(f"negative fixed dimension {dim}; not a character")
    return dim


def fixed_dim(chi: ClassFunction, subgroup: Subgroup) -> int:
    """Dimension of the subgroup-fixed subspace of a character.

    Computed as the average of the character over the subgroup, then
    cross-checked against the Frobenius-reciprocity route through the
    permutation character (see _checked_dim for what the two routes share).
    """
    group = chi.group
    if subgroup.parent is not group:
        raise GroupMismatch("subgroup belongs to a different group")
    counts, w = _subgroup_weights(subgroup)
    total = Cyclotomic(group.exponent, _combine(counts, chi.coords))
    if not total.is_rational():
        raise NonIntegralAverage(
            f"average over subgroup is {total * Fraction(1, subgroup.order)}; not a character"
        )
    induced = Cyclotomic(group.exponent, [sum(map(mul, w, xs)) for xs in zip(*chi.coords)])
    return _checked_dim(total.coeffs[0], induced, subgroup)


def fixed_dims(subgroup: Subgroup) -> tuple[int, ...]:
    """fixed_dim of each rational class's character, in rational_classes order.

    A fixed dimension is rational, so Galois-invariant: the integer rational
    character psi_l = s (orbit sum) gives m_l = s * field_degree times it.
    Both are read from the group's heuristic rational classes.  The group caches
    one row per conjugacy class of subgroups, keyed by ``subgroup_class``: dim V^H
    = <chi, pi_H>, and pi_H is a class invariant, so a conjugate reads H's row.
    An override view of the classes keeps their order, so index l holds there too.
    A row build first checks Frobenius's |H| w[c] = |G| counts[c] class by class.
    """
    cache, key = subgroup.parent._fixed_dims, subgroup_class(subgroup)
    if key not in cache:
        counts, w = _subgroup_weights(subgroup)
        h, g = subgroup.order, subgroup.parent.order
        for c, (n, x) in enumerate(zip(counts, w)):
            if h * x != g * n:
                raise CharacterError(
                    f"conjugacy class {c}: |H| |c| pi_H(c) = {h * x}, but |G| |H n c| = {g * n}"
                )
        cache[key] = tuple(
            _checked_dim(
                sum(map(mul, counts, rc.psi)), sum(map(mul, w, rc.psi)), subgroup,
                rc.schur_index * rc.field_degree,
            )
            for rc in rational_classes(character_table(subgroup.parent))
        )
    return cache[key]


def frobenius_schur(chi: ClassFunction) -> int:
    """Indicator (1/|G|) sum chi(g^2); -1, 0 or 1 for irreducible chi.

    A row of the group's character table, the very object, skips the norm
    check: the table's certificate already proved <chi, chi> = 1 for it.
    Any other class function, even one equal to a row, is checked.
    """
    group = chi.group
    table = group._character_table
    certified = table is not None and any(row is chi for row in table.irreducibles)
    if not certified and inner_product(chi, chi) != 1:
        raise NotIrreducible("Frobenius-Schur indicator needs an irreducible character")
    coords = chi.coords
    classes = conjugacy_classes(group)
    counts = [0] * len(coords)  # the squares of class c all lie in the class of rep_c^2
    for size, powers in zip(classes.sizes, classes.power_map):
        counts[powers[2 % len(powers)]] += size
    total = Cyclotomic(group.exponent, _combine(counts, coords))
    if not total.is_rational():
        raise NotIrreducible(f"indicator sum {total} is not rational; not a character")
    value = Fraction(total.coeffs[0], group.order)
    if value.denominator != 1 or value.numerator not in (-1, 0, 1):
        raise CharacterError(f"indicator {value} outside -1, 0, 1")
    return value.numerator


# -- rational classes (Galois orbits) ---------------------------------------------


class RationalClass(NamedTuple):
    """One Galois orbit of complex irreducibles: a rational irreducible.

    psi holds the rational character's integer values, one per conjugacy
    class: schur_index times the orbit sum, of degree dim_w.  The exponent
    n = degree/schur_index is the multiplicity of the associated factor in the
    group-algebra decomposition.  Overrides are views (rational_classes).
    """

    table: CharacterTable
    member_indices: tuple[int, ...]
    representative: int
    degree: int
    field_degree: int
    schur_index: int
    schur_source: str  # "heuristic" or "override"
    n: int
    psi: tuple[int, ...]

    @property
    def dim_w(self) -> int:
        return self.schur_index * self.degree * self.field_degree

    @property
    def character(self) -> ClassFunction:
        """Representative complex irreducible character of the orbit."""
        return self.table.irreducibles[self.representative]

    @property
    def rational_character(self) -> ClassFunction:
        """psi as a class function, one Cyclotomic per distinct value."""
        value = {v: Cyclotomic.from_rational(v, self.table.conductor) for v in set(self.psi)}
        return ClassFunction(self.table.group, tuple(map(value.get, self.psi)))

    def is_trivial(self) -> bool:
        return self.representative == 0


def _rational_class(table: CharacterTable, members: tuple[int, ...]) -> RationalClass:
    """The rational class of one Galois orbit, with its heuristic Schur index:
    2 when the Frobenius-Schur indicator is -1, else 1.

    The members' rows are summed once, their coordinates laid end to end; psi
    is s times coordinate 0 of each class, and every other coordinate must be 0."""
    rep = members[0]
    degree = table.degrees[rep]
    s = 2 if frobenius_schur(table.irreducibles[rep]) == -1 else 1
    if degree % s != 0:
        raise NonIntegralN(f"Schur index {s} does not divide degree {degree} on row {rep}")
    total = list(chain.from_iterable(table.irreducibles[rep].coords))
    for j in members[1:]:
        total = list(map(add, total, chain.from_iterable(table.irreducibles[j].coords)))
    width = len(total) // len(table.classes)  # phi(e) coordinates per class
    psi = tuple(s * x for x in total[::width])
    del total[::width]
    if any(total):
        raise CharacterError("orbit sum has irrational values")
    return RationalClass(
        table=table, member_indices=members, representative=rep, degree=degree,
        field_degree=len(members), schur_index=s, schur_source="heuristic", n=degree // s, psi=psi,
    )


def rational_classes(
    table: CharacterTable,
    overrides: Mapping[int, int] | None = None,
) -> tuple[RationalClass, ...]:
    """Galois orbits of the table rows, trivial class first.

    The Schur index is heuristic unless overridden per orbit representative;
    every class records which source produced its index.  The heuristic
    classes depend only on the table, so the group caches them next to its
    character table; an override is a view of its cached class, psi rescaled.
    """
    classes = table.group._rational_classes
    if classes is None:
        reps, orbit_of = orbits(len(table), table.galois)
        classes = table.group._rational_classes = tuple(
            _rational_class(table, tuple(i for i, o in enumerate(orbit_of) if o == n))
            for n in range(len(reps))
        )
    if not overrides:
        return classes
    representatives = {rc.representative for rc in classes}
    for key in overrides:
        if key not in representatives:
            raise CharacterError(
                f"Schur override on row {key}, which is not an orbit representative"
            )
    views = []
    for rc in classes:
        if rc.representative in overrides:
            s = int(overrides[rc.representative])
            if s < 1:
                raise NonIntegralN(f"Schur index must be positive, got {s}")
            if rc.degree % s:
                raise NonIntegralN(f"Schur index {s} does not divide degree {rc.degree} on row {rc.representative}")
            rc = rc._replace(schur_index=s, schur_source="override", n=rc.degree // s,
                             psi=tuple(x // rc.schur_index * s for x in rc.psi))
        views.append(rc)
    return tuple(views)


# -- central idempotents ------------------------------------------------------------


def central_idempotent(rational_class: RationalClass) -> tuple[Fraction, ...]:
    """Central idempotent of Q[G] attached to one rational class.

    A central element is constant on conjugacy classes, so it comes as one
    coefficient per class of conjugacy_classes(group), in that order.  The
    coefficient of g is (d/|G|) times the orbit sum of chi(g^-1); the orbit
    sum is psi, the rational character's integer values, over the Schur index,
    and a rational value is equal at g and g^-1.
    """
    scale = Fraction(
        rational_class.degree, rational_class.table.group.order * rational_class.schur_index
    )
    return tuple(v * scale for v in rational_class.psi)
