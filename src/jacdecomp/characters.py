"""Exact complex character tables and rational (Galois) class machinery.

The table is computed by Dixon's modular method: common eigenvectors of the
class-sum matrices over a prime field F_p with p = 1 (mod e) and p > 2|G|,
then each character value is lifted exactly by reconstructing the eigenvalue
multiplicities of the e-th roots of unity through discrete Fourier sums mod p.

The class matrices are sparse rows, built only when the split reaches them,
and only subspaces still above dimension 1 are refined.  Each restriction to
such a subspace is put in Hessenberg form once: that form gives the
characteristic polynomial and, by elimination on H - lam*I, every eigenspace,
mapped back through the recorded steps.  Every returned vector is checked to
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

One class per orbit of x -> x^u (u a unit) is lifted: the class of rep^u,
read from the class partition's power map, takes sigma_u of each value, its
multiplicities permuted by j -> ju mod n, and is checked mod p against the
split.  Lifted rows share one packed pass, one bit slot per row in a Python
int (Kronecker substitution).  Multiplicities are below p, so the lift is
unique; each distinct value is written once as sum_j m_j z^(j e/n) from the
reduced powers of z = zeta_e.  No floating point is involved anywhere.

The table owns the Galois action: one row permutation per generator of
(Z/e)^x, each image row looked up exactly.  Rational classes are its orbits,
and row orthonormality is proven for one row pair per orbit of unordered
pairs, because <chi^s, psi^s> = s(<chi, psi>), s fixes 0 and 1, and
<psi, chi> is the conjugate of <chi, psi>.  Each pair is one integer test:
rows are packed once per table by Kronecker evaluation at a power of two B
wide enough that Phi_e(B) divides the packed sum exactly when the inner
product is [i == j] (see _certify_orthonormality).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from operator import mul
from typing import Mapping, NamedTuple

from .cyclotomic import ConductorMismatch, Cyclotomic, cyclotomic_polynomial, is_prime
from .cyclotomic import _power_reductions, _reduce_coeffs
from .groups import (
    ConjugacyClassPartition,
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    coset_action,
    orbits,
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
    modulus: int  # prime used by the modular method (diagnostic only)
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


def _charpoly_mod(matrix: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial over F_p, low degree first, in O(n^3).

    Hessenberg reduction by similarity, then the recurrence on its leading
    minors (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
    A matrix already in Hessenberg form is only scanned, in O(n^2).
    """
    h, _ = _hessenberg_mod(matrix, p)
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

    Row i of h - lam*I is zero left of column i - 1, so the elimination at
    column c only looks at rows r..c+1 (r the next pivot row); then each free
    column gives one kernel vector by back-substitution.
    """
    n = len(h)
    a = [row[:] for row in h]
    for i in range(n):
        a[i][i] = (a[i][i] - lam) % p
    pivots: list[int] = []
    r = 0
    for c in range(n):
        last = min(c + 2, n)
        pivot = next((i for i in range(r, last) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        # rows r..last-1 are zero left of column c, so only their tails change
        inv = pow(a[r][c], -1, p)
        tail = a[r][c:] = [x * inv % p for x in a[r][c:]]
        for i in range(r + 1, last):
            f = a[i][c]
            if f:
                a[i][c:] = [(x - f * y) % p for x, y in zip(a[i][c:], tail)]
        pivots.append(c)
        r += 1
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for c, row in zip(reversed(pivots), reversed(a[:r])):
            v[c] = -sum(map(mul, row[c + 1:], v[c + 1:])) % p
        basis.append(v)
    return basis


def _eigenspaces(matrix: list[list[int]], p: int, images) -> list[tuple[int, list[list[int]]]]:
    """Each eigenvalue of the matrix in F_p, ascending, with a basis of its eigenspace.

    One Hessenberg form h = S A S^-1 gives the characteristic polynomial and
    every kernel of h - lam*I; a kernel vector v of h maps to the eigenvector
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
    generated = {1 % e}
    generators: list[int] = []
    for u in range(2, e):
        if u in generated or gcd(u, e) != 1:
            continue
        generators.append(u)
        frontier = list(generated)
        for x in frontier:
            for g in generators:
                y = x * g % e
                if y not in generated:
                    generated.add(y)
                    frontier.append(y)
    return tuple(generators)


def _galois_permutations(rows: list[ClassFunction], units) -> tuple[tuple[int, ...], ...]:
    """For each u of the units, _unit_generators(e), the map i -> index of sigma_u(rows[i]).

    sigma_u : zeta_e -> zeta_e^u acts on every value; each image row is looked
    up exactly by its coordinate tuple, and each map must be a permutation.
    Generators suffice: if each of them permutes the rows, so does the whole
    Galois group they generate.
    """
    coords = [row.coords for row in rows]
    row_index = {c: i for i, c in enumerate(coords)}
    e = rows[0].group.exponent
    powers = _power_reductions(e)
    perms = []
    for u in units:
        # basis z^i goes to reduced z^(iu); values repeat, so each is mapped once
        basis_images = [powers[i * u % e] for i in range(len(powers[0]))]
        image_of: dict[tuple, tuple] = {}
        images = []
        for row in coords:
            image = []
            for xs in row:
                ys = image_of.get(xs)
                if ys is None:
                    ys = image_of[xs] = _combine(xs, basis_images)
                image.append(ys)
            j = row_index.get(tuple(image))
            if j is None:
                raise CharacterError("Galois action left the character table")
            images.append(j)
        if len(set(images)) != len(images):
            raise CharacterError("Galois action does not permute the rows")
        perms.append(tuple(images))
    return tuple(perms)


def _certify_orthonormality(rows: list[ClassFunction], galois) -> list[tuple[int, int]]:
    """Prove <rows[i], rows[j]> = [i == j] for all i, j; return the pairs checked.

    One pair per orbit of unordered pairs (i, j), i <= j, under the Galois row
    permutations proves every pair: <chi^s, psi^s> = s(<chi, psi>) and s fixes
    0 and 1, while <psi, chi> is the conjugate of <chi, psi>.

    Each pair is tested exactly by Kronecker evaluation at B = 2^W.  With x_c
    row i's coordinates at class c and y-hat_c(z) = sum_t y_c[t] z^((-t) mod e)
    row j's conjugate, left unreduced, the integer polynomial
    f = sum_c |C_c| x_c y-hat_c - |G|[i = j] has f(zeta_e) = |G|(<chi_i, chi_j> - [i = j])
    and ||f||_1 <= |G|(n^2 + 1), n the largest coordinate 1-norm of a value.
    Its remainder r = f mod Phi_e sums f_k z^(k mod e), so every coordinate
    of r is at most M |G|(n^2 + 1) in absolute value, M the largest coordinate
    of a reduced z^s, s < e.  B > M |G|(n^2 + 1) + H + 1, H the largest
    coefficient of Phi_e, so if r != 0 then 0 < |r(B)| < Phi_e(B); since
    f(B) = r(B) (mod Phi_e(B)), Phi_e(B) divides f(B) exactly when f(zeta_e) = 0.
    """
    tri = [j * (j + 1) // 2 for j in range(len(rows))]
    pairs = [(i, j) for j in range(len(rows)) for i in range(j + 1)]  # (i, j) is tri[j] + i
    moves = [
        [tri[b] + a if a <= b else tri[a] + b for a, b in ((perm[i], perm[j]) for i, j in pairs)]
        for perm in galois
    ]
    checked = [pairs[n] for n in orbits(len(pairs), moves)[0]]
    e, order = rows[0].group.exponent, rows[0].group.order
    values = {xs for row in rows for xs in row.coords}
    if any(x.denominator != 1 for xs in values for x in xs):
        raise CharacterError("row orthonormality needs integer coordinates")
    n = max(sum(map(abs, xs)) for xs in values)
    m = max(abs(x) for power in _power_reductions(e) for x in power)
    phi = cyclotomic_polynomial(e)
    width = (m * order * (n * n + 1) + max(map(abs, phi)) + 1).bit_length()
    b = [1 << (width * t) for t in range(e + 1)]  # b[t] = B^t
    modulus = sum(map(mul, phi, b))
    at_b = {xs: sum(map(mul, xs, b)) for xs in values}
    conj_at_b = {xs: xs[0] + sum(map(mul, xs[1:], b[e - 1::-1])) for xs in values}
    left = [[size * at_b[xs] for size, xs in zip(row.classes.sizes, row.coords)] for row in rows]
    right = [[conj_at_b[xs] for xs in row.coords] for row in rows]
    for i, j in checked:
        if (sum(map(mul, left[i], right[j])) - (order if i == j else 0)) % modulus:
            raise CharacterError("row orthonormality failed")
    return checked


# -- Dixon's method -------------------------------------------------------------


def _find_prime(exponent: int, order: int) -> int:
    p = 2 * order + 1
    p += (1 - p) % exponent  # smallest p >= 2|G|+1 with p = 1 (mod e)
    for _ in range(200000):
        if is_prime(p):
            return p
        p += exponent
    raise NoSuitablePrime(
        f"no prime p = 1 (mod {exponent}) with p > {2 * order} within search bound"
    )


def _primitive_root_of_unity(p: int, e: int) -> int:
    """Element of multiplicative order e in F_p (requires e | p-1)."""
    n = p - 1
    factors = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, n // q, p) != 1 for q in factors):
            return pow(g, n // e, p)
    raise NoSuitablePrime(f"no generator found for F_{p}")  # unreachable for prime p


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
    root_pow = [1] * e
    for t in range(1, e):
        root_pow[t] = root_pow[t - 1] * z_root % p
    z_coords = _power_reductions(e)  # z_coords[t]: reduced coordinates of zeta_e^t

    degrees, cvals_rows = [], []
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
        degrees.append(d)
        # character values mod p per class
        cvals_rows.append([(d * omega[l] * inv_sizes[l]) % p for l in range(k)])

    # Lift every row at once: column c packs each row's value on class c into
    # its own slot of `bits` bits.  A slot of sum(w_c * column_c) with weights
    # w_c < p collects at most n <= e products below p^2, so slots never carry.
    bits = 2 * p.bit_length() + e.bit_length() + 1
    mask = (1 << bits) - 1
    shifts = range(0, bits * k, bits)
    columns = [sum(row[c] << s for s, row in zip(shifts, cvals_rows)) for c in range(k)]
    values: list = [None] * k  # values[c]: class c's column, lifted or derived
    images: dict[tuple, tuple] = {}  # sorted (z-exponent, m) pairs -> value, image mod p
    for c, powers in enumerate(classes.power_map):
        if values[c] is not None:
            continue  # c is the class of rep^u for an earlier class rep, u a unit
        # m_j = (1/n) sum_i chi(rep^i) z^(-ij e/n), weights summed per class of rep^i
        n = len(powers)
        step, inv_n = e // n, pow(n, -1, p)
        positions: dict[int, list[int]] = {}
        for i, c2 in enumerate(powers):
            positions.setdefault(c2, []).append(i)
        terms: list[tuple] = [()] * k  # per row, its (z-exponent, m_j) pairs
        totals = [0] * k
        for j in range(n):
            packed = sum(
                sum(root_pow[(-i * j * step) % e] for i in where) % p * columns[c2]
                for c2, where in positions.items()
            )
            for r, (s, d) in enumerate(zip(shifts, degrees)):
                m_j = ((packed >> s) & mask) * inv_n % p
                if m_j > d:
                    raise CharacterError("eigenvalue multiplicity exceeds the degree")
                if m_j:
                    terms[r] += ((j * step, m_j),)
                    totals[r] += m_j
        if totals != degrees:
            raise CharacterError("eigenvalue multiplicities do not sum to the degree")
        # chi(rep^u) = sigma_u(chi(rep)) = sum_j m_j z^(j step u) for each unit u mod n
        for u in range(1, n + 1):  # u = n = 1 only for the identity class
            c2 = powers[u % n]
            if gcd(u, n) != 1 or values[c2] is not None:
                continue
            values[c2] = []
            for r, row_terms in enumerate(terms):
                key = tuple(sorted([(t * u % e, m) for t, m in row_terms]))
                image = images.get(key)
                if image is None:
                    ts, ms = zip(*key)
                    value = Cyclotomic(e, _combine(ms, [z_coords[t] for t in ts]))
                    image = images[key] = value, sum(map(mul, value.coeffs, root_pow)) % p
                if image[1] != cvals_rows[r][c2]:
                    raise CharacterError("a Galois-derived column disagrees with the split mod p")
                values[c2].append(image[0])
    rows = [ClassFunction(group, row_values) for row_values in zip(*values)]

    trivial = ClassFunction(group, tuple(Cyclotomic.one(e) for _ in range(k)))
    others = [row for row in rows if row != trivial]
    if len(others) != k - 1:
        raise CharacterError("trivial character missing from the computed table")
    others.sort(key=lambda row: (row.values[0].as_integer(), tuple(v.coeffs for v in row.values)))
    ordered = [trivial] + others

    # exact sanity guarantees before the table is released
    degrees = tuple(row.values[0].as_integer() for row in ordered)
    if sum(d * d for d in degrees) != order:
        raise CharacterError("degree squares do not sum to the group order")
    galois = _galois_permutations(ordered, units)
    _certify_orthonormality(ordered, galois)

    table = CharacterTable(
        group=group,
        classes=classes,
        irreducibles=tuple(ordered),
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
    and, by Frobenius reciprocity, sum w * psi = m |G| <chi, pi_H> = m |G| dim."""
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
    permutation character; the two independent computations must agree.
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
    The group keeps psi_l's values and m_l next to its rational classes and
    caches one row per subgroup, so at most one per lattice member.
    An override view of the classes keeps their order, so index l holds there too.
    """
    cache = subgroup.parent._fixed_dims
    if subgroup.index not in cache:
        counts, w = _subgroup_weights(subgroup)
        rational_classes(character_table(subgroup.parent))  # fills the parent's _psi_rows
        cache[subgroup.index] = tuple(
            _checked_dim(sum(map(mul, counts, psi)), sum(map(mul, w, psi)), subgroup, m)
            for psi, m in subgroup.parent._psi_rows
        )
    return cache[subgroup.index]


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

    The rational character is schur_index times the orbit sum; its degree is
    schur_index * degree * field_degree.  The exponent n = degree/schur_index
    is the multiplicity of the associated factor in the group-algebra
    decomposition.
    """

    table: CharacterTable
    member_indices: tuple[int, ...]
    representative: int
    degree: int
    field_degree: int
    schur_index: int
    schur_source: str  # "heuristic" or "override"
    rational_character: ClassFunction
    n: int

    @property
    def dim_w(self) -> int:
        return self.schur_index * self.degree * self.field_degree

    @property
    def character(self) -> ClassFunction:
        """Representative complex irreducible character of the orbit."""
        return self.table.irreducibles[self.representative]

    def is_trivial(self) -> bool:
        return self.representative == 0


def _rational_class(
    table: CharacterTable, members: tuple[int, ...], override: int | None = None
) -> RationalClass:
    """The rational class of one Galois orbit, with its heuristic Schur index
    (2 when the Frobenius-Schur indicator is -1, else 1) or the override."""
    rep = members[0]
    degree = table.degrees[rep]
    if override is None:
        s, source = (2 if frobenius_schur(table.irreducibles[rep]) == -1 else 1), "heuristic"
    elif override < 1:
        raise NonIntegralN(f"Schur index must be positive, got {override}")
    else:
        s, source = override, "override"
    if degree % s != 0:
        raise NonIntegralN(f"Schur index {s} does not divide degree {degree} on row {rep}")
    total = table.irreducibles[rep]
    for j in members[1:]:
        total = total + table.irreducibles[j]
    rational_char = total if s == 1 else total * s
    for v in rational_char.values:
        if not v.is_rational():
            raise CharacterError("orbit sum has irrational values")
    return RationalClass(
        table=table,
        member_indices=members,
        representative=rep,
        degree=degree,
        field_degree=len(members),
        schur_index=s,
        schur_source=source,
        rational_character=rational_char,
        n=degree // s,
    )


def rational_classes(
    table: CharacterTable,
    overrides: Mapping[int, int] | None = None,
) -> tuple[RationalClass, ...]:
    """Galois orbits of the table rows, trivial class first.

    The Schur index is heuristic unless overridden per orbit representative;
    every class records which source produced its index.  The heuristic
    classes depend only on the table, so the group caches them next to its
    character table, and an override rebuilds only its own orbit.
    """
    classes = table.group._rational_classes
    if classes is None:
        reps, orbit_of = orbits(len(table), table.galois)
        classes = tuple(
            _rational_class(table, tuple(i for i, o in enumerate(orbit_of) if o == n))
            for n in range(len(reps))
        )
        table.group._psi_rows = tuple(  # set before the classes, so a reader of them finds these
            (tuple(v.coeffs[0] for v in rc.rational_character.values), rc.schur_index * rc.field_degree)
            for rc in classes  # _rational_class proved these values rational
        )
        table.group._rational_classes = classes
    if not overrides:
        return classes
    representatives = {rc.representative for rc in classes}
    for key in overrides:
        if key not in representatives:
            raise CharacterError(
                f"Schur override on row {key}, which is not an orbit representative"
            )
    return tuple(
        _rational_class(table, rc.member_indices, int(overrides[rc.representative]))
        if rc.representative in overrides else rc
        for rc in classes
    )


# -- central idempotents ------------------------------------------------------------


def central_idempotent(rational_class: RationalClass) -> tuple[Fraction, ...]:
    """Central idempotent of Q[G] attached to one rational class.

    A central element is constant on conjugacy classes, so it comes as one
    coefficient per class of conjugacy_classes(group), in that order.  The
    coefficient of g is (d/|G|) times the orbit sum of chi(g^-1); the orbit
    sum is the rational character over the Schur index, whose values
    ``_rational_class`` has already proven rational, hence equal at g and
    g^-1.
    """
    scale = Fraction(
        rational_class.degree, rational_class.table.group.order * rational_class.schur_index
    )
    return tuple(v.coeffs[0] * scale for v in rational_class.rational_character.values)
