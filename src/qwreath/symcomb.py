"""Symmetric-group combinatorics: permutations, compositions, inversion
regions, parahoric double cosets and their matrix bookkeeping.

Permutations are tuples of images on 0-indexed positions.  Composition of
permutations is function composition, ``mul(u, v)[i] = u[v[i]]``, so the
right factor acts first.  The one-line string form ``|1 3 4 2|`` is
1-indexed.

Generator conventions, with ``s_i`` swapping positions ``i`` and ``i+1``
(0-indexed ``i``):

* right multiplication ``w*s_i`` swaps the entries at positions i, i+1 and
  raises the length iff ``w[i] < w[i+1]``;
* left multiplication ``s_i*w`` swaps the values i, i+1.

``inv_set(w)`` is the set of position pairs ``(i, j)`` with ``i < j`` and
``w[i] > w[j]``.

A double coset S_lam z S_mu of Young subgroups is read off its matrix
(``matrix_from_triple``: the number of positions of the j-th mu-block that
z sends into the i-th lam-block): its minimal representative
(``matrix_to_perm``) and its shapes (``coset_shapes``).  The decomposition
z = x * g0 * y (``double_coset_decompose``) takes two sorts: z's positions
by the lam-block of their value, then the values within each mu-block.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class LengthAdditivityViolation(ValueError):
    """A product expected to be length-additive was not."""


class NotARefinement(ValueError):
    """The finer composition does not refine the coarser one."""


Perm = tuple[int, ...]
Composition = tuple[int, ...]


# permutations ---------------------------------------------------------------

def identity(d: int) -> Perm:
    return tuple(range(d))


def mul(u: Perm, v: Perm) -> Perm:
    return tuple(map(u.__getitem__, v))


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for k, img in enumerate(w):
        out[img] = k
    return tuple(out)


def simple(d: int, i: int) -> Perm:
    w = list(range(d))
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def inv_set(w: Perm) -> frozenset[tuple[int, int]]:
    d = len(w)
    return frozenset(
        (i, j) for i in range(d) for j in range(i + 1, d) if w[i] > w[j]
    )


def length(w: Perm) -> int:
    return len(inv_set(w))


def sort_index(idx) -> Perm:
    """The shortest w with ``idx[j] == sorted(idx)[w[j]]``: w sends each
    position to its rank in a stable sort of idx."""
    return inverse(tuple(sorted(range(len(idx)), key=idx.__getitem__)))


@lru_cache(maxsize=None)
def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word, reading left to right in product order."""
    letters = []
    w = list(w)
    while True:
        desc = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not desc:
            break
        i = desc[0]
        letters.append(i)
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(reversed(letters))


def from_word(d: int, letters) -> Perm:
    w = identity(d)
    for i in letters:
        w = mul(w, simple(d, i))
    return w


def from_one_line(text: str) -> Perm:
    # accepts "|1 3 4 2|" as well as bare "1 3 4 2"
    body = text.strip().strip("|").split()
    return tuple(int(x) - 1 for x in body)


def to_one_line(w: Perm) -> str:
    return "|" + " ".join(str(x + 1) for x in w) + "|"


# compositions ---------------------------------------------------------------

def _integers(values: tuple, what: str) -> tuple:
    """values as ints; ValueError naming the first one that is not integral,
    such as 1.5.  Ints, bools and floats such as 2.0 pass."""
    out = tuple(map(int, values))
    if out != values:
        bad = next(x for x in values if x != int(x))
        raise ValueError(f"non-integral {what} {bad!r} in {values!r}")
    return out


def strip_zeros(lam) -> Composition:
    """Drop zero parts; compositions differing by zeros name the same
    Young subgroup.  A negative or non-integral part raises ValueError."""
    if any(x < 0 for x in lam):
        raise ValueError(f"negative part in {lam!r}")
    return _integers(tuple(x for x in lam if x), "part")


def check_comp(d: int, lam) -> Composition:
    """lam without its zero parts; ValueError on a negative part or when the
    parts do not sum to d."""
    lam = strip_zeros(lam)
    if sum(lam) != d:
        raise ValueError(f"{lam!r} is not a composition of {d}")
    return lam


def compositions(d: int) -> list[Composition]:
    """All compositions of d with positive parts."""
    if d == 0:
        return [()]
    out = []
    for first in range(1, d + 1):
        for rest in compositions(d - first):
            out.append((first,) + rest)
    return out


def weak_compositions(d: int, n: int) -> list[Composition]:
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for first in range(d + 1):
        for rest in weak_compositions(d - first, n - 1):
            out.append((first,) + rest)
    return out


def blocks(lam: Composition) -> list[range]:
    out = []
    start = 0
    for part in lam:
        out.append(range(start, start + part))
        start += part
    return out


def block_of(lam: Composition) -> tuple[int, ...]:
    out = []
    for b, part in enumerate(lam):
        out.extend([b] * part)
    return tuple(out)


def refines(nu: Composition, lam: Composition) -> bool:
    """True when nu is a refinement of lam (concatenated compositions):
    every partial sum of lam is one of nu.  Zero parts are ignored."""
    return sum(nu) == sum(lam) and set(itertools.accumulate(lam, initial=0)) \
        <= set(itertools.accumulate(nu, initial=0))


def check_refines(nu: Composition, lam: Composition) -> None:
    if not refines(nu, lam):
        raise NotARefinement(f"{nu} does not refine {lam}")


@lru_cache(maxsize=None)
def young_subgroup(lam: Composition) -> tuple[Perm, ...]:
    d = sum(lam)
    pieces = []
    for blk in blocks(lam):
        base = blk.start
        pieces.append([tuple(base + p for p in perm)
                       for perm in itertools.permutations(range(len(blk)))])
    out = []
    for choice in itertools.product(*pieces):
        w = []
        for piece in choice:
            w.extend(piece)
        out.append(tuple(w))
    return tuple(out)


def longest_in_young(lam: Composition) -> Perm:
    w = []
    for blk in blocks(lam):
        w.extend(reversed(blk))
    return tuple(w)


def increasing_on_blocks(w: Perm, lam: Composition) -> bool:
    for blk in blocks(lam):
        for a, b in zip(blk, blk[1:]):
            if w[a] > w[b]:
                return False
    return True


@lru_cache(maxsize=None)
def coset_reps(nu: Composition, side: str = "right",
               within: Composition = None) -> tuple[Perm, ...]:
    """Shortest representatives of the cosets of S_nu in S_within (S_d when
    within is None), filtered from ``young_subgroup(within)`` in its order;
    NotARefinement unless nu refines within.

    ``side='right'``: representatives of the cosets w*S_nu, the elements
    increasing on each position block of nu.  ``side='left'``: of the
    cosets S_nu*w, the elements whose inverse increases on each block.
    """
    within = within or (sum(nu),)
    check_refines(nu, within)
    pool = young_subgroup(within)
    if side == "right":
        return tuple(w for w in pool if increasing_on_blocks(w, nu))
    if side == "left":
        return tuple(w for w in pool if increasing_on_blocks(inverse(w), nu))
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@lru_cache(maxsize=None)
def double_coset_reps(lam: Composition, mu: Composition) -> tuple[Perm, ...]:
    """Elements minimal in S_lam * w * S_mu, i.e. both-sided shortest."""
    return tuple(w for w in coset_reps(mu, "right")
                 if increasing_on_blocks(inverse(w), lam))


# inversion regions ----------------------------------------------------------

def _pairs(lam: Composition, same: bool) -> frozenset[tuple[int, int]]:
    """Pairs i < j in the same block if same, else in different blocks."""
    bo = block_of(lam)
    d = len(bo)
    return frozenset((i, j) for i in range(d) for j in range(i + 1, d)
                     if (bo[i] == bo[j]) is same)


def region_N(lam: Composition) -> frozenset[tuple[int, int]]:
    """Pairs i < j in different blocks."""
    return _pairs(lam, False)


def region_L(lam: Composition) -> frozenset[tuple[int, int]]:
    """Pairs i < j in the same block."""
    return _pairs(lam, True)


def region_P(lam: Composition) -> frozenset[tuple[int, int]]:
    """All ordered pairs i != j except the upper different-block ones:
    every reversed pair plus the upper same-block pairs."""
    d = sum(lam)
    lower = {(i, j) for i in range(d) for j in range(d) if i > j}
    return frozenset(lower | region_L(lam))


# double-coset matrices ------------------------------------------------------

class ThetaMatrix:
    """Nonnegative integer matrix encoding a Young double coset.

    Row sums give lam, column sums give mu, and the minimal-length element
    g of the double coset satisfies ``a[i][j] = #(I_i^lam & g(I_j^mu))``
    where the I's are the position blocks.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(_integers(tuple(r), "entry") for r in rows)
        if any(x < 0 for r in self.rows for x in r):
            raise ValueError("negative entry")
        if len(set(map(len, self.rows))) > 1:
            raise ValueError(f"rows of unequal lengths {[len(r) for r in self.rows]}")

    @property
    def lam(self) -> Composition:
        return tuple(sum(r) for r in self.rows)

    @property
    def mu(self) -> Composition:
        if not self.rows:
            return ()
        return tuple(sum(r[j] for r in self.rows) for j in range(len(self.rows[0])))

    @property
    def d(self) -> int:
        return sum(self.lam)

    def __eq__(self, other):
        return isinstance(other, ThetaMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ThetaMatrix({list(map(list, self.rows))})"


def theta_matrices(n: int, d: int) -> list[ThetaMatrix]:
    """All n-by-n nonnegative integer matrices with entry sum d."""
    cells = n * n
    out = []
    for flat in weak_compositions(d, cells):
        out.append(ThetaMatrix([flat[i * n:(i + 1) * n] for i in range(n)]))
    return out


def matrix_to_perm(A: ThetaMatrix) -> Perm:
    """The minimal-length permutation of the double coset encoded by A.

    Scanning columns left to right and rows top to bottom, the next
    ``a[i][j]`` positions of the j-th column block are sent, in increasing
    order, to the next free slots of the i-th row block.
    """
    lam, mu = A.lam, A.mu
    row_blocks = blocks(lam)
    col_blocks = blocks(mu)
    cursor = [blk.start for blk in row_blocks]
    g = [None] * A.d
    for j, cblk in enumerate(col_blocks):
        pos = cblk.start
        for i in range(len(lam)):
            for _ in range(A.rows[i][j]):
                g[pos] = cursor[i]
                cursor[i] += 1
                pos += 1
    return tuple(g)


def matrix_from_triple(lam: Composition, g: Perm, mu: Composition) -> ThetaMatrix:
    row_blocks = blocks(lam)
    col_blocks = blocks(mu)
    rows = []
    for rblk in row_blocks:
        rset = set(rblk)
        rows.append([sum(1 for p in cblk if g[p] in rset) for cblk in col_blocks])
    return ThetaMatrix(rows)


def coset_shapes(lam: Composition, g: Perm,
                 mu: Composition) -> tuple[Composition, Composition]:
    """(nu, delta): the nonzero entries of the matrix of S_lam g S_mu read
    along rows and down columns.  For minimal g they are the shapes of
    ``g S_mu g^{-1} & S_lam`` and ``g^{-1} S_lam g & S_mu``."""
    rows = matrix_from_triple(lam, g, mu).rows
    nu = tuple(x for row in rows for x in row if x)
    delta = tuple(x for col in zip(*rows) for x in col if x)
    return nu, delta


def bijection_kappa(lam: Composition, g: Perm, mu: Composition) -> dict:
    """The length-additive product map (x, y) -> x*g*y on S_lam x reps.

    y runs over the shortest representatives of S_{delta_c} \\ S_mu.  The
    images enumerate the double coset S_lam*g*S_mu without repetition.
    """
    _, delta_c = coset_shapes(lam, g, mu)
    lg = length(g)
    out = {}
    for x in young_subgroup(lam):
        lx = length(x)
        for y in coset_reps(delta_c, "left", mu):
            z = mul(mul(x, g), y)
            if length(z) != lx + lg + length(y):
                raise LengthAdditivityViolation(
                    f"l({to_one_line(x)}*{to_one_line(g)}*{to_one_line(y)}) "
                    f"!= {lx}+{lg}+{length(y)}")
            out[(x, y)] = z
    if len(set(out.values())) != len(out):
        raise LengthAdditivityViolation("product map is not injective")
    return out


@lru_cache(maxsize=None)
def double_coset_decompose(z: Perm, lam: Composition, mu: Composition):
    """Write z = x * g0 * y with x in S_lam, g0 minimal in S_lam z S_mu and
    y in S_mu.  m = x^{-1} z = g0 y, the shortest element of S_lam z, ranks
    the positions of z by the lam-block of their value (a stable sort); g0,
    the shortest element of m S_mu, sorts the values of m within each
    mu-block.  As m is shortest on the left, g0 is the minimal element of
    the double coset, ``matrix_to_perm`` of its matrix."""
    bo = block_of(lam)
    m = sort_index(tuple(bo[v] for v in z))
    g0 = []
    for blk in blocks(mu):
        g0 += sorted(m[blk.start:blk.stop])
    g0 = tuple(g0)
    return mul(z, inverse(m)), g0, mul(inverse(g0), m)
