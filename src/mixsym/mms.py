"""The lattice of mixed modular symbols for a congruence group.

The space is presented on one generator per coset ("Manin generators",
realizing {g, gS}) and one generator per cusp class ("cusp generators",
realizing {g, gT} for g in the cusp's T-orbit), subject to

  (R1)  ManinGen(i) + ManinGen(i*S) = 0
  (R2)  ManinGen(i) + ManinGen(i*U) + ManinGen(i*U^2)
          = CuspGen(c(i)) + CuspGen(c(i*U)) + CuspGen(c(i*U^2))
  (R3)  sum over cusps of (e_c / d_Gamma) * CuspGen(c) = 0

and the quotient is taken torsion-free.  The rank of the result must equal
2*genus + 2*(cusps - 1); construction fails loudly otherwise, which turns the
completeness of this presentation into a per-level certificate.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import sl2
from .sl2 import GroupSpec, complete, det
from .zlattice import (QuotientLattice, dense_rows, identity_matrix, kernel_basis,
                       quotient_by_rows, smith_invariants, sublattice_index, vec_mat,
                       vec_mat_sparse)


class PresentationError(Exception):
    """The presented lattice does not have the predicted rank."""


class InvalidInputError(Exception):
    """Raised for inputs outside an operation's domain."""


class DocumentMismatchError(InvalidInputError):
    """A well-formed serialized space that differs from a fresh build."""


@dataclass
class SymbolSpace:
    """The mixed-symbol lattice with its structural maps.

    Ambient generators are ordered Manin generators (one per coset) followed
    by cusp generators (one per cusp class).  ``quotient`` presents the
    torsion-free quotient by (R1)-(R3); ``classical`` presents the classical
    modular-symbol space on the coset generators alone, by the Manin block of
    (R1) and (R2) (relations x + xS and x + xU + xU^2).  Both hold their
    sections ``project`` and ``lift`` as sparse rows.  ``pi_basis`` and
    ``boundary_basis`` are dense, read off the rows of ``quotient.lift``, and
    act on basis row vectors by right multiplication.
    """

    spec: GroupSpec
    cosets: "sl2.CosetTable"
    cusps: "sl2.CuspTable"
    quotient: QuotientLattice
    classical: QuotientLattice
    pi_basis: list
    boundary_basis: list
    genus: int

    @property
    def n_manin(self):
        return self.cosets.index

    @property
    def n_cusp(self):
        return self.cusps.count

    @property
    def rank(self):
        return self.quotient.rank

    def manin_gen(self, idx):
        """Basis coordinates of the Manin generator {rep, rep*S}, dense."""
        return dense_rows([self.quotient.project[idx]], self.rank)[0]

    def cusp_gen(self, c):
        """Basis coordinates of the cusp generator {g, gT} at cusp class c, dense."""
        return dense_rows([self.quotient.project[self.n_manin + c]], self.rank)[0]

    def cusp_sublattice(self):
        """Generating rows of the span of the cusp generators."""
        return [self.cusp_gen(c) for c in range(self.n_cusp)]


def _sparse_row(terms):
    """The sum of the (column, value) ``terms`` as a sparse row: repeated
    columns merged, zeros dropped, in column order."""
    row = {}
    for j, x in terms:
        row[j] = row.get(j, 0) + x
    return tuple(sorted((j, x) for j, x in row.items() if x))


def _assemble_relations(cosets, cusps):
    """(R1), (R2) at each coset, then (R3), as sparse rows over the generators."""
    n_manin = cosets.index
    cusp_of = cusps.cusp_of
    act_s, act_t = cosets.action["S"], cosets.action["T"]
    rows = [_sparse_row([(i, 1), (act_s[i], 1)]) for i in range(n_manin)]
    for i in range(n_manin):
        j = act_s[act_t[i]]  # U = T * S
        k = act_s[act_t[j]]
        rows.append(_sparse_row([t for m in (i, j, k)
                                 for t in ((m, 1), (n_manin + cusp_of[m], -1))]))
    d = cusps.gcd_of_widths
    rows.append(tuple((n_manin + c, w // d) for c, w in enumerate(cusps.widths)))
    return rows


def build_space(spec):
    """Construct the mixed-symbol lattice for the given congruence group."""
    cosets = sl2.enumerate_cosets(spec)
    cusps = sl2.cusp_table(cosets)
    g = sl2.genus(cosets, cusps)
    n_manin, n_cusp = cosets.index, cusps.count

    relations = _assemble_relations(cosets, cusps)
    quotient = quotient_by_rows(relations, n_manin + n_cusp)
    expected = 2 * g + 2 * (n_cusp - 1)
    if quotient.rank != expected:
        raise PresentationError(
            f"{spec.label()}: presented rank {quotient.rank}, expected {expected}")

    # (R1) and (R2) read on the Manin generators alone are the classical relations
    classical = quotient_by_rows(
        [tuple((j, x) for j, x in row if j < n_manin) for row in relations[:2 * n_manin]],
        n_manin)

    # pi sends the cusp generators to 0; Manin generator k has boundary
    # [c(kS)] - [c(k)] and a cusp generator has none
    pi_rows = classical.project + [()] * n_cusp
    pi_basis = [vec_mat_sparse(row, pi_rows, classical.rank) for row in quotient.lift]
    boundary_rows = [((cusps.cusp_of[j], 1), (cusps.cusp_of[k], -1))
                     for k, j in enumerate(cosets.action["S"])] + [()] * n_cusp
    boundary_basis = [vec_mat_sparse(row, boundary_rows, n_cusp) for row in quotient.lift]

    return SymbolSpace(spec, cosets, cusps, quotient, classical,
                       pi_basis, boundary_basis, g)


def _add_pair(space, amb, g, gprime, s=1):
    """Add s * {g, g'} into amb, {ambient generator index: coefficient}.

    The Euclidean algorithm on the first column of m = g^-1 * g' writes it
    as +-T^(a_0) S T^(a_1) S ... T^(a_k), which telescopes {g, g'} into one
    symbol per letter at the prefix h = g * (letters before it): {h, h*T^a}
    is a times the cusp generator at h's coset and {h, h*S} is the Manin
    generator of h's coset.  The walk moves that coset i on the coset
    graph from ``coset_of(g)``: S sends i to ``action["S"][i]`` and T^a
    moves it a steps along its cusp's T-orbit (``CuspTable.position``).
    """
    act_s = space.cosets.action["S"]
    cusp_of, orbits, position = space.cusps.cusp_of, space.cusps.orbits, space.cusps.position
    n_manin = space.n_manin
    a, b, c, d = g
    p, q, r, t = gprime
    # m = g^-1 * g', with g^-1 = (d, -b, -c, a)
    ma, mb, mc, md = d * p - b * r, d * q - b * t, a * r - c * p, a * t - c * q
    i = space.cosets.coset_of(g)
    while mc:
        k = ma // mc
        if k:
            orbit = orbits[cusp_of[i]]
            j = n_manin + cusp_of[i]
            amb[j] = amb.get(j, 0) + s * k
            i = orbit[(position[i] + k) % len(orbit)]
            ma, mb = ma - k * mc, mb - k * md
        amb[i] = amb.get(i, 0) + s
        i = act_s[i]
        # m <- S^-1 * m
        ma, mb, mc, md = mc, md, -ma, -mb
    # m is now +-T^k
    k = mb if ma == 1 else -mb
    if k:
        j = n_manin + cusp_of[i]
        amb[j] = amb.get(j, 0) + s * k


def _combine(space, amb):
    """Basis coordinates of sum of x * (ambient generator k) over amb.items()."""
    return vec_mat_sparse(amb.items(), space.quotient.project, space.rank)


def reduce_pair(space, g, gprime):
    """Basis coordinates of the symbol {g, g'} for unimodular g, g'."""
    if det(g) != 1 or det(gprime) != 1:
        raise InvalidInputError("arguments must be unimodular")
    amb = {}
    _add_pair(space, amb, g, gprime)
    return _combine(space, amb)


def _primitive_integral(m):
    """Scale a rational matrix by a positive rational to primitive integers."""
    if all(type(x) is int for x in m):
        ints = m
    else:
        entries = [Fraction(x) for x in m]
        mult = lcm(*(x.denominator for x in entries))
        ints = [int(x * mult) for x in entries]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def _upper_split(h):
    """The Hermite split h = t * ((a, b), (0, d)) of an integer matrix of det D > 0.

    Returns (t, a, b, d): t in SL2(Z), a = gcd(h11, h21), d = D / a and b
    centred in -((d-1)//2) .. d//2, which fix the split uniquely, so it is
    left-equivariant: gamma * h gives gamma * t.  t's first column is h's
    over a; ``sl2.complete`` gives a second column, and a power of T centres
    b, so which completion it gives cannot show.
    """
    h11, h12, h21, h22 = h
    a = gcd(h11, h21)
    u, v = h11 // a, h21 // a
    x, y = complete(u, v)
    d = (h11 * h22 - h12 * h21) // a
    # b is the top right entry of t^-1 * h, t^-1 = ((y, -x), (-v, u)); t * T^k
    # takes it to b - k*d, centred by the k below
    b = y * h12 - x * h22
    k = (b + (d - 1) // 2) // d
    return (u, x + k * u, v, y + k * v), a, b - k * d, d


def _split_rational(m):
    """``_upper_split`` of the primitive integer multiple of m."""
    m = _primitive_integral(m)
    if det(m) <= 0:
        raise InvalidInputError("matrices must have positive determinant")
    return _upper_split(m)


def _add_scaled(space, amb, m, mprime, s=None):
    """Add s * {m, m'} into amb, for rational m, m' of positive determinant; return s.

    Each of m, m' is scaled to a primitive integer matrix and split by
    ``_upper_split`` as alpha * ((a, b), (0, d)); then

      s * {m, m'} = s * {alpha, alpha'} - (s*b/d) * cusp(alpha)
                    + (s*b'/d') * cusp(alpha'),

    where cusp(alpha) is the cusp generator at alpha's coset.  Any other
    split, alpha * T^k with b - k*d, gives the same sum, since
    {alpha, alpha * T^k} = k * cusp(alpha).  s defaults to d * d'.
    Raises InvalidInputError unless s is a multiple of both d and d'.
    """
    alpha, _, b, d = _split_rational(m)
    alpha2, _, b2, d2 = _split_rational(mprime)
    if s is None:
        s = d * d2
    elif s % d or s % d2:
        raise InvalidInputError(f"scale {s} is not a multiple of {d} and {d2}")
    _add_pair(space, amb, alpha, alpha2, s)
    for beta, num in ((alpha, -s * b // d), (alpha2, s * b2 // d2)):
        if num:
            k = space.n_manin + space.cusps.cusp_of[space.cosets.coset_of(beta)]
            amb[k] = amb.get(k, 0) + num
    return s


def reduce_pair_scaled(space, m, mprime, s):
    """s times the basis coordinates of {m, m'}, as integers.

    m and m' are rational matrices of positive determinant; see ``_add_scaled``.
    Raises InvalidInputError unless s clears the denominators of {m, m'}.
    """
    amb = {}
    _add_scaled(space, amb, m, mprime, s)
    return _combine(space, amb)


def reduce_pair_rational(space, m, mprime):
    """Rational basis coordinates of {m, m'} for rational matrices of positive determinant.

    ``_add_scaled`` with its default s = d * d', from one split of each
    matrix, divided by s.
    """
    amb = {}
    s = _add_scaled(space, amb, m, mprime)
    return [Fraction(x, s) for x in _combine(space, amb)]


def boundary(space, x):
    """Degree-zero cusp divisor of an element in basis coordinates."""
    return vec_mat(x, space.boundary_basis)


def manin_image_rows(space):
    """Images of all Manin generators, the span of the coset-symbol map."""
    return [space.manin_gen(i) for i in range(space.n_manin)]


def manin_index(space):
    """Index of the span of the Manin generators in the full lattice."""
    return sublattice_index(identity_matrix(space.rank), manin_image_rows(space))


def expected_manin_index(space):
    """Predicted index of the coset-symbol span, from the structural criterion.

    The index of the span of the Manin generators is 1 exactly when either a
    degree-one U-invariant exists in the free module on the cosets (i.e. some
    coset is fixed by U) or the total width sum is coprime to 3; otherwise it
    is 3.  Proved for Gamma0(p^n) and Gamma1(p^n) with p >= 5 prime; for
    Gamma0 both conditions reduce to p = 1 mod 3, for Gamma1 neither ever
    holds.
    """
    act_s, act_t = space.cosets.action["S"], space.cosets.action["T"]
    has_u_fixed = any(act_s[act_t[i]] == i for i in range(space.n_manin))
    width_sum = sum(space.cusps.widths)
    return 1 if has_u_fixed or width_sum % 3 != 0 else 3


def homology_sublattice(space):
    """Generators of the embedded open-curve homology lattice.

    gamma -> {1, gamma} is additive, so its image is the span of the cycles of
    the coset graph, whose edges i -> i*S carry ManinGen(i) and i -> i*T carry
    CuspGen(c(i)).  A breadth-first search from coset 0 gives tree sums Q(i);
    a non-tree edge i -> j gives Q(i) + edge - Q(j).  No saturation is taken.
    """
    act_s, act_t = space.cosets.action["S"], space.cosets.action["T"]
    n_manin, cusp_of, project = len(act_s), space.cusps.cusp_of, space.quotient.project
    tree = [None] * n_manin
    tree[0] = [0] * space.rank
    rows = []
    queue = [0]
    for i in queue:
        for j, edge in ((act_s[i], project[i]), (act_t[i], project[n_manin + cusp_of[i]])):
            row = tree[i][:]
            for k, x in edge:
                row[k] += x
            if tree[j] is None:
                tree[j] = row
                queue.append(j)
            elif row != tree[j]:
                rows.append([x - y for x, y in zip(row, tree[j])])
    return rows


def kernel_of_boundary(space):
    """Basis of ker(boundary) in basis coordinates (a saturated sublattice)."""
    return kernel_basis(space.boundary_basis)


def homology_index_in_kernel(space):
    """Index of the homology sublattice inside ker(boundary)."""
    return sublattice_index(kernel_of_boundary(space), homology_sublattice(space))


def expected_homology_index(space):
    """(1/d_Gamma) * product of the cusp widths."""
    out = 1
    for w in space.cusps.widths:
        out *= w
    return out // space.cusps.gcd_of_widths


def kernel_pi_invariants(space):
    """Structure (free_rank, torsion) of ker(pi); free since the lattice is."""
    rows = kernel_basis(space.pi_basis)
    return len(rows), []


def cusp_cokernel_invariants(space):
    """Invariants of coker(Z -> Z[cusps], 1 -> (1/d) * sum of e_c * [c]).

    Returned as (free_rank, torsion list), comparable with the kernel of pi.
    """
    d = space.cusps.gcd_of_widths
    invs = smith_invariants([[w // d for w in space.cusps.widths]])
    free_rank = space.n_cusp - len(invs)
    return free_rank, [x for x in invs if x != 1]


def space_to_dict(space):
    """JSON-ready document; every integer is a decimal string."""
    def srow(row):
        return [str(x) for x in row]

    cusp_records = []
    for (p, q), w in zip(space.cusps.points, space.cusps.widths):
        rep = "oo" if q == 0 else str(p) if q == 1 else f"{p}/{q}"
        cusp_records.append({"rep": rep, "width": str(w)})
    return {
        "family": space.spec.family,
        "level": str(space.spec.level),
        "cosets": [srow(m) for m in space.cosets.reps],
        "cusps": cusp_records,
        "basis_rank": str(space.rank),
        "project": [srow(r) for r in dense_rows(space.quotient.project, space.rank)],
        "lift": [srow(r) for r in dense_rows(space.quotient.lift,
                                             space.n_manin + space.n_cusp)],
        "pi": [srow(r) for r in space.pi_basis],
        "boundary": [srow(r) for r in space.boundary_basis],
        "torsion": [str(x) for x in space.quotient.torsion],
    }


_DECIMAL = re.compile(r"-?[0-9]+")


def _is_decimal(x):
    return isinstance(x, str) and _DECIMAL.fullmatch(x) is not None


def _is_matrix(v):
    return isinstance(v, list) and all(
        isinstance(row, list) and all(map(_is_decimal, row)) for row in v)


def _is_cusp(c):
    return (isinstance(c, dict) and set(c) == {"rep", "width"}
            and isinstance(c["rep"], str) and _is_decimal(c["width"]))


# the shape of each value space_to_dict writes
_DOCUMENT_SHAPE = {
    "family": lambda v: isinstance(v, str),
    "level": _is_decimal,
    "cosets": _is_matrix,
    "cusps": lambda v: isinstance(v, list) and all(map(_is_cusp, v)),
    "basis_rank": _is_decimal,
    "project": _is_matrix,
    "lift": _is_matrix,
    "pi": _is_matrix,
    "boundary": _is_matrix,
    "torsion": lambda v: isinstance(v, list) and all(map(_is_decimal, v)),
}


def space_from_dict(doc):
    """Rebuild a space from its serialized document and verify consistency.

    Raises InvalidInputError for a document without the shape space_to_dict
    writes, InvalidSpecError for a bad family or level, and
    DocumentMismatchError when the document differs from a fresh build.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError("document must be a JSON object")
    if set(doc) != set(_DOCUMENT_SHAPE):
        raise InvalidInputError(f"document keys must be {sorted(_DOCUMENT_SHAPE)}")
    bad = [k for k, ok in _DOCUMENT_SHAPE.items() if not ok(doc[k])]
    if bad:
        raise InvalidInputError(f"ill-typed document keys: {bad}")
    spec = GroupSpec(doc["family"], int(doc["level"]))
    space = build_space(spec)
    if space_to_dict(space) != doc:
        raise DocumentMismatchError("document does not match a freshly built space")
    return space
