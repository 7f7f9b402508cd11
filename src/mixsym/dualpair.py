"""The antisymmetric duality pairing on the dual of the mixed-symbol lattice.

For functionals phi, psi on the symbol lattice the pairing is

  <phi, psi> = (1/6) * sum over g in Gamma\\SL2(Z) of
      phi({gS,g})*psi({gTS,gT}) - phi({gTS,gT})*psi({gS,g})
      - 4*phi({g,gT})*psi({g,gS}) + 4*phi({g,gS})*psi({g,gT}).

Functionals are row vectors in the dual basis (phi(x) = sum x_i*phi_i), and
the pairing is realized by a rank x rank rational Gram matrix P with
<phi, psi> = phi * P * psi^T.  The sum runs over the projective cosets of
the stored table: every symbol is invariant under sign changes of its
matrices, and the conjectural determinant value (1/d)*prod(e_c) is attained
exactly in this normalization on all tested levels, including those where
-Id is missing from the group.

The module also realizes the closed form for the induced map G from the
dual lattice back into the symbol lattice: for phi vanishing on the span of
the cusp generators, G(phi) is the weighted cycle

  G(phi) = sum over g of (1/6)*lambda_{g tau}*({gS,g} - {g tau^2 S, g tau^2})
           - (2/3)*lambda_g*{g,gT},      lambda_g = phi({gS, g}),

with tau = S*T, and the coefficients (lambda_g) satisfy the cycle conditions
lambda_g + lambda_{gS} = 0 and lambda_g + lambda_{g tau} + lambda_{g tau^2} = 0.
G inverts the intersection form (x, y) -> sum of lambda_g * mu_g, which is
also provided for reporting.

Every symbol above is a row of ``project``: {g,gS} is the Manin generator of
g's coset i, {gTS,gT} is minus the Manin generator of coset iT, and {g,gT} is
the cusp generator of c(i).  The Gram matrix and 6*G are therefore integer
combinations of those rows; the only division is the final one by 6.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod

from .mms import InvalidInputError, expected_homology_index
from .zlattice import (common_denominator, factor, kernel_basis, mat_mul,
                       mat_scale, mat_transpose, smith_invariants, vec_mat,
                       vec_mat_sparse)


@dataclass
class PairingMatrix:
    """Gram matrix of the duality pairing on the dual basis.

    Stored as the integer matrix ``six_mat``, six times the Gram matrix;
    ``mat`` is the Gram matrix itself, with Fraction entries.
    """

    six_mat: list

    @property
    def mat(self):
        return [[Fraction(x, 6) for x in row] for row in self.six_mat]

    def value(self, phi, psi):
        """<phi, psi> for functionals given as rows in the dual basis."""
        return Fraction(sum(x * y for x, y in zip(vec_mat(phi, self.six_mat), psi)), 6)

    def is_antisymmetric(self):
        return self.six_mat == mat_scale(-1, mat_transpose(self.six_mat))

    def six_times_integral(self):
        return common_denominator(self.six_mat) == 1


def pairing_matrix(space):
    """Gram matrix of the duality pairing for the given space.

    With the corner symbols A = {gS,g} = -M_i, B = {gTS,gT} = -M_iT,
    C = {g,gT} = C_c(i) and D = {g,gS} = M_i stacked over the cosets, six
    times the Gram matrix is A^T B - B^T A - 4(C^T D - D^T C) = K - K^T for
    K = A^T B - 4 C^T D, summed in integers as one outer product of sparse
    ``project`` rows per coset, M_i^T M_iT - 4 C_c(i)^T M_i.
    """
    n, rank = space.n_manin, space.rank
    project = space.quotient.project
    t_act, cusp_of = space.cosets.action["T"], space.cusps.cusp_of
    k = [[0] * rank for _ in range(rank)]
    for i in range(n):
        manin = project[i]
        for left, right, scale in ((manin, project[t_act[i]], 1),
                                   (project[n + cusp_of[i]], manin, -4)):
            for a, x in left:
                row, sx = k[a], scale * x
                for b, y in right:
                    row[b] += sx * y
    six = [[x - y for x, y in zip(row, col)] for row, col in zip(k, zip(*k))]
    return PairingMatrix(six_mat=six)


def fractional_invariants(pairing):
    """Invariant factors of the Gram matrix as positive rationals.

    Those of ``six_mat`` are six times those of the Gram matrix, so one
    integer Smith form gives them all.
    """
    return [Fraction(s, 6) for s in smith_invariants(pairing.six_mat)]


def _units_after_inverting(invariants, rank, inverted):
    """Whether all ``rank`` invariant factors are units in Z[1/inverted]."""
    allowed = set(factor(inverted))
    return len(invariants) == rank and all(
        set(factor(f.numerator)) | set(factor(f.denominator)) <= allowed
        for f in invariants)


def abs_pfaffian(det):
    """|Pfaffian| from the determinant of an antisymmetric matrix, or None.

    The determinant of an antisymmetric matrix of even rank is the square of
    its Pfaffian, so |Pf| is the exact rational square root when one exists.
    """
    d = abs(Fraction(det))
    rn, rd = isqrt(d.numerator), isqrt(d.denominator)
    if rn * rn == d.numerator and rd * rd == d.denominator:
        return Fraction(rn, rd)
    return None


def perfectness_report(space, pairing=None):
    """Structural facts about the pairing, for reporting and testing.

    Everything is read off one Smith form.  The determinant is the product
    of the invariant factors, and 0 when there are fewer than ``rank`` of
    them: an antisymmetric matrix has det = Pf^2 >= 0, so no sign is lost.
    """
    p = pairing if pairing is not None else pairing_matrix(space)
    invariants = fractional_invariants(p)
    det = prod(invariants, start=Fraction(1)) \
        if len(invariants) == space.rank else Fraction(0)
    inverted = 2 * lcm(*space.cusps.widths)
    return {
        "rank": space.rank,
        "antisymmetric": p.is_antisymmetric(),
        "six_times_integral": p.six_times_integral(),
        "det": det,
        "abs_det": abs(det),
        "abs_pfaffian": abs_pfaffian(det),
        "expected_abs_det": expected_homology_index(space),
        "invariants": invariants,
        "inverted": inverted,
        "perfect_after_inverting": _units_after_inverting(invariants, space.rank,
                                                          inverted),
        "nondegenerate": det != 0,
    }


def conj_anti_invariance(pairing, conj_op):
    """Check <phi o c, psi> = -<phi, psi o c> as a matrix identity.

    Precomposition with the conjugation matrix C sends the functional phi to
    phi * C^T, so the identity reads C^T * P = -P * C; both sides are
    compared after scaling by 6 and by the denominator of C.
    """
    c = conj_op.num
    six = pairing.six_mat
    return mat_mul(mat_transpose(c), six) == mat_scale(-1, mat_mul(six, c))


def adjointness_check(pairing, op, w_op):
    """Check that the pairing swaps op with its Atkin-Lehner conjugate.

    On functionals the operator with element-side matrix M acts by
    phi -> phi * M^T, so <M phi, psi> = <phi, (W M W^-1) psi> for all phi,
    psi amounts to M^T * P = P * (W * M * W).  With M = m / d and W = w / e
    for int matrices m and w, both sides are compared after scaling by
    6 * d * e^2.
    """
    m, w = op.num, w_op.num
    six = pairing.six_mat
    lhs = mat_scale(w_op.den ** 2, mat_mul(mat_transpose(m), six))
    rhs = mat_mul(six, mat_mul(w, mat_mul(m, w)))
    return lhs == rhs


def G_map(pairing, phi):
    """Coordinates in the symbol basis of G(phi), defined by psi(G(phi)) = <phi, psi>."""
    return [Fraction(x, 6) for x in vec_mat(phi, pairing.six_mat)]


def dual_cuspless_basis(space):
    """Functionals (rows) vanishing on the span of the cusp generators.

    These are the duals of the relative-homology block, the domain of the
    closed-form expression for G.
    """
    return kernel_basis(mat_transpose(space.cusp_sublattice()))


def lambda_from_dual(space, phi):
    """Cycle coefficients lambda_i = phi({rep_i * S, rep_i}) of a functional.

    The functional must vanish on the cusp generators; the resulting
    coefficients are checked against both cycle conditions.
    """
    project, n = space.quotient.project, space.n_manin
    for c in range(space.n_cusp):
        if sum(x * phi[j] for j, x in project[n + c]) != 0:
            raise InvalidInputError("functional must vanish on cusp generators")
    # lambda_i = phi({gS, g}) = -phi(ManinGen(i))
    lam = [-sum(x * phi[j] for j, x in project[i]) for i in range(n)]
    _check_cycle_conditions(space, lam)
    return lam


def _check_cycle_conditions(space, lam):
    s_act, t_act = space.cosets.action["S"], space.cosets.action["T"]
    for i in range(space.n_manin):
        if lam[i] + lam[s_act[i]] != 0:
            raise InvalidInputError("cycle condition lambda_g + lambda_gS = 0 fails")
        t1 = t_act[s_act[i]]  # the coset of rep_i * tau, tau = S * T
        t2 = t_act[s_act[t1]]
        if lam[i] + lam[t1] + lam[t2] != 0:
            raise InvalidInputError(
                "cycle condition lambda_g + lambda_gtau + lambda_gtau2 = 0 fails")


def lambda_to_mms(space, lam):
    """The cycle with coefficients (lambda_i) as an element of the symbol lattice.

    Realizes sum over cosets of (1/6)*lambda_{g tau}*({gS,g} - {gtau^2 S, gtau^2})
    - (2/3)*lambda_g*{g,gT}; the input must satisfy both cycle conditions.
    """
    _check_cycle_conditions(space, lam)
    return [Fraction(x, 6) for x in _six_times_cycle(space, lam)]


def _six_times_cycle(space, lam):
    """Six times lambda_to_mms, accumulated without division.

    With {gS,g} = -ManinGen(i) and {g,gT} = CuspGen(c(i)) the summand at
    coset i is lambda_{i tau} * (M_{i tau^2} - M_i) - 4 * lambda_i * C_c(i).
    The coefficients are gathered on the ambient generators first, so each
    sparse ``project`` row is added once.  The caller has checked the cycle
    conditions on lam.
    """
    s_act, t_act = space.cosets.action["S"], space.cosets.action["T"]
    n_manin, cusp_of = space.n_manin, space.cusps.cusp_of
    amb = [0] * (n_manin + space.n_cusp)
    for i in range(n_manin):
        t1 = t_act[s_act[i]]
        x = lam[t1]
        if x:
            amb[i] -= x
            amb[t_act[s_act[t1]]] += x
        if lam[i]:
            amb[n_manin + cusp_of[i]] -= 4 * lam[i]
    return vec_mat_sparse(enumerate(amb), space.quotient.project, space.rank)


def verify_G_identity(space, pairing=None):
    """Check G(phi) = cycle(lambda(phi)) on the cusp-vanishing dual block.

    Returns the number of basis functionals checked; raises on any mismatch.
    """
    p = pairing if pairing is not None else pairing_matrix(space)
    basis = dual_cuspless_basis(space)
    for phi in basis:
        lam = lambda_from_dual(space, phi)
        if vec_mat(phi, p.six_mat) != _six_times_cycle(space, lam):
            raise InvalidInputError("duality map does not match its closed form")
    return len(basis)


def intersection_value(lam, mu):
    """The intersection form sum over cosets of lambda_g * mu_g."""
    if len(lam) != len(mu):
        raise InvalidInputError("coefficient lists must have equal length")
    return sum(x * y for x, y in zip(lam, mu))
