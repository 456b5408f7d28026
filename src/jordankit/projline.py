"""The projective line over A = M_n(K), realized as the Grassmannian of
n-dimensional subspaces of K^{2n}: charts, transversality, the fractional
group action, dilations, the four block involutions and their point maps,
point classification, the Cayley transform and polarities.
"""

from __future__ import annotations

from . import _kernels as K
from .algebra import Involution, Matrix
from .errors import (NotAUnit, NotInChart, NotInvertible, NotTransversal,
                     RingMismatch, ShapeMismatch, SingularOperator, _echo)
from .graded import GroupElement, blocks


class ProjectivePoint:
    """A 2n x n full-column-rank matrix modulo right basis change."""

    __slots__ = ("n", "ring", "rep")

    def __init__(self, rep, n=None):
        n = rep.ncols if n is None else n
        if rep.shape != (2 * n, n):
            raise ShapeMismatch(f"point rep must be 2n x n, got {rep.shape}")
        if rep.rank() != n:
            raise ShapeMismatch("point rep is rank-deficient")
        self.n = n
        self.ring = rep.ring
        self.rep = rep

    @classmethod
    def _of(cls, rep, n):
        """Internal fast path: the point of a 2n x n rep that has rank n
        by construction, adopted without ranking it."""
        E = cls.__new__(cls)
        E.n = n
        E.ring = rep.ring
        E.rep = rep
        return E

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if self.ring != other.ring or self.n != other.n:
            return False
        return _joined_rank(self, other) == self.n

    __hash__ = None

    def embed(self, ring):
        """The point over an extension; embedding keeps the re-part, so
        the rank."""
        if ring == self.ring:
            return self
        return ProjectivePoint._of(self.rep.embed(ring), self.n)

    def __repr__(self):
        return f"ProjectivePoint({self.rep!r})"


def gamma_chart(z):
    """Column space of (z; 1): the graph of left translation by z; its
    identity block gives it rank n."""
    n = z.nrows
    return ProjectivePoint._of(z.vstack(Matrix.identity(z.ring, n)), n)


def base_plus(ring, n):
    """o+ = [(1; 0)]."""
    one = Matrix.identity(ring, n)
    return ProjectivePoint._of(one.vstack(Matrix.zeros(ring, n)), n)


def base_minus(ring, n):
    """o- = [(0; 1)] = Gamma_0."""
    return gamma_chart(Matrix.zeros(ring, n))


def chart_coords(E):
    """z with E = Gamma_z, i.e. P Q^-1 for rep = (P; Q)."""
    n = E.n
    p = E.rep.submatrix(range(n), range(n))
    q = E.rep.submatrix(range(n, 2 * n), range(n))
    try:
        return p @ q.inverse()
    except NotInvertible:
        raise NotInChart("point is not transversal to o+") from None


def in_chart(E):
    n = E.n
    return E.rep.submatrix(range(n, 2 * n), range(n)).rank() == n


def _same_line(E, *others):
    if any(F.ring != E.ring or F.n != E.n for F in others):
        raise RingMismatch("points of different lines")


def _joined_rank(E, F):
    """The rank of [E | F]: the pivots of the re-parts side by side. Over
    Q each block is joined by its numerators, without a common
    denominator: scaling a block by a positive integer keeps the
    pivots."""
    a, b = E.rep.base_part(), F.rep.base_part()
    return K.gauss_rank([x + y for x, y in zip(a._form, b._form)], a.ring)


def transversal(E, F):
    _same_line(E, F)
    return _joined_rank(E, F) == 2 * E.n


def act_frac(g, E):
    """Column space of g . rep; total on the projective line. Over exact
    rings and dual towers over them an invertible g keeps the rank of
    rep, so the image is ranked only when g is singular; the rank of g
    is kept on its matrix. Over float64 both are threshold decisions
    and the image is ranked."""
    image = g.mat @ E.rep
    if E.ring.is_exact() and g.mat.is_invertible():
        return ProjectivePoint._of(image, E.n)
    return ProjectivePoint(image, E.n)


def mu_dilation(r, x, a, y):
    """Image of y under (id on the x-summand) + (r on the a-summand) of
    K^{2n} = x + a; in the chart with origin x and infinity a this scales
    coordinates by r. The solve y = x P + a Q fails exactly when x meets
    a; [y | a] = [x | a] (P 0; Q 1), so y meets a exactly when P is
    singular. The image x P + a Q r is y + a Q (r - 1), of rank n, which
    over float64 is ranked again, as a threshold decision."""
    if not x.ring.is_unit(r):
        raise NotAUnit("dilation factor must be a unit")
    _same_line(a, x, y)
    n = x.n
    try:
        pq = x.rep.hstack(a.rep).solve(y.rep)
        p = pq.submatrix(range(n), range(n))
    except SingularOperator:
        p = None
    if p is None or p.rank() != n:
        raise NotTransversal("dilation needs x and y transversal to a")
    q = pq.submatrix(range(n, 2 * n), range(n))
    image = y.rep + a.rep @ q.scale(r - x.ring.one())
    if x.ring.is_exact():
        return ProjectivePoint._of(image, n)
    return ProjectivePoint(image, n)


# -- block involutions of M_2(A) -------------------------------------------

def phi_matrix(j, iota, X, n):
    """Phi_j applied to a 2n x 2n matrix seen as an element of M_2(A)."""
    a, b, c, d = (iota.apply(m) for m in blocks(X, n))
    if j == 1:
        p, q, r, s = d, -b, -c, a
    elif j == 2:
        p, q, r, s = d, b, c, a
    elif j == 3:
        p, q, r, s = a, -c, -b, d
    elif j == 4:
        p, q, r, s = a, c, b, d
    else:
        raise ValueError(f"no involution Phi_{j}")
    return p.hstack(q).vstack(r.hstack(s))


def phi_group(j, iota, g):
    """The group automorphism g -> Phi_j(g)^-1."""
    m = phi_matrix(j, iota, g.mat, g.n)
    return GroupElement(g.n, g.ring, m).inverse()


def standard_complement(E):
    """The complement of E spanned by the first standard basis vectors
    independent of E and of each other: the pivot columns after the
    first n of [E | I_2n]; n distinct columns of the identity."""
    ring, n = E.ring, E.n
    eye = Matrix.identity(ring, 2 * n)
    piv = K.pivot_columns(E.rep.hstack(eye)._form, ring)
    return ProjectivePoint._of(
        eye.submatrix(range(2 * n), [k - n for k in piv if k >= n]), n)


def projection_onto(E, F):
    """The projection of K^{2n} with image E and kernel F."""
    ring, n = E.ring, E.n
    m = E.rep.hstack(F.rep)
    sel = E.rep.hstack(Matrix.zeros(ring, 2 * n, n))
    # p = [E | 0] M^-1: fixes E, kills F.
    return sel @ m.inverse()


def phi_involution(j, iota, E, complement=None):
    """Point map of Phi_j: im(p) -> ker(Phi_j(p)); independent of the
    complement used to build the projection p. The inverse of [E | F]
    that builds p decides that F is a complement of E."""
    F = complement if complement is not None else standard_complement(E)
    _same_line(E, F)
    try:
        p = projection_onto(E, F)
    except NotInvertible:
        raise NotTransversal(
            "complement is not transversal to the point") from None
    return _phi_image(j, iota, E, p)


def _phi_image(j, iota, E, p):
    """ker(Phi_j(p)) for a projection p with image E."""
    q = phi_matrix(j, iota, p, E.n)
    # ker(q) = im(1 - q) for idempotent q.
    kmat = Matrix.identity(E.ring, 2 * E.n) - q
    piv = K.pivot_columns(kmat._form, E.ring)
    if len(piv) != E.n:
        raise ShapeMismatch("involution image has wrong rank")
    # Elimination of the pivot columns alone finds the same pivots.
    return ProjectivePoint._of(kmat.submatrix(range(2 * E.n), piv), E.n)


def classify_point(iota, E):
    """Fixed-point flags under the point maps of Phi_1, Phi_2, Phi_3; on
    chart points these are z* = z, z* = -z, z* = z^-1. One projection
    serves all three point maps."""
    p = projection_onto(E, standard_complement(E))
    return {flag: _phi_image(j, iota, E, p) == E for j, flag in
            enumerate(("hermitian", "antihermitian", "unitary"), 1)}


# -- polarities -------------------------------------------------------------

def modification_matrix(H):
    """(0 H; H^-1 0) for an invertible hermitian H."""
    z = Matrix.zeros(H.ring, H.nrows)
    return GroupElement.from_blocks(z, H, H.inverse(), z)


class Polarity:
    """An order-2 point map of the projective line: E -> S.E (linear) or
    E -> S.phi_j(E) (semilinear); an invertible hermitian H replaces S by
    (0 H; H^-1 0) S."""

    __slots__ = ("mode", "S", "j", "involution", "H", "_eff")

    def __init__(self, mode, S, j=None, involution=None, H=None):
        if mode not in ("linear", "semilinear"):
            raise ValueError(f"unknown polarity mode {_echo(mode)}")
        if mode == "semilinear":
            if j not in (1, 2, 3, 4):
                raise ValueError("semilinear polarity needs j in 1..4")
            if involution is None:
                involution = Involution()
        self.mode = mode
        self.S = S
        self.j = j
        self.involution = involution
        self.H = H
        self._eff = modification_matrix(H) @ S if H is not None else S

    def apply(self, E):
        if self.mode == "linear":
            return act_frac(self._eff, E)
        return act_frac(self._eff, phi_involution(self.j, self.involution, E))

    def nonisotropic(self, E):
        return transversal(E, self.apply(E))

    def embed(self, ring):
        if ring == self.S.ring:
            return self
        return Polarity(self.mode, S=self.S.embed(ring), j=self.j,
                        involution=(self.involution.embed(ring)
                                    if self.involution else None),
                        H=self.H.embed(ring) if self.H is not None else None)

    def __repr__(self):
        tag = "linear" if self.mode == "linear" else f"semilinear(j={self.j})"
        return f"Polarity({tag}{', modified' if self.H is not None else ''})"
