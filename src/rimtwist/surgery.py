"""Classification of twist-surgered surfaces.

Builds the fundamental-group presentation of the surgered-surface
complement (the knot group with the meridian killed to order d and
every generator forced to commute with the m-th meridian power),
decides smooth knotting from the Alexander polynomial under the
Seiberg-Witten hypothesis flag, and decides topological standardness
from the ribbon certificate, the homology-circle test, and the
congruence d = +/-1 mod m.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass
from math import gcd

from .alexander import alexander_polynomial, require_knot_group
from .covers import branched_cover_order, order_value
from .groups import (
    DEFAULT_COSET_BUDGET,
    LOW_INDEX_DEGREE,
    AbelianInvariants,
    abelianization,
    cover_tower,
    kernel_h1,
    low_index_actions,
    reduced_knot_presentation,
    shift_action,
    todd_coxeter,
)
from .knots import ConnectedSum, KnotExpr, Mirror, TorusKnot, Unknot, render
from .laurent import LaurentPoly
from .wirtinger import GroupPresentation, presentation_of_knot
from .words import power, total_exponent


@dataclass(frozen=True)
class SurgeryParams:
    """Surgery data: divisibility d of the surface class, twist count m.

    ``sw_nontrivial`` asserts the nontriviality of the relative
    Seiberg-Witten invariant of the ambient pair, which this toolkit
    consumes as a hypothesis and never computes.  ``cp2`` marks the
    surface as a complex curve in CP^2, whose degree is d; it implies the
    hypothesis.  Degrees 1 and 2 are open cases and are refused.
    """

    d: int
    m: int
    sw_nontrivial: bool = False
    cp2: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.cp2:
            if self.d < 3:
                raise ValueError("cp2 needs d >= 3 (degree 1 and 2 curves are open cases)")
            object.__setattr__(self, "sw_nontrivial", True)


def congruent_pm1(d: int, m: int) -> bool:
    """Whether d = +1 or -1 mod m, with |m| used and m = 0 meaning d = 1."""
    if m == 0:
        return d == 1
    mm = abs(m)
    return d % mm in (1 % mm, (mm - 1) % mm)


def twist_rim_presentation(p: GroupPresentation, d: int, m: int) -> GroupPresentation:
    """Fundamental group of the surgered-surface complement.

    Extends the knot-group presentation by mu^d and, for every
    non-meridian generator g, the twist-invariance relator
    g^-1 mu^-t g mu^t with t = m mod d: the twist acts by conjugation
    with mu^m, so the group must make mu^m central.  That holds exactly
    when mu^m commutes with each generator, so the construction is valid
    on any generating set that contains the meridian, Wirtinger or
    Tietze-reduced.  Given mu^d, mu^m = mu^t, so t gives the same group
    with shorter relators, and none at all when d divides m; coset
    enumeration closes sooner on them, and ``low_index_actions`` scans
    relators letter by letter.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    n = p.generator_count
    if n == 0 or not (1 <= p.meridian <= n):
        raise ValueError("presentation has no meridian generator")
    mu = p.meridian
    twist = m % d
    relators = list(p.relators)
    relators.append(power(mu, d))
    for j in range(1, n + 1):
        if j != mu and twist:
            relators.append((-j,) + power(mu, -twist) + (j,) + power(mu, twist))
    return GroupPresentation(p.generators, tuple(relators), mu)


def ribbon_certificate(k: KnotExpr) -> str:
    """Syntactic ribbon certificate: "certified" or "unknown".

    Certified iff, after reassociating connected sums and pushing
    mirrors through them, the summands pair off as E with mirror(E).
    Ribbonness is never decided, only certified.
    """
    factors: list[tuple[int, KnotExpr]] = []

    def collect(expr: KnotExpr, mirrored: int):
        if isinstance(expr, Unknot):
            return
        if isinstance(expr, ConnectedSum):
            collect(expr.left, mirrored)
            collect(expr.right, mirrored)
            return
        if isinstance(expr, Mirror):
            collect(expr.child, mirrored ^ 1)
            return
        factors.append((mirrored, expr))

    collect(k, 0)
    plain: list[KnotExpr] = [e for s, e in factors if s == 0]
    mirrored: list[KnotExpr] = [e for s, e in factors if s == 1]
    for e in plain:
        try:
            mirrored.remove(e)
        except ValueError:
            return "unknown"
    return "certified" if not mirrored else "unknown"


@dataclass(frozen=True)
class Pi1Verdict:
    """What is known about the surgered complement's fundamental group.

    ``certificate`` names what decided the verdict: ``congruence`` and
    ``coset-enumeration`` for a cyclic or finite group; for an
    undetermined one, ``infinite-cover-homology`` (a free summand in H1
    of a subgroup in the tower over the index-d kernel K: K itself, a
    commutator subgroup or a cyclic cover), ``infinite-subgroup-homology``
    (the same in a tower over a point stabilizer of a permutation
    representation of small degree, or over the kernel of its image),
    ``kernel-homology`` (a nontrivial H1 of K, read once the budget is
    exhausted), ``abelianization-mismatch`` or ``budget-exhausted``.
    """

    kind: str  # "cyclic" | "finite" | "undetermined"
    order: int | None
    certificate: str

    @property
    def proves_not_cyclic(self) -> bool:
        """Whether the group is proven not Z/d.

        Every verdict but a cyclic one and ``budget-exhausted`` proves it.
        The undetermined ones among them keep their kind, so ``--strict``
        exits 3 on them too.
        """
        return self.kind != "cyclic" and self.certificate != "budget-exhausted"

    def __str__(self) -> str:
        if self.kind == "cyclic":
            return f"Z/{self.order} (certificate: {self.certificate})"
        if self.kind == "finite":
            return f"finite of order {self.order} (certificate: {self.certificate})"
        return f"undetermined ({self.certificate})"

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "certificate": self.certificate}
        if self.order is not None:
            out["order"] = self.order
        return out


@dataclass(frozen=True)
class SurgeryReport:
    """What ``classify`` computed for one surgered surface.

    Every other verdict is read off these fields, so no report
    contradicts itself.
    """

    knot: KnotExpr
    params: SurgeryParams
    alexander: LaurentPoly
    pi1: Pi1Verdict
    branched_order: int | None
    # the first failed test: "pi1-obstruction", "ribbon-certificate",
    # "homology-circle" or "congruence"; None when standard
    topologically_standard_failed: str | None

    @property
    def pi1_obstruction(self) -> bool:
        return self.topologically_standard_failed == "pi1-obstruction"

    @property
    def topologically_standard(self) -> str:
        """"yes", "no" (an obstruction proves it) or "unknown"."""
        if self.topologically_standard_failed is None:
            return "yes"
        return "no" if self.pi1_obstruction else "unknown"

    @property
    def smoothly_knotted(self) -> str:
        if self.params.sw_nontrivial and self.alexander != LaurentPoly.one():
            return "yes"
        return "no-evidence"

    @property
    def smoothly_knotted_reason(self) -> str:
        if not self.params.sw_nontrivial:
            return "Seiberg-Witten nontriviality hypothesis not asserted"
        if self.alexander == LaurentPoly.one():
            return "Alexander polynomial is trivial"
        return (
            "nontrivial relative Seiberg-Witten invariant times Alexander "
            "polynomial != 1 changes the coefficient multiset"
        )

    @property
    def cp2_genus(self) -> int | None:
        d = self.params.d
        return (d - 1) * (d - 2) // 2 if self.params.cp2 else None

    def __str__(self) -> str:
        lines = [
            f"knot: {render(self.knot)}",
            f"surgery: d={self.params.d} m={self.params.m}",
            f"alexander: {self.alexander}",
            f"pi1: {self.pi1}",
            f"pi1 obstruction: {'yes' if self.pi1_obstruction else 'no'}",
            f"branched cover: order {order_value(self.branched_order)}",
            f"smoothly knotted: {self.smoothly_knotted} ({self.smoothly_knotted_reason})",
            f"topologically standard: {self.topologically_standard}",
        ]
        if self.topologically_standard_failed is not None:
            lines[-1] += f" (failed: {self.topologically_standard_failed})"
        if self.params.cp2:
            lines.append(f"cp2: degree {self.params.d} curve, genus {self.cp2_genus}")
        return "\n".join(lines)

    def row_text(self) -> str:
        """One line of ``search`` text."""
        return (
            f"knot={render(self.knot)} d={self.params.d} m={self.params.m} "
            f"alexander=\"{self.alexander}\" "
            f"cover_order={order_value(self.branched_order)} "
            f"smoothly_knotted={self.smoothly_knotted} "
            f"topologically_standard={self.topologically_standard}"
        )

    def to_json(self) -> dict:
        smooth = {"verdict": self.smoothly_knotted, "reason": self.smoothly_knotted_reason}
        topo: dict = {"verdict": self.topologically_standard}
        if self.topologically_standard_failed is not None:
            topo["failed"] = self.topologically_standard_failed
        out = {
            "knot": render(self.knot),
            "d": self.params.d,
            "m": self.params.m,
            "alexander": self.alexander.to_json(),
            "pi1": self.pi1.to_json(),
            "smoothly_knotted": smooth,
            "topologically_standard": topo,
            "branched_cover": {"order": order_value(self.branched_order)},
        }
        if self.params.cp2:
            out["cp2"] = {"degree": self.params.d, "genus": self.cp2_genus}
        return out


def cyclic_verdict(
    group: GroupPresentation, d: int, budget: int = DEFAULT_COSET_BUDGET
) -> Pi1Verdict:
    """Whether a presented group is Z/d.

    The checks run in this order:

    1. Abelianization against Z/d.
    2. When G has a generator (else it has no coset action), every
       relator's exponent sum is 0 mod d and d <= ``budget`` (which then
       bounds the d-coset table of K): ``cover_tower`` over the kernel K
       of G -> Z/d that sends every generator to 1, from K through the
       commutator subgroups and cyclic covers of each subgroup it
       reaches, up to index min(500, budget).  A free summand proves G
       infinite (``infinite-cover-homology``) and skips enumeration,
       which closes only on a finite group, so no verdict is lost.
    3. Bounded coset enumeration with a tenth of the budget, so that a
       group that closes by then pays for none of the steps below.
    4. When that exhausts, ``cover_tower`` from the transitive
       permutation representations of degree at most 9 that one search
       of ``low_index_actions`` finds: from their point stabilizers and
       from the kernel of each one's image, up to the same index.  A
       free summand ends ``infinite-subgroup-homology``, for the reason
       of step 2.
    5. Otherwise enumeration starts again with the whole budget, which
       repeats at most a tenth of its work.  Cyclic needs a completed
       enumeration of order d together with abelianization exactly Z/d
       (a finite group surjecting onto an abelian group of the same
       order is that group); a completed enumeration of another order
       is ``finite``.
    6. On an exhausted budget: an abelianization other than Z/d gives
       ``abelianization-mismatch``, and where step 2 ran, a nontrivial
       H1(K) gives ``kernel-homology`` (were G = Z/d, K would be
       trivial).  Otherwise ``budget-exhausted`` decides nothing.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    expected = AbelianInvariants(free_rank=0, torsion=(d,) if d > 1 else ())
    ab_ok = abelianization(group) == expected
    over_k = group.generator_count > 0 and d <= budget
    over_k = over_k and all(total_exponent(r) % d == 0 for r in group.relators)
    if over_k and cover_tower(group, [shift_action(group, d)], budget) is not None:
        return Pi1Verdict("undetermined", None, "infinite-cover-homology")
    probe = max(1, budget // 10) if d <= budget else budget
    table = todd_coxeter(group, probe)
    if not table.completed and probe < budget:
        actions = low_index_actions(group, min(LOW_INDEX_DEGREE, budget))
        if cover_tower(group, actions, budget) is not None:
            return Pi1Verdict("undetermined", None, "infinite-subgroup-homology")
        table = todd_coxeter(group, budget)
    if table.completed:
        if table.order == d and ab_ok:
            return Pi1Verdict("cyclic", d, "coset-enumeration")
        return Pi1Verdict("finite", table.order, "coset-enumeration")
    if not ab_ok:
        return Pi1Verdict("undetermined", None, "abelianization-mismatch")
    if over_k and kernel_h1(group, d).order() != 1:
        return Pi1Verdict("undetermined", None, "kernel-homology")
    return Pi1Verdict("undetermined", None, "budget-exhausted")


def determine_pi1(
    p: GroupPresentation, d: int, m: int, budget: int
) -> tuple[Pi1Verdict, bool]:
    """Pi1 verdict plus its ``proves_not_cyclic``.

    The pair stays only because ``perfbench/tracing.py`` reads
    ``result[0]``.  Outside the congruence d = +/-1 mod m, the twist-rim
    group is built on ``reduced_knot_presentation(p)``, so ``budget``
    counts the cosets of a presentation on fewer generators than the
    Wirtinger one.  When ``p`` presents a knot group
    (``require_knot_group``), the twist-rim group maps onto Z/d, so its
    order is at least d; for d > budget no table can close, and the
    verdict is ``budget-exhausted``, as ``cyclic_verdict`` would find,
    without building the d-letter relator mu^d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    verdict = _pi1_verdict(p, d, m, budget)
    return verdict, verdict.proves_not_cyclic


def _pi1_verdict(p: GroupPresentation, d: int, m: int, budget: int) -> Pi1Verdict:
    if congruent_pm1(d, m):
        return Pi1Verdict("cyclic", d, "congruence")
    if d > budget:
        with suppress(ValueError):
            require_knot_group(p)
            return Pi1Verdict("undetermined", None, "budget-exhausted")
    group = twist_rim_presentation(reduced_knot_presentation(p), d, m)
    return cyclic_verdict(group, d, budget)


def classify(
    k: KnotExpr, params: SurgeryParams, budget: int = DEFAULT_COSET_BUDGET
) -> SurgeryReport:
    """Full report for one surgered surface.

    Deterministic in its inputs; a blown coset budget downgrades the
    group verdict to undetermined rather than fabricating one.
    """
    d, m = params.d, params.m
    pres = presentation_of_knot(k)
    pi1, _ = determine_pi1(pres, d, m, budget)
    delta = alexander_polynomial(pres)
    order = branched_cover_order(delta, d)
    # the double branched cover of a nontrivial knot has nontrivial
    # fundamental group, which embeds with index 2 here
    index_two = d == 2 and m % 2 == 0 and delta != LaurentPoly.one()
    if pi1.proves_not_cyclic or index_two:
        failed = "pi1-obstruction"
    elif ribbon_certificate(k) != "certified":
        failed = "ribbon-certificate"
    elif order != 1:
        failed = "homology-circle"
    elif not congruent_pm1(d, m):
        failed = "congruence"
    else:
        failed = None
    return SurgeryReport(k, params, delta, pi1, order, failed)


def enumerate_examples(
    p_max: int, q_max: int, d_max: int, m_max: int
) -> Iterator[SurgeryReport]:
    """The family of smoothly knotted, topologically standard surfaces.

    Sweeps torus knots J = T(p,q) with p < q, forms the ribbon knot
    J # mirror(J), and keeps (d, m) with d coprime to p and q,
    d = +/-1 mod m, and m >= 2.  Every emitted report is smoothly
    knotted (the Seiberg-Witten flag is asserted for the family) and
    topologically standard; the congruence decides pi1, so no coset
    budget is involved.  Reports are yielded as they are classified, in
    lexicographic (p,q,d,m) order; the bounds are checked at the first
    ``next``.
    """
    if min(p_max, q_max, d_max, m_max) < 2:
        raise ValueError("all bounds must be >= 2")
    for p in range(2, p_max + 1):
        for q in range(p + 1, q_max + 1):
            if gcd(p, q) != 1:
                continue
            knot = ConnectedSum(TorusKnot(p, q), Mirror(TorusKnot(p, q)))
            for d in range(2, d_max + 1):
                if gcd(d, p) != 1 or gcd(d, q) != 1:
                    continue
                for m in range(2, m_max + 1):
                    if not congruent_pm1(d, m):
                        continue
                    params = SurgeryParams(d=d, m=m, sw_nontrivial=True)
                    yield classify(knot, params)
