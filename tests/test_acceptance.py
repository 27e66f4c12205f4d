"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every check is exact; wall-clock limits are asserted where stated.
"""

import dataclasses
import io
import json
import pathlib
import random
import time
from math import gcd

import rimtwist as rt
from rimtwist.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {num} [{status}]: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_torus_alexander_agreement():
    start = time.monotonic()
    failures = []
    pairs = [(p, q) for p in range(2, 8) for q in range(p + 1, 8) if gcd(p, q) == 1]
    for p, q in pairs:
        via_fox = rt.alexander_polynomial(rt.wirtinger_from_braid(rt.torus_braid(p, q)))
        if not via_fox.unit_equal(rt.torus_alexander(p, q)):
            failures.append((p, q))
    elapsed = time.monotonic() - start
    _criterion(
        1,
        "Fox-calculus Alexander of braid closures matches the torus closed form "
        "for all coprime 2<=p<q<=7",
        not failures and elapsed < 10.0,
        f"{len(pairs)} pairs, {elapsed:.2f}s",
    )


def test_criterion_2_order_formula_crosscheck():
    start = time.monotonic()
    corpus = [
        rt.parse_knot("T(2,3)"),
        rt.parse_knot("braid(3; 1 -2 1 -2)"),
        rt.parse_knot("T(2,5)"),
        rt.parse_knot("T(3,4)"),
        rt.parse_knot("T(2,3)#mirror(T(2,3))"),
    ]
    failures = []
    for knot in corpus:
        pres = rt.presentation_of_knot(knot)
        delta = rt.alexander_polynomial(pres)
        for d in range(1, 6):
            order = rt.branched_cover_order(delta, d)
            structure = rt.branched_cover_structure(pres, d)
            if structure.order() != order:
                failures.append((rt.render(knot), d))
    elapsed = time.monotonic() - start
    _criterion(
        2,
        "resultant order equals Smith-normal-form order on the corpus for 1<=d<=5",
        not failures and elapsed < 30.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_homology_sphere_family():
    start = time.monotonic()
    failures = []
    checks = 0
    for p in range(2, 8):
        for q in range(p + 1, 8):
            if gcd(p, q) != 1:
                continue
            delta_j = rt.torus_alexander(p, q)
            delta_k = (delta_j * delta_j).normalize()
            for d in range(1, 12):
                if gcd(d, p) != 1 or gcd(d, q) != 1:
                    continue
                checks += 2
                if rt.branched_cover_order(delta_j, d) != 1:
                    failures.append(("J", p, q, d))
                if rt.branched_cover_order(delta_k, d) != 1:
                    failures.append(("K", p, q, d))
    elapsed = time.monotonic() - start
    _criterion(
        3,
        "pairwise-coprime torus-knot covers are homology spheres (order 1), "
        "p<q<=7, d<=11, for both J and J#mirror(J)",
        not failures and elapsed < 30.0,
        f"{checks} orders, {elapsed:.2f}s",
    )


def test_criterion_4_cyclic_quotient_verification():
    start = time.monotonic()
    knots = [
        rt.parse_knot("T(2,3)"),
        rt.parse_knot("braid(3; 1 -2 1 -2)"),
        rt.parse_knot("T(2,5)"),
    ]
    pairs = [(2, 3), (3, 2), (3, 4), (5, 4), (5, 6), (7, 8), (7, 6)]
    failures = []
    for knot in knots:
        pres = rt.presentation_of_knot(knot)
        for d, m in pairs:
            twisted = rt.twist_rim_presentation(pres, d, m)
            verdict = rt.cyclic_verdict(twisted, d, budget=10**6)
            if verdict != rt.Pi1Verdict("cyclic", d, "coset-enumeration"):
                failures.append((rt.render(knot), d, m))
    elapsed = time.monotonic() - start
    _criterion(
        4,
        "twist quotients are certified Z/d by completed enumeration for the "
        "stated (d, m) grid",
        not failures and elapsed < 60.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_5_index_two_subgroup():
    tre = rt.presentation_of_knot(rt.parse_knot("T(2,3)"))
    twisted = rt.twist_rim_presentation(tre, 2, 2)
    table = rt.todd_coxeter(twisted)
    ab = rt.abelianization(twisted)
    verdict = rt.cyclic_verdict(twisted, 2)
    ok = (
        table.completed
        and table.order == 6
        and verdict == rt.Pi1Verdict("finite", 6, "coset-enumeration")
        and ab == rt.AbelianInvariants(0, (2,))
        and table.order // 2 == 3  # the kernel of the Z/2 quotient is nontrivial
    )
    _criterion(
        5,
        "trefoil with d=2, m=2 has order 6, is not Z/2, and its abelianization "
        "Z/2 leaves a nontrivial index-2 subgroup",
        ok,
        f"order={table.order}, abelianization={ab}",
    )


def test_criterion_6_infinite_homology_detection():
    delta = rt.alexander_polynomial(rt.presentation_of_knot(rt.parse_knot("T(2,3)")))
    order = rt.branched_cover_order(delta, 6)
    _criterion(
        6,
        "trefoil 6-fold cover homology is infinite (Alexander polynomial kills "
        "a sixth root of unity)",
        order is None,
        f"order={order}",
    )


def test_criterion_7_property_suite():
    start = time.monotonic()
    rng = random.Random(20260810)
    braids = []
    while len(braids) < 200:
        strands = rng.randint(2, 4)
        length = rng.randint(1, 8)
        word = tuple(
            rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)
        )
        if rt.braid_closure_components(strands, word) == 1:
            braids.append(rt.Braid(strands, word))

    failures = 0
    for b in braids:
        pres = rt.wirtinger_from_braid(b)
        delta = rt.alexander_polynomial(pres)
        if delta.evaluate(1) not in (1, -1):
            failures += 1
        if not delta.unit_equal(delta.reverse()):
            failures += 1
        mirrored = rt.alexander_polynomial(rt.wirtinger_from_braid(rt.mirror_braid(b)))
        if not mirrored.unit_equal(delta.reverse()):
            failures += 1
        column = rng.randint(1, pres.generator_count)
        if not rt.alexander_polynomial(dataclasses.replace(pres, meridian=column)).unit_equal(delta):
            failures += 1
    for a, b in zip(braids[0::2], braids[1::2]):
        pa, pb = rt.wirtinger_from_braid(a), rt.wirtinger_from_braid(b)
        summed = rt.alexander_polynomial(rt.presentation_connected_sum(pa, pb))
        product = (rt.alexander_polynomial(pa) * rt.alexander_polynomial(pb)).normalize()
        if not summed.unit_equal(product):
            failures += 1
    elapsed = time.monotonic() - start
    _criterion(
        7,
        "200 seeded random braid knots: unit value at 1, symmetry, mirror "
        "reversal, sum multiplicativity, meridian independence",
        failures == 0 and elapsed < 60.0,
        f"{failures} failures, {elapsed:.2f}s",
    )


def test_criterion_8_end_to_end_classify_golden():
    out = io.StringIO()
    code = run(
        ["classify", "T(2,3)#mirror(T(2,3))", "--d", "5", "--m", "4", "--cp2", "--json"],
        out=out,
        err=io.StringIO(),
    )
    got = json.loads(out.getvalue())
    golden = json.loads((GOLDEN / "classify_trefoil_sum_d5_m4.json").read_text())
    ok = (
        code == 0
        and got == golden
        and got["smoothly_knotted"]["verdict"] == "yes"
        and got["topologically_standard"]["verdict"] == "yes"
        and got["cp2"]["genus"] == 6
    )
    _criterion(
        8,
        "end-to-end classify of T(2,3)#mirror(T(2,3)) at d=5, m=4 with the "
        "degree-5 curve flag matches the JSON golden file",
        ok,
    )
