"""Tests of the benchmark's own checkers, schedules and tracer.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import sys
from math import prod
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def test_lucas_and_fibonacci():
    assert [checks.lucas(n) for n in range(11)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
    assert [checks.fibonacci(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_figure_eight_closed_forms():
    # determinant 5 at d = 2; |H1| of the 3-fold cover is 16 (Z/4 + Z/4)
    assert [checks.figure_eight_cover_order(d) for d in (1, 2, 3, 4)] == [1, 5, 16, 45]
    assert checks.figure_eight_cover_torsion(3) == [4, 4]
    assert checks.figure_eight_cover_torsion(4) == [3, 15]
    assert checks.figure_eight_cover_torsion(12) == [144, 720]
    for d in range(2, 14):  # L_d^2 = 5 F_d^2 + 4 (-1)^d, and L_2d - 2 is the one or the other
        assert prod(checks.figure_eight_cover_torsion(d)) == checks.figure_eight_cover_order(d)


def test_trefoil_period_six():
    assert [checks.trefoil_cover_order(d) for d in range(1, 13)] == [
        1, 3, 4, 3, 1, checks.INFINITE, 1, 3, 4, 3, 1, checks.INFINITE,
    ]


def test_coxeter_orders():
    # B3/<<sigma1^d>>: S3 at d = 2, then orders 24, 96 and 600; infinite from d = 6
    assert [checks.coxeter_order(d) for d in range(2, 9)] == [6, 24, 96, 600, None, None, None]


def test_torus_alexander_by_hand():
    assert checks.torus_alexander(2, 3) == [1, -1, 1]
    assert checks.torus_alexander(2, 5) == [1, -1, 1, -1, 1]
    assert checks.torus_alexander(3, 4) == [1, -1, 0, 1, 0, -1, 1]
    assert checks.knot_alexander((("T", 2, 3), ("mirrorT", 2, 3))) == [1, -2, 3, -2, 1]


def test_resultant_by_hand():
    trefoil, fig8 = [1, -1, 1], checks.FIGURE_EIGHT_ALEXANDER
    # Res(t^2 - 1, D) = D(1) D(-1)
    assert checks.cover_order(trefoil, 2) == 3
    assert checks.cover_order(fig8, 2) == 5
    assert checks.cover_order(checks.torus_alexander(2, 5), 2) == 5
    assert checks.cover_order(trefoil, 6) == checks.INFINITE
    assert checks.resultant([-1, 0, 1], [2, 1]) == 3  # (t^2 - 1) against t + 2: (-2)^2 - 1
    for d in range(1, 40):
        assert checks.cover_order(trefoil, d) == checks.trefoil_cover_order(d)
        assert checks.cover_order(fig8, d) == checks.figure_eight_cover_order(d)
    assert checks.cover_order(checks.torus_alexander(5, 7), 60) == 2401  # d = 60 shares 5 with p


def test_family_by_hand():
    # T(2,3)#mirror: d = 5 is the only d <= 5 prime to 6, and 5 = +-1 mod 2, 3 and 4
    assert workloads.family_rows(2, 3, 5, 4) == [(2, 3, 5, 2), (2, 3, 5, 3), (2, 3, 5, 4)]
    assert workloads.family_rows(3, 4, 4, 3) == []
    assert len(workloads.family_rows(4, 7, 11, 12)) == 144


def _search_row(p, q, d, m, **change):
    sq = checks.poly_mul(checks.torus_alexander(p, q), checks.torus_alexander(p, q))
    row = {
        "knot": f"T({p},{q})#mirror(T({p},{q}))",
        "d": d,
        "m": m,
        "alexander": {"coeffs": sq, "min_exp": 0},
        "branched_cover": {"order": 1},
        "pi1": {"kind": "cyclic", "order": d, "certificate": "congruence"},
        "smoothly_knotted": {"verdict": "yes"},
        "topologically_standard": {"verdict": "yes"},
    }
    row.update(change)
    return json.dumps(row)


def test_search_check_accepts_the_family_and_rejects_a_wrong_row():
    op = workloads.Op("sweep", ("search",), (), {"bounds": (2, 3, 5, 4)})
    rows = [_search_row(*t) for t in workloads.family_rows(2, 3, 5, 4)]
    assert checks.check(op, 0, "\n".join(rows)) is None
    wrong = rows[:2] + [_search_row(2, 3, 5, 4, branched_cover={"order": 3})]
    assert "cover order" in checks.check(op, 0, "\n".join(wrong))
    assert "rows" in checks.check(op, 0, "\n".join(rows[:2]))


def _classify_row(op, **change):
    facts = op.facts
    row = {
        "d": facts["d"],
        "m": facts["m"],
        "alexander": {"coeffs": checks.knot_alexander(facts["summands"]), "min_exp": 0},
        "branched_cover": {"order": checks.cover_order(checks.knot_alexander(facts["summands"]), facts["d"])},
        "pi1": {"kind": "undetermined", "certificate": "budget-exhausted"},
        "topologically_standard": {"verdict": "no"},
    }
    row.update(change)
    return json.dumps(row)


def test_classify_check_on_coxeter_orders():
    op = workloads._classify_op("trefoil-finite", workloads.TREFOIL, 4, 8)
    right = _classify_row(op, pi1={"kind": "finite", "order": 96})
    assert checks.check(op, 0, right) is None
    assert checks.check(op, 0, _classify_row(op)) is None  # undetermined is weaker, not wrong
    assert "expected finite of order 96" in checks.check(op, 0, _classify_row(op, pi1={"kind": "finite", "order": 48}))
    infinite = workloads._classify_op("trefoil-infinite", workloads.TREFOIL, 7, 14)
    assert "infinite" in checks.check(infinite, 0, _classify_row(infinite, pi1={"kind": "finite", "order": 7 * 8}))
    index_two = workloads._classify_op("trefoil-sum", workloads.TREFOIL_SUM, 2, 4)
    assert "cyclic" in checks.check(index_two, 0, _classify_row(index_two, pi1={"kind": "cyclic", "order": 2}))
    assert "standard" in checks.check(index_two, 0, _classify_row(index_two, topologically_standard={"verdict": "yes"}))


def test_cover_check_on_closed_forms():
    op = workloads._cover_op("structure", (("fig8",),), 12, True)
    good = {"d": 12, "order": 103680, "structure": {"free_rank": 0, "torsion": [144, 720]}}
    assert checks.check(op, 0, json.dumps(good)) is None
    swapped = dict(good, structure={"free_rank": 0, "torsion": [12, 8640]})
    assert "figure-eight torsion" in checks.check(op, 0, json.dumps(swapped))
    trefoil = workloads._cover_op("order", (("T", 2, 3),), 66, False)
    assert checks.check(trefoil, 0, json.dumps({"d": 66, "order": "infinite"})) is None
    assert "resultant" in checks.check(trefoil, 0, json.dumps({"d": 66, "order": 1}))


def test_wrong_output_is_counted_as_failed():
    op = workloads._cover_op("order", (("T", 2, 3),), 64, False)
    right = (op, 0, json.dumps({"d": 64, "order": 3}))
    wrong = (op, 0, json.dumps({"d": 64, "order": 4}))
    error = (op, 2, "")
    assert checks.tally([right, right]) == {"attempted": 2, "failed": 0, "correct": True, "reasons": []}
    verdict = checks.tally([right, wrong, error])
    assert (verdict["attempted"], verdict["failed"], verdict["correct"]) == (3, 2, False)
    verdict = checks.tally([right, error])
    assert (verdict["failed"], verdict["correct"]) == (1, True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_schedules_are_seeded_whole_rounds_without_repeats(workload):
    a, b = workloads.schedule(workload, 7), workloads.schedule(workload, 7)
    assert a == b and a != workloads.schedule(workload, 8)
    argvs = [op.argv for ops in a for op in ops]
    assert len(argvs) == len(set(argvs))
    assert len({tuple(op.slot for op in ops) for ops in a}) == 1


def test_tracer_counts_the_reference_sweep():
    sys.path.insert(0, str(HERE.parent / "src"))
    import rimtwist.cli as cli
    import tracing

    tracer = tracing.Tracer().install()
    try:
        tracer.op = 0
        root = tracer.open(tracing.ROOT)
        out = io.StringIO()
        assert cli.run(["search", "--pmax", "4", "--qmax", "7", "--dmax", "11", "--mmax", "12", "--json"], out=out) == 0
        tracer.close(root)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["alexander.poly_calls"] == 144
    assert layers["alexander.distinct_knots"] == 8
    assert layers["groups.enum_calls"] == 0
    assert layers["surgery.pi1_decided_ratio"] == 1
    assert not hasattr(cli.alexander_polynomial, "__wrapped__")  # uninstall restored the program


def test_tracer_follows_a_generator_until_it_is_exhausted():
    import tracing

    tracer = tracing.Tracer()
    child = tracer._wrap(lambda x: x + 1, "surgery.classify", None)
    rows = tracer._wrap(lambda n: (child(i) for i in range(n)), "surgery.enumerate", None)
    tracer.op = 0
    root = tracer.open(tracing.ROOT)
    assert list(rows(3)) == [1, 2, 3]
    tracer.close(root)
    names = [span[0] for span in tracer.spans]
    assert names == [tracing.ROOT, "surgery.enumerate"] + ["surgery.classify"] * 3
    assert all(span[3] == 1 for span in tracer.spans[2:])  # the classify calls are children of the sweep
    assert tracer.stack == []
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["surgery.enumerate_ms"] >= layers["surgery.classify_ms"] > 0
