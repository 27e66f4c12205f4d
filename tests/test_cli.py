import io
import json
import os
import pathlib
import subprocess
import sys
import time

import rimtwist as rt
from rimtwist.cli import build_parser, run

from helpers import lucas

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_alexander_text():
    code, out, err = _run(["alexander", "T(2,5)"])
    assert code == 0 and err == ""
    assert out.strip() == "t^4 - t^3 + t^2 - t + 1"


def test_alexander_json():
    code, out, _ = _run(["alexander", "T(2,3)", "--json"])
    assert code == 0
    assert json.loads(out) == {"min_exp": 0, "coeffs": [1, -1, 1]}


def test_cover_large_d_json():
    code, out, err = _run(["cover", "T(2,3)", "--d", "100000", "--json"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"d": 100000, "order": 3}


def test_cover_prints_orders_past_the_int_string_limit():
    # |Res(t^d - 1, t^2 - 3t + 1)| = L_2d - 2 has 8,360 digits at d = 20,000,
    # past Python's default limit on int-to-str conversion
    code, out, err = _run(["cover", "braid(3; 1 -2 1 -2)", "--d", "20000"])
    assert (code, err) == (0, "")
    assert out == f"order {lucas(40000) - 2}\n"
    code, out, err = _run(["cover", "braid(3; 1 -2 1 -2)", "--d", "20000", "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"d": 20000, "order": lucas(40000) - 2}


def test_each_command_reduces_its_presentation_once(monkeypatch):
    passes = []
    simplify = rt.wirtinger.tietze_simplify

    def counted(p):
        passes.append(p)
        return simplify(p)

    monkeypatch.setattr(rt.wirtinger, "tietze_simplify", counted)
    for argv in (
        ["classify", "T(3,4)", "--d", "4", "--m", "2", "--budget", "5000"],
        ["cover", "T(5,7)", "--d", "12", "--structure"],
        ["pi1", "T(3,4)", "--d", "4", "--m", "2", "--budget", "5000"],
        ["alexander", "T(4,9)"],
    ):
        passes.clear()
        assert _run(argv)[0] == 0, argv
        assert len(passes) == 1, argv


def test_cover_text():
    code, out, _ = _run(["cover", "T(2,3)", "--d", "2"])
    assert code == 0 and out.strip() == "order 3"

    code, out, _ = _run(["cover", "T(2,3)", "--d", "3", "--structure"])
    assert code == 0
    assert out.splitlines() == ["order 4", "structure Z/2 ⊕ Z/2"]

    code, out, _ = _run(["cover", "T(2,3)", "--d", "6"])
    assert code == 0 and out.strip() == "order infinite"

    code, out, _ = _run(["cover", "unknot", "--d", "5", "--structure"])
    assert out.splitlines() == ["order 1", "structure trivial"]


def test_cover_json():
    code, out, _ = _run(["cover", "T(2,3)", "--d", "2", "--structure", "--json"])
    assert code == 0
    assert json.loads(out) == {"d": 2, "order": 3, "structure": {"free_rank": 0, "torsion": [3]}}


def test_pi1_text_and_strict():
    code, out, _ = _run(["pi1", "T(2,3)", "--d", "5", "--m", "4"])
    assert code == 0
    assert out.startswith("Z/5")

    code, out, _ = _run(["pi1", "T(2,3)", "--d", "2", "--m", "2"])
    assert code == 0
    assert "order 6" in out

    # strict mode turns an exhausted budget into exit code 3
    code, out, _ = _run(["pi1", "T(2,3)", "--d", "3", "--m", "3", "--budget", "1", "--strict"])
    assert code == 3
    assert "undetermined" in out

    code, _, _ = _run(
        ["classify", "T(2,3)", "--d", "3", "--m", "3", "--budget", "1", "--strict"]
    )
    assert code == 3


def test_budget_bounds_the_kernel_certificates(monkeypatch):
    # no table of 1000 cosets closes on a group that maps onto Z/d with
    # d > 1000, so pi1 and classify answer without building the twist-rim
    # group and its d-letter relator, in no time even at d = 1e9
    monkeypatch.setattr(rt.surgery, "twist_rim_presentation", None)
    code, out, _ = _run(["pi1", "T(2,3)", "--d", "200000", "--m", "2", "--budget", "1000"])
    assert (code, out) == (0, "undetermined (budget-exhausted)\n")
    start = time.perf_counter()
    code, out, _ = _run(["classify", "T(2,3)", "--d", "1000000000", "--m", "2", "--budget", "1000"])
    assert code == 0 and "pi1: undetermined (budget-exhausted)" in out, out
    assert time.perf_counter() - start < 1


def test_tower_roots_of_large_degree():
    # the index-d kernel K is a root of the tower at any d up to the budget,
    # however large its index: shift actions on 302 and 260 points must end
    # in a verdict, not exit 2
    code, out, _ = _run(["pi1", "T(2,3)#mirror(T(2,3))", "--d", "302", "--m", "4"])
    assert (code, out) == (0, "undetermined (infinite-subgroup-homology)\n")
    code, out, _ = _run(["pi1", "braid(3; 1 -2 1 -2)", "--d", "260", "--m", "260"])
    assert (code, out) == (0, "undetermined (kernel-homology)\n")
    # K at d = 600 exceeds the index of the covers the tower builds, but it
    # is taken as a root all the same
    code, out, _ = _run(["pi1", "T(2,3)", "--d", "600", "--m", "600"])
    assert (code, out) == (0, "undetermined (infinite-cover-homology)\n")


def test_budget_rejected_on_every_input():
    # d = 5 is +-1 mod 4, so the congruence decides pi1 without enumerating;
    # a bad budget must still be refused, before any output
    for budget in ("0", "-7"):
        for command in ("pi1", "classify"):
            code, out, err = _run(
                [command, "T(2,3)", "--d", "5", "--m", "4", "--budget", budget, "--json"]
            )
            assert code == 2 and out == "" and "budget" in err
    # search never enumerates cosets, so it takes no budget
    code, out, _ = _run(
        ["search", "--pmax", "2", "--qmax", "3", "--dmax", "5", "--mmax", "4", "--budget", "5"]
    )
    assert code == 2 and out == ""


def test_classify_golden_json():
    code, out, _ = _run(
        ["classify", "T(2,3)#mirror(T(2,3))", "--d", "5", "--m", "4", "--cp2", "--json"]
    )
    assert code == 0
    golden = json.loads((GOLDEN / "classify_trefoil_sum_d5_m4.json").read_text())
    assert json.loads(out) == golden
    # byte-exact under canonical re-serialization
    assert json.dumps(json.loads(out), sort_keys=True) == json.dumps(golden, sort_keys=True)


TEXT_GOLDENS = {
    "classify_trefoil_sum_d5_m4.txt": [
        "classify", "T(2,3)#mirror(T(2,3))", "--d", "5", "--m", "4", "--cp2"
    ],
    "classify_trefoil_d2_m2.txt": ["classify", "T(2,3)", "--d", "2", "--m", "2"],
    "classify_trefoil_d6_m5.txt": ["classify", "T(2,3)", "--d", "6", "--m", "5"],
    "search_p3_q5_d7_m8.txt": ["search", "--pmax", "3", "--qmax", "5", "--dmax", "7", "--mmax", "8"],
}


def test_text_goldens():
    # byte-exact text for the golden cp2 case, a pi1 obstruction, an
    # infinite-order cover without evidence, and a search sweep
    for name, argv in TEXT_GOLDENS.items():
        assert _run(argv) == (0, (GOLDEN / name).read_text(), ""), name


def test_classify_text_matches_json_numbers():
    args = ["classify", "T(2,3)#mirror(T(2,3))", "--d", "5", "--m", "4", "--cp2"]
    _, text, _ = _run(args)
    _, js, _ = _run(args + ["--json"])
    obj = json.loads(js)
    assert f"d={obj['d']}" in text and f"m={obj['m']}" in text
    assert "t^4 - 2t^3 + 3t^2 - 2t + 1" in text
    assert f"order {obj['branched_cover']['order']}" in text
    assert f"genus {obj['cp2']['genus']}" in text
    assert "Z/5" in text


def test_search_streams_deterministic_rows():
    code, out, _ = _run(["search", "--pmax", "3", "--qmax", "5", "--dmax", "7", "--mmax", "8"])
    assert code == 0
    lines = out.splitlines()
    assert all("topologically_standard=yes" in line for line in lines)
    assert any("d=5 m=4" in line and "T(2,3)" in line for line in lines)
    code2, out2, _ = _run(["search", "--pmax", "3", "--qmax", "5", "--dmax", "7", "--mmax", "8"])
    assert out2 == out

    code, js, _ = _run(["search", "--pmax", "3", "--qmax", "3", "--dmax", "3", "--mmax", "3", "--json"])
    assert code == 0 and js == ""  # empty row set at these bounds

    # bounds are checked before any row is written
    code, out, err = _run(["search", "--pmax", "1", "--qmax", "5", "--dmax", "7", "--mmax", "8"])
    assert code == 2 and out == "" and "bounds" in err


def test_search_row_text_infinite_order():
    report = rt.classify(rt.parse_knot("T(2,3)"), rt.SurgeryParams(d=6, m=5))
    assert report.branched_order is None
    assert report.row_text() == (
        'knot=T(2,3) d=6 m=5 alexander="t^2 - t + 1" cover_order=infinite '
        "smoothly_knotted=no-evidence topologically_standard=unknown"
    )


def test_search_json_lines():
    code, out, _ = _run(
        ["search", "--pmax", "2", "--qmax", "3", "--dmax", "5", "--mmax", "4", "--json"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows
    for row in rows:
        assert row["smoothly_knotted"]["verdict"] == "yes"
        assert row["topologically_standard"]["verdict"] == "yes"


def test_error_exit_codes():
    code, out, err = _run(["alexander", "T(2,4)"])
    assert code == 2 and out == "" and "gcd" in err

    code, _, err = _run(["alexander", "T(2"])
    assert code == 2 and "syntax error" in err
    assert _run(["alexander", "T(2,x)"]) == (
        2, "", "error: syntax error at byte 4: expected an integer\n"
    )

    code, _, err = _run(["classify", "T(2,3)", "--d", "2", "--m", "2", "--cp2"])
    assert code == 2 and "cp2" in err  # degree-2 curves are refused

    # d < 1 is refused by the library, before any output
    for argv in (["cover", "T(2,3)", "--d", "0"], ["pi1", "T(2,3)", "--d", "0", "--m", "1"]):
        for extra in ([], ["--json"]):
            code, out, err = _run(argv + extra)
            assert code == 2 and out == "" and "d must be >= 1" in err
    # the structure's d-coset table is bounded by the default coset budget;
    # the order is not
    code, out, err = _run(["cover", "T(2,3)", "--d", "1000001", "--structure"])
    assert (code, out) == (2, "") and "d must be <= 1000000" in err
    assert _run(["cover", "T(2,3)", "--d", "1000001"])[:2] == (0, "order 1\n")

    # the parser and the walks over an expression recurse; too deep an
    # expression is refused like any other bad input, not with a traceback
    deep = "mirror(" * 2000 + "T(2,3)" + ")" * 2000
    wide = "#".join(["T(2,3)"] * 1500)
    for knot in (deep, wide):
        for argv in (["alexander", knot], ["classify", knot, "--d", "2", "--m", "3"]):
            assert _run(argv) == (2, "", "error: knot expression is nested too deeply\n")

    # argparse failures also exit 2
    code, _, _ = _run(["cover", "T(2,3)"])
    assert code == 2
    code, _, _ = _run(["nonsense"])
    assert code == 2


def test_invalid_pd_codes_exit_2_on_every_command():
    # a code in which edge 1 enters both crossings (its group would be Z + Z),
    # and the virtual trefoil, whose Gauss code is not planar
    for knot, rule in (
        ("pd((1,3,2,4),(3,1,4,2))", "PD edge 1 enters two crossings"),
        ("pd((3,1,4,2),(4,2,1,3))", "PD code is not planar"),
    ):
        for argv in (
            ["alexander", knot],
            ["pi1", knot, "--d", "3", "--m", "3"],
            ["cover", knot, "--d", "3"],
            ["classify", knot, "--d", "5", "--m", "5"],
        ):
            code, out, err = _run(argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: " + rule), (argv, err)


def test_cover_order_size_is_bounded():
    # the figure-eight's order has about 0.29 d digits; past REMAINDER_BITS the
    # reduction stops within its first steps, at any d
    start = time.perf_counter()
    for d in ("4000000", "1000000000"):
        code, out, err = _run(["cover", "braid(3; 1 -2 1 -2)", "--d", d])
        assert (code, out) == (2, "") and "passes 2097152 bits" in err
    assert time.perf_counter() - start < 10
    # a knot whose Alexander roots are roots of unity has small orders at any d
    assert _run(["cover", "T(2,3)", "--d", "1000000000"]) == (0, "order 3\n", "")


def test_trivial_alexander_polynomial_gives_no_smooth_evidence():
    code, out, err = _run(["classify", "unknot", "--d", "3", "--m", "2", "--sw"])
    assert (code, err) == (0, "")
    assert "smoothly knotted: no-evidence (Alexander polynomial is trivial)\n" in out


def test_argparse_output_goes_to_run_streams():
    # the parser is built once per process; each call still prints to its own streams
    assert build_parser() is build_parser()
    for _ in range(2):
        code, out, err = _run(["cover", "T(2,3)"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: rimtwist cover") and "required: --d" in err

        code, out, err = _run(["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: rimtwist") and "classify" in out


def test_module_entry_point_exit_codes():
    # ``python -m rimtwist.cli`` goes through main(), which exits with run's code
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def module(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "rimtwist.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    assert module("alexander", "T(2,5)") == (0, "t^4 - t^3 + t^2 - t + 1\n", "")
    code, out, err = module("alexander", "T(2,4)")
    assert (code, out) == (2, "") and "gcd" in err
    assert module("pi1", "T(2,3)", "--d", "5", "--m", "7", "--budget", "3", "--strict") == (
        3, "undetermined (budget-exhausted)\n", ""
    )

    # a reader that closes stdout early, like ``| head -n 1``, ends the
    # search with exit 1 and no traceback
    argv = ["search", "--pmax", "4", "--qmax", "9", "--dmax", "30", "--mmax", "31", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "rimtwist.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert json.loads(proc.stdout.readline())["knot"]
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == ""
    proc.stderr.close()
