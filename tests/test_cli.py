import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import wpptoric
from cyclotomic_field import euler_phi
from wpptoric import cli, hilbert, kgroup, partitions
from wpptoric.cli import main
from wpptoric.hilbert import HilbTop

PINS = Path(__file__).parent / "stdout_pins"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, records, captured.err


def test_hilb_plane(capsys):
    code, records, _ = run(capsys, "hilb", "--abc", "1", "1", "1", "--r", "0")
    assert code == 0
    closed = [r for r in records if r.get("source") == "closed-form"][0]
    assert (closed["quad"], closed["lin"]) == ("1/2", "3/2")
    assert [r for r in records if r["record"] == "verdict"][0]["oracle_match"] is True


def test_hilb_vanishing_case(capsys):
    code, records, _ = run(capsys, "hilb", "--abc", "2", "2", "4", "--r", "1")
    assert code == 0
    closed = [r for r in records if r.get("source") == "closed-form"][0]
    assert (closed["quad"], closed["lin"]) == ("0", "0")
    vanish = [r for r in records if r["record"] == "vanishing"][0]
    assert vanish["chi_samples"] == [0] * 6


def test_hilb_with_generating_sheaf(capsys):
    code, records, _ = run(
        capsys, "hilb", "--abc", "1", "2", "3", "--r", "4", "--E", "6"
    )
    assert code == 0
    gen = [r for r in records if r.get("source") == "generating-sheaf"][0]
    assert gen["E"] == 6
    assert [r for r in records if r["record"] == "verdict"][0]["oracle_match"] is True


def test_gseries_specialized(capsys):
    code, records, _ = run(
        capsys, "gseries", "--abc", "1", "1", "2", "--beta", "0",
        "--order", "8", "--specialize", "color0", "--check",
    )
    assert code == 0
    terms = {tuple(sorted(r["monomial"].items())): r["coeff"]
             for r in records if r["record"] == "term"}
    assert terms[()] == 1
    assert terms[(("q", 1),)] == 6
    assert terms[(("q", 2),)] == 22
    check = [r for r in records if r["record"] == "check"][0]
    assert check["ok"] is True


def test_gseries_113_reference_report(capsys):
    code, records, _ = run(
        capsys, "gseries", "--abc", "1", "1", "3", "--order", "4", "--check"
    )
    assert code == 0
    ref = [r for r in records if r["record"] == "reference-term"]
    assert any(r["status"] == "invalid-variable" for r in ref)
    fixes = [r for r in records if r["record"] == "reference-correction"]
    assert {"r0": 1, "r1": 2, "r2": 1} in [r["monomial"] for r in fixes]


def test_stable_listing(capsys):
    code, records, _ = run(
        capsys, "stable", "--abc", "1", "1", "1", "--c1", "-1", "--max", "9", "--check"
    )
    assert code == 0
    triples = [r for r in records if r["record"] == "triple"]
    assert triples[0] == {"record": "triple", "A": -1, "widths": [1, 1, 1]}
    assert [r for r in records if r["record"] == "check"][0]["ok"] is True


def test_hseries(capsys):
    code, records, _ = run(
        capsys, "hseries", "--abc", "1", "1", "1", "--E", "1", "--c1", "-1",
        "--max", "9", "--order", "2", "--check",
    )
    assert code == 0
    vb = {r["monomial"].get("q", 0): r["coeff"]
          for r in records if r["record"] == "term" and r["series"] == "h_vb"}
    assert vb[0] == 1
    full = {r["monomial"].get("q", 0): r["coeff"]
            for r in records if r["record"] == "term" and r["series"] == "h_full"}
    assert full[0] == 1 and full[-1] == 9
    assert [r for r in records if r["record"] == "check"][0]["ok"] is True


def _h_full_terms(records):
    return {r["monomial"].get("q", 0): r["coeff"]
            for r in records if r["record"] == "term" and r["series"] == "h_full"}


@pytest.mark.parametrize("argv, exponent, coeff", [
    # chart 3 of P(1,3,4) has a partition with 5 boxes of color 0 and more
    # than 26 boxes in all, so a 4 order + 6 box cut printed 2180548 here
    (["--abc", "1", "3", "4", "--E", "12", "--c1", "0", "--max", "10", "--order", "5",
      "--check"], 87, 2180550),
    (["--abc", "1", "1", "7", "--E", "7", "--c1", "-1", "--max", "14", "--order", "3"],
     39, 54218328),
])
def test_hseries_exact_chart_factors(capsys, argv, exponent, coeff):
    code, records, _ = run(capsys, "hseries", *argv)
    assert code == 0
    assert _h_full_terms(records)[exponent] == coeff


def test_hseries_high_order_is_fast(capsys):
    start = time.perf_counter()
    code, records, _ = run(capsys, "hseries", "--abc", "1", "1", "2", "--E", "2", "--c1", "0",
                           "--max", "10", "--order", "13")
    assert time.perf_counter() - start < 5
    assert code == 0 and _h_full_terms(records)


def test_hseries_deep_window_is_fast(capsys):
    # the window scan stops on the quadratic-form bound, not per total width
    start = time.perf_counter()
    code, records, _ = run(capsys, "hseries", "--abc", "1", "1", "1", "--E", "1", "--c1", "-1",
                           "--max", "3", "--order", "200", "--check")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert [r["floor"] for r in records if r["record"] == "window"] == [-200]


def test_kclass_rank1_with_check(capsys):
    code, records, _ = run(
        capsys, "kclass", "--abc", "1", "1", "2", "--ABC", "0", "0", "0",
        "--partitions", "2,1;;1", "--check",
    )
    assert code == 0
    assert [r for r in records if r["record"] == "check"][0]["ok"] is True
    assert any(r["record"] == "kclass" for r in records)
    assert any(r["record"] == "chern" for r in records)


def test_kclass_rank2_with_check(capsys):
    code, records, _ = run(
        capsys, "kclass", "--abc", "2", "2", "2", "--ABC", "1", "0", "-1",
        "--widths", "2", "2", "4", "--points", "1:0;0:1;1:1", "--check",
    )
    assert code == 0
    assert [r for r in records if r["record"] == "check"][0]["ok"] is True


def test_kclass_large_coprime_weights_are_fast(capsys):
    # every entry was once written in the order-lcm field: phi(33263) = 30240
    # coordinates per coefficient, 21 s and 268 MB
    start = time.perf_counter()
    code, records, _ = run(capsys, "kclass", "--abc", "29", "31", "37", "--ABC", "0", "0", "0",
                           "--check")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert [r for r in records if r["record"] == "check"][0]["ok"] is True


def test_kclass_chern_records_at_sector_order(capsys):
    code, records, _ = run(capsys, "kclass", "--abc", "5", "7", "9", "--ABC", "0", "0", "0")
    assert code == 0
    assert records[0]["version"] == wpptoric.__version__
    chern = [r for r in records if r["record"] == "chern"]
    assert {Fraction(*r["f"]).denominator for r in chern} == {1, 3, 5, 7, 9}
    for r in chern:
        n = r["f"][1]
        assert all(order == n and len(coords) == euler_phi(n) for order, coords in r["coeffs"])


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == wpptoric.__version__


def test_glue_demos(capsys):
    # the rank-1 mutation must be caught on every sorted weight triple <= 4
    for weights in combinations_with_replacement("1234", 3):
        code, records, _ = run(capsys, "glue", "--abc", *weights, "--demo", "rank1", "--check")
        assert code == 0, weights
        cases = {r["case"]: r["pass"] for r in records if r["record"] == "glue"}
        assert cases["matched-data"] is True
        assert cases["mutated-hull-label"] is False
    code, records, _ = run(capsys, "glue", "--abc", "1", "1", "2", "--demo", "rank2")
    assert code == 0
    cases = {r["case"]: r["pass"] for r in records if r["record"] == "glue"}
    assert cases["matched-data"] is True and cases["mutated-width"] is False


def test_glue_large_weights_are_fast(capsys):
    # the verifier visits only the nonzero boxes, not all w_t w_u per overlap line
    start = time.perf_counter()
    code, records, _ = run(capsys, "glue", "--abc", "20", "20", "20", "--demo", "rank2",
                           "--check")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert [r for r in records if r["record"] == "verdict"][0]["demo_behaved"] is True


def test_glue_wide_window_is_refused_promptly(capsys):
    # the rank-2 demo on P(60,60,60) needs halfwidth 303: its families of
    # 607^2 cells each (about 100 MB) are refused before any is built
    start = time.perf_counter()
    code = main(["glue", "--abc", "60", "60", "60", "--demo", "rank2"])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "invalid input: window halfwidth 303 exceeds 300\n"


_MATCHED = '{"case": "matched-data", "pass": true, "record": "glue"}'
_BEHAVED = '{"demo_behaved": true, "record": "verdict"}'

# full stdout after the meta line, diagnostics included, so that a
# reordered diagnostic key or equation shows up
_GLUE_PINS = {
    ("1 1 2", "rank1"):
        '{"case": "mutated-hull-label", "diagnostics": [{"equation": "23", '
        '"lhs": [[[0, 0], 1]], "line": 1, "outer": 0, "rhs": []}], "pass": false, '
        '"record": "glue"}',
    ("1 1 2", "rank2"):
        '{"case": "mutated-width", "diagnostics": [{"equation": "23", '
        '"lhs": [[[0, 1], 2]], "line": 0, "outer": 0, "rhs": [[[0, 1], 1]]}], '
        '"pass": false, "record": "glue"}',
    ("2 3 5", "rank1"):
        '{"case": "mutated-hull-label", "diagnostics": [{"equation": "23", '
        '"lhs": [], "line": 1, "outer": 0, "rhs": [[[0, 0], 1]]}, {"equation": "23", '
        '"lhs": [], "line": 2, "outer": 0, "rhs": [[[2, 0], 1]]}], "pass": false, '
        '"record": "glue"}',
    ("2 3 5", "rank2"):
        '{"case": "mutated-width", "diagnostics": [{"equation": "23", '
        '"lhs": [[[1, 1], 2]], "line": 0, "outer": 1, "rhs": [[[1, 1], 1]]}], '
        '"pass": false, "record": "glue"}',
    ("2 2 4", "rank1"):
        '{"case": "mutated-hull-label", "diagnostics": [{"equation": "23", '
        '"lhs": [], "line": 1, "outer": 0, "rhs": [[[1, 0], 1]]}, {"equation": "23", '
        '"lhs": [], "line": 2, "outer": 0, "rhs": [[[1, 0], 1]]}], "pass": false, '
        '"record": "glue"}',
    ("2 2 4", "rank2"):
        '{"case": "mutated-width", "diagnostics": [{"equation": "23", '
        '"lhs": [[[1, 1], 2]], "line": 0, "outer": 1, "rhs": [[[1, 1], 1]]}], '
        '"pass": false, "record": "glue"}',
}


@pytest.mark.parametrize("abc, demo", sorted(_GLUE_PINS))
def test_glue_demo_stdout_pinned(capsys, abc, demo):
    code = main(["glue", "--abc", *abc.split(), "--demo", demo])
    out = capsys.readouterr().out
    meta = (
        f'{{"command": "glue", "config": {{"abc": [{abc.replace(" ", ", ")}], '
        f'"demo": "{demo}"}}, "record": "meta", "tool": "wpptoric", '
        f'"version": "{wpptoric.__version__}"}}'
    )
    assert code == 0
    assert out == "\n".join((meta, _MATCHED, _GLUE_PINS[(abc, demo)], _BEHAVED)) + "\n"


@pytest.mark.parametrize("argv, pin", [
    ("gseries --abc 1 1 1 --order 30 --specialize total", "gseries_111_order30_total.txt"),
    ("gseries --abc 2 6 12 --beta -2 --order 7 --specialize color0 --check",
     "gseries_2612_beta-2_order7_color0_check.txt"),
    ("stable --abc 1 1 1 --c1 3 --max 27 --check", "stable_111_c1_3_max27_check.txt"),
    ("hilb --abc 4 12 22 --r -2 --E 264 --check", "hilb_4_12_22_r-2_E264_check.txt"),
    ("hilb --abc 6 20 24 --r 4 --E 240 --check", "hilb_6_20_24_r4_E240_check.txt"),
    ("hilb --abc 4 6 10 --r 3 --E 60 --check", "hilb_4_6_10_r3_E60_check.txt"),
    ("gseries --abc 1 2 3 --beta 1 --order 6 --specialize none --check",
     "gseries_123_beta1_order6_none_check.txt"),
    ("kclass --abc 2 3 4 --ABC -700 3 5 --check", "kclass_234_ABC-700_3_5_check.txt"),
    ("kclass --abc 2 2 2 --ABC 1 0 -1 --widths 2 2 4 --points 1:0;0:1;1:1 --check",
     "kclass_222_ABC1_0_-1_widths2_2_4_distinct_check.txt"),
    ("kclass --abc 2 2 2 --ABC 1 0 -1 --widths 2 2 4 --points 1:0;1:0;1:1 --check",
     "kclass_222_ABC1_0_-1_widths2_2_4_pair12_check.txt"),
    ("kclass --abc 1 1 2 --ABC 0 0 0 --partitions 2,1;;1 --check",
     "kclass_112_ABC0_0_0_lam21__1_check.txt"),
    ("kclass --abc 2 2 2 --ABC 1 0 -1 --widths 2 2 4 --points 1:0;1:0;2:2 --check",
     "kclass_222_ABC1_0_-1_widths2_2_4_pair12_scaled_check.txt"),
    ("kclass --abc 2 2 2 --ABC 1 0 -1 --widths 2 2 4 --points 1:0;2:0;-3:0 --check",
     "kclass_222_ABC1_0_-1_widths2_2_4_all_equal_check.txt"),
    ("hseries --abc 1 1 2 --E 2 --c1 -1 --max 12 --order 6 --check",
     "hseries_112_E2_c1_-1_max12_order6_check.txt"),
    ("hseries --abc 2 2 4 --E 4 --c1 0 --lambda 1 --max 16 --order 5 --check",
     "hseries_224_E4_c1_0_lam1_max16_order5_check.txt"),
])
def test_stdout_pinned(capsys, argv, pin):
    # the whole stdout, so that the chart products of every gseries mode,
    # the line bundle as a rank-1 sheaf, the Laurent-term slope oracle,
    # the integer Hilbert coefficients, both sheaf kinds' devissage and
    # the rank-2 series with their refined check cannot change a byte of it
    assert main(argv.split()) == 0
    got = capsys.readouterr().out.split("\n")
    want = (PINS / pin).read_text().split("\n")
    # the first differing line, found in plain Python: asserting == on the
    # two long strings would have pytest diff them, which takes minutes
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got[first]!r} != pinned {want[first]!r}"
    assert len(got) == len(want), f"{len(got)} lines, pinned {len(want)}"


@pytest.mark.parametrize("mode", ["total", "color0", "none"])
def test_gseries_chart_tables_code_by_mode(capsys, monkeypatch, mode):
    # each chart's row DP gets one (grade, code) per color: the one-variable
    # modes code a box by 0 or 1, 1 only for color 0 under color0, and none
    # gives the a + b + c chart colors one base-(order + 1) digit each, in
    # chart order
    tables = []
    levels = partitions._chart_levels

    def recording(n, w1, w2, offset, table, caps, trunc):
        tables.append(table)
        return levels(n, w1, w2, offset, table, caps, trunc)

    monkeypatch.setattr(partitions, "_chart_levels", recording)
    for abc in ((1, 1, 1), (2, 3, 5)):
        tables.clear()
        assert main(["gseries", "--abc", *map(str, abc), "--beta", "1", "--order", "6",
                     "--specialize", mode, "--check"]) == 0
        assert [len(table) for table in tables] == list(abc)
        assert all(grade == 1 for table in tables for grade, _ in table)
        codes = [code for table in tables for _, code in table]
        if mode == "none":
            assert codes == [7 ** k for k in range(sum(abc))]
        else:
            assert set(codes) <= {0, 1}
            assert codes.count(1) == (3 if mode == "color0" else 0)
    capsys.readouterr()


def test_stable_check_leaves_g_power_alone(capsys):
    before = kgroup.g_power.cache_info()
    assert main(["stable", "--abc", "2", "3", "4", "--c1", "1", "--lambda", "1",
                 "--max", "30", "--check"]) == 0
    after = kgroup.g_power.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    out = capsys.readouterr().out
    assert '"record": "triple"' in out and '"ok": true' in out


def test_closed_pipe_exits_1_silently():
    # far more output than a pipe buffer holds, so the writer is still
    # running when the reader goes away after the first line; stdout is
    # block-buffered, as it is by default
    src = str(Path(wpptoric.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.Popen(
        [sys.executable, "-m", "wpptoric.cli", "stable", "--abc", "1", "1", "1",
         "--c1", "-1", "--max", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["record"] == "meta"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_pipe_closed_before_any_output_exits_1_silently():
    # the reader is gone before the first write, so all of stdout still
    # sits in the buffer when main's flush fails; the flush at exit then
    # finds it again and must go to devnull, not to the closed pipe
    src = str(Path(wpptoric.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "wpptoric.cli", "hilb", "--abc", "1", "1", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["hilb", "--abc", "1", "1", "1", "--E", "-2", "--check"],
    ["hilb", "--abc", "1", "1", "1", "--E", "0", "--check"],
    ["hseries", "--abc", "1", "1", "1", "--E", "1", "--c1", "0", "--order", "-2"],
    ["hseries", "--abc", "1", "1", "1", "--E", "1", "--c1", "0", "--max", "-1"],
    ["stable", "--abc", "1", "1", "1", "--c1", "0", "--max", "-1"],
    ["gseries", "--abc", "1", "1", "1", "--order", "-1"],
    ["hilb", "--abc", "1", "1", "1", "--r", "-1000001"],
    ["hilb", "--abc", "1", "1", "1", "--r", "0", "--E", "100001"],
    # lcm 125,275,074,973: the K-group period would be a list that long
    ["kclass", "--abc", "4999", "5003", "5009", "--ABC", "0", "0", "0"],
])
def test_out_of_range_numbers(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("invalid input:")


def test_two_rules_for_E(capsys):
    # on P(2,2,3) the pairwise gcds are 2, 1, 1 and m = lcm = 6: hilb takes
    # E = 2, the rank-2 series needs a multiple of 6
    code, records, _ = run(capsys, "hilb", "--abc", "2", "2", "3", "--r", "1", "--E", "2",
                           "--check")
    assert code == 0
    assert [r for r in records if r["record"] == "verdict"][0]["oracle_match"] is True
    code = main(["hseries", "--abc", "2", "2", "3", "--E", "2", "--c1", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "invalid input: E must be a positive multiple of lcm(a,b,c)\n"


def _lin_off_by_half(top):
    return HilbTop(top.quad, top.lin + Fraction(1, 2))


HILB_E = ["hilb", "--abc", "6", "8", "15", "--r", "-9", "--E", "240", "--check"]


def test_hilb_exits_2_on_a_wrong_generating_sheaf_form(capsys, monkeypatch):
    original = cli.hilb_top_E
    monkeypatch.setattr(cli, "hilb_top_E", lambda *a: _lin_off_by_half(original(*a)))
    code, records, err = run(capsys, *HILB_E)
    assert code == 2
    assert records[-1] == {"record": "verdict", "oracle_match": False}
    assert err.startswith("oracle mismatch:")


def test_hilb_exits_2_on_a_wrong_closed_form(capsys, monkeypatch):
    original = cli.hilb_top
    monkeypatch.setattr(cli, "hilb_top", lambda *a: _lin_off_by_half(original(*a)))
    code, records, _ = run(capsys, *HILB_E)
    assert code == 2
    assert records[-1] == {"record": "verdict", "oracle_match": False}


def test_hilb_exits_3_on_chi_samples_off_a_quadratic(capsys, monkeypatch):
    # the t = 1 sample chi(O(r + m)) of P(6,8,15), r = -9, m = 120
    original = hilbert.chi_oracle
    monkeypatch.setattr(hilbert, "chi_oracle", lambda p, s: original(p, s) + (s == 111))
    code, _, err = run(capsys, *HILB_E)
    assert code == 3
    assert err.startswith("internal inconsistency:")


@pytest.mark.parametrize("abc, r, E", [
    ((2, 3, 5), 7, 99990), ((6, 8, 15), -9, 99990), ((4, 12, 22), -2, 264),
    ((2, 2, 4), 1, 40), ((2, 2, 4), 2, 40), ((6, 10, 15), 11, 3000),
])
def test_hilb_E_reads_one_period_of_numerators(capsys, monkeypatch, abc, r, E):
    # the window check reads P/d numerators, P = lcm(d12, d13, d23),
    # and the closed form hilb_top one more when d | r
    calls = []
    original = hilbert.hilb_lin_numerator

    def counted(params, s):
        calls.append(s)
        return original(params, s)

    monkeypatch.setattr(hilbert, "hilb_lin_numerator", counted)
    code, _, _ = run(capsys, "hilb", "--abc", *map(str, abc), "--r", str(r), "--E", str(E),
                     "--check")
    assert code == 0
    params = kgroup.WppParams(*abc)
    period = math.lcm(params.d12, params.d13, params.d23)
    assert len(calls) == period // params.d + (r % params.d == 0)


def test_huge_twist_is_refused_promptly(capsys):
    # the counting oracle would loop over about 10^20 lattice points
    start = time.perf_counter()
    code = main(["hilb", "--abc", "1", "1", "1", "--r", str(10**20)])
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "invalid input: |r| must be at most 1000000\n"


@pytest.mark.parametrize("name", ["WPPTORIC_ORDER", "WPPTORIC_MAX"])
def test_malformed_env_default(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "x")
    code = main(["gseries", "--abc", "1", "1", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"invalid input: {name}='x' is not an integer\n"


@pytest.mark.parametrize("name, argv, key", [
    ("WPPTORIC_ORDER", ["gseries", "--abc", "1", "1", "1"], "order"),
    ("WPPTORIC_MAX", ["stable", "--abc", "1", "1", "1", "--c1", "-1"], "max"),
])
def test_env_default_read_on_every_call(capsys, monkeypatch, name, argv, key):
    for value in (2, 3, 2):
        monkeypatch.setenv(name, str(value))
        code, records, _ = run(capsys, *argv)
        assert code == 0
        assert records[0]["config"][key] == value


def test_cli_never_imports_argparse():
    # the option table replaced an argparse parser that cost more to
    # build and run than a small request itself; keep it out
    src = str(Path(wpptoric.__file__).resolve().parent.parent)
    script = ("import sys\n"
              "from wpptoric import cli\n"
              "assert cli.main(['hilb', '--abc', '1', '1', '2', '--r', '3']) == 0\n"
              "assert 'argparse' not in sys.modules, 'argparse was imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert '"record": "verdict"' in proc.stdout


def test_last_flag_wins_and_equals_form(capsys):
    code, records, _ = run(capsys, "hilb", "--abc", "9", "9", "9", "--r=5", "--abc", "1", "2",
                           "3", "--r", "4", "--E=6", "--r=-1")
    assert code == 0
    assert records[0]["config"] == {"abc": [1, 2, 3], "r": -1, "E": 6}


def test_no_state_carries_between_calls(capsys):
    code, records, _ = run(capsys, "hilb", "--abc", "1", "2", "3", "--r", "4", "--E", "6")
    assert code == 0 and any(r.get("source") == "generating-sheaf" for r in records)
    code, records, _ = run(capsys, "hilb", "--abc", "1", "2", "3", "--r", "4")
    assert code == 0 and records[0]["config"]["E"] is None
    assert not any(r.get("source") == "generating-sheaf" for r in records)
    assert main(["hilb", "--abc", "1", "1", "1", "--pretty"]) == 0
    assert capsys.readouterr().out.startswith("[meta]")
    code, records, _ = run(capsys, "hilb", "--abc", "1", "1", "1")  # JSON again
    assert code == 0 and records[0]["record"] == "meta"
    assert main(["hilb"]) == 1
    code, _, _ = run(capsys, "hilb", "--abc", "1", "1", "1", "--r", "2")
    assert code == 0


def test_usage_errors(capsys):
    assert main(["hilb"]) == 1  # missing --abc
    assert main(["nonsense"]) == 1
    code = main(["kclass", "--abc", "1", "1", "2", "--ABC", "0", "0", "0",
                 "--widths", "1", "1", "1"])
    assert code == 1  # width divisibility violated
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [],
    ["hilb"],
    ["nonsense"],
    ["hilb", "--abc", "1", "1"],
    ["gseries", "--abc", "1", "1", "1", "--specialize", "foo"],
    ["hilb", "--abc", "1", "1", "1", "--r", "x"],
    ["hilb", "--abc", "1", "1", "1", "--rr", "2"],
    ["hilb", "--ab", "1", "1", "1"],  # no prefix abbreviations
    ["hilb", "--abc", "1", "1", "--check"],
    ["hilb", "--abc=1", "1", "1"],
    ["hilb", "--abc", "1", "1", "1", "--check=yes"],
    ["kclass", "--abc", "1", "1", "2", "--ABC", "0", "0", "0", "--partitions", "--check"],
    ["stable", "--abc", "1", "1", "1"],
])
def test_usage_error_is_one_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["kclass", "--abc", "1", "1", "2", "-h"]])
def test_help_names_every_command_and_flag(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    for command, (_, about, flags) in cli.COMMANDS.items():
        assert f"{command}: {about}" in lines
        for flag in flags:
            assert any(line.split()[:1] == [flag] for line in lines)


def test_kclass_large_negative_twist(capsys):
    code, records, _ = run(
        capsys, "kclass", "--abc", "1", "1", "2", "--ABC", "-2000", "0", "0", "--check",
    )
    assert code == 0
    assert [r for r in records if r["record"] == "check"][0]["ok"] is True


@pytest.mark.parametrize("flag, value", [
    ("--partitions", "a,b;;"),
    ("--points", "1:x;0:1;1:1"),
    ("--points", ""),
    ("--points", "0:0;0:1;1:1"),
    ("--widths", "-1 2 1"),
    ("--widths", "1 1 1"),  # c = 2 does not divide D2
])
def test_malformed_kclass_flags(capsys, flag, value):
    argv = ["kclass", "--abc", "1", "1", "2", "--ABC", "0", "0", "0"]
    if flag == "--widths":
        argv += [flag, *value.split()]
    else:
        argv += [flag, value]
    if flag == "--points":
        argv += ["--widths", "1", "2", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("invalid input:")


@pytest.mark.parametrize("extra", [
    ["--points", "1:0;0:1;1:1"],
    ["--partitions", "2,1;;1", "--widths", "1", "2", "1"],
])
def test_kclass_flags_that_would_be_ignored(capsys, extra):
    code = main(["kclass", "--abc", "1", "1", "2", "--ABC", "0", "0", "0", *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("invalid input:")


def test_records_are_encoded_with_sorted_keys(capsys):
    record = {"record": "term", "series": "g", "monomial": {"q1": 2, "p0": 1}, "coeff": -3}
    cli.Output(False).emit(dict(record))
    assert capsys.readouterr().out == json.dumps(record, sort_keys=True) + "\n"


def test_pretty_mode_runs(capsys):
    code = main(["hilb", "--abc", "1", "1", "1", "--r", "2", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[meta]" in out and "closed-form" in out


def test_byte_identical_reruns(capsys):
    args = ["gseries", "--abc", "2", "2", "2", "--beta", "1", "--order", "5"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
