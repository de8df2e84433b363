import json

import pytest

from wpptoric.cli import main


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


def test_glue_demos(capsys):
    for weights in (("1", "1", "2"), ("2", "2", "2")):
        code, records, _ = run(capsys, "glue", "--abc", *weights, "--demo", "rank1")
        assert code == 0
        cases = {r["case"]: r["pass"] for r in records if r["record"] == "glue"}
        assert cases["matched-data"] is True
        assert cases["mutated-hull-label"] is False
    code, records, _ = run(capsys, "glue", "--abc", "1", "1", "2", "--demo", "rank2")
    assert code == 0
    cases = {r["case"]: r["pass"] for r in records if r["record"] == "glue"}
    assert cases["matched-data"] is True and cases["mutated-width"] is False


def test_usage_errors(capsys):
    assert main(["hilb"]) == 1  # missing --abc
    assert main(["nonsense"]) == 1
    code = main(["kclass", "--abc", "1", "1", "2", "--ABC", "0", "0", "0",
                 "--widths", "1", "1", "1"])
    assert code == 1  # width divisibility violated
    capsys.readouterr()


def test_kclass_large_negative_twist(capsys):
    code, records, _ = run(
        capsys, "kclass", "--abc", "1", "1", "2", "--ABC", "-2000", "0", "0", "--check",
    )
    assert code == 0
    assert [r for r in records if r["record"] == "check"][0]["ok"] is True


@pytest.mark.parametrize("flag, value", [
    ("--partitions", "a,b;;"),
    ("--points", "1:x;0:1;1:1"),
])
def test_malformed_kclass_flags(capsys, flag, value):
    argv = ["kclass", "--abc", "1", "1", "2", "--ABC", "0", "0", "0", flag, value]
    if flag == "--points":
        argv += ["--widths", "1", "2", "1"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("invalid input:")


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
