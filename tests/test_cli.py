import csv
import io
import json

import pytest

from sparseip import cli, field
from sparseip.blackbox import poly_equal, read_instance
from sparseip.cli import (
    CSV_COLUMNS,
    EXIT_FAIL_CODES,
    main,
    run_bench,
    run_selftest,
    write_bench_csv,
)
from sparseip.interpolator import STAGES, FailReason


def test_generate_creates_parseable_instance(tmp_path):
    out = tmp_path / "inst.txt"
    rc = main(["generate", "--n", "3", "--t", "5", "--D", "5", "--p", "101",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    f, p, D = read_instance(str(out))
    assert (p, f.n, f.term_count, D) == (101, 3, 5, 5)
    assert out.read_text().splitlines()[0] == "101 3 5 5"


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        main(["generate", "--n", "2", "--t", "4", "--D", "9", "--p", "65537",
              "--seed", "123", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_round_trip(tmp_path):
    out = tmp_path / "inst.txt"
    main(["generate", "--n", "2", "--t", "6", "--D", "7", "--p", "65537",
          "--seed", "5", "--out", str(out)])
    f, p, D = read_instance(str(out))
    g, _, _ = read_instance(str(out))
    assert poly_equal(f, g)


def test_generate_invalid_params():
    assert main(["generate", "--n", "2", "--t", "100", "--D", "2", "--p", "101"]) == 1
    assert main(["generate", "--n", "2", "--t", "1", "--D", "2", "--p", "100"]) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: run_bench("q", [1], n=1, T=1, D=1, p=101, trials=1, seed=0),
         "vary must be one of n, T, D"),
        (lambda: cli._parse_fixed_randomness("5;34", 1),
         "expected 'a1,...,an;z1,...,zn;omega'"),
        (lambda: cli._parse_fixed_randomness("5,59;34;34", 1), "need 1 alpha and 1 zeta values"),
        (lambda: cli._parse_fixed_randomness("5;34,29;34", 1), "need 1 alpha and 1 zeta values"),
    ],
)
def test_cli_precondition_errors(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_interpolate_fixed_randomness_golden(tmp_path, capsys):
    inst = tmp_path / "golden.txt"
    inst.write_text(
        "101 3 5 5\n1 0 0 0\n61 0 0 5\n61 2 2 1\n91 2 1 1\n91 0 1 2\n"
    )
    rc = main([
        "interpolate", str(inst), "--T", "5", "--D", "5", "--force",
        "--fixed-randomness", "5,59,78;34,29,89;34",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "probes: 40" in out
    assert "match: yes" in out
    assert "61 2 2 1" in out


def test_interpolate_json_output(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    main(["generate", "--n", "2", "--t", "3", "--D", "5", "--p", "140122640051",
          "--seed", "9", "--out", str(inst)])
    capsys.readouterr()
    rc = main(["interpolate", str(inst), "--json", "--seed", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["outcome"] == "success"
    assert payload["match"] is True
    assert payload["probes"] == 2 * 3 * 3
    assert set(payload["stage_timings_us"]) == {"probe", "bm", "roots", "vand", "dlog", "assembly"}


def test_interpolate_fail_names_its_detail(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    main(["generate", "--n", "3", "--t", "5", "--D", "5", "--p", "101",
          "--seed", "14", "--out", str(inst)])
    capsys.readouterr()
    detail = "variable 2: shifted coefficient list disagrees with base run"
    code = EXIT_FAIL_CODES[FailReason.COEFFICIENT_MISMATCH]
    assert main(["interpolate", str(inst), "--force"]) == code
    assert f"Fail: coefficient-mismatch ({detail})" in capsys.readouterr().out.splitlines()
    assert main(["interpolate", str(inst), "--force", "--json"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["fail_reason"] == "coefficient-mismatch"
    assert payload["fail_detail"] == detail


def test_interpolate_fail_names_the_failing_run(tmp_path, capsys):
    # T = 3 understates the five terms; the base run's annihilator does not
    # split, and the detail says that it was the base run
    inst = tmp_path / "inst.txt"
    main(["generate", "--n", "3", "--t", "5", "--D", "5", "--p", "101",
          "--seed", "1", "--out", str(inst)])
    capsys.readouterr()
    detail = "base run: only 1 distinct roots for degree 3"
    code = EXIT_FAIL_CODES[FailReason.TOO_FEW_ROOTS]
    assert main(["interpolate", str(inst), "--T", "3", "--force"]) == code
    assert f"Fail: too-few-roots ({detail})" in capsys.readouterr().out.splitlines()
    assert main(["interpolate", str(inst), "--T", "3", "--force", "--json"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["fail_reason"] == "too-few-roots"
    assert payload["fail_detail"] == detail


def test_interpolate_factors_group_order_once(tmp_path, monkeypatch):
    inst = tmp_path / "inst.txt"
    main(["generate", "--n", "2", "--t", "3", "--D", "5", "--p", "140122640051",
          "--seed", "9", "--out", str(inst)])
    calls = []
    real_factorize = field.factorize

    def counting_factorize(n):
        calls.append(n)
        return real_factorize(n)

    monkeypatch.setattr(field, "factorize", counting_factorize)
    assert main(["interpolate", str(inst), "--seed", "4"]) == 0
    assert calls == [140122640050]


def test_interpolate_degree_bound_zero_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    assert main(["generate", "--n", "2", "--t", "1", "--D", "0", "--p", "101",
                 "--seed", "1", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["interpolate", str(inst), "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(inst.read_text())
    assert "probes: 6" in out.splitlines() and "match: yes" in out.splitlines()


def test_interpolate_zero_term_instance_defaults_term_bound_to_one(tmp_path, capsys):
    # T defaults to max(1, t): a file with t = 0 needs no --T.
    inst = tmp_path / "inst.txt"
    inst.write_text("140122640051 2 0 5\n")
    assert main(["interpolate", str(inst)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(inst.read_text())
    assert "probes: 6" in out.splitlines() and "match: yes" in out.splitlines()
    assert main(["interpolate", str(inst), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "success" and payload["match"] is True
    assert payload["probes"] == 6 and payload["polynomial"] == []


def test_interpolate_larger_term_bound(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    main(["generate", "--n", "2", "--t", "3", "--D", "5", "--p", "140122640051",
          "--seed", "9", "--out", str(inst)])
    capsys.readouterr()
    rc = main(["interpolate", str(inst), "--T", "6", "--json", "--seed", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["match"] is True
    assert payload["probes"] == 2 * 3 * 6


def test_interpolate_rejects_small_field_without_force(tmp_path):
    inst = tmp_path / "inst.txt"
    main(["generate", "--n", "3", "--t", "5", "--D", "5", "--p", "101",
          "--seed", "7", "--out", str(inst)])
    assert main(["interpolate", str(inst)]) == 1


def test_interpolate_corrupted_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not an instance\n")
    assert main(["interpolate", str(bad)]) == 1


def test_interpolate_missing_file():
    assert main(["interpolate", "/nonexistent/inst.txt"]) == 1


def test_exit_code_map_total_and_distinct():
    assert set(EXIT_FAIL_CODES) == set(FailReason)
    codes = list(EXIT_FAIL_CODES.values())
    assert len(set(codes)) == len(codes)
    assert all(c > 1 for c in codes)


def test_selftest_passes():
    checks = run_selftest()
    failed = [name for name, ok, _, _ in checks if not ok]
    assert not failed
    assert main(["selftest"]) == 0


def test_selftest_fails_on_a_wrong_golden_value(monkeypatch, capsys):
    good = cli.GOLDEN["value_rows"][2]
    bad = (good[0] + 1,) + good[1:]
    value_rows = {**cli.GOLDEN["value_rows"], 2: bad}
    monkeypatch.setattr(cli, "GOLDEN", {**cli.GOLDEN, "value_rows": value_rows})
    failed = [(name, expected, actual) for name, ok, expected, actual in run_selftest() if not ok]
    assert failed == [("values by coefficient k=2", bad, good)]
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    # the report stops at the first failing check
    assert out[out.index("[FAIL] values by coefficient k=2") + 1:] == [
        f"    expected: {bad}",
        f"    actual:   {good}",
        "selftest: FAIL",
    ]


def test_bench_csv_schema(tmp_path):
    records = run_bench("T", [2, 4], n=2, T=2, D=5, p=140122640051, trials=2, seed=0)
    buf = io.StringIO()
    write_bench_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == CSV_COLUMNS
    # 2 sweep points x 2 trials + 2 summary rows
    assert len(rows) == 1 + 4 + 2
    summaries = [r for r in rows[1:] if r[5] == "mean"]
    assert len(summaries) == 2
    assert all(r[7].startswith("success=") for r in summaries)
    # every numeric column of a summary row is the rounded mean of its trials
    assert CSV_COLUMNS[8:] == ["probes", "us_probe", "us_bm", "us_roots", "us_vand",
                               "us_dlog", "us_assembly", "us_total"]
    assert all(f"us_{stage}" in CSV_COLUMNS for stage in STAGES)
    for s in summaries:
        trials = [r for r in rows[1:] if r[:5] == s[:5] and r[5] != "mean"]
        assert len(trials) == 2
        for col in range(8, len(CSV_COLUMNS)):
            assert int(s[col]) == round(sum(int(r[col]) for r in trials) / len(trials))


def test_bench_deterministic_success_and_probes():
    kwargs = dict(n=2, T=3, D=5, p=140122640051, trials=3, seed=11)
    a = run_bench("T", [3, 6], **kwargs)
    b = run_bench("T", [3, 6], **kwargs)
    assert [(r.outcome, r.probes, r.seed) for r in a] == [
        (r.outcome, r.probes, r.seed) for r in b
    ]


def test_bench_successful_trials_have_exact_probes():
    records = run_bench("n", [1, 2, 3], n=1, T=4, D=5, p=140122640051, trials=3, seed=2)
    for r in records:
        if r.outcome == "success":
            assert r.probes == 2 * (r.n + 1) * r.T


def test_bench_below_bound_with_force_reports_fraction(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--vary", "T", "--values", "4,8", "--n", "3", "--D", "20",
               "--p", "101", "--trials", "3", "--seed", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == CSV_COLUMNS
    for row in rows[1:]:
        if row[5] != "mean":
            assert row[7] == "success" or row[7].startswith("fail:") or row[7] == "wrong-answer"
