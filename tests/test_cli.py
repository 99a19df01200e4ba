import copy
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqc1lab import cli
from dqc1lab.cli import main

KNOWN_DISCREPANT_CHECKS = {
    "ghz-lambda5-closed-form",
    "activation-identity-closed-form",
    "discord-positive-range",
}


@pytest.fixture(scope="module")
def reproduce_json():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["reproduce", "--json"])
    return code, json.loads(buf.getvalue())


def test_reproduce_json_is_single_document(reproduce_json):
    code, payload = reproduce_json
    assert set(payload) == {"all_passed", "closed_form_tolerance", "checks"}
    assert isinstance(payload["checks"], list)


def test_reproduce_fails_only_on_documented_discrepancies(reproduce_json):
    code, payload = reproduce_json
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert failed == KNOWN_DISCREPANT_CHECKS
    assert code == 1
    assert payload["all_passed"] is False
    for c in payload["checks"]:
        if c["name"] in KNOWN_DISCREPANT_CHECKS:
            assert c["note"]  # each discrepancy carries its explanation
    # each published target misses by exactly its derived size
    checks = {c["name"]: c for c in payload["checks"]}
    # max over alpha of |a/(2-a) - 2a/(2-a)|, reached at alpha = 1
    assert checks["ghz-lambda5-closed-form"]["computed"] == pytest.approx(
        1.0, abs=1e-12)
    # max over alpha of |(1+a) - (8+3a)/8| = 5a/8, reached at alpha = 1
    assert checks["activation-identity-closed-form"]["computed"] == pytest.approx(
        0.625, abs=1e-9)
    # clean-qubit discord is 0 against the published threshold 1e-4
    discord_check = checks["discord-positive-range"]
    assert discord_check["computed"] <= 1e-9
    assert discord_check["expected"] == 1e-4


def test_reproduce_table_mode(capsys):
    code = main(["reproduce"])
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS  pt-spectrum-family" in out
    assert "FAIL  ghz-lambda5-closed-form" in out
    assert "checks passed" in out


def test_reproduce_perturbation_hook_breaks_more_checks(capsys):
    code = main(["reproduce", "--perturb", "1e-3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert code == 1
    assert "pt-spectrum-family" in failed
    assert len(failed) > len(KNOWN_DISCREPANT_CHECKS)


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "2"])
def test_reproduce_rejects_perturbations_outside_the_unit_interval(value, monkeypatch,
                                                                   capsys):
    from dqc1lab import reproduce

    monkeypatch.setattr(reproduce, "rho3", None)  # any work would fail
    assert main(["reproduce", "--perturb", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: perturb must be a finite number in [0, 1]")
    assert captured.err.count("\n") == 1


def test_sweep_mult_negativity(capsys):
    code = main(["sweep", "--quantity", "mult-negativity",
                 "--start", "0", "--end", "1", "--steps", "101"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,quantity,value,closed_form,abs_error"
    assert len(lines) == 102
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[2]) == pytest.approx(1.25, abs=1e-12)
    assert float(last[4]) < 1e-9


def test_sweep_is_byte_stable(capsys):
    args = ["sweep", "--quantity", "pt-spectrum-min", "--steps", "11"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
    assert "\r" not in first


# SHA-256 of the seed-0 sweeps as first recorded (the digests of
# perfbench/csv_digests.json); the optimizer and the constant operators
# must reproduce these bytes exactly
DISCORD_GRID = ["--start", "0.084", "--end", "0.984", "--steps", "5"]
SWEEP_DIGESTS = {
    "discord": (DISCORD_GRID,
                "ae79793929e9fd67c5da051c839089b382907298b7fe5b28dd02729e2bdba326"),
    "discord-register": (DISCORD_GRID,
                         "36a1750a377502426963bb426cae5f0f35f792d57a83a5b6ff9b334e56883e39"),
    "mult-negativity": ([],
                        "89b04741c1dc869082ba1c436812dfffbef6d16787124e8a228ce36c9395126c"),
    "pt-spectrum-min": ([],
                        "758397f09b8416f1fd71f5e9c0c7c8b5eaff5a40af4455ab61a25d67f6a6f595"),
    "separability": ([],
                     "9600a63eede2ce05fb74c01ed7cc9f20d00b14fdde9b617b24a35b068d0be057"),
    "activated-negativity": ([],
                             "30d523f7af0cf852a3be64a29e4582d2b77ebd3950117032c106499f032833fc"),
}


@pytest.mark.parametrize("quantity", SWEEP_DIGESTS)
def test_discord_sweep_bytes_match_recorded_digest(quantity, capsys):
    extra, digest = SWEEP_DIGESTS[quantity]
    code = main(["sweep", "--quantity", quantity, *extra])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_digests_are_the_benchmark_digests():
    # the benchmark's correctness gate keeps its own copy of these digests
    path = Path(__file__).resolve().parents[1] / "perfbench" / "csv_digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))["digests"]
    assert recorded == {" ".join(["sweep", "--quantity", quantity, *extra]): digest
                        for quantity, (extra, digest) in SWEEP_DIGESTS.items()}


# SHA-256 of `reproduce --json` without the sampling check's z-score,
# recorded before the shot sampler drew binomial counts; every other
# byte of the battery is pinned
REPRODUCE_DIGEST = "6cf0f12c437d99a5608b8793645c38a11afecd96662b12ddd6d75743a4fa1563"


def test_reproduce_json_matches_recorded_digest(reproduce_json):
    code, payload = reproduce_json
    payload = copy.deepcopy(payload)
    sampling = [c for c in payload["checks"] if c["name"] == "trace-estimator-sampling"]
    assert len(sampling) == 1 and sampling[0]["passed"]
    del sampling[0]["computed"]
    text = json.dumps(payload, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == REPRODUCE_DIGEST


# SHA-256 of `activate --alpha A --strategies 26 --seed S --json` as first
# recorded, from the copied six-qubit state built by dense products; the
# 8x8 route must reproduce these bytes exactly
ACTIVATE_DIGESTS = {
    ("0.1", "0"): "46ce3128f3a9fedbcc14fa2365740aa9988c2f7d433b7075a9e82f8d530fc1be",
    ("0.1", "7"): "58bd62b49e99f6a157e2681b8e87e08d9e5c007e6b20721d5c6d864ee4e8e918",
    ("0.1", "123456"): "aee5761861fe8125598ae2ec2f13713ad2f1d34331b371f4c9d332b0479fdd05",
    ("0.5", "0"): "8c4d7872932e532c2a897ff821f561fd5d327addc48bb50042077deb1e5a0120",
    ("0.5", "7"): "6dc6ca7bbc8a0d7264c2a0487597997e67b4cf3cce6ffd6f488f1f2638219e09",
    ("0.5", "123456"): "ff76fcb70ed5f5617b9ab8506be699d68d3e39b0fd0c3e8bb140cb0395bbe5b2",
    ("1", "0"): "fdde41cc7c8610bdee6b953196d5f0a5c93b8b918abe9365a077de2c82b76117",
    ("1", "7"): "de59753de6e0bf7ede3dc884c6b989a6ff0e5b45f74c5cbf0f5afac2ffaf7be3",
    ("1", "123456"): "ee3d6392f55207e6e9dafea138e8d10a6c32b1f3e0309059457e1dd318a636b9",
}


@pytest.mark.parametrize("alpha,seed", ACTIVATE_DIGESTS)
def test_activate_json_bytes_match_recorded_digest(alpha, seed, capsys):
    code = main(["activate", "--alpha", alpha, "--strategies", "26",
                 "--seed", seed, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ACTIVATE_DIGESTS[alpha, seed]


def test_separability_sweep_builds_canonical_unitary_once(monkeypatch, capsys):
    from dqc1lab import dqc1

    calls = []
    real = dqc1.build_un

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dqc1, "build_un", counting)
    dqc1._canonical_u2.cache_clear()
    assert main(["sweep", "--quantity", "separability", "--steps", "101"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 102
    # the cache fills through build_un, so its unitarity check runs once
    assert len(calls) == 1


def test_separability_sweep_computes_eta_purities_once(monkeypatch, capsys):
    from dqc1lab import separability

    calls = []
    real = separability.product_vector_purities

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(separability, "product_vector_purities", counting)
    separability._eta_component_purities.cache_clear()
    assert main(["sweep", "--quantity", "separability", "--steps", "101"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 102
    # 51 of the 101 alphas are <= 1/2 and carry the purities in their certificate
    assert len(calls) == 1


def test_sweep_and_battery_read_one_closed_form(monkeypatch, capsys):
    from dqc1lab import reproduce

    value_fn, _ = reproduce.QUANTITIES["activated-negativity"]
    monkeypatch.setitem(reproduce.QUANTITIES, "activated-negativity",
                        (value_fn, lambda a: 1 + a))
    assert main(["sweep", "--quantity", "activated-negativity", "--steps", "11"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 11
    assert all(float(r.split(",")[4]) <= 1e-9 for r in rows)  # abs_error column
    checks = {c.name: c for c in reproduce.run_reproduce().checks}
    identity = checks["activation-identity-closed-form"]
    assert identity.computed <= 1e-9
    assert identity.passed


@pytest.mark.parametrize("argv", [
    ["reproduce", "--tolerance", "inf"],
    ["sweep", "--quantity", "separability", "--seed", "0"],
])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_to_missing_directory_exits_2(tmp_path, capsys):
    out_file = tmp_path / "missing" / "sweep.csv"
    code = main(["sweep", "--quantity", "separability", "--steps", "3",
                 "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out_file.parent.exists()


def counted_kernel(monkeypatch, fail=False):
    """Replace the grid kernel with one that records its batch sizes."""
    from dqc1lab import _kernels

    calls = []
    kernel = _kernels.conditional_entropy_grid

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        if fail:
            raise ValueError("kernel failed")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(_kernels, "conditional_entropy_grid", counting)
    return calls


def test_sweep_to_unwritable_path_fails_before_any_work(tmp_path, monkeypatch, capsys):
    calls = counted_kernel(monkeypatch)
    out_file = tmp_path / "missing" / "sweep.csv"
    code = main(["sweep", "--quantity", "discord", "--steps", "21",
                 "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert calls == []
    assert not out_file.parent.exists()


def test_failed_sweep_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    calls = counted_kernel(monkeypatch, fail=True)
    out_file = tmp_path / "sweep.csv"
    code = main(["sweep", "--quantity", "discord-register", "--steps", "3",
                 "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: kernel failed\n"
    # the first grid call, on the 2080 class representatives of the 64x128 grid
    assert calls == [2080]
    assert list(tmp_path.iterdir()) == []


def test_sweep_evaluates_the_whole_alpha_list_at_once(monkeypatch, capsys):
    from dqc1lab import reproduce

    value_fn, closed_fn = reproduce.QUANTITIES["mult-negativity"]
    seen = []

    def recording(alphas):
        seen.append(list(alphas))
        return value_fn(alphas)

    monkeypatch.setitem(reproduce.QUANTITIES, "mult-negativity", (recording, closed_fn))
    assert main(["sweep", "--quantity", "mult-negativity", "--steps", "5"]) == 0
    assert seen == [[0.0, 0.25, 0.5, 0.75, 1.0]]
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_sweep_writes_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code = main(["sweep", "--quantity", "separability", "--steps", "5",
                 "--out", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rows = out_file.read_text().strip().split("\n")
    assert rows[0] == "alpha,quantity,value,closed_form,abs_error"
    values = [float(r.split(",")[2]) for r in rows[1:]]
    assert values == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_sweep_register_discord_matches_its_closed_form(capsys):
    code = main(["sweep", "--quantity", "discord-register", "--start", "0",
                 "--end", "1", "--steps", "5"])
    out = capsys.readouterr().out
    assert code == 0
    for row in out.strip().split("\n")[1:]:
        assert float(row.split(",")[4]) < 1e-6  # abs_error column


def test_sweep_discord_at_zero(capsys):
    code = main(["sweep", "--quantity", "discord", "--start", "0",
                 "--end", "0", "--steps", "2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(abs(float(r.split(",")[2])) < 1e-9 for r in rows)


def test_sweep_activated_negativity_exposes_closed_form_gap(capsys):
    code = main(["sweep", "--quantity", "activated-negativity",
                 "--start", "0", "--end", "1", "--steps", "11"])
    out = capsys.readouterr().out
    assert code == 0
    row = out.strip().split("\n")[9].split(",")  # alpha = 0.8
    assert float(row[0]) == pytest.approx(0.8)
    assert float(row[2]) == pytest.approx(1.8, abs=1e-9)   # computed
    assert float(row[3]) == pytest.approx(1.3, abs=1e-12)  # published form
    assert float(row[4]) == pytest.approx(0.5, abs=1e-9)


def test_sweep_seventeen_significant_digits(capsys):
    main(["sweep", "--quantity", "pt-spectrum-min", "--start", "0",
          "--end", "1", "--steps", "3"])
    out = capsys.readouterr().out
    middle = out.strip().split("\n")[2]
    assert middle.split(",")[0] == "0.5"
    third = float(out.strip().split("\n")[1].split(",")[2])
    assert third == pytest.approx(0.125, abs=1e-15)


def test_sweep_rejects_unknown_quantity(capsys):
    code = main(["sweep", "--quantity", "frobnication"])
    assert code == 2
    assert "unknown quantity" in capsys.readouterr().err


def test_sweep_rejects_bad_range(capsys):
    assert main(["sweep", "--quantity", "discord", "--start", "0.9",
                 "--end", "0.1"]) == 2
    assert main(["sweep", "--quantity", "discord", "--steps", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--quantity", "discord", "--start", "nan"],
    ["sweep", "--quantity", "discord", "--start", "0.9", "--end", "0.1"],
    ["sweep", "--quantity", "discord", "--steps", "1"],
    ["sweep", "--quantity", "frobnication"],
    ["activate", "--alpha", "nan"],
    ["activate", "--alpha", "0.5", "--strategies", "0"],
    ["separability", "--alpha", "2"],
    ["trace-estimate", "--n", "9", "--alpha", "0.5"],
    ["trace-estimate", "--n", "2", "--alpha", "nan"],
])
def test_out_of_range_input_exits_2_with_one_error_line(argv, tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_trace_estimate_exact_values(capsys):
    code = main(["trace-estimate", "--n", "2", "--alpha", "1", "--shots",
                 "100000", "--seed", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["exact_x"] == pytest.approx(0.5, abs=1e-15)
    assert payload["exact_y"] == 0.0
    assert payload["implied_trace_re"] == pytest.approx(0.5, abs=1e-15)
    assert abs(payload["sampled_x"] - 0.5) <= 6 * payload["std_error"]


def test_trace_estimate_refuses_implied_value_at_zero(capsys):
    code = main(["trace-estimate", "--n", "2", "--alpha", "0", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["exact_x"] == 0.0
    assert payload["implied_trace_re"] is None
    assert payload["implied_trace_note"] == "unestimable at alpha=0"


def test_trace_estimate_text_mode(capsys):
    code = main(["trace-estimate", "--n", "3", "--alpha", "0.5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact   <X>=0.25" in out
    assert "implied normalized trace (exact):   0.5" in out

    main(["trace-estimate", "--n", "2", "--alpha", "0"])
    assert "unestimable at alpha=0" in capsys.readouterr().out


def test_trace_estimate_rejects_bad_register(capsys):
    assert main(["trace-estimate", "--n", "7", "--alpha", "0.5"]) == 2
    assert main(["trace-estimate", "--n", "2", "--alpha", "1.5"]) == 2


def test_trace_estimate_rejects_shots_beyond_the_sampler(capsys):
    assert main(["trace-estimate", "--n", "2", "--alpha", "1",
                 "--shots", str(2**63)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shots must lie in")
    assert err.count("\n") == 1


def test_trace_estimate_out_of_memory_exits_2(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "sample_trace_estimate", exhausted)
    code = main(["trace-estimate", "--n", "2", "--alpha", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1


def test_separability_command(capsys):
    code = main(["separability", "--alpha", "0.4", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "FullySeparable"
    assert payload["certificate"]["ghz_part_verdict"]["status"] == "FullySeparable"

    code = main(["separability", "--alpha", "0.9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "NptEntangled" in out
    assert "-0.1" in out


def test_activate_command(capsys):
    code = main(["activate", "--alpha", "0.5", "--strategies", "3",
                 "--seed", "5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["results"]) == 3
    assert payload["results"][0]["label"] == "identity"
    assert payload["results"][0]["multiplicative_negativity"] == pytest.approx(1.5)
    assert payload["min"] > 1.0


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "dqc1lab.cli", "sweep", "--quantity",
         "mult-negativity", "--steps", "3"],
        capture_output=True, text=True, check=True)
    assert out.stdout.startswith("alpha,quantity,value")
