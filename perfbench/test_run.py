"""Smoke test of the benchmark itself: every workload at minimal size, in both
modes, prints every metric BENCHMARK.json names and runs every check.

    python3 -m pytest perfbench/test_run.py -q
"""

import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

CHECKS = {"setup_replay_identical", "exit_code", "replay_identical",
          "vault_roundtrip", "secret_recovered"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_metric_and_check(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]

    record = json.loads(
        (run.RESULTS_DIR / f"{workload}-seed5-trace{trace}.json").read_text())
    checks = set(record["checks"])
    assert CHECKS <= checks
    if run.WORKLOADS[workload].budget is not None:
        assert checks & {"budget_exhausted", "secret_recovered"}
    if trace:
        assert "trace_counts_repeat" in checks
    else:
        assert set(record["wall_clock"]) == set(last["metrics"]) - {"peak_rss_mb"}
    for name in ("nproc", "cpu_model", "python", "numpy", "git_sha"):
        assert name in record["machine"]
    assert all(m["samples"] >= 1 for m in record["metrics"].values())


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "attack-small", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_crc_false_accept_needs_a_polynomial_through_k_records(tmp_path):
    run.import_program()
    import random

    from fuzzyvault.coding import Secret
    from fuzzyvault.simulate import gen_template
    from fuzzyvault.vault import VaultParams, lock, vault_to_json

    secret = Secret.random(48, random.Random(1))
    vault, _ = lock(gen_template(8, seed=1), secret, VaultParams(k=4, t=8, r=40, crc=True),
                    seed=1)
    path = tmp_path / "vault.json"
    path.write_text(vault_to_json(vault))
    # the true polynomial lies on t records, an unrelated one on none
    assert run.crc_false_accept(path, secret.hex, 48) == "crc16_false_accept"
    assert run.crc_false_accept(path, Secret.random(48, random.Random(2)).hex, 48) is None
    assert run.crc_false_accept(path, None, 48) is None
