"""Tests for ``python -m repro campaign`` and sweep exit-code hardening."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_campaign_list(capsys):
    status = main(["campaign", "list"])
    out = capsys.readouterr().out
    assert status == 0
    for name in (
        "figure1",
        "figure2_lowerbound",
        "crossover",
        "fault_resilience",
        "radio_footnote2",
    ):
        assert name in out


def test_campaign_requires_a_name():
    with pytest.raises(SystemExit):
        main(["campaign", "run"])


def test_campaign_unknown_name_is_a_clean_error(capsys):
    status = main(["campaign", "run", "nope"])
    err = capsys.readouterr().err
    assert status == 2
    assert "unknown campaign" in err


def test_campaign_run_twice_reports_full_cache_hit(tmp_path, capsys):
    args = [
        "campaign", "run", "figure1", "--n-max", "32",
        "--store", str(tmp_path / "store"),
        "--artifacts", str(tmp_path / "artifacts"),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "cache hit 0.0%" in first
    assert "verdict" in first and "ok" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "cache hit 100.0%" in second
    assert (tmp_path / "artifacts" / "figure1" / "report.md").exists()
    assert (tmp_path / "artifacts" / "figure1" / "time_vs_D.svg").exists()


def test_campaign_shards_then_verify(tmp_path, capsys):
    base = [
        "--n-max", "32",
        "--store", str(tmp_path / "store"),
        "--artifacts", str(tmp_path / "artifacts"),
    ]
    assert main(["campaign", "run", "figure1", "--shard", "0/2", *base]) == 0
    out = capsys.readouterr().out
    assert "shard 0/2" in out
    # A partial shard checkpoints but never writes artifacts or verdicts.
    assert not (tmp_path / "artifacts").exists()
    assert main(["campaign", "verify", "figure1", *base]) == 1
    err = capsys.readouterr().err
    assert "missing" in err
    assert main(["campaign", "run", "figure1", "--shard", "1/2", *base]) == 0
    capsys.readouterr()
    assert main(["campaign", "verify", "figure1", *base]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_campaign_report_from_store_only(tmp_path, capsys):
    base = [
        "--n-max", "32",
        "--store", str(tmp_path / "store"),
        "--artifacts", str(tmp_path / "artifacts"),
    ]
    assert main(["campaign", "run", "figure1", "--no-report", *base]) == 0
    capsys.readouterr()
    assert not (tmp_path / "artifacts").exists()
    assert main(["campaign", "report", "figure1", *base]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "artifacts" / "figure1" / "points.csv").exists()


def test_campaign_resume_requires_an_existing_store(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "campaign", "resume", "figure1",
                "--store", str(tmp_path / "missing"),
            ]
        )


def test_campaign_verify_on_empty_store_is_nonzero(tmp_path, capsys):
    status = main(
        [
            "campaign", "verify", "figure1", "--n-max", "32",
            "--store", str(tmp_path / "empty"),
        ]
    )
    capsys.readouterr()
    assert status == 1


def test_campaign_bad_shard_is_a_clean_error(tmp_path, capsys):
    status = main(
        [
            "campaign", "run", "figure1", "--shard", "3/2",
            "--store", str(tmp_path / "store"),
        ]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "shard" in err


def test_campaign_builder_params_via_set(tmp_path, capsys):
    status = main(
        [
            "campaign", "run", "fault_resilience", "--n-max", "14",
            "--set", "seeds=1",
            "--store", str(tmp_path / "store"),
            "--artifacts", str(tmp_path / "artifacts"),
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "12 points" in out


def test_campaign_rejects_unknown_builder_param(tmp_path, capsys):
    status = main(
        [
            "campaign", "run", "figure1", "--set", "bogus=1",
            "--store", str(tmp_path / "store"),
        ]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "rejected params" in err


def test_sweep_exits_nonzero_when_a_point_fails_validation(capsys):
    # A starved simulated-time wall leaves points unsolved; the exit
    # status must say so (CI smoke jobs rely on it).
    status = main(
        [
            "sweep", "--n", "12", "--side", "2.0", "--k", "2",
            "--seeds", "2", "--param", "model.max_time=0.5",
        ]
    )
    capsys.readouterr()
    assert status == 1


# ----------------------------------------------------------------------
# Supervised fabric / chaos / budgets (campaign run flags)
# ----------------------------------------------------------------------
def _smoke_args(tmp_path, sub: str, *extra: str) -> list[str]:
    return [
        "campaign", "run", "smoke",
        "--store", str(tmp_path / sub / "store"),
        "--artifacts", str(tmp_path / sub / "artifacts"),
        *extra,
    ]


def test_campaign_chaos_run_converges_byte_identically(tmp_path, capsys):
    assert main(_smoke_args(tmp_path, "ref")) == 0
    capsys.readouterr()
    status = main(
        _smoke_args(
            tmp_path,
            "chaos",
            "--chaos", "worker_kill:fraction=0.5",
            "--chaos", "store_corrupt:fraction=0.5",
        )
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "fabric:" in out  # health surfaced in the run summary
    ref = (tmp_path / "ref" / "artifacts" / "smoke" / "points.csv").read_bytes()
    got = (tmp_path / "chaos" / "artifacts" / "smoke" / "points.csv").read_bytes()
    assert ref == got
    ref = (tmp_path / "ref" / "artifacts" / "smoke" / "manifest.json").read_bytes()
    got = (
        tmp_path / "chaos" / "artifacts" / "smoke" / "manifest.json"
    ).read_bytes()
    assert ref == got
    # The chaos run's anomalies are logged outside the manifest.
    assert (tmp_path / "chaos" / "artifacts" / "smoke" / "health.json").exists()
    assert not (tmp_path / "ref" / "artifacts" / "smoke" / "health.json").exists()


def test_campaign_point_budget_exits_resumable_with_partial_report(
    tmp_path, capsys
):
    status = main(_smoke_args(tmp_path, "b", "--point-budget", "2"))
    captured = capsys.readouterr()
    assert status == 75  # EX_TEMPFAIL: distinct, resumable
    assert "point_budget exhausted" in captured.err
    assert "resume" in captured.err
    report = (tmp_path / "b" / "artifacts" / "smoke" / "report.md").read_text()
    assert "## Missing points" in report
    assert "partial artifacts" in captured.out
    resume = [
        "campaign", "resume", "smoke",
        "--store", str(tmp_path / "b" / "store"),
        "--artifacts", str(tmp_path / "b" / "artifacts"),
    ]
    assert main(resume) == 0
    out = capsys.readouterr().out
    assert "cached 2" in out
    report = (tmp_path / "b" / "artifacts" / "smoke" / "report.md").read_text()
    assert "## Missing points" not in report


def test_campaign_bad_chaos_is_a_clean_error(tmp_path, capsys):
    status = main(_smoke_args(tmp_path, "c", "--chaos", "meteor_strike"))
    err = capsys.readouterr().err
    assert status == 2
    assert "chaos" in err


def test_campaign_chaos_needing_too_many_retries_is_a_clean_error(
    tmp_path, capsys
):
    status = main(
        _smoke_args(
            tmp_path, "c",
            "--chaos", "transient_error:times=9", "--retries", "2",
        )
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "retries" in err


def test_campaign_shard_error_names_the_valid_range(tmp_path, capsys):
    status = main(
        [
            "campaign", "run", "smoke", "--shard", "4/4",
            "--store", str(tmp_path / "store"),
        ]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "0/4 through 3/4" in err


# ----------------------------------------------------------------------
# Store backends, campaign diff, store tools (PR: pluggable backends)
# ----------------------------------------------------------------------
@pytest.fixture
def served_store(tmp_path):
    """An in-process ``repro store serve`` over tmp_path/served."""
    import threading

    from repro.store import make_server

    root = tmp_path / "served"
    server = make_server(str(root), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", root
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def test_campaign_unknown_store_scheme_is_a_clean_error(capsys):
    status = main(["campaign", "run", "smoke", "--store", "s3://bucket/x"])
    err = capsys.readouterr().err
    assert status == 2
    assert "unknown store scheme 's3://'" in err
    assert "registered backends" in err
    assert "http://" in err


def test_campaign_diff_requires_against(tmp_path):
    with pytest.raises(SystemExit, match="--against"):
        main(
            [
                "campaign", "diff", "smoke",
                "--store", str(tmp_path / "store"),
            ]
        )


def test_campaign_over_http_store_diffs_clean_against_local(
    served_store, tmp_path, capsys
):
    url, served_root = served_store
    local = [
        "campaign", "run", "smoke",
        "--store", str(tmp_path / "local" / "store"),
        "--artifacts", str(tmp_path / "local" / "artifacts"),
    ]
    remote = [
        "campaign", "run", "smoke",
        "--store", url,
        "--artifacts", str(tmp_path / "remote" / "artifacts"),
    ]
    assert main(local) == 0
    assert main(remote) == 0
    capsys.readouterr()
    # Re-running against the shared server is a pure cache replay.
    assert main(remote) == 0
    assert "cache hit 100.0%" in capsys.readouterr().out
    diff = [
        "campaign", "diff", "smoke",
        "--store", str(tmp_path / "local" / "store"),
        "--against", url,
    ]
    assert main(diff) == 0
    out = capsys.readouterr().out
    assert "zero drift" in out
    # Remove one served entry: the same diff now reports drift, nonzero.
    from repro.store import LocalBackend

    kind, key = next(iter(LocalBackend(str(served_root)).list_entries()))
    LocalBackend(str(served_root)).delete(kind, key)
    assert main(diff) == 1
    captured = capsys.readouterr()
    assert "DRIFT" in captured.err
    assert "missing_b" in captured.out


def test_store_cli_sync_verify_gc(tmp_path, capsys):
    store = tmp_path / "store"
    mirror = tmp_path / "mirror"
    assert main(_smoke_args(tmp_path, ".", "--no-report")) == 0
    capsys.readouterr()
    assert main(["store", "sync", str(store), str(mirror)]) == 0
    assert "copied" in capsys.readouterr().out
    assert main(["store", "verify", str(mirror)]) == 0
    assert "bad 0" in capsys.readouterr().out
    # Flip a byte: verify flags it; --delete heals; verify is clean again.
    entry = next(mirror.rglob("*.json"))
    data = bytearray(entry.read_bytes())
    data[10] ^= 0xFF
    entry.write_bytes(bytes(data))
    assert main(["store", "verify", str(mirror)]) == 1
    capsys.readouterr()
    assert main(["store", "verify", str(mirror), "--delete"]) == 0
    assert "deleted 1" in capsys.readouterr().out
    assert main(["store", "verify", str(mirror)]) == 0
    capsys.readouterr()
    # gc: everything present is claimed by smoke, so nothing to remove.
    gc = ["store", "gc", str(store), "--campaign", "smoke"]
    assert main(gc) == 0
    assert "would remove 0" in capsys.readouterr().out
    assert main([*gc, "--apply"]) == 0
    capsys.readouterr()
    assert main(["campaign", "verify", "smoke", "--store", str(store)]) == 0


def test_sweep_journal_dir_accepts_store_url(served_store, capsys):
    url, served_root = served_store
    status = main(
        [
            "sweep", "--n", "8", "--side", "2.0", "--k", "2",
            "--seeds", "1", "--journal-dir", url,
        ]
    )
    captured = capsys.readouterr()
    assert status == 0
    assert f"journals to store {url}" in captured.err
    assert list(served_root.rglob("*.obs.jsonl.gz"))


def test_all_figures_cli_reuses_member_campaign_cache(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert (
        main(
            [
                "campaign", "run", "smoke",
                "--store", store,
                "--artifacts", str(tmp_path / "a1"),
            ]
        )
        == 0
    )
    capsys.readouterr()
    status = main(
        [
            "campaign", "run", "all_figures",
            "--set", "include=smoke",
            "--store", store,
            "--artifacts", str(tmp_path / "a2"),
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "cache hit 100.0%" in out


# ----------------------------------------------------------------------
# Graceful Ctrl-C (SIGINT-injecting subprocess)
# ----------------------------------------------------------------------
def test_campaign_run_sigint_checkpoints_then_resumes(tmp_path):
    """Ctrl-C mid-campaign exits 130, keeps checkpointed points, and a
    plain resume finishes the job from what landed in the store."""
    import os
    import signal
    import subprocess
    import sys
    import time

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    store = tmp_path / "store"
    # seed=6 deterministically hangs exactly one later point (never the
    # first), so the run checkpoints some entries and then wedges until
    # the signal arrives — no timing race on "was it still running?".
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run", "smoke",
            "--chaos", "point_hang:fraction=0.4,seconds=300,seed=6",
            "--store", str(store),
            "--artifacts", str(tmp_path / "artifacts"),
            "--no-report",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.time() + 60
        while time.time() < deadline:
            entries = (
                [p for p in store.rglob("*.json")] if store.exists() else []
            )
            if entries:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        assert proc.poll() is None, (proc.stdout.read(), proc.stderr.read())
        assert entries, "no checkpoint landed before the signal"
        proc.send_signal(signal.SIGINT)
        status = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    _, err = proc.communicate()
    assert status == 130
    assert "resume" in err  # points the user at the recovery path
    assert "Traceback" not in err
    # The interrupted store resumes cleanly — and without chaos this
    # time, the campaign completes with the interrupted work reused.
    from repro.cli import main as cli_main

    resume_status = cli_main(
        [
            "campaign", "resume", "smoke",
            "--store", str(store),
            "--artifacts", str(tmp_path / "artifacts"),
        ]
    )
    assert resume_status == 0
