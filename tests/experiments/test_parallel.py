"""Parallel engine: serial equivalence, resume-after-kill, CLI flags."""

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import telemetry
from repro.experiments import (
    ExperimentConfig,
    JobKey,
    ResultCache,
    RunJournal,
    enumerate_jobs,
    run_cell,
    run_table2_parallel,
)
from repro.experiments import cli, parallel
from repro.experiments.jobs import iter_cells
from repro.experiments.report import render_telemetry_report
from repro.telemetry import read_events, summarize_events
from repro.telemetry.core import NULL

MICRO = ExperimentConfig(
    seeds=(1, 2), max_epochs=15, patience=15, n_mc_train=2, n_test=6, max_train=50,
)


def cells_signature(results):
    return [
        (c.dataset, c.setup.learnable, c.setup.variation_aware, c.eps_test,
         c.mean, c.std, c.best_seed, c.best_val_loss)
        for c in results
    ]


@pytest.mark.slow
class TestEquivalence:
    @pytest.fixture(scope="class")
    def serial(self, analytic_surrogates):
        """``run_cell`` over every iris cell."""
        return [
            run_cell(dataset, setup, eps_test, MICRO, surrogates=analytic_surrogates)
            for dataset, setup, eps_test in iter_cells(["iris"])
        ]

    def test_workers1_no_cache_matches_serial(self, serial, analytic_surrogates):
        par = run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates, workers=1)
        assert cells_signature(par) == cells_signature(serial)

    def test_two_workers_match_serial_bitwise(self, serial, analytic_surrogates, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        par = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=2, cache=cache,
        )
        assert cells_signature(par) == cells_signature(serial)
        # 6 training groups × 2 seeds solved and persisted.
        assert len(cache) == 12


class TestResume:
    def test_prepopulated_cache_skips_all_training(self, analytic_surrogates, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        first = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1, cache=cache,
        )
        n_jobs = len(RunJournal.read(cache.journal_path))

        # Simulate resume-after-kill: a fresh invocation over the same cache
        # dir must never re-enter training.
        def boom(*args, **kwargs):
            raise AssertionError("execute_job_lanes called despite a full cache")

        monkeypatch.setattr(parallel, "execute_job_lanes", boom)
        second = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1, cache=cache,
        )
        assert cells_signature(second) == cells_signature(first)
        hits = RunJournal.read(cache.journal_path)[n_jobs:]
        assert len(hits) == n_jobs
        assert all(r["cache_hit"] for r in hits)

    def test_partial_cache_trains_only_missing(self, analytic_surrogates, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        one_seed = MICRO.with_overrides(seeds=(1,))
        run_table2_parallel(["iris"], one_seed, surrogates=analytic_surrogates,
                            workers=1, cache=cache)
        solved = len(RunJournal.read(cache.journal_path))

        run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates,
                            workers=1, cache=cache)
        records = RunJournal.read(cache.journal_path)[solved:]
        hits = [r for r in records if r["cache_hit"]]
        fresh = [r for r in records if not r["cache_hit"]]
        # Seed-1 jobs replay from cache; only the seed-2 jobs train.
        assert len(hits) == 6
        assert len(fresh) == 6
        assert all(r["seed"] == 2 for r in fresh)

    def test_cache_invalidation_on_config_change(self, analytic_surrogates, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates,
                            workers=1, cache=cache)
        before = len(RunJournal.read(cache.journal_path))
        changed = MICRO.with_overrides(max_epochs=16)
        run_table2_parallel(["iris"], changed, surrogates=analytic_surrogates,
                            workers=1, cache=cache)
        records = RunJournal.read(cache.journal_path)[before:]
        assert all(not r["cache_hit"] for r in records)


class TestWorkerDeath:
    """A killed training worker fails the run and names what was lost."""

    @staticmethod
    def journaled(cache):
        """``(JobKey, record)`` of every journal record, in order."""
        return [
            (JobKey(r["dataset"], r["learnable"], r["variation_aware"],
                    r["train_eps"], r["seed"], r["scenario"]), r)
            for r in RunJournal.read(cache.journal_path)
        ]

    def test_names_lost_jobs_and_resume_trains_only_them(
        self, analytic_surrogates, tmp_path, monkeypatch,
    ):
        cache = ResultCache(tmp_path / "cache")
        jobs = enumerate_jobs(["iris"], MICRO)
        doomed = jobs[-1].group
        parent = os.getpid()
        execute = parallel.execute_job_lanes

        def kill_doomed_worker(keys, config, surrogates, splits=None):
            if os.getpid() != parent and keys[0].group == doomed:
                os.kill(os.getpid(), signal.SIGKILL)
            return execute(keys, config, surrogates, splits)

        tel_dir = tmp_path / "tel"
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "execute_job_lanes", kill_doomed_worker)
            telemetry.enable(tel_dir)
            try:
                with pytest.raises(BrokenProcessPool) as failure:
                    run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates,
                                        workers=2, cache=cache)
            finally:
                telemetry.disable()

        finished = {key for key, _ in self.journaled(cache)}
        missing = [key for key in jobs if key not in finished]
        assert doomed in {key.group for key in missing}
        labels = sorted(parallel._job_label(key) for key in missing)
        message = str(failure.value)
        named = {line.strip() for line in message.splitlines() if line.startswith("  ")}
        assert named == set(labels)
        assert f"{len(missing)} of {len(jobs)} jobs" in message
        assert "--resume" in message

        # The telemetry directory records the failure, merged, and its
        # report says so in the header.
        assert (tel_dir / "events.jsonl").exists()
        (broken,) = [e["attrs"] for e in read_events(tel_dir)
                     if e.get("kind") == "event" and e.get("name") == "pool.broken"]
        assert sorted(broken["lost"]) == labels
        assert (broken["n_lost"], broken["n_jobs"]) == (len(missing), len(jobs))
        report = render_telemetry_report(tel_dir)
        header = report.split("\n\n")[0]
        assert (f"FAILED: a training worker died; {len(missing)} of {len(jobs)} "
                "jobs did not finish:") in header
        assert sorted(line.strip() for line in header.splitlines()
                      if line.startswith("  ")) == labels
        assert (f"FAIL  jobs lost to a dead worker (pool.broken.n_lost): {len(missing)}"
                in report)
        assert cli.main(["report", "--telemetry", str(tel_dir)]) == 1

        seen = len(finished)
        resumed = run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates,
                                      workers=2, cache=cache)
        trained = [key for key, r in self.journaled(cache)[seen:] if not r["cache_hit"]]
        assert sorted(trained) == sorted(missing)
        uninterrupted = run_table2_parallel(["iris"], MICRO,
                                            surrogates=analytic_surrogates, workers=1)
        assert cells_signature(resumed) == cells_signature(uninterrupted)

    def test_without_cache_the_message_offers_no_resume(self):
        key = JobKey("iris", True, True, 0.1, 2)
        message = parallel._lost_jobs_message([key], 12, cached=False)
        assert message.splitlines() == [
            "a training worker died; 1 of 12 jobs did not finish:",
            f"  {parallel._job_label(key)}",
        ]


class TestCLIFlags:
    def _trim_smoke(self, monkeypatch, analytic_surrogates):
        monkeypatch.setattr(cli, "get_default_bundle", lambda **k: analytic_surrogates)
        monkeypatch.setitem(
            cli.PROFILES, "smoke",
            cli.PROFILES["smoke"].with_overrides(
                seeds=(1,), max_epochs=10, patience=10, n_mc_train=2,
                n_test=4, max_train=40,
            ),
        )

    def test_workers_and_cache_dir(self, capsys, monkeypatch, analytic_surrogates, tmp_path):
        self._trim_smoke(monkeypatch, analytic_surrogates)
        cache_dir = tmp_path / "cache"
        code = cli.main(["table2", "--datasets", "iris", "--workers", "2",
                         "--cache-dir", str(cache_dir)])
        assert code == 0
        assert "Average" in capsys.readouterr().out
        assert (cache_dir / "journal.jsonl").exists()

    def test_no_cache_writes_nothing(self, capsys, monkeypatch, analytic_surrogates, tmp_path):
        self._trim_smoke(monkeypatch, analytic_surrogates)
        cache_dir = tmp_path / "cache"
        code = cli.main(["table2", "--datasets", "iris", "--no-cache",
                         "--cache-dir", str(cache_dir)])
        assert code == 0
        assert not cache_dir.exists()

    def test_resume_requires_existing_cache(self, capsys, monkeypatch, analytic_surrogates, tmp_path):
        self._trim_smoke(monkeypatch, analytic_surrogates)
        code = cli.main(["table2", "--datasets", "iris", "--resume",
                         "--cache-dir", str(tmp_path / "absent")])
        assert code == 2
        assert "no cache" in capsys.readouterr().err

    def test_resume_conflicts_with_no_cache(self, capsys, monkeypatch, analytic_surrogates):
        self._trim_smoke(monkeypatch, analytic_surrogates)
        code = cli.main(["table2", "--datasets", "iris", "--resume", "--no-cache"])
        assert code == 2

    def test_resume_over_populated_cache(self, capsys, monkeypatch, analytic_surrogates, tmp_path):
        """A resume at another worker count replays every job from cache.

        The fresh run fans its batches over two workers and merges their
        logs; the resume's own telemetry shows 100% hits and no training,
        and both runs pass every health rule.
        """
        self._trim_smoke(monkeypatch, analytic_surrogates)
        cache_dir, fresh, resume = tmp_path / "cache", tmp_path / "fresh", tmp_path / "resume"
        assert cli.main(["table2", "--datasets", "iris", "--workers", "2",
                         "--cache-dir", str(cache_dir), "--telemetry", str(fresh)]) == 0
        first = capsys.readouterr().out
        assert cli.main(["table2", "--datasets", "iris", "--workers", "1", "--resume",
                         "--cache-dir", str(cache_dir), "--telemetry", str(resume)]) == 0
        second = capsys.readouterr().out
        assert telemetry.get() is NULL        # the CLI switched its telemetry off
        assert first == second
        records = RunJournal.read(cache_dir / "journal.jsonl")
        resumed = records[len(records) // 2:]
        assert resumed and all(r["cache_hit"] for r in resumed)

        replay = summarize_events(read_events(resume))
        assert replay["counters"].get("cache.hit") == len(resumed)
        assert "cache.miss" not in replay["counters"] and "job.done" not in replay["events"]
        fresh_events = read_events(fresh)
        assert (fresh / "events.jsonl").exists()
        workers = {e["pid"] for e in fresh_events if e.get("name") == "job.done"}
        assert len(workers) >= 2, f"expected >= 2 worker processes, saw {workers}"
        for directory in (fresh, resume):
            assert cli.main(["report", "--telemetry", str(directory)]) == 0
