"""Telemetry layer: schema, spans, merge determinism, run identity, health rules."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import telemetry
from repro.circuits.ptanh import ptanh_param_batch, ptanh_stamp_plan
from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn, train_pnn_lanes
from repro.experiments import ExperimentConfig, cli, enumerate_jobs, run_table2_parallel
from repro.experiments.report import HEALTH_RULES, check_health, render_telemetry_report
from repro.exporting import deploy_report
from repro.spice import solve_dc_batch
from repro.surrogate.sampling import sample_design_points
from repro.telemetry import (
    EVENT_KINDS,
    NullTelemetry,
    merge_events,
    read_events,
    read_manifest,
    summarize_events,
)
from repro.telemetry.core import TELEMETRY_ENV

MICRO = ExperimentConfig(
    seeds=(1,), max_epochs=12, patience=12, n_mc_train=2, n_test=4, max_train=50,
)


@pytest.fixture()
def tel(tmp_path):
    """An enabled sink in a tmp dir, guaranteed torn down afterwards."""
    sink = telemetry.enable(tmp_path / "tel", manifest={"profile": "test"})
    try:
        yield sink
    finally:
        telemetry.disable()


@pytest.fixture(autouse=True)
def _no_leaked_sink():
    """No test may leak an active sink (or the env var) into the suite."""
    yield
    telemetry.disable()


class TestSchema:
    def test_record_round_trip(self, tel):
        tel.count("cache.hit", 3)
        tel.event("job.done", dataset="iris", seed=1)
        with tel.span("outer", phase="x"):
            pass
        events = read_events(tel.directory)

        by_kind = {e["kind"] for e in events}
        assert by_kind == {"span", "event", "count"}
        assert set(EVENT_KINDS) == {"span", "event", "count"}
        for record in events:
            assert set(record) >= {"kind", "name", "pid", "seq", "ts"}
            assert record["pid"] == os.getpid()
        # JSONL on disk: one standalone JSON object per line.
        (path,) = tel.directory.glob("events-*.jsonl")
        for line in path.read_text().splitlines():
            assert json.loads(line)["kind"] in EVENT_KINDS

    def test_summarize_aggregates(self, tel):
        tel.count("hits", 2)
        tel.count("hits", 5)
        tel.event("done", n=3, dur_s=0.5, label="a")
        tel.event("done", n=4, dur_s=0.25, label="b")
        with tel.span("work"):
            pass
        summary = summarize_events(read_events(tel.directory))
        assert set(summary) == {"counters", "spans", "events", "attrs"}
        assert summary["counters"]["hits"] == 7
        assert summary["events"]["done"] == 2
        # Numeric event attributes are summed and maximized; others skipped.
        assert summary["attrs"]["done"] == {
            "n": {"sum": 7, "max": 4}, "dur_s": {"sum": 0.75, "max": 0.5},
        }
        stat = summary["spans"]["work"]
        assert stat["count"] == 1
        assert stat["total_s"] == stat["max_s"] == stat["mean_s"]

    def test_manifest_written_and_merged(self, tel):
        manifest = read_manifest(tel.directory)
        assert manifest["profile"] == "test"
        assert {"created_at", "git_sha", "python", "argv"} <= set(manifest)
        created = manifest["created_at"]
        # A second enable over the same dir refines, never clobbers.
        telemetry.enable(tel.directory, manifest={"datasets": ["iris"]})
        refined = read_manifest(tel.directory)
        assert refined["profile"] == "test"
        assert refined["datasets"] == ["iris"]
        assert refined["created_at"] == created

    def test_truncated_line_skipped_with_warning(self, tel):
        tel.count("ok", 1)
        (path,) = tel.directory.glob("events-*.jsonl")
        with open(path, "a") as handle:
            handle.write('{"kind": "count", "name": "torn", "n"')  # no newline
        with pytest.warns(RuntimeWarning, match="truncated"):
            events = read_events(tel.directory)
        names = [e["name"] for e in events]
        assert "ok" in names and "torn" not in names


def table_row(report, *cells):
    """Whether a line of ``report`` holds exactly ``cells`` (whitespace-split)."""
    return any(line.split() == [str(c) for c in cells] for line in report.splitlines())


def health(directory):
    """``{rule label: value}`` of the run at ``directory``."""
    summary = summarize_events(read_events(directory))
    return {rule.label: value for rule, value in check_health(summary)}


class TestSpiceReport:
    def test_lanes_that_exhaust_max_iter_are_reported(self, tel, capsys):
        """A capped solve's unconverged lanes fail the Newton health rule."""
        plan = ptanh_stamp_plan()
        params = ptanh_param_batch(sample_design_points(12, seed=2), plan)
        iters = solve_dc_batch(plan, params).iterations
        cap = int((iters.min() + iters.max()) // 2)
        capped = solve_dc_batch(plan, params, max_iter=cap)
        n_failed = int(np.sum(~capped.converged))
        assert n_failed == int(np.sum(iters > cap)) > 0
        assert health(tel.directory) == {
            rule.label: (n_failed if rule.name == "spice.solve_dc_batch" else 0)
            for rule in HEALTH_RULES
        }
        report = render_telemetry_report(tel.directory)
        assert table_row(report, "spice.solve_dc_batch", 2, "batch", 24, 12)
        assert (f"FAIL  unconverged Newton lanes "
                f"(spice.solve_dc_batch.n_unconverged): {n_failed}") in report
        capsys.readouterr()
        assert cli.main(["report", "--telemetry", str(tel.directory)]) == 1
        assert capsys.readouterr().out == report


class TestSpans:
    def test_nesting_path_depth_and_monotonic_timing(self, tel):
        with tel.span("outer"):
            with tel.span("inner"):
                sum(range(1000))
        spans = {e["name"]: e for e in read_events(tel.directory)
                 if e["kind"] == "span"}
        outer, inner = spans["outer"], spans["inner"]
        assert outer["depth"] == 0 and outer["path"] == "outer"
        assert inner["depth"] == 1 and inner["path"] == "outer/inner"
        assert 0.0 <= inner["dur_s"] <= outer["dur_s"]
        # The inner span starts after — and is recorded before — the outer.
        assert inner["ts"] >= outer["ts"]
        assert inner["seq"] < outer["seq"]

    def test_seq_strictly_increasing_per_process(self, tel):
        for i in range(5):
            tel.count("c", i)
        seqs = [e["seq"] for e in read_events(tel.directory)]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_exception_still_records_span(self, tel):
        with pytest.raises(ValueError):
            with tel.span("doomed"):
                raise ValueError("boom")
        spans = [e for e in read_events(tel.directory) if e["kind"] == "span"]
        assert [s["name"] for s in spans] == ["doomed"]


class TestNullSink:
    def test_get_returns_null_when_disabled(self):
        telemetry.disable()
        tel = telemetry.get()
        assert isinstance(tel, NullTelemetry)
        assert tel.enabled is False

    def test_null_span_is_one_shared_noop(self):
        telemetry.disable()
        tel = telemetry.get()
        a, b = tel.span("x", k=1), tel.span("y")
        assert a is b
        with a:
            pass
        assert tel.count("c") is None
        assert tel.event("e") is None

    def test_env_var_resolution(self, tmp_path):
        telemetry.disable()
        os.environ[TELEMETRY_ENV] = str(tmp_path / "from_env")
        try:
            tel = telemetry.get()
            assert tel.enabled
            tel.count("joined")
        finally:
            telemetry.disable()
        events = read_events(tmp_path / "from_env")
        assert any(e["name"] == "joined" for e in events)


def _fake_log(directory, pid, records):
    with open(directory / f"events-{pid}.jsonl", "w") as handle:
        for seq, (ts, name) in enumerate(records):
            handle.write(json.dumps(
                {"kind": "event", "name": name, "pid": pid, "seq": seq,
                 "ts": ts, "attrs": {}},
                sort_keys=True) + "\n")


def _worker_count(n):
    telemetry.get().count("child.work", n)


class TestMerge:
    RECORDS_A = [(10.0, "a0"), (10.5, "a1"), (11.0, "tie")]
    RECORDS_B = [(10.2, "b0"), (11.0, "tie"), (12.0, "b1")]

    def test_merge_is_deterministic_regardless_of_write_order(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        for directory, order in ((first, (111, 222)), (second, (222, 111))):
            directory.mkdir()
            by_pid = {111: self.RECORDS_A, 222: self.RECORDS_B}
            for pid in order:
                _fake_log(directory, pid, by_pid[pid])
            merge_events(directory)
        assert (first / "events.jsonl").read_bytes() == \
            (second / "events.jsonl").read_bytes()

    def test_merge_total_order(self, tmp_path):
        _fake_log(tmp_path, 111, self.RECORDS_A)
        _fake_log(tmp_path, 222, self.RECORDS_B)
        merge_events(tmp_path)
        merged = read_events(tmp_path)
        keys = [(e["ts"], e["pid"], e["seq"]) for e in merged]
        assert keys == sorted(keys)
        # Same-ts tie between processes breaks on pid — deterministically.
        ties = [e["pid"] for e in merged if e["name"] == "tie"]
        assert ties == [111, 222]

    def test_remerge_is_idempotent_and_extends(self, tmp_path):
        _fake_log(tmp_path, 111, self.RECORDS_A)
        merge_events(tmp_path)
        once = (tmp_path / "events.jsonl").read_bytes()
        merge_events(tmp_path)
        assert (tmp_path / "events.jsonl").read_bytes() == once
        _fake_log(tmp_path, 222, self.RECORDS_B)
        merge_events(tmp_path)
        assert len(read_events(tmp_path)) == 6

    def test_forked_children_write_per_pid_files(self, tel):
        tel.count("parent.work")
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_worker_count, args=(i,)) for i in (1, 2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        files = sorted(tel.directory.glob("events-*.jsonl"))
        assert len(files) == 3  # parent + two forked children
        tel.merge()
        events = read_events(tel.directory)
        starts = [e for e in events if e["name"] == "process.start"]
        assert len(starts) == 3
        # Each forked child reopened its own file and reset its sequence.
        child = [e for e in events if e["name"] == "child.work"]
        assert {e["pid"] for e in child} & {p.pid for p in procs}
        summary = summarize_events(events)
        assert summary["counters"]["child.work"] == 3  # 1 + 2


class TestRunIdentity:
    def _signature(self, results):
        return [
            (c.dataset, c.setup.learnable, c.setup.variation_aware, c.eps_test,
             c.mean, c.std, c.best_seed, c.best_val_loss)
            for c in results
        ]

    def test_table2_bitwise_identical_with_telemetry_on_and_off(
            self, analytic_surrogates, tmp_path):
        telemetry.disable()
        plain = run_table2_parallel(["iris"], MICRO,
                                    surrogates=analytic_surrogates, workers=1)
        telemetry.enable(tmp_path / "tel")
        try:
            traced = run_table2_parallel(["iris"], MICRO,
                                         surrogates=analytic_surrogates,
                                         workers=1)
        finally:
            telemetry.disable()
        assert self._signature(traced) == self._signature(plain)
        # ... and the traced run actually produced an audited event stream.
        summary = summarize_events(read_events(tmp_path / "tel"))
        assert summary["events"]["job.done"] == len(enumerate_jobs(["iris"], MICRO))
        assert summary["events"]["table2.done"] == 1
        assert (tmp_path / "tel" / "events.jsonl").exists()


class TestLaneTelemetry:
    """A one-seed profile plans only width-1 batches; each is a lane run."""

    @pytest.fixture(scope="class")
    def traced(self, analytic_surrogates, tmp_path_factory):
        directory = tmp_path_factory.mktemp("lanes") / "tel"
        telemetry.enable(directory)
        try:
            run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates, workers=1)
        finally:
            telemetry.disable()
        return directory, read_events(directory)

    def test_width_one_batches_train_in_lanes(self, traced):
        _, events = traced
        n_jobs = len(enumerate_jobs(["iris"], MICRO))
        summary = summarize_events(events)
        assert summary["events"]["lanes.run"] == n_jobs
        assert summary["attrs"]["lanes.run"]["n_lanes"]["sum"] == n_jobs

    def test_plan_event_carries_widths_only(self, traced):
        _, events = traced
        (plan,) = [e for e in events if e.get("name") == "lanes.plan"]
        n_jobs = len(enumerate_jobs(["iris"], MICRO))
        assert plan["attrs"]["widths"] == [1] * n_jobs
        assert set(plan["attrs"]) == {"n_jobs", "n_batches", "widths"}
        counters = summarize_events(events)["counters"]
        assert "lanes.jobs" not in counters and "lanes.serial_jobs" not in counters

    def test_report_lanes_section(self, traced):
        """The lane counts live in the events table's ``lanes.run`` rows."""
        directory, _ = traced
        n_jobs = len(enumerate_jobs(["iris"], MICRO))
        report = render_telemetry_report(directory)
        assert table_row(report, "lanes.run", n_jobs, "n_lanes", n_jobs, 1)
        assert table_row(report, "lanes.plan", 1, "n_batches", n_jobs, n_jobs)

    def test_lane_run_records_each_fact_once(self, traced):
        """One record per lane run; the report sums ``lanes.run``."""
        directory, events = traced
        names = [e.get("name") for e in events if e.get("kind") == "event"]
        assert "train.run" not in names
        runs = [e["attrs"] for e in events
                if e.get("kind") == "event" and e.get("name") == "lanes.run"]
        assert all(set(a) == {"n_lanes", "epochs_run", "lane_epochs", "shrink_events",
                              "n_nonfinite", "nonfinite_seeds", "dur_s"} for a in runs)
        assert all(a["lane_epochs"] > 0 and a["nonfinite_seeds"] == [] for a in runs)
        counters = summarize_events(events)["counters"]
        assert "train.epochs" not in counters and "lanes.trained" not in counters
        report = render_telemetry_report(directory)
        lane_epochs = sum(a["lane_epochs"] for a in runs)
        assert table_row(report, "lanes.run", len(runs), "lane_epochs", lane_epochs,
                         max(a["lane_epochs"] for a in runs))
        assert health(directory)["lanes without a finite validation loss"] == 0


class TestReportSums:
    """The events table sums quantities, never identifiers, indices, settings or flags."""

    #: (event, attribute) pairs a run records that have no meaningful sum.
    IDENTIFIERS_AND_FLAGS = {
        ("process.start", "ppid"),
        ("job.done", "seed"),
        ("job.done", "learnable"),
        ("job.done", "variation_aware"),
        ("job.done", "best_epoch"),
        ("job.done", "train_eps"),
        ("train.early_stop", "lane"),
        ("train.early_stop", "seed"),
        ("train.early_stop", "epoch"),
        ("train.early_stop", "best_epoch"),
        ("train.early_stop", "patience"),
        ("lanes.shrink", "epoch"),
        ("table2.start", "cached"),
        ("table2.start", "workers"),
        ("export.verify", "passed"),
        ("export.deploy", "passed"),
    }

    def test_report_sums_no_identifier_or_flag(self, analytic_surrogates, tmp_path):
        directory = tmp_path / "tel"
        telemetry.enable(directory)
        try:
            # patience=1 stops lanes early, so train.early_stop is recorded too.
            run_table2_parallel(["iris"], MICRO.with_overrides(patience=1),
                                surrogates=analytic_surrogates, workers=1)
            pnn = PrintedNeuralNetwork([4, 3, 3], analytic_surrogates,
                                       rng=np.random.default_rng(0))
            deploy_report(pnn, n_samples=2)
        finally:
            telemetry.disable()
        events = read_events(directory)
        recorded = {(e["name"], attr) for e in events if e.get("kind") == "event"
                    for attr in e.get("attrs") or {}}
        assert self.IDENTIFIERS_AND_FLAGS <= recorded

        report = render_telemetry_report(directory)
        table = report[report.index("\nevent "):].splitlines()
        summed = {(cells[0], cells[2]) for cells in map(str.split, table) if len(cells) == 5}
        assert summed & self.IDENTIFIERS_AND_FLAGS == set()
        assert ("job.done", "epochs_run") in summed

        summary = summarize_events(events)
        for rule in HEALTH_RULES:
            if rule.attr is not None and rule.name in summary["events"]:
                assert rule.attr in summary["attrs"][rule.name], rule
            assert f"ok    {rule.label} (" in report, rule
        assert health(directory) == {rule.label: 0 for rule in HEALTH_RULES}


class TestNonFiniteLane:
    """A lane that never sees a finite validation loss fails a health rule."""

    def test_poisoned_lane_fails_the_rule_and_leaves_its_mate_alone(
            self, analytic_surrogates, blob_data, tmp_path, capsys, pnn_state):
        x_train, y_train, x_val, y_val = blob_data

        def build(seed):
            return PrintedNeuralNetwork([2, 3, 2], analytic_surrogates,
                                        rng=np.random.default_rng(seed))

        configs = [TrainConfig(max_epochs=12, patience=4, epsilon=0.1, n_mc_train=2,
                               seed=seed) for seed in (1, 2)]
        alone = build(1)
        reference = train_pnn(alone, x_train, y_train, x_val, y_val, configs[0])

        pnns = [build(1), build(2)]
        pnns[1].layers[0].theta[0, 0] = np.nan
        directory = tmp_path / "tel"
        telemetry.enable(directory)
        try:
            healthy, poisoned = train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs)
        finally:
            telemetry.disable()

        assert (poisoned.best_val_loss, poisoned.best_epoch) == (np.inf, -1)
        assert healthy.history == reference.history
        assert (healthy.best_epoch, healthy.best_val_loss, healthy.epochs_run) == (
            reference.best_epoch, reference.best_val_loss, reference.epochs_run)
        expected = pnn_state(alone)
        for name, value in pnn_state(pnns[0]).items():
            np.testing.assert_array_equal(value, expected[name], err_msg=name)

        (run,) = [e["attrs"] for e in read_events(directory) if e.get("name") == "lanes.run"]
        assert (run["n_nonfinite"], run["nonfinite_seeds"]) == (1, [2])
        assert health(directory) == {
            rule.label: (1 if rule.name == "lanes.run" else 0) for rule in HEALTH_RULES
        }
        assert cli.main(["report", "--telemetry", str(directory)]) == 1
        assert ("FAIL  lanes without a finite validation loss (lanes.run.n_nonfinite): 1"
                in capsys.readouterr().out)
