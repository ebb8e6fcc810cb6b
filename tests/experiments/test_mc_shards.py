"""The third parallelism tier: MC-evaluation sharding in the assembly pass.

``mc_shards`` must change *how fast* cells evaluate, never *what* they
contain: the assembled grid is bitwise identical at every shard count,
the flag stays outside the training cache digest, and the telemetry
report grows a shard-utilization section.
"""

import pytest

from repro.experiments import ExperimentConfig, run_table2_parallel
from repro.experiments import cli
from repro.experiments.report import _sharding_section

MICRO = ExperimentConfig(
    seeds=(1, 2), max_epochs=15, patience=15, n_mc_train=2, n_test=25, max_train=50,
)


def cells_signature(results):
    return [
        (c.dataset, c.setup.learnable, c.setup.variation_aware, c.eps_test,
         c.mean, c.std, c.best_seed, c.best_val_loss)
        for c in results
    ]


@pytest.mark.slow
class TestAssemblySharding:
    @pytest.fixture(scope="class")
    def unsharded(self, analytic_surrogates):
        return run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1
        )

    def test_sharded_assembly_matches_bitwise(self, unsharded, analytic_surrogates):
        sharded = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1,
            mc_shards=2,
        )
        assert cells_signature(sharded) == cells_signature(unsharded)

    def test_pooled_sharded_assembly_matches_bitwise(self, unsharded,
                                                     analytic_surrogates):
        sharded = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=2,
            mc_shards=2,
        )
        assert cells_signature(sharded) == cells_signature(unsharded)

    def test_config_default_feeds_runner(self, unsharded, analytic_surrogates):
        config = MICRO.with_overrides(mc_shards=2)
        sharded = run_table2_parallel(
            ["iris"], config, surrogates=analytic_surrogates, workers=1
        )
        assert cells_signature(sharded) == cells_signature(unsharded)


class TestCacheDigest:
    def test_mc_shards_outside_training_fingerprint(self):
        base = MICRO.training_fingerprint()
        assert MICRO.with_overrides(mc_shards=8).training_fingerprint() == base
        assert "mc_shards" not in base


class TestCli:
    def test_parses_mc_shards(self):
        args = cli._build_parser().parse_args(
            ["table2", "--datasets", "iris", "--mc-shards", "3"]
        )
        assert args.mc_shards == 3

    def test_defaults_to_profile_setting(self):
        args = cli._build_parser().parse_args(["table2", "--datasets", "iris"])
        assert args.mc_shards is None


class TestReportSection:
    @staticmethod
    def _span(name, pid=1, dur=0.5, **attrs):
        return {"kind": "span", "name": name, "pid": pid, "dur_s": dur,
                "attrs": attrs}

    def test_empty_without_sharding_events(self):
        assert _sharding_section([]) == []

    def test_renders_utilization(self):
        events = [
            self._span("mc.evaluate_sharded", shards=2, pooled=True),
            self._span("mc.shard", pid=11, start=0, stop=40),
            self._span("mc.shard", pid=12, start=40, stop=60),
        ]
        lines = _sharding_section(events)
        text = "\n".join(lines)
        assert lines[0] == "mc sharding:"
        assert "1 pooled" in text
        assert "11" in text and "40" in text
