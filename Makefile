PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test test-all lint verify bench bench-e2e bench-scenarios bench-export

test:              ## fast tier: everything not marked @pytest.mark.slow
	python -m pytest -x -q -m "not slow"

test-all:          ## full tier-1 suite, slow property/integration tests included
	python -m pytest -x -q

lint:              ## ruff over sources and tests
	ruff check src tests

verify: 	   ## tier-1 tests + 2-worker smoke table2 (the CI gate)
	bash scripts/ci.sh

bench:             ## regenerate every table & figure at $(REPRO_BENCH_PROFILE)
	python -m pytest benchmarks/ --benchmark-only

bench-e2e:         ## end-to-end benchmark: four workloads, golden-checked (BENCHMARK.json)
	python3 benchmarks/e2e/run.py

bench-scenarios:   ## non-ideality scenario grid benchmark + artifact
	python -m pytest benchmarks/bench_scenario_grid.py -q -s

bench-export:      ## tiling compile + closed-loop deploy verification benchmark + artifact
	python -m pytest benchmarks/bench_export_deploy.py -q -s
