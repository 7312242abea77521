# Convenience targets for the GTS reproduction.
#
#   make test         tier-1 test suite (the gate every PR must keep green)
#   make bench-smoke  fast benchmark smoke run (reduced scale, quick figures)
#   make bench        full benchmark harness (all paper figures/tables)
#   make profile      cProfile a standard serve-sim workload (top-20 by cumtime)
#   make profile-updates  cProfile an update-heavy serve-sim workload with
#                     non-blocking maintenance enabled (top-20 by cumtime)
#   make lint         byte-compile every source tree (no linter is vendored)
#   make example      run the quickstart end to end
#   make examples     run every example script (the CI smoke job)
#
# bench/bench-smoke write machine-readable result manifests (BENCH_full.json /
# BENCH_smoke.json: config snapshot + per-experiment rows) next to this file,
# so the perf trajectory is trackable across PRs; see benchmarks/README.md.

PYTHON      ?= python
PYTHONPATH  := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test bench-smoke bench profile profile-updates lint example examples

test:
	$(PYTHON) -m pytest -x -q

# The smoke run keeps the default (calibrated) scale and picks the fast
# files; the benchmark shape assertions are not tuned for very small scales.
bench-smoke:
	REPRO_BENCH_MANIFEST=BENCH_smoke.json $(PYTHON) -m pytest -q \
		benchmarks/bench_ablations.py \
		benchmarks/bench_approx.py \
		benchmarks/bench_fig8_gpu_memory.py \
		benchmarks/bench_fig10_identical.py \
		benchmarks/bench_service_throughput.py \
		benchmarks/bench_sharding.py \
		benchmarks/bench_memory_tiering.py \
		benchmarks/bench_host_wallclock.py \
		benchmarks/bench_update_path.py

# bench_*.py does not match pytest's default test-file pattern, so the files
# must be named explicitly (a bare `pytest benchmarks` collects nothing).
bench:
	REPRO_BENCH_MANIFEST=BENCH_full.json $(PYTHON) -m pytest -q benchmarks/bench_*.py

# Profile the host wall-clock of a standard serve-sim workload so perf PRs
# start from data rather than guesses; prints the top-20 functions by
# cumulative time and leaves the raw stats in profile.out.
profile:
	$(PYTHON) -m cProfile -o profile.out -m repro.cli serve-sim \
		--dataset vector --cardinality 6000 --clients 8 --rate 200000 \
		--duration 4e-3 --max-batch 128
	$(PYTHON) -c "import pstats; pstats.Stats('profile.out').sort_stats('cumulative').print_stats(20)"

# Profile the update path: an insert-heavy stream over a small cache with
# non-blocking generation-swap maintenance, so rebuild slices show up in the
# profile instead of monolithic stop-the-world builds.
profile-updates:
	$(PYTHON) -m cProfile -o profile_updates.out -m repro.cli serve-sim \
		--dataset tloc --cardinality 8000 --clients 8 --rate 200000 \
		--duration 4e-3 --max-batch 128 --update-heavy --cache-kb 0.5 \
		--maintenance
	$(PYTHON) -c "import pstats; pstats.Stats('profile_updates.out').sort_stats('cumulative').print_stats(20)"

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples perfbench
	$(PYTHON) -c "import repro; print('import ok:', repro.__version__)"

example:
	$(PYTHON) examples/quickstart.py

examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script; \
	done
