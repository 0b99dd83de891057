# Convenience entry points; everything is plain dune underneath.

.PHONY: build test bench bench-full bench-smoke examples-smoke serve-smoke metrics-smoke proc-smoke chaos-smoke clean

build:
	dune build

test:
	dune runtest

# Full experiment regeneration (slow: every table E1-E14, A, B, B6-B10).
bench:
	dune exec bench/main.exe

EXPERIMENTS = E1-E3 E4-E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 A B B6 B7 B8 B9 B10 B11 B12 B13

# Regenerate every committed bench artifact (BENCH_*.json, bench_csv/ +
# MANIFEST.csv, bench_output.txt), one process per experiment.  The
# isolation is deliberate: OCaml 5.1 has no heap compaction (Gc.compact
# is just a full major), so a big-n experiment leaves a fragmented major
# heap that can tax everything after it in the same process by 2-8x on
# wall-clock — per-process runs keep each experiment's timings honest.
# BENCH_engine.json and bench_csv/MANIFEST.csv merge across processes.
bench-full:
	dune build
	rm -f bench_output.txt
	for e in $(EXPERIMENTS); do \
	  dune exec --no-build bench/main.exe -- --csv bench_csv $$e \
	    >> bench_output.txt 2>&1 || exit 1; \
	done
	@tail -5 bench_output.txt

# Fast sanity pass used by CI: one analytic experiment plus the engine
# stepping comparison on a small instance, regression-gated against the
# committed baseline (loose tolerance; only catastrophic slowdowns fail).
# The experiments write their smoke-size rows into the committed
# BENCH_engine.json / BENCH_serve.json; those rows move to the
# (gitignored) bench-smoke-engine.json / bench-smoke-serve.json and the
# committed files are restored from their baseline copies before each
# gate, so a passing run leaves the tree clean.
bench-smoke:
	dune exec bench/main.exe -- E11
	cp BENCH_engine.json bench-baseline.json
	TL_ENGINE_BENCH_N=2000 TL_ENGINE_BENCH_KERNELS=cv3 dune exec bench/main.exe -- B6
	TL_POOL_BENCH_N=2000 dune exec bench/main.exe -- B7
	TL_SHARD_BENCH_N=2000 dune exec bench/main.exe -- B8
	TL_METRICS_BENCH_N=20000 dune exec bench/main.exe -- B10
	TL_FLAT_BENCH_N=20000 dune exec bench/main.exe -- B11
	TL_PROC_BENCH_N=20000 dune exec bench/main.exe -- B12
	TL_FAULT_BENCH_N=20000 dune exec bench/main.exe -- B13
	mv BENCH_engine.json bench-smoke-engine.json
	cp bench-baseline.json BENCH_engine.json
	dune exec bench/regress.exe -- --tolerance 5.0 bench-baseline.json bench-smoke-engine.json
	cp BENCH_serve.json serve-baseline.json
	TL_SERVE_BENCH_N=2000 TL_SERVE_BENCH_R=20 dune exec bench/main.exe -- B9
	mv BENCH_serve.json bench-smoke-serve.json
	cp serve-baseline.json BENCH_serve.json
	dune exec bench/regress.exe -- --tolerance 5.0 serve-baseline.json bench-smoke-serve.json

# Every standalone example README lists; each asserts its own output is
# valid and exits non-zero otherwise (about 1 s together). The daemon,
# proc, chaos and metrics examples keep their own targets below.
EXAMPLES = quickstart sharded_mis planar_edge_coloring tree_matching \
  decomposition_tour custom_problem

examples-smoke:
	dune build $(EXAMPLES:%=examples/%.exe)
	for e in $(EXAMPLES); do \
	  dune exec --no-build examples/$$e.exe || exit 1; \
	done

# End-to-end smoke of the serving layer: the example client spawns the
# real daemon over pipes (cold request, warm cache-hit repeat, stats,
# shutdown); the grep asserts the clean exit and the digest check
# asserts cold and warm served bit-identical results.
serve-smoke:
	dune build bin/tree_local_serve.exe examples/serve_client.exe
	dune exec examples/serve_client.exe | tee serve_smoke.out
	grep -q "daemon exited cleanly" serve_smoke.out
	test "$$(grep -oE 'digest=[0-9a-f]+' serve_smoke.out | head -2 | sort -u | wc -l)" -eq 1
	grep -q "cache_hit=true" serve_smoke.out
	grep -q "pool-spawns first=[0-9]* second=[0-9]* stable=true" serve_smoke.out
	rm -f serve_smoke.out

# Live-metrics smoke: the example client spawns the real daemon over
# pipes, fires a burst of solves, then scrapes the registry through the
# `metrics` control. The PASS lines it prints assert the core
# invariants: serve_request_seconds histogram count == serve_served_total
# (one observation per served request, no more, no less), the prom
# rendering is well-formed line-by-line, and the flight recorder's tail
# covers the burst.
metrics-smoke:
	dune build bin/tree_local_serve.exe examples/metrics_smoke.exe
	dune exec examples/metrics_smoke.exe | tee metrics_smoke.out
	grep -q "PASS histogram count == served counter" metrics_smoke.out
	grep -q "PASS prometheus exposition well-formed" metrics_smoke.out
	test "$$(grep -c FAIL metrics_smoke.out)" -eq 0
	rm -f metrics_smoke.out

# Chaos smoke: seeded crash-stop / crash-recover / link-drop / worker
# kill schedules driven through Tl_fault.Chaos on flood and MIS. Every
# scenario asserts final validity on the surviving graph and replay
# determinism (identical event log, repair counts and digest); the
# cross-mode scenarios also assert digest equality across backends.
# Runs in its own process: the proc-kill scenario forks, so it must
# precede any domain spawn (OCaml 5 forbids fork after one).
chaos-smoke:
	dune build examples/chaos_smoke.exe
	dune exec --no-build examples/chaos_smoke.exe

# Process-backend smoke: proc:{1,2,4} digest-identical to seq (flood
# and the full Theorem 12 MIS pipeline), worker crash containment
# (Failure surfaces verbatim, no zombies), and the fork-after-domain
# guard. Runs in its own process because OCaml 5 forbids fork once a
# domain has spawned.
proc-smoke:
	dune build examples/proc_smoke.exe
	dune exec --no-build examples/proc_smoke.exe

clean:
	dune clean
