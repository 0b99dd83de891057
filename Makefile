# Convenience entry points; everything is plain dune underneath.

.PHONY: build test bench bench-full bench-gate bench-smoke bench-smoke-run bench-smoke-baseline examples-smoke serve-smoke metrics-smoke proc-smoke chaos-smoke clean

build:
	dune build

test:
	dune runtest

# Full experiment regeneration (slow: every table E1-E14, A, B, B7-B13).
bench:
	dune exec bench/main.exe

EXPERIMENTS = E1-E3 E4-E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 A B B7 B9 B10 B11 B12 B13

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

# The bench executable as seen from a gitignored run directory below the
# repo root.
BENCH_EXE = ../_build/default/bench/main.exe

# The committed-size bench runs: B7 and B9-B13 at the sizes whose rows
# BENCH_engine.json and BENCH_serve.json hold, one process each (B12
# forks, which OCaml 5 forbids once a domain exists), in the gitignored
# bench-gate-out/, each file gated by regress.exe at its default
# tolerance (+20%, or +5 ms under its absolute floor). Takes a few
# minutes. Perf changes run it and quote its tables.
GATE_EXPERIMENTS = B7 B9 B10 B11 B12 B13

bench-gate:
	dune build bench/main.exe bench/regress.exe bin/tree_local_serve.exe
	rm -rf bench-gate-out
	mkdir bench-gate-out
	cd bench-gate-out && for e in $(GATE_EXPERIMENTS); do \
	  $(BENCH_EXE) $$e || exit 1; \
	done
	@status=0; \
	dune exec --no-build bench/regress.exe -- BENCH_engine.json bench-gate-out/BENCH_engine.json || status=1; \
	dune exec --no-build bench/regress.exe -- BENCH_serve.json bench-gate-out/BENCH_serve.json || status=1; \
	exit $$status

# The smoke-size bench runs: B7 and B9 at n = 2,000, B10-B13 at
# n = 20,000, one process each. They run in the gitignored
# bench-smoke-out/, so their BENCH_engine.json / BENCH_serve.json hold
# smoke rows only and the committed full-size files stay untouched.
bench-smoke-run:
	dune build bench/main.exe bench/regress.exe bin/tree_local_serve.exe
	rm -rf bench-smoke-out
	mkdir bench-smoke-out
	cd bench-smoke-out && \
	  TL_POOL_BENCH_N=2000 $(BENCH_EXE) B7 && \
	  TL_METRICS_BENCH_N=20000 $(BENCH_EXE) B10 && \
	  TL_FLAT_BENCH_N=20000 $(BENCH_EXE) B11 && \
	  TL_PROC_BENCH_N=20000 $(BENCH_EXE) B12 && \
	  TL_FAULT_BENCH_N=20000 $(BENCH_EXE) B13 && \
	  TL_SERVE_BENCH_N=2000 TL_SERVE_BENCH_R=20 $(BENCH_EXE) B9

# Rewrite the committed smoke-size baselines the CI gate compares with.
bench-smoke-baseline: bench-smoke-run
	mkdir -p bench/smoke
	cp bench-smoke-out/BENCH_engine.json bench/smoke/BENCH_engine.json
	cp bench-smoke-out/BENCH_serve.json bench/smoke/BENCH_serve.json

# Fast sanity pass used by CI: one analytic experiment plus the
# smoke-size runs, each gated by regress.exe against the committed
# smoke baselines (bench/smoke/, same sizes: regress aligns rows by
# kernel, n and mode, and fails a size mismatch). The tolerance is
# loose — only catastrophic slowdowns fail.
bench-smoke: bench-smoke-run
	dune exec bench/main.exe -- E11
	dune exec bench/regress.exe -- --tolerance 5.0 bench/smoke/BENCH_engine.json bench-smoke-out/BENCH_engine.json
	dune exec bench/regress.exe -- --tolerance 5.0 bench/smoke/BENCH_serve.json bench-smoke-out/BENCH_serve.json

# Every standalone example README lists; each asserts its own output is
# valid and exits non-zero otherwise (about 1 s together). The daemon,
# proc, chaos and metrics examples keep their own targets below.
EXAMPLES = quickstart planar_edge_coloring tree_matching decomposition_tour \
  custom_problem

examples-smoke:
	dune build $(EXAMPLES:%=examples/%.exe)
	for e in $(EXAMPLES); do \
	  dune exec --no-build examples/$$e.exe || exit 1; \
	done

# End-to-end smoke of the serving layer: the example client spawns the
# real daemon over pipes (cold request, warm cache-hit repeat, a proc:4
# flood and its seq twin on one instance, stats, shutdown); the greps
# assert the clean exit, that the seq flood reused the snapshot the proc
# flood compiled (one topo hit, one topo miss), and the digest checks
# that cold and warm, and proc and seq, served bit-identical results.
serve-smoke:
	dune build bin/tree_local_serve.exe examples/serve_client.exe
	dune exec examples/serve_client.exe | tee serve_smoke.out
	grep -q "daemon exited cleanly" serve_smoke.out
	test "$$(grep -oE 'digest=[0-9a-f]+' serve_smoke.out | head -2 | sort -u | wc -l)" -eq 1
	grep -q "cache_hit=true" serve_smoke.out
	grep -q "topo:cache_hit=1 topo:cache_miss=1" serve_smoke.out
	test "$$(grep -E '^  (proc|seq) ' serve_smoke.out | grep -oE 'digest=[0-9a-f]+' | sort | uniq -c | awk '{print $$1}')" = 2
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
# Runs in its own process: the worker-kill and link-drop scenarios run
# on proc, which forks, so they precede any domain spawn (OCaml 5
# forbids fork after one).
chaos-smoke:
	dune build examples/chaos_smoke.exe
	dune exec --no-build examples/chaos_smoke.exe

# Process-backend smoke: the flood and MIS flat kernels on proc:{1,2,4}
# through Coordinator.run_kernel, bit-identical to seq; worker crash
# containment through a raising kernel (Failure surfaces verbatim, no
# zombies); and the fork-after-domain guard. Runs in its own process
# because OCaml 5 forbids fork once a domain has spawned.
proc-smoke:
	dune build examples/proc_smoke.exe
	dune exec --no-build examples/proc_smoke.exe

clean:
	dune clean
