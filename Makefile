.PHONY: all build test fmt-check metrics-smoke lint static-check bench-smoke ci bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# Formatting gate.  Skipped (with a notice) when ocamlformat is not
# installed, so ci still works in minimal containers.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

# Smoke-test the observability surface: run a small validation scenario
# with --metrics/--trace and a small fig12 run with --metrics, and check
# the outputs are well-formed and that neither snapshot carries a null
# gauge (a gauge that was never set is left out).  The validate
# subcommand itself exits non-zero on any invariant violation.
metrics-smoke:
	dune exec bin/mifo_sim.exe -- validate --ases 80 --flows 8 \
		--metrics _build/metrics-smoke.json --trace _build/trace-smoke.jsonl
	dune exec bin/mifo_sim.exe -- fig12 --megabytes 1 --flows-per-source 2 \
		--metrics _build/metrics-smoke-fig12.json >/dev/null
	@if command -v python3 >/dev/null 2>&1; then \
		python3 -m json.tool _build/metrics-smoke.json >/dev/null && \
		python3 -c 'import json,sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]' \
			_build/trace-smoke.jsonl && \
		python3 -c 'import json,sys; \
nulls={p: [k for k, v in json.load(open(p))["gauges"].items() if v is None] for p in sys.argv[1:]}; \
assert not any(nulls.values()), "null gauges: %s" % nulls' \
			_build/metrics-smoke.json _build/metrics-smoke-fig12.json && \
		echo "metrics-smoke: JSON outputs parse, no null gauges"; \
	else \
		echo "metrics-smoke: python3 not installed, skipping JSON parse check"; \
	fi

# Determinism / domain-safety lint over the sources (bench/ is exempt);
# it also fails if a lib/ or bin/ dune file links the test-only
# oracle library (mifo_oracle).
lint:
	dune exec bin/mifo_lint.exe

# Static data-plane verifier gate: the default configuration must verify
# clean — under the full property suite (loops, delivery, stretch,
# resilience), both unbounded and with the k=2 bounded automaton — and
# the Tag-Check ablations must fail WITH a concrete loop counterexample
# (exit 1 + a forwarding-loop violation in the JSON).  The k2 gadget leg
# pins the ranked-set semantics: its ablated automaton is loop-free when
# only the first alternative is admissible (-k 1) and must loop the
# moment the second ranked slot opens (-k 2).  The black-hole gadget leg
# must fail the delivery check (and only it) under a failed link, with a
# counterexample the checker replays stranded through the dynamic
# walker; the stretch gadget leg must fail the stretch check (and only
# it) at --stretch-bound 1.  Both gadgets verify clean when healthy.
# The 44K leg runs the packet-network builder and the FIB audit at the
# paper's 44,340 ASes (about 4 s on a 2-vCPU box) and must verify clean.
static-check:
	dune exec bin/mifo_sim.exe -- check --ases 150 --seed 42 \
		--props loops,delivery,stretch,resilience >/dev/null
	dune exec bin/mifo_sim.exe -- check --ases 44340 --dests 2 --fail-links 8 \
		--hosts 24 --props loops,delivery,stretch,resilience >/dev/null
	dune exec bin/mifo_sim.exe -- check --ases 150 --seed 42 -k 2 \
		--props loops,delivery,stretch,resilience >/dev/null
	dune exec bin/mifo_sim.exe -- check --k2-gadget --no-tag-check -k 1 >/dev/null
	dune exec bin/mifo_sim.exe -- check --bh-gadget \
		--props loops,delivery,stretch,resilience >/dev/null
	dune exec bin/mifo_sim.exe -- check --stretch-gadget \
		--props loops,delivery,stretch,resilience >/dev/null
	@out=$$(dune exec bin/mifo_sim.exe -- check --bh-gadget --props delivery \
		--fail-link 2:0 2>&1); \
	if [ $$? -eq 0 ]; then \
		echo "static-check: black-hole gadget unexpectedly verified clean"; exit 1; \
	fi; \
	case "$$out" in \
	*black-hole*) ;; \
	*) echo "static-check: black-hole gadget failed without a black-hole violation"; exit 1;; \
	esac; \
	case "$$out" in \
	*"replayed "*) echo "static-check: black-hole gadget fails and replays stranded";; \
	*) echo "static-check: black-hole counterexample did not replay"; exit 1;; \
	esac
	@out=$$(dune exec bin/mifo_sim.exe -- check --stretch-gadget --props stretch \
		--stretch-bound 1 2>&1); \
	if [ $$? -eq 0 ]; then \
		echo "static-check: stretch gadget unexpectedly verified clean at bound 1"; exit 1; \
	fi; \
	case "$$out" in \
	*stretch*) ;; \
	*) echo "static-check: stretch gadget failed without a stretch violation"; exit 1;; \
	esac; \
	case "$$out" in \
	*"replayed "*) echo "static-check: stretch gadget fails and replays delivered";; \
	*) echo "static-check: stretch counterexample did not replay"; exit 1;; \
	esac
	@out=$$(dune exec bin/mifo_sim.exe -- check --gadget --no-tag-check 2>/dev/null); \
	if [ $$? -eq 0 ]; then \
		echo "static-check: ablated gadget unexpectedly verified clean"; exit 1; \
	fi; \
	case "$$out" in \
	*forwarding-loop*) echo "static-check: ablation fails with a machine-checked loop";; \
	*) echo "static-check: ablation failed without a loop counterexample"; exit 1;; \
	esac
	@out=$$(dune exec bin/mifo_sim.exe -- check --k2-gadget --no-tag-check -k 2 2>/dev/null); \
	if [ $$? -eq 0 ]; then \
		echo "static-check: ablated k2 gadget unexpectedly verified clean at k=2"; exit 1; \
	fi; \
	case "$$out" in \
	*forwarding-loop*) echo "static-check: k=2 ablation fails with a machine-checked loop";; \
	*) echo "static-check: k=2 ablation failed without a loop counterexample"; exit 1;; \
	esac

# Smoke-test the sim benchmark suite at tiny sizes: every flowsim row
# compares Flowsim.run with the reference simulator in the oracle
# library under BGP, 50% MIRO and MIFO, and every packetsim row compares
# per-packet scheduling with packet trains; all rows must be
# bit-identical (the bench exits 1 on any divergence, and the JSON is
# re-checked here), and BENCH_sim.json must be well-formed JSON.  A second leg runs the routing track on a
# downsized 44K-shaped topology and asserts the CSR/boxed RIBs and the
# incremental/full verifier verdicts agree, that jobs/peak-memory are
# recorded, and that no speedup is quoted on a 1-core box.  A malformed
# scale variable must stop the bench with exit 2 and name the variable.
# Perf numbers at these sizes are meaningless; the full run is
# `make bench`.
bench-smoke:
	MIFO_SIM_ASES=60 MIFO_SIM_FLOWS=60 MIFO_SIM_TIME=5 \
	MIFO_PKT_ASES=4 MIFO_PKT_FLOWS=4 MIFO_PKT_KB=50 \
	MIFO_PKT2_ASES=8 MIFO_PKT2_FLOWS=6 MIFO_PKT2_KB=50 \
	MIFO_BENCH_SIM_OUT=_build/BENCH_sim-smoke.json \
		dune exec bench/main.exe -- sim
	@if command -v python3 >/dev/null 2>&1; then \
		python3 -m json.tool _build/BENCH_sim-smoke.json >/dev/null && \
		echo "bench-smoke: BENCH_sim-smoke.json parses"; \
		python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); \
rows=(d.get("packetsim") or [])+d["flowsim"]; \
assert rows, "no bench rows"; \
bad=[r["label"] for r in rows if not r["bit_identical"]]; \
assert not bad, "rows diverged from their oracle: %s" % bad; \
assert all(r["oracle"]["solves"] == r["oracle"]["epochs"] >= r["production"]["solves"] \
	for r in d["flowsim"]), "oracle must solve every epoch, production no more often"; \
assert all("per_packet" in r and "trains" in r for r in d.get("packetsim") or []), \
	"packetsim rows must compare per-packet with trains"; \
fs={}; [fs.setdefault(r["label"], set()).add(r["protocol"]) for r in d["flowsim"]]; \
assert fs and all(p == {"bgp", "miro50", "mifo"} for p in fs.values()), \
	"flowsim rows must cover bgp, miro50 and mifo at every size: %s" % fs' \
			_build/BENCH_sim-smoke.json && \
		echo "bench-smoke: flowsim rows match the oracle, packet trains match per-packet"; \
	else \
		echo "bench-smoke: python3 not installed, skipping JSON parse check"; \
	fi
	@out=$$(MIFO_SIM_FLOWS=lots dune exec bench/main.exe -- sim 2>&1); \
	if [ $$? -ne 2 ]; then \
		echo "bench-smoke: a malformed MIFO_SIM_FLOWS did not exit 2"; exit 1; \
	fi; \
	case "$$out" in \
	*'MIFO_SIM_FLOWS: expected an integer, got "lots"'*) \
		echo "bench-smoke: malformed scale variables are rejected by name";; \
	*) echo "bench-smoke: malformed MIFO_SIM_FLOWS not named in the error"; exit 1;; \
	esac
	MIFO_ASES=300 MIFO_44K_ASES=2000 MIFO_44K_DESTS=8 MIFO_44K_DELTAS=6 \
	MIFO_44K_CHECK_DESTS=4 MIFO_44K_FAILS=16 \
	MIFO_BENCH_ROUTING_OUT=_build/BENCH_routing-smoke.json \
	MIFO_BENCH_SIM_OUT=_build/BENCH_sim-smoke.json \
		dune exec bench/main.exe -- routing
	@if command -v python3 >/dev/null 2>&1; then \
		python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); \
sc=d["scale44k"]; chk=sc["check"]; \
assert sc["rep_identical"], "CSR and boxed RIBs diverged"; \
assert chk["verdicts_identical"], "incremental and full verdicts diverged"; \
assert sc["dests_per_sec"] > 0 and sc["peak_words"] > 0, "missing measurements"; \
assert "jobs" in sc and "jobs" in d["precompute"]["parallel"], "jobs not recorded"; \
assert d["machine"]["cores"] > 1 or "speedup" not in d["precompute"], \
	"speedup quoted on a 1-core box"; \
ck=d["check44k"]; \
assert ck["parallel_identical"], "parallel and serial property reports diverged"; \
assert ck["clean"], "property suite found violations on the healthy topology"; \
assert all(ck[p]["states_per_sec"] > 0 for p in ("loops","delivery","stretch","resilience")), \
	"missing per-property throughput"; \
assert ck["resilience_speedup"] > 0 and ck["peak_words"] > 0, \
	"missing resilience sweep / peak memory measurements"' \
			_build/BENCH_routing-smoke.json && \
		echo "bench-smoke: scale44k + check44k identities and measurements hold"; \
	else \
		echo "bench-smoke: python3 not installed, skipping JSON parse check"; \
	fi

# Tier-1 gate: everything compiles, the whole suite passes, formatting is
# clean (when ocamlformat is available), the metrics surface works, the
# sources pass the determinism lint, the static verifier gate holds and
# the sim bench suite runs end-to-end at smoke sizes.
ci: build test fmt-check metrics-smoke lint static-check bench-smoke

bench:
	dune exec bench/main.exe

clean:
	dune clean
