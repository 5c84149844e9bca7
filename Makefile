GO ?= go

.PHONY: all build vet staticcheck test test-short race bench bench-json cover fuzz repro slo-demo chaos-demo crash-demo cluster-demo prof-demo alert-demo curves-demo clean

all: build vet race test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# Deep lint; CI installs and runs this unconditionally, locally it is
# skipped when the binary is absent (no network installs here).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Data-race detection over the quick test set; the switchd controller
# and the concurrent simulation paths are the prime suspects.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable serving-path throughput record (including route
# latency p50/p99 from the server's own histogram), tracked across PRs.
# -cpu 1,4 writes one row per GOMAXPROCS so the multi-core scaling
# curve is recorded alongside the single-core baseline.
bench-json:
	BENCH_JSON=$(CURDIR)/BENCH_switchd.json $(GO) test -run '^$$' -bench BenchmarkSwitchdThroughput -benchmem -cpu 1,4 ./internal/switchd

# Per-package statement coverage for the serving and observability
# packages.
cover:
	$(GO) test -cover ./internal/switchd ./internal/obs

# FuzzRecover runs Open on every input, and Open fsyncs: bound each
# minimization by executions, or a new input stalls the run for the
# default 60 s.
fuzz:
	$(GO) test -fuzz=FuzzParseConnection -fuzztime=10s ./internal/wdm/
	$(GO) test -fuzz=FuzzRoutePermutation -fuzztime=10s ./internal/benes/
	$(GO) test -fuzz=FuzzRecover -fuzztime=10s -fuzzminimizetime=100x ./internal/durable/
	$(GO) test -fuzz=FuzzReinstall -fuzztime=10s ./internal/multistage/

# SLO/trace drill (EXPERIMENTS.md § "Trace walkthrough", scripted):
# start a deliberately sub-bound server, drive one routed and one traced
# connect, and follow the second through every surface. The drill fails
# unless that connect answers blocked; its trace id appears in the span
# ring, the server's request log, the /metrics exemplar and the
# blocking forensics; /v1/slo's 5m
# window reads 2 ops, 1 bad with the fast alert firing on availability;
# the shipped availability_burn rule reaches firing within 5s; and
# wdmtop renders SLO BURNING. Every response lands in SLO_DIR. The
# server is torn down on exit.
SLO_DEMO_TID := 4bf92f3577b34da6a3ce929d0e0e4736
SLO_DIR ?= /tmp/wdm-slo-demo
slo-demo:
	@$(GO) build -o /tmp/wdm-slo-demo-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-slo-demo-top ./cmd/wdmtop
	@rm -rf $(SLO_DIR); mkdir -p $(SLO_DIR); \
	/tmp/wdm-slo-demo-serve -addr 127.0.0.1:8047 -m 1 -x 1 -replicas 1 -span-sample 1 -history 250ms \
	    2>$(SLO_DIR)/server.log & ps=$$!; \
	trap 'kill $$ps 2>/dev/null' EXIT; sleep 0.5; \
	fail() { echo "SLO DEMO FAILED: $$1"; exit 1; }; \
	curl -sf -XPOST 127.0.0.1:8047/v1/connect -d '{"connection":"0.0>4.0"}' > $(SLO_DIR)/connect-1.json \
	    || fail 'first connect did not route'; \
	curl -s -XPOST 127.0.0.1:8047/v1/connect -d '{"connection":"1.0>8.0"}' \
	     -H 'traceparent: 00-$(SLO_DEMO_TID)-00f067aa0ba902b7-01' > $(SLO_DIR)/connect-2.json; \
	echo '--- second connect'; cat $(SLO_DIR)/connect-2.json; \
	tr -d ' \n' < $(SLO_DIR)/connect-2.json | grep -q '"code":"blocked"' \
	    || fail 'second connect did not answer blocked'; \
	echo '--- /v1/debug/spans?trace=$(SLO_DEMO_TID)'; \
	curl -sf '127.0.0.1:8047/v1/debug/spans?trace=$(SLO_DEMO_TID)' > $(SLO_DIR)/spans.json \
	    || fail 'GET /v1/debug/spans'; \
	tr -d ' \n' < $(SLO_DIR)/spans.json | grep -q '"trace_id":"$(SLO_DEMO_TID)"' \
	    || fail 'trace id not in the span ring'; \
	grep -o '"name": "[^"]*"' $(SLO_DIR)/spans.json | tr '\n' ' '; echo; \
	echo '--- server.log request line'; \
	grep 'msg=request' $(SLO_DIR)/server.log | grep 'trace_id=$(SLO_DEMO_TID)' \
	    || fail 'trace id not on a request line of server.log'; \
	echo '--- /metrics exemplar'; \
	curl -sf '127.0.0.1:8047/metrics?exemplars=1' > $(SLO_DIR)/metrics.txt || fail 'GET /metrics'; \
	grep 'trace_id="$(SLO_DEMO_TID)"' $(SLO_DIR)/metrics.txt || fail 'trace id not in a /metrics exemplar'; \
	echo '--- /v1/debug/blocking trace join'; \
	curl -sf 127.0.0.1:8047/v1/debug/blocking > $(SLO_DIR)/blocking.json || fail 'GET /v1/debug/blocking'; \
	grep '"trace_id": "$(SLO_DEMO_TID)"' $(SLO_DIR)/blocking.json || fail 'trace id not in the blocking forensics'; \
	echo '--- /v1/slo'; \
	curl -sf 127.0.0.1:8047/v1/slo > $(SLO_DIR)/slo.json || fail 'GET /v1/slo'; \
	slo=$$(tr -d ' \n' < $(SLO_DIR)/slo.json); \
	echo "$$slo" | grep -o '"window":"5m"[^}]*}'; \
	echo "$$slo" | grep -o '"name":"fast"[^}]*}'; \
	echo "$$slo" | grep -q '"window":"5m","total":2,"bad":1,' || fail '/v1/slo 5m window is not 2 ops, 1 bad'; \
	echo "$$slo" | grep -q '"name":"fast","short_window":"5m","long_window":"1h","threshold":14.4,"availability_firing":true' \
	    || fail '/v1/slo fast alert not firing on availability'; \
	echo '--- /v1/alerts availability_burn'; \
	i=0; while :; do \
	    curl -sf 127.0.0.1:8047/v1/alerts > $(SLO_DIR)/alerts.json || fail 'GET /v1/alerts'; \
	    st=$$(tr -d ' \n' < $(SLO_DIR)/alerts.json | grep -o '"name":"availability_burn".*' | grep -o '"state":"[a-z]*","[^,]*,"value":[0-9.e+]*' | head -1); \
	    case "$$st" in '"state":"firing"'*) echo "$$st"; break;; esac; \
	    i=$$((i+1)); [ $$i -lt 20 ] || fail "availability_burn not firing within 5s ($$st)"; sleep 0.25; \
	done; \
	echo '--- wdmtop'; \
	/tmp/wdm-slo-demo-top -target http://127.0.0.1:8047 -once > $(SLO_DIR)/wdmtop.txt || fail 'wdmtop -once'; \
	cat $(SLO_DIR)/wdmtop.txt; \
	grep -q 'SLO BURNING' $(SLO_DIR)/wdmtop.txt || fail 'wdmtop does not render SLO BURNING'; \
	echo "slo demo OK: blocked trace joined on spans, request log, exemplar and forensics, SLO burning, availability_burn firing; responses in $(SLO_DIR)"

# Chaos drill (EXPERIMENTS.md § "Chaos walkthrough", scripted): a
# server at m = bound + 2 spares (bound is 13 for the default fabric)
# takes a steady wdmload run paced to outlast the failure schedule
# (2000 arrivals at 4 Erlangs, one mean holding time = 20ms: about
# 5s) while two plane-0 middle modules fail one second apart and are
# repaired. The drill fails unless every admin call succeeds, the
# health rollup reads degraded with both middles failed, wdmload exits
# 0, /metrics reads wdm_blocked_total 0 and wdm_dropped_sessions_total
# 0, and the health rollup is back to ok after the repairs.
chaos-demo:
	@$(GO) build -o /tmp/wdm-chaos-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-chaos-load ./cmd/wdmload
	@/tmp/wdm-chaos-serve -addr 127.0.0.1:8048 -m 15 -replicas 2 2>/dev/null & ps=$$!; \
	trap 'kill $$ps $$pl 2>/dev/null' EXIT; sleep 0.5; \
	/tmp/wdm-chaos-load -mode steady -target http://127.0.0.1:8048 \
	    -arrivals 2000 -erlangs 4 -timescale 20ms & pl=$$!; \
	for step in fail:0 fail:1 repair:0 repair:1; do \
	    sleep 1; echo "--- $${step%:*} f0:m$${step#*:}"; \
	    r=$$(curl -sf -XPOST 127.0.0.1:8048/v1/admin/$${step%:*} -d "{\"fabric\":0,\"middle\":$${step#*:}}") \
	        || { echo "CHAOS DEMO FAILED: POST /v1/admin/$${step%:*} rejected"; exit 1; }; \
	    echo "$$r" | tr -d ' \n' | sed 's/,"health".*/}/'; echo; \
	    if [ $$step = fail:1 ]; then \
	        curl -s 127.0.0.1:8048/v1/health | tr -d ' \n' | grep -q '^{"status":"degraded"' \
	            || { echo 'CHAOS DEMO FAILED: health not degraded with two middles failed'; exit 1; }; \
	    fi; \
	done; \
	wait $$pl || { echo 'CHAOS DEMO FAILED: wdmload exited non-zero'; exit 1; }; \
	pm=$$(curl -s 127.0.0.1:8048/metrics | grep -E '^wdm_(blocked|dropped_sessions|migrated_sessions)_total '); \
	echo "$$pm"; \
	echo "$$pm" | grep -qx 'wdm_blocked_total 0' \
	    || { echo 'CHAOS DEMO FAILED: blocking at m = bound + 2'; exit 1; }; \
	echo "$$pm" | grep -qx 'wdm_dropped_sessions_total 0' \
	    || { echo 'CHAOS DEMO FAILED: sessions dropped with spares left'; exit 1; }; \
	h=$$(curl -s 127.0.0.1:8048/v1/health | tr -d ' \n'); echo "--- /v1/health after the drill: $$h"; \
	echo "$$h" | grep -q '^{"status":"ok"' \
	    || { echo 'CHAOS DEMO FAILED: health not ok after repair'; exit 1; }; \
	echo 'chaos demo OK: 0 blocked, 0 dropped, health ok'

# Crash drill (EXPERIMENTS.md § "Crash walkthrough", scripted): a
# durable server takes acknowledged traffic, dies on SIGKILL with no
# drain, wdmwal proves the log clean, and a restart on the same data
# directory recovers every session under its original id. The drill
# fails unless every request succeeds, `wdmwal verify` exits 0 after the
# kill, session 1 comes back with its branch 12.0, and /v1/health reports
# both sessions recovered. SIGKILL keeps the page cache, so the drill
# catches an acknowledgement sent before the frame left the process's
# buffer, but not a skipped fsync.
crash-demo:
	@$(GO) build -o /tmp/wdm-crash-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-crash-wal ./cmd/wdmwal
	@fail() { echo "CRASH DEMO FAILED: $$1"; exit 1; }; \
	rm -rf /tmp/wdm-crash-data; \
	/tmp/wdm-crash-serve -addr 127.0.0.1:8049 -replicas 2 -data-dir /tmp/wdm-crash-data & \
	pid=$$!; trap 'kill -9 $$pid 2>/dev/null' EXIT; sleep 0.5; \
	curl -sf -XPOST 127.0.0.1:8049/v1/connect -d '{"connection":"0.0>4.0,9.0"}' || fail 'connect 0.0>4.0,9.0'; echo; \
	curl -sf -XPOST 127.0.0.1:8049/v1/connect -d '{"connection":"1.0>6.0"}' || fail 'connect 1.0>6.0'; echo; \
	curl -sf -XPOST 127.0.0.1:8049/v1/branch -d '{"session":1,"dests":["12.0"]}' || fail 'branch session 1'; echo; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	echo '--- wdmwal verify after SIGKILL'; \
	/tmp/wdm-crash-wal verify /tmp/wdm-crash-data || fail 'wdmwal verify after SIGKILL'; \
	/tmp/wdm-crash-serve -addr 127.0.0.1:8049 -replicas 2 -data-dir /tmp/wdm-crash-data & \
	pid=$$!; sleep 0.5; \
	echo '--- recovered session 1 after restart'; \
	s1=$$(curl -s '127.0.0.1:8049/v1/session?id=1'); echo "$$s1"; \
	echo "$$s1" | tr -d ' \n' | grep -q '"session":1,.*"connection":"0.0\\u003e4.0,9.0,12.0"' \
	    || fail 'session 1 not recovered with its branch 12.0'; \
	echo '--- /v1/health durability row'; \
	h=$$(curl -s 127.0.0.1:8049/v1/health); echo "$$h"; \
	echo "$$h" | tr -d ' \n' | grep -q '"recovered_sessions":2,' \
	    || fail '/v1/health does not report 2 recovered sessions'; \
	echo '--- wdmwal replay'; \
	/tmp/wdm-crash-wal replay /tmp/wdm-crash-data || fail 'wdmwal replay'; \
	echo 'crash demo OK: log clean after SIGKILL, both sessions recovered, session 1 with branch 12.0'

# Failover drill (EXPERIMENTS.md § "Failover walkthrough", scripted):
# a 3-shard cluster — one primary per shard, plus a warm standby
# log-shipping shard 1 — takes churn on every shard and two held
# sessions on shard 1, then shard 1's primary dies on SIGKILL with no
# drain. The standby is promoted over HTTP, serves the held sessions,
# and the two shard-1 data directories must agree on `wdmwal inspect
# -json`'s state_digest: identical replicated session state, zero
# acknowledged loss. The standby's directory, which holds the primary's
# record bytes as written, must also pass `wdmwal verify`.
cluster-demo:
	@$(GO) build -o /tmp/wdm-cluster-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-cluster-wal ./cmd/wdmwal
	@$(GO) build -o /tmp/wdm-cluster-load ./cmd/wdmload
	@pkill -9 -f '^/tmp/wdm-cluster-serve' 2>/dev/null; rm -rf /tmp/wdm-cluster-data; mkdir -p /tmp/wdm-cluster-data; \
	/tmp/wdm-cluster-serve -cluster -shard 0 -addr 127.0.0.1:9061 -repl-addr 127.0.0.1:9071 \
	    -replicas 2 -snapshot-interval=-1s -data-dir /tmp/wdm-cluster-data/s0 & p0=$$!; \
	/tmp/wdm-cluster-serve -cluster -shard 1 -addr 127.0.0.1:9062 -repl-addr 127.0.0.1:9072 \
	    -replicas 2 -snapshot-interval=-1s -data-dir /tmp/wdm-cluster-data/s1 & p1=$$!; \
	/tmp/wdm-cluster-serve -cluster -shard 2 -addr 127.0.0.1:9063 -repl-addr 127.0.0.1:9073 \
	    -replicas 2 -snapshot-interval=-1s -data-dir /tmp/wdm-cluster-data/s2 & p2=$$!; \
	/tmp/wdm-cluster-serve -cluster -shard 1 -standby-of 127.0.0.1:9072 -addr 127.0.0.1:9065 \
	    -replicas 2 -snapshot-interval=-1s -data-dir /tmp/wdm-cluster-data/s1-standby & sb=$$!; \
	trap 'kill -9 $$p0 $$p2 $$sb 2>/dev/null' EXIT; sleep 1; \
	/tmp/wdm-cluster-load -mode steady -target http://127.0.0.1:9061 -arrivals 3000 & a0=$$!; \
	/tmp/wdm-cluster-load -mode steady -target http://127.0.0.1:9063 -arrivals 3000 & a2=$$!; \
	/tmp/wdm-cluster-load -mode steady -target http://127.0.0.1:9062 -arrivals 3000; \
	wait $$a0 $$a2; \
	sid=$$(curl -s -XPOST 127.0.0.1:9062/v1/connect -d '{"connection":"0.0>4.0,9.0"}' \
	    | tr -d ' \n' | sed 's/.*"session":\([0-9]*\).*/\1/'); \
	curl -s -XPOST 127.0.0.1:9062/v1/connect -d '{"connection":"1.0>6.0"}' >/dev/null; \
	sleep 0.5; \
	echo "--- SIGKILL shard 1 primary (held session $$sid acknowledged)"; \
	kill -9 $$p1; wait $$p1 2>/dev/null; \
	echo '--- POST /v1/admin/promote on the shard 1 standby'; \
	pr=$$(curl -s -XPOST 127.0.0.1:9065/v1/admin/promote); echo "$$pr"; \
	echo "$$pr" | grep -q '"promoted": *true' \
	    || { echo 'FAILOVER FAILED: promote did not succeed'; exit 1; }; \
	echo '--- held session on the promoted primary'; \
	held=$$(curl -s "127.0.0.1:9065/v1/session?id=$$sid"); echo "$$held"; \
	echo "$$held" | grep -q '4.0,9.0' \
	    || { echo "FAILOVER FAILED: acknowledged session $$sid lost"; exit 1; }; \
	echo '--- /v1/health replication row'; \
	curl -s 127.0.0.1:9065/v1/health; echo; \
	kill -9 $$sb; wait $$sb 2>/dev/null; \
	/tmp/wdm-cluster-wal verify /tmp/wdm-cluster-data/s1-standby \
	    || { echo 'FAILOVER FAILED: standby log does not verify clean'; exit 1; }; \
	dp=$$(/tmp/wdm-cluster-wal inspect -json /tmp/wdm-cluster-data/s1 | grep state_digest); \
	ds=$$(/tmp/wdm-cluster-wal inspect -json /tmp/wdm-cluster-data/s1-standby | grep state_digest); \
	echo "dead primary     $$dp"; \
	echo "promoted standby $$ds"; \
	test -n "$$dp" && test "$$dp" = "$$ds" \
	    || { echo 'FAILOVER FAILED: replicated state digests differ'; exit 1; }; \
	echo 'failover OK: standby log clean, state digests identical, zero acknowledged loss'

# Observability drill (EXPERIMENTS.md § "Performance observability",
# scripted): two cluster shards with aggressive mutex profiling, churn
# against both, then assert (a) the mutex profile at /v1/debug/prof is
# non-empty, (b) /v1/cluster/metrics serves a merged exposition with
# exactly one wdm_federation_peer_up line per shard, both up, and the
# phase histograms present, (c) wdmtop renders that fleet view, and (d)
# binary profile snapshots download. Profiles land in PROF_DIR so CI
# can upload them as a workflow artifact.
PROF_DIR ?= /tmp/wdm-prof-demo
prof-demo:
	@$(GO) build -o /tmp/wdm-prof-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-prof-load ./cmd/wdmload
	@$(GO) build -o /tmp/wdm-prof-top ./cmd/wdmtop
	@pkill -9 -f '^/tmp/wdm-prof-serve' 2>/dev/null; rm -rf $(PROF_DIR) /tmp/wdm-prof-data; mkdir -p $(PROF_DIR); \
	/tmp/wdm-prof-serve -cluster -shard 0 -addr 127.0.0.1:9081 -repl-addr 127.0.0.1:9091 \
	    -peers 'http://127.0.0.1:9081,http://127.0.0.1:9082' \
	    -replicas 2 -prof-mutex 1 -data-dir /tmp/wdm-prof-data/s0 & p0=$$!; \
	/tmp/wdm-prof-serve -cluster -shard 1 -addr 127.0.0.1:9082 -repl-addr 127.0.0.1:9092 \
	    -peers 'http://127.0.0.1:9081,http://127.0.0.1:9082' \
	    -replicas 2 -prof-mutex 1 -data-dir /tmp/wdm-prof-data/s1 & p1=$$!; \
	trap 'kill -9 $$p0 $$p1 2>/dev/null' EXIT; sleep 1; \
	/tmp/wdm-prof-load -mode steady -target http://127.0.0.1:9081 -arrivals 6000 -workers 2 & a0=$$!; \
	/tmp/wdm-prof-load -mode steady -target http://127.0.0.1:9082 -arrivals 6000 -workers 2; \
	wait $$a0; \
	echo '--- mutex profile (debug text head)'; \
	curl -s '127.0.0.1:9081/v1/debug/prof?type=mutex&debug=1' > $(PROF_DIR)/mutex.txt; \
	head -3 $(PROF_DIR)/mutex.txt; \
	grep -q 'cycles/second' $(PROF_DIR)/mutex.txt \
	    || { echo 'PROF DEMO FAILED: empty mutex profile'; exit 1; }; \
	curl -s '127.0.0.1:9081/v1/debug/prof?type=mutex' -o $(PROF_DIR)/mutex.pb.gz; \
	curl -s '127.0.0.1:9081/v1/debug/prof?type=heap' -o $(PROF_DIR)/heap.pb.gz; \
	test -s $(PROF_DIR)/mutex.pb.gz && test -s $(PROF_DIR)/heap.pb.gz \
	    || { echo 'PROF DEMO FAILED: empty binary profile snapshot'; exit 1; }; \
	echo '--- /v1/cluster/metrics federation'; \
	curl -s 127.0.0.1:9081/v1/cluster/metrics > $(PROF_DIR)/fleet-metrics.txt; \
	grep -q 'wdm_federation_peer_up{shard="0"} 1' $(PROF_DIR)/fleet-metrics.txt \
	    && grep -q 'wdm_federation_peer_up{shard="1"} 1' $(PROF_DIR)/fleet-metrics.txt \
	    || { echo 'PROF DEMO FAILED: federation did not merge both shards'; cat $(PROF_DIR)/fleet-metrics.txt; exit 1; }; \
	for s in 0 1; do \
	    n=$$(grep -c "^wdm_federation_peer_up{shard=\"$$s\"}" $(PROF_DIR)/fleet-metrics.txt); \
	    test "$$n" = 1 || { echo "PROF DEMO FAILED: $$n wdm_federation_peer_up lines for shard $$s, want 1"; exit 1; }; \
	done; \
	grep -q 'wdm_phase_seconds_bucket' $(PROF_DIR)/fleet-metrics.txt \
	    || { echo 'PROF DEMO FAILED: no phase histograms in the fleet view'; exit 1; }; \
	grep 'wdm_federation_peer_up' $(PROF_DIR)/fleet-metrics.txt; \
	/tmp/wdm-prof-top -target http://127.0.0.1:9081 -fleet -once > $(PROF_DIR)/fleet-top.txt \
	    || { echo 'PROF DEMO FAILED: wdmtop -fleet could not render the fleet view'; exit 1; }; \
	cat $(PROF_DIR)/fleet-top.txt; \
	echo "prof demo OK: profiles in $(PROF_DIR)"

# Alert drill (EXPERIMENTS.md § "Alerting walkthrough", scripted): two
# cluster shards with the embedded metrics history on a fast scrape,
# shard 0 configured exactly at the sufficient bound (m margin 0). The
# drill fails most of shard 0's middle stage over the admin plane,
# drives closed-loop traffic until it blocks, and asserts the shipped
# invariant rule (blocked_in_nonblocking_regime) reaches firing with
# /v1/alerts and the wdm_alert_firing gauge agreeing; repairing the
# middles must resolve it on its own, and a federated /v1/cluster/query
# range over both live shards must return the merged blocking curve
# covering the incident. The tsdb dump and query curves land in
# ALERT_DIR so CI can upload them as a workflow artifact.
ALERT_DIR ?= /tmp/wdm-alert-demo
ALERT_RULES := {"rules":[{"name":"blocked_in_nonblocking_regime","expr":"rate(wdm_blocked_total[10s])","op":">","value":0,"for":"500ms","guard":{"expr":"wdm_m_margin","op":">=","value":0},"summary":"P_block > 0 at or above the sufficient bound"}]}
alert-demo:
	@$(GO) build -o /tmp/wdm-alert-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-alert-load ./cmd/wdmload
	@pkill -9 -f '^/tmp/wdm-alert-serve' 2>/dev/null; rm -rf $(ALERT_DIR) /tmp/wdm-alert-data; mkdir -p $(ALERT_DIR); \
	printf '%s\n' '$(ALERT_RULES)' > $(ALERT_DIR)/rules.json; \
	/tmp/wdm-alert-serve -cluster -shard 0 -addr 127.0.0.1:9101 -repl-addr 127.0.0.1:9111 \
	    -peers 'http://127.0.0.1:9101,http://127.0.0.1:9102' \
	    -replicas 1 -history 250ms -alerts $(ALERT_DIR)/rules.json \
	    -data-dir /tmp/wdm-alert-data/s0 & p0=$$!; \
	/tmp/wdm-alert-serve -cluster -shard 1 -addr 127.0.0.1:9102 -repl-addr 127.0.0.1:9112 \
	    -peers 'http://127.0.0.1:9101,http://127.0.0.1:9102' \
	    -replicas 1 -history 250ms -alerts $(ALERT_DIR)/rules.json \
	    -data-dir /tmp/wdm-alert-data/s1 & p1=$$!; \
	trap 'kill -9 $$p0 $$p1 2>/dev/null' EXIT; sleep 1; \
	/tmp/wdm-alert-load -mode steady -target http://127.0.0.1:9102 -arrivals 2000; \
	m=$$(curl -s 127.0.0.1:9101/v1/status | tr -d ' \n' | sed 's/.*"m":\([0-9]*\).*/\1/'); \
	echo "--- failing $$((m-1)) of $$m shard-0 middles (configured m stays at the bound)"; \
	i=0; while [ $$i -lt $$((m-1)) ]; do \
	    curl -s -XPOST 127.0.0.1:9101/v1/admin/fail -d "{\"fabric\":0,\"middle\":$$i}" >/dev/null; \
	    i=$$((i+1)); done; \
	/tmp/wdm-alert-load -mode steady -target http://127.0.0.1:9101 -arrivals 4000; \
	echo '--- waiting for blocked_in_nonblocking_regime to fire'; \
	fired=0; i=0; while [ $$i -lt 40 ]; do \
	    if curl -s 127.0.0.1:9101/v1/alerts | tr -d ' \n' | grep -q '"state":"firing"'; then fired=1; break; fi; \
	    sleep 0.25; i=$$((i+1)); done; \
	curl -s 127.0.0.1:9101/v1/alerts > $(ALERT_DIR)/alerts-firing.json; \
	test $$fired -eq 1 \
	    || { echo 'ALERT DEMO FAILED: rule never fired'; cat $(ALERT_DIR)/alerts-firing.json; exit 1; }; \
	curl -s 127.0.0.1:9101/metrics | grep 'wdm_alert_firing' | tee $(ALERT_DIR)/alert-gauge.txt; \
	grep -q 'wdm_alert_firing{rule="blocked_in_nonblocking_regime"} 1' $(ALERT_DIR)/alert-gauge.txt \
	    || { echo 'ALERT DEMO FAILED: gauge disagrees with /v1/alerts'; exit 1; }; \
	echo '--- federated range query across both live shards'; \
	curl -s '127.0.0.1:9102/v1/cluster/query?query=rate(wdm_blocked_total%5B10s%5D)&start=-2m&step=1s' \
	    > $(ALERT_DIR)/fleet-query.json; \
	fq=$$(tr -d ' \n' < $(ALERT_DIR)/fleet-query.json); \
	echo "$$fq" | grep -q '"shards":2' && echo "$$fq" | grep -vq 'down_shards' \
	    || { echo 'ALERT DEMO FAILED: federated query did not merge 2 live shards'; exit 1; }; \
	echo "$$fq" | grep -q '"shard":"0"' && echo "$$fq" | grep -q '"shard":"fleet"' \
	    || { echo 'ALERT DEMO FAILED: merged result lacks per-shard/fleet series'; exit 1; }; \
	echo '--- repairing the middles; the alert must resolve on its own'; \
	i=0; while [ $$i -lt $$((m-1)) ]; do \
	    curl -s -XPOST 127.0.0.1:9101/v1/admin/repair -d "{\"fabric\":0,\"middle\":$$i}" >/dev/null; \
	    i=$$((i+1)); done; \
	resolved=0; i=0; while [ $$i -lt 60 ]; do \
	    if curl -s 127.0.0.1:9101/v1/alerts | tr -d ' \n' | grep -q '"state":"firing"'; then :; else resolved=1; break; fi; \
	    sleep 0.5; i=$$((i+1)); done; \
	curl -s 127.0.0.1:9101/v1/alerts > $(ALERT_DIR)/alerts-resolved.json; \
	test $$resolved -eq 1 \
	    || { echo 'ALERT DEMO FAILED: alert never resolved after repair'; cat $(ALERT_DIR)/alerts-resolved.json; exit 1; }; \
	curl -s 127.0.0.1:9101/metrics | grep -q 'wdm_alert_firing{rule="blocked_in_nonblocking_regime"} 0' \
	    || { echo 'ALERT DEMO FAILED: gauge still up after resolve'; exit 1; }; \
	curl -s 127.0.0.1:9101/v1/debug/tsdb > $(ALERT_DIR)/tsdb-dump.json; \
	curl -s '127.0.0.1:9101/v1/query?query=rate(wdm_blocked_total%5B10s%5D)&start=-2m&step=1s' \
	    > $(ALERT_DIR)/query-blocked.json; \
	test -s $(ALERT_DIR)/tsdb-dump.json \
	    || { echo 'ALERT DEMO FAILED: empty tsdb dump'; exit 1; }; \
	echo "alert demo OK: fired, federated, resolved; artifacts in $(ALERT_DIR)"

# Blocking-curve drill (EXPERIMENTS.md § "Traffic engine & blocking
# curves", scripted): a server provisioned at the Theorem 1 bound takes
# a strict Erlang sweep with session churn — any measured P_block > 0
# fails the run, and so does an artifact that does not name the target
# it drove or lacks a route_search phase mean (read from the target's
# own /metrics) on any point — then a starved server (m = 3, x = 1)
# takes the same load ladder to show the knee, which must contain real
# blocking.
# Artifacts land in CURVES_DIR for CI upload; wdmplot renders the
# measured curves as CSV.
CURVES_DIR ?= /tmp/wdm-curves-demo
curves-demo:
	@$(GO) build -o /tmp/wdm-curves-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-curves-load ./cmd/wdmload
	@$(GO) build -o /tmp/wdm-curves-plot ./cmd/wdmplot
	@pkill -9 -f '^/tmp/wdm-curves-serve' 2>/dev/null; rm -rf $(CURVES_DIR); mkdir -p $(CURVES_DIR); \
	/tmp/wdm-curves-serve -addr 127.0.0.1:8055 -replicas 1 >$(CURVES_DIR)/serve-bound.log 2>&1 & pb=$$!; \
	/tmp/wdm-curves-serve -addr 127.0.0.1:8056 -replicas 1 -m 3 -x 1 >$(CURVES_DIR)/serve-below.log 2>&1 & pk=$$!; \
	trap 'kill -9 $$pb $$pk 2>/dev/null' EXIT; sleep 0.5; \
	echo '--- strict sweep at the bound (m = 13): any P_block > 0 fails'; \
	/tmp/wdm-curves-load -mode sweep -target http://127.0.0.1:8055 -points 1,2,4,8 \
	    -arrivals 1200 -max-fanout 4 -churn 0.3 -strict -out $(CURVES_DIR)/BENCH_curves.json \
	    || { echo 'CURVES DEMO FAILED: strict sweep at the bound'; exit 1; }; \
	bc=$$(tr -d ' \n' < $(CURVES_DIR)/BENCH_curves.json); \
	echo "$$bc" | grep -q '"target":"http://127.0.0.1:8055"' \
	    || { echo 'CURVES DEMO FAILED: artifact target is not http://127.0.0.1:8055'; exit 1; }; \
	np=$$(echo "$$bc" | grep -o '"erlangs":' | wc -l); \
	nr=$$(echo "$$bc" | grep -oE '"server_phase_mean_us":\{[^}]*"route_search":(0\.0*[1-9]|[1-9])' | wc -l); \
	echo "points $$np, with a positive route_search phase mean $$nr"; \
	test "$$np" -gt 0 && test "$$np" = "$$nr" \
	    || { echo 'CURVES DEMO FAILED: a point lacks server_phase_mean_us.route_search'; exit 1; }; \
	echo '--- knee sweep far below the bound (m = 3, x = 1): blocking must appear'; \
	/tmp/wdm-curves-load -mode sweep -target http://127.0.0.1:8056 -points 1,2,4,8,16 \
	    -arrivals 1200 -max-fanout 4 -out $(CURVES_DIR)/BENCH_curves_below.json; \
	grep -Eq '"blocked": [1-9]' $(CURVES_DIR)/BENCH_curves_below.json \
	    || { echo 'CURVES DEMO FAILED: no knee below the bound'; exit 1; }; \
	echo '--- measured curve at the bound'; \
	/tmp/wdm-curves-plot -series curves -curves $(CURVES_DIR)/BENCH_curves.json; \
	echo '--- measured knee below the bound'; \
	/tmp/wdm-curves-plot -series curves -curves $(CURVES_DIR)/BENCH_curves_below.json; \
	echo "curves demo OK: P_block = 0 at the bound, knee visible below; artifacts in $(CURVES_DIR)"

# Regenerate every experiment artifact into results/.
repro:
	$(GO) run ./cmd/wdmexperiments -out results

clean:
	rm -rf results test_output.txt bench_output.txt
