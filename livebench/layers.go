package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for printing.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) add(name string, v float64, unit string) {
	if s.m == nil {
		s.m = make(map[string]metric)
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// Server series read from the program's own obs.Registry.
var (
	serverCounters = []string{
		"oodb_wal_syncs_total",
		"oodb_wal_records_total",
		"oodb_wal_appended_bytes_total",
		"oodb_live_multi_shard_commits_total",
		`oodb_server_requests_total{kind="commit"}`,
		"oodb_live_reactor_event_batches_total",
		"oodb_live_reactor_events_total",
	}
	commitStages = []string{"queue", "lock-wait", "append", "install", "fsync-wait", "ack"}
	serverHists  = append([]string{
		"oodb_live_reactor_wake_ns",
		"oodb_live_engine_lock_wait_ns",
		"oodb_live_engine_lock_hold_ns",
		`oodb_server_lock_wait_ns{granularity="page"}`,
		`oodb_server_lock_wait_ns{granularity="object"}`,
		"oodb_live_wal_group_size",
		"oodb_wal_append_ns",
	}, stageSeries()...)
)

func stageSeries() []string {
	var out []string
	for _, st := range commitStages {
		out = append(out, obs.Labeled("oodb_commit_stage_ns", "stage", st))
	}
	return out
}

// snapshot is every counter the per-layer table differences, read at one
// edge of the measured window.
type snapshot struct {
	stats    core.ServerStats
	counters map[string]int64
	hists    map[string]obs.HistSnapshot

	clientHits, clientMisses, clientFetches int64
	clientRTT                               obs.HistSnapshot

	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64 // runtime/metrics CPU seconds
	procCPU             time.Duration
}

func takeSnapshot(in *instance) *snapshot {
	s := &snapshot{
		stats:    in.srv.Stats(),
		counters: make(map[string]int64),
		hists:    make(map[string]obs.HistSnapshot),
	}
	reg := in.srv.Metrics()
	for _, n := range serverCounters {
		s.counters[n] = reg.CounterValue(n)
	}
	for _, n := range serverHists {
		s.hists[n] = reg.HistogramSnapshot(n)
	}
	for _, r := range in.runs {
		if r.reg == nil {
			continue
		}
		s.clientHits += r.reg.CounterValue(`oodb_client_cache_hits_total{kind="page"}`)
		s.clientMisses += r.reg.CounterValue(`oodb_client_cache_misses_total{kind="page"}`)
		s.clientFetches += r.reg.CounterValue("oodb_client_fetches_total")
		s.clientRTT = mergeHist(s.clientRTT, r.reg.HistogramSnapshot("oodb_client_request_rtt_ns"))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
		s.totalCPU = samples[1].Value.Float64()
	}
	s.procCPU = processCPU()
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mergeHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	a.Count += b.Count
	a.Sum += b.Sum
	a.Max = max(a.Max, b.Max)
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	return a
}

// histDelta is the histogram of the observations made between a and b.
// The maximum is b's, which bounds the top quantile from above.
func histDelta(a, b obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max}
	for i := range d.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// classDurations groups the clients' span durations by call class.
func classDurations(recs []*recorder) (hit, fetch, update, commit []int64) {
	for _, rec := range recs {
		for _, s := range rec.spans {
			if s.err {
				continue
			}
			switch {
			case s.op == opRead && s.fetch:
				fetch = append(fetch, s.dur)
			case s.op == opRead:
				hit = append(hit, s.dur)
			case s.op == opUpdate:
				update = append(update, s.dur)
			case s.op == opCommit:
				commit = append(commit, s.dur)
			}
		}
	}
	for _, xs := range [][]int64{hit, fetch, update, commit} {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	return
}

// layerMetrics builds the per-layer table from the traced pass.
func layerMetrics(p *pass, overhead float64) *metricSet {
	a, b := p.a, p.b
	txns, attempts, updates := float64(p.win.commits), float64(p.win.attempts), float64(p.win.updates)
	perTxn := func(n int64) float64 { return ratio(float64(n), txns) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	h := func(name string) obs.HistSnapshot { return histDelta(a.hists[name], b.hists[name]) }
	c := func(name string) int64 { return b.counters[name] - a.counters[name] }
	st := b.stats
	st0 := a.stats

	m := &metricSet{}
	var lat []int64
	for _, t := range p.win.done {
		lat = append(lat, int64(t.lat))
	}
	sortInt64s(lat)
	m.add("txn.p90_ms", float64(percentile(lat, 0.9))/1e6, "ms")
	m.add("txn.p99_ms", float64(percentile(lat, 0.99))/1e6, "ms")
	hit, fetch, update, commit := classDurations(p.recs)
	m.add("client.read_hit_ns_p50", float64(percentile(hit, 0.5)), "ns")
	m.add("client.read_fetch_us_p50", us(percentile(fetch, 0.5)), "us")
	m.add("client.read_fetch_us_p99", us(percentile(fetch, 0.99)), "us")
	m.add("client.update_us_p50", us(percentile(update, 0.5)), "us")
	m.add("client.commit_us_p50", us(percentile(commit, 0.5)), "us")
	m.add("client.commit_us_p99", us(percentile(commit, 0.99)), "us")
	hits, misses := b.clientHits-a.clientHits, b.clientMisses-a.clientMisses
	m.add("client.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.add("client.fetches_per_txn", perTxn(b.clientFetches-a.clientFetches), "1/txn")
	m.add("client.attempts_per_txn", ratio(attempts, txns), "1/txn")

	rtt := histDelta(a.clientRTT, b.clientRTT)
	m.add("wire.rtt_us_p50", us(rtt.Quantile(0.5)), "us")
	m.add("wire.rtt_us_p99", us(rtt.Quantile(0.99)), "us")

	m.add("engine.read_reqs_per_txn", perTxn(st.ReadReqs-st0.ReadReqs), "1/txn")
	m.add("engine.write_reqs_per_txn", perTxn(st.WriteReqs-st0.WriteReqs), "1/txn")
	m.add("engine.callbacks_per_txn", perTxn(st.Callbacks-st0.Callbacks), "1/txn")
	m.add("engine.busy_replies_per_txn", perTxn(st.BusyReplies-st0.BusyReplies), "1/txn")
	m.add("engine.deescalations_per_txn", perTxn(st.Deescalations-st0.Deescalations), "1/txn")
	m.add("engine.obj_grants_per_txn", perTxn(st.ObjGrants-st0.ObjGrants), "1/txn")
	m.add("engine.blocks_per_txn", perTxn(st.Blocks-st0.Blocks), "1/txn")
	m.add("engine.deadlocks_per_txn", perTxn(st.Deadlocks-st0.Deadlocks), "1/txn")
	m.add("engine.lock_wait_us_p99", us(h("oodb_live_engine_lock_wait_ns").Quantile(0.99)), "us")
	m.add("engine.lock_hold_us_p50", us(h("oodb_live_engine_lock_hold_ns").Quantile(0.5)), "us")
	blocked := mergeHist(h(`oodb_server_lock_wait_ns{granularity="page"}`), h(`oodb_server_lock_wait_ns{granularity="object"}`))
	m.add("engine.block_wait_us_p99", us(blocked.Quantile(0.99)), "us")
	m.add("engine.multi_shard_commit_ratio", ratio(float64(c("oodb_live_multi_shard_commits_total")),
		float64(c(`oodb_server_requests_total{kind="commit"}`))), "ratio")

	for _, stage := range commitStages {
		name := "commit." + strings.ReplaceAll(stage, "-", "_") + "_us_p50"
		m.add(name, us(h(obs.Labeled("oodb_commit_stage_ns", "stage", stage)).Quantile(0.5)), "us")
	}

	records := float64(c("oodb_wal_records_total"))
	walBytes := float64(c("oodb_wal_appended_bytes_total"))
	m.add("wal.append_us_p50", us(h("oodb_wal_append_ns").Quantile(0.5)), "us")
	m.add("wal.bytes_per_commit", ratio(walBytes, records), "B/commit")
	objSize := float64((pageSize - 4) / objsPerPage)
	m.add("wal.bytes_per_user_byte", ratio(walBytes, updates*objSize), "ratio")
	m.add("wal.fsyncs_per_commit", ratio(float64(c("oodb_wal_syncs_total")), records), "1/commit")
	m.add("wal.group_size_p50", float64(h("oodb_live_wal_group_size").Quantile(0.5)), "count")

	m.add("runtime.allocs_per_txn", ratio(float64(b.mallocs-a.mallocs), txns), "1/txn")
	m.add("runtime.alloc_bytes_per_txn", ratio(float64(b.allocBytes-a.allocBytes), txns), "B/txn")
	m.add("runtime.gc_cpu_fraction", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), "ratio")
	m.add("process.cpu_ms_per_txn", ratio(float64(b.procCPU-a.procCPU)/1e6, txns), "ms/txn")

	m.add("trace.overhead_ratio", overhead, "ratio")
	return m
}

// reactorMetrics adds the transport loop's metrics from the pass on the
// reactor transport; txnRatio is its throughput over the control's.
func reactorMetrics(m *metricSet, p *pass, txnRatio float64) {
	var wake obs.HistSnapshot
	c := func(string) float64 { return 0 }
	if p.a != nil {
		wake = histDelta(p.a.hists["oodb_live_reactor_wake_ns"], p.b.hists["oodb_live_reactor_wake_ns"])
		c = func(name string) float64 { return float64(p.b.counters[name] - p.a.counters[name]) }
	}
	m.add("reactor.wake_us_p50", float64(wake.Quantile(0.5))/1e3, "us")
	m.add("reactor.wake_us_p99", float64(wake.Quantile(0.99))/1e3, "us")
	m.add("reactor.events_per_batch", ratio(c("oodb_live_reactor_events_total"), c("oodb_live_reactor_event_batches_total")), "1/batch")
	m.add("reactor.txn_per_s_ratio", txnRatio, "ratio")
}

// recoveryMetrics adds the reopen of the durability check's crashed
// database.
func recoveryMetrics(m *metricSet, d *durability) {
	m.add("recovery.records", float64(d.recovery.Records), "count")
	m.add("recovery.pages_replayed", float64(d.recovery.PagesReplayed), "count")
	m.add("recovery.replay_ms", float64(d.recovery.DurationNs)/1e6, "ms")
}

// hostInfo stamps a result with the host and configuration it came from.
type hostInfo struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	CPU         string `json:"cpu"`
	GoVersion   string `json:"go"`
	Shards      int    `json:"shards"`
	Transport   string `json:"transport"`
	Protocol    string `json:"protocol"`
	SyncWAL     bool   `json:"sync_wal"`
	FS          string `json:"db_fs"`
	Clients     int    `json:"clients"`
	Pages       int    `json:"pages"`
	ObjsPerPage int    `json:"objs_per_page"`
	PageSize    int    `json:"page_size"`
}

func stampHost(in *instance, w workloadDef, seed int64) hostInfo {
	return hostInfo{
		Workload:    w.name,
		Seed:        seed,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPU:         cpuModel(),
		GoVersion:   runtime.Version(),
		Shards:      in.srv.NumShards(),
		Transport:   in.srv.Transport(),
		Protocol:    in.srv.Proto().String(),
		SyncWAL:     in.opts.SyncWAL,
		FS:          fsType(in.dir),
		Clients:     len(in.runs),
		Pages:       numPages,
		ObjsPerPage: objsPerPage,
		PageSize:    pageSize,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
