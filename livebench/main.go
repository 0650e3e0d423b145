// Command livebench is the repository's benchmark. It replays the paper's
// reference strings, made by the simulator's own generator
// (internal/workload), against an in-process live server over loopback
// TCP. Two client sessions each run a closed loop with zero think time on
// the paper's database (1250 pages x 20 objects x 4 KiB, client caches of
// 25%) under PS-AA, with every commit waiting for its WAL fsync. Every
// update increments an 8-byte counter in its object. After the measured
// phase a durability check reopens the database, runs a fixed tail of
// transactions, crashes the server (which discards un-fsynced log bytes)
// and reopens it; a fresh client then checks that every object holds
// exactly its initial value plus the increments of the transactions whose
// commit was acknowledged.
//
// Run it from the repository root:
//
//	bash livebench/run.sh --workload hotcold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records a span around every public call, writes them as JSONL under
// .bench_run, and reports the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/workload"
)

const (
	setupReps   = 21 // set-ups per untraced run; setup_s is their median
	restartReps = 41 // reopens of the crashed database; restart_s is their median
	slices      = 30 // equal slices of the measured phase (see phaseStats)
	// tracedTxnsPerSecond sets the traced run's fixed transaction count
	// per client and pass (times --seconds), so its counts repeat exactly
	// for a seed on workloads without conflicts.
	tracedTxnsPerSecond = 30
	// runLimit bounds a run: a lost reply inside the server would
	// otherwise leave a client waiting forever.
	runLimit = 170 * time.Second
	// outDir, under the directory the benchmark runs from, holds the
	// traced runs' span files, and dbDir the databases while they live
	// (on a private tmpfs when one can be mounted; see tmpfs.go).
	outDir = ".bench_run"
	dbDir  = outDir + "/db"
)

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for the reference strings and initial values")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "livebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// Environment overrides would change the server under test.
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "OODB_") {
			os.Unsetenv(k)
		}
	}
	if os.Getenv(nsEnv) == "" {
		if code, ok := runInNamespace(); ok {
			os.Exit(code)
		}
	} else if err := mountTmpfs(dbDir); err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v; the databases stay on the checkout's disk\n", err)
	}
	if err := os.MkdirAll(dbDir, 0o755); err != nil {
		fatal(err)
	}
	time.AfterFunc(runLimit, func() { fatal(fmt.Errorf("run exceeded %v; a transaction is stuck", runLimit)) })
	pools := genPools(w.spec, *seed, poolTxns)
	var res *result
	var err error
	if *trace == 0 {
		res, err = untracedRun(w, *seed, pools, dbDir, time.Duration(*seconds)*time.Second)
	} else {
		spans := filepath.Join(outDir, "spans-"+w.name+".jsonl")
		res, err = tracedRun(w, *seed, pools, dbDir, spans, tracedTxnsPerSecond**seconds)
	}
	if err != nil {
		fatal(err)
	}
	res.print()
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "livebench:", err)
	os.Exit(1)
}

// result is what one run prints.
type result struct {
	host      hostInfo
	attempted int64
	failed    int64
	audited   int
	metrics   *metricSet
	notes     []string // extra human-readable lines
}

func (r *result) print() {
	hdr, _ := json.Marshal(r.host)
	fmt.Printf("host %s\n", hdr)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("audit: %d objects checked after crash and restart\n", r.audited)
	fmt.Printf("%-34s %14s  %s\n", "metric", "value", "unit")
	for _, n := range r.metrics.names {
		m := r.metrics.m[n]
		fmt.Printf("%-34s %14.4f  %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-34s %14.4f  %s\n", "failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics.m})
	fmt.Println(string(line))
}

// account adds a measured phase and its durability check to the result.
func (r *result) account(win window, d *durability) {
	for _, e := range []error{win.err, d.tailErr} {
		if e != nil {
			r.notes = append(r.notes, "error: "+e.Error())
		}
	}
	r.attempted += win.attempted + d.tailAttempted
	r.failed += win.failed + d.tailFailed + int64(d.bad)
	r.audited += d.checked
}

// window sums the clients' counts over one measured phase.
type window struct {
	commits, attempted, failed int64
	attempts, updates          int64 // Begins, retries included; committed object updates
	done                       []txnDone
	err                        error
}

func collect(in *instance) window {
	var w window
	for _, r := range in.runs {
		w.commits += r.commits
		w.attempted += r.commits + r.failed
		w.failed += r.failed + r.badReads
		w.attempts += r.attempts
		w.updates += r.updates
		w.done = append(w.done, r.done...)
		if w.err == nil {
			w.err = r.err
		}
	}
	return w
}

// phaseStats summarizes a measured phase d cut into n equal slices.
// Throughput is the upper quartile of the slice rates, and the p50 and p90
// latencies are the lower quartiles of the slice percentiles: the figures
// of the quietest quarter of the phase. Other tenants of a shared host
// steal CPU in bursts that can last half a phase, and a burst only ever
// slows the program, so the quiet quartile tracks the program rather than
// its neighbours. p99 is pooled over the phase.
type phaseStats struct {
	tps, p50, p90 float64 // txn/s, ns, ns
	p99           int64   // ns, over every transaction of the phase
	minSlice      int     // transactions in the smallest slice
	n             int     // transactions in the phase
}

func sliceStats(done []txnDone, d time.Duration, n int) phaseStats {
	w := d / time.Duration(n)
	lats := make([][]int64, n)
	var all []int64
	for _, t := range done {
		if k := int(t.end / w); k < n {
			lats[k] = append(lats[k], int64(t.lat))
			all = append(all, int64(t.lat))
		}
	}
	ps := phaseStats{minSlice: len(all), n: len(all)}
	var rates, q50, q90 []float64
	for _, l := range lats {
		sortInt64s(l)
		rates = append(rates, float64(len(l))/w.Seconds())
		q50 = append(q50, float64(percentile(l, 0.5)))
		q90 = append(q90, float64(percentile(l, 0.9)))
		ps.minSlice = min(ps.minSlice, len(l))
	}
	sortInt64s(all)
	ps.tps, ps.p50, ps.p90 = quartile(rates, 3), quartile(q50, 1), quartile(q90, 1)
	ps.p99 = percentile(all, 0.99)
	return ps
}

// quartile returns the k-th quartile (1 or 3) of xs, nearest rank.
func quartile(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k*(len(s)-1)/4]
}

func sortInt64s(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// untracedRun measures the end-to-end metrics: setupReps set-ups (the
// last one is kept), a closed loop for d, then the durability check.
func untracedRun(w workloadDef, seed int64, pools [][][]workload.Ref, out string, d time.Duration) (*result, error) {
	var setups []float64
	var in *instance
	for i := 0; i < setupReps; i++ {
		x, s, err := setup(out, w, seed, pools, live.TransportGoroutine, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i < setupReps-1 {
			x.discard()
		} else {
			in = x
		}
	}
	res := &result{host: stampHost(in, w, seed)}
	wall := drive(in.runs, d, 0)
	win := collect(in)
	rss := peakRSSMiB()
	rs, err := in.durabilityCheck(restartReps, tailTxns)
	if err != nil {
		return nil, err
	}
	res.account(win, rs)
	ps := sliceStats(win.done, d, slices)
	m := &metricSet{}
	m.add("txn_per_s", ps.tps, "txn/s")
	m.add("txn_p50_ms", ps.p50/1e6, "ms")
	m.add("setup_s", median(setups), "s")
	m.add("restart_s", median(rs.seconds), "s")
	m.add("rss_peak_mb", rss, "MiB")
	res.metrics = m
	res.notes = append(res.notes,
		fmt.Sprintf("measured %.2fs: %d committed of %d attempted; %d slices of %v, >= %d transactions each",
			wall.Seconds(), win.commits, win.attempted, slices, d/slices, ps.minSlice),
		fmt.Sprintf("tail, not bounded (it moves with other tenants of the host): txn_p90_ms %.4f, txn_p99_ms %.4f over %d transactions",
			ps.p90/1e6, float64(ps.p99)/1e6, ps.n),
		fmt.Sprintf("durability check: %d transactions, %d WAL records replayed",
			rs.tailAttempted, rs.recovery.Records),
		fmt.Sprintf("set-ups %s; restarts %s", spread(setups), spread(rs.seconds)))
	return res, nil
}

// spread gives the quartiles of xs, in ms.
func spread(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1))] * 1e3 }
	return fmt.Sprintf("min %.1f q1 %.1f median %.1f q3 %.1f max %.1f ms", q(0), q(0.25), q(0.5), q(0.75), q(1))
}

// tracedRun measures the per-layer metrics in passes of count
// transactions per client, each on a fresh database and each ending with
// the durability check: an untraced control, a traced pass with spans
// around every call, and, for a workload with reactorPass, an untraced
// pass on the reactor transport.
func tracedRun(w workloadDef, seed int64, pools [][][]workload.Ref, out, spans string, count int) (*result, error) {
	res := &result{}
	ctl, err := countedPass(res, w, seed, pools, out, live.TransportGoroutine, count, false)
	if err != nil {
		return nil, err
	}
	tr, err := countedPass(res, w, seed, pools, out, live.TransportGoroutine, count, true)
	if err != nil {
		return nil, err
	}
	res.host = tr.host
	res.metrics = layerMetrics(tr, ratio(tr.tps(), ctl.tps()))
	note := fmt.Sprintf("%d transactions per client: control %.2fs, traced %.2fs", count, ctl.wall.Seconds(), tr.wall.Seconds())
	rx := &pass{} // reactor metrics read 0 when the reactor is bypassed
	if w.reactorPass {
		if rx, err = countedPass(res, w, seed, pools, out, live.TransportReactor, count, false); err != nil {
			return nil, err
		}
		note += fmt.Sprintf(", reactor %.2fs", rx.wall.Seconds())
	}
	reactorMetrics(res.metrics, rx, ratio(rx.tps(), ctl.tps()))
	recoveryMetrics(res.metrics, tr.dur)

	if err := writeSpans(spans, res.host, tr.recs); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, note+"; spans in "+spans)
	return res, nil
}

// pass is one counted pass: its window, the counters at both edges of it,
// and the durability check that followed.
type pass struct {
	host hostInfo
	wall time.Duration
	win  window
	a, b *snapshot
	dur  *durability
	recs []*recorder // nil when untraced
}

func (p *pass) tps() float64 { return ratio(float64(p.win.commits), p.wall.Seconds()) }

// countedPass sets up a fresh database on transport, runs count
// transactions per client, runs the durability check, and adds the
// pass's transactions and failures to res.
func countedPass(res *result, w workloadDef, seed int64, pools [][][]workload.Ref, out, transport string, count int, traced bool) (*pass, error) {
	in, _, err := setup(out, w, seed, pools, transport, traced)
	if err != nil {
		return nil, err
	}
	p := &pass{host: stampHost(in, w, seed)}
	if traced {
		p.recs = in.trace()
	}
	p.a = takeSnapshot(in)
	p.wall = drive(in.runs, 0, count)
	p.b = takeSnapshot(in)
	p.win = collect(in)
	if p.dur, err = in.durabilityCheck(1, tailTxns); err != nil {
		return nil, err
	}
	res.account(p.win, p.dur)
	return p, nil
}
