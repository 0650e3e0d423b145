package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/live"
)

func mustWorkload(t *testing.T, name string) workloadDef {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

func TestSameSeedSameStrings(t *testing.T) {
	for _, w := range workloads {
		a := genPools(w.spec, 7, 64)
		b := genPools(w.spec, 7, 64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different reference strings", w.name)
		}
		if c := genPools(w.spec, 8, 64); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same reference strings", w.name)
		}
	}
}

func TestAuditFailsOnPlantedMismatch(t *testing.T) {
	w := mustWorkload(t, "hotcold")
	in, _, err := setup(t.TempDir(), w, 1, genPools(w.spec, 1, 64), live.TransportGoroutine, false)
	if err != nil {
		t.Fatal(err)
	}
	drive(in.runs, 0, 20)
	if err := in.err(); err != nil {
		t.Fatal(err)
	}
	// One object some client wrote, and one nobody did.
	written := -1
	for i, n := range in.runs[0].tally {
		if n > 0 {
			written = i
			break
		}
	}
	if written < 0 {
		t.Fatal("hotcold wrote nothing")
	}
	in.runs[0].tally[written]++
	in.runs[1].tally[numObjs-1]++
	d, err := in.durabilityCheck(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.checked != numObjs || d.bad != 2 {
		t.Fatalf("audit checked %d objects and found %d mismatches, want %d and 2", d.checked, d.bad, numObjs)
	}
}

// shortRun runs a workload untraced for one second and requires that
// nothing failed.
func shortRun(t *testing.T, name string) {
	w := mustWorkload(t, name)
	res, err := untracedRun(w, 1, genPools(w.spec, 1, poolTxns), t.TempDir(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.failed != 0 || res.audited != numObjs {
		t.Fatalf("attempted %d, failed %d, audited %d; notes %q", res.attempted, res.failed, res.audited, res.notes)
	}
}

func TestShortRunHotcold(t *testing.T)   { shortRun(t, "hotcold") }
func TestShortRunUniformRO(t *testing.T) { shortRun(t, "uniform-ro") }

// On a read-only workload each client's fetches depend only on its own
// reference string, so the engine's counts repeat exactly for a seed, and
// the transport does not change them.
func TestUniformROEngineCountsRepeat(t *testing.T) {
	w := mustWorkload(t, "uniform-ro")
	pools := genPools(w.spec, 5, poolTxns)
	res := &result{}
	var reads []int64
	for _, transport := range []string{live.TransportGoroutine, live.TransportGoroutine, live.TransportReactor} {
		p, err := countedPass(res, w, 5, pools, t.TempDir(), transport, 150, false)
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, p.b.stats.ReadReqs-p.a.stats.ReadReqs)
	}
	if res.failed != 0 {
		t.Fatalf("%d failed; notes %q", res.failed, res.notes)
	}
	if reads[0] == 0 || reads[0] != reads[1] || reads[0] != reads[2] {
		t.Fatalf("engine read requests = %v, want three equal non-zero counts", reads)
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		mustWorkload(t, wl.Name)
	}
	w := mustWorkload(t, "hotcold")
	pools := genPools(w.spec, 1, poolTxns)
	e2e, err := untracedRun(w, 1, pools, t.TempDir(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := tracedRun(w, 1, pools, t.TempDir(), filepath.Join(t.TempDir(), "spans.jsonl"), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		want []decl
		got  *metricSet
	}{{"end_to_end", spec.EndToEnd, e2e.metrics}, {"per_layer", spec.PerLayer, layers.metrics}} {
		var want, got []decl
		want = append(want, c.want...)
		for _, n := range c.got.names {
			got = append(got, decl{n, c.got.m[n].Unit})
		}
		byName := func(d []decl) { sort.Slice(d, func(i, j int) bool { return d[i].Name < d[j].Name }) }
		byName(want)
		byName(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: BENCHMARK.json declares %v, the run reports %v", c.kind, want, got)
		}
	}
}

// interleaved-private is not in BENCHMARK.json: the live server fails on
// it (see the workloads catalogue). This test passes once that is fixed.
func TestShortRunInterleavedPrivate(t *testing.T) { shortRun(t, "interleaved-private") }

// hotcold does not run on the reactor in traced runs: on it, both clients
// have been seen waiting forever for write-permission replies while the
// reactor loops sat idle in epoll_wait. This test passes once that is
// fixed.
func TestHotcoldReactorCompletes(t *testing.T) {
	w := mustWorkload(t, "hotcold")
	pools := genPools(w.spec, 9, poolTxns)
	done := make(chan error, 1)
	res := &result{}
	go func() {
		_, err := countedPass(res, w, 9, pools, t.TempDir(), live.TransportReactor, 2000, false)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%d failed; notes %q", res.failed, res.notes)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("hotcold on the reactor transport did not finish 2000 transactions per client in 90s")
	}
}
