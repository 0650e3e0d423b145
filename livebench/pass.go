package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Database geometry: the paper's 1250 pages x 20 objects x 4 KiB. Clients
// keep the default cache of 25% of the database (312 pages).
const (
	pageSize    = 4096
	objsPerPage = 20
	numPages    = 1250
	numObjs     = numPages * objsPerPage
)

const (
	warmTxns    = 64   // per client, before timing: fills the caches
	tailTxns    = 250  // per client, before the crash of the durability check
	maxAttempts = 1000 // deadlock retries before a transaction counts as failed
	auditPages  = 10   // pages per read-only audit transaction
)

// serverOptions configures the measured server. Every commit waits for its
// WAL fsync, so group commit runs; the database is on a tmpfs (see
// tmpfs.go), so the device does not set the numbers.
func serverOptions(transport string) live.ServerOptions {
	return live.ServerOptions{
		Proto:       core.PSAA,
		PageSize:    pageSize,
		ObjsPerPage: objsPerPage,
		NumPages:    numPages,
		SyncWAL:     true,
		Transport:   transport,
	}
}

// server is one live server listening on loopback.
type server struct {
	*live.Server
	served chan error // ListenAndServe's result
}

// startServer opens the database in dir and waits until it listens.
func startServer(dir string, opts live.ServerOptions) (*server, error) {
	srv, err := live.OpenServer(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open server: %w", err)
	}
	s := &server{Server: srv, served: make(chan error, 1)}
	go func() { s.served <- srv.ListenAndServe("127.0.0.1:0") }()
	for srv.Addr() == "" {
		select {
		case err := <-s.served:
			srv.Close()
			return nil, fmt.Errorf("listen: %v", err)
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	return s, nil
}

// crashWait fail-stops the server, discarding un-fsynced WAL bytes, and
// waits for its accept loop to end.
func (s *server) crashWait() {
	s.Crash()
	<-s.served
}

// closeWait shuts the server down cleanly and waits for its accept loop.
func (s *server) closeWait() error {
	err := s.Close()
	<-s.served
	return err
}

// connect dials the server and completes the client handshake.
func connect(s *server, reg *obs.Registry) (*live.Client, error) {
	conn, err := live.Dial(s.Addr())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c, err := live.Connect(conn, live.ClientOptions{Metrics: reg})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return c, nil
}

// createDatabase writes a fresh store whose every object holds its seeded
// initial counter.
func createDatabase(dir string, seed int64) error {
	st, err := live.CreateStore(filepath.Join(dir, "data.db"), pageSize, objsPerPage, numPages)
	if err != nil {
		return fmt.Errorf("create store: %w", err)
	}
	buf := make([]byte, 8)
	for i := 0; i < numObjs; i++ {
		putCounter(buf, initValue(seed, i))
		o := core.ObjID{Page: core.PageID(i / objsPerPage), Slot: uint16(i % objsPerPage)}
		if err := st.WriteObj(o, buf); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Flush(); err != nil {
		st.Close()
		return fmt.Errorf("flush store: %w", err)
	}
	return st.Close()
}

// clientRun is one closed-loop client session and everything it counts.
type clientRun struct {
	id    int // 1-based, as the generator numbers clients
	c     *live.Client
	reg   *obs.Registry // per-client registry; nil when untraced
	fetch *obs.Counter  // the client's fetch counter; nil when untraced

	pool [][]workload.Ref
	next int

	seed       int64
	checkReads bool     // read-only workload: every read must see the initial value
	tally      []uint32 // committed increments per object index

	done     []txnDone // committed transactions of the current phase
	commits  int64
	attempts int64 // Begins, retries included
	failed   int64 // transactions that ended in a non-abort error
	badReads int64 // reads that did not see the initial value (read-only workloads)
	updates  int64 // committed object updates
	err      error // first non-abort error

	rec   *recorder // nil when untraced
	seq   int       // transactions started since the client connected
	inc   func(old []byte) []byte
	epoch time.Time // when tracing started
	phase time.Time // when the current closed-loop phase started
}

// txnDone is one committed transaction: when its commit returned, since
// the phase started, and its latency from the first Begin.
type txnDone struct {
	end, lat time.Duration
}

func newClientRun(id int, pool [][]workload.Ref, seed int64, checkReads bool) *clientRun {
	r := &clientRun{id: id, pool: pool, seed: seed, checkReads: checkReads, tally: make([]uint32, numObjs)}
	// Read returns a private copy, so the increment can edit it in place.
	r.inc = func(old []byte) []byte {
		putCounter(old, counter(old)+1)
		return old
	}
	return r
}

func (r *clientRun) nextRefs() []workload.Ref {
	refs := r.pool[r.next]
	r.next = (r.next + 1) % len(r.pool)
	return refs
}

// runTxn runs one reference string to commit, retrying deadlock victims.
// A panic inside the client library fails the transaction and is
// reported as its error.
func (r *clientRun) runTxn(refs []workload.Ref) (err error) {
	r.seq++
	defer func() {
		if p := recover(); p != nil {
			r.failed++
			err = fmt.Errorf("client %d: transaction %d: client library panicked: %v", r.id, r.seq, p)
		}
	}()
	start := time.Now()
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		r.attempts++
		err := r.attempt(refs, attempt)
		if err == nil {
			now := time.Now()
			r.done = append(r.done, txnDone{end: now.Sub(r.phase), lat: now.Sub(start)})
			r.commits++
			for _, ref := range refs {
				if ref.Write {
					r.tally[objIndex(ref.Obj, objsPerPage)]++
					r.updates++
				}
			}
			return nil
		}
		if !errors.Is(err, live.ErrAborted) {
			r.failed++
			return err
		}
	}
	r.failed++
	return fmt.Errorf("client %d: transaction %d aborted %d times", r.id, r.seq, maxAttempts)
}

// attempt runs refs once: Begin, a Read or an Update per reference, Commit.
func (r *clientRun) attempt(refs []workload.Ref, attempt int) error {
	t0 := r.now()
	tx, err := r.c.Begin()
	r.span(opBegin, attempt, core.ObjID{}, t0, 0, err)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		var f0 int64
		if r.fetch != nil {
			f0 = r.fetch.Value()
		}
		t0 = r.now()
		if ref.Write {
			err = tx.Update(ref.Obj, r.inc)
			r.span(opUpdate, attempt, ref.Obj, t0, f0, err)
		} else {
			var v []byte
			v, err = tx.Read(ref.Obj)
			r.span(opRead, attempt, ref.Obj, t0, f0, err)
			if err == nil && r.checkReads && counter(v) != initValue(r.seed, objIndex(ref.Obj, objsPerPage)) {
				r.badReads++
			}
		}
		if err != nil {
			tx.Abort()
			return err
		}
	}
	t0 = r.now()
	err = tx.Commit()
	r.span(opCommit, attempt, core.ObjID{}, t0, 0, err)
	return err
}

// now reads the clock only when tracing, so untraced runs time nothing
// but whole transactions.
func (r *clientRun) now() time.Time {
	if r.rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records one call when tracing; fetched reports whether the client's
// fetch counter advanced during it.
func (r *clientRun) span(op spanOp, attempt int, o core.ObjID, t0 time.Time, f0 int64, err error) {
	if r.rec == nil {
		return
	}
	end := time.Now()
	fetched := r.fetch != nil && (op == opRead || op == opUpdate) && r.fetch.Value() > f0
	r.rec.add(span{
		client: int32(r.id), txn: int32(r.seq), attempt: int32(attempt), op: op,
		page: int32(o.Page), slot: o.Slot, fetch: fetched, err: err != nil,
		start: t0.Sub(r.epoch).Nanoseconds(), dur: end.Sub(t0).Nanoseconds(),
	})
}

// resetCounts starts a new measurement window (the tally is kept: it is
// the audit's ground truth for the whole life of the database).
func (r *clientRun) resetCounts() {
	r.done = r.done[:0]
	r.commits, r.attempts, r.failed, r.badReads, r.updates = 0, 0, 0, 0, 0
	r.err = nil
}

// drive runs every client in a closed loop, each on its own goroutine,
// until d has elapsed (count == 0) or each has committed count
// transactions. It returns the wall time from release to the last client
// finishing.
func drive(runs []*clientRun, d time.Duration, count int) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	release := make(chan struct{})
	for _, r := range runs {
		wg.Add(1)
		go func(r *clientRun) {
			defer wg.Done()
			<-release
			for n := 0; count == 0 || n < count; n++ {
				if stop.Load() {
					return
				}
				if err := r.runTxn(r.nextRefs()); err != nil {
					r.err = err
					stop.Store(true)
					return
				}
			}
		}(r)
	}
	start := time.Now()
	for _, r := range runs {
		r.phase = start
	}
	close(release)
	if count == 0 {
		t := time.AfterFunc(d, func() { stop.Store(true) })
		defer t.Stop()
	}
	wg.Wait()
	return time.Since(start)
}

// instance is one database with a running server and connected clients.
type instance struct {
	dir  string
	opts live.ServerOptions
	srv  *server
	runs []*clientRun

	rec   *recorder // crash and reopen spans; nil when untraced
	epoch time.Time
}

// trace starts recording spans for the instance and its clients.
func (in *instance) trace() []*recorder {
	in.epoch = time.Now()
	in.rec = &recorder{}
	recs := []*recorder{in.rec}
	for _, r := range in.runs {
		r.rec, r.epoch = &recorder{}, in.epoch
		recs = append(recs, r.rec)
	}
	return recs
}

func (in *instance) span(op spanOp, t0 time.Time) {
	if in.rec != nil {
		in.rec.add(span{op: op, start: t0.Sub(in.epoch).Nanoseconds(), dur: time.Since(t0).Nanoseconds()})
	}
}

// setup creates the database, starts the server on transport, connects
// the clients and runs the warm-up. It returns the instance and the set-up
// time.
func setup(parent string, w workloadDef, seed int64, pools [][][]workload.Ref, transport string, traced bool) (*instance, float64, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(parent, w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	in := &instance{dir: dir, opts: serverOptions(transport)}
	if err := createDatabase(dir, seed); err != nil {
		in.discard()
		return nil, 0, err
	}
	if in.srv, err = startServer(dir, in.opts); err != nil {
		in.discard()
		return nil, 0, err
	}
	for i, pool := range pools {
		r := newClientRun(i+1, pool, seed, !w.writes())
		if traced {
			r.reg = obs.NewRegistry()
		}
		if r.c, err = connect(in.srv, r.reg); err != nil {
			in.discard()
			return nil, 0, err
		}
		if r.reg != nil {
			r.fetch = r.reg.Counter("oodb_client_fetches_total", "")
		}
		in.runs = append(in.runs, r)
	}
	drive(in.runs, 0, warmTxns)
	if err := in.err(); err != nil {
		in.discard()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	for _, r := range in.runs {
		r.resetCounts()
	}
	return in, time.Since(start).Seconds(), nil
}

func (in *instance) err() error {
	for _, r := range in.runs {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

func (in *instance) closeClients() {
	for _, r := range in.runs {
		if r.c != nil {
			r.c.Close()
		}
	}
}

// discard tears the instance down and removes its database.
func (in *instance) discard() {
	in.closeClients()
	if in.srv != nil {
		in.srv.crashWait()
	}
	os.RemoveAll(in.dir)
}

// durability is the outcome of the durability check.
type durability struct {
	tailAttempted, tailFailed int64
	tailErr                   error

	seconds  []float64 // OpenServer to first completed client handshake, per reopen
	recovery live.RecoveryStats
	checked  int // objects audited
	bad      int // objects whose counter disagrees with the committed increments
}

// durabilityCheck checks that acknowledged commits survive a crash. It
// shuts the measured server down cleanly (so that every restart replays a
// log of the same length), reopens the database, runs tailTxns more
// transactions per client, and fail-stops the server, which discards
// every log byte not yet fsynced. It then reopens the crashed directory
// reps times, each from an identical copy so that every reopen replays
// the same log, and audits the last reopen from a fresh client. It
// removes the database.
func (in *instance) durabilityCheck(reps, tailTxns int) (*durability, error) {
	defer os.RemoveAll(in.dir)
	in.closeClients()
	err := in.srv.closeWait()
	in.srv = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if in.srv, err = startServer(in.dir, in.opts); err != nil {
		return nil, err
	}
	for _, r := range in.runs {
		r.resetCounts()
		r.rec = nil // the tail is not part of the traced window
		if r.c, err = connect(in.srv, r.reg); err != nil {
			return nil, err
		}
	}
	drive(in.runs, 0, tailTxns)
	res := &durability{}
	for _, r := range in.runs {
		res.tailAttempted += r.commits + r.failed
		res.tailFailed += r.failed + r.badReads
		if res.tailErr == nil {
			res.tailErr = r.err
		}
	}

	t0 := time.Now()
	in.srv.crashWait()
	in.srv = nil
	in.span(opCrash, t0)
	in.closeClients()
	for i := 1; i <= reps; i++ {
		dir := in.dir
		if i < reps {
			dir = fmt.Sprintf("%s.r%d", in.dir, i)
			if err := copyDir(in.dir, dir); err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
		}
		start := time.Now()
		s, err := startServer(dir, in.opts)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		c, err := connect(s, nil)
		if err != nil {
			s.crashWait()
			return nil, fmt.Errorf("restart: %w", err)
		}
		res.seconds = append(res.seconds, time.Since(start).Seconds())
		in.span(opRestart, start)
		res.recovery = s.RecoveryStats()
		if i == reps {
			res.checked, res.bad, err = audit(c, in.expected())
		}
		c.Close()
		if i < reps {
			s.crashWait()
		} else if cerr := s.closeWait(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
	}
	return res, nil
}

// expected returns every object's counter as the committed increments of
// all clients say it must read.
func (in *instance) expected() []uint64 {
	seed := in.runs[0].seed
	want := make([]uint64, numObjs)
	for i := range want {
		want[i] = initValue(seed, i)
		for _, r := range in.runs {
			want[i] += uint64(r.tally[i])
		}
	}
	return want
}

// audit reads every object in read-only transactions and counts those whose
// counter differs from want.
func audit(c *live.Client, want []uint64) (checked, bad int, err error) {
	for p := 0; p < numPages; p += auditPages {
		tx, err := c.Begin()
		if err != nil {
			return checked, bad, err
		}
		for q := p; q < p+auditPages && q < numPages; q++ {
			for s := 0; s < objsPerPage; s++ {
				o := core.ObjID{Page: core.PageID(q), Slot: uint16(s)}
				v, err := tx.Read(o)
				if err != nil {
					return checked, bad, err
				}
				checked++
				if counter(v) != want[objIndex(o, objsPerPage)] {
					bad++
				}
			}
		}
		if err := tx.Commit(); err != nil {
			return checked, bad, err
		}
	}
	return checked, bad, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted ns.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
