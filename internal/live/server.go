package live

import (
	"errors"
	"fmt"
	"math/bits"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Checkpoint crash points. cpCheckpointMid crashes between the store
// flush and everything after it — the checkpoint's original ordering
// hazard: recovery must replay the (now redundant) log idempotently.
// The watermark pair brackets the fuzzy checkpoint's new commit point:
// pre-watermark dies with the flush done but unrecorded (recovery replays
// the whole log), post-watermark dies with the watermark durable but the
// prefix not yet truncated (recovery must skip the covered prefix and
// still come out byte-identical).
var (
	cpCheckpointMid    = fault.Register("checkpoint.mid")
	cpCheckpointPreWM  = fault.Register("checkpoint.pre-watermark")
	cpCheckpointPostWM = fault.Register("checkpoint.post-watermark")

	// cpReclusterMidMove crashes a migration commit after its WAL append
	// but before the installs and the relocation-table publish: the log
	// holds a relocation record (durable or not, depending on the sync
	// race) that relocs.db does not — recovery must reconstruct the table
	// from base + log either way.
	cpReclusterMidMove = fault.Register("recluster.mid-move")
)

// ServerOptions configures a live server.
type ServerOptions struct {
	Proto       core.Protocol
	PageSize    int // default 4096
	ObjsPerPage int // default 20
	NumPages    int // default 1250
	// Shards is the number of page-hash engine shards (rounded down to a
	// power of two, max 64). Commits whose write sets land on different
	// shards run the engine step concurrently on separate cores; the WAL
	// stays a single sequencer. 0 selects the default: the OODB_SHARDS
	// environment variable if set, else min(8, GOMAXPROCS). 1 disables
	// sharding (the pre-shard single-engine behavior).
	Shards int
	// RecoveryJobs is the number of parallel WAL replay workers used when
	// opening the database (fixed-slot stores only; the variable store
	// replays serially — see replayRecords). 0 selects the default: the
	// OODB_RECOVERY_JOBS environment variable if set, else
	// min(Shards, GOMAXPROCS).
	RecoveryJobs int
	// SyncWAL forces commits to wait for a WAL fsync before acking
	// (default true; tests disable it).
	SyncWAL bool
	// GroupCommitWindow makes the WAL's group-commit sync leader linger
	// this long before fsyncing, gathering more concurrent commits into
	// one sync. 0 (the default) syncs immediately; batching then comes
	// only from commits that arrive while an fsync is already in flight,
	// which keeps uncontended commit latency at a single fsync.
	GroupCommitWindow time.Duration
	// VariableObjects enables size-changing updates (Section 6.1): the
	// database uses slotted pages with overflow forwarding instead of
	// fixed slots. Requires the OS protocol (object transfer), since
	// clients no longer interpret raw page images.
	VariableObjects bool
	// OutboxLimit caps a session's staged outbound messages. A client
	// that stops draining its connection while callbacks and grants keep
	// arriving would otherwise grow server memory without bound; at the
	// cap the server deposes the session (disconnects it through the
	// normal departure path). 0 means the default (4096); negative
	// disables the cap.
	OutboxLimit int
	// CallbackTimeout bounds how long a client may sit on an outstanding
	// callback (including the deferred ack after a busy reply) before the
	// server declares it dead and disconnects it, so one silent client
	// cannot stall every writer of a page. 0 disables the deadline.
	CallbackTimeout time.Duration
	// Metrics, when set, is the registry the server publishes on; pass a
	// shared registry to aggregate several processes (e.g. oodbbench runs
	// server and clients in one registry). Nil: the server makes its own,
	// reachable via Server.Metrics().
	Metrics *obs.Registry
	// TraceBuf sizes the event-trace ring (obs.DefaultTraceBuf if 0,
	// honoring the OODB_TRACE_SIZE environment variable first). Tracing
	// starts disabled; switch it on via Server.Tracer().
	TraceBuf int
	// Heat starts the access-heat/contention collector enabled (it can
	// also be switched at runtime via Server.Heat() or the admin
	// /heatz/on|/heatz/off endpoints). False honors OODB_HEAT=1. Disabled,
	// the collector costs one atomic load per engine event.
	Heat bool
	// HeatEpoch is the heat collector's rotation period (sketch decay +
	// false-sharing score fold); default 10s.
	HeatEpoch time.Duration
	// HeatTopK sizes the heat sketches (obs.HeatOptions.TopK; default 32).
	HeatTopK int
	// BlackboxDir, when set, enables the flight recorder: on a serve-path
	// panic or an injected fail-stop the server dumps its trace ring, heat
	// snapshot, commit-stage spans, and metrics to a timestamped JSONL
	// file in this directory (see obs.FlightRecorder).
	BlackboxDir string
	// BlackboxMax bounds retained blackbox dumps (default 8).
	BlackboxMax int
	// Recluster enables online reclustering: the store is created with a
	// spare-page region past the user-visible geometry, and a background
	// planner consumes heat snapshots and migrates objects off
	// false-sharing pages into (near-)private spare pages via system
	// transactions. Implies Heat; honors OODB_RECLUSTER=1. Fixed-slot
	// stores only (the variable store relocates on its own terms). On a
	// pre-existing store created without reclustering there is no spare
	// region, so the planner stays inert.
	Recluster bool
	// ReclusterEvery is the planner's polling period (default 2s).
	ReclusterEvery time.Duration
	// ReclusterSpare overrides the spare-page count reserved at store
	// creation (default NumPages/8, clamped to [4, 256]).
	ReclusterSpare int
	// ReclusterMaxMoves caps object migrations per planner round
	// (default 64) — the pacing knob keeping migration a background
	// trickle.
	ReclusterMaxMoves int
	// Transport selects how ListenAndServe drives TCP sessions:
	// TransportGoroutine (the default) runs the classic
	// goroutine-per-connection loops (reader + writer per session);
	// TransportReactor multiplexes every session onto a small
	// set of epoll event loops — O(loops) goroutines regardless of the
	// session count, which is what lets one server hold 10k-100k
	// sessions. Empty honors OODB_TRANSPORT. On platforms without epoll
	// the reactor falls back to the goroutine transport at listen time.
	// In-process (Pipe) sessions are unaffected either way.
	Transport string
	// ReactorLoops is the reactor's event-loop worker count (0: the
	// OODB_REACTOR_LOOPS environment variable if set, else
	// min(8, GOMAXPROCS)).
	ReactorLoops int
	// ReactorDrainCap caps one reactor connection's pending outbound
	// bytes. A client that stops reading while grants and callbacks keep
	// coalescing into its queue is deposed at the cap instead of growing
	// server memory without bound — the byte-level analogue of
	// OutboxLimit. 0 means the default (8 MiB); negative disables the
	// cap.
	ReactorDrainCap int
}

// Transport values for ServerOptions.Transport (and OODB_TRANSPORT).
const (
	TransportGoroutine = "goroutine"
	TransportReactor   = "reactor"
)

// objectStore abstracts the fixed-slot Store and the variable-size VStore.
type objectStore interface {
	ReadPage(p core.PageID) ([]byte, error)
	ReadObj(o core.ObjID) ([]byte, error)
	WriteObj(o core.ObjID, data []byte) error
	Flush() error
	Close() error
	closeRaw() error
	NumPages() int
	ObjsPerPage() int
	ObjSize() int
	DirtyPages() int
}

func (o *ServerOptions) defaults() {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.ObjsPerPage == 0 {
		o.ObjsPerPage = 20
	}
	if o.NumPages == 0 {
		o.NumPages = 1250
	}
	if o.OutboxLimit == 0 {
		o.OutboxLimit = 4096
	}
	if o.Shards == 0 {
		if v := os.Getenv("OODB_SHARDS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				o.Shards = n
			}
		}
	}
	if o.Shards == 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards > 8 {
			o.Shards = 8
		}
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Shards > 64 {
		o.Shards = 64
	}
	// Round down to a power of two so shardOf is a mask, not a modulo.
	for o.Shards&(o.Shards-1) != 0 {
		o.Shards &= o.Shards - 1
	}
	if o.RecoveryJobs == 0 {
		if v := os.Getenv("OODB_RECOVERY_JOBS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				o.RecoveryJobs = n
			}
		}
	}
	if o.RecoveryJobs == 0 {
		o.RecoveryJobs = runtime.GOMAXPROCS(0)
		if o.RecoveryJobs > o.Shards {
			o.RecoveryJobs = o.Shards
		}
	}
	if o.RecoveryJobs < 1 {
		o.RecoveryJobs = 1
	}
	if o.TraceBuf == 0 {
		if v := os.Getenv("OODB_TRACE_SIZE"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				o.TraceBuf = n
			}
		}
	}
	if !o.Heat {
		if v := os.Getenv("OODB_HEAT"); v == "1" || v == "true" {
			o.Heat = true
		}
	}
	if o.HeatEpoch <= 0 {
		o.HeatEpoch = 10 * time.Second
	}
	if !o.Recluster {
		if v := os.Getenv("OODB_RECLUSTER"); v == "1" || v == "true" {
			o.Recluster = true
		}
	}
	if o.Transport == "" {
		o.Transport = os.Getenv("OODB_TRANSPORT")
	}
	if o.Transport == "" {
		o.Transport = TransportGoroutine
	}
	if o.ReactorLoops == 0 {
		if v := os.Getenv("OODB_REACTOR_LOOPS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				o.ReactorLoops = n
			}
		}
	}
	if o.ReactorLoops <= 0 {
		o.ReactorLoops = runtime.GOMAXPROCS(0)
		if o.ReactorLoops > 8 {
			o.ReactorLoops = 8
		}
	}
	if o.ReactorDrainCap == 0 {
		o.ReactorDrainCap = 8 << 20
	}
	if o.Recluster {
		o.Heat = true // the planner is blind without the collector
		if o.ReclusterEvery <= 0 {
			o.ReclusterEvery = 2 * time.Second
		}
		if o.ReclusterMaxMoves <= 0 {
			o.ReclusterMaxMoves = 64
		}
		if o.ReclusterSpare <= 0 {
			o.ReclusterSpare = o.NumPages / 8
			if o.ReclusterSpare < 4 {
				o.ReclusterSpare = 4
			}
			if o.ReclusterSpare > 256 {
				o.ReclusterSpare = 256
			}
		}
	}
}

// engineShard is one slice of the partitioned engine: a full protocol
// engine (lock table, copy table, queues, rounds) owning the pages that
// hash to it, under its own mutex. Commits whose write sets touch
// disjoint shards hold disjoint locks and run concurrently.
type engineShard struct {
	idx int
	mu  sync.Mutex
	eng *core.ServerEngine

	// Per-shard views of the engine-lock histograms (the aggregate pair
	// is also fed) — a hot shard shows up as one skewed series.
	lockWaitNs *obs.Histogram
	lockHoldNs *obs.Histogram
}

// Server is the live page-server DBMS process: it owns the store and log,
// runs the protocol engine (sharded by page hash), and serves client
// sessions over transports.
type Server struct {
	opts   ServerOptions
	layout *core.Layout

	registry *obs.Registry
	metrics  *serverMetrics
	tracer   *obs.Tracer
	heat     *obs.Heat
	spans    *obs.Spans
	flight   *obs.FlightRecorder // nil unless BlackboxDir is set

	// shards partitions the engine by page hash; shardMask is
	// len(shards)-1 (power of two). With one shard the system behaves
	// exactly like the pre-shard single-engine server.
	shards    []*engineShard
	shardMask uint32

	store objectStore
	wal   *WAL
	dir   string // database directory (relocs.db lives beside data.db)

	// Online-reclustering state. relocs is the authoritative redirect
	// table (nil when the store has no spare region and no relocations —
	// reclustering inert); fences gates requests for mid-migration
	// objects; userPages is the client-visible page count (physical minus
	// the spare region); internalID is the planner's session (0: none),
	// exempt from the front door and excluded from heat and user stats.
	relocs     *relocTable
	fences     *fenceSet
	userPages  int
	internalID atomic.Int64
	recl       *recluster // background planner; nil unless opts.Recluster

	// installMu orders commit installs against checkpoints, replacing
	// what the single engine lock used to guarantee: a commit holds it
	// shared around its WAL append + store installs; Checkpoint holds it
	// exclusive across flush + truncate. So a WAL record is only ever
	// truncated after a store flush that covers its installs, and a
	// flush/truncate pair never splits an append/install pair.
	// Lock order: shard locks -> installMu -> s.mu.
	installMu sync.RWMutex

	// ckptMu serializes checkpoints: the fuzzy checkpoint releases
	// installMu between capturing its watermark and truncating the log,
	// so without this two overlapping checkpoints could interleave their
	// flush/watermark/truncate steps.
	ckptMu sync.Mutex

	// recovery is what the opening replay did (see RecoveryStats).
	recovery RecoveryStats

	// sessions is copy-on-write: readers (stage, routing, the watchdog,
	// gauges) load the map lock-free; Attach/detach/close replace it
	// under s.mu.
	sessions atomic.Pointer[map[core.ClientID]*session]

	// closedFlag mirrors closed for lock-free checks on hot/failure
	// paths. Set (under s.mu) before the store and log are torn down.
	closedFlag atomic.Bool

	mu     sync.Mutex // admin state below
	nextID core.ClientID
	closed bool
	failed error // injected crash that fail-stopped the server

	// blockStart records when each blocked transaction's queued request
	// first blocked (feeds the lock-wait histograms). Global across
	// shards — a transaction blocks on one shard but may finish via an
	// owner step on another — under its own small mutex.
	bsMu       sync.Mutex
	blockStart map[core.TxnID]time.Time

	// Callback-deadline watchdog (nil when CallbackTimeout == 0).
	watchStop chan struct{}
	watchDone chan struct{}

	// Heat-epoch rotation ticker.
	heatStop chan struct{}
	heatDone chan struct{}

	// Cross-shard deadlock detector (nil when len(shards) == 1; local
	// per-shard detection is complete then). See deadlock.go.
	dlPoke chan struct{}
	dlStop chan struct{}
	dlDone chan struct{}

	wg sync.WaitGroup

	ln net.Listener // optional TCP listener

	// reactor is the epoll transport driving TCP sessions when
	// Transport == TransportReactor (nil until ListenAndServe, and on
	// platforms where the reactor is unsupported). transport is the
	// transport actually in effect for TCP sessions, set at listen time
	// (it records the fallback when the reactor is unavailable); guarded
	// by s.mu.
	reactor   atomic.Pointer[reactor]
	transport string
}

// shardIdx maps a page to its owning shard index. The multiplicative
// hash decorrelates the low page bits (clients allocate contiguous
// regions) before masking.
func (s *Server) shardIdx(p core.PageID) int {
	if s.shardMask == 0 {
		return 0
	}
	h := uint32(p) * 2654435761
	return int((h >> 16) & s.shardMask)
}

func (s *Server) shardOf(p core.PageID) *engineShard {
	return s.shards[s.shardIdx(p)]
}

// NumShards returns the number of engine shards.
func (s *Server) NumShards() int { return len(s.shards) }

// sessionMap returns the current copy-on-write session map (never nil).
func (s *Server) sessionMap() map[core.ClientID]*session {
	return *s.sessions.Load()
}

// sessionOf returns the attached session for id, or nil.
func (s *Server) sessionOf(id core.ClientID) *session {
	return (*s.sessions.Load())[id]
}

// session is one attached client. Outgoing messages are staged on the
// outbox while the owning shard's lock is held (fixing their order to
// match the engine's processing order) and shipped by a dedicated writer
// goroutine; per-session FIFO delivery is a correctness requirement of
// callback locking (a callback must never overtake the data reply it
// concerns). All messages about one page are produced under that page's
// shard lock, so per-page wire order still matches engine order.
//
// A staged entry may be reserved before its payload exists: data grants
// are pushed under the shard lock with ready=false, and the payload is
// attached — and the entry marked ready — after the lock is released
// (see Server.stage / Server.attachPayloads). The writer ships only the
// maximal ready prefix, so reserved slots preserve FIFO order without
// holding the engine lock across store reads.
type session struct {
	id   core.ClientID
	conn Conn

	// cbDue maps an outstanding callback round id to its answer deadline.
	// cbMu guards the map itself (rounds from different shards share it,
	// and the watchdog scans it); arm-vs-cancel ordering for any one
	// round is already serialized by that round's shard lock.
	cbMu  sync.Mutex
	cbDue map[int64]time.Time

	// txnShards (write-grant footprint) and txnLastReq (shard of the most
	// recent read/write request) route commits and aborts to the shards
	// holding the transaction's state. Touched only by the goroutine
	// delivering this session's messages — the serve goroutine, or for
	// async sessions the one event loop that owns the connection — so
	// unguarded.
	txnShards  map[core.TxnID]uint64
	txnLastReq map[core.TxnID]uint64

	// async marks a reactor-driven session: no writer goroutine; ready
	// outbox entries are drained by pump, scheduled on the connection's
	// event loop via asyncConn.Kick. Set before the session is published,
	// read-only after.
	async bool

	mu      sync.Mutex
	cond    *sync.Cond
	outbox  []*outEntry
	pumping bool // async: a pump is mid-batch; keeps drains FIFO
	closed  bool
	dropped bool // outbox overflowed; the server is deposing this session
}

// outEntry is one staged outbound message. msg.Data and ready are written
// under session.mu (attachPayloads) before the writer reads them (also
// under session.mu), so the hand-off is properly fenced.
type outEntry struct {
	msg   core.Msg
	ready bool
}

func newSession(id core.ClientID, conn Conn) *session {
	s := &session{id: id, conn: conn, cbDue: make(map[int64]time.Time)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// armCB sets the answer deadline for callback round id.
func (s *session) armCB(id int64, due time.Time) {
	s.cbMu.Lock()
	s.cbDue[id] = due
	s.cbMu.Unlock()
}

// clearCB retires the deadline for round id, if armed.
func (s *session) clearCB(id int64) {
	s.cbMu.Lock()
	delete(s.cbDue, id)
	s.cbMu.Unlock()
}

// overdue reports whether any armed callback deadline has passed.
func (s *session) overdue(now time.Time) bool {
	s.cbMu.Lock()
	defer s.cbMu.Unlock()
	for _, due := range s.cbDue {
		if now.After(due) {
			return true
		}
	}
	return false
}

// push stages one entry. It reports overflow the first time the outbox
// exceeds limit (limit <= 0: unbounded) — the caller must then depose
// the session, because an outbox this deep means the client stopped
// draining its connection and every staged byte is dead weight.
func (s *session) push(e *outEntry, limit int) (overflow bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.outbox = append(s.outbox, e)
	if limit > 0 && len(s.outbox) > limit && !s.dropped {
		s.dropped = true
		overflow = true
	}
	s.mu.Unlock()
	if e.ready {
		s.wake()
	}
	return overflow
}

// wake tells the shipper that ready output exists: the parked writer
// goroutine for sync sessions, the connection's event loop for async
// ones. Kick is a non-blocking atomic flip (plus at most one pipe write),
// so callers may hold shard locks.
func (s *session) wake() {
	if !s.async {
		s.cond.Signal()
		return
	}
	if ac, ok := s.conn.(asyncConn); ok {
		ac.Kick()
	}
}

// enqueue appends one ready (payload-complete) message.
func (s *session) enqueue(m core.Msg) {
	s.push(&outEntry{msg: m, ready: true}, 0)
}

// markReady publishes e's payload to the writer and wakes it.
func (s *session) markReady(e *outEntry) {
	s.mu.Lock()
	e.ready = true
	s.mu.Unlock()
	s.wake()
}

// close stops the writer.
func (s *session) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// sendBatch ships msgs in order: staged and flushed once if the transport
// batches, one Send each otherwise. It stops at the first error; frames
// staged before it are still flushed.
func sendBatch(c Conn, msgs []*outEntry) error {
	bc, ok := c.(batchConn)
	if !ok {
		for _, e := range msgs {
			if err := c.Send(&e.msg); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	for _, e := range msgs {
		if err = bc.Stage(&e.msg); err != nil {
			break
		}
	}
	if ferr := bc.Flush(); err == nil {
		err = ferr
	}
	return err
}

// writer ships the outbox's maximal ready prefix, in order. It parks
// while the head entry awaits its payload — later ready entries must not
// overtake it (FIFO).
func (s *session) writer() {
	for {
		s.mu.Lock()
		for !s.closed && (len(s.outbox) == 0 || !s.outbox[0].ready) {
			s.cond.Wait()
		}
		n := 0
		for n < len(s.outbox) && s.outbox[n].ready {
			n++
		}
		if n == 0 {
			// Closed with nothing shippable at the head; any still-staged
			// entries die with the connection.
			s.mu.Unlock()
			return
		}
		batch := s.outbox[:n:n]
		s.outbox = s.outbox[n:]
		s.mu.Unlock()
		// The batch is staged and written with one syscall.
		if err := sendBatch(s.conn, batch); err != nil {
			return // connection gone; serve() will detach
		}
	}
}

// pump is the async (reactor) analogue of writer: it ships the outbox's
// maximal ready prefix, then returns instead of parking. The connection's
// event loop calls it whenever Kick signaled staged output. The pumping
// flag admits one drainer at a time, so FIFO holds even if a stray kick
// ever raced the owning loop; entries that become ready mid-batch are
// picked up by the re-check (their Kick may find pumping set, but this
// drainer clears the flag only after looking again).
func (s *session) pump() {
	s.mu.Lock()
	for {
		if s.pumping || s.closed {
			s.mu.Unlock()
			return
		}
		n := 0
		for n < len(s.outbox) && s.outbox[n].ready {
			n++
		}
		if n == 0 {
			s.mu.Unlock()
			return
		}
		batch := s.outbox[:n:n]
		s.outbox = s.outbox[n:]
		s.pumping = true
		s.mu.Unlock()
		// An error means the conn was deposed or failed; its close path
		// detaches us.
		ok := sendBatch(s.conn, batch) == nil
		s.mu.Lock()
		s.pumping = false
		if !ok {
			s.mu.Unlock()
			return
		}
	}
}

// OpenServer opens (creating if absent) the database in dir and recovers
// from the log. The directory holds "data.db" and "wal.log".
func OpenServer(dir string, opts ServerOptions) (*Server, error) {
	opts.defaults()
	if opts.Transport != TransportGoroutine && opts.Transport != TransportReactor {
		return nil, fmt.Errorf("live: unknown transport %q (want %q or %q)",
			opts.Transport, TransportGoroutine, TransportReactor)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dataPath := filepath.Join(dir, "data.db")
	walPath := filepath.Join(dir, "wal.log")

	var store objectStore
	var err error
	exists := true
	if _, statErr := os.Stat(dataPath); errors.Is(statErr, os.ErrNotExist) {
		exists = false
	}
	if opts.Recluster && opts.VariableObjects {
		return nil, fmt.Errorf("live: reclustering requires the fixed-slot store (the variable store relocates objects on its own terms)")
	}
	var relocs *relocTable
	if opts.VariableObjects {
		if opts.Proto != core.OS {
			return nil, fmt.Errorf("live: variable-size objects require the OS protocol (got %v): page images are not client-interpretable", opts.Proto)
		}
		if exists {
			store, err = OpenVStore(dataPath)
		} else {
			store, err = CreateVStore(dataPath, opts.PageSize, opts.ObjsPerPage, opts.NumPages)
		}
	} else if exists {
		store, err = OpenStore(dataPath)
	} else if opts.Recluster {
		// Reclustering reserves a spare region past the user-visible
		// geometry: migrations allocate destination slots there. The spare
		// count persists in relocs.db (written before the store can take a
		// commit), and clients are told only the user page count.
		store, err = CreateStore(dataPath, opts.PageSize, opts.ObjsPerPage, opts.NumPages+opts.ReclusterSpare)
		if err == nil {
			relocs = newRelocTable(int32(opts.ReclusterSpare))
			if err = relocs.save(dir); err != nil {
				store.Close()
			}
		}
	} else {
		store, err = CreateStore(dataPath, opts.PageSize, opts.ObjsPerPage, opts.NumPages)
	}
	if err != nil {
		return nil, err
	}
	if relocs == nil && !opts.VariableObjects {
		relocs, err = loadRelocTable(dir)
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	if store.ObjsPerPage() != opts.ObjsPerPage || store.NumPages() != opts.NumPages {
		opts.ObjsPerPage = store.ObjsPerPage()
		opts.NumPages = store.NumPages()
	}
	userPages := opts.NumPages
	if relocs != nil {
		userPages -= int(relocs.spare)
		if userPages <= 0 {
			store.Close()
			return nil, fmt.Errorf("live: %s claims %d spare pages but the store has only %d", relocFile, relocs.spare, opts.NumPages)
		}
	}

	// Redo recovery: one scan finds the append offset, the checkpoint
	// watermark, and the records to replay; the flushed store then makes
	// the log redundant. A crash anywhere in here (the recover.mid-replay
	// and store.flush.* crash points) leaves the log intact for the next
	// attempt — replay is idempotent, so recovering a half-recovered
	// store lands on the same bytes.
	wal, scan, err := OpenWAL(walPath)
	if err != nil {
		store.Close()
		return nil, err
	}
	recov, err := replayRecords(store, scan, opts.RecoveryJobs)
	if err != nil {
		store.Close()
		wal.Close()
		return nil, fmt.Errorf("live: recovery failed: %w", err)
	}
	// Relocation replay: fold every logged migration into the table, in
	// log order, and make the result durable BEFORE the log is truncated.
	// Records below a checkpoint watermark are already in the relocs.db
	// base (the checkpoint snapshots the table at its watermark), so
	// re-applying them is idempotent over that base.
	for _, rec := range scan.recs {
		if len(rec.Relocs) == 0 {
			continue
		}
		if relocs == nil {
			store.Close()
			wal.Close()
			return nil, fmt.Errorf("live: WAL holds relocation records but %s is missing", relocFile)
		}
		relocs.applyAll(rec.Relocs)
	}
	if relocs != nil && relocs.size() > 0 {
		if err := relocs.save(dir); err != nil {
			store.Close()
			wal.Close()
			return nil, err
		}
	}
	if err := wal.Truncate(); err != nil {
		store.Close()
		wal.Close()
		return nil, err
	}
	wal.SyncOnCommit = opts.SyncWAL
	wal.GroupCommitWindow = opts.GroupCommitWindow

	layout := core.NewLayout(opts.NumPages, opts.ObjsPerPage)
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts:       opts,
		layout:     layout,
		registry:   reg,
		metrics:    newServerMetrics(reg),
		tracer:     obs.NewTracer(opts.TraceBuf),
		heat:       obs.NewHeat(obs.HeatOptions{TopK: opts.HeatTopK}),
		spans:      obs.NewSpans(reg),
		flight:     obs.NewFlightRecorder(opts.BlackboxDir, opts.BlackboxMax),
		store:      store,
		wal:        wal,
		dir:        dir,
		relocs:     relocs,
		userPages:  userPages,
		recovery:   recov,
		blockStart: make(map[core.TxnID]time.Time),
	}
	if relocs != nil {
		s.fences = newFenceSet()
	}
	s.heat.SetEnabled(opts.Heat)
	s.heat.RegisterMetrics(reg)
	s.metrics.recoveryPagesReplayed.Add(int64(recov.PagesReplayed))
	s.metrics.recoveryPagesSkipped.Add(int64(recov.PagesSkipped))
	s.metrics.recoveryDurationNs.Add(recov.DurationNs)
	empty := make(map[core.ClientID]*session)
	s.sessions.Store(&empty)

	nsh := opts.Shards
	s.shards = make([]*engineShard, nsh)
	s.shardMask = uint32(nsh - 1)
	for i := 0; i < nsh; i++ {
		sh := &engineShard{idx: i, eng: core.NewServerEngine(opts.Proto, layout)}
		if nsh > 1 {
			// Stripe round ids (shard i issues i+1, i+1+n, ...): clients
			// key callback acks and deadlines by round id with no notion
			// of shards, so ids must be globally unique.
			sh.eng.ConfigureRoundIDs(int64(i+1), int64(nsh))
		}
		sh.eng.Trace = func(kind obs.EventKind, txn core.TxnID, client core.ClientID, obj core.ObjID, extra int64) {
			s.onEngineTrace(sh, kind, txn, client, obj, extra)
		}
		// FuncCounters registered by every shard under the same names sum
		// at collection time.
		sh.eng.RegisterMetrics(reg)
		label := strconv.Itoa(i)
		sh.lockWaitNs = reg.Histogram(obs.Labeled("oodb_live_shard_lock_wait_ns", "shard", label),
			"time spent waiting for one engine shard's lock, ns, by shard")
		sh.lockHoldNs = reg.Histogram(obs.Labeled("oodb_live_shard_lock_hold_ns", "shard", label),
			"time one engine shard's lock was held per acquisition, ns, by shard")
		s.shards[i] = sh
	}
	s.registerServerGauges(reg)
	wal.metrics = s.metrics
	if opts.CallbackTimeout > 0 {
		s.watchStop = make(chan struct{})
		s.watchDone = make(chan struct{})
		go s.watchdog()
	}
	s.heatStop = make(chan struct{})
	s.heatDone = make(chan struct{})
	go s.heatLoop()
	if nsh > 1 {
		s.dlPoke = make(chan struct{}, 1)
		s.dlStop = make(chan struct{})
		s.dlDone = make(chan struct{})
		go s.deadlockLoop()
	}
	if opts.Recluster && s.relocs != nil && s.relocs.spare > 0 {
		if err := s.startRecluster(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// watchdog periodically sweeps sessions for overdue callback answers and
// disconnects the offenders through the normal departure path (their
// callbacks are self-answered, copies dropped, transactions aborted).
func (s *Server) watchdog() {
	defer close(s.watchDone)
	interval := s.opts.CallbackTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-tick.C:
		}
		if s.closedFlag.Load() {
			return
		}
		now := time.Now()
		var dead []core.ClientID
		for id, sess := range s.sessionMap() {
			if sess.overdue(now) {
				dead = append(dead, id)
			}
		}
		for _, id := range dead {
			s.metrics.leaseExpiries.Inc()
			s.tracer.Emit(obs.EvLeaseExpiry, 0, int32(id), 0, 0, 0)
			s.detach(id)
		}
	}
}

// heatLoop rotates the heat collector's epoch on a fixed period so
// sketches decay and false-sharing scores fold while the collector is on.
// Rotation on a disabled (empty) collector is a few empty-map walks.
func (s *Server) heatLoop() {
	defer close(s.heatDone)
	tick := time.NewTicker(s.opts.HeatEpoch)
	defer tick.Stop()
	for {
		select {
		case <-s.heatStop:
			return
		case <-tick.C:
		}
		if s.closedFlag.Load() {
			return
		}
		s.heat.Rotate()
	}
}

// stopHeatLocked signals the heat rotation loop; the caller holds s.mu.
func (s *Server) stopHeatLocked() {
	if s.heatStop != nil {
		select {
		case <-s.heatStop:
		default:
			close(s.heatStop)
		}
	}
}

// stopWatchdogLocked signals the watchdog; the caller holds s.mu.
func (s *Server) stopWatchdogLocked() {
	if s.watchStop != nil {
		select {
		case <-s.watchStop:
		default:
			close(s.watchStop)
		}
	}
}

// stopDetectorLocked signals the cross-shard deadlock detector; the
// caller holds s.mu.
func (s *Server) stopDetectorLocked() {
	if s.dlStop != nil {
		select {
		case <-s.dlStop:
		default:
			close(s.dlStop)
		}
	}
}

// Proto returns the server's protocol.
func (s *Server) Proto() core.Protocol { return s.opts.Proto }

// Geometry returns the client-visible (numPages, objsPerPage, objSize).
// With reclustering the store carries a spare region past numPages that
// only migrations address; clients reach it solely through redirects.
func (s *Server) Geometry() (int, int, int) {
	return s.userPages, s.store.ObjsPerPage(), s.store.ObjSize()
}

// Sessions returns the number of attached client sessions.
func (s *Server) Sessions() int {
	return len(s.sessionMap())
}

// Stats returns a snapshot of the protocol engine statistics, summed
// across shards.
func (s *Server) Stats() core.ServerStats {
	var sum core.ServerStats
	for _, sh := range s.shards {
		sum.Add(sh.eng.Stats.Snapshot())
	}
	return sum
}

// Metrics returns the server's metrics registry. Collection takes the
// shard locks one at a time (never all at once), so a scrape can stall
// one shard briefly but cannot serialize the engine.
func (s *Server) Metrics() *obs.Registry { return s.registry }

// Tracer returns the server's event tracer (disabled until SetEnabled).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// TraceBufSize returns the trace ring's configured capacity.
func (s *Server) TraceBufSize() int {
	if s.opts.TraceBuf > 0 {
		return s.opts.TraceBuf
	}
	return obs.DefaultTraceBuf
}

// Heat returns the server's access-heat collector (disabled until
// SetEnabled or ServerOptions.Heat/OODB_HEAT).
func (s *Server) Heat() *obs.Heat { return s.heat }

// Spans returns the commit-stage span recorder.
func (s *Server) Spans() *obs.Spans { return s.spans }

// FlightDump writes a blackbox dump (trace ring + heat snapshot + spans +
// metrics) with the given reason and returns its path. A no-op returning
// "" when no BlackboxDir is configured. Use it from audit failures; the
// server triggers it itself on serve-path panics and injected fail-stops.
func (s *Server) FlightDump(reason string) (string, error) {
	return s.flight.Dump(reason, s.tracer, s.heat, s.spans, s.registry)
}

// Attach registers a new client session over conn and starts serving it.
// It returns the client id assigned to the session.
func (s *Server) Attach(conn Conn) (core.ClientID, error) {
	return s.attach(conn, false)
}

// attachInternal registers the reclustering planner's session: its hello
// advertises the PHYSICAL page count (the spare region included, since
// migrations write there directly), it bypasses the relocation front
// door, and every shard engine marks it a system client so its commits
// and aborts stay out of user-facing stats. One at a time.
func (s *Server) attachInternal(conn Conn) (core.ClientID, error) {
	return s.attach(conn, true)
}

func (s *Server) attach(conn Conn, internal bool) (core.ClientID, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("live: server closed")
	}
	s.nextID++
	id := s.nextID
	sess := newSession(id, conn)
	if ac, ok := conn.(asyncConn); ok {
		// Reactor-driven session: no writer or serve goroutines. Inbound
		// frames arrive as receiver callbacks on the connection's event
		// loop (one loop owns a connection, so handle calls stay
		// serialized exactly like a serve goroutine's); outbound entries
		// are drained by pump on that same loop. Handlers are installed
		// before the session is published and before the socket is
		// registered with epoll, so no callback can beat them.
		sess.async = true
		ac.SetHandlers(
			func(m *core.Msg, err error) {
				if err != nil {
					s.detach(sess.id)
					return
				}
				m.From = sess.id
				s.handle(sess, m, time.Now())
			},
			sess.pump,
		)
	}
	old := *s.sessions.Load()
	next := make(map[core.ClientID]*session, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = sess
	s.sessions.Store(&next)
	s.wal.SetDemand(len(next))
	if !sess.async {
		go sess.writer()
	}
	s.mu.Unlock()

	pages, opp, objSize := s.Geometry()
	if internal {
		pages = s.store.NumPages()
		for _, sh := range s.shards {
			held := s.lockShard(sh)
			sh.eng.SetSystemClient(id, true)
			s.unlockShard(sh, held)
		}
		s.internalID.Store(int64(id))
	}

	// Handshake: tell the client its id, the geometry, and the protocol.
	hello := &core.Msg{Kind: core.MHello, To: id, HelloID: id,
		HelloPages: int32(pages), HelloObjsPP: int32(opp), HelloObjSize: int32(objSize),
		HelloProto: s.opts.Proto, HelloVariable: s.opts.VariableObjects}
	sess.enqueue(*hello) // first message on the session, ahead of any grant

	if !sess.async {
		s.wg.Add(1)
		go s.serve(sess)
	}
	return id, nil
}

// detach removes a session and sweeps every shard for its protocol
// state. The session leaves the map before the sweep, so its serve
// goroutine's alive checks (under shard locks) fail from then on — no
// message it already received can recreate engine state after the sweep
// passed its shard (ghost resurrection).
func (s *Server) detach(id core.ClientID) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	old := *s.sessions.Load()
	sess, ok := old[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	next := make(map[core.ClientID]*session, len(old)-1)
	for k, v := range old {
		if k != id {
			next[k] = v
		}
	}
	s.sessions.Store(&next)
	s.wal.SetDemand(len(next))
	s.mu.Unlock()

	sess.close()
	// Watchdog-initiated detaches must also unblock the serve goroutine,
	// which is parked in conn.Recv.
	sess.conn.Close()

	// Clean up the ghost's protocol state on every shard; stage any
	// grants this unblocks. The shared seen set counts a transaction
	// holding locks on several shards as ONE abort.
	seen := make(map[core.TxnID]bool)
	var staged []stagedPayload
	var overflow []core.ClientID
	for _, sh := range s.shards {
		held := s.lockShard(sh)
		st, ov := s.stage(sh.eng.DisconnectDedup(id, seen))
		s.unlockShard(sh, held)
		staged = append(staged, st...)
		overflow = append(overflow, ov...)
	}
	s.bsMu.Lock()
	for t := range seen {
		delete(s.blockStart, t)
	}
	s.bsMu.Unlock()
	s.attachPayloads(staged)
	for _, oid := range overflow {
		s.detach(oid) // bounded: each recursion removes a session
	}
}

// panicDump writes the flight-recorder blackbox for a handling-path
// panic — the process is going down, so the dump comes first. Poisoning
// closedFlag makes the registry's shard-summing gauges short-circuit, so
// the dump cannot deadlock on a lock the panicking goroutine may hold.
// Shared by the serve goroutines and the reactor's event loops.
func (s *Server) panicDump(r any) {
	s.closedFlag.Store(true)
	s.flight.Dump(fmt.Sprintf("panic: %v", r), s.tracer, s.heat, s.spans, s.registry)
}

// serve pumps one session's incoming messages through the engine.
func (s *Server) serve(sess *session) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.panicDump(r)
			panic(r)
		}
	}()
	for {
		m, err := sess.conn.Recv()
		if err != nil {
			s.detach(sess.id)
			return
		}
		m.From = sess.id
		s.handle(sess, m, time.Now())
	}
}

// lockShard acquires one shard's lock, recording how long the caller
// waited for it, and returns the acquisition time for unlockShard's
// hold observation. Together the two histograms make the critical
// section's width observable: hold should cover only the engine step and
// staging, never store I/O or fsyncs.
func (s *Server) lockShard(sh *engineShard) time.Time {
	t0 := time.Now()
	sh.mu.Lock()
	t1 := time.Now()
	w := t1.Sub(t0).Nanoseconds()
	s.metrics.engineLockWaitNs.Observe(w)
	sh.lockWaitNs.Observe(w)
	return t1
}

// unlockShard records the hold time since lockShard and releases.
func (s *Server) unlockShard(sh *engineShard, acquired time.Time) {
	h := time.Since(acquired).Nanoseconds()
	s.metrics.engineLockHoldNs.Observe(h)
	sh.lockHoldNs.Observe(h)
	sh.mu.Unlock()
}

// handle runs one message through the engine shard(s) that own it and
// dispatches the responses. Everything that does not need engine state —
// WAL body encoding, the commit fsync wait, store payload reads —
// happens outside the shard locks. recvAt is when serve read the message
// off the transport (the commit-stage queue span starts there).
func (s *Server) handle(sess *session, m *core.Msg, recvAt time.Time) {
	kind := int(m.Kind)
	if kind < len(msgKindLabels) {
		s.metrics.reqs[kind].Inc()
	}
	start := time.Now()
	var syncWait time.Duration
	defer func() {
		if kind < len(msgKindLabels) {
			// The group-commit durability wait is fsync scheduling, not
			// processing; it is recorded separately (commitSyncWaitNs) so
			// handle latency stays honest.
			s.metrics.handleNs[kind].Observe((time.Since(start) - syncWait).Nanoseconds())
		}
	}()

	nsh := len(s.shards)

	// Piggybacked cache evictions touch arbitrary pages; with several
	// shards, strip them off the message and apply each to its owning
	// shard first (the single engine applies them inside Handle).
	if nsh > 1 && (len(m.DroppedPages) > 0 || len(m.DroppedObjs) > 0) {
		s.applyDroppedSharded(m)
	}

	// Encode the commit's WAL frame before taking any lock: the record
	// body is a pure function of the request, and encoding is the
	// expensive half of an append.
	// Relocations on a commit are the planner's privilege: they arrive
	// only over the in-process internal session (the wire codec does not
	// carry them), and anything else claiming some is stripped.
	if len(m.Relocs) > 0 && int64(m.From) != s.internalID.Load() {
		m.Relocs = nil
	}

	var rec *walRecord
	var frame []byte
	var queueDur, encodeDur time.Duration
	if m.Kind == core.MCommitReq && len(m.Updates) > 0 {
		encStart := time.Now()
		queueDur = encStart.Sub(recvAt)
		rec = &walRecord{Txn: m.Txn, Client: m.From, Commit: true, Relocs: m.Relocs}
		view := s.relocs.view()
		for _, o := range sortedUpdateKeys(m.Updates) {
			img := m.Updates[o]
			if to, ok := view.lookup(o); ok {
				// A blind write to a retired address (a PS page grant taken
				// before the move allows writes with no further request):
				// install at the object's current placement, where readers
				// are redirected. The engine's finish step still sees the
				// original address — that is where the locks live.
				o = to
			}
			rec.Objs = append(rec.Objs, o)
			rec.Images = append(rec.Images, img)
		}
		frame = encodeWALFrame(rec)
		encodeDur = time.Since(encStart)
	}

	if m.Kind == core.MCommitReq || m.Kind == core.MAbortReq {
		syncWait = s.finishTxnMsg(sess, m, rec, frame, queueDur, encodeDur)
		return
	}

	var sh *engineShard
	switch m.Kind {
	case core.MReadReq, core.MWriteReq:
		sh = s.shardOf(m.Obj.Page)
		if nsh > 1 {
			// Record the routing so the transaction's commit/abort visits
			// exactly the shards holding its state: write grants pin their
			// shard for good; the last request marks where a cancelled
			// request's residue (an aborted victim's record) may live.
			if m.Kind == core.MWriteReq {
				if sess.txnShards == nil {
					sess.txnShards = make(map[core.TxnID]uint64)
				}
				sess.txnShards[m.Txn] |= 1 << uint(sh.idx)
			}
			if sess.txnLastReq == nil {
				sess.txnLastReq = make(map[core.TxnID]uint64)
			}
			sess.txnLastReq[m.Txn] = 1 << uint(sh.idx)
		}
	case core.MCallbackAck, core.MDeescReply:
		sh = s.shardOf(m.Page)
	default:
		sh = s.shards[0]
	}
	s.engineStep(sess, sh, m)
}

// engineStep runs one message through a single shard's engine under its
// lock: alive check, engine dispatch, staging, callback-deadline
// bookkeeping; then payload attachment and overflow deposes off-lock.
func (s *Server) engineStep(sess *session, sh *engineShard, m *core.Msg) {
	held := s.lockShard(sh)
	if s.sessionOf(sess.id) != sess {
		// The session was detached (watchdog, overflow, close) and its
		// shard sweep serializes on this lock: processing a straggler
		// message now would recreate engine state nothing will ever
		// clean up.
		s.unlockShard(sh, held)
		return
	}

	// Relocation front door. A user read/write of a fenced (mid-migration)
	// object bounces with an empty MRelocated (retry shortly) so a
	// migration's lock request never chases a growing FIFO queue; a
	// request for a retired address answers with a redirect to its current
	// placement. Both checks run under the object's shard lock — the same
	// lock a migration commit holds while installing its relocations and
	// lifting its fences — so a request observes either the complete
	// pre-move state or the complete post-move state. The planner's own
	// session bypasses the door (it addresses spare slots directly), and
	// disabled reclustering costs one nil check.
	if s.relocs != nil && (m.Kind == core.MReadReq || m.Kind == core.MWriteReq) &&
		int64(m.From) != s.internalID.Load() {
		if s.fences.blocked(m.Obj) {
			s.unlockShard(sh, held)
			s.metrics.reclusterFenceBounces.Inc()
			sess.enqueue(core.Msg{Kind: core.MRelocated, To: m.From, Req: m.Req, Txn: m.Txn, Obj: m.Obj})
			return
		}
		if to, ok := s.relocs.view().lookup(m.Obj); ok {
			s.unlockShard(sh, held)
			s.metrics.reclusterRedirects.Inc()
			sess.enqueue(core.Msg{Kind: core.MRelocated, To: m.From, Req: m.Req, Txn: m.Txn,
				Obj: m.Obj, Objs: []core.ObjID{to}})
			return
		}
	}

	staged, overflow := s.stage(sh.eng.Handle(m))

	// Callback-deadline bookkeeping, after the engine step: any ack
	// proves the client is alive, and a busy reply defers the real
	// answer to the transaction's end — but only while its round is
	// still live. A busy ack racing a round cancellation (victim
	// aborted, requester disconnected) must not arm a lease the client
	// can never discharge.
	if m.Kind == core.MCallbackAck && s.opts.CallbackTimeout > 0 {
		sess.clearCB(m.Req)
		if m.Busy && sh.eng.RoundLive(m.Req) {
			sess.armCB(m.Req, time.Now().Add(s.opts.CallbackTimeout))
		}
	}

	s.unlockShard(sh, held)
	s.attachPayloads(staged)
	for _, id := range overflow {
		s.detach(id)
	}
}

// finishTxnMsg handles MCommitReq/MAbortReq: compute which shards hold
// the transaction's state, make the commit durable, then run the finish
// step on each shard.
//
// Durability and ordering (the invariants the old single-lock commit
// path guaranteed, restated for shards):
//
//   - acked => durable: the owner shard only produces MCommitAck after
//     WaitDurable returns, and a fail-stop during the sync kills the
//     server before any ack escapes. A failed or torn append poisons
//     the WAL (see appendFrame), so no later append can pave over a
//     tear and get acknowledged ahead of recovery's stopping point.
//   - the append + installs happen under ALL the write set's shard
//     locks (ascending order — canonical, so two multi-shard commits
//     cannot deadlock), with the transaction's engine write locks still
//     held. Two commits racing on the same object are therefore
//     serialized: the second cannot append/install until the first's
//     engine release — which happens after the first's install — so
//     WAL order matches install order per object.
//   - messages processed during our fsync window see the new store
//     bytes but the OLD lock state — our updated objects stay
//     write-locked (so unreadable/unwritable) until each shard
//     processes its slice of the commit after the sync.
//   - a reader that does observe committed-but-unacked bytes (other
//     objects on an updated page) can never commit "ahead" of us: the
//     WAL is sequential and synced is a prefix offset, so its record
//     durable implies ours durable.
//   - installs happen under installMu (shared) so Checkpoint's
//     flush-then-truncate (exclusive) cannot interleave with an
//     append/install pair: a WAL record is only ever truncated after a
//     store flush that covers its installs.
//
// It returns the group-commit durability wait so handle can keep the
// commit's handleNs honest (processing time, not fsync scheduling).
func (s *Server) finishTxnMsg(sess *session, m *core.Msg, rec *walRecord, frame []byte, queueDur, encodeDur time.Duration) (syncWait time.Duration) {
	mask := s.txnMask(sess, m)
	if rec != nil && len(s.shards) > 1 {
		// Relocation-aware installs may land on pages the request never
		// named (a translated blind write, or a migration's destination):
		// their shards' locks must be part of the append+install's
		// canonical set too.
		for _, o := range rec.Objs {
			mask |= 1 << uint(s.shardIdx(o.Page))
		}
	}

	if frame != nil {
		s.observeStage(obs.StageQueue, m.Txn, m.From, queueDur)
		s.observeStage(obs.StageEncode, m.Txn, m.From, encodeDur)
		ticket, gen, ok := s.appendAndInstall(sess, mask, rec, frame)
		if !ok {
			return
		}
		syncStart := time.Now()
		err := s.wal.WaitDurable(ticket, gen)
		syncWait = time.Since(syncStart)
		s.metrics.commitSyncWaitNs.Observe(syncWait.Nanoseconds())
		s.observeStage(obs.StageSyncWait, m.Txn, m.From, syncWait)
		if err != nil {
			if fault.IsCrash(err) || errors.Is(err, errWALCrashed) {
				// Injected fail-stop: die before acking the undurable
				// commit; the client sees its connection drop instead.
				s.crash(err)
				return
			}
			panic(fmt.Sprintf("live: WAL sync failed: %v", err))
		}
		if s.closedFlag.Load() {
			// A concurrent crash (or shutdown) won the race: the sessions
			// are gone and no ack may escape.
			return
		}
	}

	ackStart := time.Now()
	if bits.OnesCount64(mask) == 1 {
		// Single-shard finish (the overwhelming common case, and the
		// only case with one shard): the full engine dispatch on the
		// owning shard — identical to the unsharded path.
		s.engineStep(sess, s.shards[bits.TrailingZeros64(mask)], m)
	} else {
		s.multiShardFinish(sess, m, mask)
	}
	if frame != nil {
		s.observeStage(obs.StageAck, m.Txn, m.From, time.Since(ackStart))
	}
	return
}

// txnMask computes the set of shards a commit/abort must visit, as a
// bitmask: the recorded write-grant footprint, the shard of the last
// outstanding request (aborts: a cancelled victim's record lives
// there), and the shards of every page the message itself names. Zero
// (read-only finish with nothing recorded) falls back to shard 0.
func (s *Server) txnMask(sess *session, m *core.Msg) uint64 {
	if len(s.shards) == 1 {
		return 1
	}
	var mask uint64
	if sess.txnShards != nil {
		mask = sess.txnShards[m.Txn]
		delete(sess.txnShards, m.Txn)
	}
	if sess.txnLastReq != nil {
		if m.Kind == core.MAbortReq {
			mask |= sess.txnLastReq[m.Txn]
		}
		delete(sess.txnLastReq, m.Txn)
	}
	for _, p := range m.Pages {
		mask |= 1 << uint(s.shardIdx(p))
	}
	for o := range m.Updates {
		mask |= 1 << uint(s.shardIdx(o.Page))
	}
	for _, o := range m.Objs {
		mask |= 1 << uint(s.shardIdx(o.Page))
	}
	for _, p := range m.PurgedPages {
		mask |= 1 << uint(s.shardIdx(p))
	}
	for _, o := range m.PurgedObjs {
		mask |= 1 << uint(s.shardIdx(o.Page))
	}
	if mask == 0 {
		mask = 1
	}
	return mask
}

// appendAndInstall makes one commit's WAL append and store installs
// atomic with respect to the write set's shards: all of mask's shard
// locks are taken in ascending (canonical) order, the session's
// liveness is checked, and the frame write + object installs happen
// under them plus installMu (shared). ok=false means the commit was
// dropped (session detached — nothing was logged or installed) or the
// server crashed underneath it.
func (s *Server) appendAndInstall(sess *session, mask uint64, rec *walRecord, frame []byte) (ticket, gen int64, ok bool) {
	type heldShard struct {
		sh *engineShard
		at time.Time
	}
	lockStart := time.Now()
	var held []heldShard
	for rest := mask; rest != 0; rest &= rest - 1 {
		sh := s.shards[bits.TrailingZeros64(rest)]
		held = append(held, heldShard{sh, s.lockShard(sh)})
	}
	unlockAll := func() {
		for i := len(held) - 1; i >= 0; i-- {
			s.unlockShard(held[i].sh, held[i].at)
		}
	}

	if s.sessionOf(sess.id) != sess {
		// Detached while the request was in flight. Drop before logging
		// anything: the disconnect sweep has (or will have) released the
		// transaction's locks, and a stale install racing a successor
		// writer would reorder committed bytes.
		unlockAll()
		return 0, 0, false
	}

	s.installMu.RLock()
	locked := time.Now()
	s.observeStage(obs.StageLockWait, rec.Txn, rec.Client, locked.Sub(lockStart))
	ticket, gen, err := s.wal.appendFrame(frame)
	if err != nil {
		s.installMu.RUnlock()
		unlockAll()
		if fault.IsCrash(err) || errors.Is(err, errWALCrashed) {
			s.crash(err)
			return 0, 0, false
		}
		panic(fmt.Sprintf("live: WAL append failed: %v", err))
	}
	appended := time.Now()
	s.observeStage(obs.StageAppend, rec.Txn, rec.Client, appended.Sub(locked))
	if len(rec.Relocs) > 0 {
		if err := cpReclusterMidMove.Check(); err != nil {
			s.installMu.RUnlock()
			unlockAll()
			s.crash(err)
			return 0, 0, false
		}
	}
	for i, o := range rec.Objs {
		if err := s.store.WriteObj(o, rec.Images[i]); err != nil {
			if s.closedFlag.Load() {
				// A concurrent commit's injected crash closed the store
				// under us; the server is already fail-stopped.
				s.installMu.RUnlock()
				unlockAll()
				return 0, 0, false
			}
			panic(fmt.Sprintf("live: commit install failed: %v", err))
		}
	}
	if len(rec.Relocs) > 0 {
		// Publish the relocations and lift the fences while the write
		// set's shard locks (and installMu) are still held: a front-door
		// check for any moved object serializes on its shard lock, and a
		// checkpoint's relocs.db snapshot serializes on installMu, so
		// redirects become visible atomically with the installed bytes
		// and the table never runs ahead of the log.
		s.relocs.applyAll(rec.Relocs)
		froms := make([]core.ObjID, len(rec.Relocs))
		for i, r := range rec.Relocs {
			froms[i] = r.From
		}
		s.fences.remove(froms)
		s.metrics.reclusterMoves.Add(int64(len(rec.Relocs)))
	}
	s.observeStage(obs.StageInstall, rec.Txn, rec.Client, time.Since(appended))
	s.installMu.RUnlock()
	unlockAll()
	return ticket, gen, true
}

// multiShardFinish runs a commit/abort's engine step on every shard in
// mask, ascending, one lock at a time. The highest shard is the owner:
// it counts the transaction's outcome, emits the trace event, and (for
// commits) sends the MCommitAck — last, so every other shard has
// already released the transaction's locks when the client learns the
// outcome. Per-shard message slices are subset to that shard's pages.
func (s *Server) multiShardFinish(sess *session, m *core.Msg, mask uint64) {
	isCommit := m.Kind == core.MCommitReq
	if isCommit {
		s.metrics.multiShardCommits.Inc()
	}
	owner := 63 - bits.LeadingZeros64(mask)
	var staged []stagedPayload
	var overflow []core.ClientID
	for rest := mask; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		sh := s.shards[i]
		sub := s.subsetFinishMsg(m, i, isCommit)
		held := s.lockShard(sh)
		var outs []core.Msg
		if isCommit {
			outs = sh.eng.HandleCommitShard(sub, i == owner)
		} else {
			outs = sh.eng.HandleAbortShard(sub, i == owner)
		}
		st, ov := s.stage(outs)
		s.unlockShard(sh, held)
		staged = append(staged, st...)
		overflow = append(overflow, ov...)
	}
	s.bsMu.Lock()
	delete(s.blockStart, m.Txn)
	s.bsMu.Unlock()
	s.attachPayloads(staged)
	for _, id := range overflow {
		s.detach(id)
	}
}

// subsetFinishMsg copies m with its page-keyed slices filtered to shard
// idx. Pages is passed whole for commits (a foreign page holds no locks
// on this shard and contributes nothing to merge accounting); Objs and
// the Purged lists must be subset because their lengths feed counters
// and their pages feed copy-table dereg.
func (s *Server) subsetFinishMsg(m *core.Msg, idx int, isCommit bool) *core.Msg {
	sub := *m
	if isCommit {
		if len(m.Objs) > 0 {
			sub.Objs = nil
			for _, o := range m.Objs {
				if s.shardIdx(o.Page) == idx {
					sub.Objs = append(sub.Objs, o)
				}
			}
		}
		return &sub
	}
	if len(m.PurgedPages) > 0 {
		sub.PurgedPages = nil
		for _, p := range m.PurgedPages {
			if s.shardIdx(p) == idx {
				sub.PurgedPages = append(sub.PurgedPages, p)
			}
		}
	}
	if len(m.PurgedObjs) > 0 {
		sub.PurgedObjs = nil
		for _, o := range m.PurgedObjs {
			if s.shardIdx(o.Page) == idx {
				sub.PurgedObjs = append(sub.PurgedObjs, o)
			}
		}
	}
	return &sub
}

// applyDroppedSharded strips m's piggybacked cache evictions and applies
// each to the shard owning its page.
func (s *Server) applyDroppedSharded(m *core.Msg) {
	type group struct {
		pages []core.PageID
		objs  []core.ObjID
	}
	groups := make([]group, len(s.shards))
	for _, p := range m.DroppedPages {
		i := s.shardIdx(p)
		groups[i].pages = append(groups[i].pages, p)
	}
	for _, o := range m.DroppedObjs {
		i := s.shardIdx(o.Page)
		groups[i].objs = append(groups[i].objs, o)
	}
	for i := range groups {
		g := &groups[i]
		if len(g.pages) == 0 && len(g.objs) == 0 {
			continue
		}
		sh := s.shards[i]
		held := s.lockShard(sh)
		sh.eng.ApplyDropped(m.From, g.pages, g.objs)
		s.unlockShard(sh, held)
	}
	m.DroppedPages, m.DroppedObjs = nil, nil
}

// stagedPayload is a reserved outbox slot awaiting its payload.
type stagedPayload struct {
	sess *session
	e    *outEntry
}

// stage reserves outbox slots for the engine's outputs, in engine order
// (the wire order), under the emitting shard's lock. Messages that need
// no store payload are ready immediately; data grants are staged unready
// and returned for attachPayloads to fill outside the lock. It also arms
// callback deadlines and reports sessions whose outbox overflowed (the
// caller must detach those after releasing the lock).
func (s *Server) stage(outs []core.Msg) (staged []stagedPayload, overflow []core.ClientID) {
	sessions := s.sessionMap()
	for _, om := range outs {
		sess := sessions[om.To]
		if sess == nil {
			continue // client departed; detach cleans its state up
		}
		e := &outEntry{msg: om}
		switch om.Kind {
		case core.MPageData, core.MObjData:
			if om.Kind == core.MPageData && s.relocs != nil {
				// A granted page may carry retired (moved-away-from) slots:
				// mark them unavailable so the client's cached copy routes
				// their reads back to the server, which redirects. Staged
				// under the emitting shard's lock, so the marks match the
				// relocation state the grant was decided under.
				if ret := s.relocs.view().retiredSlots(om.Page); len(ret) > 0 {
					e.msg.Unavail = append(append([]uint16(nil), e.msg.Unavail...), ret...)
				}
			}
			staged = append(staged, stagedPayload{sess, e})
		case core.MCallback:
			if s.opts.CallbackTimeout > 0 {
				sess.armCB(om.Req, time.Now().Add(s.opts.CallbackTimeout))
			}
			e.ready = true
		default:
			e.ready = true
		}
		if sess.push(e, s.opts.OutboxLimit) {
			s.metrics.outboxDeposes.Inc()
			overflow = append(overflow, om.To)
		}
	}
	return staged, overflow
}

// attachPayloads reads the store payloads for slots stage reserved and
// publishes them to the session writers. It runs WITHOUT any shard
// lock; the store's page latches (shared here, exclusive in commit
// installs) keep each copy untorn.
//
// The payload still matches the lock state at grant time: a conflicting
// writer can install new bytes for a granted object only after calling
// back every registered copy — and the copy was registered under the
// page's shard lock when this grant was staged. The recipient answers
// that callback only after its client-side receive loop has consumed
// this very message, which the FIFO outbox orders behind nothing that
// hasn't been sent — so the install strictly follows this read. Slots
// the grant marked Unavail are the one exception: their bytes may move
// underneath us, but clients never read Unavail slots from a granted
// page.
func (s *Server) attachPayloads(staged []stagedPayload) {
	for _, sp := range staged {
		var data []byte
		var err error
		if sp.e.msg.Kind == core.MPageData {
			data, err = s.store.ReadPage(sp.e.msg.Page)
		} else {
			data, err = s.store.ReadObj(sp.e.msg.Obj)
		}
		if err != nil {
			if s.closedFlag.Load() {
				return // crashed underneath us; sessions are gone anyway
			}
			panic(fmt.Sprintf("live: payload read failed: %v", err))
		}
		sp.e.msg.Data = data
		sp.sess.markReady(sp.e)
	}
}

func sortedUpdateKeys(m map[core.ObjID][]byte) []core.ObjID {
	keys := make([]core.ObjID, 0, len(m))
	for o := range m {
		keys = append(keys, o)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.Page < b.Page || (a.Page == b.Page && a.Slot < b.Slot)
	})
	return keys
}

// ListenAndServe accepts TCP connections on addr until Close. The
// per-session machinery behind each accepted socket is chosen by
// ServerOptions.Transport; the handshake always runs on a short-lived
// goroutine per accept (bounded by handshakeTimeout), so a slowloris
// dialer that never sends its version byte cannot stall other accepts
// under either transport.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	attach := s.attachGoroutine
	transport := TransportGoroutine
	if s.opts.Transport == TransportReactor {
		if r, rerr := newReactor(s); rerr == nil {
			s.reactor.Store(r)
			attach = func(c net.Conn) { s.attachReactor(r, c) }
			transport = TransportReactor
		}
		// else: no epoll on this platform — fall back cleanly to the
		// goroutine transport; Conn semantics are identical.
	}
	s.mu.Lock()
	if s.closed {
		// Close already ran: it cannot have seen this listener or
		// reactor, so tear them down here.
		s.mu.Unlock()
		ln.Close()
		if r := s.reactor.Load(); r != nil {
			r.shutdown()
		}
		return nil
	}
	s.ln = ln
	s.transport = transport
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Version handshake off the accept loop, so one slow or
		// wrong-protocol dialer cannot stall other accepts.
		go func(c net.Conn) {
			if err := acceptHandshake(c); err != nil {
				c.Close()
				return
			}
			attach(c)
		}(c)
	}
}

// attachGoroutine runs a handshaken connection on the classic
// goroutine-per-connection transport.
func (s *Server) attachGoroutine(c net.Conn) {
	if _, err := s.Attach(NewTCPConn(c)); err != nil {
		c.Close()
	}
}

// Transport reports the transport in effect for TCP sessions: the
// configured one, or the goroutine fallback when the reactor is
// unsupported on this platform. Before ListenAndServe it reports the
// configured transport.
func (s *Server) Transport() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.transport != "" {
		return s.transport
	}
	return s.opts.Transport
}

// Addr returns the TCP listen address, if listening.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// RecoveryStats reports what the opening replay did: records and pages
// replayed vs skipped below the checkpoint watermark, worker count, and
// wall time.
func (s *Server) RecoveryStats() RecoveryStats { return s.recovery }

// Checkpoint makes the store cover a prefix of the log, then discards
// that prefix. The crash-safety invariant is the same as the old
// stop-world version — the log may only lose a record once every install
// it covers is durably in the store — but the world barely stops:
//
//  1. Take installMu exclusively just long enough to read the log tail W
//     (no I/O under the lock). Commits hold installMu shared across their
//     append+install pair, so every record below W has fully installed:
//     its pages are dirty in memory (or already on disk).
//  2. Force the WAL durable through W (ForceTo). This is the write-ahead
//     rule: commits fsync only in WaitDurable, AFTER installing, so a
//     record below W can be installed yet not yet durable — and no page
//     image may reach the store file before the records covering it are
//     on disk, or a crash would durably keep partial effects of a
//     transaction whose record died in the log's unsynced tail.
//  3. Flush one engine shard's pages at a time (FlushOwned), each page
//     under its own latch. Commits keep flowing: an install racing the
//     flush either lands before the page's copy (flushed now) or after
//     (re-dirties the page for the next checkpoint — and its record sits
//     at or above W, surviving the truncation). Records appended after W
//     can land in copied images too, so each FlushOwned re-forces the WAL
//     through its current tail between copying its pages and writing them
//     (the force hook) — the same write-ahead rule, extended to the
//     commits that flowed during the checkpoint.
//  4. Append a watermark frame ("records ending below W are in the
//     store") and wait for its durability.
//  5. Truncate the prefix below W (TruncatePrefix; rename + dir fsync).
//
// A crash before 4 leaves the log intact (forced at least as far as any
// flushed page's records) and replay is idempotent; a crash between 4
// and 5 leaves the watermark, and recovery skips the covered prefix; a
// crash inside 5 leaves either the old or the new log file, never a torn
// one (the checkpoint.* and store.flush.* crash points exercise each
// window). The variable store keeps the stop-world flush — its installs
// relocate objects across pages, so only a flush with installs excluded
// sees a stable layout — but gains the same WAL force (to W, which with
// installs excluded covers everything installed) and watermark + prefix
// truncation.
func (s *Server) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	if s.closed {
		failed := s.failed
		s.mu.Unlock()
		if failed != nil {
			return failed
		}
		return fmt.Errorf("live: server closed")
	}
	s.mu.Unlock()
	start := time.Now()

	var watermark int64
	var relocSnap []byte
	flushed := 0
	if st, fixed := s.store.(*Store); fixed {
		s.installMu.Lock()
		watermark = s.wal.tail()
		if s.relocs != nil {
			// Snapshot the relocation table at the watermark, under
			// installMu exclusive: migrations apply their relocations under
			// installMu shared (with their append), so this snapshot covers
			// exactly the records below W — never a relocation whose record
			// (and installs) could die unsynced with the crash.
			relocSnap = s.relocs.encode()
		}
		s.installMu.Unlock()
		if err := s.wal.ForceTo(watermark); err != nil {
			if fault.IsCrash(err) {
				s.crash(err)
			}
			return err
		}
		// Per-shard write-ahead hook: re-force through the tail read after
		// the shard's pages were copied, covering commits that installed
		// while earlier shards flushed (see FlushOwned).
		force := func() error { return s.wal.ForceTo(s.wal.tail()) }
		for i := range s.shards {
			n, err := st.FlushOwned(func(p core.PageID) bool { return s.shardIdx(p) == i }, force)
			if err != nil {
				if fault.IsCrash(err) {
					s.crash(err)
				}
				return err
			}
			flushed += n
		}
	} else {
		s.installMu.Lock()
		watermark = s.wal.tail()
		if s.relocs != nil {
			relocSnap = s.relocs.encode()
		}
		// Installs are excluded for the whole stop-world flush, so forcing
		// through W covers every record that could be in a flushed page.
		err := s.wal.ForceTo(watermark)
		if err == nil {
			flushed = s.store.DirtyPages()
			err = s.store.Flush()
		}
		s.installMu.Unlock()
		if err != nil {
			if fault.IsCrash(err) {
				s.crash(err)
			}
			return err
		}
	}
	s.metrics.flushPages.Add(int64(flushed))
	if relocSnap != nil {
		// The watermark retires the log prefix holding these relocations'
		// records; the base file must cover them first (write-ahead for
		// the side file).
		if err := writeRelocFile(s.dir, relocSnap); err != nil {
			if fault.IsCrash(err) {
				s.crash(err)
			}
			return err
		}
	}
	if err := cpCheckpointMid.Check(); err != nil {
		s.crash(err)
		return err
	}
	if err := cpCheckpointPreWM.Check(); err != nil {
		s.crash(err)
		return err
	}
	ticket, gen, err := s.wal.appendCheckpoint(watermark)
	if err != nil {
		if fault.IsCrash(err) {
			s.crash(err)
		}
		return err
	}
	if err := s.wal.WaitDurable(ticket, gen); err != nil {
		if fault.IsCrash(err) {
			s.crash(err)
		}
		return err
	}
	if err := cpCheckpointPostWM.Check(); err != nil {
		s.crash(err)
		return err
	}
	if err := s.wal.TruncatePrefix(watermark); err != nil {
		if fault.IsCrash(err) {
			s.crash(err)
		}
		return err
	}
	s.metrics.checkpointNs.Observe(time.Since(start).Nanoseconds())
	s.metrics.checkpoints.Inc()
	return nil
}

// crash fail-stops the server (s.mu taken here).
func (s *Server) crash(cause error) {
	s.mu.Lock()
	s.crashLocked(cause)
	s.mu.Unlock()
}

// crashLocked fail-stops the server as an injected crash dictates: every
// session drops, nothing is flushed, and WAL bytes that were never fsynced
// are discarded (they lived in the dying machine's page cache). The data
// directory is left exactly as a real crash would, ready for recovery by a
// fresh OpenServer. Caller holds s.mu.
func (s *Server) crashLocked(cause error) {
	if s.closed {
		return
	}
	s.closed = true
	s.closedFlag.Store(true)
	s.failed = cause
	s.stopWatchdogLocked()
	s.stopDetectorLocked()
	s.stopHeatLocked()
	s.stopReclusterLocked()
	if s.ln != nil {
		s.ln.Close()
	}
	if r := s.reactor.Load(); r != nil {
		r.stop() // signal only: crashLocked may run ON a loop goroutine
	}
	for _, sess := range s.sessionMap() {
		sess.close()
		sess.conn.Close()
	}
	empty := make(map[core.ClientID]*session)
	s.sessions.Store(&empty)
	s.wal.crash()
	s.store.closeRaw()
	// Blackbox last, with closedFlag set: the shard-summing gauges
	// short-circuit to 0, so the dump reads only atomics and the trace
	// ring and cannot deadlock on engine state the crash interrupted.
	s.flight.Dump("fail-stop: "+cause.Error(), s.tracer, s.heat, s.spans, s.registry)
}

// Crash simulates fail-stop process death (for tests and the recovery
// fuzzer): connections drop and the in-memory store dies without a flush.
// Idempotent; returns the injected crash that already stopped the server,
// if any.
func (s *Server) Crash() error {
	s.mu.Lock()
	failed := s.failed
	s.crashLocked(errors.New("live: server crashed (simulated)"))
	s.mu.Unlock()
	s.wg.Wait()
	if r := s.reactor.Load(); r != nil {
		r.shutdown()
	}
	if s.watchDone != nil {
		<-s.watchDone
	}
	if s.dlDone != nil {
		<-s.dlDone
	}
	if s.heatDone != nil {
		<-s.heatDone
	}
	if s.recl != nil {
		<-s.recl.done
	}
	return failed
}

// Failed returns the injected crash that fail-stopped the server, or nil.
func (s *Server) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Close shuts the server down: sessions are closed, the store is flushed
// (making the log redundant), and files are closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// A crash may have signaled the reactor without waiting for its
		// loops (crashLocked can run on one); join them here so a crash
		// followed by Close leaks nothing.
		if r := s.reactor.Load(); r != nil {
			r.shutdown()
		}
		return nil
	}
	s.closed = true
	s.closedFlag.Store(true)
	s.stopWatchdogLocked()
	s.stopDetectorLocked()
	s.stopHeatLocked()
	s.stopReclusterLocked()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, sess := range s.sessionMap() {
		sess.close()
		sess.conn.Close()
	}
	empty := make(map[core.ClientID]*session)
	s.sessions.Store(&empty)
	s.mu.Unlock()

	s.wg.Wait()
	// Join the reactor loops before tearing the store and WAL down: a
	// loop may be mid-handle (the async analogue of a serve goroutine),
	// and acked work must land before files close.
	if r := s.reactor.Load(); r != nil {
		r.shutdown()
	}
	if s.watchDone != nil {
		<-s.watchDone
	}
	if s.dlDone != nil {
		<-s.dlDone
	}
	if s.heatDone != nil {
		<-s.heatDone
	}
	if s.recl != nil {
		<-s.recl.done
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	if s.relocs != nil {
		// The clean-shutdown contract makes the log redundant; that now
		// includes its relocation records, so the side file must be
		// current before the truncate below.
		if err := s.relocs.save(s.dir); err != nil {
			firstErr = err
		}
	}
	if err := s.store.Close(); err != nil {
		if firstErr == nil {
			firstErr = err
		}
	} else if err := s.wal.Truncate(); err != nil && firstErr == nil {
		// Only truncate once the store is durably flushed.
		firstErr = err
	}
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
