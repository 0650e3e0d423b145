package live

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// startTransportServer opens a server with the given transport on a
// loopback listener and waits for it to publish an address. On platforms
// without epoll the reactor request falls back to goroutine-per-conn;
// tests that need reactor-specific behavior check srv.Transport() and
// skip on the fallback.
func startTransportServer(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := OpenServer(dir, opts)
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for addr = srv.Addr(); addr == ""; addr = srv.Addr() {
		if time.Now().After(deadline) {
			srv.Close()
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	return srv, addr
}

// TestReactorTransportCommit: the reactor transport must be semantically
// invisible — the same commit/read-back flow as TestTCPTransport, with
// visibility across two clients, just with sessions owned by event loops
// instead of serve goroutines.
func TestReactorTransportCommit(t *testing.T) {
	srv, addr := startTransportServer(t, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: false, Transport: TransportReactor,
	})
	defer srv.Close()

	dial := func() *Client {
		conn, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Connect(conn, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	c1 := dial()
	defer c1.Close()
	c2 := dial()
	defer c2.Close()

	tx, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(1, 2), []byte("via reactor")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx2.Read(o(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("via reactor")) {
		t.Fatalf("read back %q", got)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReactorManyClients: concurrent commits from many clients, each in a
// private page region, all multiplexed over a handful of event loops.
// Exercises handler/pump interleaving under -race.
func TestReactorManyClients(t *testing.T) {
	const nClients = 16
	srv, addr := startTransportServer(t, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4,
		NumPages: nClients, SyncWAL: false, Transport: TransportReactor,
	})
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			cl, err := Connect(conn, ClientOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			page := core.PageID(i)
			for rep := 0; rep < 5; rep++ {
				tx, err := cl.Begin()
				if err != nil {
					errs <- fmt.Errorf("client %d begin: %w", i, err)
					return
				}
				if err := tx.Write(o(page, uint16(rep%4)), []byte{byte(i), byte(rep)}); err != nil {
					errs <- fmt.Errorf("client %d write: %w", i, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("client %d commit: %w", i, err)
					return
				}
			}
			tx, err := cl.Begin()
			if err != nil {
				errs <- err
				return
			}
			got, err := tx.Read(o(page, 0))
			if err != nil {
				errs <- fmt.Errorf("client %d read back: %w", i, err)
				return
			}
			if got[0] != byte(i) {
				errs <- fmt.Errorf("client %d read %d, want %d", i, got[0], i)
				return
			}
			tx.Commit()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// countGoroutines settles the runtime before sampling so freshly dead
// goroutines don't inflate the count.
func countGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		runtime.Gosched()
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestReactorGoroutineCountIdleSessions: the whole point of the reactor
// — N idle sessions must cost O(loops) server goroutines, not O(N).
// Client conns run no goroutine of their own (sends are write-through),
// so the whole process delta is the server's; the goroutine transport
// would add 2 per session (serve, writer).
func TestReactorGoroutineCountIdleSessions(t *testing.T) {
	const nConns = 200
	srv, addr := startTransportServer(t, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 8,
		SyncWAL: false, Transport: TransportReactor,
	})
	defer srv.Close()
	if srv.Transport() != TransportReactor {
		t.Skipf("reactor unavailable on this platform (fell back to %q)", srv.Transport())
	}

	before := countGoroutines()
	conns := make([]Conn, 0, nConns)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < nConns; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, c)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Sessions() != nConns {
		if time.Now().After(deadline) {
			t.Fatalf("sessions = %d, want %d", srv.Sessions(), nConns)
		}
		time.Sleep(5 * time.Millisecond)
	}

	after := countGoroutines()
	// Allow the loops plus slack for accept machinery and runtime noise
	// — a small constant, nowhere near one goroutine per session.
	if limit := len(srv.reactor.Load().loops) + 8; after-before > limit {
		t.Fatalf("goroutines grew by %d for %d sessions (limit %d); not O(loops)",
			after-before, nConns, limit)
	}
	t.Logf("goroutines: %d -> %d for %d idle sessions", before, after, nConns)
}

// TestReactorCrashWithLiveSessions fail-stops a reactor server while
// clients are mid-transaction. The crash closes every session (each
// close records its connection's terminal error) while the stopped loops
// sweep and tear down the same connections; under the race detector
// this checks that hand-off. Every client must then see its connection
// fail rather than hang.
func TestReactorCrashWithLiveSessions(t *testing.T) {
	const nClients = 32
	srv, addr := startTransportServer(t, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4,
		NumPages: nClients, SyncWAL: false, Transport: TransportReactor,
		ReactorLoops: 2,
	})
	defer srv.Close()
	if srv.Transport() != TransportReactor {
		t.Skipf("reactor unavailable on this platform (fell back to %q)", srv.Transport())
	}

	var started, wg sync.WaitGroup
	started.Add(nClients)
	wg.Add(nClients)
	for i := 0; i < nClients; i++ {
		go func(i int) {
			defer wg.Done()
			conn, err := Dial(addr)
			if err != nil {
				started.Done()
				return
			}
			cl, err := Connect(conn, ClientOptions{})
			if err != nil {
				started.Done()
				return
			}
			defer cl.Close()
			once := false
			for {
				tx, err := cl.Begin()
				if err == nil {
					err = tx.Write(o(core.PageID(i), 0), []byte{byte(i)})
				}
				if err == nil {
					err = tx.Commit()
				}
				if !once {
					once = true
					started.Done()
				}
				if err != nil {
					return // the crash reached this client
				}
			}
		}(i)
	}
	started.Wait()
	srv.Crash()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("clients still running 15s after the crash")
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions survived the crash", n)
	}
}

// TestReactorSlowReaderDeposed: a session that requests pages but never
// drains its socket must be deposed once its pending-write queue passes
// ReactorDrainCap — not allowed to pin queue memory forever.
func TestReactorSlowReaderDeposed(t *testing.T) {
	const nPages = 2048 // 8 MiB of page data, well past kernel buffering
	srv, addr := startTransportServer(t, ServerOptions{
		Proto: core.PSAA, PageSize: 4096, ObjsPerPage: 4, NumPages: nPages,
		SyncWAL: false, Transport: TransportReactor,
		ReactorDrainCap: 32 << 10,
		OutboxLimit:     -1, // the reactor's byte cap must be the depose path under test
	})
	defer srv.Close()
	if srv.Transport() != TransportReactor {
		t.Skipf("reactor unavailable on this platform (fell back to %q)", srv.Transport())
	}

	// Raw dial so the client's receive buffer can be pinned small — the
	// kernel must not absorb the whole reply stream on our behalf.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).SetReadBuffer(4096)
	if _, err := nc.Write([]byte{wireVersion}); err != nil {
		t.Fatal(err)
	}
	conn := NewTCPConn(nc)
	defer conn.Close()
	// Read the hello, then go silent on the receive side while requesting
	// page after page. Each first read of a page ships ~4 KiB of data;
	// once the kernel socket buffers fill, replies land in the reactor's
	// pending queue and blow past the 32 KiB cap.
	if _, err := conn.Recv(); err != nil {
		t.Fatalf("hello: %v", err)
	}
	deposed := func() bool {
		return srv.Sessions() == 0 &&
			srv.Metrics().CounterValue("oodb_live_reactor_deposes_total") >= 1
	}
	fl := conn.(batchConn)
	for i := 0; i < nPages && !deposed(); i++ {
		m := &core.Msg{Kind: core.MReadReq, Txn: 999,
			Obj: o(core.PageID(i), 0), Page: core.PageID(i)}
		if err := conn.Send(m); err != nil {
			break // server already cut us off
		}
		if i%64 == 63 {
			if err := fl.Flush(); err != nil {
				break
			}
		}
	}
	fl.Flush()
	deadline := time.Now().Add(15 * time.Second)
	for !deposed() {
		if time.Now().After(deadline) {
			t.Fatalf("slow reader never deposed: sessions=%d deposes=%d",
				srv.Sessions(), srv.Metrics().CounterValue("oodb_live_reactor_deposes_total"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSlowlorisAccept: connections that never send their version byte
// must neither delay other handshakes nor outlive handshakeTimeout —
// under both transports, since the accept path is shared.
func TestSlowlorisAccept(t *testing.T) {
	saved := handshakeTimeout
	handshakeTimeout = 300 * time.Millisecond
	defer func() { handshakeTimeout = saved }()

	for _, transport := range []string{TransportGoroutine, TransportReactor} {
		t.Run(transport, func(t *testing.T) {
			srv, addr := startTransportServer(t, ServerOptions{
				Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 8,
				SyncWAL: false, Transport: transport,
			})
			defer srv.Close()

			// Open silent connections that hold the handshake hostage.
			const nSilent = 5
			silent := make([]net.Conn, 0, nSilent)
			defer func() {
				for _, c := range silent {
					c.Close()
				}
			}()
			for i := 0; i < nSilent; i++ {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				silent = append(silent, c)
			}

			// Honest clients must get through while the silent conns dangle.
			start := time.Now()
			const nGood = 3
			for i := 0; i < nGood; i++ {
				conn, err := Dial(addr)
				if err != nil {
					t.Fatalf("honest dial %d: %v", i, err)
				}
				cl, err := Connect(conn, ClientOptions{})
				if err != nil {
					t.Fatalf("honest connect %d: %v", i, err)
				}
				defer cl.Close()
				tx, err := cl.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(o(0, 0), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if el := time.Since(start); el > 5*time.Second {
				t.Fatalf("honest handshakes took %v behind slowloris conns", el)
			}

			// The silent conns must be cut loose once handshakeTimeout
			// passes — the server closes them, so a read sees EOF/reset.
			for i, c := range silent {
				c.SetReadDeadline(time.Now().Add(10 * handshakeTimeout))
				var b [1]byte
				if _, err := c.Read(b[:]); err == nil {
					t.Fatalf("silent conn %d got data, want close", i)
				} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("silent conn %d still open %v after handshake timeout", i, 10*handshakeTimeout)
				}
			}
			if n := srv.Sessions(); n != nGood {
				t.Fatalf("sessions = %d, want %d (silent conns must not become sessions)", n, nGood)
			}
		})
	}
}
