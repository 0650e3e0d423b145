package live

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// abortWatchConn counts the MAbortYou messages a client receives and
// how many of them name no request (Req 0).
type abortWatchConn struct {
	Conn
	aborts, reqZero atomic.Int64
}

func (c *abortWatchConn) Recv() (*core.Msg, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == core.MAbortYou {
		c.aborts.Add(1)
		if m.Req == 0 {
			c.reqZero.Add(1)
		}
	}
	return m, err
}

// TestShardDeadlockVictimMustWaitOnItsShard aborts cross-shard victims
// directly on a two-shard server: a transaction that holds locks on a
// shard but no longer waits there is left alone (the cycle through that
// shard has dissolved), while one blocked there is aborted with an
// MAbortYou naming the blocked request.
func TestShardDeadlockVictimMustWaitOnItsShard(t *testing.T) {
	srv, err := OpenServer(t.TempDir(), ServerOptions{
		Proto: core.PS, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: false, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pa, _ := twoShardPages(t, srv, 32)
	shA := srv.shardOf(pa)
	connect := func() (*Client, *abortWatchConn) {
		cEnd, sEnd := Pipe()
		if _, err := srv.Attach(sEnd); err != nil {
			t.Fatal(err)
		}
		w := &abortWatchConn{Conn: cEnd}
		cl, err := Connect(w, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return cl, w
	}
	c1, w1 := connect()
	defer c1.Close()
	c2, w2 := connect()
	defer c2.Close()

	tx1, _ := c1.Begin()
	id1 := lastTxnID(c1)
	if err := tx1.Write(o(pa, 0), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := srv.abortVictimOn(shA, id1); ok {
		t.Fatal("aborted a victim that waits on nothing on its shard")
	}

	// t2 blocks on t1's page lock; once the merged graph shows it waiting
	// on shard A, aborting it there must name its request.
	tx2, _ := c2.Begin()
	id2 := lastTxnID(c2)
	readErr := make(chan error, 1)
	go func() {
		_, err := tx2.Read(o(pa, 1))
		readErr <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.collectWaitGraph().home[id2] != shA; {
		if time.Now().After(deadline) {
			t.Fatal("second transaction never blocked on the first one's shard")
		}
		sleepMs(1)
	}
	st, ov, ok := srv.abortVictimOn(shA, id2)
	if !ok {
		t.Fatal("victim blocked on its shard was not aborted")
	}
	srv.attachPayloads(st)
	if len(ov) != 0 {
		t.Fatalf("overflowed sessions %v", ov)
	}
	if err := <-readErr; !errors.Is(err, ErrAborted) {
		t.Fatalf("blocked read returned %v, want ErrAborted", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatalf("commit of the spared transaction: %v", err)
	}
	if a, z := w1.aborts.Load()+w2.aborts.Load(), w1.reqZero.Load()+w2.reqZero.Load(); a != 1 || z != 0 {
		t.Fatalf("MAbortYou: %d sent, %d with request id 0; want 1 and 0", a, z)
	}
}
