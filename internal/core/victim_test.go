package core

import "testing"

// Cross-shard deadlock victims (ServerEngine.AbortDeadlockVictim): the
// merged wait graph is a snapshot, so by the time a victim's shard is
// locked the transaction may have stopped waiting there. Aborting it then
// would send an MAbortYou naming no request (Req 0), which the client
// cannot match to the call it is blocked in.

func TestAbortDeadlockVictimNotWaitingHere(t *testing.T) {
	h := newHarness(t, PS, 2, 10, 20, 8)
	t1 := h.begin(1)
	h.mustDone(1, h.read(1, o(0, 0)))
	h.mustDone(1, h.write(1, o(0, 0))) // holds page X; waits on nothing

	outs, ok := h.se.AbortDeadlockVictim(t1)
	if ok || len(outs) != 0 {
		t.Fatalf("victim not waiting here was aborted: ok=%v outs=%v", ok, outs)
	}
	if n := h.se.Stats.Deadlocks.Load(); n != 0 {
		t.Fatalf("deadlocks = %d for a dissolved cycle, want 0", n)
	}
	h.commit(1)
	if !h.se.Quiesced() {
		t.Fatalf("state leaked:\n%s", h.se.DumpState())
	}
}

func TestAbortDeadlockVictimNamesItsRequest(t *testing.T) {
	cases := []struct {
		name  string
		setup func(h *harness) (victim TxnID)
	}{
		{"blocked request", func(h *harness) TxnID {
			h.begin(1)
			h.mustDone(1, h.read(1, o(0, 0)))
			h.mustDone(1, h.write(1, o(0, 0)))
			t2 := h.begin(2)
			if st := h.read(2, o(0, 5)); st != opBlocked {
				t.Fatalf("read should block on page X, got %v", st)
			}
			return t2
		}},
		{"callback round", func(h *harness) TxnID {
			h.begin(2)
			h.mustDone(2, h.read(2, o(0, 7))) // in use: its callback goes busy
			t1 := h.begin(1)
			h.mustDone(1, h.read(1, o(0, 0)))
			if st := h.write(1, o(0, 0)); st != opBlocked {
				t.Fatalf("write should wait for the busy callback, got %v", st)
			}
			return t1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, PS, 2, 10, 20, 8)
			victim := tc.setup(h)
			outs, ok := h.se.AbortDeadlockVictim(victim)
			if !ok {
				t.Fatal("waiting victim was not aborted")
			}
			found := false
			for _, m := range outs {
				if m.Kind != MAbortYou {
					continue
				}
				found = true
				if m.Req != h.nextReq {
					t.Fatalf("MAbortYou Req = %d, want the blocked request %d", m.Req, h.nextReq)
				}
			}
			if !found {
				t.Fatalf("no MAbortYou in %v", outs)
			}
			if _, again := h.se.AbortDeadlockVictim(victim); again {
				t.Fatal("an aborting victim was aborted twice")
			}
		})
	}
}
