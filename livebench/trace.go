package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// spanOp names the public call a span times.
type spanOp uint8

const (
	opBegin spanOp = iota
	opRead
	opUpdate
	opCommit
	opCrash
	opRestart
)

var opNames = [...]string{"begin", "read", "update", "commit", "crash", "restart"}

// span is one timed call into the program, keyed by client and the
// client's transaction sequence number. Server-side events (crash and
// reopen) carry client 0.
type span struct {
	client, txn, attempt int32
	op                   spanOp
	fetch                bool // a read or update whose call advanced the client's fetch counter
	err                  bool
	slot                 uint16
	page                 int32
	start, dur           int64 // ns since the pass started, ns
}

// spanLine is a span as written to the span file.
type spanLine struct {
	Client  int32  `json:"client"`
	Txn     int32  `json:"txn"`
	Attempt int32  `json:"attempt"`
	Op      string `json:"op"`
	Obj     string `json:"obj,omitempty"` // page.slot of a read or update
	Fetch   bool   `json:"fetch,omitempty"`
	Err     bool   `json:"err,omitempty"`
	Start   int64  `json:"start_ns"`
	Dur     int64  `json:"dur_ns"`
}

// recorder holds one goroutine's spans in memory until the run ends.
type recorder struct {
	spans []span
}

func (r *recorder) add(s span) { r.spans = append(r.spans, s) }

// writeSpans writes a header line with the host stamp, then one JSON
// object per span.
func writeSpans(path string, host hostInfo, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		Host hostInfo `json:"host"`
	}{host})
	for _, rec := range recs {
		for i := 0; i < len(rec.spans) && err == nil; i++ {
			s := &rec.spans[i]
			l := spanLine{Client: s.client, Txn: s.txn, Attempt: s.attempt, Op: opNames[s.op],
				Fetch: s.fetch, Err: s.err, Start: s.start, Dur: s.dur}
			if s.op == opRead || s.op == opUpdate {
				l.Obj = fmt.Sprintf("%d.%d", s.page, s.slot)
			}
			err = enc.Encode(&l)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
