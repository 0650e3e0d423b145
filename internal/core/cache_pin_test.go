package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// The pinned-entry lists let DirtyPages, DirtyObjs, CleanAll and
// PurgeUpdatesForAbort walk the active transaction's footprint instead of
// the whole cache. These tests check them against full-scan references
// over random operation sequences: eviction, callback purges followed by
// reinstall and re-pin in the same transaction, commits and aborts, in
// both page and object (OS) mode.

// refDirtyPages is the full-scan reference for DirtyPages.
func refDirtyPages(c *ClientCache) []PageID {
	var out []PageID
	for p, cp := range c.pages {
		if len(cp.Dirty) > 0 {
			out = append(out, p)
		}
	}
	sortPages(out)
	return out
}

// refDirtyObjs is the full-scan reference for DirtyObjs.
func refDirtyObjs(c *ClientCache) []ObjID {
	var out []ObjID
	for o, co := range c.objs {
		if co.Dirty {
			out = append(out, o)
		}
	}
	sortObjs(out)
	return out
}

// checkPinLists verifies the lists hold exactly the pinned resident
// entries, each once, and that the list-driven queries match the scans.
func checkPinLists(c *ClientCache) error {
	seenP := make(map[PageID]bool)
	for _, p := range c.pinnedPages {
		cp := c.pages[p]
		if cp == nil || !cp.Pinned {
			return fmt.Errorf("pinned list holds page %d that is not a pinned resident", p)
		}
		if seenP[p] {
			return fmt.Errorf("page %d listed twice", p)
		}
		seenP[p] = true
	}
	for p, cp := range c.pages {
		if cp.Pinned && !seenP[p] {
			return fmt.Errorf("pinned page %d missing from the list", p)
		}
	}
	seenO := make(map[ObjID]bool)
	for _, o := range c.pinnedObjs {
		co := c.objs[o]
		if co == nil || !co.Pinned {
			return fmt.Errorf("pinned list holds object %v that is not a pinned resident", o)
		}
		if seenO[o] {
			return fmt.Errorf("object %v listed twice", o)
		}
		seenO[o] = true
	}
	for o, co := range c.objs {
		if co.Pinned && !seenO[o] {
			return fmt.Errorf("pinned object %v missing from the list", o)
		}
	}
	if got, want := c.DirtyPages(), refDirtyPages(c); fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("DirtyPages = %v, full scan %v", got, want)
	}
	if got, want := c.DirtyObjs(), refDirtyObjs(c); fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("DirtyObjs = %v, full scan %v", got, want)
	}
	return nil
}

// checkTxnEnd verifies the state CleanAll and PurgeUpdatesForAbort must
// leave: nothing pinned or dirty, and exactly the purged entries gone.
func checkTxnEnd(c *ClientCache, residentBefore []PageID, objsBefore []ObjID, purgedP []PageID, purgedO []ObjID) error {
	for p, cp := range c.pages {
		if cp.Pinned || len(cp.Dirty) > 0 {
			return fmt.Errorf("page %d still pinned=%v dirty=%v", p, cp.Pinned, cp.Dirty)
		}
	}
	for o, co := range c.objs {
		if co.Pinned || co.Dirty {
			return fmt.Errorf("object %v still pinned=%v dirty=%v", o, co.Pinned, co.Dirty)
		}
	}
	if len(c.pinnedPages)+len(c.pinnedObjs) != 0 {
		return fmt.Errorf("pinned lists not emptied: %v %v", c.pinnedPages, c.pinnedObjs)
	}
	gone := make(map[any]bool)
	for _, p := range purgedP {
		gone[p] = true
	}
	for _, o := range purgedO {
		gone[o] = true
	}
	for _, p := range residentBefore {
		if c.HasPage(p) == gone[p] {
			return fmt.Errorf("page %d resident=%v, purged=%v", p, c.HasPage(p), gone[p])
		}
	}
	for _, o := range objsBefore {
		if c.HasObj(o) == gone[o] {
			return fmt.Errorf("object %v resident=%v, purged=%v", o, c.HasObj(o), gone[o])
		}
	}
	return nil
}

func TestCachePinnedListMatchesFullScan(t *testing.T) {
	for _, objMode := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			name := fmt.Sprintf("objMode=%v/seed=%d", objMode, seed)
			if err := runPinnedListOps(objMode, seed, 400); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func runPinnedListOps(objMode bool, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	const npages, nslots, capacity = 12, 4, 6
	c := NewClientCache(objMode, capacity)
	randObj := func() ObjID {
		return ObjID{Page: PageID(rng.Intn(npages)), Slot: uint16(rng.Intn(nslots))}
	}
	resident := func(o ObjID) bool {
		if objMode {
			return c.HasObj(o)
		}
		return c.HasPage(o.Page)
	}
	install := func(o ObjID) {
		if objMode {
			c.InstallObj(o)
		} else {
			c.InstallPage(o.Page, nil)
		}
	}
	for step := 0; step < steps; step++ {
		o := randObj()
		switch op := rng.Intn(10); op {
		case 0, 1: // fetch (may evict the LRU unpinned, clean entry)
			install(o)
		case 2, 3: // read
			if resident(o) {
				if objMode {
					c.TouchObj(o)
				} else {
					c.TouchPage(o.Page)
				}
			}
		case 4: // write
			if objMode && resident(o) {
				c.TouchObj(o)
				c.MarkObjDirty(o)
			} else if !objMode && resident(o) {
				c.TouchPage(o.Page)
				c.MarkDirty(o)
			}
		case 5: // callback: object-level mark, or a purge
			if objMode {
				c.PurgeObj(o)
			} else if cp := c.Page(o.Page); cp != nil && !cp.Dirty[o.Slot] {
				c.MarkUnavailable(o)
			}
		case 6: // callback purge, then reinstall and re-pin in the same txn
			if objMode {
				c.PurgeObj(o)
				c.InstallObj(o)
				c.TouchObj(o)
			} else if cp := c.Page(o.Page); cp == nil || len(cp.Dirty) == 0 {
				c.PurgePage(o.Page)
				c.InstallPage(o.Page, nil)
				c.TouchPage(o.Page)
			}
		case 7: // drop notices are consumed by the next message
			c.TakeDropped()
		case 8: // commit
			pages, objs := c.ResidentPages(), c.ResidentObjs()
			c.CleanAll()
			if err := checkTxnEnd(c, pages, objs, nil, nil); err != nil {
				return fmt.Errorf("step %d CleanAll: %w", step, err)
			}
		case 9: // abort
			wantP, wantO := refDirtyPages(c), refDirtyObjs(c)
			pages, objs := c.ResidentPages(), c.ResidentObjs()
			gotP, gotO := c.PurgeUpdatesForAbort()
			if fmt.Sprint(gotP, gotO) != fmt.Sprint(wantP, wantO) {
				return fmt.Errorf("step %d abort purged %v %v, full scan %v %v", step, gotP, gotO, wantP, wantO)
			}
			if err := checkTxnEnd(c, pages, objs, gotP, gotO); err != nil {
				return fmt.Errorf("step %d abort: %w", step, err)
			}
		}
		if err := checkPinLists(c); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return nil
}

// TestCachePurgeReinstallListedOnce is the edge case spelled out: a page
// pinned, purged by a callback and reinstalled and re-pinned within one
// transaction must be reported once, not once per pin.
func TestCachePurgeReinstallListedOnce(t *testing.T) {
	c := NewClientCache(false, 4)
	c.InstallPage(1, nil)
	c.TouchPage(1)
	c.PurgePage(1)
	c.InstallPage(1, nil)
	c.TouchPage(1)
	c.MarkDirty(ObjID{Page: 1, Slot: 0})
	if d := c.DirtyPages(); len(d) != 1 || d[0] != 1 {
		t.Fatalf("DirtyPages = %v, want [1]", d)
	}
	if pages, _ := c.PurgeUpdatesForAbort(); len(pages) != 1 {
		t.Fatalf("abort purged %v, want [1]", pages)
	}

	oc := NewClientCache(true, 4)
	x := ObjID{Page: 2, Slot: 3}
	oc.InstallObj(x)
	oc.MarkObjDirty(x)
	oc.PurgeObj(x)
	oc.InstallObj(x)
	oc.TouchObj(x)
	oc.MarkObjDirty(x)
	if d := oc.DirtyObjs(); len(d) != 1 || d[0] != x {
		t.Fatalf("DirtyObjs = %v, want [%v]", d, x)
	}
}
