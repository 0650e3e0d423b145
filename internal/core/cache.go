package core

import (
	"container/list"
	"fmt"
)

// ClientCache is the client buffer pool state machine. In page mode
// (everything but OS) it is an LRU cache of pages where individual objects
// can be marked "unavailable" (called back) and "dirty" (updated by the
// active transaction). In object mode (OS) it is an LRU cache of objects.
//
// Pages/objects touched by the active transaction are pinned and never
// evicted; evictions accumulate as drop notices that the driver piggybacks
// on the next message to the server so the copy table stays accurate.
type ClientCache struct {
	ObjMode  bool
	Capacity int // pages (page mode) or objects (object mode)

	pages map[PageID]*CachedPage
	objs  map[ObjID]*cachedObj
	lru   *list.List // front = most recent; elements hold PageID or ObjID

	// pinnedPages/pinnedObjs list exactly the resident entries that are
	// pinned, in pin order, so commit and abort walk the transaction's
	// footprint instead of the whole cache. Dirty entries are always
	// pinned, so the lists also cover every dirty entry.
	pinnedPages []PageID
	pinnedObjs  []ObjID

	droppedPages []PageID
	droppedObjs  []ObjID

	// Evictions counts total LRU evictions (stats).
	Evictions int64
}

// CachedPage is the client-side state of one cached page.
type CachedPage struct {
	elem    *list.Element
	Unavail map[uint16]bool // objects called back / marked unavailable
	Dirty   map[uint16]bool // uncommitted local updates
	Pinned  bool            // touched by the active transaction
}

type cachedObj struct {
	elem   *list.Element
	Dirty  bool
	Pinned bool
}

// NewClientCache creates a cache. objMode selects the OS object cache.
func NewClientCache(objMode bool, capacity int) *ClientCache {
	if capacity <= 0 {
		panic("core: cache capacity must be positive")
	}
	c := &ClientCache{ObjMode: objMode, Capacity: capacity, lru: list.New()}
	if objMode {
		c.objs = make(map[ObjID]*cachedObj)
	} else {
		c.pages = make(map[PageID]*CachedPage)
	}
	return c
}

// ---- Page mode ----

// HasPage reports whether page p is resident.
func (c *ClientCache) HasPage(p PageID) bool { return c.pages[p] != nil }

// Page returns the cached page state, or nil.
func (c *ClientCache) Page(p PageID) *CachedPage { return c.pages[p] }

// Readable reports whether object o can be read locally: its page is
// resident and the object is not marked unavailable.
func (c *ClientCache) Readable(o ObjID) bool {
	cp := c.pages[o.Page]
	return cp != nil && !cp.Unavail[o.Slot]
}

// InstallPage installs (or refreshes) page p with the server's current
// unavailable-slot list. If a copy with uncommitted updates is already
// resident, the local dirty objects are preserved (a copy merge); the
// return value is the number of dirty objects merged, for CopyMergeInst
// costing. Installing may evict the LRU unpinned page.
func (c *ClientCache) InstallPage(p PageID, unavail []uint16) (merged int) {
	cp := c.pages[p]
	if cp == nil {
		c.evictFor(1)
		cp = &CachedPage{Unavail: make(map[uint16]bool), Dirty: make(map[uint16]bool)}
		cp.elem = c.lru.PushFront(p)
		c.pages[p] = cp
	} else {
		c.lru.MoveToFront(cp.elem)
		merged = len(cp.Dirty)
		// The incoming copy reflects the server's current lock state;
		// its unavailable set replaces ours entirely (committed writers
		// have released; new writers appear in the new list).
		for s := range cp.Unavail {
			delete(cp.Unavail, s)
		}
	}
	for _, s := range unavail {
		if cp.Dirty[s] {
			panic(fmt.Sprintf("core: server marked our own dirty slot %d.%d unavailable", p, s))
		}
		cp.Unavail[s] = true
	}
	return merged
}

// TouchPage bumps page p in the LRU and pins it for the active txn.
func (c *ClientCache) TouchPage(p PageID) {
	cp := c.pages[p]
	if cp == nil {
		panic(fmt.Sprintf("core: touch of non-resident page %d", p))
	}
	c.lru.MoveToFront(cp.elem)
	c.pinPage(p, cp)
}

func (c *ClientCache) pinPage(p PageID, cp *CachedPage) {
	if !cp.Pinned {
		cp.Pinned = true
		c.pinnedPages = append(c.pinnedPages, p)
	}
}

// MarkUnavailable marks object o unavailable (object-level callback).
func (c *ClientCache) MarkUnavailable(o ObjID) {
	cp := c.pages[o.Page]
	if cp == nil {
		return // already evicted: nothing to do
	}
	if cp.Dirty[o.Slot] {
		panic(fmt.Sprintf("core: callback for our own dirty object %v", o))
	}
	cp.Unavail[o.Slot] = true
}

// MarkDirty records an uncommitted local update to object o.
func (c *ClientCache) MarkDirty(o ObjID) {
	cp := c.pages[o.Page]
	if cp == nil {
		panic(fmt.Sprintf("core: dirty mark on non-resident page %d", o.Page))
	}
	delete(cp.Unavail, o.Slot)
	cp.Dirty[o.Slot] = true
	c.pinPage(o.Page, cp)
}

// PurgePage removes page p (callback purge or abort). Pending drop notice
// is NOT queued: the server learns via the ack/abort message itself.
func (c *ClientCache) PurgePage(p PageID) {
	cp := c.pages[p]
	if cp == nil {
		return
	}
	if cp.Pinned {
		c.pinnedPages = removeID(c.pinnedPages, p)
	}
	c.lru.Remove(cp.elem)
	delete(c.pages, p)
}

// removeID deletes the one occurrence of id from ids, keeping the order.
func removeID[T comparable](ids []T, id T) []T {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// DirtyPages returns the resident pages with uncommitted updates
// (ascending), for building commit/abort messages.
func (c *ClientCache) DirtyPages() []PageID {
	var out []PageID
	for _, p := range c.pinnedPages {
		if len(c.pages[p].Dirty) > 0 {
			out = append(out, p)
		}
	}
	sortPages(out)
	return out
}

// DirtyObjCount returns the number of dirty objects on page p.
func (c *ClientCache) DirtyObjCount(p PageID) int {
	cp := c.pages[p]
	if cp == nil {
		return 0
	}
	return len(cp.Dirty)
}

// CleanAll clears dirty marks after a successful commit (pages stay
// cached and readable) and unpins everything.
func (c *ClientCache) CleanAll() {
	for _, o := range c.pinnedObjs {
		co := c.objs[o]
		co.Dirty = false
		co.Pinned = false
	}
	for _, p := range c.pinnedPages {
		cp := c.pages[p]
		clear(cp.Dirty)
		cp.Pinned = false
	}
	c.pinnedPages = c.pinnedPages[:0]
	c.pinnedObjs = c.pinnedObjs[:0]
}

// PurgeUpdatesForAbort purges all dirty state for an abort: in page mode,
// pages with dirty objects are purged entirely (the paper's
// purge-at-client abort handling); in object mode dirty objects are
// purged. It unpins everything and returns what was purged so the abort
// message can tell the server to deregister the copies.
func (c *ClientCache) PurgeUpdatesForAbort() (pages []PageID, objs []ObjID) {
	if c.ObjMode {
		objs = c.DirtyObjs()
	} else {
		pages = c.DirtyPages()
	}
	c.CleanAll()
	for _, o := range objs {
		c.PurgeObj(o)
	}
	for _, p := range pages {
		c.PurgePage(p)
	}
	return pages, objs
}

// ---- Object mode (OS) ----

// HasObj reports whether object o is resident.
func (c *ClientCache) HasObj(o ObjID) bool { return c.objs[o] != nil }

// InstallObj installs object o, evicting if necessary.
func (c *ClientCache) InstallObj(o ObjID) {
	co := c.objs[o]
	if co == nil {
		c.evictFor(1)
		co = &cachedObj{}
		co.elem = c.lru.PushFront(o)
		c.objs[o] = co
	} else {
		c.lru.MoveToFront(co.elem)
	}
}

// TouchObj bumps and pins object o.
func (c *ClientCache) TouchObj(o ObjID) {
	co := c.objs[o]
	if co == nil {
		panic(fmt.Sprintf("core: touch of non-resident object %v", o))
	}
	c.lru.MoveToFront(co.elem)
	c.pinObj(o, co)
}

func (c *ClientCache) pinObj(o ObjID, co *cachedObj) {
	if !co.Pinned {
		co.Pinned = true
		c.pinnedObjs = append(c.pinnedObjs, o)
	}
}

// MarkObjDirty records an uncommitted update to object o.
func (c *ClientCache) MarkObjDirty(o ObjID) {
	co := c.objs[o]
	if co == nil {
		panic(fmt.Sprintf("core: dirty mark on non-resident object %v", o))
	}
	co.Dirty = true
	c.pinObj(o, co)
}

// PurgeObj removes object o.
func (c *ClientCache) PurgeObj(o ObjID) {
	co := c.objs[o]
	if co == nil {
		return
	}
	if co.Pinned {
		c.pinnedObjs = removeID(c.pinnedObjs, o)
	}
	c.lru.Remove(co.elem)
	delete(c.objs, o)
}

// DirtyObjs returns the resident dirty objects (deterministic order).
func (c *ClientCache) DirtyObjs() []ObjID {
	var out []ObjID
	for _, o := range c.pinnedObjs {
		if c.objs[o].Dirty {
			out = append(out, o)
		}
	}
	sortObjs(out)
	return out
}

// ---- Shared ----

// evictFor makes room for n new entries by evicting LRU unpinned, clean
// entries. If everything is pinned the cache is allowed to exceed
// capacity (transaction footprints are assumed to fit, as in the paper).
func (c *ClientCache) evictFor(n int) {
	size := c.lru.Len()
	for size+n > c.Capacity {
		victim := c.oldestEvictable()
		if victim == nil {
			return // all pinned: overflow rather than break the txn
		}
		switch id := victim.Value.(type) {
		case PageID:
			delete(c.pages, id)
			c.droppedPages = append(c.droppedPages, id)
		case ObjID:
			delete(c.objs, id)
			c.droppedObjs = append(c.droppedObjs, id)
		}
		c.lru.Remove(victim)
		c.Evictions++
		size--
	}
}

func (c *ClientCache) oldestEvictable() *list.Element {
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		switch id := e.Value.(type) {
		case PageID:
			cp := c.pages[id]
			if !cp.Pinned && len(cp.Dirty) == 0 {
				return e
			}
		case ObjID:
			co := c.objs[id]
			if !co.Pinned && !co.Dirty {
				return e
			}
		}
	}
	return nil
}

// TakeDropped returns and clears the pending eviction notices.
func (c *ClientCache) TakeDropped() (pages []PageID, objs []ObjID) {
	pages, objs = c.droppedPages, c.droppedObjs
	c.droppedPages, c.droppedObjs = nil, nil
	return pages, objs
}

// Len returns the number of resident entries.
func (c *ClientCache) Len() int { return c.lru.Len() }

// ResidentPages returns all resident page ids (ascending); diagnostics.
func (c *ClientCache) ResidentPages() []PageID {
	var out []PageID
	for p := range c.pages {
		out = append(out, p)
	}
	sortPages(out)
	return out
}

// ResidentObjs returns all resident object ids (deterministic order).
func (c *ClientCache) ResidentObjs() []ObjID {
	var out []ObjID
	for o := range c.objs {
		out = append(out, o)
	}
	sortObjs(out)
	return out
}
