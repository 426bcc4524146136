// Package cds provides native (non-simulated) concurrent data structures
// used by the hybrid runtime in internal/core and usable standalone: a
// lazy skiplist in the Herlihy-Lev-Luchangco-Shavit style (wait-free
// reads, per-node-locked writers) and a single-threaded B+ tree suitable
// as a partition-owned store.
package cds

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hybrids/internal/metrics"
)

// MaxHeight bounds skiplist towers; 2^32 elements need no more.
const MaxHeight = 32

// slNode is one skiplist entry. Links are plain pointers; logical deletion
// lives in the node's own marked flag rather than beside each link, so a
// search follows one pointer per hop and allocates nothing. mu is taken
// only by writers: to mark or update the node, or to relink its
// successors.
type slNode struct {
	key         uint64
	next        []atomic.Pointer[slNode] // tower; height = len(next)
	value       atomic.Uint64
	marked      atomic.Bool // logically deleted; set once, under mu
	fullyLinked atomic.Bool // linked at every level of its tower
	mu          sync.Mutex
}

// towered is a node with its tower stored inline; T is the tower array.
type towered[T any] struct {
	slNode
	t T
}

// newSLNode allocates a node of height h with its tower in the same
// object, right behind the node's fields: one allocation per Insert, and
// the low levels a search hops along share the node's cache line. Towers
// above 4 levels (1 node in 16) take a separate allocation.
func newSLNode(key uint64, h int) *slNode {
	var n *slNode
	var tower []atomic.Pointer[slNode]
	switch {
	case h == 1:
		c := new(towered[[1]atomic.Pointer[slNode]])
		n, tower = &c.slNode, c.t[:]
	case h == 2:
		c := new(towered[[2]atomic.Pointer[slNode]])
		n, tower = &c.slNode, c.t[:]
	case h <= 4:
		c := new(towered[[4]atomic.Pointer[slNode]])
		n, tower = &c.slNode, c.t[:h]
	default:
		n, tower = new(slNode), make([]atomic.Pointer[slNode], h)
	}
	n.key, n.next = key, tower
	return n
}

// SkipList is a concurrent ordered map from uint64 keys to uint64 values:
// the optimistic "lazy" skiplist. Get and Ascend take no locks; Insert and
// Delete search without locks, then lock the affected predecessors,
// validate and link or unlink. All methods are safe for concurrent use.
// Deleted nodes are reclaimed by the garbage collector.
type SkipList struct {
	head   *slNode
	tail   *slNode
	levels int
	length atomic.Int64
	seed   atomic.Uint64

	// Structural-event counters, nil until Instrument.
	cRestarts *metrics.Counter
	cSnips    *metrics.Counter
}

// Instrument registers the list's structural-event counters — writer
// retries after a failed validation and physical unlinks (one per tower
// level) of deleted nodes — in reg under prefix (as "<prefix>/restarts"
// and "<prefix>/snips"). Unlike the list itself the instruments are NOT
// synchronized: call Instrument only when a single goroutine owns the
// list, which is exactly the per-partition combiner discipline of the
// native hybrid runtime.
func (s *SkipList) Instrument(reg *metrics.Registry, prefix string) {
	s.cRestarts = reg.Counter(prefix + "/restarts")
	s.cSnips = reg.Counter(prefix + "/snips")
}

// NewSkipList creates an empty skiplist with the given level count
// (typically log2 of the expected size; values outside [1, MaxHeight] are
// clamped).
func NewSkipList(levels int) *SkipList {
	levels = min(max(levels, 1), MaxHeight)
	s := &SkipList{levels: levels}
	s.tail = &slNode{key: ^uint64(0)} // terminal, never followed
	s.head = &slNode{next: make([]atomic.Pointer[slNode], levels)}
	for i := range s.head.next {
		s.head.next[i].Store(s.tail)
	}
	s.seed.Store(0x9e3779b97f4a7c15)
	return s
}

// Len returns the number of live keys.
func (s *SkipList) Len() int { return int(s.length.Load()) }

func (s *SkipList) randomHeight() int {
	// A tiny lock-free xorshift; contention on the seed is harmless
	// (lost updates only skew the stream, not the distribution).
	x := s.seed.Load()
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.seed.Store(x)
	h := 1
	for h < s.levels && x&1 == 1 {
		h++
		x >>= 1
	}
	return h
}

// find fills preds/succs with key's neighbourhood at every level and
// returns the highest level whose successor holds key, or -1.
func (s *SkipList) find(key uint64, preds, succs *[MaxHeight]*slNode) int {
	found := -1
	pred := s.head
	for level := s.levels - 1; level >= 0; level-- {
		curr := pred.next[level].Load()
		for curr.key < key {
			pred, curr = curr, curr.next[level].Load()
		}
		if found < 0 && curr.key == key {
			found = level
		}
		preds[level], succs[level] = pred, curr
	}
	return found
}

// seek returns the first node whose key is >= key, stopping at the
// highest level that holds key itself.
func (s *SkipList) seek(key uint64) *slNode {
	pred := s.head
	for level := s.levels - 1; ; level-- {
		curr := pred.next[level].Load()
		for curr.key < key {
			pred, curr = curr, curr.next[level].Load()
		}
		if curr.key == key || level == 0 {
			return curr
		}
	}
}

// live reports whether n is a present key: fully linked and not deleted.
func (n *slNode) live() bool { return n.fullyLinked.Load() && !n.marked.Load() }

// lockPreds locks preds[0..h) bottom-up — in descending key order, the
// one order every writer uses, so writers cannot deadlock — skipping a
// node repeated at consecutive levels. It stops at the first level where
// ok fails and returns whether all h levels validated, plus the highest
// level it locked (for unlockPreds).
func lockPreds(preds *[MaxHeight]*slNode, h int, ok func(l int) bool) (bool, int) {
	top := -1
	for l := 0; l < h; l++ {
		if l == 0 || preds[l] != preds[l-1] {
			preds[l].mu.Lock()
		}
		top = l
		if !ok(l) {
			return false, top
		}
	}
	return true, top
}

func unlockPreds(preds *[MaxHeight]*slNode, top int) {
	for l := 0; l <= top; l++ {
		if l == 0 || preds[l] != preds[l-1] {
			preds[l].mu.Unlock()
		}
	}
}

// retry counts a writer restart and yields: the writer it lost to may
// need this CPU, or the lock just released, to finish its own update.
func (s *SkipList) retry() {
	inc(s.cRestarts)
	runtime.Gosched()
}

// Get returns the value stored under key.
func (s *SkipList) Get(key uint64) (uint64, bool) {
	if n := s.seek(key); n.key == key && n.live() {
		return n.value.Load(), true
	}
	return 0, false
}

// Insert adds key -> value; it returns false (without modifying the map)
// when the key is already present.
func (s *SkipList) Insert(key, value uint64) bool {
	if key == 0 || key == ^uint64(0) {
		panic("cds: keys 0 and MaxUint64 are reserved sentinels")
	}
	var preds, succs [MaxHeight]*slNode
	h := s.randomHeight()
	for {
		if l := s.find(key, &preds, &succs); l >= 0 {
			n := succs[l]
			if !n.marked.Load() {
				for !n.fullyLinked.Load() {
					runtime.Gosched() // a concurrent Insert is linking it
				}
				return false
			}
			s.retry() // wait for the deleted twin to be unlinked
			continue
		}
		ok, top := lockPreds(&preds, h, func(l int) bool {
			p, c := preds[l], succs[l]
			return !p.marked.Load() && !c.marked.Load() && p.next[l].Load() == c
		})
		if !ok {
			unlockPreds(&preds, top)
			s.retry()
			continue
		}
		n := newSLNode(key, h)
		n.value.Store(value)
		for l := 0; l < h; l++ {
			n.next[l].Store(succs[l])
		}
		for l := 0; l < h; l++ {
			preds[l].next[l].Store(n)
		}
		n.fullyLinked.Store(true) // linearization point
		unlockPreds(&preds, top)
		s.length.Add(1)
		return true
	}
}

// Update stores value under an existing key, returning false if absent.
// It locks the node so it cannot write into one a concurrent Delete has
// already removed.
func (s *SkipList) Update(key, value uint64) bool {
	n := s.seek(key)
	if n.key != key || !n.fullyLinked.Load() {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.marked.Load() {
		return false
	}
	n.value.Store(value)
	return true
}

// Delete removes key, returning false if absent or if a concurrent Delete
// won the removal.
func (s *SkipList) Delete(key uint64) bool {
	var preds, succs [MaxHeight]*slNode
	var victim *slNode
	for {
		l := s.find(key, &preds, &succs)
		if victim == nil {
			// Only a fully linked node found at its own top level is
			// deletable; anything else is mid-insert or mid-delete.
			if l < 0 {
				return false
			}
			victim = succs[l]
			if !victim.fullyLinked.Load() || len(victim.next)-1 != l {
				return false
			}
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				return false
			}
			victim.marked.Store(true) // linearization point
			s.length.Add(-1)
		}
		h := len(victim.next)
		ok, top := lockPreds(&preds, h, func(l int) bool {
			p := preds[l]
			return !p.marked.Load() && p.next[l].Load() == victim
		})
		if !ok {
			unlockPreds(&preds, top)
			s.retry()
			continue
		}
		for l := h - 1; l >= 0; l-- {
			preds[l].next[l].Store(victim.next[l].Load())
		}
		if s.cSnips != nil {
			s.cSnips.Add(uint64(h))
		}
		victim.mu.Unlock()
		unlockPreds(&preds, top)
		return true
	}
}

// Ascend calls fn for each live key >= from in ascending order until fn
// returns false. It is a weakly consistent snapshot-free iteration.
func (s *SkipList) Ascend(from uint64, fn func(key, value uint64) bool) {
	for curr := s.seek(from); curr != s.tail; curr = curr.next[0].Load() {
		if curr.live() && !fn(curr.key, curr.value.Load()) {
			return
		}
	}
}

// CheckInvariants validates structural invariants (for tests) on a
// quiescent list: strictly increasing keys per level, every reachable node
// fully linked and unmarked, upper-level membership restricted to nodes
// reachable at the bottom level, each tower linked at every level of its
// height, heights within the list's level count, and a node count
// matching Len. It must not race with mutators.
func (s *SkipList) CheckInvariants() error {
	bottom := make(map[*slNode]bool)
	tall := make([]int, s.levels) // tall[l]: bottom nodes of height > l
	prev := s.head.key
	for curr := s.head.next[0].Load(); curr != s.tail; curr = curr.next[0].Load() {
		if curr.key <= prev {
			return errf("skiplist: level 0 key %d after %d", curr.key, prev)
		}
		if h := len(curr.next); h < 1 || h > s.levels {
			return errf("skiplist: node %d with height %d of %d levels", curr.key, h, s.levels)
		}
		if !curr.live() {
			return errf("skiplist: reachable node %d marked=%v fullyLinked=%v",
				curr.key, curr.marked.Load(), curr.fullyLinked.Load())
		}
		for l := range curr.next {
			tall[l]++
		}
		bottom[curr] = true
		prev = curr.key
	}
	if len(bottom) != s.Len() {
		return errf("skiplist: length %d but %d nodes found", s.Len(), len(bottom))
	}
	for level := 1; level < s.levels; level++ {
		prev, count := s.head.key, 0
		for curr := s.head.next[level].Load(); curr != s.tail; curr = curr.next[level].Load() {
			if !bottom[curr] {
				return errf("skiplist: level %d node %d not linked at level 0", level, curr.key)
			}
			if len(curr.next) <= level {
				return errf("skiplist: node %d of height %d linked at level %d", curr.key, len(curr.next), level)
			}
			if curr.key <= prev {
				return errf("skiplist: level %d key %d after %d", level, curr.key, prev)
			}
			prev = curr.key
			count++
		}
		if count != tall[level] {
			return errf("skiplist: level %d links %d nodes, %d towers reach it", level, count, tall[level])
		}
	}
	return nil
}
