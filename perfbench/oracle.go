package main

import (
	"fmt"
	"slices"
	"sort"

	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/server"
	"hybrids/internal/ycsb"
)

// loadIndex answers "what value did the load phase give this key".
type loadIndex []ycsb.Pair

func newLoadIndex(load []ycsb.Pair) loadIndex {
	idx := slices.Clone(load)
	slices.SortFunc(idx, func(a, b ycsb.Pair) int { return int(int64(a.Key) - int64(b.Key)) })
	return idx
}

func (l loadIndex) value(key uint32) (uint32, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].Key >= key })
	if i < len(l) && l[i].Key == key {
		return l[i].Value, true
	}
	return 0, false
}

// servedVerdict is the oracle's account of one served run.
type servedVerdict struct {
	attempted int64
	failed    int64 // refused or rejected: never reached a store
	problems  []string
}

func (v *servedVerdict) wrong(format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// verifyServed checks every logged response against the workload's
// semantics, and the final store contents dump when the workload mutates
// membership.
//
// Read/update workloads (cycling streams): every op must return OK, and
// every GET value must be the key's load value or a value some stream's
// update wrote to that key.
//
// Insert/remove workloads: every insert must succeed (the generator mints
// fresh keys); a GET hit must return the load value and a GET miss is
// allowed only for a key some executed op removed; successful removes
// must equal the number of distinct removed keys; and the final dump must
// equal load - removed + inserted, whatever the interleaving was.
func verifyServed(load []ycsb.Pair, streams [][]kv.Op, cycle bool, logs []connLog, dump []core.KV) servedVerdict {
	var v servedVerdict
	li := newLoadIndex(load)
	opAt := func(c, i int) kv.Op {
		if cycle {
			return streams[c][i%len(streams[c])]
		}
		return streams[c][i]
	}
	// Update values written to each key by any stream (read/update mixes).
	updates := make(map[uint32][]uint32)
	removed := make(map[uint32]bool)
	var inserted []ycsb.Pair
	for c := range logs {
		n := len(logs[c].status)
		limit := n
		if cycle && limit > len(streams[c]) {
			limit = len(streams[c])
		}
		for i := 0; i < limit; i++ {
			op := opAt(c, i)
			if op.Kind == kv.Update {
				updates[op.Key] = append(updates[op.Key], op.Value)
			}
		}
		for i := 0; i < n; i++ {
			op := opAt(c, i)
			if op.Kind == kv.Remove {
				removed[op.Key] = true
			}
			if op.Kind == kv.Insert {
				inserted = append(inserted, ycsb.Pair{Key: op.Key, Value: op.Value})
			}
		}
	}
	for _, vals := range updates {
		slices.Sort(vals)
	}
	okRemoves := 0
	for c := range logs {
		for i, st := range logs[c].status {
			op := opAt(c, i)
			val := logs[c].value[i]
			v.attempted++
			if st == server.StatusRejected || st == server.StatusBadRequest {
				v.failed++
				continue
			}
			switch op.Kind {
			case kv.Read:
				if st == server.StatusMiss {
					if !removed[op.Key] {
						v.wrong("conn %d op %d: GET %d missed a key nothing removed", c, i, op.Key)
					}
					continue
				}
				lv, ok := li.value(op.Key)
				if !ok {
					v.wrong("conn %d op %d: GET %d hit a key never loaded", c, i, op.Key)
					continue
				}
				if val == uint64(lv) {
					continue
				}
				if _, found := slices.BinarySearch(updates[op.Key], uint32(val)); val > 0xffffffff || !found {
					v.wrong("conn %d op %d: GET %d returned %d, neither its load value %d nor an update", c, i, op.Key, val, lv)
				}
			case kv.Update, kv.Insert:
				if st != server.StatusOK {
					v.wrong("conn %d op %d: %v %d failed (status %d)", c, i, op.Kind, op.Key, st)
				}
			case kv.Remove:
				if st == server.StatusOK {
					okRemoves++
				}
			}
		}
	}
	if okRemoves != len(removed) {
		v.wrong("%d removes succeeded but %d distinct keys were removed", okRemoves, len(removed))
	}
	if dump == nil {
		return v
	}
	want := make([]core.KV, 0, len(load)+len(inserted))
	for _, p := range load {
		if !removed[p.Key] {
			want = append(want, core.KV{Key: uint64(p.Key), Value: uint64(p.Value)})
		}
	}
	for _, p := range inserted {
		want = append(want, core.KV{Key: uint64(p.Key), Value: uint64(p.Value)})
	}
	slices.SortFunc(want, func(a, b core.KV) int { return int(int64(a.Key) - int64(b.Key)) })
	if len(dump) != len(want) {
		v.wrong("final dump holds %d pairs, want %d", len(dump), len(want))
		return v
	}
	for i := range want {
		if dump[i] != want[i] {
			v.wrong("final dump pair %d is %d=%d, want %d=%d", i, dump[i].Key, dump[i].Value, want[i].Key, want[i].Value)
			break
		}
	}
	return v
}

// checkServed runs the oracle over a finished rig (server stopped, store
// still open) and records the verdict in res.
func checkServed(rig *servedRig, res *result) {
	var dump []core.KV
	if !rig.spec.cycle {
		dump = rig.h.Dump()
	}
	v := verifyServed(rig.load, rig.streams, rig.spec.cycle, rig.logs, dump)
	res.Attempted += v.attempted
	res.Failed += v.failed
	for _, p := range v.problems {
		res.fail("%s", p)
	}
	res.set("error_frac", ratio(float64(res.Failed), float64(res.Attempted)))
}
