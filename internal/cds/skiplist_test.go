package cds

import (
	"sync"
	"testing"
	"testing/quick"

	"hybrids/internal/prng"
)

func TestSkipListBasicOps(t *testing.T) {
	s := NewSkipList(16)
	if _, ok := s.Get(42); ok {
		t.Fatal("empty list returned a value")
	}
	if !s.Insert(42, 100) {
		t.Fatal("insert failed")
	}
	if s.Insert(42, 200) {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := s.Get(42); !ok || v != 100 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if !s.Update(42, 300) {
		t.Fatal("update failed")
	}
	if v, _ := s.Get(42); v != 300 {
		t.Fatalf("after update = %d", v)
	}
	if s.Update(43, 1) {
		t.Fatal("update of absent key succeeded")
	}
	if !s.Delete(42) {
		t.Fatal("delete failed")
	}
	if s.Delete(42) {
		t.Fatal("second delete succeeded")
	}
	if _, ok := s.Get(42); ok {
		t.Fatal("deleted key readable")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSkipListSequentialOracle(t *testing.T) {
	s := NewSkipList(16)
	oracle := map[uint64]uint64{}
	rng := prng.New(7)
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(2000)) + 1
		switch rng.Intn(4) {
		case 0:
			v, ok := s.Get(k)
			wv, wok := oracle[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("Get(%d) = (%d,%v), want (%d,%v)", k, v, ok, wv, wok)
			}
		case 1:
			v := rng.Next()
			_, exists := oracle[k]
			if s.Insert(k, v) != !exists {
				t.Fatalf("Insert(%d) disagreed with oracle", k)
			}
			if !exists {
				oracle[k] = v
			}
		case 2:
			v := rng.Next()
			_, exists := oracle[k]
			if s.Update(k, v) != exists {
				t.Fatalf("Update(%d) disagreed with oracle", k)
			}
			if exists {
				oracle[k] = v
			}
		default:
			_, exists := oracle[k]
			if s.Delete(k) != exists {
				t.Fatalf("Delete(%d) disagreed with oracle", k)
			}
			delete(oracle, k)
		}
	}
	if s.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", s.Len(), len(oracle))
	}
}

func TestSkipListAscendSorted(t *testing.T) {
	s := NewSkipList(12)
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		s.Insert(k, k*10)
	}
	var got []uint64
	s.Ascend(1, func(k, v uint64) bool {
		if v != k*10 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	want := []uint64{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Ascend = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend = %v", got)
		}
	}
	// From a midpoint, and early stop.
	got = got[:0]
	s.Ascend(4, func(k, v uint64) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("Ascend(4) = %v", got)
	}
}

func TestSkipListConcurrentDisjoint(t *testing.T) {
	s := NewSkipList(18)
	const threads = 8
	const perThread = 3000
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		th := th
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint64(th*perThread) + 1
			for i := uint64(0); i < perThread; i++ {
				if !s.Insert(base+i, base+i) {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
			for i := uint64(0); i < perThread; i += 2 {
				if !s.Delete(base + i) {
					t.Errorf("delete %d failed", base+i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != threads*perThread/2 {
		t.Fatalf("Len = %d, want %d", s.Len(), threads*perThread/2)
	}
	for th := 0; th < threads; th++ {
		base := uint64(th*perThread) + 1
		for i := uint64(0); i < perThread; i++ {
			v, ok := s.Get(base + i)
			wantOK := i%2 == 1
			if ok != wantOK || (ok && v != base+i) {
				t.Fatalf("Get(%d) = (%d,%v)", base+i, v, ok)
			}
		}
	}
}

func TestSkipListConcurrentContention(t *testing.T) {
	// All goroutines fight over the same small key range; exactly one
	// Insert/Delete per key transition must win.
	s := NewSkipList(12)
	const threads = 8
	const keys = 32
	wins := make([]int64, threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		th := th
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := prng.New(uint64(th) + 1)
			for i := 0; i < 5000; i++ {
				k := uint64(rng.Intn(keys)) + 1
				if rng.Intn(2) == 0 {
					if s.Insert(k, uint64(th)) {
						wins[th]++
					}
				} else {
					if s.Delete(k) {
						wins[th]--
					}
				}
			}
		}()
	}
	wg.Wait()
	// Net successful inserts minus deletes must equal the live count.
	net := int64(0)
	for _, w := range wins {
		net += w
	}
	if net != int64(s.Len()) {
		t.Fatalf("net wins %d != Len %d", net, s.Len())
	}
	// And the live keys must be consistent under iteration.
	count := 0
	prev := uint64(0)
	s.Ascend(1, func(k, v uint64) bool {
		if k <= prev {
			t.Fatalf("iteration out of order: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != s.Len() {
		t.Fatalf("iterated %d, Len %d", count, s.Len())
	}
}

func TestSkipListReservedKeysPanic(t *testing.T) {
	s := NewSkipList(8)
	for _, k := range []uint64{0, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key %d did not panic", k)
				}
			}()
			s.Insert(k, 1)
		}()
	}
}

func TestSkipListPropertyInsertDeleteRoundTrip(t *testing.T) {
	f := func(keys []uint64) bool {
		s := NewSkipList(14)
		inserted := map[uint64]bool{}
		for _, k := range keys {
			k = k%1000000 + 1
			s.Insert(k, k)
			inserted[k] = true
		}
		for k := range inserted {
			if v, ok := s.Get(k); !ok || v != k {
				return false
			}
		}
		for k := range inserted {
			if !s.Delete(k) {
				return false
			}
		}
		return s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListConcurrentMixed(t *testing.T) {
	// Writers and readers share 64 keys. Every value written encodes its
	// key, so a reader that ever sees another key's value (or a torn
	// node) fails; Ascend must stay strictly increasing throughout.
	s := NewSkipList(8)
	const (
		threads = 8
		keys    = 64
		ops     = 10000
	)
	net := make([]int64, threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := prng.New(uint64(th) + 11)
			check := func(k, v uint64) bool {
				if v>>20 != k {
					t.Errorf("key %d holds value %#x written for key %d", k, v, v>>20)
					return false
				}
				return true
			}
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(keys)) + 1
				v := k<<20 | uint64(th*ops+i)&(1<<20-1)
				switch rng.Intn(5) {
				case 0:
					if s.Insert(k, v) {
						net[th]++
					}
				case 1:
					if s.Delete(k) {
						net[th]--
					}
				case 2:
					s.Update(k, v)
				case 3:
					if got, ok := s.Get(k); ok && !check(k, got) {
						return
					}
				default:
					prev, n := k-1, 0
					s.Ascend(k, func(key, val uint64) bool {
						if key <= prev {
							t.Errorf("Ascend(%d): key %d after %d", k, key, prev)
							return false
						}
						prev, n = key, n+1
						return check(key, val) && n < 16
					})
				}
				if t.Failed() {
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, n := range net {
		total += n
	}
	if total != int64(s.Len()) {
		t.Fatalf("net successful inserts - deletes = %d, Len = %d", total, s.Len())
	}
}

func TestSkipListAllocs(t *testing.T) {
	// Searches carry their predecessor arrays on the stack and links are
	// plain pointers: only Insert may allocate (the node and its tower).
	s := NewSkipList(16)
	for k := uint64(2); k <= 4000; k += 2 {
		s.Insert(k, k)
	}
	victim, fresh := uint64(2000), uint64(1)
	zero := []struct {
		name string
		fn   func()
	}{
		{"Get/hit", func() { s.Get(100) }},
		{"Get/miss", func() { s.Get(101) }},
		{"Update/hit", func() { s.Update(100, 7) }},
		{"Update/miss", func() { s.Update(101, 7) }},
		{"Delete/hit", func() {
			victim += 2
			if !s.Delete(victim) {
				t.Fatalf("Delete(%d) missed", victim)
			}
		}},
		{"Delete/miss", func() { s.Delete(101) }},
		{"Ascend", func() {
			s.Ascend(500, func(k, v uint64) bool { return k < 600 })
		}},
	}
	for _, c := range zero {
		if a := testing.AllocsPerRun(200, c.fn); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, a)
		}
	}
	if a := testing.AllocsPerRun(200, func() {
		fresh += 2
		if !s.Insert(fresh, fresh) {
			t.Fatalf("Insert(%d) failed", fresh)
		}
	}); a > 2 {
		t.Errorf("Insert: %v allocs/op, want <= 2", a)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
