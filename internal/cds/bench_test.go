package cds

import (
	"sync/atomic"
	"testing"

	"hybrids/internal/prng"
)

// Native micro-benchmarks for the non-simulated structures: these measure
// real hardware, complementing the simulated-machine experiments at the
// repository root.

func BenchmarkSkipListGet(b *testing.B) {
	s := NewSkipList(20)
	const n = 1 << 16
	for i := uint64(1); i <= n; i++ {
		s.Insert(i, i)
	}
	rng := prng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint64(rng.Intn(n)) + 1)
	}
}

func BenchmarkSkipListInsertDelete(b *testing.B) {
	s := NewSkipList(20)
	rng := prng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(1<<16)) + 1
		if !s.Insert(k, k) {
			s.Delete(k)
		}
	}
}

// BenchmarkSkipListChurn runs the served churn mix on one store partition:
// 2^17 keys at 16 levels (one partition of a 2^20-record, 8-partition store
// at the default skiplist height), uniform 50/25/25 get/insert/remove, with
// inserts minting fresh keys and removes taking random live ones, so the
// population stays near 2^17.
func BenchmarkSkipListChurn(b *testing.B) {
	const n = 1 << 17
	s := NewSkipList(16)
	// i*odd is a bijection mod 2^63: fresh(i) never repeats, and +1 keeps
	// it clear of the reserved sentinels.
	fresh := func(i uint64) uint64 { return (i*0x9e3779b97f4a7c15)&(1<<63-1) + 1 }
	live := make([]uint64, 0, 2*n)
	minted := uint64(0)
	for ; minted < n; minted++ {
		k := fresh(minted)
		s.Insert(k, k)
		live = append(live, k)
	}
	rng := prng.New(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch op := rng.Intn(4); {
		case op < 2:
			s.Get(live[rng.Intn(len(live))])
		case op == 2:
			k := fresh(minted)
			minted++
			s.Insert(k, k)
			live = append(live, k)
		default:
			j := rng.Intn(len(live))
			s.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

func BenchmarkSkipListGetParallel(b *testing.B) {
	s := NewSkipList(20)
	const n = 1 << 16
	for i := uint64(1); i <= n; i++ {
		s.Insert(i, i)
	}
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := prng.New(seed.Add(1))
		for pb.Next() {
			s.Get(uint64(rng.Intn(n)) + 1)
		}
	})
}

func BenchmarkSkipListMixedParallel(b *testing.B) {
	s := NewSkipList(20)
	const n = 1 << 16
	for i := uint64(1); i <= n; i++ {
		s.Insert(i, i)
	}
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := prng.New(seed.Add(1))
		for pb.Next() {
			k := uint64(rng.Intn(n)) + 1
			switch rng.Intn(10) {
			case 0:
				s.Insert(k, k)
			case 1:
				s.Delete(k)
			default:
				s.Get(k)
			}
		}
	})
}

func BenchmarkBTreeGet(b *testing.B) {
	t := NewBTree()
	const n = 1 << 16
	for i := uint64(1); i <= n; i++ {
		t.Put(i, i)
	}
	rng := prng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(uint64(rng.Intn(n)) + 1)
	}
}

func BenchmarkBTreePut(b *testing.B) {
	t := NewBTree()
	rng := prng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Put(rng.Next()>>1+1, 1)
	}
}
