package engine

import (
	"fmt"
	"testing"
)

// BenchmarkEngineDispatch measures the dispatch loop under contention:
// eight actors with mutually prime step sizes, so nearly every Advance
// re-sorts into the heap and yields to Run, which resumes the next actor's
// coroutine. Reports the dispatch rate (events/s) and the cost per
// dispatched event (ns/event).
func BenchmarkEngineDispatch(b *testing.B) {
	const actors = 8
	e := New()
	per := b.N/actors + 1
	for i := 0; i < actors; i++ {
		step := uint64(2*i + 1)
		e.Spawn(fmt.Sprintf("a%d", i), false, func(a *Actor) {
			for j := 0; j < per; j++ {
				a.Advance(step)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	events := float64(e.stDispatches.Value())
	sec := b.Elapsed().Seconds()
	if events > 0 && sec > 0 {
		b.ReportMetric(events/sec, "events/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	}
}

// BenchmarkEngineAdvanceFastPath measures the uncontended case: a single
// runnable actor advancing with an empty heap, which the inlined Advance
// fast path must keep free of coroutine switches.
func BenchmarkEngineAdvanceFastPath(b *testing.B) {
	e := New()
	e.Spawn("solo", false, func(a *Actor) {
		for i := 0; i < b.N; i++ {
			a.Advance(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineBlockUnblock measures the doorbell round trip the
// flat-combining layer leans on: a client that blocks awaiting service and
// a server that wakes it, alternating.
func BenchmarkEngineBlockUnblock(b *testing.B) {
	e := New()
	var client *Actor
	client = e.Spawn("client", false, func(a *Actor) {
		for i := 0; i < b.N; i++ {
			a.Block()
		}
	})
	e.Spawn("server", false, func(a *Actor) {
		for i := 0; i < b.N; i++ {
			a.Advance(1)
			a.Unblock(client, 1)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	events := float64(e.stDispatches.Value())
	sec := b.Elapsed().Seconds()
	if events > 0 && sec > 0 {
		b.ReportMetric(events/sec, "events/s")
	}
}
