package engine

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits briefly for the goroutine count to fall to at
// most want and returns the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunLeavesNoCoroutines: every actor's coroutine ends with its body,
// so running many engines to completion leaves no goroutine behind.
func TestRunLeavesNoCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := New()
		var waiter *Actor
		waiter = e.Spawn("waiter", false, func(a *Actor) { a.Block() })
		e.Spawn("waker", false, func(a *Actor) {
			a.Advance(3)
			a.Unblock(waiter, 1)
		})
		e.Spawn("daemon", true, func(a *Actor) {
			for !a.Stopping() {
				a.Block()
			}
		})
		e.Spawn("ticker", true, func(a *Actor) {
			for !a.Stopping() {
				a.Advance(2)
			}
		})
		e.Run()
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines: %d after 100 runs, baseline %d", n, base)
	}
}

// TestDeadlockPanicReachesRunCaller: an actor blocked with no possible
// unblocker is a deadlock. Run panics on its caller's goroutine, where the
// panic can be recovered, and the parked actors are unwound (their defers
// run) so none outlives the engine.
func TestDeadlockPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	unwound := 0
	e.Spawn("stuck", false, func(a *Actor) {
		defer func() { unwound++ }()
		a.Block()
		t.Error("stuck actor resumed after the deadlock")
	})
	e.Spawn("parked", true, func(a *Actor) {
		defer func() { unwound++ }()
		a.Block()
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	msg, _ := got.(string)
	if !strings.HasPrefix(msg, "engine: deadlock") {
		t.Fatalf("Run panicked with %v, want an engine: deadlock message", got)
	}
	if !strings.Contains(msg, "parked") || !strings.Contains(msg, "stuck") {
		t.Errorf("deadlock message %q does not name the live actors", msg)
	}
	if unwound != 2 {
		t.Errorf("%d of 2 parked actors unwound", unwound)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines: %d after the deadlock, baseline %d", n, base)
	}
}

// TestActorPanicSurfacesFromRun: a panic inside an actor's body reaches
// the caller of Run with its original value, and the other actors are
// unwound.
func TestActorPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	type boom struct{ at uint64 }
	want := &boom{}
	e := New()
	peerUnwound := false
	e.Spawn("peer", false, func(a *Actor) {
		defer func() { peerUnwound = true }()
		for {
			a.Advance(1)
		}
	})
	e.Spawn("faulty", false, func(a *Actor) {
		a.Advance(10)
		want.at = a.Now()
		panic(want)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != any(want) {
		t.Fatalf("Run panicked with %#v, want the actor's own value %#v", got, want)
	}
	if want.at != 10 {
		t.Errorf("faulty actor panicked at %d, want 10", want.at)
	}
	if !peerUnwound {
		t.Error("peer actor was not unwound")
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines: %d after the panic, baseline %d", n, base)
	}
}
