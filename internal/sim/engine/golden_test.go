package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybrids/internal/sim/trace"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// runGoldenScenario runs a fixed scenario that exercises every dispatch
// path of the engine and returns its dispatch sequence, one "ID time" line
// per dispatch. Every actor's dispatch spans are routed into one shared
// trace track (each actor's track is preset before it first parks), so the
// track's event order is the engine's global dispatch order.
//
// The scenario covers:
//   - eight actors with mutually prime Advance steps, every third step an
//     Advance(0) that ties with same-cycle peers;
//   - a Block/Unblock doorbell pair, including an Unblock that lands while
//     the waiter is parked inside Advance (the wakePending permit);
//   - a Spawn from a running actor;
//   - two daemons that exit on Stopping, one advancing and one blocked.
func runGoldenScenario(t *testing.T) string {
	e := New()
	tr := trace.New(1 << 12)
	e.SetTracer(tr)
	track := tr.NewTrack("dispatch")
	spawn := func(name string, daemon bool, body func(*Actor)) *Actor {
		a := e.Spawn(name, daemon, body)
		a.track = track
		return a
	}

	steps := []uint64{2, 3, 5, 7, 11, 13, 17, 19}
	for i, step := range steps {
		spawn(fmt.Sprintf("p%d", i), false, func(a *Actor) {
			for j := 0; j < 10; j++ {
				if j%3 == 2 {
					a.Advance(0)
				} else {
					a.Advance(step)
				}
				if i == 3 && j == 4 {
					spawn("child", false, func(c *Actor) {
						for k := 0; k < 3; k++ {
							c.Advance(4)
						}
					})
				}
			}
		})
	}

	var waiter *Actor
	waiter = spawn("waiter", false, func(a *Actor) {
		for i := 0; i < 3; i++ {
			a.Block()
		}
		a.Advance(50) // the ringer's fourth Unblock lands during this
		a.Block()     // consumes the pending permit without parking
		a.Advance(1)
	})
	spawn("ringer", false, func(a *Actor) {
		for i := 0; i < 3; i++ {
			a.Advance(20)
			a.Unblock(waiter, uint64(i))
		}
		a.Advance(20)
		a.Unblock(waiter, 0)
	})

	spawn("poller", true, func(a *Actor) {
		for !a.Stopping() {
			a.Advance(9)
		}
	})
	spawn("sleeper", true, func(a *Actor) {
		for !a.Stopping() {
			a.Block()
		}
	})

	e.Run()
	if d := tr.Dropped(track); d != 0 {
		t.Fatalf("dispatch track dropped %d spans; raise the tracer capacity", d)
	}
	evs := tr.Events(track)
	if got := e.stDispatches.Value(); got != uint64(len(evs)) {
		t.Fatalf("engine/dispatches = %d, but %d run spans recorded", got, len(evs))
	}
	var b strings.Builder
	b.WriteString("# engine dispatch order: actor ID, virtual time of the dispatch\n")
	for _, ev := range evs {
		if ev.Kind != trace.KindRun {
			t.Fatalf("unexpected %v event on the dispatch track", ev.Kind)
		}
		fmt.Fprintf(&b, "%d %d\n", ev.Arg, ev.TS)
	}
	return b.String()
}

// TestDispatchOrderGolden pins the engine's exact dispatch sequence for a
// fixed scenario against a checked-in golden file, so a change to how
// control moves between actors cannot silently reorder dispatches.
// Regenerate with: go test ./internal/sim/engine -run DispatchOrderGolden -update
func TestDispatchOrderGolden(t *testing.T) {
	got := runGoldenScenario(t)
	path := filepath.Join("testdata", "dispatch_order.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("dispatch order diverges from %s at line %d: got %q, want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dispatch order has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
