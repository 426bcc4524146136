package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer.
type span struct {
	name   string
	cat    string // the layer the span times
	tid    int    // the timeline (connection, goroutine or phase)
	id     uint64 // shared by the spans of one request
	parent uint64 // id of the span that caused this one (0: none)
	start  time.Duration
	dur    time.Duration
}

// spanLog keeps spans in memory, preallocated so recording never
// allocates, and writes them when the run ends. A nil *spanLog records
// nothing, which is how untraced runs pass it around.
type spanLog struct {
	t0     time.Time
	lastID atomic.Uint64
	// phase is the id of the measured phase request spans belong to.
	phase   uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

// newID returns a fresh span id, for a span whose children are recorded
// before it ends (0 on the nil log).
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.lastID.Add(1)
}

// beginPhase starts a measured phase: request spans recorded from now on
// name it as their parent. It returns the phase's span id (0 on the nil
// log).
func (l *spanLog) beginPhase() uint64 {
	if l == nil {
		return 0
	}
	l.phase = l.newID()
	return l.phase
}

// newSpanLog returns a log holding up to capacity spans.
func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// add records one span that started at start and ends now.
func (l *spanLog) add(name, cat string, tid int, id, parent uint64, start time.Time) {
	if l == nil {
		return
	}
	end := time.Now()
	l.mu.Lock()
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{name: name, cat: cat, tid: tid, id: id, parent: parent,
			start: start.Sub(l.t0), dur: end.Sub(start)})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace_event JSON (the same
// traceEvents layout internal/sim/trace emits, with wall-clock
// microseconds on the time axis) into dir/name.
func (l *spanLog) writeChrome(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ms","otherData":{"dropped_spans":%d},"traceEvents":[`, l.dropped)
	for i, s := range l.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n"+`{"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"name":%s,"cat":%s,"args":{"id":%d,"parent":%d}}`,
			s.tid, float64(s.start.Nanoseconds())/1e3, float64(s.dur.Nanoseconds())/1e3,
			strconv.Quote(s.name), strconv.Quote(s.cat), s.id, s.parent)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
