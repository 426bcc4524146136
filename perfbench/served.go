package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/metrics"
	"hybrids/internal/server"
	"hybrids/internal/store"
	"hybrids/internal/ycsb"
)

// servedSpec is one served workload: an engine behind the TCP server, a
// preloaded record set and a YCSB op mix driven by closed-loop
// connections, each keeping depth requests in flight.
type servedSpec struct {
	name    string
	engine  string
	records int
	keyMax  uint32
	mix     func(records int, keyMax uint32, seed uint64) ycsb.Config
	conns   int
	depth   int
	window  int
	// cycle replays each connection's stream from its start when it runs
	// out; only mixes without inserts or removes may cycle, so a replayed
	// op means the same thing the second time.
	cycle bool
	// warmOps is the untimed per-connection prefix run before the gate.
	warmOps int
}

// servedSpecs lists the served workloads (README.md says why each).
func servedSpecs() []servedSpec {
	return []servedSpec{
		{
			name: "serve-btree-ycsbb-d16", engine: "btree",
			records: 1 << 20, keyMax: 1 << 24,
			mix: func(records int, keyMax uint32, seed uint64) ycsb.Config {
				cfg, _ := ycsb.Workload("b", records, keyMax, seed)
				return cfg
			},
			conns: 2, depth: 16, window: 16, cycle: true, warmOps: 50000,
		},
		{
			name: "serve-skiplist-churn-d1", engine: "skiplist",
			records: 1 << 20, keyMax: 1 << 24,
			mix: func(records int, keyMax uint32, seed uint64) ycsb.Config {
				return ycsb.Mix(records, keyMax, 50, 25, 25, seed)
			},
			conns: 2, depth: 1, window: 16, cycle: false, warmOps: 10000,
		},
	}
}

const (
	// setupRepeats is how many instances a run sets up, one after
	// another; setup_s is their median set-up time.
	setupRepeats = 3
	// cycleLen is the per-connection stream length of cycling workloads.
	cycleLen = 1 << 18
	// maxOpsPerConnSec bounds one connection's rate: it sizes the
	// per-connection response records and latency buffers. A run that
	// outpaces it fails rather than measure a short phase.
	maxOpsPerConnSec = 300_000
	// streamOpsPerConnSec sizes the streams of workloads that cannot
	// cycle, three times above the rate they reach on a 2-core host. With
	// 2^20 records in a 2^24 key space the generator has about 3M fresh
	// insert keys, above the 2 × 25% × 60 × 60k = 1.8M a 60-second churn
	// run can issue (a fresh key that repeats fails the oracle).
	streamOpsPerConnSec = 60_000
	// replayOps bounds each direct-layer replay's ops per goroutine.
	replayOps = 100_000
	// sampleEvery is the client span sampling interval in the traced
	// phase (one request span per sampleEvery requests per connection).
	sampleEvery = 64
)

// wire is one raw protocol connection with reusable encode and decode
// buffers, so the measured loop does not allocate.
type wire struct {
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	reqBuf  []byte
	scratch []byte
	sendAt  []time.Time // send times of the in-flight window, by op index mod depth
}

func dialWire(addr string, depth int) (*wire, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wire{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 32<<10),
		bw:      bufio.NewWriterSize(nc, 32<<10),
		reqBuf:  make([]byte, 0, 64),
		scratch: make([]byte, 0, 512),
		sendAt:  make([]time.Time, depth),
	}, nil
}

// opCode maps a YCSB op kind to its protocol operation code.
func opCode(k kv.Kind) uint8 {
	switch k {
	case kv.Read:
		return server.OpGet
	case kv.Update:
		return server.OpUpdate
	case kv.Insert:
		return server.OpPut
	default:
		return server.OpDelete
	}
}

func (w *wire) send(op kv.Op) error {
	w.reqBuf = server.AppendRequest(w.reqBuf[:0], server.Request{Op: opCode(op.Kind), Key: uint64(op.Key), Value: uint64(op.Value)})
	_, err := w.bw.Write(w.reqBuf)
	return err
}

func (w *wire) recv(op kv.Op) (server.Response, error) {
	resp, scratch, _, err := server.ReadResponseReuse(w.br, opCode(op.Kind), w.scratch, nil)
	w.scratch = scratch
	return resp, err
}

// connLog is one connection's record of every op it completed: status
// and value by absolute op index, checked by the oracle after the run.
type connLog struct {
	status []uint8
	value  []uint64
}

// servedRig is one set-up instance of a served workload.
type servedRig struct {
	spec    servedSpec
	load    []ycsb.Pair
	streams [][]kv.Op
	h       *core.Hybrid
	srv     *server.Server
	served  chan error
	wires   []*wire
	// cursor is each connection's next op index (absolute: it runs past
	// the stream length on cycling workloads).
	cursor []int
	logs   []connLog
}

// opAt returns connection c's op at absolute index i.
func (r *servedRig) opAt(c, i int) kv.Op {
	s := r.streams[c]
	if r.spec.cycle {
		return s[i%len(s)]
	}
	return s[i]
}

// canSend reports whether connection c may send op i.
func (r *servedRig) canSend(c, i int) bool {
	return (r.spec.cycle || i < len(r.streams[c])) && i < cap(r.logs[c].status)
}

// inputs generates the workload's load set and one op stream per
// connection from seed alone.
func (spec servedSpec) inputs(seconds int, seed uint64) ([]ycsb.Pair, [][]kv.Op) {
	gen := ycsb.New(spec.mix(spec.records, spec.keyMax, seed))
	load := gen.Load()
	perConn := cycleLen
	if !spec.cycle {
		perConn = spec.warmOps + seconds*streamOpsPerConnSec + replayOps
	}
	return load, gen.Streams(spec.conns, perConn)
}

// setupServed generates the inputs, builds and preloads the store, starts
// the server, dials every connection and runs the untimed warmup.
func setupServed(spec servedSpec, seconds int, seed uint64, sp *spanLog, parent uint64) (*servedRig, error) {
	eng, ok := store.Lookup(spec.engine)
	if !ok {
		return nil, fmt.Errorf("unknown engine %q", spec.engine)
	}
	r := &servedRig{spec: spec}
	start := time.Now()
	r.load, r.streams = spec.inputs(seconds, seed)
	sp.add("generate", "setup", 0, 0, parent, start)

	start = time.Now()
	r.h = core.New(core.Config{Partitions: 8, KeyMax: uint64(spec.keyMax), NewStore: eng.NewNative(store.Tuning{})})
	pairs := make([]core.KV, len(r.load))
	for i, p := range r.load {
		pairs[i] = core.KV{Key: uint64(p.Key), Value: uint64(p.Value)}
	}
	r.h.Build(pairs)
	sp.add("build", "setup", 0, 0, parent, start)

	start = time.Now()
	r.srv = server.New(r.h, server.Config{Store: spec.engine, Window: spec.window})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.h.Close()
		return nil, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	logCap := spec.warmOps + seconds*maxOpsPerConnSec + replayOps
	for c := 0; c < spec.conns; c++ {
		w, err := dialWire(ln.Addr().String(), spec.depth)
		if err != nil {
			r.teardown()
			return nil, err
		}
		r.wires = append(r.wires, w)
		r.logs = append(r.logs, connLog{status: make([]uint8, 0, logCap), value: make([]uint64, 0, logCap)})
	}
	r.cursor = make([]int, spec.conns)
	sp.add("listen", "setup", 0, 0, parent, start)

	// Collect the set-up garbage before the warmup, so the collection
	// (which also empties the runtime's pools and caches) lands in set-up
	// and the warmup refills what the measured phase will reuse.
	runtime.GC()
	start = time.Now()
	var wg sync.WaitGroup
	errs := make([]error, spec.conns)
	for c := range r.wires {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = r.drive(c, r.cursor[c]+spec.warmOps, nil, nil, nil, 0)
		}(c)
	}
	wg.Wait()
	sp.add("warm", "setup", 0, 0, parent, start)
	for _, err := range errs {
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	return r, nil
}

// stopServing closes the connections and drains the server. The store
// stays open for direct replays and the final dump.
func (r *servedRig) stopServing() {
	for _, w := range r.wires {
		w.nc.Close()
	}
	r.wires = nil
	if r.srv != nil {
		r.srv.Shutdown()
		<-r.served
		r.srv = nil
	}
}

// teardown releases everything the rig holds.
func (r *servedRig) teardown() {
	r.stopServing()
	r.h.Close()
}

// drive runs connection c from its cursor until op index limit
// (exclusive) or until stop is set, logging every response, and advances
// the cursor. See closedLoop for lats, sp and tid.
func (r *servedRig) drive(c, limit int, stop *atomic.Bool, lats *latLog, sp *spanLog, tid int) (int, error) {
	opAt := func(i int) kv.Op { return r.opAt(c, i) }
	canSend := func(i int) bool { return r.canSend(c, i) }
	n, err := closedLoop(r.wires[c], r.spec.depth, r.cursor[c], limit, opAt, canSend, stop, lats, &r.logs[c], sp, tid)
	r.cursor[c] += n
	return n, err
}

// closedLoop runs w as a closed loop with depth requests in flight: ops
// first..limit-1 (while canSend allows and stop is unset), then drains
// the window. It appends each request's send-to-response latency in ns
// to lats and each response to log when those are non-nil, and records
// every sampleEvery-th request as a span on timeline tid when sp is
// non-nil. It returns the number of ops completed.
func closedLoop(w *wire, depth, first, limit int, opAt func(int) kv.Op, canSend func(int) bool,
	stop *atomic.Bool, lats *latLog, log *connLog, sp *spanLog, tid int) (int, error) {
	next, done := first, first
	more := func() bool {
		return next < limit && (stop == nil || !stop.Load()) && canSend(next)
	}
	for next-done < depth && more() {
		w.sendAt[next%depth] = time.Now()
		if err := w.send(opAt(next)); err != nil {
			return 0, err
		}
		next++
	}
	if err := w.bw.Flush(); err != nil {
		return 0, err
	}
	for done < next {
		resp, err := w.recv(opAt(done))
		if err != nil {
			return done - first, err
		}
		sent := w.sendAt[done%depth]
		if lats != nil {
			lats.add(uint32(time.Since(sent)))
		}
		if sp != nil && done%sampleEvery == 0 {
			sp.add("request", "client", tid, uint64(tid)<<40|uint64(done), sp.phase, sent)
		}
		if log != nil {
			log.status = append(log.status, resp.Status)
			log.value = append(log.value, resp.Value)
		}
		done++
		if more() {
			w.sendAt[next%depth] = time.Now()
			if err := w.send(opAt(next)); err != nil {
				return done - first, err
			}
			if err := w.bw.Flush(); err != nil {
				return done - first, err
			}
			next++
		}
	}
	return done - first, nil
}

// latLog is one connection's latency record: samples in ns, appended
// by the connection's goroutine, with the count published so window
// boundaries can be marked while the phase runs.
type latLog struct {
	lats []uint32
	n    atomic.Int64
}

func (l *latLog) add(ns uint32) {
	l.lats = append(l.lats, ns)
	l.n.Store(int64(len(l.lats)))
}

// window is one slice of a measured phase.
type window struct {
	ops  int64
	wall time.Duration
	cpu  time.Duration
}

// phase is one measured closed-loop phase's outcome: the whole phase and
// its one-second windows.
type phase struct {
	ops     int64
	lats    []uint32 // sorted
	wall    time.Duration
	mallocs uint64
	gcs     uint32
	windows []window
	// srvBefore/srvAfter and coreBefore/coreAfter are registry snapshots
	// taken at quiescence around the phase.
	srvBefore, srvAfter   []metrics.HistSnapshot
	coreBefore, coreAfter []metrics.HistSnapshot
}

// mark is a window boundary: every connection's completed-op count, the
// process CPU time and the wall clock.
type mark struct {
	counts []int64
	cpu    time.Duration
	at     time.Time
}

// measure opens the gate for every connection at once, runs for d in
// one-second windows, stops and drains. Registry and process snapshots
// are taken only while every connection is idle; window boundaries read
// only atomic counts and the CPU clock.
func (r *servedRig) measure(d time.Duration, seconds int, sp *spanLog) (phase, error) {
	var p phase
	n := len(r.wires)
	logs := make([]latLog, n)
	for c := range logs {
		logs[c].lats = make([]uint32, 0, seconds*maxOpsPerConnSec)
	}
	k := max(1, int(d/time.Second))
	marks := make([]mark, k+1)
	for i := range marks {
		marks[i].counts = make([]int64, n)
	}
	var stop atomic.Bool
	gate := make(chan struct{})
	var wg sync.WaitGroup
	counts := make([]int, n)
	errs := make([]error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-gate
			counts[c], errs[c] = r.drive(c, int(^uint(0)>>1), &stop, &logs[c], sp, c+1)
		}(c)
	}
	_, p.srvBefore = r.srv.ExportMetrics()
	_, p.coreBefore = r.h.ExportMetrics()
	// The first sleep allocates the goroutine's timer; take it here, so
	// the window's sleeps allocate nothing.
	time.Sleep(time.Millisecond)
	before := sampleProc()
	marks[0].cpu, marks[0].at = before.cpu, before.wall
	close(gate)
	for w := 1; w <= k; w++ {
		time.Sleep(time.Until(before.wall.Add(d * time.Duration(w) / time.Duration(k))))
		if w == k {
			stop.Store(true)
		}
		for c := range logs {
			marks[w].counts[c] = logs[c].n.Load()
		}
		marks[w].cpu, marks[w].at = cpuTime(), time.Now()
	}
	wg.Wait()
	after := sampleProc()
	_, p.srvAfter = r.srv.ExportMetrics()
	_, p.coreAfter = r.h.ExportMetrics()
	for c := 0; c < n; c++ {
		if errs[c] != nil {
			return p, errs[c]
		}
		if !r.canSend(c, r.cursor[c]) {
			return p, fmt.Errorf("connection %d ran out of its %d-op stream or response log", c, len(r.streams[c]))
		}
		p.ops += int64(counts[c])
		p.lats = append(p.lats, logs[c].lats...)
	}
	slices.Sort(p.lats)
	for w := 1; w <= k; w++ {
		win := window{wall: marks[w].at.Sub(marks[w-1].at), cpu: marks[w].cpu - marks[w-1].cpu}
		for c := range logs {
			win.ops += marks[w].counts[c] - marks[w-1].counts[c]
		}
		p.windows = append(p.windows, win)
	}
	p.wall = after.wall.Sub(before.wall)
	p.mallocs = after.mallocs - before.mallocs
	p.gcs = after.numGC - before.numGC
	return p, nil
}

// histMean returns the mean of the phase's samples summed over every
// histogram whose name matches: sum delta over count delta.
func histMean(before, after []metrics.HistSnapshot, match func(string) bool) float64 {
	var sum, count uint64
	for _, h := range after {
		if match(h.Name) {
			sum += h.Sum
			count += h.Count
		}
	}
	for _, h := range before {
		if match(h.Name) {
			sum -= h.Sum
			count -= h.Count
		}
	}
	return ratio(float64(sum), float64(count))
}

func (p phase) throughput() float64 { return float64(p.ops) / p.wall.Seconds() }

func usOf(ns uint32) float64 { return float64(ns) / 1e3 }

// runServed runs one served workload. It sets up setupRepeats instances
// one after another; setup_s is their median set-up time. Untraced, each
// instance is measured for an equal share of the run's seconds and then
// checked by the oracle, and every end-to-end metric is the median over
// the one-second windows of all instances, so one instance's scheduling
// luck cannot set a run's figures. The traced mode measures only the last
// instance (see tracedServed).
func runServed(spec servedSpec, o options) (*result, error) {
	var sp *spanLog
	if o.trace {
		sp = newSpanLog(1 << 20)
	}
	res := &result{Correct: true}
	total := time.Duration(o.seconds) * time.Second
	var setups []float64
	var windows []window
	var lats []uint32
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // collect the previous instance before building the next
		start := time.Now()
		id := sp.newID()
		rig, err := setupServed(spec, o.seconds, o.seed, sp, id)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		sp.add("setup", "setup", 0, id, 0, start)
		if o.trace {
			if i < setupRepeats-1 {
				rig.teardown()
				continue
			}
			res.set("setup_s", median(setups))
			return tracedServed(rig, o, sp, res)
		}
		p, err := rig.measure(total/setupRepeats, o.seconds, nil)
		if err != nil {
			rig.teardown()
			return nil, err
		}
		windows = append(windows, p.windows...)
		lats = append(lats, p.lats...)
		rig.stopServing()
		checkServed(rig, res)
		rig.h.Close()
	}
	res.set("setup_s", median(setups))
	res.set("throughput_ops_s", medianOf(windows, func(w window) float64 { return float64(w.ops) / w.wall.Seconds() }))
	// Latency percentiles pool every request of the run: a window's p99
	// rests on a few hundred requests and swings with them.
	slices.Sort(lats)
	res.set("lat_p50_us", usOf(quantile(lats, 0.50)))
	res.set("lat_p99_us", usOf(quantile(lats, 0.99)))
	res.set("cpu_us_per_op", medianOf(windows, func(w window) float64 { return ratio(w.cpu.Seconds()*1e6, float64(w.ops)) }))
	res.set("max_rss_mb", maxRSSMB())
	return res, nil
}

// tracedServed is the traced mode on the last set-up instance. Phase A is
// untraced and carries the client, registry and process figures; phase B
// repeats it with request spans, so the throughput difference is the
// tracing overhead. Then each layer is timed directly.
func tracedServed(rig *servedRig, o options, sp *spanLog, res *result) (*result, error) {
	spec := rig.spec
	total := time.Duration(o.seconds) * time.Second
	a, err := rig.measure(total/2, o.seconds, nil)
	if err != nil {
		rig.teardown()
		return nil, err
	}
	start := time.Now()
	phaseID := sp.beginPhase()
	b, err := rig.measure(total-total/2, o.seconds, sp)
	if err != nil {
		rig.teardown()
		return nil, err
	}
	sp.add("traced-phase", "client", 0, phaseID, 0, start)
	res.set("trace.overhead_frac", a.throughput()/b.throughput()-1)
	res.set("server.batch_mean", histMean(a.srvBefore, a.srvAfter, func(n string) bool { return n == "server/batch" }))
	res.set("core.combiner_batch_mean", histMean(a.coreBefore, a.coreAfter, func(n string) bool { return strings.HasSuffix(n, "/batch") }))
	res.set("core.mailbox_depth_mean", histMean(a.coreBefore, a.coreAfter, func(n string) bool { return strings.HasSuffix(n, "/mailbox") }))
	res.set("proc.allocs_per_op", float64(a.mallocs)/float64(a.ops))
	res.set("proc.gc_cycles", float64(a.gcs))
	res.set("client.lat_p999_us", usOf(quantile(a.lats, 0.999)))
	res.set("client.lat_samples", float64(len(a.lats)))
	fmt.Printf("proc.allocs exact: %d mallocs / %d ops\n", a.mallocs, a.ops)
	rig.stopServing()

	coreP50, coreCPU, err := replayCore(rig, sp)
	if err != nil {
		rig.h.Close()
		return nil, err
	}
	res.set("core.apply_p50_ns", coreP50)
	res.set("core.cpu_us_per_op", coreCPU)
	checkServed(rig, res)
	rig.h.Close()

	cds := replayCDS(spec, rig, sp)
	for k, v := range cds {
		res.set(k, v)
	}
	codecNs := codecCost(rig, sp)
	res.set("codec.ns_per_op", codecNs)
	echoP50, echoCPU, err := echoRTT(rig, o.seconds, sp)
	if err != nil {
		return nil, err
	}
	res.set("tcp.echo_rtt_us", echoP50)
	res.set("tcp.echo_cpu_us_per_op", echoCPU)
	// The core replay drives the store, so its time already holds the cds
	// share; cds is reported beside it, not added twice.
	clientP50 := usOf(quantile(a.lats, 0.50))
	res.set("ledger.residual_us", clientP50-(coreP50/1e3+codecNs/1e3+echoP50))

	name := fmt.Sprintf("%s-seed%d.json", spec.name, o.seed)
	path, err := sp.writeChrome(o.traceOut, name)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %s (%d spans, %d dropped)\n", path, len(sp.spans), sp.dropped)
	return res, nil
}
