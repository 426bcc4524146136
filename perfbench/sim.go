package main

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/metrics"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
	"hybrids/internal/store"
	"hybrids/internal/ycsb"
)

// simSpec is the simulator workload: an engine's simulated hybrid on the
// Table 1 machine, driven by simulated host threads through the
// non-blocking offload window.
type simSpec struct {
	name      string
	engine    string
	records   int
	levels    int
	nmpLevels int
	keyMax    uint32
	threads   int
	window    int
	// warm ops per thread run untimed; cell ops per thread form the one
	// deterministic cell every simulated count comes from; chunk ops per
	// thread repeat after it, each chunk one host-time sample, until the
	// run's seconds are up.
	warm, cell, chunk int
	// stream is the per-thread stream length; chunks cycle through it
	// (the mix is read-only, so a replayed op means the same thing).
	stream int
	// memReads and engSteps size the traced-mode microdrives per thread.
	memReads, engSteps int
}

// paperSimSpec is the paper's 2^22-key, 22-level skiplist hybrid with 9
// NMP levels, 8 host threads, window 4, YCSB-C (Fig. 5 at paper scale).
func paperSimSpec() simSpec {
	return simSpec{
		name: "sim-skiplist-ycsbc", engine: "skiplist",
		records: 1 << 22, levels: 22, nmpLevels: 9, keyMax: 1 << 30,
		threads: 8, window: 4,
		warm: 1000, cell: 2000, chunk: 32, stream: 1 << 13,
		memReads: 20000, engSteps: 20000,
	}
}

// simRig is one set-up instance of the simulator workload.
type simRig struct {
	spec    simSpec
	load    []ycsb.Pair
	streams [][]kv.Op
	m       *machine.Machine
	h       store.SimHybrid
}

// inputs generates the workload's load set and one op stream per host
// thread from seed alone.
func (spec simSpec) inputs(seed uint64) ([]ycsb.Pair, [][]kv.Op) {
	gen := ycsb.New(ycsb.YCSBC(spec.records, spec.keyMax, seed))
	return gen.Load(), gen.Streams(spec.threads, spec.stream)
}

// setupSim generates the inputs, builds and bulk-loads the simulated
// hybrid, and starts its NMP combiner daemons.
func setupSim(spec simSpec, seed uint64, sp *spanLog, parent uint64) (*simRig, error) {
	eng, ok := store.Lookup(spec.engine)
	if !ok {
		return nil, fmt.Errorf("unknown engine %q", spec.engine)
	}
	r := &simRig{spec: spec}
	start := time.Now()
	r.load, r.streams = spec.inputs(seed)
	sp.add("generate", "setup", 0, 0, parent, start)
	start = time.Now()
	r.m = machine.New(machine.Default())
	r.h = eng.NewSimHybrid(r.m, store.SimParams{
		SkiplistRecords: spec.records, SkiplistLevels: spec.levels, SkiplistNMPLevels: spec.nmpLevels,
		KeyMax: spec.keyMax, Window: spec.window, Seed: seed,
	})
	r.h.Build(r.load)
	r.h.Start()
	sp.add("build", "setup", 0, 0, parent, start)
	return r, nil
}

// simRun is what one simulated run measured.
type simRun struct {
	attempted, succeeded int64

	// The deterministic cell: virtual cycles and registry delta.
	cycles uint64
	cell   metrics.Snapshot

	// Host time and registry delta over the cell and every chunk after
	// it, and the chunks themselves.
	wall   time.Duration
	whole  metrics.Snapshot
	chunks []chunk
	// Untraced (first half) and traced (second half) chunk rates, traced
	// mode only.
	rateA, rateB float64

	// Microdrives (traced mode only).
	eng, memHit, memMiss microdrive
}

// microdrive is one microdrive's wall time and registry counts.
type microdrive struct {
	wall       time.Duration
	dispatches uint64
	stats      memsys.Stats
}

// nsPerAccess is the drive's host ns per memory access once its engine
// dispatches are charged at nsPerDispatch.
func (d microdrive) nsPerAccess(nsPerDispatch float64) float64 {
	return ratio(float64(d.wall.Nanoseconds())-float64(d.dispatches)*nsPerDispatch, float64(accesses(d.stats)))
}

// chunk is one host-time sample: a barrier-to-barrier slice of the run.
type chunk struct {
	end  time.Duration // since the first chunk began
	wall time.Duration
	cpu  time.Duration
	ops  int64
}

// accesses counts the accesses one memsys Stats delta records: every
// host cached access (data or page walk) ends in exactly one of an L1 hit,
// an L2 hit or a host DRAM read; NMP cores read through their buffer or
// their vault and touch their scratchpad; MMIO bursts cross between them.
func accesses(s memsys.Stats) uint64 {
	return s.L1Hits + s.L2Hits + s.HostDRAMReads + s.NMPBufHits + s.NMPDRAMReads +
		s.ScratchOps + s.MMIOReads + s.MMIOWrites
}

// run drives the simulation: untimed warmup, the deterministic cell, then
// host-time chunks for d, and in traced mode the engine and memsys
// microdrives. Rendezvous points are barriers
// in virtual time, so everything up to the cell's end is a pure function
// of the inputs; only the number of chunks after it depends on the host.
func (r *simRig) run(d time.Duration, traced bool, sp *spanLog) simRun {
	spec := r.spec
	m, reg := r.m, r.m.Metrics
	var out simRun
	threads := spec.threads

	// Barrier state. Exactly one actor runs at a time, so plain variables
	// are safe; last runs on the final arrival, before anyone leaves.
	arrived, generation := 0, 0
	var maxNow uint64
	barrier := func(c *machine.Ctx, last func()) {
		maxNow = max(maxNow, c.Now())
		arrived++
		if arrived == threads {
			arrived = 0
			if last != nil {
				last()
			}
			generation++
			return
		}
		mine := generation
		for generation == mine {
			c.Step(64)
		}
	}

	var cellStart uint64
	var snap0 metrics.Snapshot
	var wallStart, chunksStart, chunkStart time.Time
	var chunkCPU time.Duration
	cont := true
	tracing := false
	var opsA, opsB int64
	var durA, durB time.Duration
	// micro times one microdrive: body runs on every thread between two
	// barriers, and the last arrival records wall time and registry delta.
	var mark metrics.Snapshot
	var markWall time.Time
	micro := func(c *machine.Ctx, name string, into *microdrive, body func()) {
		barrier(c, func() { mark, markWall = reg.Snapshot(), time.Now() })
		body()
		barrier(c, func() {
			delta := reg.Snapshot().Sub(mark)
			*into = microdrive{wall: time.Since(markWall), dispatches: delta.Get("engine/dispatches"), stats: memsys.StatsFrom(delta)}
			sp.add(name, "sim", 2, 0, 0, markWall)
		})
	}

	for th := 0; th < threads; th++ {
		th := th
		m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
			s := r.streams[th]
			apply := func(ops []kv.Op) {
				out.succeeded += int64(r.h.ApplyBatch(c, th, ops))
				out.attempted += int64(len(ops))
			}
			apply(s[:spec.warm])
			barrier(c, func() {
				cellStart, maxNow = maxNow, 0
				snap0 = reg.Snapshot()
				wallStart = time.Now()
				chunkStart = wallStart
			})
			apply(s[spec.warm : spec.warm+spec.cell])
			barrier(c, func() {
				out.cycles = maxNow - cellStart
				out.cell = reg.Snapshot().Sub(snap0)
				chunkStart, chunkCPU = time.Now(), cpuTime()
				chunksStart = chunkStart
				cont = d > 0
			})
			pos := spec.warm + spec.cell
			for cont {
				if pos+spec.chunk > len(s) {
					pos = 0
				}
				apply(s[pos : pos+spec.chunk])
				pos += spec.chunk
				barrier(c, func() {
					now, cpu := time.Now(), cpuTime()
					n := int64(threads * spec.chunk)
					out.chunks = append(out.chunks, chunk{end: now.Sub(chunksStart), wall: now.Sub(chunkStart), cpu: cpu - chunkCPU, ops: n})
					if tracing {
						sp.add("chunk", "sim", 1, 0, sp.phase, chunkStart)
						opsB += n
						durB += now.Sub(chunkStart)
					} else {
						opsA += n
						durA += now.Sub(chunkStart)
					}
					tracing = traced && now.Sub(chunksStart) >= d/2
					chunkStart, chunkCPU = now, cpu
					cont = now.Sub(chunksStart) < d
				})
			}
			barrier(c, func() {
				out.wall = time.Since(wallStart)
				out.whole = reg.Snapshot().Sub(snap0)
			})
			if !traced {
				return
			}
			// Engine microdrive: pure dispatches, no memory traffic.
			micro(c, "engine-microdrive", &out.eng, func() {
				for i := 0; i < spec.engSteps; i++ {
					c.Step(1)
				}
			})
			// Memsys microdrives through Ctx.Read64 over the host
			// portion's footprint (at least the 1 MiB page-table reserve):
			// one rereads a thread-private 512-byte run (the L1-hit path
			// most of the cell's accesses take), one reads at random over
			// the whole footprint (the miss paths).
			base := m.Mem.HostAlloc.Base() + m.Mem.BlockSize()
			span := uint64(m.Mem.HostAlloc.Used()-m.Mem.BlockSize()) / 8
			micro(c, "memsys-hit-microdrive", &out.memHit, func() {
				own := base + memsys.Addr(th)*4096
				for i := 0; i < spec.memReads; i++ {
					c.Read64(own + memsys.Addr(i%64*8))
				}
			})
			rng := prng.New(uint64(th) + 1)
			micro(c, "memsys-miss-microdrive", &out.memMiss, func() {
				for i := 0; i < spec.memReads; i++ {
					c.Read64(base + memsys.Addr(rng.Next()%span*8))
				}
			})
		})
	}
	m.Run()
	out.rateA = ratio(float64(opsA), durA.Seconds())
	out.rateB = ratio(float64(opsB), durB.Seconds())
	return out
}

// windows splits one instance's chunks, measured over d, into equal
// windows of about a second by the time each chunk ended.
func windows(chunks []chunk, d time.Duration) [][]chunk {
	k := max(1, int(d/time.Second))
	out := make([][]chunk, k)
	for _, c := range chunks {
		w := min(k-1, int(c.end*time.Duration(k)/d))
		out[w] = append(out[w], c)
	}
	return out
}

// chunkQuantile returns the q-quantile of host ns per simulated op over
// chunks.
func chunkQuantile(chunks []chunk, q float64) float64 {
	ns := make([]float64, len(chunks))
	for i, c := range chunks {
		ns[i] = float64(c.wall.Nanoseconds()) / float64(c.ops)
	}
	slices.Sort(ns)
	return quantile(ns, q)
}

// runSim runs the simulator workload. Like runServed it sets up
// setupRepeats instances one after another (setup_s is the median);
// untraced, each instance runs the deterministic cell plus an equal share
// of the run's seconds in chunks, every instance's cell must produce the
// same simulated counts, and the host-time metrics are medians over the
// one-second windows of all instances. The traced mode measures only the
// last instance.
func runSim(spec simSpec, o options) (*result, error) {
	var sp *spanLog
	if o.trace {
		sp = newSpanLog(1 << 16)
	}
	res := &result{Correct: true}
	total := time.Duration(o.seconds) * time.Second
	var setups []float64
	var ws [][]chunk
	var first *simRun
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // collect the previous instance before building the next
		start := time.Now()
		id := sp.newID()
		rig, err := setupSim(spec, o.seed, sp, id)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		sp.add("setup", "setup", 0, id, 0, start)
		runtime.GC() // collect set-up garbage before measuring, not during
		if o.trace && i < setupRepeats-1 {
			rig.m.Run() // no host threads: the NMP daemons see Stopping and exit
			continue
		}
		d := total / setupRepeats
		if o.trace {
			d = total
		}
		start = time.Now()
		phaseID := sp.beginPhase()
		run := rig.run(d, o.trace, sp)
		sp.add("run", "sim", 0, phaseID, 0, start)
		checkSim(rig, run, res)
		if first == nil {
			first = &run
		} else if run.cycles != first.cycles || !maps.Equal(run.cell, first.cell) {
			res.fail("instance %d's cell differs from instance 1's: %d vs %d cycles", i+1, run.cycles, first.cycles)
		}
		if o.trace {
			res.set("setup_s", median(setups))
			return tracedSim(spec, run, o, sp, res)
		}
		for _, w := range windows(run.chunks, d) {
			if len(w) > 0 {
				ws = append(ws, w)
			}
		}
	}
	res.set("setup_s", median(setups))
	res.set("throughput_ops_s", medianOf(ws, func(cs []chunk) float64 {
		var ops int64
		var wall time.Duration
		for _, c := range cs {
			ops, wall = ops+c.ops, wall+c.wall
		}
		return float64(ops) / wall.Seconds()
	}))
	// Latency percentiles pool every chunk of the run, as the served
	// workloads pool every request.
	var all []chunk
	for _, w := range ws {
		all = append(all, w...)
	}
	res.set("lat_p50_us", chunkQuantile(all, 0.50)/1e3)
	res.set("lat_p99_us", chunkQuantile(all, 0.99)/1e3)
	res.set("cpu_us_per_op", medianOf(ws, func(cs []chunk) float64 {
		var ops int64
		var cpu time.Duration
		for _, c := range cs {
			ops, cpu = ops+c.ops, cpu+c.cpu
		}
		return cpu.Seconds() * 1e6 / float64(ops)
	}))
	res.set("max_rss_mb", maxRSSMB())
	return res, nil
}

// tracedSim turns the traced run of the last instance into the per-layer
// metrics.
func tracedSim(spec simSpec, run simRun, o options, sp *spanLog, res *result) (*result, error) {
	ops := float64(spec.threads * spec.cell)
	cell := memsys.StatsFrom(run.cell)
	acc := accesses(cell)
	hostCached := cell.L1Hits + cell.L2Hits + cell.HostDRAMReads
	res.set("sim.cycles", float64(run.cycles))
	res.set("sim_mops", ops/float64(run.cycles)*2e9/1e6) // 2 GHz clock
	res.set("sim_dram_reads_per_op", float64(cell.DRAMReads())/ops)
	res.set("engine.dispatches_per_op", float64(run.cell.Get("engine/dispatches"))/ops)
	res.set("memsys.accesses_per_op", float64(acc)/ops)
	res.set("memsys.l1_hit_frac", ratio(float64(cell.L1Hits), float64(hostCached)))
	res.set("memsys.l2_hit_frac", ratio(float64(cell.L2Hits), float64(cell.L2Hits+cell.HostDRAMReads)))
	res.set("offload.posted_per_op", float64(run.cell.Get("offload/posted"))/ops)
	res.set("offload.retries_per_op", float64(run.cell.Get("offload/retries"))/ops)
	res.set("offload.followups_per_op", float64(run.cell.Get("offload/followups"))/ops)

	// Host cached accesses are charged at the microdrives' costs: L1 hits
	// at the hit drive's, L2 hits and DRAM reads at the miss drive's. The
	// NMP-side accesses and MMIO bursts have no host-side microdrive, so
	// their host cost stays in the residual with the offload runtime's.
	nsPerDispatch := ratio(float64(run.eng.wall.Nanoseconds()), float64(run.eng.dispatches))
	hitNs, missNs := run.memHit.nsPerAccess(nsPerDispatch), run.memMiss.nsPerAccess(nsPerDispatch)
	memNs := func(s memsys.Stats) float64 {
		return float64(s.L1Hits)*hitNs + float64(s.L2Hits+s.HostDRAMReads)*missNs
	}
	whole := memsys.StatsFrom(run.whole)
	res.set("engine.host_ns_per_dispatch", nsPerDispatch)
	res.set("memsys.host_ns_per_access", ratio(memNs(cell), float64(hostCached)))
	explained := float64(run.whole.Get("engine/dispatches"))*nsPerDispatch + memNs(whole)
	res.set("ledger.sim_residual_frac", 1-explained/float64(run.wall.Nanoseconds()))
	res.set("trace.overhead_frac", ratio(run.rateA, run.rateB)-1)
	res.set("client.lat_samples", float64(len(run.chunks)))

	path, err := sp.writeChrome(o.traceOut, fmt.Sprintf("%s-seed%d.json", spec.name, o.seed))
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %s (%d spans, %d dropped)\n", path, len(sp.spans), sp.dropped)
	return res, nil
}

// checkSim is the simulator oracle: every read hit (YCSB-C reads only
// loaded keys and nothing removes them), the final contents equal the
// load set, and the structure's invariants hold.
func checkSim(rig *simRig, run simRun, res *result) {
	res.Attempted += run.attempted
	res.Failed += run.attempted - run.succeeded
	if run.succeeded != run.attempted {
		res.fail("%d of %d simulated reads missed", run.attempted-run.succeeded, run.attempted)
	}
	if err := verifySimDump(rig.load, rig.h.Dump()); err != nil {
		res.fail("%v", err)
	}
	if err := rig.h.CheckInvariants(); err != nil {
		res.fail("invariants: %v", err)
	}
	res.set("error_frac", ratio(float64(res.Failed), float64(res.Attempted)))
}

// verifySimDump checks that dump holds exactly the load set.
func verifySimDump(load []ycsb.Pair, dump []store.KV) error {
	want := newLoadIndex(load)
	if len(dump) != len(want) {
		return fmt.Errorf("final dump holds %d pairs, want %d", len(dump), len(want))
	}
	for i, p := range want {
		if dump[i].Key != p.Key || dump[i].Value != p.Value {
			return fmt.Errorf("final dump pair %d is %d=%d, want %d=%d", i, dump[i].Key, dump[i].Value, p.Key, p.Value)
		}
	}
	return nil
}
