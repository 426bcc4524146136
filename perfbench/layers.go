package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/metrics"
	"hybrids/internal/server"
	"hybrids/internal/store"
)

// Each function here times one served layer from outside, by calling its
// public functions directly with the workload's own op streams.

// replayBudget bounds each direct replay's wall time.
const replayBudget = time.Second

// replayCore replays every connection's stream from its cursor straight
// into the store's core.Hybrid through a core.Batcher (the server's
// window) — one goroutine per connection, no TCP — in batches of the
// workload's depth. It returns the p50 time of one Batcher.Apply call in
// ns and the process CPU per op in µs. Responses are logged like served
// ones, so the oracle covers them too.
func replayCore(rig *servedRig, sp *spanLog) (p50ns, cpuPerOp float64, err error) {
	spec := rig.spec
	calls := make([][]int64, spec.conns)
	counts := make([]int, spec.conns)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	for c := 0; c < spec.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			b := rig.h.NewBatcher(spec.window)
			ops := make([]hds.Request, 0, spec.depth)
			out := make([]core.Outcome, spec.depth)
			log := &rig.logs[c]
			calls[c] = make([]int64, 0, replayOps/spec.depth+1)
			i := rig.cursor[c]
			for counts[c] < replayOps && time.Since(start) < replayBudget {
				ops = ops[:0]
				for len(ops) < spec.depth && rig.canSend(c, i+len(ops)) {
					op := rig.opAt(c, i+len(ops))
					ops = append(ops, hds.Request{Kind: op.Kind, Key: uint64(op.Key), Value: uint64(op.Value)})
				}
				if len(ops) == 0 {
					break
				}
				t := time.Now()
				b.Apply(ops, out[:len(ops)])
				calls[c] = append(calls[c], int64(time.Since(t)))
				for _, o := range out[:len(ops)] {
					st := server.StatusOK
					switch {
					case o.Rejected:
						st = server.StatusRejected
					case !o.Result.OK:
						st = server.StatusMiss
					}
					log.status = append(log.status, st)
					log.value = append(log.value, o.Result.Value)
				}
				i += len(ops)
				counts[c] += len(ops)
			}
			rig.cursor[c] = i
			sp.add("core-replay", "core", 100+c, 0, 0, start)
		}(c)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	var all []int64
	total := 0
	for c := range calls {
		all = append(all, calls[c]...)
		total += counts[c]
	}
	if total == 0 {
		return 0, 0, errors.New("core replay ran no ops")
	}
	slices.Sort(all)
	return float64(quantile(all, 0.5)), cpu.Seconds() * 1e6 / float64(total), nil
}

// replayCDS builds one partition store through store.Engine.NewNative
// with the load records of partition 0, replays the streams' partition-0
// ops into it from a single goroutine, and times each call. It returns
// the cds.* metrics: mean ns per call by op kind (timer cost included),
// heap allocations per op, and traversal restarts per op.
func replayCDS(spec servedSpec, rig *servedRig, sp *spanLog) map[string]float64 {
	eng, _ := store.Lookup(spec.engine)
	st := eng.NewNative(store.Tuning{})(0)
	reg := metrics.NewRegistry()
	if ins, ok := st.(core.Instrumented); ok {
		ins.Instrument(reg, "cds")
	}
	span := (uint64(spec.keyMax) + 7) / 8
	start := time.Now()
	for _, p := range rig.load {
		if uint64(p.Key) < span {
			st.Put(uint64(p.Key), uint64(p.Value))
		}
	}
	var ops []kv.Op
	for i := 0; len(ops) < replayOps; i++ {
		progressed := false
		for c := range rig.streams {
			if i < len(rig.streams[c]) {
				progressed = true
				if op := rig.streams[c][i]; uint64(op.Key) < span {
					ops = append(ops, op)
				}
			}
		}
		if !progressed {
			break
		}
	}
	sp.add("cds-build", "cds", 200, 0, 0, start)

	var sum, cnt [hds.Scan + 1]int64
	restarts0 := counterValue(reg, "cds/restarts")
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	n := 0
	for _, op := range ops {
		if n%1024 == 0 && time.Since(start) > replayBudget {
			break
		}
		t := time.Now()
		switch op.Kind {
		case kv.Read:
			st.Get(uint64(op.Key))
		case kv.Update:
			st.Update(uint64(op.Key), uint64(op.Value))
		case kv.Insert:
			st.Put(uint64(op.Key), uint64(op.Value))
		case kv.Remove:
			st.Delete(uint64(op.Key))
		}
		sum[op.Kind] += int64(time.Since(t))
		cnt[op.Kind]++
		n++
	}
	runtime.ReadMemStats(&m1)
	sp.add("cds-replay", "cds", 200, 0, 0, start)
	return map[string]float64{
		"cds.get_ns":          ratio(float64(sum[kv.Read]), float64(cnt[kv.Read])),
		"cds.update_ns":       ratio(float64(sum[kv.Update]), float64(cnt[kv.Update])),
		"cds.insert_ns":       ratio(float64(sum[kv.Insert]), float64(cnt[kv.Insert])),
		"cds.remove_ns":       ratio(float64(sum[kv.Remove]), float64(cnt[kv.Remove])),
		"cds.allocs_per_op":   ratio(float64(m1.Mallocs-m0.Mallocs), float64(n)),
		"cds.restarts_per_op": ratio(float64(counterValue(reg, "cds/restarts")-restarts0), float64(n)),
	}
}

// counterValue reads a registry counter, 0 when the engine registers none.
func counterValue(reg *metrics.Registry, name string) uint64 {
	if c, ok := reg.LookupCounter(name); ok {
		return c.Value()
	}
	return 0
}

// codecCost encodes and decodes the first connection's request frames
// and matching scalar response frames in memory — server.AppendRequest,
// server.ReadRequest, server.AppendScalarResponse and
// server.ReadResponseReuse — and returns ns per op for all four.
func codecCost(rig *servedRig, sp *spanLog) float64 {
	ops := rig.streams[0]
	var req, resp, scratch []byte
	var rd bytes.Reader
	start := time.Now()
	n := 0
	for ; n < 4*replayOps; n++ {
		if n%1024 == 0 && time.Since(start) > replayBudget/2 {
			break
		}
		op := ops[n%len(ops)]
		req = server.AppendRequest(req[:0], server.Request{Op: opCode(op.Kind), Key: uint64(op.Key), Value: uint64(op.Value)})
		rd.Reset(req)
		r, err := server.ReadRequest(&rd)
		if err != nil {
			panic("codec: request round trip failed: " + err.Error())
		}
		resp = server.AppendScalarResponse(resp[:0], server.StatusOK, r.Key)
		rd.Reset(resp)
		if _, scratch, _, err = server.ReadResponseReuse(&rd, r.Op, scratch, nil); err != nil {
			panic("codec: response round trip failed: " + err.Error())
		}
	}
	elapsed := time.Since(start)
	sp.add("codec", "codec", 300, 0, 0, start)
	return float64(elapsed.Nanoseconds()) / float64(n)
}

// echoRTT runs the workload's client loop — same connections, depth and
// op frames — against a null responder on loopback that answers every
// request frame with a fixed OK frame, never touching a store. It
// returns the p50 round trip in µs and the process CPU per op in µs: the
// floor the transport and the harness itself put under every served
// number.
func echoRTT(rig *servedRig, seconds int, sp *spanLog) (p50us, cpuPerOp float64, err error) {
	spec := rig.spec
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	var responders sync.WaitGroup
	responders.Add(1)
	go func() {
		defer responders.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			responders.Add(1)
			go func() {
				defer responders.Done()
				nullRespond(nc)
			}()
		}
	}()
	defer func() {
		ln.Close()
		responders.Wait()
	}()

	d := time.Duration(seconds) * time.Second / 4
	d = min(max(d, 250*time.Millisecond), 2*time.Second)
	wires := make([]*wire, spec.conns)
	for c := range wires {
		if wires[c], err = dialWire(ln.Addr().String(), spec.depth); err != nil {
			return 0, 0, err
		}
		defer wires[c].nc.Close()
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	lats := make([]latLog, spec.conns)
	counts := make([]int, spec.conns)
	errs := make([]error, spec.conns)
	start := time.Now()
	cpu0 := cpuTime()
	for c := range wires {
		lats[c].lats = make([]uint32, 0, int(d.Seconds()*maxOpsPerConnSec)+1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := rig.streams[c]
			opAt := func(i int) kv.Op { return ops[i%len(ops)] }
			canSend := func(i int) bool { return len(lats[c].lats) < cap(lats[c].lats)-spec.depth }
			counts[c], errs[c] = closedLoop(wires[c], spec.depth, 0, int(^uint(0)>>1), opAt, canSend, &stop, &lats[c], nil, nil, 0)
		}(c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	cpu := cpuTime() - cpu0
	sp.add("echo", "tcp", 400, 0, 0, start)
	var all []uint32
	total := 0
	for c := range wires {
		if errs[c] != nil {
			return 0, 0, errs[c]
		}
		all = append(all, lats[c].lats...)
		total += counts[c]
	}
	slices.Sort(all)
	return usOf(quantile(all, 0.5)), cpu.Seconds() * 1e6 / float64(total), nil
}

// nullRespond answers each request frame on nc with an OK scalar frame,
// coalescing whatever the client already pipelined into one write, the
// way the server's reader and writer do.
func nullRespond(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 32<<10)
	bw := bufio.NewWriterSize(nc, 32<<10)
	var frame [21]byte // length prefix + op + key + value
	ok := server.AppendScalarResponse(nil, server.StatusOK, 0)
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return
		}
		for {
			if binary.BigEndian.Uint32(frame[:4]) != uint32(len(frame)-4) {
				return
			}
			bw.Write(ok)
			if br.Buffered() < len(frame) {
				break
			}
			io.ReadFull(br, frame[:])
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}
