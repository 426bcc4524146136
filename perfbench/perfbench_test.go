package main

import (
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/server"
	"hybrids/internal/store"
)

// Small versions of the workloads: same code paths, 4096 records. The
// served key space stays large: the generator mints fresh insert keys
// from the same key space, and a 1-second churn stream inserts far more
// keys than 4096.

func tinyServed(t *testing.T, name string) servedSpec {
	t.Helper()
	for _, s := range servedSpecs() {
		if s.name == name {
			s.records, s.warmOps = 1<<12, 200
			return s
		}
	}
	t.Fatalf("no served workload %q", name)
	return servedSpec{}
}

func tinySim() simSpec {
	s := paperSimSpec()
	s.records, s.levels, s.nmpLevels, s.keyMax = 1<<12, 12, 5, 1<<16
	s.warm, s.cell, s.chunk, s.stream = 50, 100, 8, 512
	s.memReads, s.engSteps = 100, 100
	return s
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"serve-btree-ycsbb-d16", "serve-skiplist-churn-d1"} {
		spec := tinyServed(t, name)
		l1, s1 := spec.inputs(1, 7)
		l2, s2 := spec.inputs(1, 7)
		if !reflect.DeepEqual(l1, l2) || !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if _, s3 := spec.inputs(1, 8); reflect.DeepEqual(s1, s3) {
			t.Errorf("%s: seeds 7 and 8 generated the same streams", name)
		}
	}
	spec := tinySim()
	l1, s1 := spec.inputs(7)
	l2, s2 := spec.inputs(7)
	if !reflect.DeepEqual(l1, l2) || !reflect.DeepEqual(s1, s2) {
		t.Error("sim: seed 7 generated different inputs twice")
	}
}

// servedRun sets up a tiny served workload, measures it briefly and stops
// serving; the store stays open.
func servedRun(t *testing.T, name string) *servedRig {
	t.Helper()
	rig, err := setupServed(tinyServed(t, name), 1, 3, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.h.Close() })
	if _, err := rig.measure(300*time.Millisecond, 1, nil); err != nil {
		rig.teardown()
		t.Fatal(err)
	}
	rig.stopServing()
	return rig
}

func cloneLogs(logs []connLog) []connLog {
	out := make([]connLog, len(logs))
	for i, l := range logs {
		out[i] = connLog{status: slices.Clone(l.status), value: slices.Clone(l.value)}
	}
	return out
}

// firstOp returns the index of connection 0's first logged op that
// satisfies ok.
func firstOp(t *testing.T, rig *servedRig, ok func(op kv.Op, status uint8) bool) int {
	t.Helper()
	for i, st := range rig.logs[0].status {
		if ok(rig.opAt(0, i), st) {
			return i
		}
	}
	t.Fatal("no such op in the log")
	return 0
}

func TestServedOraclesRejectCorruption(t *testing.T) {
	t.Run("btree", func(t *testing.T) {
		rig := servedRun(t, "serve-btree-ycsbb-d16")
		if v := verifyServed(rig.load, rig.streams, true, rig.logs, nil); len(v.problems) != 0 {
			t.Fatalf("clean run rejected: %v", v.problems)
		}
		logs := cloneLogs(rig.logs)
		i := firstOp(t, rig, func(op kv.Op, _ uint8) bool { return op.Kind == kv.Read })
		logs[0].value[i] ^= 1 << 33
		if v := verifyServed(rig.load, rig.streams, true, logs, nil); len(v.problems) == 0 {
			t.Error("a corrupted GET value was accepted")
		}
		logs = cloneLogs(rig.logs)
		i = firstOp(t, rig, func(op kv.Op, _ uint8) bool { return op.Kind == kv.Update })
		logs[0].status[i] = server.StatusMiss
		if v := verifyServed(rig.load, rig.streams, true, logs, nil); len(v.problems) == 0 {
			t.Error("a failed UPDATE was accepted")
		}
	})
	t.Run("churn", func(t *testing.T) {
		rig := servedRun(t, "serve-skiplist-churn-d1")
		dump := rig.h.Dump()
		if v := verifyServed(rig.load, rig.streams, false, rig.logs, dump); len(v.problems) != 0 {
			t.Fatalf("clean run rejected: %v", v.problems)
		}
		logs := cloneLogs(rig.logs)
		i := firstOp(t, rig, func(op kv.Op, st uint8) bool { return op.Kind == kv.Read && st == server.StatusOK })
		logs[0].value[i]++
		if v := verifyServed(rig.load, rig.streams, false, logs, dump); len(v.problems) == 0 {
			t.Error("a corrupted GET value was accepted")
		}
		logs = cloneLogs(rig.logs)
		i = firstOp(t, rig, func(op kv.Op, _ uint8) bool { return op.Kind == kv.Insert })
		logs[0].status[i] = server.StatusMiss
		if v := verifyServed(rig.load, rig.streams, false, logs, dump); len(v.problems) == 0 {
			t.Error("a failed insert was accepted")
		}
		logs = cloneLogs(rig.logs)
		i = firstOp(t, rig, func(op kv.Op, st uint8) bool { return op.Kind == kv.Remove && st == server.StatusOK })
		logs[0].status[i] = server.StatusMiss
		if v := verifyServed(rig.load, rig.streams, false, logs, dump); len(v.problems) == 0 {
			t.Error("a lost remove was accepted")
		}
		bad := slices.Clone(dump)
		bad[len(bad)/2].Value++
		if v := verifyServed(rig.load, rig.streams, false, rig.logs, bad); len(v.problems) == 0 {
			t.Error("a dump with a wrong value was accepted")
		}
		if v := verifyServed(rig.load, rig.streams, false, rig.logs, dump[1:]); len(v.problems) == 0 {
			t.Error("a dump missing a pair was accepted")
		}
		if v := verifyServed(rig.load, rig.streams, false, rig.logs, append(slices.Clone(dump), core.KV{Key: 1<<24 - 1, Value: 1})); len(v.problems) == 0 {
			t.Error("a dump with an extra pair was accepted")
		}
	})
}

// simRunOnce sets up a tiny simulator workload and runs only its
// deterministic cell.
func simRunOnce(t *testing.T, seed uint64) (*simRig, simRun) {
	t.Helper()
	rig, err := setupSim(tinySim(), seed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rig, rig.run(0, false, nil)
}

func TestSimOracleRejectsCorruption(t *testing.T) {
	rig, run := simRunOnce(t, 5)
	res := &result{Correct: true}
	checkSim(rig, run, res)
	if !res.Correct {
		t.Fatalf("clean run rejected: %v", res.problems)
	}
	dump := rig.h.Dump()
	bad := slices.Clone(dump)
	bad[len(bad)/2].Value++
	if verifySimDump(rig.load, bad) == nil {
		t.Error("a dump with a wrong value was accepted")
	}
	if verifySimDump(rig.load, dump[1:]) == nil {
		t.Error("a dump missing a pair was accepted")
	}
	if verifySimDump(rig.load, append(slices.Clone(dump), store.KV{Key: 3, Value: 3})) == nil {
		t.Error("a dump with an extra pair was accepted")
	}
	run.succeeded--
	res = &result{Correct: true}
	checkSim(rig, run, res)
	if res.Correct {
		t.Error("a read miss was accepted")
	}
}

func TestSimCountsRepeatExactly(t *testing.T) {
	_, a := simRunOnce(t, 9)
	_, b := simRunOnce(t, 9)
	if a.cycles == 0 || a.cell.Get("engine/dispatches") == 0 || a.cell.Get("offload/posted") == 0 {
		t.Fatalf("cell recorded nothing: %d cycles, %v", a.cycles, a.cell)
	}
	if a.cycles != b.cycles || !maps.Equal(a.cell, b.cell) {
		t.Errorf("same seed, different simulated counts: %d vs %d cycles", a.cycles, b.cycles)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric check reads.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, benchmark %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, benchmark %v", layers, perLayer)
	}
	for _, traced := range []bool{false, true} {
		r := &result{}
		finish(r, traced)
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("trace=%v prints %d metrics, want %d", traced, len(r.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace=%v: %s printed as %+v, want unit %s", traced, d.name, m, d.unit)
			}
		}
	}
}

// TestWorkloadsMeasureEveryEndToEndMetric runs every workload in small in
// both modes and checks each untraced run sets every end-to-end metric
// itself (with the unit BENCHMARK.json gives) and that every run passes
// its oracle.
func TestWorkloadsMeasureEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(o options) (*result, error){
		"serve-btree-ycsbb-d16": func(o options) (*result, error) {
			return runServed(tinyServed(t, "serve-btree-ycsbb-d16"), o)
		},
		"serve-skiplist-churn-d1": func(o options) (*result, error) {
			return runServed(tinyServed(t, "serve-skiplist-churn-d1"), o)
		},
		"sim-skiplist-ycsbc": func(o options) (*result, error) { return runSim(tinySim(), o) },
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			r, err := run(options{workload: name, seed: 4, seconds: 1, trace: traced, traceOut: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, traced, r.Correct, r.Attempted, r.Failed, r.problems)
			}
			if traced {
				continue
			}
			for _, m := range b.EndToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("%s: %s = %+v, want a positive value in %s", name, m.Name, got, m.Unit)
				}
			}
		}
	}
}
