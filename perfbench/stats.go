package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// procSample is a process-wide resource reading: CPU time, heap
// allocation count and GC cycles. Differences of two samples bracket a
// phase.
type procSample struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
}

// sampleProc reads the process counters. It stops the world for the
// allocation count, so take it only at quiescence, outside measured work.
func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, numGC: ms.NumGC}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// method; 0 for an empty slice.
func quantile[T int64 | float64 | uint32](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of vs without reordering the caller's slice.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOf returns the median over items of f.
func medianOf[T any](items []T, f func(T) float64) float64 {
	vs := make([]float64, len(items))
	for i, it := range items {
		vs[i] = f(it)
	}
	return median(vs)
}

// ratio returns a/b, or 0 when b is 0 (a layer with no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
