package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is a process-wide resource reading, taken from outside the brokers:
// getrusage, the Go runtime's counters, and the links' transmit totals.
type usage struct {
	wall     time.Duration
	cpu      time.Duration // user + system
	mallocs  uint64
	alloc    uint64 // bytes allocated
	gcs      uint32
	gcCPU    float64 // seconds of CPU the garbage collector used
	totalCPU float64 // seconds of CPU the runtime accounted
	linkTx   int64
}

// processStart is the origin of usage.wall.
var processStart = time.Now()

// measure reads the counters. ReadMemStats stops the world briefly, so it
// runs only at phase boundaries.
func measure(c *chain) usage {
	u := usage{linkTx: c.linkTxBytes()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.alloc, u.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	u.gcCPU, u.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	u.cpu = processCPU()
	u.wall = time.Since(processStart)
	return u
}

func (u usage) minus(v usage) usage {
	return usage{
		wall:     u.wall - v.wall,
		cpu:      u.cpu - v.cpu,
		mallocs:  u.mallocs - v.mallocs,
		alloc:    u.alloc - v.alloc,
		gcs:      u.gcs - v.gcs,
		gcCPU:    u.gcCPU - v.gcCPU,
		totalCPU: u.totalCPU - v.totalCPU,
		linkTx:   u.linkTx - v.linkTx,
	}
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid buffer does not fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by the nearest-rank rule on a
// sorted copy (0 for no samples).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a phase too short to see the event).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
