package main

import (
	"sync"
	"syscall"
	"time"
)

// calSample is one calibration slice: its wall time and the CPU time the
// benchmark process spent in it, both in ms.
type calSample struct{ wallMS, cpuMS float64 }

// calibrate runs one fixed slice of reference work on n goroutines at once.
// The work is the benchmark's own and never changes, so the time it takes
// measures the host, not the program: its wall time grows with the CPU time
// the hypervisor gives to neighbours, and both its wall and its CPU time grow
// with the cache and memory bandwidth they contend for.
func calibrate(n int) calSample {
	for len(calTables) < n {
		calTables = append(calTables, make([]float64, calTableLen))
	}
	var wg sync.WaitGroup
	cpu0 := selfCPUMS()
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			calSink[g%len(calSink)] = calibrationKernel(calTables[g], uint64(g)+1)
		}(g)
	}
	wg.Wait()
	return calSample{wallMS: ms(time.Since(start)), cpuMS: selfCPUMS() - cpu0}
}

// selfCPUMS is the user+system CPU time of the benchmark process in ms.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// calTableLen is the length of each goroutine's lookup table: 256 KiB of
// float64, larger than L1 and within a core's share of L2.
const calTableLen = 1 << 15

// calTables are the kernels' lookup tables, allocated once so a slice
// neither faults pages in nor makes garbage.
var calTables [][]float64

// calSink keeps the kernel's result live so the compiler cannot drop it.
var calSink [64]float64

// calibrationKernel is the reference work: float64 matrix-vector products on
// a small dense matrix (the thermal step's shape) interleaved with
// pseudo-random reads and writes of tab (the learners' table lookups).
func calibrationKernel(tab []float64, seed uint64) float64 {
	const (
		n      = 16
		rounds = 15000
	)
	var a [n * n]float64
	var x, y [n]float64
	for i := range a {
		a[i] = float64((i*7)%13) / 64
	}
	for i := range x {
		x[i] = float64(i) / n
	}
	s := seed
	var acc float64
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			var t float64
			for j := 0; j < n; j++ {
				t += a[i*n+j] * x[j]
			}
			y[i] = t
		}
		for i := range x {
			x[i] = y[i] / (1 + y[i]*y[i])
		}
		for k := 0; k < 64; k++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			idx := s & (calTableLen - 1)
			tab[idx] += x[k%n]
			acc += tab[(idx*31)&(calTableLen-1)]
		}
	}
	return acc
}
