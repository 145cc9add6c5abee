package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for
// an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// blockSize is the number of consecutive verify calls behind each
// block quantile of blockPercentile.
const blockSize = 20

// blockPercentile splits xs, in the order they were measured, into
// consecutive blocks of size calls (a short tail is dropped) and returns
// the median of the blocks' nearest-rank q-quantiles. A spell of host
// contention that covers a few blocks then moves the result much less
// than it moves one quantile over the whole run, while a tail the
// program causes itself shows in every block. With fewer than two full
// blocks it is the plain quantile of xs.
func blockPercentile(xs []float64, size int, q float64) float64 {
	if len(xs) < 2*size {
		return percentile(xs, q)
	}
	var qs []float64
	for i := 0; i+size <= len(xs); i += size {
		qs = append(qs, percentile(xs[i:i+size], q))
	}
	return median(qs)
}

// mean returns the arithmetic mean, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rusage returns the process's user+system CPU time and its peak
// resident set size in MiB.
func rusage() (cpu time.Duration, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// splitmix derives the i-th member of a seed's stream; the benchmark
// builds every job seed from the workload seed this way.
func splitmix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
