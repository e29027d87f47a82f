package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// splitmix is the benchmark's own seeded stream (SplitMix64): graph specs,
// solve seeds and every client's op schedule are drawn from it, so one
// workload seed fixes every input the program sees.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// percent returns a value in [0, 100).
func (r *splitmix) percent() int { return r.intn(100) }

// derive returns an independent stream for one purpose of one seed.
func derive(seed uint64, purpose string) *splitmix {
	h := uint64(14695981039346656037)
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= 1099511628211
	}
	r := &splitmix{state: seed ^ h}
	r.next()
	return r
}

// samples collects one op kind's latencies.
type samples []time.Duration

// quantile returns the q-quantile (nearest rank) in milliseconds.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// need returns how many samples a q-quantile requires so that at least ten
// samples lie beyond it.
func need(q float64) int { return int(math.Ceil(10 / (1 - q))) }

// medianOf returns the median of plain values.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident high-water mark, so the next peakRSSMiB covers only what follows.
// Where /proc/self/clear_refs is not writable the mark stays process-wide.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// memDelta is the Go runtime's view of one measured phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}
