package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: below that the value is set by a handful of ops, so it is
// refused rather than extrapolated.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses, with an error, when fewer than minBeyond samples lie above the
// rank — p50 needs 20 samples, p90 100, p99 1000.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the plain median of a small set of repeated measurements (the
// set-up repetitions), where the ten-beyond rule does not apply.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts attempted and failed ops. A failed op still contributes a
// latency sample, +Inf, so it misses every latency limit.
type tally struct {
	attempted, failed int
	latMS             []float64
	reasons           []string
}

// record adds one op's outcome: its latency and, when it failed a gate,
// the reason.
func (t *tally) record(ms float64, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		ms = math.Inf(1)
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
	t.latMS = append(t.latMS, ms)
}

// failFrac is failed ops over attempted ops.
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS lowers VmHWM to the current resident set (Linux 4.0 and
// later), so memory the untimed reference checks touched is not charged to
// the measured work.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a snapshot of the allocation and GC counters the
// per-workload allocs_per_op and gc_cpu_frac metrics difference.
type runtimeSample struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: cpuMetrics[0]}, {Name: cpuMetrics[1]}}
	metrics.Read(s)
	r := runtimeSample{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.allCPU = s[1].Value.Float64()
	}
	return r
}

// heapInUseMB forces a collection and returns the live heap, so two
// readings differ by retained memory only.
func heapInUseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
