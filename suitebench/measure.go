package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bench is one benchmark run: a workload, its seed and the measured
// duration.
type bench struct {
	root    string
	w       workload
	seed    int64
	seconds float64
}

// minSuites is the fewest measured suites a run reports a median over,
// however short --seconds is.
const minSuites = 3

// loop calls fn until the run's time is up (and at least minSuites
// times). fn gets the iteration number.
func (b *bench) loop(fn func(i int) error) error {
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for i := 0; i < minSuites || time.Now().Before(deadline); i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// settle collects garbage before each measured iteration, outside its
// timed regions, so every suite starts from the same heap state instead
// of paying for the previous suite's garbage.
func settle() { runtime.GC() }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// readBytes is the number of bytes the process has read through read
// system calls so far (rchar in /proc/self/io), or -1 if unknown.
func readBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return -1
}

// memDelta measures Go heap allocation and GC cycles over fn.
func memDelta(fn func()) (allocMB, gcs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), float64(b.NumGC - a.NumGC)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// samples collects per-suite values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// summary prints each metric's sample count, minimum, median and
// maximum, one line per metric in name order.
func (s samples) summary(w io.Writer) {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := append([]float64(nil), s[k]...)
		sort.Float64s(v)
		fmt.Fprintf(w, "  %-20s n=%-4d min %-12.6g median %-12.6g max %.6g\n", k, len(v), v[0], median(v), v[len(v)-1])
	}
}

// medians reduces every metric to its median.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = median(v)
	}
	return out
}
