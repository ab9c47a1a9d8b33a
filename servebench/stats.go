package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ops counts attempted and failed operations per kind.
type ops map[string]*[2]int

func (o ops) note(kind string, failed bool) {
	c := o[kind]
	if c == nil {
		c = new([2]int)
		o[kind] = c
	}
	c[0]++
	if failed {
		c[1]++
	}
}

func (o ops) totals() (attempted, failed int) {
	for _, c := range o {
		attempted += c[0]
		failed += c[1]
	}
	return attempted, failed
}

func (o ops) table() map[string]map[string]int {
	out := map[string]map[string]int{}
	for k, c := range o {
		out[k] = map[string]int{"attempted": c[0], "failed": c[1]}
	}
	return out
}

// writeBytes reads the process's storage writes from /proc/self/io.
func writeBytes() (int64, bool) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// stealTicks reads the aggregate CPU steal time from /proc/stat, in
// clock ticks.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// host describes the machine a run measured.
func host() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu":        model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// peakRSSMB reads the process's peak resident set from
// /proc/self/status, in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// liveHeap forces a collection and reports the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func numGC() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}
