package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the process's cumulative resource counters.
type usage struct {
	cpu      time.Duration // user + system CPU time (getrusage)
	alloc    uint64        // bytes allocated on the heap
	gcCycles uint64
	// The runtime's CPU estimates, comparable only with each other.
	gcCPU, busyCPU float64
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	u := usage{cpu: processCPU()}
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u.alloc = s[0].Value.Uint64()
	u.gcCycles = s[1].Value.Uint64()
	u.gcCPU = s[2].Value.Float64()
	u.busyCPU = s[3].Value.Float64() - s[4].Value.Float64()
	return u
}

// heapSampler samples the GC's heap goal every 10 ms while a phase runs:
// the heap size the runtime lets the program reach before it collects.
type heapSampler struct {
	stop    chan struct{}
	samples chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), samples: make(chan []float64)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		var got []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			got = append(got, float64(s[0].Value.Uint64()))
			select {
			case <-tick.C:
			case <-h.stop:
				h.samples <- got
				return
			}
		}
	}()
	return h
}

// Stop ends the sampling and returns the median heap goal in bytes. The
// median is the heap size the program runs at; the peak would follow the
// rare cycle whose marking the host delayed.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	return median(<-h.samples)
}

// host identifies the machine and toolchain a result was measured with;
// results are compared only between runs with the same host.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func hostFingerprint() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// the file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, value, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
