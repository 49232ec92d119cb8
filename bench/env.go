package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// calibSink keeps the calibration results live so the loops are not
// optimised away.
var calibSink uint64

// calibrate times a fixed integer spin (xorshift, no memory traffic). The
// work never changes, so a different reading means the machine changed:
// a noisy neighbour shows here instead of as a regression.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(start)
}

// calibrateMem times a fixed strided walk over 32 MB, several times the
// private caches. The integer spin does not notice a neighbour that takes
// shared cache and memory bandwidth, and the workloads — which allocate
// about a gigabyte per pass — notice little else. The array is garbage on
// return; callers collect it before they time anything.
func calibrateMem() time.Duration {
	walk := make([]uint64, 4<<20)
	for i := range walk {
		walk[i] = uint64(i)
	}
	start := time.Now()
	var x uint64
	n := len(walk)
	for pass := 0; pass < 8; pass++ {
		// One touch per cache line, hopping pages: the stride is 8 words
		// times an odd number, so n/8 steps visit every line once.
		for i, j := 0, 0; i < n/8; i, j = i+1, (j+4099*8)%n {
			x += walk[j]
		}
	}
	calibSink += x
	return time.Since(start)
}

// envInfo is recorded beside the metrics of every run.
type envInfo struct {
	NProc      int
	GoMaxProcs int
	GoVersion  string
	Commit     string
}

func readEnv() envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// resetPeakRSS returns the heap's free memory to the system and restarts
// the kernel's peak-RSS mark (VmHWM) from what is left, so that peakRSSMB
// afterwards is the peak of the timed window alone. Without it the peak is
// the harness's own: set-up runs three times and the correctness gate holds
// reference answers, which made peak RSS of matmul_sweep swing between 247
// and 335 MB with the seed. It reports whether the mark could be reset;
// where it cannot (no writable /proc), the peak stays the process's.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB; 0 where
// /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
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
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// totalAllocMB is the cumulative heap allocation of the process in MB.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}
