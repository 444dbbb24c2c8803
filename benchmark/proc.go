package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// procSnap is the process-wide cost ledger at one instant: the paper's
// currency is CPU and kernel crossings per I/O, so a window's cost is
// the difference of two of these divided by the ops it completed.
type procSnap struct {
	at         time.Time
	userUS     int64
	sysUS      int64
	volCtx     int64
	involCtx   int64
	syscr      int64 // read-class syscalls (/proc/self/io)
	syscw      int64 // write-class syscalls
	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64
	gcCycles   uint32
}

func tvUS(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e6 + int64(tv.Usec) }

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{
		at:         time.Now(),
		userUS:     tvUS(ru.Utime),
		sysUS:      tvUS(ru.Stime),
		volCtx:     ru.Nvcsw,
		involCtx:   ru.Nivcsw,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNS:  ms.PauseTotalNs,
		gcCycles:   ms.NumGC,
	}
	s.syscr, s.syscw = procIO()
	return s
}

// procIO reads the syscr/syscw counters; zero where /proc/self/io is
// unavailable.
func procIO() (syscr, syscw int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(": "))
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
		switch string(k) {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// rssPeakMB is the process's peak resident set so far (ru_maxrss is in
// kilobytes on Linux). With a heap of a few hundred MB it is set by where
// the collector's sawtooth happens to peak (spread 25–35 % over ten runs),
// so it is a per-layer number without a bound.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// heapLiveMB collects twice (the second pass empties sync.Pool victim
// caches) and returns what the process still holds: the memory the booted
// stack retains, free of the collector's timing. It still does not repeat
// on the write workloads — how many staging slabs the disk queue's
// fallback pool has parked depends on the deepest burst of the run
// (54–135 MB on miss_mixed_8k) — so it too is per-layer.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
