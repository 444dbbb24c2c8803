package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that has already confined itself, and names
// the CPU, for the report.
const pinnedEnv = "V3BENCH_CPU"

// confineToOneCPU re-executes the benchmark with its CPU affinity reduced
// to one CPU — the last of those it may use — so that load generator and
// servers time-share it and the runtime sizes itself for it. The sandbox
// gives the benchmark two virtual CPUs of a shared host. Spread over both,
// a closed loop of a few goroutines is as fast as the kernel's placement of
// its threads and the hypervisor's cross-CPU wake-ups happen to allow:
// hit_read_8k ran at 95k to 122k ops/s from one run to the next on two
// CPUs, and at a steady 180k confined to one. What is left is the paper's
// currency, CPU per op, free of the scheduler. A failure leaves the
// process as it is and is reported.
func confineToOneCPU() {
	if os.Getenv(pinnedEnv) != "" {
		return
	}
	runtime.LockOSThread() // affinity is per thread; exec keeps this one
	defer runtime.UnlockOSThread()
	var mask [128]byte // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: not confined to one CPU: sched_getaffinity: %v\n", errno)
		return
	}
	cpu := -1
	for i := 0; i < int(n)*8; i++ {
		if mask[i/8]&(1<<(i%8)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return
	}
	mask = [128]byte{}
	mask[cpu/8] = 1 << (cpu % 8)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: not confined to one CPU: sched_setaffinity: %v\n", errno)
		return
	}
	self, err := os.Executable()
	if err == nil {
		err = syscall.Exec(self, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu)))
	}
	fmt.Fprintf(os.Stderr, "benchmark: not confined to one CPU: re-exec: %v\n", err)
}
