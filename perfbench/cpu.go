package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are CPU times, not wall times: on a shared host the
// hypervisor and other processes take the CPU away for stretches the
// benchmark cannot control, and wall time counts those stretches while CPU
// time does not (a paravirtualized Linux guest leaves steal time out of
// both clocks below). What the simulator itself costs is the same either
// way.

// Linux clock ids. These clocks bring the running thread's count up to
// date when read, unlike getrusage, which lags by up to a scheduler tick.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPU is the CPU time the calling OS thread has used. Callers pin
// their goroutine with runtime.LockOSThread, so that this is one
// goroutine's time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the CPU time every thread of the process has used. It
// times calls that fan out over goroutines of their own (fleet.Run,
// Sweep.Run) while the caller waits.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}
