package main

// The speed probe: fixed standard-library work that allocates nothing,
// timed in the CPU time of the thread that runs it. How fast the host
// runs a vCPU moves with its other tenants' load, also when no steal
// shows it; the probe, run all through a run, measures that speed.

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

var (
	probeInput = func() []int {
		rng := rand.New(rand.NewSource(1))
		xs := make([]int, 20000)
		for i := range xs {
			xs[i] = rng.Int()
		}
		return xs
	}()
	probeInts  = make([]int, len(probeInput))
	probeBytes = make([]byte, 0, 20*len(probeInput))
)

// probe sorts a fixed slice of integers and formats them, and returns the
// CPU time that took its thread.
func probe() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	copy(probeInts, probeInput)
	slices.Sort(probeInts)
	b := probeBytes[:0]
	for _, x := range probeInts {
		b = strconv.AppendInt(append(b, ','), int64(x), 10)
	}
	probeBytes = b
	return threadCPU() - start
}

// threadCPU reads the calling thread's CPU clock. getrusage would not
// do: it leaves out the thread's time since the scheduler last looked,
// up to a tick, as long as the probe itself.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
