package main

// Outside-in counters: the server's /metrics, the process's /proc/self/io,
// the machine's CPU time from /proc/stat and Go runtime statistics, each
// snapshotted at phase boundaries, plus the environment a run is measured
// on.

import (
	"bufio"
	"bytes"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is one snapshot.
type counters struct {
	series  map[string]float64 // /metrics: series (with labels) → value
	io      map[string]float64 // /proc/self/io: field → value
	cpu     map[string]float64 // /proc/stat: machine CPU seconds by state
	runtime map[string]float64
}

// cpuStates names the first fields of /proc/stat's cpu line. Steal is time
// the hypervisor gave the machine's CPUs to someone else: a run whose
// phase shows much of it was measured on a slowed machine.
var cpuStates = []string{"user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"}

// readCPU reads the machine's CPU time by state, in seconds at the usual
// 100 ticks per second; a missing file reads as empty.
func readCPU() map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return out
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) == 0 || f[0] != "cpu" {
		return out
	}
	for i, name := range cpuStates {
		if i+1 < len(f) {
			if x, err := strconv.ParseFloat(f[i+1], 64); err == nil {
				out[name] = x / 100
			}
		}
	}
	return out
}

// processCPU is the CPU time all of this process's threads have used. On
// a shared host the wall clock keeps running while the hypervisor hands
// the machine's vCPUs to someone else (steal); Linux charges that time to
// steal, not to the task it preempted, so this clock does not run then.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

// snapshot reads every counter; h may be nil when no server runs.
func snapshot(h *harness) counters {
	c := counters{series: map[string]float64{}, io: readKV("/proc/self/io"), cpu: readCPU(), runtime: map[string]float64{}}
	if h != nil {
		var buf bytes.Buffer
		if status, _, err := h.do(http.MethodGet, "/metrics", nil, &buf); err == nil && status == http.StatusOK {
			c.series = parseExposition(buf.Bytes())
		}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			c.runtime[s.Name] = float64(s.Value.Uint64())
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.runtime["pause_ns"] = float64(ms.PauseTotalNs)
	return c
}

// parseExposition reads the Prometheus text format into series → value.
func parseExposition(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// readKV reads a "key: value" file such as /proc/self/io; a missing file
// reads as empty.
func readKV(path string) map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(raw), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		if x, err := strconv.ParseFloat(f[0], 64); err == nil {
			out[strings.TrimSpace(k)] = x
		}
	}
	return out
}

// delta is the change from a to b of every counter both hold.
type delta struct {
	series, io, cpu, runtime map[string]float64
	// gauges are b's /metrics values, for series that are levels.
	gauges map[string]float64
}

func diff(a, b counters) delta {
	sub := func(x, y map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(y))
		for k, v := range y {
			out[k] = v - x[k]
		}
		return out
	}
	return delta{series: sub(a.series, b.series), io: sub(a.io, b.io), cpu: sub(a.cpu, b.cpu), runtime: sub(a.runtime, b.runtime), gauges: b.series}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	return readKV("/proc/self/status")["VmHWM"] / 1024
}

// resetPeakRSS restarts VmHWM at the current resident set size.
func resetPeakRSS() {
	// Best-effort: on a kernel without clear_refs the peak includes
	// everything before this call.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// fsType names the filesystem holding dir, so store latencies are read as
// that filesystem's numbers on the machine that ran them, not a device's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/ext3/ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// environment records what the numbers were measured on.
func environment(dataDir string) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"data_fs":    fsType(dataDir),
		"store_note": "store latencies are the running machine's filesystem numbers (fsync included), not a device's",
	}
}
