package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procMeter accumulates process CPU and allocator deltas over the
// measured window. refresh_cycle starts and stops it around each timed
// phase, so tenant deployment between cycles (an RSA key generation of
// very variable cost) stays out of cpu_ms_per_op.
type procMeter struct {
	user, sys time.Duration
	allocB    uint64
	mallocs   uint64
	gcPause   time.Duration

	u0, s0 time.Duration
	m0     runtime.MemStats
}

func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func (p *procMeter) start() {
	p.u0, p.s0 = rusage()
	runtime.ReadMemStats(&p.m0)
}

func (p *procMeter) stop() {
	u, s := rusage()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.user += u - p.u0
	p.sys += s - p.s0
	p.allocB += m.TotalAlloc - p.m0.TotalAlloc
	p.mallocs += m.Mallocs - p.m0.Mallocs
	p.gcPause += time.Duration(m.PauseTotalNs - p.m0.PauseTotalNs)
}

func (p *procMeter) cpu() time.Duration { return p.user + p.sys }

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// machineShape is recorded with every result, so a trajectory of result
// files says what it was measured on.
type machineShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
}

func machine() machineShape {
	m := machineShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// commit is the VCS revision the binary was built from, when the go
// command stamped one (a driver checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
