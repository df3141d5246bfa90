package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// envStamp identifies where and on what a result was measured.
type envStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Seed       uint64 `json:"seed"`
}

func (s envStamp) String() string {
	return fmt.Sprintf("env: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s seed=%d",
		s.CPU, s.NProc, s.GOMAXPROCS, s.GoVersion, s.GitRev, s.Seed)
}

// stamp gathers the environment of this run.
func stamp(seed uint64) envStamp {
	return envStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		Seed:       seed,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev returns the checked-out commit, marked "+dirty" when tracked
// files differ from it, or "unknown" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD", "--", ".").Run() != nil {
		rev += "+dirty"
	}
	return rev
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM) at
// its current RSS, so a later peakRSSMB covers only what ran since. Where
// the kernel does not allow it the peak stays the process's lifetime peak,
// and the run says so.
func (r *run) resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.notef("peak_rss_mb includes set-up: cannot reset the peak: %v", err)
	}
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB,
// falling back to the Go runtime's total reservation where /proc is
// missing.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}
