package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// fingerprint identifies the box and the code a result was measured
// on. Results from different fingerprints do not compare.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUQuota   string `json:"cgroup_cpu_max"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func boxFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUQuota:   "absent",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		fp.CPUQuota = strings.TrimSpace(string(b))
	}
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		fp.CPUModel = v
	}
	// The go command stamps the revision when it builds inside a git
	// checkout; a source tree without .git has none.
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			fp.Commit = rev
			if modified == "true" {
				fp.Commit += "+modified"
			}
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu.max=%q go=%s cpu=%q commit=%s",
		fp.NProc, fp.GOMAXPROCS, fp.CPUQuota, fp.GoVersion, fp.CPUModel, fp.Commit)
}

// procField returns the value of the first "key: value" line of a
// /proc file whose key is key, or "" when there is none.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the peak resident set size of this process in MB
// (VmHWM), or 0 where /proc does not report it.
func peakRSSMB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
