package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// signature records what a run's numbers depend on besides the code:
// the machine, the toolchain, the source tree and the workload inputs.
// Compare runs only when their signatures agree, and interleave the sets
// being compared: host speed drifts over minutes (see README.md).
func signature(workload string, seed uint64, seconds, trace int) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit("."),
		"source_digest": sourceDigest("."),
	}
}

// hostSnapshot reads the host's cumulative steal time and load average
// and times a fixed compute loop, so drift from neighbours on a shared
// machine shows in the output.
func hostSnapshot() map[string]any {
	snap := map[string]any{"calib_ms": calibrate()}
	if f, err := os.Open("/proc/stat"); err == nil {
		sc := bufio.NewScanner(f)
		if sc.Scan() {
			// cpu user nice system idle iowait irq softirq steal ...
			if fields := strings.Fields(sc.Text()); len(fields) > 8 && fields[0] == "cpu" {
				snap["steal_ticks"], _ = strconv.ParseInt(fields[8], 10, 64)
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(b)); len(fields) >= 3 {
			snap["loadavg"] = fields[:3]
		}
	}
	return snap
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the checked-out commit from the repository's git
// metadata under root, or "unknown" in a plain source checkout.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root,
// identifying the code even in a checkout without git metadata.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// calibSink keeps the calibration loop's result alive.
var calibSink float64

// calibrate times a fixed single-threaded compute loop in milliseconds,
// a reference for comparing the host's speed across runs.
func calibrate() float64 {
	start := time.Now()
	x, f := uint64(88172645463325252), 1.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x&0xff)*1e-9
	}
	calibSink = f
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
