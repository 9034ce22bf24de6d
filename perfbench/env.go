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
	"strings"
)

// envRecord is printed with every output: what the numbers were measured
// on, and whether the load generator kept to its schedule.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit identifies the source measured: a digest of the module's Go
	// sources and go.mod files, since a benchmark checkout need not be a
	// git repository.
	Commit string `json:"commit"`
	// GenLateMsP99 is how late the load generator started requests whose
	// connection was idle, at the 99th percentile; 0 for workloads with no
	// open-loop generator.
	GenLateMsP99 float64 `json:"gen_late_ms_p99"`
	Valid        bool    `json:"valid"`
	Reason       string  `json:"reason,omitempty"`
}

func newEnvRecord(seed int64, root string) (envRecord, error) {
	commit, err := sourceDigest(root)
	if err != nil {
		return envRecord{}, err
	}
	return envRecord{
		Seed:       seed,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}, nil
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and BENCHMARK.json file under root,
// skipping hidden directories, in path order.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "BENCHMARK.json" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16], nil
}
