package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bba/internal/archive"
	"bba/internal/collect"
)

// spec is the part of BENCHMARK.json the benchmark's code must agree with.
type spec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	limit := fmt.Sprintf("p99 < %g ms", originLimitMS)
	if !strings.Contains(s.Workloads[1].Why, limit) {
		t.Errorf("origin_http's description does not state the capacity limit %q", limit)
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload for one second through
// the built command, on the default seed and on a held-out one, traced and
// untraced, and requires a correct result carrying every metric
// BENCHMARK.json names with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons and runs every workload")
	}
	s := loadSpec(t)
	bin, work := t.TempDir(), t.TempDir()
	for pkg, out := range map[string]string{".": "perfbench", "bba/cmd/dashserver": "dashserver", "bba/cmd/bbacollect": "bbacollect"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, out), pkg)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
		}
	}
	for _, w := range workloads {
		for _, run := range []struct {
			seed  int
			trace int
		}{{defaultSeed, 0}, {7, 0}, {defaultSeed, 1}} {
			name := fmt.Sprintf("%s/seed%d/trace%d", w.name, run.seed, run.trace)
			t.Run(name, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "perfbench"), "-bin", bin, "-work", work,
					"--workload", w.name, "--seed", fmt.Sprint(run.seed), "--seconds", "1", "--trace", fmt.Sprint(run.trace))
				cmd.Dir = ".."
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				if run.trace == 0 {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, unit)
					}
				}
				if run.trace == 0 {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

func TestCampaignCheckRejectsWrongReport(t *testing.T) {
	chk, _, err := campaignSetup(context.Background(), defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.checkReport([]byte("{}")); err == nil {
		t.Error("a report with the wrong digest passed")
	}
	other := &campaignChecker{seed: 2}
	if err := other.checkReport([]byte("a")); err != nil {
		t.Fatalf("a non-default seed's first report is its own reference: %v", err)
	}
	if err := other.checkReport([]byte("b")); err == nil {
		t.Error("a repetition differing from the first passed")
	}
}

func TestCampaignShardCheckRejectsFlippedByte(t *testing.T) {
	chk, _, err := campaignSetup(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for s, ref := range chk.refs {
		chk.shards[s] = append([]byte(nil), ref...)
	}
	if err := chk.checkShards(); err != nil {
		t.Fatalf("shards equal to their references failed the check: %v", err)
	}
	for s, b := range chk.shards {
		b[len(b)/2] ^= 1
		chk.shards[s] = b
		break
	}
	if err := chk.checkShards(); err == nil {
		t.Error("a shard with a flipped byte passed")
	}
}

func TestCheckChunkRejectsBadResponses(t *testing.T) {
	sizes := [][]int64{{100, 200}, {300, 400}}
	if err := checkChunk(sizes, chunkReq{1, 0}, http.StatusOK, 300); err != nil {
		t.Fatalf("a whole chunk failed: %v", err)
	}
	for _, c := range []struct {
		r      chunkReq
		status int
		n      int64
	}{
		{chunkReq{1, 0}, http.StatusOK, 299},
		{chunkReq{1, 0}, http.StatusServiceUnavailable, 300},
		{chunkReq{2, 0}, http.StatusOK, 300},
	} {
		if err := checkChunk(sizes, c.r, c.status, c.n); err == nil {
			t.Errorf("chunk %v status %d with %d bytes passed", c.r, c.status, c.n)
		}
	}
}

func TestFleetChecksRejectCorruption(t *testing.T) {
	journal := []byte("{\"kind\":\"a\"}\n{\"kind\":\"b\"}\n")
	if err := checkExport("r", journal, journal); err != nil {
		t.Fatalf("an identical export failed: %v", err)
	}
	flipped := append([]byte(nil), journal...)
	flipped[5] ^= 1
	if err := checkExport("r", flipped, journal); err == nil {
		t.Error("an export with a flipped byte passed")
	}
	if err := checkExport("r", journal[:10], journal); err == nil {
		t.Error("a truncated export passed")
	}

	if err := checkAdmitted(10, 10, collect.ShipperStats{}); err != nil {
		t.Fatalf("a clean run failed: %v", err)
	}
	if err := checkAdmitted(9, 10, collect.ShipperStats{}); err == nil {
		t.Error("admitted != sent passed")
	}
	if err := checkAdmitted(10, 10, collect.ShipperStats{EventsDropped: 1}); err == nil {
		t.Error("a dropped event passed")
	}

	roll, err := json.Marshal(archive.Rollup{Groups: []archive.GroupRollup{{Group: "BBA-0", Events: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRollup(roll, "BBA-0", 5); err != nil {
		t.Fatalf("a matching rollup failed: %v", err)
	}
	if err := checkRollup(roll, "BBA-0", 6); err == nil {
		t.Error("a rollup with the wrong count passed")
	}
	if err := checkRollup(roll, "BBA-1", 5); err == nil {
		t.Error("a rollup missing the group passed")
	}
}

func TestLayersSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	root := tr.add("outer", 1, -1, at(0), at(100))
	tr.add("inner", 1, root, at(10), at(40))
	tr.add("inner", 1, root, at(50), at(60))
	ls := tr.layers()
	if got := ls["outer"].self; got != 60 {
		t.Errorf("outer self time %d ns, want 60", got)
	}
	if got := ls["inner"].perCall(); got != 20 {
		t.Errorf("inner per call %v ns, want 20", got)
	}
}
