package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/rules"
)

// The metric tables in main.go are the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		code     []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.code) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the code %d", len(c.declared), len(c.code))
		}
		for i, d := range c.declared {
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]",
					i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func runWorkload(t *testing.T, workload string, seed int64, traced bool) *run {
	t.Helper()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := newRun(workload, seed, time.Second, traced)
	if err := workloads[workload](r); err != nil {
		t.Fatal(err)
	}
	if _, err := r.result(); err != nil {
		t.Fatal(err)
	}
	if !r.tally.correct() || r.tally.failed != 0 {
		t.Fatalf("%s: correct %v, failed %d: %v", workload, r.tally.correct(), r.tally.failed, r.tally.problems)
	}
	return r
}

// Modeled and count metrics cover fixed prefixes of the update trace
// and the packet stream, so two runs of one seed agree on them exactly
// (allocation up to runtime noise), however far each timed phase gets.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload twice")
	}
	exact := []string{"cycles_per_update", "core.realloc_share", "rules.entries_per_rule",
		"core.views_rebuilt_per_update", "core.global_rebuilds_per_update", "core.active_subtables",
		"ingress.hit_ratio", "ingress.epochs_per_kpkt"}
	for _, w := range []string{"churn", "switch"} {
		a, b := runWorkload(t, w, 7, true), runWorkload(t, w, 7, true)
		for _, name := range exact {
			if a.m[name] != b.m[name] {
				t.Errorf("%s %s: %v then %v", w, name, a.m[name], b.m[name])
			}
		}
		x, y := a.m["alloc_kb_per_update"], b.m["alloc_kb_per_update"]
		if math.Abs(x-y) > 0.02*x {
			t.Errorf("%s alloc_kb_per_update: %v then %v", w, x, y)
		}
	}
}

// A reference that disagrees with one decision makes the run incorrect
// and raises failed_ratio.
func TestWrongReferenceFails(t *testing.T) {
	rs := ruleset(classbench.FW, 200, 5)
	dev, up, _ := installDevice(rs)
	sample := packetTrace(rs, 6)[:256]
	got := deviceDecisions(dev.LookupHeaderBatch(sample, nil))
	ref := linearRef(up.stream.live)

	var ok tally
	ok.decisions("device", sample, got, ref)
	if !ok.correct() || ok.failed != 0 || ok.failedRatio() != 0 {
		t.Fatalf("true reference: failed %d, problems %v", ok.failed, ok.problems)
	}

	var bad tally
	wrong := func(h rules.Header) decision {
		d := ref(h)
		if h == sample[0] {
			d.action++
		}
		return d
	}
	bad.decisions("device", sample, got, wrong)
	if bad.correct() || bad.failed != 1 || bad.failedRatio() != 1.0/256 {
		t.Fatalf("wrong reference: correct %v, failed %d, ratio %v", bad.correct(), bad.failed, bad.failedRatio())
	}
}

// The endless update trace keeps the table at its installed size at
// every segment boundary instead of draining it.
func TestTraceKeepsTableSize(t *testing.T) {
	rs := ruleset(classbench.FW, 300, 9)
	s := installStream(rs)
	for range rs {
		u := s.next()
		s.applied(u, nil)
	}
	s.startTrace(10)
	for boundaries := 0; boundaries < 4; {
		u := s.next()
		s.applied(u, nil)
		if s.pos == len(s.seg) {
			boundaries++
			if len(s.live) != len(rs) {
				t.Fatalf("segment %d ends with %d rules live, installed %d", boundaries, len(s.live), len(rs))
			}
		}
	}
}
