// Benchmarks regenerating the paper's tables and figures, one bench per
// artifact, on scaled workloads so `go test -bench=.` completes in
// minutes. The full-scale sweep (ACL/FW/IPC × 1K/10K/20K, 1K updates)
// is produced by `go run ./cmd/catcam-bench`; EXPERIMENTS.md records
// the full-scale outputs against the paper.
package catcam_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"catcam"
	"catcam/internal/bench"
	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/metrics"
	"catcam/internal/rules"
	"catcam/internal/stateobs"
	"catcam/internal/telemetry"
)

// benchWorkload is shared across update-cost benchmarks.
func benchWorkload(b *testing.B) *bench.Workload {
	b.Helper()
	return bench.NewWorkload(classbench.ACL, 1000, bench.WorkloadOptions{
		Updates: 300, Headers: 500, FlatPorts: true, FreshPriorities: true,
	})
}

// BenchmarkFig1aDivergence regenerates the control/data-plane
// divergence simulation of Fig 1(a).
func BenchmarkFig1aDivergence(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r := bench.Fig1a()
		peak = r.Naive[len(r.Naive)-1].DivergenceMs
	}
	b.ReportMetric(peak, "peak-divergence-ms")
}

// BenchmarkFig1bNaiveInsert regenerates the naive-TCAM insertion-time
// curve of Fig 1(b).
func BenchmarkFig1bNaiveInsert(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts := bench.Fig1b(10)
		worst = pts[len(pts)-1].WorstMs
	}
	b.ReportMetric(worst, "worst-insert-ms")
}

// BenchmarkTableIIIUpdateCost runs the Table III update-cost cell for
// every engine on ACL 1K (300 updates each).
func BenchmarkTableIIIUpdateCost(b *testing.B) {
	for _, name := range bench.AlgorithmNames() {
		b.Run(name, func(b *testing.B) {
			w := benchWorkload(b)
			var avg float64
			for i := 0; i < b.N; i++ {
				row, err := bench.RunUpdateCost(w, name, 300)
				if err != nil {
					b.Fatal(err)
				}
				avg = row.AvgMoves
			}
			b.ReportMetric(avg, "moves/update")
		})
	}
	b.Run("CATCAM", func(b *testing.B) {
		w := benchWorkload(b)
		var avg float64
		for i := 0; i < b.N; i++ {
			row, _, err := bench.RunCATCAMUpdateCost(w, 300)
			if err != nil {
				b.Fatal(err)
			}
			avg = row.AvgMoves
		}
		b.ReportMetric(avg, "moves/update")
	})
}

// BenchmarkTableIVFirmware reports each engine's modelled firmware time
// per update (Table IV) on ACL 1K.
func BenchmarkTableIVFirmware(b *testing.B) {
	for _, name := range []string{"Naive", "FastRule", "RuleTris", "POT"} {
		b.Run(name, func(b *testing.B) {
			w := benchWorkload(b)
			var avg float64
			for i := 0; i < b.N; i++ {
				row, err := bench.RunUpdateCost(w, name, 200)
				if err != nil {
					b.Fatal(err)
				}
				avg = row.AvgFirmwareNs
			}
			b.ReportMetric(avg, "firmware-ns/update")
		})
	}
	b.Run("CATCAM", func(b *testing.B) {
		w := benchWorkload(b)
		var avg float64
		for i := 0; i < b.N; i++ {
			row, _, err := bench.RunCATCAMUpdateCost(w, 200)
			if err != nil {
				b.Fatal(err)
			}
			avg = row.AvgFirmwareNs
		}
		b.ReportMetric(avg, "firmware-ns/update")
	})
}

// BenchmarkTableII recomputes the system metrics roll-up.
func BenchmarkTableII(b *testing.B) {
	var power float64
	for i := 0; i < b.N; i++ {
		m := metrics.ComputeSystem(catcam.Prototype(), 4.4)
		power = m.PowerW
	}
	b.ReportMetric(power, "power-W")
}

// BenchmarkFig15Lookup measures per-lookup cost of every engine on the
// Fig 15 comparison workload.
func BenchmarkFig15Lookup(b *testing.B) {
	w := bench.NewWorkload(classbench.ACL, 1000, bench.WorkloadOptions{
		Updates: 10, Headers: 300, FlatPorts: true,
	})
	rows, err := bench.Fig15(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(row.Engine, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = row
			}
			b.ReportMetric(row.MOPS, "model-MOPS")
			b.ReportMetric(row.AvgNs, "model-ns/lookup")
		})
	}
}

// BenchmarkFig16Energy regenerates the energy curves.
func BenchmarkFig16Energy(b *testing.B) {
	points := []int{1, 16, 64, 128, 256}
	var perBit float64
	for i := 0; i < b.N; i++ {
		m := metrics.MatchEnergyCurve(640, points)
		perBit = m[len(m)-1].PerBitFJ
		metrics.PriorityEnergyCurve(points)
	}
	b.ReportMetric(perBit, "fJ/bit-full-load")
}

// BenchmarkCPR measures the §VIII-A cycle breakdown on a churn trace.
func BenchmarkCPR(b *testing.B) {
	w := benchWorkload(b)
	var cprV float64
	for i := 0; i < b.N; i++ {
		_, cpr, err := bench.RunCATCAMUpdateCost(w, 300)
		if err != nil {
			b.Fatal(err)
		}
		cprV = cpr.OverallCPR
	}
	b.ReportMetric(cprV, "cycles/update")
}

// BenchmarkOccupancy runs the §VIII-B fill-to-failure experiment at
// prototype geometry.
func BenchmarkOccupancy(b *testing.B) {
	var occ, cpr float64
	for i := 0; i < b.N; i++ {
		o := bench.Occupancy(int64(i) + 1)
		occ, cpr = o.Occupancy, o.InsertCPR
	}
	b.ReportMetric(occ*100, "occupancy-%")
	b.ReportMetric(cpr, "cycles/insert")
}

// BenchmarkDeviceLookup measures the functional simulator's raw lookup
// speed (host-side, not modelled hardware time), with the state
// observatory attached and sweeping concurrently: structural sampling
// rides the published snapshot, so the classify path must stay at zero
// allocations and the reported allocs/op must stay 0.
func BenchmarkDeviceLookup(b *testing.B) {
	// ACL rules range-expand ~2.5x and random-order load fragments
	// intervals, so use the prototype's 64K-entry geometry.
	dev := catcam.New(catcam.Compact())
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 1000, Seed: 5})
	for _, r := range rs.Rules {
		if _, err := dev.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
	obs := stateobs.New(dev, stateobs.Config{RingFrames: 4})
	obs.AttachTelemetry(telemetry.NewRegistry(), nil)
	for i := 0; i < 4; i++ { // warm every ring slot's fill row
		obs.Sweep(time.Now())
	}
	time.Sleep(time.Millisecond) // warm this goroutine's runtime timer
	stop := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
				obs.Sweep(time.Now())
				time.Sleep(time.Millisecond)
			}
		}
	}()
	headers := classbench.PacketTrace(rs, 1024, 0.9, 6)
	dev.Lookup(headers[0]) // warm the lookup scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Lookup(headers[i%len(headers)])
	}
	b.StopTimer()
	close(stop)
	<-swept
}

// BenchmarkDeviceLookupBatch is BenchmarkDeviceLookup through the
// batched API: one snapshot load and one pooled-scratch checkout per
// 256 packets, one result append per packet, zero allocations at
// steady state.
func BenchmarkDeviceLookupBatch(b *testing.B) {
	dev := catcam.New(catcam.Compact())
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 1000, Seed: 5})
	for _, r := range rs.Rules {
		if _, err := dev.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
	headers := classbench.PacketTrace(rs, 256, 0.9, 6)
	results := make([]catcam.LookupResult, 0, len(headers))
	results = dev.LookupHeaderBatch(headers, results[:0]) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = dev.LookupHeaderBatch(headers, results[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(headers)), "ns/lookup")
}

// BenchmarkDeviceLookupHeaderBatch measures the subtable-major batch
// core at the batch sizes callers use: 1 (a single header, the per-key
// floor), 16 and 64 (the ingress burst and the switch benchmark's
// reader) on FW 1K in a Compact device. ns/pkt is comparable across
// sizes; the gap between b=1 and b=64 is what walking every subtable
// once per batch, instead of once per key, buys.
func BenchmarkDeviceLookupHeaderBatch(b *testing.B) {
	dev := catcam.New(catcam.Compact())
	rs := classbench.Generate(classbench.Config{Family: classbench.FW, Size: 1000, Seed: 1})
	for _, r := range rs.Rules {
		if _, err := dev.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
	headers := classbench.PacketTrace(rs, 4096, 0.9, 6)
	for _, size := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("b=%d", size), func(b *testing.B) {
			results := make([]catcam.LookupResult, 0, size)
			results = dev.LookupHeaderBatch(headers[:size], results[:0]) // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * size) % (len(headers) - size)
				results = dev.LookupHeaderBatch(headers[off:off+size], results[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/pkt")
		})
	}
}

// BenchmarkDeviceLookupParallel measures the lock-free classify path
// under goroutine scaling: g goroutines split b.N batched lookups over
// ONE device on the BenchmarkDeviceLookup workload. Before the
// epoch-snapshot path (PR 7) every variant serialized on the device
// mutex; now each goroutine loads the published snapshot and traverses
// it with pooled scratch, so on a multi-core host throughput should
// scale near-linearly until memory bandwidth binds (acceptance target:
// >= 3x at g=4 vs g=1 on a 4+ core machine). ns/op is per lookup.
// Single-core hosts will show flat (slightly degraded) scaling — the
// figure measures the machine; compare only same-CPU baselines
// (bench-json -require-same-cpu enforces this).
func BenchmarkDeviceLookupParallel(b *testing.B) {
	dev := catcam.New(catcam.Compact())
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 1000, Seed: 5})
	for _, r := range rs.Rules {
		if _, err := dev.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
	headers := classbench.PacketTrace(rs, 256, 0.9, 6)
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			var warm sync.WaitGroup
			for w := 0; w < g; w++ {
				warm.Add(1)
				go func() { // warm one pooled scratch per goroutine
					defer warm.Done()
					dev.LookupHeaderBatch(headers, nil)
				}()
			}
			warm.Wait()
			b.ReportAllocs()
			b.ResetTimer()
			batches := (b.N + len(headers) - 1) / len(headers)
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				share := batches / g
				if w < batches%g {
					share++
				}
				wg.Add(1)
				go func(share int) {
					defer wg.Done()
					var results []catcam.LookupResult
					for i := 0; i < share; i++ {
						results = dev.LookupHeaderBatch(headers, results[:0])
					}
				}(share)
			}
			wg.Wait()
		})
	}
}

// clusterBenchSetup loads the BenchmarkDeviceLookup workload (same
// ruleset, same geometry per shard, same trace) into an n-shard
// cluster, so cluster ns/op is directly comparable to the committed
// single-device baseline.
func clusterBenchSetup(b *testing.B, shards int, batch int) (*cluster.Cluster, []rules.Header) {
	b.Helper()
	c := cluster.New(cluster.Config{Shards: shards, Mode: cluster.ModeInterval, Device: catcam.Compact()})
	b.Cleanup(c.Close)
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 1000, Seed: 5})
	for _, r := range rs.Rules {
		if _, err := c.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
	return c, classbench.PacketTrace(rs, batch, 0.9, 6)
}

// BenchmarkClusterLookupParallel measures fan-out classify through a
// 4-shard cluster on the BenchmarkDeviceLookup workload. The stride
// loop advances b.N by the batch size, so ns/op is per *lookup* —
// compare directly against BenchmarkDeviceLookup in BENCH_lookup.json.
// Each shard holds ~1/4 of the rules (fewer active subtables to
// bit-slice through) and the four shard workers search concurrently,
// so at GOMAXPROCS >= 4 this should run several times faster than the
// single-device baseline.
func BenchmarkClusterLookupParallel(b *testing.B) {
	c, headers := clusterBenchSetup(b, 4, 256)
	results := c.LookupHeaderBatch(headers, nil) // warm the fan-out working set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(headers) {
		results = c.LookupHeaderBatch(headers, results[:0])
	}
}

// BenchmarkClusterShardScaling sweeps the shard count on the same
// workload — the scaling table in README's "Cluster mode" section.
// shards=1 measures the pure fan-out overhead over a bare device.
func BenchmarkClusterShardScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c, headers := clusterBenchSetup(b, n, 256)
			results := c.LookupHeaderBatch(headers, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(headers) {
				results = c.LookupHeaderBatch(headers, results[:0])
			}
		})
	}
}

// BenchmarkDeviceInsertDelete measures the simulator's raw update speed.
func BenchmarkDeviceInsertDelete(b *testing.B) {
	dev := catcam.New(catcam.Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := catcam.Rule{
			ID: i, Priority: 1 + i%65535, Action: i,
			SrcIP:   catcam.Prefix{Addr: uint32(i * 2654435761), Len: 24}.Canonical(),
			SrcPort: catcam.FullPortRange(), DstPort: catcam.FullPortRange(),
			ProtoWildcard: true,
		}
		if _, err := dev.InsertRule(r); err != nil {
			b.Fatal(err)
		}
		if _, err := dev.DeleteRule(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceChurn measures the host cost of one insert and one
// delete on a Compact device loaded with ClassBench FW at 250, 1000
// and 2000 rules (≈12.7 entries per rule after range expansion). Each
// iteration deletes a live rule and inserts a fresh one, both taken in
// order from a classbench.UpdateTraceFresh trace, so the table size
// stays constant; the op=delete and op=insert sub-benchmarks time only
// their own half. Updates modeled as O(1) must cost host time
// proportional to the entries they write, not to the table: delete
// ns/op should stay flat across the three sizes.
func BenchmarkDeviceChurn(b *testing.B) {
	for _, size := range []int{250, 1000, 2000} {
		rs := classbench.Generate(classbench.Config{Family: classbench.FW, Size: size, Seed: 1})
		for _, op := range []classbench.Op{classbench.OpDelete, classbench.OpInsert} {
			b.Run(fmt.Sprintf("rules=%d/op=%s", size, op), func(b *testing.B) {
				benchChurn(b, rs, op)
			})
		}
	}
}

// benchChurn loads rs into a fresh device and runs b.N delete/insert
// pairs, timing only the updates of kind timed.
func benchChurn(b *testing.B, rs *catcam.Ruleset, timed classbench.Op) {
	dev := catcam.New(catcam.Compact())
	for _, r := range rs.Rules {
		if _, err := dev.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
	// In a fresh-priority trace the k-th insert re-adds a rule deleted
	// earlier and the k-th delete names a rule live before it, so
	// pairing them in order (delete first) is itself a valid trace.
	var dels, ins []catcam.Rule
	for n := 4 * b.N; len(dels) < b.N || len(ins) < b.N; n *= 2 {
		dels, ins = dels[:0], ins[:0]
		for _, u := range classbench.UpdateTraceFresh(rs, n, 3) {
			if u.Op == classbench.OpDelete {
				dels = append(dels, u.Rule)
			} else {
				ins = append(ins, u.Rule)
			}
		}
	}
	apply := func(op classbench.Op, r catcam.Rule) {
		if op != timed {
			b.StopTimer()
			defer b.StartTimer()
		}
		var err error
		if op == classbench.OpDelete {
			_, err = dev.DeleteRule(r.ID)
		} else {
			_, err = dev.InsertRule(r)
		}
		if err != nil {
			b.Fatalf("%s rule %d: %v", op, r.ID, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(classbench.OpDelete, dels[i])
		apply(classbench.OpInsert, ins[i])
	}
}

// BenchmarkAblations regenerates the design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		col := bench.ColumnWriteAblation(catcam.Prototype())
		glob := bench.GlobalArbitrationAblation(256, 8)
		ratio = col.AltV/col.PaperV + glob.AltV/glob.PaperV
	}
	b.ReportMetric(ratio, "combined-savings-x")
}

// Sanity check used by the benchmarks' documentation: the workload
// generator emits what the benches assume.
func TestBenchWorkloadAssumptions(t *testing.T) {
	w := bench.NewWorkload(classbench.ACL, 1000, bench.WorkloadOptions{
		Updates: 300, Headers: 500, FlatPorts: true, FreshPriorities: true,
	})
	if len(w.Ruleset.Rules) != 1000 || len(w.Trace) != 300 || len(w.Headers) != 500 {
		t.Fatalf("unexpected workload shape: %d rules, %d updates, %d headers",
			len(w.Ruleset.Rules), len(w.Trace), len(w.Headers))
	}
	if w.Entries() != 1000 {
		t.Fatalf("flat ports should keep entries 1:1, got %d", w.Entries())
	}
	_ = fmt.Sprintf("%v", rules.TupleBits)
}
