package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/rules"
)

const (
	// setupBuilds is how many times a run builds its system; setup_s is
	// the median.
	setupBuilds = 3
	batchSize   = 64
	// traceLen headers are drawn per packet trace and cycled.
	traceLen = 1 << 14
	// sampleLen decisions per run are checked against the reference.
	sampleLen = 2048
	// churnPrefix updates of the churn trace carry the count metrics.
	churnPrefix = 1024

	// Sample buffers are sized from these ceilings on per-second rates
	// (several times what the host reaches today), so recording never
	// allocates inside a timed loop.
	maxBatchesPerSec = 5000
	maxUpdatesPerSec = 20000
	maxBurstsPerSec  = 20000
)

// rulesetSeed fixes each workload's ClassBench ruleset. --seed draws
// what flows through it — churn's packet and update traces, the
// switch's flow universe — so the spread across seeds measures the host
// and the inputs, not the luck of one ruleset's wildcard coverage
// (which alone moved the share of the switch's slow-path packets that
// reach table 1 between 11% and 61% over three seeds).
const rulesetSeed = 1

// ruleset generates a ClassBench ruleset whose actions are the rule IDs,
// so a decision names the rule that won.
func ruleset(f classbench.Family, n int, seed int64) []rules.Rule {
	rs := classbench.Generate(classbench.Config{Family: f, Size: n, Seed: seed}).Rules
	for i := range rs {
		rs[i].Action = rs[i].ID
	}
	return rs
}

func packetTrace(rs []rules.Rule, seed int64) []rules.Header {
	return classbench.PacketTrace(&rules.Ruleset{Rules: rs}, traceLen, 0.9, seed)
}

// setup runs build setupBuilds times from a collected heap, stores the
// median build time as setup_s, and the heap in use after the last
// build as live_heap_mb. Each build replaces the previous one. A build
// is timed as the CPU time the whole process spends on it: set-up is
// CPU-bound, and wall time would add the stretches in which the host
// takes the virtual CPU away.
func (r *run) setup(build func() error) error {
	times := make([]float64, 0, setupBuilds)
	for i := 0; i < setupBuilds; i++ {
		runtime.GC()
		c0 := processCPU()
		if err := build(); err != nil {
			return err
		}
		times = append(times, (processCPU() - c0).Seconds())
	}
	r.m["setup_s"] = median(times)
	r.m["live_heap_mb"] = liveHeapMB()
	return nil
}

// installDevice builds a Compact device holding rs, through an updater
// whose prefix is the whole install.
func installDevice(rs []rules.Rule) (*core.Device, *updater, *tally) {
	dev := core.NewDevice(core.Compact())
	t := &tally{}
	up := newUpdater(installStream(rs), dev, deviceApply(dev), t, len(rs), len(rs))
	for !up.prefixDone() {
		up.step()
	}
	return dev, up, t
}

// lookupLoop runs closed-loop LookupHeaderBatch calls over the cycled
// trace until done reports true, timing every batch on the CPU clock of
// its thread. It allocates nothing, so the allocation measured around
// it is the program's.
func lookupLoop(dev *core.Device, hdrs []rules.Header, lat *samples, done func(time.Time) bool) (pkts int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	dst := make([]core.LookupResult, 0, batchSize)
	for i := 0; ; i = (i + batchSize) % len(hdrs) {
		b := hdrs[i : i+batchSize]
		c0 := threadCPU()
		dst = dev.LookupHeaderBatch(b, dst[:0])
		lat.add(threadCPU() - c0)
		pkts += len(b)
		if done(time.Now()) {
			return pkts
		}
	}
}

// recordLookups stores the reader-side metrics of a lookup loop.
func recordLookups(m map[string]float64, dev *core.Device, lat *samples, pkts int, elapsed time.Duration) {
	kpps := float64(pkts) / elapsed.Seconds() / 1e3
	m["throughput_kpps"] = kpps
	m["traced.throughput_kpps"] = kpps
	m["batch_p50_us"] = lat.quantileUs(0.50)
	m["batch_p99_us"] = lat.p99Us()
	m["core.lookup_ns_per_pkt"] = lat.quantileUs(0.50) * 1e3 / batchSize
	recordScratch(m, dev)
}

// churn: an FW 1K ruleset (range expansion gives ≈12.7 entries per rule)
// in one Compact device. One goroutine runs a closed loop of
// UpdateTraceFresh inserts and deletes while a second runs a classify
// loop on the same device. The write path does most of the work; the
// reader shows what it costs lookups through publication and GC.
func churn(r *run) error {
	rs := ruleset(classbench.FW, 1000, rulesetSeed)
	var dev *core.Device
	var inst *updater
	var installTally *tally
	if err := r.setup(func() error {
		dev, inst, installTally = installDevice(rs)
		return nil
	}); err != nil {
		return err
	}
	r.tally = *installTally
	hdrs := packetTrace(rs, r.seed+1)
	stream := inst.stream
	stream.startTrace(r.seed + 2)

	secs := int(r.dur.Seconds())
	up := newUpdater(stream, dev, deviceApply(dev), &r.tally, secs*maxUpdatesPerSec, churnPrefix)
	readLat := newSamples(secs * maxBatchesPerSec)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var readPkts int
	gc := startGC()
	start := time.Now()
	deadline := start.Add(r.dur)
	wg.Add(1)
	go func() {
		defer wg.Done()
		readPkts = lookupLoop(dev, hdrs, &readLat, func(time.Time) bool { return stop.Load() })
	}()
	for !up.prefixDone() || time.Now().Before(deadline) {
		up.step()
		if up.n == churnPrefix {
			r.m["core.active_subtables"] = float64(dev.ActiveSubtables())
		}
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	gc.record(r.m)
	recordLookups(r.m, dev, &readLat, readPkts, elapsed)
	up.record(r.m, elapsed)
	r.info["samples"] = map[string]int{"batches": len(readLat.ns), "updates": len(up.lat.ns),
		"dropped": readLat.dropped + up.lat.dropped}

	if r.traced {
		layerProbes(r, rs, hdrs)
		if err := switchProbe(r); err != nil {
			return err
		}
	}
	checkDevice(&r.tally, dev, stream.live, hdrs[:sampleLen])
	return nil
}
