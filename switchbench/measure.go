package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"catcam/internal/core"
)

// threadCPU is the calling OS thread's CPU time (Linux
// CLOCK_THREAD_CPUTIME_ID). Work that runs entirely on the timing
// goroutine — a device lookup batch, a rule update — is timed as a
// difference of it, taken by a goroutine locked to its thread: the time
// the work spent on the CPU. Unlike wall time it leaves out the
// stretches in which the host takes the virtual CPU away, which on a
// shared host otherwise set the tail of a multi-millisecond batch.
// Throughputs stay wall-clock rates.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// processCPU is the CPU time of all the process's threads, garbage
// collection included.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// samples records latencies in nanoseconds into a buffer sized before
// the timed phase, so recording never allocates inside a timed loop.
// Samples beyond the capacity are counted in dropped, not stored.
type samples struct {
	ns      []uint32
	dropped int
}

func newSamples(capacity int) samples { return samples{ns: make([]uint32, 0, capacity)} }

func (s *samples) add(d time.Duration) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(d))
}

// quantileUs returns the q-quantile (nearest rank) in microseconds.
func (s *samples) quantileUs(q float64) float64 {
	if len(s.ns) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(s.ns)
	slices.Sort(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// tailBlock is the sample count over which one p99 is taken.
const tailBlock = 1000

// p99Us is the tail latency of a run in microseconds: the p99 of each
// block of tailBlock consecutive samples (ten beyond it), median over
// the blocks. A burst of interference from other tenants of the host
// then moves one block, not the run's figure. Fewer samples than two
// blocks give the plain p99.
func (s *samples) p99Us() float64 {
	if len(s.ns) < 2*tailBlock {
		return s.quantileUs(0.99)
	}
	var blocks []float64
	for i := 0; i+tailBlock <= len(s.ns); i += tailBlock {
		b := samples{ns: s.ns[i : i+tailBlock]}
		blocks = append(blocks, b.quantileUs(0.99))
	}
	return median(blocks)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// allocMeter reads the cumulative heap allocation counters without
// stopping the world or allocating, so it may sit inside a timed loop.
type allocMeter struct{ s [2]metrics.Sample }

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	m.s[0].Name = "/gc/heap/allocs:bytes"
	m.s[1].Name = "/gc/heap/allocs:objects"
	return m
}

func (m *allocMeter) read() (bytes, objects uint64) {
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
}

// gcMeter measures collections and their stop-the-world pauses over a
// phase. It reads MemStats, which stops the world: call it only at
// phase boundaries.
type gcMeter struct {
	start   time.Time
	numGC   uint32
	pauseNs uint64
}

func startGC() gcMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcMeter{start: time.Now(), numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// record stores go.gc_per_s and go.gc_pause_ms_per_s for the phase.
func (g gcMeter) record(m map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	secs := time.Since(g.start).Seconds()
	m["go.gc_per_s"] = float64(ms.NumGC-g.numGC) / secs
	m["go.gc_pause_ms_per_s"] = float64(ms.PauseTotalNs-g.pauseNs) / 1e6 / secs
}

// liveHeapMB is the heap in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// updateTarget is what the update counters read: a core.Device or a
// cluster.Cluster.
type updateTarget interface {
	Stats() core.Stats
	DeriveStructure(dst *core.Structure) *core.Structure
}

// updateCounts is a snapshot of the cumulative device counters an
// update moves, taken at the two ends of a fixed prefix of the update
// trace so that the modeled and count metrics repeat exactly for a seed.
type updateCounts struct {
	stats core.Stats
	churn core.StructuralChurn
}

func snapshotUpdates(t updateTarget, st *core.Structure) updateCounts {
	return updateCounts{stats: t.Stats(), churn: t.DeriveStructure(st).Churn}
}

// prefixTotals is what the benchmark itself counts over the prefix.
type prefixTotals struct {
	ops     int    // rule updates applied
	inserts int    // rule inserts among them
	entries int    // range-expansion entries of those inserts
	hostNs  int64  // host time inside the update calls
	allocB  uint64 // bytes allocated inside the update calls
	allocN  uint64 // objects allocated inside the update calls
}

// modeledClockNs is the paper's 500 MHz clock period.
const modeledClockNs = 2.0

// recordUpdates stores the update metrics of a prefix: the §VIII-A
// cycles per entry operation, allocation per rule update, and the
// structural work each update caused.
func recordUpdates(m map[string]float64, a, b updateCounts, p prefixTotals) {
	ops := float64(p.ops)
	entryOps := float64(b.stats.Inserts - a.stats.Inserts + b.stats.Deletes - a.stats.Deletes)
	cycles := float64(b.stats.UpdateCycles - a.stats.UpdateCycles)
	m["cycles_per_update"] = cycles / entryOps
	m["alloc_kb_per_update"] = float64(p.allocB) / ops / 1024
	m["core.allocs_per_update"] = float64(p.allocN) / ops
	m["core.views_rebuilt_per_update"] = float64(b.churn.ViewsRebuilt-a.churn.ViewsRebuilt) / ops
	m["core.global_rebuilds_per_update"] = float64(b.churn.GlobalRebuilds-a.churn.GlobalRebuilds) / ops
	m["core.realloc_share"] = float64(b.stats.ReallocInserts-a.stats.ReallocInserts) /
		float64(b.stats.Inserts-a.stats.Inserts)
	m["rules.entries_per_rule"] = float64(p.entries) / float64(p.inserts)
	m["core.host_ns_per_cycle"] = float64(p.hostNs) / (cycles * modeledClockNs)
}

// recordScratch stores the read-scratch pool reuse of a device or
// cluster: the share of lookup batches that found pooled scratch.
func recordScratch(m map[string]float64, t updateTarget) {
	c := t.DeriveStructure(nil).Churn
	m["core.scratch_reuse"] = 1 - float64(c.ScratchAllocs)/float64(max(c.ScratchBatches, 1))
}
