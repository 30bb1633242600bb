package main

import (
	"fmt"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/flightrec"
	"catcam/internal/flowtable"
	"catcam/internal/ingress"
	"catcam/internal/rules"
	tracepkg "catcam/internal/trace"
)

const (
	switchFlows     = 100_000
	flowCacheSize   = 16384
	burstsPerUpdate = 64
	// streamBursts bursts of traffic are drawn up front and cycled, so
	// the generator is not timed.
	streamBursts = 4096
	// switchPrefix bursts of the switch workload carry its count metrics
	// (hit ratio, epochs) and the switchPrefix/burstsPerUpdate updates
	// its update latencies are taken over; probePrefix bursts make up the
	// switch probe.
	switchPrefix = 65536
	probePrefix  = 2048
	// replayEvery: the traced run replays one in this many slow-path
	// batches through the cluster and its shards.
	replayEvery = 4
	// table1Action offsets table 1's actions from table 0's rule IDs.
	table1Action = 1 << 20
)

// gotoTable1 is the instruction split of table 0: a quarter of its
// rules continue to table 1, the rest are terminal.
func gotoTable1(ruleID int) bool { return ruleID%4 == 0 }

func table0Instruction(ruleID int) flowtable.Instruction {
	if gotoTable1(ruleID) {
		return flowtable.Goto(1)
	}
	return flowtable.Terminal(ruleID)
}

// switchStack is the full SDN data path: ingress (one worker, 64-packet
// bursts, a 16K flow cache) over a two-table pipeline — table 0 a
// 2-shard interval cluster holding ACL 2K whose misses continue to
// table 1, table 1 one device holding IPC 1K whose misses drop.
type switchStack struct {
	pipe  *flowtable.Pipeline
	clus  *cluster.Cluster
	eng   *ingress.Engine
	slow  *timedBackend // nil unless traced
	up0   *updater      // table 0: install, then the churn trace
	acl   []rules.Rule  // table 0's ruleset
	live1 map[int]rules.Rule
}

func buildSwitch(acl, ipc []rules.Rule, traced bool) (*switchStack, *tally, error) {
	p, err := flowtable.NewPipeline([]flowtable.TableConfig{
		{ID: 0, Device: core.Compact(), Miss: flowtable.MissPolicy{Continue: true},
			Shards: 2, Partition: cluster.ModeInterval},
		{ID: 1, Device: core.Compact(), Miss: flowtable.MissPolicy{MissAction: flowtable.Drop}},
	})
	if err != nil {
		return nil, nil, err
	}
	b0, _ := p.Table(0)
	s := &switchStack{pipe: p, clus: b0.(*cluster.Cluster), acl: acl}
	t := &tally{}
	s.up0 = newUpdater(installStream(acl), s.clus, func(u classbench.Update) error {
		if u.Op == classbench.OpInsert {
			_, err := p.Install(0, flowtable.FlowRule{Rule: u.Rule, Instruction: table0Instruction(u.Rule.ID)})
			return err
		}
		_, err := p.Remove(0, u.Rule.ID)
		return err
	}, t, len(acl), len(acl))
	for !s.up0.prefixDone() {
		s.up0.step()
	}
	s.live1 = make(map[int]rules.Rule, len(ipc))
	for _, r := range ipc {
		r.Action = table1Action + r.ID
		_, err := p.Install(1, flowtable.FlowRule{Rule: r, Instruction: flowtable.Terminal(r.Action)})
		t.update(r.ID, err)
		if err == nil {
			s.live1[r.ID] = r
		}
	}
	var backend ingress.Backend = ingress.NewPipelineBackend(p)
	if traced {
		s.slow = &timedBackend{inner: backend, last: make([]rules.Header, 0, batchSize)}
		backend = s.slow
	}
	s.eng = ingress.New(ingress.Config{Workers: 1, Burst: batchSize, FlowCacheSize: flowCacheSize, Backend: backend})
	return s, t, nil
}

// traffic draws the packet stream: Zipf s=1.2 over 100K flows built
// from both tables' rules.
func traffic(acl, ipc []rules.Rule, seed int64) []rules.Header {
	all := append(append([]rules.Rule(nil), acl...), ipc...)
	gen := ingress.NewGenerator(&rules.Ruleset{Rules: all},
		ingress.GenConfig{Flows: switchFlows, ZipfS: 1.2, Seed: seed})
	out := make([]rules.Header, streamBursts*batchSize)
	gen.Fill(out)
	return out
}

// timedBackend is the traced run's ingress slow path: it forwards to
// the pipeline and times each call from the benchmark side on the same
// clock as the bursts, keeping a copy of the last miss batch for the
// layer replay.
type timedBackend struct {
	inner ingress.Backend
	ns    int64
	calls int
	pkts  int
	last  []rules.Header
}

func (b *timedBackend) ClassifyBatch(tr *tracepkg.Trace, hs []rules.Header, dst []ingress.Result) []ingress.Result {
	c0 := processCPU()
	dst = b.inner.ClassifyBatch(tr, hs, dst)
	b.ns += int64(processCPU() - c0)
	b.calls++
	b.pkts += len(hs)
	b.last = append(b.last[:0], hs...)
	return dst
}

func (b *timedBackend) Epoch() uint64 { return b.inner.Epoch() }

// switchRun is what one pass of the switch loop measured.
type switchRun struct {
	bursts, pkts int
	burstLat     samples
	elapsed      time.Duration
	loopAllocB   uint64 // allocated during the loop outside update calls

	prefixHits, prefixPkts, prefixEpochs uint64
	activeSubtables                      float64 // mean over table 0's shards

	// Traced only.
	burstNs, slowNs, replayNs int64
	replays, replayPkts       int
	clusterNs, shardMaxNs     int64
	shardSumNs                int64
	visits                    int // table visits of replayed packets
}

// loop runs bursts through Engine.ProcessSync on the calling goroutine,
// one table-0 update every burstsPerUpdate bursts, until the counted
// prefix of `prefix` bursts is done and done reports true. A burst is
// timed as the CPU time of the whole process: table 0's cluster
// classifies on its fan-out goroutines, which the calling thread's
// clock does not see, and in wall time the host's scheduling of the
// second virtual CPU sets the tail.
func (s *switchStack) loop(stream []rules.Header, prefix int, done func(now time.Time) bool, capacity int) *switchRun {
	sr := &switchRun{burstLat: newSamples(capacity)}
	up := s.up0
	am := newAllocMeter()
	e0 := s.pipe.Epoch()
	alloc0, _ := am.read()
	upAlloc0 := up.allocB
	var res []core.LookupResult
	if s.slow != nil {
		res = make([]core.LookupResult, 0, batchSize)
	}
	start := time.Now()
	for {
		if sr.bursts > 0 && sr.bursts%burstsPerUpdate == 0 {
			up.step()
		}
		i := sr.bursts % streamBursts * batchSize
		b := stream[i : i+batchSize]
		var slow0 int64
		if s.slow != nil {
			slow0 = s.slow.ns
		}
		c0 := processCPU()
		s.eng.ProcessSync(0, b)
		d := processCPU() - c0
		sr.burstLat.add(d)
		sr.pkts += len(b)
		sr.bursts++
		if s.slow != nil {
			sr.burstNs += int64(d)
			if slowD := s.slow.ns - slow0; slowD > 0 {
				sr.slowNs += slowD
				if s.slow.calls%replayEvery == 0 {
					res = s.replay(sr, res)
				}
			}
		}
		if sr.bursts == prefix {
			st := s.eng.Snapshot()
			sr.prefixHits, sr.prefixPkts = st.CacheHits, st.Packets
			sr.prefixEpochs = s.pipe.Epoch() - e0
			for i := 0; i < s.clus.NumShards(); i++ {
				sr.activeSubtables += float64(s.clus.Shard(i).ActiveSubtables())
			}
			sr.activeSubtables /= float64(s.clus.NumShards())
		}
		if sr.bursts > prefix && up.prefixDone() && done(time.Now()) {
			break
		}
	}
	sr.elapsed = time.Since(start)
	alloc1, _ := am.read()
	sr.loopAllocB = alloc1 - alloc0 - (up.allocB - upAlloc0)
	return sr
}

// replay times the last slow-path batch again through table 0's cluster
// and through each of its shards alone, and counts the tables each
// packet visits. Its time is excluded from the traced throughput.
func (s *switchStack) replay(sr *switchRun, res []core.LookupResult) []core.LookupResult {
	t0 := time.Now()
	hs := s.slow.last
	res = s.clus.LookupHeaderBatch(hs, res[:0])
	sr.clusterNs += int64(time.Since(t0))
	for _, r := range res {
		sr.visits++
		if !r.OK || gotoTable1(r.Entry.Rank.RuleID) {
			sr.visits++
		}
	}
	var maxNs int64
	for i := 0; i < s.clus.NumShards(); i++ {
		ts := time.Now()
		res = s.clus.Shard(i).LookupHeaderBatch(hs, res[:0])
		d := int64(time.Since(ts))
		sr.shardSumNs += d
		maxNs = max(maxNs, d)
	}
	sr.shardMaxNs += maxNs
	sr.replays++
	sr.replayPkts += len(hs)
	sr.replayNs += int64(time.Since(t0))
	return res
}

// recordLayers stores the cluster, flowtable and ingress metrics of a
// traced pass.
func (s *switchStack) recordLayers(m map[string]float64, sr *switchRun) {
	reps := float64(sr.replays)
	shards := float64(s.clus.NumShards())
	m["cluster.batch_us"] = float64(sr.clusterNs) / reps / 1e3
	m["cluster.shard_us_max"] = float64(sr.shardMaxNs) / reps / 1e3
	m["cluster.fanout_us"] = float64(sr.clusterNs-sr.shardMaxNs) / reps / 1e3
	m["cluster.shard_imbalance"] = float64(sr.shardMaxNs) / (float64(sr.shardSumNs) / shards)
	m["flowtable.batch_us"] = float64(s.slow.ns) / float64(s.slow.calls) / 1e3
	m["flowtable.tables_per_pkt"] = float64(sr.visits) / float64(sr.replayPkts)
	m["flowtable.miss_batch_size"] = float64(s.slow.pkts) / float64(s.slow.calls)
	m["ingress.hit_ratio"] = float64(sr.prefixHits) / float64(sr.prefixPkts)
	m["ingress.epochs_per_kpkt"] = float64(sr.prefixEpochs) / float64(sr.prefixPkts) * 1e3
	m["ingress.fastpath_ns_per_pkt"] = float64(sr.burstNs-sr.slowNs) / float64(sr.pkts)
	m["ingress.slowpath_share"] = float64(sr.slowNs) / float64(sr.burstNs)
}

// reference walks the two tables and their instructions with one
// swclass.Linear per table.
func (s *switchStack) reference() func(rules.Header) decision {
	t0, t1 := linearRef(s.up0.stream.live), linearRef(s.live1)
	return func(h rules.Header) decision {
		if d := t0(h); d.ok && !gotoTable1(d.action) {
			return d
		}
		if d := t1(h); d.ok {
			return d
		}
		return decision{action: flowtable.Drop}
	}
}

// check verifies a decision sample through the ingress engine (flow
// cache included) against the reference walk, then the pipeline's
// invariants and a full audit sweep of every backend.
func (s *switchStack) check(t *tally, sample []rules.Header) {
	got := make([]decision, 0, len(sample))
	for i := 0; i < len(sample); i += batchSize {
		for _, r := range s.eng.ProcessSync(0, sample[i:min(i+batchSize, len(sample))]) {
			got = append(got, decision{action: int(r.Action), ok: r.Matched})
		}
	}
	t.decisions("switch", sample, got, s.reference())
	t.invariant("pipeline", s.pipe.CheckInvariant())
	s.pipe.AttachAuditors(func(int) *flightrec.Auditor { return flightrec.NewAuditor(nil, nil, 0, nil) })
	t.audit("pipeline", s.pipe.AuditSweep())
}

// setupSwitch builds the switch setupBuilds times through r.setup, or
// once when r is nil, and returns the last build, its install tally and
// its traffic.
func setupSwitch(r *run, seed int64, traced bool) (*switchStack, *tally, []rules.Header, error) {
	acl := ruleset(classbench.ACL, 2000, rulesetSeed)
	ipc := ruleset(classbench.IPC, 1000, rulesetSeed+1)
	var s *switchStack
	var t *tally
	build := func() error {
		if s != nil {
			s.pipe.Close()
		}
		var err error
		s, t, err = buildSwitch(acl, ipc, traced)
		return err
	}
	var err error
	if r != nil {
		err = r.setup(build)
	} else {
		err = build()
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("switch set-up: %w", err)
	}
	return s, t, traffic(acl, ipc, seed+1), nil
}

// startChurn switches table 0 from its install to the update trace,
// with the updates of prefixBursts bursts in the counted prefix, and
// latency samples for the first `capacity` updates. The switch applies
// one update per 64 bursts, about 1300 in a 40 s run, and inserts of the
// few rules that expand to 36 or more entries make up its p99; the
// trace is drawn from a fixed seed and the latencies are taken over its
// fixed prefix, so that every run times the same updates, and --seed
// varies the traffic.
func (s *switchStack) startChurn(t *tally, capacity, prefixBursts int, seed int64) {
	s.up0.stream.startTrace(seed)
	s.up0 = newUpdater(s.up0.stream, s.clus, s.up0.apply, t, capacity, prefixBursts/burstsPerUpdate)
}

// switchWorkload: the full data path run synchronously on one goroutine
// through Engine.ProcessSync. The flow cache answers most packets, so
// cluster fan-out, flowtable traversal and epoch-driven cache flushes
// carry the cost, not the kernel.
func switchWorkload(r *run) error {
	s, installTally, stream, err := setupSwitch(r, r.seed, r.traced)
	if err != nil {
		return err
	}
	defer s.pipe.Close()
	r.tally = *installTally
	secs := int(r.dur.Seconds())
	s.startChurn(&r.tally, switchPrefix/burstsPerUpdate, switchPrefix, rulesetSeed+2)

	gc := startGC()
	deadline := time.Now().Add(r.dur)
	sr := s.loop(stream, switchPrefix, func(now time.Time) bool { return now.After(deadline) }, secs*maxBurstsPerSec)
	gc.record(r.m)

	r.m["throughput_kpps"] = float64(sr.pkts) / sr.elapsed.Seconds() / 1e3
	r.m["batch_p50_us"] = sr.burstLat.quantileUs(0.50)
	r.m["batch_p99_us"] = sr.burstLat.p99Us()
	s.up0.record(r.m, sr.elapsed)
	r.info["alloc_b_per_pkt"] = float64(sr.loopAllocB) / float64(sr.pkts)
	r.info["samples"] = map[string]int{"bursts": len(sr.burstLat.ns), "updates": s.up0.n,
		"updates_timed": len(s.up0.lat.ns), "dropped": sr.burstLat.dropped}

	if r.traced {
		r.m["traced.throughput_kpps"] = float64(sr.pkts) / (sr.elapsed - time.Duration(sr.replayNs)).Seconds() / 1e3
		s.recordLayers(r.m, sr)
		r.m["core.active_subtables"] = sr.activeSubtables
		r.m["core.lookup_ns_per_pkt"] = float64(sr.shardSumNs) / float64(sr.replayPkts*s.clus.NumShards())
		recordScratch(r.m, s.clus)
		layerProbes(r, s.acl, stream[:traceLen])
	}
	s.check(&r.tally, stream[:sampleLen])
	return nil
}

// switchProbe measures the cluster, flowtable and ingress layers for a
// workload that does not drive them (churn): a traced pass of probePrefix
// bursts over a switch built from the same seed, so every traced run
// reports every layer. Its checks count toward the run's.
func switchProbe(r *run) error {
	s, installTally, stream, err := setupSwitch(nil, r.seed, true)
	if err != nil {
		return err
	}
	defer s.pipe.Close()
	r.tally.add(installTally)
	s.startChurn(&r.tally, 2*probePrefix/burstsPerUpdate, probePrefix, rulesetSeed+2)
	sr := s.loop(stream, probePrefix, func(time.Time) bool { return true }, probePrefix+burstsPerUpdate)
	s.recordLayers(r.m, sr)
	s.check(&r.tally, stream[:sampleLen])
	return nil
}
