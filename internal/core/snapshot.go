package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"catcam/internal/bitvec"
	"catcam/internal/flightrec"
	"catcam/internal/rules"
	"catcam/internal/sram"
	"catcam/internal/ternary"
	tracepkg "catcam/internal/trace"
)

// This file implements the epoch-published read snapshot: the lock-free
// classify path.
//
// The scheme is RCU-shaped. Updates — which already serialize on d.mu —
// mutate the live arrays as before, then build an immutable snapshot of
// everything a lookup reads (knock-out match tables, per-subtable
// priority rows and rank metadata, the global relation matrix, the
// interval order) and publish it with a single d.snap.Store. Lookups
// load the pointer once and traverse the frozen structure with no lock
// acquisition; a loaded snapshot stays reachable for as long as any
// reader holds it, so the Go runtime's garbage collector is the grace
// period — a retired epoch is reclaimed exactly when its last reader
// drops it, with no hazard-pointer bookkeeping.
//
// Publication is copy-on-write at subtable granularity: an update marks
// the subtables it touched dirty (d.dirty) and publishLocked
// re-materializes only those views, sharing every untouched view by
// reference with the previous epoch — so an O(1) CATCAM insert pays an
// O(subtable) republish, never an O(table) rebuild. Device-level
// metadata (order, maxOf) is O(subtables) small and copied every
// publish; the global relation matrix is copied only when an
// assignment/release changed it (d.globalDirty).
//
// Torn reads are impossible by construction: every slice inside a view
// is copied out of the live arrays under d.mu (sram.SnapshotView), the
// snapshot becomes reachable to readers only via the atomic Store
// (which orders all those writes before the pointer publication), and
// nothing ever writes a published snapshot again — the lint suite's
// //catcam:immutable and //catcam:write-guarded-by annotations prove
// both halves at compile time.

// subtableView is the immutable per-subtable read state: the frozen
// match and priority arrays plus the rank/action metadata the reporter
// reads. Fields are written only at construction.
//
//catcam:snapshot
type subtableView struct {
	id      int
	match   *sram.TernaryView //catcam:immutable
	prio    *sram.MatrixView  //catcam:immutable
	ranks   []Rank            //catcam:immutable
	actions []int             //catcam:immutable

	// Write-pressure stamps: the live arrays' cumulative write counters
	// at view-construction time. Array writes happen only under d.mu and
	// mark the subtable dirty, so a pointer-shared clean view always
	// carries the subtable's current write totals — the state
	// observatory reads P-matrix row/column pressure from the published
	// epoch without ever touching the device mutex.
	matchRowWrites uint64 //catcam:immutable
	prioRowWrites  uint64 //catcam:immutable
	prioColWrites  uint64 //catcam:immutable
}

// snapshotView freezes the subtable's current read state. Caller holds
// d.mu.
func (st *Subtable) snapshotView() *subtableView {
	match, prio := st.Stats()
	return &subtableView{
		id:             st.id,
		match:          st.match.SnapshotView(),
		prio:           st.prio.SnapshotView(),
		ranks:          append([]Rank(nil), st.store.ranks...),
		actions:        append([]int(nil), st.actions...),
		matchRowWrites: match.RowWrites,
		prioRowWrites:  prio.RowWrites,
		prioColWrites:  prio.ColWrites,
	}
}

// decide is Subtable.Decide over the frozen priority rows, with the
// report vector and statistics living in caller scratch.
func (sv *subtableView) decide(report, matchVec *bitvec.Vector, st *sram.Stats, aud *flightrec.Auditor) int {
	if !matchVec.Any() {
		return -1
	}
	rep := sv.prio.ColumnNORInto(report, matchVec, st)
	if rep.IsOneHot() {
		return rep.First()
	}
	if aud == nil {
		panic(fmt.Sprintf("core: subtable %d report vector not one-hot: %s", sv.id, rep))
	}
	//catcam:allow alloc "fail-report path for a broken hardware guarantee, never taken at steady state"
	aud.Fail(flightrec.Violation{
		Invariant: flightrec.InvReportOneHot, Table: -1, Subtable: sv.id, RuleID: -1,
		Detail: fmt.Sprintf("local report %s has %d bits set", rep, rep.Count()),
	})
	return sv.bestMatched(matchVec)
}

// bestMatched is Subtable.bestMatched over the frozen ranks: the
// matched slot with the highest stored rank. Audit/fallback path only.
//
//catcam:allow alloc "audit/fallback path; the ForEach closure is off the steady-state decision"
func (sv *subtableView) bestMatched(matchVec *bitvec.Vector) int {
	best := -1
	var bestRank Rank
	matchVec.ForEach(func(i int) bool {
		r := sv.ranks[i]
		if best < 0 || bestRank.Less(r) {
			best, bestRank = i, r
		}
		return true
	})
	return best
}

// snapshot is one published epoch: everything the lock-free classify
// path reads, frozen. Readers obtain it with d.snap.Load and must
// treat every field as immutable.
//
//catcam:snapshot
type snapshot struct {
	epoch uint64
	cfg   Config
	// order and maxOf are the interval sequence at publish time.
	order []int  //catcam:immutable
	maxOf []Rank //catcam:immutable
	// subs is indexed by subtable ID; nil for inactive subtables. Clean
	// entries are shared by reference with the previous epoch.
	subs   []*subtableView  //catcam:immutable
	global *sram.MatrixView //catcam:immutable
	count  int              // stored entries (len of the locator map)

	// Global-matrix write-pressure stamps at publish time (the matrix's
	// own counters are mutated only under d.mu, so they ride the epoch
	// for lock-free structural derivation).
	globalRowWrites uint64 //catcam:immutable
	globalColWrites uint64 //catcam:immutable

	// Instruments ride the snapshot so readers never touch mutable
	// device fields; all nil-safe, internally synchronized.
	aud     *flightrec.Auditor //catcam:allow epoch "internally synchronized instrument, not classify-read state"
	shadow  *flightrec.Shadow  //catcam:allow epoch "internally synchronized instrument, not classify-read state"
	tel     *deviceTelemetry   //catcam:allow epoch "internally synchronized instrument, not classify-read state"
	frTable int
	trShard int
}

// publishLocked builds the next epoch from the live state and the
// previous snapshot's clean views, publishes it, and re-stamps the
// shadow. Caller holds d.mu; this is the only place d.snap is stored.
func (d *Device) publishLocked() {
	old := d.snap.Load()
	s := &snapshot{
		cfg:     d.cfg,
		order:   append([]int(nil), d.order...),
		maxOf:   append([]Rank(nil), d.maxOf...),
		subs:    make([]*subtableView, len(d.subs)),
		count:   d.entries,
		aud:     d.aud,
		shadow:  d.shadow,
		tel:     d.tel,
		frTable: d.frTable,
		trShard: d.trShard,
	}
	if old != nil {
		s.epoch = old.epoch + 1
	}
	// The assignments below are the construction phase: s is private to
	// this goroutine until the atomic Store publishes it, so filling in
	// the immutable fields here is the composite literal continued.
	for _, id := range d.order {
		if old != nil && !d.dirty[id] && old.subs[id] != nil {
			s.subs[id] = old.subs[id] //catcam:allow immutable "snapshot under construction; unpublished until the final Store"
			d.churn.viewsShared.Add(1)
			continue
		}
		s.subs[id] = d.subs[id].snapshotView() //catcam:allow immutable "snapshot under construction; unpublished until the final Store"
		d.churn.viewsRebuilt.Add(1)
	}
	if old != nil && !d.globalDirty {
		s.global = old.global //catcam:allow immutable "snapshot under construction; unpublished until the final Store"
	} else {
		s.global = d.global.SnapshotView() //catcam:allow immutable "snapshot under construction; unpublished until the final Store"
		d.churn.globalRebuilds.Add(1)
	}
	gstats := d.global.Stats()
	s.globalRowWrites = gstats.RowWrites //catcam:allow immutable "snapshot under construction; unpublished until the final Store"
	s.globalColWrites = gstats.ColWrites //catcam:allow immutable "snapshot under construction; unpublished until the final Store"
	for i := range d.dirty {
		d.dirty[i] = false
	}
	d.globalDirty = false
	d.churn.publishes.Add(1)
	if t := d.tel; t != nil {
		t.epochG.Set(int64(s.epoch))
	}
	d.snap.Store(s)
	// Readers holding this epoch may now compare against the shadow
	// reference again (BeginEpoch paused comparisons for the update).
	d.shadow.SetEpoch(s.epoch)
}

// Epoch returns the published epoch counter — one increment per
// publication (every update, attach, and trace-shard change). Serves
// from the snapshot, no lock.
func (d *Device) Epoch() uint64 {
	return d.snap.Load().epoch
}

// readScratch is one goroutine's private lookup working set, pooled in
// d.readPool: the batch core's per-key vectors, the kernel accumulator
// the shared views cannot own, and the batch-local accounting that is
// flushed to device atomics when the scratch is returned.
//
//catcam:scratch
type readScratch struct {
	encKey      ternary.Key    // header-encode buffer (rules.TupleBits wide)
	globalMatch *bitvec.Vector // the deciding key's global match vector
	report      *bitvec.Vector // global priority report
	localMatch  *bitvec.Vector // the winning subtable's match vector
	localReport *bitvec.Vector // winning subtable's report
	acc         []uint64       // knock-out kernel accumulator

	// Per-key state of the current tile, grown on demand up to
	// batchTile keys: the device-wide search keys, each key's global
	// match words, and the match words and ID of the highest-interval
	// subtable that matched it (the metadata winner; -1 on a miss).
	keys     []ternary.Key
	keyGlobs []uint64
	keyLocal []uint64
	keySub   []int
	res      []keyResult

	// Batch-local accounting: accumulated per lookup without
	// synchronization, flushed once per batch (putScratch) into the
	// device's atomic counters so concurrent readers do not contend on
	// a shared cache line per lookup.
	lookups      uint64
	lookupCycles uint64
	match        sram.Stats // all match matrices, aggregated
	prio         sram.Stats // all local priority matrices, aggregated
	global       sram.Stats // the global priority matrix
}

// keyResult is one key's outcome from the batch core: the winning
// subtable and slot, sub -1 on a miss.
type keyResult struct {
	sub, slot int
}

// entry reads the winning entry's metadata out of the snapshot.
func (s *snapshot) entry(r keyResult) (Entry, bool) {
	if r.sub < 0 {
		return Entry{}, false
	}
	sv := s.subs[r.sub]
	return Entry{Rank: sv.ranks[r.slot], Action: sv.actions[r.slot]}, true
}

// batchTile bounds how many keys the batch core searches per walk of
// the subtable order. Longer batches run as consecutive tiles, so a
// pooled scratch never grows past batchTile keys; 64 keys already
// amortize each view's cache fill far below the kernel's own cost.
const batchTile = 64

func (d *Device) newReadScratch() *readScratch {
	d.churn.scratchAllocs.Add(1)
	return &readScratch{
		encKey:      ternary.NewKey(rules.TupleBits),
		globalMatch: bitvec.New(d.cfg.Subtables),
		report:      bitvec.New(d.cfg.Subtables),
		localMatch:  bitvec.New(d.cfg.SubtableCapacity),
		localReport: bitvec.New(d.cfg.SubtableCapacity),
		acc:         make([]uint64, (d.cfg.SubtableCapacity+63)/64),
	}
}

// stage sizes the scratch's per-key state for an n-key tile (n <=
// batchTile), growing it on first use.
//
//catcam:hotpath
func (sc *readScratch) stage(n, keyWidth int) {
	for len(sc.keys) < n {
		sc.keys = append(sc.keys, ternary.NewKey(keyWidth)) //catcam:allow alloc "one-time growth of a pooled scratch up to batchTile keys; steady state reuses it"
		sc.keySub = append(sc.keySub, -1)                   //catcam:allow alloc "one-time growth of a pooled scratch up to batchTile keys; steady state reuses it"
		sc.res = append(sc.res, keyResult{})                //catcam:allow alloc "one-time growth of a pooled scratch up to batchTile keys; steady state reuses it"
	}
	if gw := len(sc.globalMatch.Words()); len(sc.keyGlobs) < n*gw {
		sc.keyGlobs = make([]uint64, n*gw) //catcam:allow alloc "one-time growth of a pooled scratch up to batchTile keys; steady state reuses it"
	}
	if rw := len(sc.acc); len(sc.keyLocal) < n*rw {
		sc.keyLocal = make([]uint64, n*rw) //catcam:allow alloc "one-time growth of a pooled scratch up to batchTile keys; steady state reuses it"
	}
}

// getScratch checks a read scratch out of the pool. The pool's New
// hook allocates on a cold pool; a warmed pool (one prior lookup per
// goroutine) serves every steady-state lookup allocation-free.
//
//catcam:hotpath
func (d *Device) getScratch() *readScratch {
	return d.readPool.Get().(*readScratch) //catcam:allow alloc "sync.Pool checkout; allocates only while the pool is cold"
}

// putScratch flushes the scratch's batch-local accounting into the
// device's atomic counters and the snapshot's telemetry, then returns
// it to the pool.
//
//catcam:hotpath
func (d *Device) putScratch(sc *readScratch, s *snapshot) {
	d.churn.scratchBatches.Add(1)
	d.stats.lookups.Add(sc.lookups)
	d.stats.lookupCycles.Add(sc.lookupCycles)
	if t := s.tel; t != nil {
		t.lookups.Add(sc.lookups)
	}
	d.rdMatch.add(&sc.match)
	d.rdPrio.add(&sc.prio)
	d.rdGlobal.add(&sc.global)
	sc.lookups, sc.lookupCycles = 0, 0
	sc.match, sc.prio, sc.global = sram.Stats{}, sram.Stats{}, sram.Stats{}
	d.readPool.Put(sc) //catcam:allow alloc "sync.Pool return; boxing a pointer does not allocate at steady state"
}

// stageKey loads k, widened with trailing zeros to the device width,
// as key i of the current tile.
//
//catcam:hotpath
func (s *snapshot) stageKey(sc *readScratch, i int, k ternary.Key) {
	if k.Width() > s.cfg.KeyWidth {
		panic(fmt.Sprintf("core: key width %d exceeds device width %d", k.Width(), s.cfg.KeyWidth))
	}
	sc.keys[i].LoadPadded(k)
}

// lookupBatch is the lock-free lookup core: subtable search fan-out,
// global priority decision, local priority decision and metadata
// readout over the frozen snapshot for the n keys staged in sc.keys,
// leaving one keyResult per key in sc.res. It is subtable-major: it
// walks s.order once and searches every key against each view while
// that view's table is hot in cache, keeping per key only the global
// match vector and the local vector of the highest-interval matched
// subtable. The decisions then run key by key.
//
// tr/keyIdx/focus carry the span layer's trace context; tr is nil on
// every untraced lookup, and traced batches call the core one key at a
// time (n == 1), so a focus key's sram_kernel spans nest inside its
// device_lookup span.
//
//catcam:hotpath
func (s *snapshot) lookupBatch(sc *readScratch, n int, tr *tracepkg.Trace, keyIdx int, focus bool) {
	sc.lookups += uint64(n)
	sc.lookupCycles += uint64(n)

	// traceKernel gates the per-subtable sram_kernel spans: only the
	// traced batch's one focus key records them.
	traceKernel := focus && tr != nil

	gw, rw := len(sc.globalMatch.Words()), len(sc.acc)
	globs, locals, subs := sc.keyGlobs[:n*gw], sc.keyLocal[:n*rw], sc.keySub[:n]
	clear(globs)
	for i := range subs {
		subs[i] = -1
	}
	for _, id := range s.order {
		view := s.subs[id].match
		gi, gbit := id/64, uint64(1)<<(id%64)
		for i, k := range sc.keys[:n] {
			var kernelStart uint64
			if traceKernel {
				kernelStart = tracepkg.Nanos()
			}
			hit := view.Match(sc.acc, k, &sc.match)
			if traceKernel {
				//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
				tr.Span(tracepkg.StageSRAMKernel, s.frTable, s.trShard, id, keyIdx, kernelStart, 1)
			}
			if hit {
				globs[i*gw+gi] |= gbit
				copy(locals[i*rw:(i+1)*rw], sc.acc)
				subs[i] = id
			}
		}
	}
	for i := range subs {
		sc.res[i] = s.decideKey(sc, i)
	}
}

// decideKey runs the priority decisions for key i of the tile
// lookupBatch just searched.
//
//catcam:hotpath
func (s *snapshot) decideKey(sc *readScratch, i int) keyResult {
	meta := sc.keySub[i]
	if meta < 0 {
		return keyResult{sub: -1}
	}
	gw, rw := len(sc.globalMatch.Words()), len(sc.acc)
	globalMatch := sc.globalMatch.LoadWords(sc.keyGlobs[i*gw : (i+1)*gw])
	report := s.global.ColumnNORInto(sc.report, globalMatch, &sc.global)
	oneHot := report.IsOneHot()
	winner := meta
	if oneHot {
		winner = report.First()
	} else {
		// The hardware encoding guarantees a one-hot report; a broken
		// guarantee is fail-stop without an auditor, fail-report with
		// one — the violation is recorded and the lookup answered from
		// the metadata cache (the highest matched interval) so traffic
		// keeps flowing.
		if s.aud == nil {
			panic(fmt.Sprintf("core: global report not one-hot: %s", report))
		}
		//catcam:allow alloc "fail-report path for a broken hardware guarantee, never taken at steady state"
		s.aud.Fail(flightrec.Violation{
			Invariant: flightrec.InvReportOneHot, Table: -1, Subtable: -1, RuleID: -1,
			Detail: fmt.Sprintf("global report %s has %d bits set", report, report.Count()),
		})
	}
	sv := s.subs[winner]
	local := sc.localMatch
	if winner == meta {
		local.LoadWords(sc.keyLocal[i*rw : (i+1)*rw])
	} else {
		// The global matrix named a subtable other than the highest
		// matched interval: search it again for this key. The repeat
		// is a host artifact, not a modeled access, so its accounting
		// is discarded.
		var discard sram.Stats
		sv.match.SearchInto(local, sc.acc, sc.keys[i], &discard)
	}
	slot := sv.decide(sc.localReport, local, &sc.prio, s.aud)
	if slot < 0 {
		return keyResult{sub: -1}
	}
	if s.aud.SampleLookup() {
		s.auditLookup(sc, oneHot, winner, slot) //catcam:allow alloc "sampled inline audit; rate-gated off the steady-state path"
	}
	return keyResult{sub: winner, slot: slot}
}

// metadataWinner derives the winning subtable from the snapshot's
// metadata alone: the highest interval with a local match.
func (s *snapshot) metadataWinner(globalMatch *bitvec.Vector) int {
	for i := len(s.order) - 1; i >= 0; i-- {
		if globalMatch.Get(s.order[i]) {
			return s.order[i]
		}
	}
	return -1
}

// auditLookup runs the inline lookup checks for one sampled lock-free
// lookup, against the same epoch the answer came from — the
// snapshot-side counterpart of Device.auditLookup. It reads the key's
// global and winning local match vectors decideKey left in sc.
func (s *snapshot) auditLookup(sc *readScratch, oneHot bool, winner, slot int) {
	if oneHot {
		s.aud.CheckPass(flightrec.InvReportOneHot)
	}
	meta := s.metadataWinner(sc.globalMatch)
	s.aud.Check(flightrec.InvWinnerAgreement, meta == winner, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: winner, RuleID: -1,
			Detail: fmt.Sprintf("global matrix chose subtable %d, metadata walk %d", winner, meta),
		}
	})
	best := s.subs[winner].bestMatched(sc.localMatch)
	s.aud.Check(flightrec.InvWinnerAgreement, best == slot, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: winner, RuleID: -1,
			Detail: fmt.Sprintf("local matrix chose slot %d, stored ranks prefer %d", slot, best),
		}
	})
}

// atomicArrayStats is the device-level accumulator for array activity
// generated on the lock-free path (the live sram arrays' own counters
// are mutated only under d.mu). Only the fields a lookup touches are
// carried: cycles, NOR ops, searches, energy.
type atomicArrayStats struct {
	cycles   atomic.Uint64
	norOps   atomic.Uint64
	searches atomic.Uint64
	// energy is float64 bits, accumulated by CAS.
	energyBits atomic.Uint64
}

// add folds one scratch's batch-local stats in. One atomic add per
// touched field per batch.
//
//catcam:hotpath
func (a *atomicArrayStats) add(s *sram.Stats) {
	if s.Cycles != 0 {
		a.cycles.Add(s.Cycles)
	}
	if s.NOROps != 0 {
		a.norOps.Add(s.NOROps)
	}
	if s.Searches != 0 {
		a.searches.Add(s.Searches)
	}
	if s.EnergyFJ != 0 {
		for {
			old := a.energyBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + s.EnergyFJ)
			if a.energyBits.CompareAndSwap(old, next) {
				break
			}
		}
	}
}

// load returns the accumulated totals as a plain sram.Stats.
func (a *atomicArrayStats) load() sram.Stats {
	return sram.Stats{
		Cycles:   a.cycles.Load(),
		NOROps:   a.norOps.Load(),
		Searches: a.searches.Load(),
		EnergyFJ: math.Float64frombits(a.energyBits.Load()),
	}
}

// reset zeroes the accumulator.
func (a *atomicArrayStats) reset() {
	a.cycles.Store(0)
	a.norOps.Store(0)
	a.searches.Store(0)
	a.energyBits.Store(0)
}

// deviceStats is Stats with every field atomic, so the monitoring
// accessors (Stats) never contend with classify or update traffic.
// Update-side fields are still only written under d.mu; lookup fields
// are flushed from read scratches.
type deviceStats struct {
	lookups        atomic.Uint64
	inserts        atomic.Uint64
	deletes        atomic.Uint64
	reallocations  atomic.Uint64
	directInserts  atomic.Uint64
	reallocInserts atomic.Uint64
	updateCycles   atomic.Uint64
	lookupCycles   atomic.Uint64
	freshSubtables atomic.Uint64
}

// snapshot returns the current totals as the exported Stats shape.
func (s *deviceStats) snapshot() Stats {
	return Stats{
		Lookups:        s.lookups.Load(),
		Inserts:        s.inserts.Load(),
		Deletes:        s.deletes.Load(),
		Reallocations:  s.reallocations.Load(),
		DirectInserts:  s.directInserts.Load(),
		ReallocInserts: s.reallocInserts.Load(),
		UpdateCycles:   s.updateCycles.Load(),
		LookupCycles:   s.lookupCycles.Load(),
		FreshSubtables: s.freshSubtables.Load(),
	}
}

// reset zeroes every counter.
func (s *deviceStats) reset() {
	s.lookups.Store(0)
	s.inserts.Store(0)
	s.deletes.Store(0)
	s.reallocations.Store(0)
	s.directInserts.Store(0)
	s.reallocInserts.Store(0)
	s.updateCycles.Store(0)
	s.lookupCycles.Store(0)
	s.freshSubtables.Store(0)
}

// atomicSub subtracts n from an atomic counter (two's-complement add)
// — the chained-reallocation ablation folds a cascaded insert's
// self-account back out of the device totals.
func atomicSub(c *atomic.Uint64, n uint64) {
	c.Add(^n + 1)
}
