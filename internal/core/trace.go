package core

import (
	"catcam/internal/rules"
	"catcam/internal/trace"
)

// This file wires the span layer (internal/trace) into the device's
// batched classify path. Unlike the flight recorder — which the device
// holds a long-lived pointer to — the trace context arrives *with the
// request*: LookupHeaderBatchTraced carries one sampled batch's
// *trace.Trace down into the lock-free lookup core as arguments, which
// records one device_lookup span per key plus, for the trace's single
// focus key, one sram_kernel span per active subtable — the
// per-subtable search detail /debug/blame aggregates. A traced batch
// runs the batch core one key at a time, so each key's kernel spans
// nest inside its own device_lookup span. The span layer
// rides the same epoch snapshot as the answer it annotates, so a trace
// can never mix state from two epochs.
//
// An untraced call (nil trace, the overwhelmingly common case) takes
// the exact code path of LookupHeaderBatch with one extra nil test;
// lookup_test.go's AllocsPerRun guard covers the traced-entry-point-
// with-nil-trace path staying allocation-free.

// SetTraceShard sets the cluster shard ID carried on spans this device
// emits (-1, the default, for a standalone device). The cluster calls
// this once per shard at construction. Republishes the snapshot so
// in-flight readers keep their old shard ID and new readers see the
// new one.
func (d *Device) SetTraceShard(shard int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trShard = shard
	d.publishLocked()
}

// LookupHeaderBatchTraced is LookupHeaderBatch recording spans for one
// sampled batch into tr. Per key it emits a device_lookup span carrying
// the winning subtable and the modeled cycle cost; for the batch's
// focus key (tr.Focus(), default key 0) the lookup core additionally
// emits one sram_kernel span per active subtable searched. A nil tr
// degrades to the untraced path. Lock-free like every classify entry
// point.
//
//catcam:hotpath
func (d *Device) LookupHeaderBatchTraced(tr *trace.Trace, hs []rules.Header, dst []LookupResult) []LookupResult {
	if tr == nil {
		return d.LookupHeaderBatch(hs, dst)
	}
	s := d.snap.Load()
	sc := d.getScratch()
	focus := tr.Focus()
	sc.stage(1, s.cfg.KeyWidth)
	for i, h := range hs {
		start := trace.Nanos()
		cyc0 := sc.lookupCycles
		rules.EncodeHeaderInto(&sc.encKey, h)
		s.stageKey(sc, 0, sc.encKey)
		s.lookupBatch(sc, 1, tr, i, i == focus)
		sub := sc.res[0].sub
		e, ok := s.entry(sc.res[0])
		//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
		tr.Span(trace.StageDeviceLookup, s.frTable, s.trShard, sub, i, start, sc.lookupCycles-cyc0)
		if s.shadow.Sample() {
			s.shadow.ObserveEpoch(h, e.Action, ok, s.epoch) //catcam:allow alloc "sampled shadow re-classification; rate-gated off the steady-state path"
		}
		dst = append(dst, LookupResult{Entry: e, OK: ok})
	}
	d.putScratch(sc, s)
	return dst
}
