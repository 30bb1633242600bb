package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/flightrec"
	"catcam/internal/rules"
	"catcam/internal/swclass"
	"catcam/internal/ternary"
)

// The batch core is the only lookup core: the legacy locked oracle
// (lookupLocked) runs the same knock-out kernel over the live arrays,
// so it no longer checks the kernel independently. These tests pin
// every classify entry point against swclass.Linear — an independent
// software classifier — instead.

// batchSizes are the tile shapes the differential runs, in order: each
// size grows the pooled scratch past every earlier one, and the last
// spans several tiles.
var batchSizes = []int{1, 3, 17, 64, 3*batchTile + 5}

// unusedProto is a protocol number the churn rules match exactly and
// the probe traffic never carries, so churning them changes the
// device's layout without changing any probe's answer.
const unusedProto = 253

// linearDevice loads a ruleset into a fresh device and the reference
// classifier, and returns a packet trace over it without unusedProto.
func linearDevice(t *testing.T, fam classbench.Family, size int, cfg Config) (*Device, *swclass.Linear, []rules.Header) {
	t.Helper()
	rs := classbench.Generate(classbench.Config{Family: fam, Size: size, Seed: 17})
	d := NewDevice(cfg)
	ref := swclass.NewLinear()
	for _, r := range rs.Rules {
		r.Action = r.ID // a decision names its winning rule
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("load: %v", err)
		}
		if err := ref.Insert(r); err != nil {
			t.Fatalf("reference load: %v", err)
		}
	}
	var hs []rules.Header
	for _, h := range classbench.PacketTrace(rs, 600, 0.8, 18) {
		if h.Proto != unusedProto {
			hs = append(hs, h)
		}
	}
	return d, ref, hs
}

// checkAgainst compares one batch of results with the reference.
func checkAgainst(t *testing.T, what string, ref *swclass.Linear, hs []rules.Header, got []LookupResult) {
	t.Helper()
	if len(got) != len(hs) {
		t.Errorf("%s: %d results for %d headers", what, len(got), len(hs))
		return
	}
	for i, h := range hs {
		want, ok, _ := ref.Lookup(h)
		if got[i].OK != ok || (ok && got[i].Entry.Action != want) {
			t.Errorf("%s header %d (%+v): got %d/%v, reference %d/%v",
				what, i, h, got[i].Entry.Action, got[i].OK, want, ok)
			return
		}
	}
}

// classifyAll runs hs through every classify entry point in batches of
// size and checks each answer against the reference.
func classifyAll(t *testing.T, d *Device, ref *swclass.Linear, hs []rules.Header, size int) {
	t.Helper()
	var res []LookupResult
	keys := make([]ternary.Key, 0, size)
	for lo := 0; lo < len(hs); lo += size {
		batch := hs[lo:min(lo+size, len(hs))]
		res = d.LookupHeaderBatch(batch, res[:0])
		checkAgainst(t, "LookupHeaderBatch", ref, batch, res)

		keys = keys[:0]
		for _, h := range batch {
			keys = append(keys, rules.EncodeHeader(h))
		}
		res = d.LookupBatch(keys, res[:0])
		checkAgainst(t, "LookupBatch", ref, batch, res)

		res = res[:0]
		for _, k := range keys {
			e, ok := d.LookupKey(k)
			res = append(res, LookupResult{Entry: e, OK: ok})
		}
		checkAgainst(t, "LookupKey", ref, batch, res)

		res = res[:0]
		for _, h := range batch {
			action, ok := d.Lookup(h)
			res = append(res, LookupResult{Entry: Entry{Action: action}, OK: ok})
		}
		checkAgainst(t, "Lookup", ref, batch, res)
	}
}

func TestBatchCoreMatchesLinear(t *testing.T) {
	for _, tc := range []struct {
		name string
		fam  classbench.Family
		size int
		cfg  Config
	}{
		// 256-entry subtables run kernel4, 64-entry ones kernelN.
		{"FW/kernel4", classbench.FW, 300, Config{Subtables: 32, SubtableCapacity: 256, KeyWidth: 160}},
		{"ACL/kernelN", classbench.ACL, 300, Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, ref, hs := linearDevice(t, tc.fam, tc.size, tc.cfg)
			for _, size := range batchSizes {
				classifyAll(t, d, ref, hs, size)
			}
		})
	}
}

// TestBatchCoreMatchesLinearUnderChurn runs the differential while a
// writer inserts and deletes rules no probe can match (exact
// unusedProto), at high priority so they displace and reallocate live
// entries: every batch sees a different epoch, and every answer must
// still be the reference's.
func TestBatchCoreMatchesLinearUnderChurn(t *testing.T) {
	d, ref, hs := linearDevice(t, classbench.FW, 300,
		Config{Subtables: 32, SubtableCapacity: 256, KeyWidth: 160})
	churn := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 40, Seed: 19})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; !stop.Load(); iter++ {
			for i, r := range churn.Rules {
				r.ID = 1<<20 + i
				r.Priority = 60000 + (i+iter)%5000
				r.Proto, r.ProtoWildcard = unusedProto, false
				if _, err := d.InsertRule(r); err != nil {
					t.Errorf("churn insert: %v", err)
					return
				}
			}
			for i := range churn.Rules {
				if _, err := d.DeleteRule(1<<20 + i); err != nil {
					t.Errorf("churn delete: %v", err)
					return
				}
			}
		}
	}()
	epoch0 := d.Epoch()
	for round := 0; round < 3; round++ {
		for _, size := range batchSizes {
			classifyAll(t, d, ref, hs, size)
		}
	}
	stop.Store(true)
	wg.Wait()
	if d.Epoch() == epoch0 {
		t.Fatal("writer published no epoch while the readers ran")
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// faultyGlobal builds the TestAuditorDetectsCorruptedGlobalMatrix
// device: four "1***" entries over two 2-entry subtables, so every
// key starting with 1 matches both subtables and the global matrix
// alone picks the upper one.
func faultyGlobal(t *testing.T) (*Device, *flightrec.Auditor, int, int) {
	t.Helper()
	d, _, aud, _ := instrumented(Config{Subtables: 4, SubtableCapacity: 2, KeyWidth: 160})
	w := ternary.MustParse("1***")
	for i := 0; i < 4; i++ {
		if _, err := d.InsertWord(w, i, i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.order) != 2 {
		t.Fatalf("expected 2 active subtables, got %d", len(d.order))
	}
	return d, aud, d.order[1], d.order[0]
}

// faultKeys is a batch mixing keys that match both subtables with
// keys that match nothing.
func faultKeys() []ternary.Key {
	var keys []ternary.Key
	for i := 0; i < 21; i++ {
		if i%3 == 2 {
			keys = append(keys, ternary.MustParseKey("0110"))
		} else {
			keys = append(keys, ternary.MustParseKey("1010"))
		}
	}
	return keys
}

// TestBatchCoreGlobalFaultFallback clears the global matrix's dominance
// bit so every matching key's global report carries both subtables:
// each one must still be answered from the metadata cache (the highest
// matched interval, action 103) and file one report_one_hot violation,
// through the batch entry points as well as the single-key ones.
func TestBatchCoreGlobalFaultFallback(t *testing.T) {
	d, aud, top, bottom := faultyGlobal(t)
	row := d.global.ReadRow(top)
	row.Clear(bottom)
	d.global.WriteRow(top, row)
	republish(d)

	keys := faultKeys()
	hits := 0
	for i, r := range d.LookupBatch(keys, nil) {
		if i%3 == 2 {
			if r.OK {
				t.Fatalf("key %d: miss key answered %+v", i, r.Entry)
			}
			continue
		}
		hits++
		if !r.OK || r.Entry.Action != 103 {
			t.Fatalf("key %d: fallback answer %+v/%v, want action 103", i, r.Entry, r.OK)
		}
	}
	if got := aud.ViolationCount(flightrec.InvReportOneHot); got != uint64(hits) {
		t.Fatalf("%d report_one_hot violations for %d non-one-hot lookups", got, hits)
	}
	if e, ok := d.LookupKey(keys[0]); !ok || e.Action != 103 {
		t.Fatalf("single-key fallback answer %+v/%v, want action 103", e, ok)
	}
}

// TestBatchCoreGlobalFaultMisroute corrupts the global matrix the other
// way: the report stays one-hot but names the lower subtable. The core
// must decide in the subtable the matrix named (searching it again for
// that key, since it kept only the highest interval's vector), the
// inline audit must flag the winner disagreement, and the repeat search
// must not reach the modeled search count.
func TestBatchCoreGlobalFaultMisroute(t *testing.T) {
	d, aud, top, bottom := faultyGlobal(t)
	row := d.global.ReadRow(top)
	row.Clear(bottom)
	d.global.WriteRow(top, row)
	row = d.global.ReadRow(bottom)
	row.Set(top)
	d.global.WriteRow(bottom, row)
	republish(d)
	d.ResetArrayStats()

	keys := faultKeys()
	hits := 0
	for i, r := range d.LookupBatch(keys, nil) {
		if i%3 == 2 {
			continue
		}
		hits++
		if !r.OK || r.Entry.Action != 101 {
			t.Fatalf("key %d: answer %+v/%v, want the lower subtable's best (action 101)", i, r.Entry, r.OK)
		}
	}
	if got := aud.ViolationCount(flightrec.InvWinnerAgreement); got != uint64(hits) {
		t.Fatalf("%d winner_agreement violations for %d misrouted lookups", got, hits)
	}
	if got := aud.ViolationCount(flightrec.InvReportOneHot); got != 0 {
		t.Fatalf("one-hot misroute filed %d report_one_hot violations", got)
	}
	match, _, _ := d.ArrayStats()
	if want := uint64(len(keys) * len(d.order)); match.Searches != want {
		t.Fatalf("modeled searches %d, want %d (keys x active subtables)", match.Searches, want)
	}
}

// TestBatchCoreAccountingMatchesLegacy pins that the batch core changes
// host speed only: over one packet trace its modeled lookup cycles,
// searches and NOR operations equal those of the per-key locked path,
// and energy differs at most by float summation order.
func TestBatchCoreAccountingMatchesLegacy(t *testing.T) {
	d, _, hs := linearDevice(t, classbench.FW, 300,
		Config{Subtables: 32, SubtableCapacity: 256, KeyWidth: 160})

	d.ResetStats()
	d.ResetArrayStats()
	for lo := 0; lo < len(hs); lo += 17 {
		d.LookupHeaderBatch(hs[lo:min(lo+17, len(hs))], nil)
	}
	bm, bp, bg := d.ArrayStats()
	bs := d.Stats()

	d.ResetStats()
	d.ResetArrayStats()
	for _, h := range hs {
		d.lookupHeaderLegacy(h)
	}
	lm, lp, lg := d.ArrayStats()
	ls := d.Stats()

	if bs.Lookups != ls.Lookups || bs.LookupCycles != ls.LookupCycles {
		t.Errorf("lookups/cycles: batch %d/%d, per-key %d/%d", bs.Lookups, bs.LookupCycles, ls.Lookups, ls.LookupCycles)
	}
	for _, c := range []struct {
		name        string
		batch, legs [3]uint64
		be, le      float64
	}{
		{"match", [3]uint64{bm.Cycles, bm.Searches, bm.NOROps}, [3]uint64{lm.Cycles, lm.Searches, lm.NOROps}, bm.EnergyFJ, lm.EnergyFJ},
		{"prio", [3]uint64{bp.Cycles, bp.Searches, bp.NOROps}, [3]uint64{lp.Cycles, lp.Searches, lp.NOROps}, bp.EnergyFJ, lp.EnergyFJ},
		{"global", [3]uint64{bg.Cycles, bg.Searches, bg.NOROps}, [3]uint64{lg.Cycles, lg.Searches, lg.NOROps}, bg.EnergyFJ, lg.EnergyFJ},
	} {
		if c.batch != c.legs {
			t.Errorf("%s cycles/searches/NORs: batch %v, per-key %v", c.name, c.batch, c.legs)
		}
		if math.Abs(c.be-c.le) > 1e-9*math.Abs(c.le) {
			t.Errorf("%s energy: batch %g, per-key %g", c.name, c.be, c.le)
		}
	}
	if bm.Searches == 0 || bp.NOROps == 0 || bg.NOROps == 0 {
		t.Fatalf("trace exercised nothing: match %+v prio %+v global %+v", bm, bp, bg)
	}
}
