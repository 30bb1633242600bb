package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"catcam/internal/rules"
	"catcam/internal/swclass"
)

// TestLocatorChurn drives a 4×4 device (16 slots) near full with
// multi-entry rules, so every path that moves a locator record runs:
// direct inserts, evicting inserts, fresh-subtable assignment, ErrFull
// with a multi-entry rollback, ModifyRule, and deleting a rule whose
// entries were evicted since insertion and now span subtables. After
// every operation the invariant (locator ↔ slots in both directions,
// entry counter), Len() and every decision on a fixed header set must
// agree with the swclass.Linear reference.
func TestLocatorChurn(t *testing.T) {
	d := NewDevice(Config{Subtables: 4, SubtableCapacity: 4, KeyWidth: 160, FrequencyMHz: 500})
	ref := swclass.NewLinear()
	rng := rand.New(rand.NewSource(7))

	// Rules live in 10.0.0.0/8 with destination-port ranges inside
	// [0,15], which expand to 1-6 entries each; headers draw from the
	// same space so most of them match something.
	newRule := func(id int) rules.Rule {
		lo := uint16(rng.Intn(16))
		hi := lo + uint16(rng.Intn(16-int(lo)))
		return rules.Rule{
			ID: id, Priority: 1 + rng.Intn(40), Action: id,
			SrcIP:   rules.Prefix{Addr: 0x0A000000 | uint32(rng.Intn(4))<<22, Len: 8 + 2*rng.Intn(2)}.Canonical(),
			SrcPort: rules.FullPortRange(), DstPort: rules.PortRange{Lo: lo, Hi: hi},
			ProtoWildcard: true,
		}
	}
	hs := make([]rules.Header, 96)
	for i := range hs {
		hs[i] = rules.Header{SrcIP: 0x0A000000 | uint32(rng.Intn(1<<24)), DstPort: uint16(rng.Intn(18)), Proto: 6}
	}

	live := map[int]rules.Rule{}
	// home records the subtable each entry of a live rule landed in at
	// insertion, in seq order, so a later delete can tell whether its
	// entries were evicted since.
	home := map[int][]int{}
	recordHome := func(id int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		home[id] = home[id][:0]
		for _, l := range d.locator[id] {
			home[id] = append(home[id], l.st)
		}
	}
	// movedAcross reports whether rule id has an entry outside the
	// subtable it was written to and its entries span subtables.
	movedAcross := func(id int) bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		moved, sts := false, map[int]bool{}
		for i, l := range d.locator[id] {
			moved = moved || l.st != home[id][i]
			sts[l.st] = true
		}
		return moved && len(sts) > 1
	}
	check := func(op string) {
		t.Helper()
		if err := d.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		want := 0
		for _, r := range live {
			want += r.ExpansionCount()
		}
		if d.Len() != want {
			t.Fatalf("%s: Len() = %d, want %d", op, d.Len(), want)
		}
		got := d.LookupHeaderBatch(hs, nil)
		checkAgainst(t, op, ref, hs, got)
		if t.Failed() {
			t.FailNow()
		}
	}
	pick := func() int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids) // map order is random; sort for a reproducible pick
		return ids[rng.Intn(len(ids))]
	}

	var direct, evicting, fresh, rollback, modified, evictedDelete int
	nextID := 0
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0:
			r := newRule(nextID)
			nextID++
			before := d.Stats().Deletes
			res, err := d.InsertRule(r)
			switch {
			case errors.Is(err, ErrFull):
				if d.Stats().Deletes > before && r.ExpansionCount() > 1 {
					rollback++
				}
			case err != nil:
				t.Fatalf("insert %d: %v", r.ID, err)
			default:
				live[r.ID] = r
				if err := ref.Insert(r); err != nil {
					t.Fatal(err)
				}
				recordHome(r.ID)
				if res.Reallocated > 0 {
					evicting++
				} else {
					direct++
				}
				if res.FreshTables > 0 {
					fresh++
				}
			}
			check("insert")
		case op < 8:
			id := pick()
			if movedAcross(id) {
				evictedDelete++
			}
			if _, err := d.DeleteRule(id); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			delete(live, id)
			delete(home, id)
			if err := ref.Delete(id); err != nil {
				t.Fatal(err)
			}
			check("delete")
		default:
			id := pick()
			r := newRule(id)
			_, err := d.ModifyRule(id, r)
			// The old version is gone either way; a refused new
			// version leaves the rule absent.
			delete(live, id)
			delete(home, id)
			if err := ref.Delete(id); err != nil {
				t.Fatal(err)
			}
			switch {
			case errors.Is(err, ErrFull):
			case err != nil:
				t.Fatalf("modify %d: %v", id, err)
			default:
				modified++
				live[id] = r
				if err := ref.Insert(r); err != nil {
					t.Fatal(err)
				}
				recordHome(id)
			}
			check("modify")
		}
	}
	if _, err := d.DeleteRule(nextID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleting an unknown rule: %v", err)
	}
	t.Logf("direct %d, evicting %d, fresh %d, rollbacks %d, modifies %d, evicted-entry deletes %d",
		direct, evicting, fresh, rollback, modified, evictedDelete)
	for name, n := range map[string]int{
		"direct insert": direct, "evicting insert": evicting, "fresh subtable": fresh,
		"multi-entry rollback": rollback, "modify": modified, "delete of an evicted rule": evictedDelete,
	} {
		if n == 0 {
			t.Errorf("the sequence never exercised %s", name)
		}
	}
}
