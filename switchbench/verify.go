package main

import (
	"errors"
	"fmt"
	"slices"

	"catcam/internal/core"
	"catcam/internal/flightrec"
	"catcam/internal/rules"
	"catcam/internal/swclass"
)

// decision is one classified packet: the reported action, and whether
// any rule matched.
type decision struct {
	action int
	ok     bool
}

// tally counts what a run attempted and what failed. A refused update
// (core.ErrFull) is a failed operation; a decision that disagrees with
// the reference, any other update error, a broken invariant or an
// audit violation also makes the run incorrect.
type tally struct {
	attempted  int64
	failed     int64
	mismatches int64
	problems   []string
}

const maxProblems = 8

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// update accounts one attempted rule update.
func (t *tally) update(ruleID int, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if !errors.Is(err, core.ErrFull) {
		t.problem("update of rule %d: %v", ruleID, err)
	}
}

// decisions checks got[i] against want(hs[i]) for every sampled header.
func (t *tally) decisions(what string, hs []rules.Header, got []decision, want func(rules.Header) decision) {
	for i, h := range hs {
		t.attempted++
		if w := want(h); got[i] != w {
			t.failed++
			t.mismatches++
			t.problem("%s: header %+v decided %+v, reference %+v", what, h, got[i], w)
		}
	}
}

func (t *tally) invariant(what string, err error) {
	if err != nil {
		t.problem("%s invariant: %v", what, err)
	}
}

func (t *tally) audit(what string, info flightrec.SweepInfo) {
	if info.Checks == 0 || info.Violations > 0 {
		t.problem("%s audit: %d violations in %d checks", what, info.Violations, info.Checks)
	}
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	for _, p := range o.problems {
		t.problem("%s", p)
	}
}

func (t *tally) correct() bool { return t.mismatches == 0 && len(t.problems) == 0 }

// failedRatio is failed over attempted: refused updates plus decisions
// that disagree with the reference, over updates attempted plus
// decisions verified.
func (t *tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// linearRef is the independent reference: a linear scan over the rules
// the benchmark believes are installed.
func linearRef(live map[int]rules.Rule) func(rules.Header) decision {
	l := swclass.NewLinear()
	for _, r := range live {
		// IDs are map keys, so Insert cannot see a duplicate.
		_ = l.Insert(r)
	}
	return func(h rules.Header) decision {
		a, ok, _ := l.Lookup(h)
		if !ok {
			return decision{}
		}
		return decision{action: a, ok: true}
	}
}

func deviceDecisions(res []core.LookupResult) []decision {
	out := make([]decision, len(res))
	for i, r := range res {
		if r.OK {
			out[i] = decision{action: r.Entry.Action, ok: true}
		}
	}
	return out
}

// checkDevice verifies a decision sample, the structural invariants
// and a full audit sweep of one device.
func checkDevice(t *tally, dev *core.Device, live map[int]rules.Rule, sample []rules.Header) {
	got := deviceDecisions(dev.LookupHeaderBatch(sample, nil))
	t.decisions("device", sample, got, linearRef(live))
	t.invariant("device", dev.CheckInvariant())
	dev.AttachAuditor(flightrec.NewAuditor(nil, nil, 0, nil))
	t.audit("device", dev.AuditSweep())
}

// sortedRules lists a live set in ID order, so anything derived from
// it is independent of map iteration order.
func sortedRules(live map[int]rules.Rule) []rules.Rule {
	out := make([]rules.Rule, 0, len(live))
	for _, r := range live {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b rules.Rule) int { return a.ID - b.ID })
	return out
}
