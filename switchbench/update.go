package main

import (
	"time"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/rules"
)

// segmentLen is how many updates one generated trace segment holds.
const segmentLen = 1 << 14

// updateStream yields rule updates: first a fixed list (an install),
// then, once startTrace is called, an endless ClassBench update
// trace in the paper's §VII style — half inserts, half deletes, fresh
// priorities — generated in segments from the rules live at each
// segment boundary. It owns the benchmark's record of which rules are
// installed, which is what the reference classifier is built from.
type updateStream struct {
	seg   []classbench.Update
	pos   int
	trace bool
	seed  int64
	segs  int64
	live  map[int]rules.Rule
}

// installStream inserts every rule once.
func installStream(rs []rules.Rule) *updateStream {
	s := &updateStream{live: make(map[int]rules.Rule, 2*len(rs))}
	for _, r := range rs {
		s.seg = append(s.seg, classbench.Update{Op: classbench.OpInsert, Rule: r})
	}
	return s
}

// startTrace switches the stream to the endless update trace, generating
// its first segment now so that no timed phase starts with it.
func (s *updateStream) startTrace(seed int64) {
	s.trace, s.seed = true, seed
	s.refill()
}

// refill generates the next segment. A trace deletes only while it has
// nothing to reinsert, so its table shrinks by about the square root of
// its length; chaining whole traces would empty the table. Each segment
// is therefore cut after the last update at which it has reinserted as
// many rules as it deleted, and every segment starts from a table of the
// size the first one did.
func (s *updateStream) refill() {
	base := &rules.Ruleset{Rules: sortedRules(s.live)}
	for {
		trace := classbench.UpdateTraceFresh(base, segmentLen, s.seed<<16+s.segs)
		s.segs++
		n, pending := 0, 0
		for i, u := range trace {
			if u.Op == classbench.OpDelete {
				pending++
			} else {
				pending--
			}
			if pending == 0 {
				n = i + 1
			}
		}
		if n > 0 {
			s.seg, s.pos = trace[:n], 0
			return
		}
	}
}

func (s *updateStream) next() classbench.Update {
	for {
		if s.pos == len(s.seg) && s.trace {
			s.refill()
		}
		u := s.seg[s.pos]
		s.pos++
		if u.Op == classbench.OpDelete {
			if _, ok := s.live[u.Rule.ID]; !ok {
				continue // refused when inserted, and counted then
			}
		} else {
			// The action names the rule, so a decision identifies the winner.
			u.Rule.Action = u.Rule.ID
		}
		return u
	}
}

func (s *updateStream) applied(u classbench.Update, err error) {
	switch {
	case err != nil:
	case u.Op == classbench.OpInsert:
		s.live[u.Rule.ID] = u.Rule
	default:
		delete(s.live, u.Rule.ID)
	}
}

// updater applies an update stream through one entry point, timing
// every call on the CPU clock of the calling thread (which must be
// locked to it) and measuring its allocation. The first `prefix` updates
// are bracketed by counter snapshots, so the modeled and count metrics
// cover a fixed prefix of the trace, not whatever a timed window
// reaches.
type updater struct {
	stream *updateStream
	apply  func(classbench.Update) error
	target updateTarget
	tally  *tally
	am     *allocMeter

	lat      samples
	isInsert []bool // per latency sample
	n        int
	allocB   uint64 // allocated inside every update call so far

	prefix int
	st     core.Structure
	a, b   updateCounts
	totals prefixTotals
}

func newUpdater(stream *updateStream, target updateTarget, apply func(classbench.Update) error,
	t *tally, capacity, prefix int) *updater {
	u := &updater{
		stream: stream, apply: apply, target: target, tally: t, am: newAllocMeter(),
		lat: newSamples(capacity), isInsert: make([]bool, 0, capacity), prefix: prefix,
	}
	u.a = snapshotUpdates(target, &u.st)
	return u
}

func (u *updater) step() {
	up := u.stream.next()
	b0, n0 := u.am.read()
	c0 := threadCPU()
	err := u.apply(up)
	d := threadCPU() - c0
	b1, n1 := u.am.read()
	u.allocB += b1 - b0
	u.tally.update(up.Rule.ID, err)
	u.stream.applied(up, err)
	insert := up.Op == classbench.OpInsert
	if len(u.lat.ns) < cap(u.lat.ns) {
		u.isInsert = append(u.isInsert, insert)
	}
	u.lat.add(d)
	u.n++
	if u.n > u.prefix {
		return
	}
	p := &u.totals
	p.ops++
	p.hostNs += int64(d)
	p.allocB += b1 - b0
	p.allocN += n1 - n0
	if insert {
		p.inserts++
		p.entries += up.Rule.ExpansionCount()
	}
	if u.n == u.prefix {
		u.b = snapshotUpdates(u.target, &u.st)
	}
}

// prefixDone reports whether the counted prefix has been applied.
func (u *updater) prefixDone() bool { return u.n >= u.prefix }

// opQuantileUs is the q-quantile of the insert (or delete) latencies.
func (u *updater) opQuantileUs(insert bool, q float64) float64 {
	s := newSamples(len(u.lat.ns))
	for i, ns := range u.lat.ns {
		if u.isInsert[i] == insert {
			s.ns = append(s.ns, ns)
		}
	}
	return s.quantileUs(q)
}

// record stores the update metrics of the run: latency quantiles over
// every update, rate over the given time, and the prefix counts.
func (u *updater) record(m map[string]float64, elapsed time.Duration) {
	m["update_ops_s"] = float64(u.n) / elapsed.Seconds()
	m["update_p50_us"] = u.lat.quantileUs(0.50)
	m["update_p99_us"] = u.lat.p99Us()
	m["core.insert_us_p50"] = u.opQuantileUs(true, 0.50)
	m["core.delete_us_p50"] = u.opQuantileUs(false, 0.50)
	recordUpdates(m, u.a, u.b, u.totals)
}

// deviceApply applies updates to one device.
func deviceApply(dev *core.Device) func(classbench.Update) error {
	return func(u classbench.Update) error {
		var err error
		if u.Op == classbench.OpInsert {
			_, err = dev.InsertRule(u.Rule)
		} else {
			_, err = dev.DeleteRule(u.Rule.ID)
		}
		return err
	}
}
