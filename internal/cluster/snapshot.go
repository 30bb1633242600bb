package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"catcam/internal/core"
	"catcam/internal/rules"
)

// Snapshot is a deterministic dump of a whole cluster: the partition
// scheme, the live interval bounds, the shard geometry and each
// shard's rules sorted by ID. Restoring a snapshot rebuilds a cluster
// that classifies identically and snapshots back to the same bytes —
// rules return to the exact shard the dump recorded, not their hash or
// interval home, so a rebalanced layout survives the round trip.
type Snapshot struct {
	Mode   string         `json:"mode"`
	Bounds []int          `json:"bounds,omitempty"`
	Device core.Config    `json:"device"`
	Shards [][]rules.Rule `json:"shards"`
}

// Snapshot captures the cluster's current rules and routing state. It
// quiesces updates and migration for the duration (classify keeps
// running until the final routing read), and reads only the
// control-plane rule store — no device state is touched.
func (c *Cluster) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := &Snapshot{
		Mode:   c.mode.String(),
		Device: c.cfg.Device,
		Shards: make([][]rules.Rule, len(c.shards)),
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if c.mode == ModeInterval {
		snap.Bounds = append([]int(nil), c.bounds...)
	}
	for _, o := range c.owner {
		snap.Shards[o.shard] = append(snap.Shards[o.shard], o.rule)
	}
	for _, rs := range snap.Shards {
		sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	}
	return snap
}

// WriteSnapshot serializes the snapshot as indented JSON.
func (c *Cluster) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}

// ReadSnapshot parses a snapshot previously written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("cluster: decoding snapshot: %w", err)
	}
	if _, err := ParseMode(s.Mode); err != nil {
		return nil, err
	}
	if len(s.Shards) == 0 {
		return nil, fmt.Errorf("cluster: snapshot has no shards")
	}
	return &s, nil
}

// Restore builds a cluster from a snapshot: same partition mode and
// bounds, every rule reloaded into the shard that held it at dump
// time. The per-shard reloads are plain device inserts, so all derived
// state (subtable intervals, priority matrices, match tables) is rebuilt
// rather than trusted from the dump.
func Restore(s *Snapshot) (*Cluster, error) {
	mode, err := ParseMode(s.Mode)
	if err != nil {
		return nil, err
	}
	cfg := Config{Shards: len(s.Shards), Mode: mode, Device: s.Device}
	if mode == ModeInterval {
		if len(s.Bounds) != len(s.Shards)-1 {
			return nil, fmt.Errorf("cluster: snapshot has %d bounds for %d shards", len(s.Bounds), len(s.Shards))
		}
		cfg.Bounds = s.Bounds
	}
	c := New(cfg)
	for sh, rs := range s.Shards {
		for _, r := range rs {
			c.routeMu.Lock()
			if _, dup := c.owner[r.ID]; dup {
				c.routeMu.Unlock()
				c.Close()
				return nil, fmt.Errorf("cluster: snapshot repeats rule %d", r.ID)
			}
			c.owner[r.ID] = ownedRule{shard: sh, rule: r}
			c.routeMu.Unlock()
			if _, err := c.shards[sh].dev.InsertRule(r); err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: restoring rule %d into shard %d: %w", r.ID, sh, err)
			}
		}
	}
	return c, nil
}
