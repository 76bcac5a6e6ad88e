package core

import (
	"sort"
	"time"
)

// This file holds the adaptive migration controller: §3.3.2 fixes the
// flow-group balancing interval at 100ms forever, which keeps paying
// the migration-scan cost (and keeps perturbing the NIC steering table)
// long after the workload has converged. The controller watches the
// locality ratio — the share of connections accepted on their home core
// versus stolen — and stretches the interval once stealing dies down,
// snapping back to the aggressive base the moment locality degrades. A
// per-group recent-owner ring catches groups that migrate back and
// forth between two cores (two equally idle cores fighting over one hot
// group) and freezes them for a cooldown, letting the rest of the table
// keep balancing.
//
// The controller is pure and deterministic: it advances only when
// Advance is called (one call per migration tick), takes all inputs as
// arguments, and never reads the clock. That is what lets the
// simulation harness (internal/sched) replay it tick-for-tick on
// virtual time and the serve package drive it from its migration
// goroutine unchanged.

// The controller's fixed policy.
const (
	// maxBackoff caps the backed-off interval at this multiple of
	// BaseInterval.
	maxBackoff = 8
	// aggressiveLocality: EWMA locality below this snaps the interval
	// back to BaseInterval. convergedLocality: at or above this a tick
	// counts toward backing off. Ticks landing between the two hold the
	// current interval (hysteresis).
	aggressiveLocality = 0.90
	convergedLocality  = 0.95
	// convergedTicks consecutive good ticks double the interval.
	convergedTicks = 3
	// localityAlpha is the locality EWMA weight for the newest tick.
	localityAlpha = 0.4
	// ownerRing is the per-group recent-owner ring capacity;
	// pingPongWindow the tick span within which an owner pattern
	// [X, Y, X] counts as ping-ponging.
	ownerRing      = 4
	pingPongWindow = 6
)

// ControllerConfig tunes the adaptive migration controller. Zero values
// select the defaults listed on each field.
type ControllerConfig struct {
	// BaseInterval is the aggressive balancing interval used while the
	// workload is still converging (default DefaultMigrateInterval).
	BaseInterval time.Duration
	// FreezeTicks is how many ticks a ping-ponging group sits out
	// (default 8).
	FreezeTicks int
}

func (c *ControllerConfig) fill() {
	if c.BaseInterval <= 0 {
		c.BaseInterval = DefaultMigrateInterval
	}
	if c.FreezeTicks <= 0 {
		c.FreezeTicks = 8
	}
}

// ownerAt is one recent-owner ring entry: group moved to Core at Tick.
type ownerAt struct {
	Core int
	Tick int
}

// Report is what one Advance call decided.
type Report struct {
	// Interval is the balancing interval to use until the next tick.
	Interval time.Duration
	// NewlyFrozen lists groups frozen this tick (ascending).
	NewlyFrozen []int
	// Unfrozen lists groups whose cooldown expired this tick (ascending).
	Unfrozen []int
	// Converged reports whether the interval is backed off past base.
	Converged bool
}

// Controller is the adaptive migration controller. Not safe for
// concurrent use; serve drives it from its single migration goroutine.
type Controller struct {
	cfg ControllerConfig

	tick      int
	interval  time.Duration
	locality  float64
	seen      bool
	goodTicks int

	rings  map[int][]ownerAt // group -> recent owners, newest last
	frozen map[int]int       // group -> tick at which it thaws
}

// NewController builds a controller starting at the aggressive interval.
func NewController(cfg ControllerConfig) *Controller {
	cfg.fill()
	return &Controller{
		cfg:      cfg,
		interval: cfg.BaseInterval,
		rings:    make(map[int][]ownerAt),
		frozen:   make(map[int]int),
	}
}

// FrozenCount reports how many groups are currently frozen.
func (c *Controller) FrozenCount() int { return len(c.frozen) }

// GroupOK is the veto the balancer consults: false while the group is
// frozen. Pass it as groupOK to Balance.
func (c *Controller) GroupOK(group int) bool {
	_, frozen := c.frozen[group]
	return !frozen
}

// Advance folds one migration tick into the controller: localDelta and
// stolenDelta are the connections accepted locally and by stealing
// since the previous tick, and moves are the migrations the balancer
// just applied (with GroupOK as its veto). It returns the decisions for
// the next interval.
func (c *Controller) Advance(localDelta, stolenDelta uint64, moves []Migration) Report {
	c.tick++
	rep := Report{}

	// Thaw groups whose cooldown expired, clearing their history so
	// stale entries cannot re-freeze them on their next legitimate move.
	for g, thaw := range c.frozen {
		if c.tick >= thaw {
			delete(c.frozen, g)
			delete(c.rings, g)
			rep.Unfrozen = append(rep.Unfrozen, g)
		}
	}
	sort.Ints(rep.Unfrozen)

	// Record this tick's moves and catch ping-pongs: a group whose last
	// three owners read X, Y, X within the window is bouncing between
	// two cores that each look like the better home from where they sit.
	for _, m := range moves {
		ring := append(c.rings[m.Group], ownerAt{Core: m.To, Tick: c.tick})
		if len(ring) > ownerRing {
			ring = ring[len(ring)-ownerRing:]
		}
		c.rings[m.Group] = ring
		if n := len(ring); n >= 3 {
			a, b, x := ring[n-3], ring[n-2], ring[n-1]
			if a.Core == x.Core && a.Core != b.Core && x.Tick-a.Tick <= pingPongWindow {
				if _, already := c.frozen[m.Group]; !already {
					c.frozen[m.Group] = c.tick + c.cfg.FreezeTicks
					rep.NewlyFrozen = append(rep.NewlyFrozen, m.Group)
				}
			}
		}
	}
	sort.Ints(rep.NewlyFrozen)

	// Fold the tick's locality sample into the EWMA. A tick with no
	// accepts at all contributes no sample — an idle server is neither
	// converged nor struggling.
	total := localDelta + stolenDelta
	if total > 0 {
		sample := float64(localDelta) / float64(total)
		if !c.seen {
			c.locality, c.seen = sample, true
		} else {
			c.locality += localityAlpha * (sample - c.locality)
		}
	}

	// Adapt the interval: migrations or degraded locality mean the
	// workload is shifting — snap back to aggressive. Sustained high
	// locality with a quiet balancer earns a doubling, up to the cap.
	switch {
	case len(moves) > 0 || (c.seen && c.locality < aggressiveLocality):
		c.interval = c.cfg.BaseInterval
		c.goodTicks = 0
	case total == 0 || c.locality >= convergedLocality:
		c.goodTicks++
		if c.goodTicks >= convergedTicks && c.interval < maxBackoff*c.cfg.BaseInterval {
			c.interval *= 2
			c.goodTicks = 0
		}
	}

	rep.Interval = c.interval
	rep.Converged = c.interval > c.cfg.BaseInterval
	return rep
}
