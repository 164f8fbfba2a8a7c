package admission

import (
	"sync"
	"sync/atomic"
	"time"
)

// The brownout controller: a feedback loop over windowed p99 latency
// and queue depth that steps the service through explicit degradation
// levels instead of letting every request share the collapse equally.
//
//	L0 full service.
//	L1 disable streaming for all but large answers (cut per-request
//	   overhead, keep semantics).
//	L2 serve generation-tagged cached answers only; shed cold
//	   queries (cached answers carry their proofs — integrity is
//	   untouched, only coverage shrinks).
//	L3 admit only the highest priority class.
//
// Stepping up is one level per control window while the pressure
// signal holds. Stepping down is hysteretic: a mildly calm window
// steps one level, and a deeply calm window (empty queue, p99 well
// under target) returns straight to L0 — which is what makes "back to
// full service within one control window after load drops" hold.

// Degradation levels (see above).
const (
	LevelFull        = 0
	LevelLean        = 1 // L1: stream large answers only
	LevelCachedOnly  = 2 // L2: answer cache only, cold queries shed
	LevelCritical    = 3 // L3: highest priority class only
	NumLevels        = 4
	maxBrownoutLevel = NumLevels - 1
)

// LevelName returns a short operator-facing name for a level.
func LevelName(l int) string {
	switch l {
	case LevelFull:
		return "L0-full"
	case LevelLean:
		return "L1-lean"
	case LevelCachedOnly:
		return "L2-cached-only"
	default:
		return "L3-critical"
	}
}

// BrownoutConfig tunes the feedback loop; zero fields select the
// defaults below.
type BrownoutConfig struct {
	// TargetP99 is the latency objective: a window whose p99 exceeds
	// it is overloaded. Default 250ms.
	TargetP99 time.Duration
	// HighQueueDepth is the queue-depth pressure threshold. Default 32.
	HighQueueDepth int
	// Window is the control interval. Default 500ms.
	Window time.Duration
	// MinSamples is how many observations a window needs before its
	// p99 may step the level up (guards against one slow straggler in
	// an idle window). Default 8.
	MinSamples int
	// OnTransition, when set, is called (outside the controller's
	// lock) on every level change — the remote service logs and
	// counts these.
	OnTransition func(from, to int)
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.TargetP99 <= 0 {
		c.TargetP99 = 250 * time.Millisecond
	}
	if c.HighQueueDepth <= 0 {
		c.HighQueueDepth = 32
	}
	if c.Window <= 0 {
		c.Window = 500 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	return c
}

// Brownout is the controller. Ticking is on-demand (driven by request
// traffic plus explicit Tick calls) rather than a background
// goroutine, so an idle embedded service costs nothing and tests stay
// deterministic.
type Brownout struct {
	cfg BrownoutConfig

	level       atomic.Int32
	transitions atomic.Int64
	stepUps     atomic.Int64
	stepDowns   atomic.Int64

	window latWindow

	mu          sync.Mutex
	windowStart time.Time
}

func newBrownout(cfg BrownoutConfig) *Brownout {
	b := &Brownout{cfg: cfg.withDefaults()}
	b.windowStart = time.Now()
	return b
}

// Level returns the current degradation level.
func (b *Brownout) Level() int { return int(b.level.Load()) }

// Observe feeds one request latency (admission queue wait included —
// queue delay is precisely the pressure signal).
func (b *Brownout) Observe(d time.Duration) { b.window.observe(d) }

// MaybeTick evaluates the window if it has elapsed. queueDepth is the
// gate's current backlog.
func (b *Brownout) MaybeTick(queueDepth int) {
	b.mu.Lock()
	if time.Since(b.windowStart) < b.cfg.Window {
		b.mu.Unlock()
		return
	}
	b.windowStart = time.Now()
	b.mu.Unlock()
	b.evaluate(queueDepth)
}

// Tick forces a window evaluation now (tests; quiesce probes).
func (b *Brownout) Tick(queueDepth int) {
	b.mu.Lock()
	b.windowStart = time.Now()
	b.mu.Unlock()
	b.evaluate(queueDepth)
}

func (b *Brownout) evaluate(queueDepth int) {
	n, p99 := b.window.snapshotAndReset()
	lvl := int(b.level.Load())
	overloaded := (n >= b.cfg.MinSamples && p99 > b.cfg.TargetP99) ||
		queueDepth > b.cfg.HighQueueDepth
	// Calm: latency comfortably under target (or nothing ran) and the
	// queue has drained below half the pressure threshold.
	calm := !overloaded && queueDepth <= b.cfg.HighQueueDepth/2 &&
		(n == 0 || p99 <= b.cfg.TargetP99*7/10)
	// Deep calm: an empty queue and p99 at most half the target — the
	// overload is over, return to full service in one step.
	deepCalm := calm && queueDepth == 0 && (n == 0 || p99 <= b.cfg.TargetP99/2)
	switch {
	case overloaded && lvl < maxBrownoutLevel:
		b.setLevel(lvl, lvl+1)
		b.stepUps.Add(1)
	case deepCalm && lvl > LevelFull:
		b.setLevel(lvl, LevelFull)
		b.stepDowns.Add(1)
	case calm && lvl > LevelFull:
		b.setLevel(lvl, lvl-1)
		b.stepDowns.Add(1)
	}
}

func (b *Brownout) setLevel(from, to int) {
	if !b.level.CompareAndSwap(int32(from), int32(to)) {
		return // racing evaluation moved it first
	}
	b.transitions.Add(1)
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

// ForceLevel pins the controller at the given level (clamped to the
// valid range), counting the change as a normal transition. Meant for
// tests and operator overrides; the next evaluation window may move
// the level again.
func (b *Brownout) ForceLevel(lvl int) {
	if lvl < LevelFull {
		lvl = LevelFull
	}
	if lvl > maxBrownoutLevel {
		lvl = maxBrownoutLevel
	}
	for {
		cur := int(b.level.Load())
		if cur == lvl {
			return
		}
		if b.level.CompareAndSwap(int32(cur), int32(lvl)) {
			b.transitions.Add(1)
			if b.cfg.OnTransition != nil {
				b.cfg.OnTransition(cur, lvl)
			}
			return
		}
	}
}

// Transitions reports how many level changes have happened.
func (b *Brownout) Transitions() int64 { return b.transitions.Load() }

// StepUps / StepDowns split the transitions by direction.
func (b *Brownout) StepUps() int64   { return b.stepUps.Load() }
func (b *Brownout) StepDowns() int64 { return b.stepDowns.Load() }
