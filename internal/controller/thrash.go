package controller

import "time"

// DefaultDwell is the hysteresis rule's default minimum dwell time and
// the window the thrash metric judges reversals against: a node moved
// and moved back faster than this paid two reboots for demand that did
// not outlive one dwell period.
const DefaultDwell = 30 * time.Minute

// ThrashCount counts the switch decisions a history later reversed
// within one window: an acting record whose direction (donor → target)
// is the exact opposite of the previous acting record's, arriving
// strictly before one window has elapsed — the mirror of the dwell
// rule, which blocks every action before t+MinDwell. A policy that
// honours the dwell is therefore thrash-free by construction. Each
// reversal counts once, against the later decision — a 4-hour
// ping-pong at a 30-minute period scores one thrash per about-face,
// which is what the E15 ranking charges a policy for.
func ThrashCount(history []DecisionRecord, window time.Duration) int {
	return countThrash(len(history), func(i int) *DecisionRecord { return &history[i] }, window)
}

// countThrash is ThrashCount over n records read through at.
func countThrash(n int, at func(int) *DecisionRecord, window time.Duration) int {
	if window <= 0 {
		window = DefaultDwell
	}
	thrash := 0
	var prev *DecisionRecord
	for i := range n {
		rec := at(i)
		if !rec.Decision.Act {
			continue
		}
		if prev != nil &&
			rec.Decision.Donor == prev.Decision.Target &&
			rec.Decision.Target == prev.Decision.Donor &&
			rec.At-prev.At < window {
			thrash++
		}
		prev = rec
	}
	return thrash
}

// Thrash reports the manager's reversal count over the default dwell
// window — the headline anti-flap number the experiments record. It
// reads the decision log in place.
func (m *Manager) Thrash() int {
	return countThrash(m.history.Len(), m.history.At, DefaultDwell)
}
